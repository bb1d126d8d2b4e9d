"""Desk-scale attention seq2seq trainer with augmentation embeddings."""

from .data import (
    SyntheticCorpus,
    ToyExample,
    gen_synthetic_corpus,
    load_corpus,
    save_corpus,
)
from .model import (
    Batch,
    ToyConfig,
    ToyModel,
    backward,
    forward,
    infer,
    load_model,
    make_batch,
    save_model,
)
from .study import AUG_EMBEDDING, BATCHING, STUDIES, run_study
from .train import TrainReport, train
