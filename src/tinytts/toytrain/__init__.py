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
from .study import AUG_EMBEDDING, BATCHING, run_study
from .train import TrainReport, grad_check, train

__all__ = [
    "AUG_EMBEDDING",
    "BATCHING",
    "Batch",
    "SyntheticCorpus",
    "ToyConfig",
    "ToyExample",
    "ToyModel",
    "TrainReport",
    "backward",
    "forward",
    "gen_synthetic_corpus",
    "grad_check",
    "infer",
    "load_corpus",
    "load_model",
    "make_batch",
    "run_study",
    "save_corpus",
    "save_model",
    "train",
]
