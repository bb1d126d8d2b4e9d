"""Synthetic text/feature corpus for the toy trainer.

Each symbol owns a fixed feature template and an emission count of 2-4
frames; an utterance's target is the concatenation of its symbols' repeated
templates. Augmented copies perturb the frames with a per-profile mean shift
plus Gaussian noise, mirroring a stationary acoustic corruption, and carry
the matching augmentation id. Clean copies (aug id 0) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import seed_int
from ..curation import NUMBER, check_fields, read_json_rows, write_json_rows
from ..errors import BadConfig, MalformedFile

MIN_EMIT = 2
MAX_EMIT = 4
MAX_LEN = 64


@dataclass
class ToyExample:
    tokens: list[int]  # values in [1, K]; 0 is reserved for padding
    aug_id: int
    target_frames: np.ndarray  # (T, M); the stop gate fires at the last frame


@dataclass
class SyntheticCorpus:
    examples: list[ToyExample]
    templates: np.ndarray  # (K+1, M); row 0 unused
    emission_counts: np.ndarray  # (K+1,); row 0 unused
    aug_profiles: list[tuple[float, float]]
    seed: int

    def clean_frames_for(self, tokens: list[int]) -> np.ndarray:
        """Ground-truth frames for a token sequence: each token's template row,
        repeated as many times as its emission count, in token order."""
        return np.repeat(self.templates[tokens], self.emission_counts[tokens], axis=0)


def gen_synthetic_corpus(
    vocab_size: int,
    feat_dim: int,
    n_utts: int,
    len_range: tuple[int, int],
    aug_profiles: list[tuple[float, float]],
    seed: int,
) -> SyntheticCorpus:
    """Token sequences with template-concatenation targets plus noisy copies."""
    lo, hi = len_range
    if not (1 <= lo <= hi <= MAX_LEN):
        raise BadConfig(f"len_range {len_range} outside [1, {MAX_LEN}]")
    if vocab_size < 2:
        raise BadConfig("need vocab_size >= 2")
    if n_utts < 1:
        raise BadConfig(f"n_utts {n_utts}: need n_utts >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    templates = gen.uniform(-1.0, 1.0, size=(vocab_size + 1, feat_dim))
    templates[0] = 0.0
    counts = gen.integers(MIN_EMIT, MAX_EMIT + 1, size=vocab_size + 1)
    counts[0] = 0

    corpus = SyntheticCorpus([], templates, counts, list(aug_profiles), seed)
    for _ in range(n_utts):
        length = int(gen.integers(lo, hi + 1))
        tokens = [int(t) for t in gen.integers(1, vocab_size + 1, size=length)]
        clean = corpus.clean_frames_for(tokens)
        corpus.examples.append(ToyExample(tokens, 0, clean))
        for aug_id, (shift, std) in enumerate(aug_profiles, start=1):
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                noisy = clean + shift + std * gen.standard_normal(clean.shape)
            if not np.isfinite(noisy).all():
                raise BadConfig(f"aug profile {shift:g}:{std:g}: copies overflow")
            corpus.examples.append(ToyExample(tokens, aug_id, noisy))
    return corpus


def save_corpus(corpus: SyntheticCorpus, path: str | Path) -> None:
    """JSON-lines: one header object, then one object per example."""
    header = {
        "templates": corpus.templates.tolist(),
        "emission_counts": corpus.emission_counts.tolist(),
        "aug_profiles": corpus.aug_profiles,
        "seed": corpus.seed,
    }
    examples = (
        {
            "tokens": e.tokens,
            "aug_id": e.aug_id,
            "frames": e.target_frames.tolist(),
        }
        for e in corpus.examples
    )
    write_json_rows(path, [header, *examples])


# the JSON types of the header's and each example's fields (curation.check_fields)
HEADER_TYPES = {
    "templates": [[NUMBER]],
    "emission_counts": [(int,)],
    "aug_profiles": [[NUMBER]],
    "seed": (int,),
}
EXAMPLE_TYPES = {
    "tokens": [(int,)],
    "aug_id": (int,),
    "frames": [[NUMBER]],
}


def _header_from(row: dict) -> SyntheticCorpus:
    """The corpus a header row describes, still without examples."""
    row = check_fields(row, HEADER_TYPES)
    if any(len(p) != 2 for p in row["aug_profiles"]):
        raise ValueError("each aug profile must be a (shift, std) pair")
    if len(row["emission_counts"]) != len(row["templates"]):
        raise ValueError("need one emission count per template row")
    return SyntheticCorpus(
        [],
        np.asarray(row["templates"]),
        np.asarray(row["emission_counts"]),
        [tuple(p) for p in row["aug_profiles"]],
        seed_int(row["seed"]),
    )


def _example_from(row: dict, n_aug_profiles: int) -> ToyExample:
    """The example of a row; a "gates" field that older versions wrote is ignored."""
    row = check_fields(row, EXAMPLE_TYPES)
    if not 0 <= row["aug_id"] <= n_aug_profiles:
        raise ValueError(f"aug_id {row['aug_id']} outside [0, {n_aug_profiles}]")
    frames = np.asarray(row["frames"], dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be T x M")
    return ToyExample(row["tokens"], row["aug_id"], frames)


def load_corpus(path: str | Path) -> SyntheticCorpus:
    """Read a save_corpus file, blank lines skipped; MalformedFile names the
    line that does not parse (NaN and Infinity included) or holds a value out
    of range."""
    corpus = None

    def build(row: dict) -> None:
        nonlocal corpus
        if corpus is None:
            corpus = _header_from(row)
        else:
            corpus.examples.append(_example_from(row, len(corpus.aug_profiles)))

    read_json_rows(path, {}, build)
    if not corpus.examples:
        raise MalformedFile(f"{path}: no examples")
    return corpus
