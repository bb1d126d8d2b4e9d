"""Controlled toy studies, one STUDIES row each: batching policy and aug embeddings.

Batching study: same model/init/corpus, one arm trained with duration-bucketed
batches, the other with fully shuffled batches; compares held-out alignment
sharpness. AugEmbedding study: a mixed clean+noisy corpus trained with and
without the augmentation embedding table; compares held-out reconstruction
against the clean templates, per inference augmentation id.

Every run is a pure function of (study parameters, seed); parallel execution
only distributes (arm, seed) pairs and writes results in a canonical order,
so output bytes never depend on scheduling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..config import (
    AUG_EMBEDDING,
    BATCHING,
    BUCKETED,
    DEFAULT_AUG_PROFILES,
    RANDOM_SHUFFLE,
    ToyConfig,
)
from ..errors import BadConfig
from ..evalkit import AttentionMatrix, sharpness_score, write_attention
from ..parallel import map_tasks
from .data import gen_synthetic_corpus
from .model import ToyModel, infer
from .train import train


@dataclass(frozen=True)
class StudyParams:
    """Corpus geometry and model configuration for one study."""

    config: ToyConfig
    n_utts: int
    n_heldout_utts: int
    len_range: tuple[int, int]
    aug_profiles: tuple[tuple[float, float], ...] = ()

    @property
    def copies_per_utt(self) -> int:
        return len(self.aug_profiles) + 1


BATCHING_PARAMS = StudyParams(
    config=ToyConfig(
        vocab_size=12,
        feat_dim=10,
        embed_dim=12,
        enc_hidden=24,
        aug_embed_dim=0,
        dec_hidden=24,
        attn_dim=12,
        n_aug_ids=1,
        max_decode_frames=150,
        learning_rate=3e-3,
        batch_size=16,
        steps=800,
    ),
    n_utts=120,
    n_heldout_utts=24,
    len_range=(3, 40),
)

AUGEMB_PARAMS = StudyParams(
    config=ToyConfig(
        vocab_size=10,
        feat_dim=12,
        embed_dim=12,
        enc_hidden=24,
        aug_embed_dim=4,
        dec_hidden=24,
        attn_dim=12,
        n_aug_ids=4,
        max_decode_frames=40,
        gate_loss_weight=2.0,
        learning_rate=3e-3,
        batch_size=16,
        steps=2500,
    ),
    n_utts=72,
    n_heldout_utts=16,
    len_range=(3, 6),
    aug_profiles=DEFAULT_AUG_PROFILES,
)


def _sharpness(model, corpus, heldout):
    """Median and mean alignment sharpness, and each utterance's attention."""
    attns = [AttentionMatrix(infer(model, e.tokens, 0)[2]) for e in heldout]
    scores = [sharpness_score(a) for a in attns]
    metrics = {"median_sharpness": np.median(scores), "mean_sharpness": np.mean(scores)}
    return {name: float(value) for name, value in metrics.items()}, attns


def _rmse_to_templates(model, corpus, heldout):
    """Per aug id, the median inference RMSE against the clean template frames."""

    def rmse(tokens, aug_id):
        frames = infer(model, tokens, aug_id)[0]
        truth = corpus.clean_frames_for(tokens)
        t = min(frames.shape[0], truth.shape[0])  # their overlapping prefix
        return float(np.sqrt(np.mean((frames[:t] - truth[:t]) ** 2)))

    # without an embedding table the model never reads its aug id, so every id
    # decodes the same frames: aug id 0 alone is measured
    ids = range(model.config.n_aug_ids) if model.config.aug_embed_dim else [0]
    rmses = {i: [rmse(e.tokens, i) for e in heldout] for i in ids}
    return {f"rmse_aug{i}": float(np.median(r)) for i, r in rmses.items()}, []


def _batching_verdicts(medians) -> dict:
    b, r = (medians[arm]["median_sharpness"] for arm in (BUCKETED, RANDOM_SHUFFLE))
    return {"bucketed_sharper": b > r}


def _augemb_verdicts(medians) -> dict:
    noisy = dict(medians["embed"])
    clean = noisy.pop("rmse_aug0")
    return {
        "clean_id_beats_noisy_ids": all(clean < value for value in noisy.values()),
        "embedding_beats_no_embedding": clean < medians["noembed"]["rmse_aug0"],
    }


class Study(NamedTuple):
    params: StudyParams  # the default; run_study may be given others
    salt: int  # seed s draws its corpus with seed s * 1000 + salt
    arms: dict  # name: (batch-plan mode, ToyConfig changes), in study.csv order
    measure: Callable  # (model, corpus, held-out) -> (metrics, attentions to dump)
    verdicts: Callable  # {arm: {metric: median over seeds}} -> {verdict: bool}


STUDIES = {
    BATCHING: Study(
        BATCHING_PARAMS, 17,
        {BUCKETED: (BUCKETED, {}), RANDOM_SHUFFLE: (RANDOM_SHUFFLE, {})},
        _sharpness, _batching_verdicts,
    ),
    AUG_EMBEDDING: Study(
        AUGEMB_PARAMS, 29,
        {"embed": (BUCKETED, {}), "noembed": (BUCKETED, {"aug_embed_dim": 0})},
        _rmse_to_templates, _augemb_verdicts,
    ),
}


def _run_arm(task):
    """One (study, arm, seed, params) run: generate the seed's corpus, train the
    arm on all but its last utterances, and measure it on their clean examples."""
    name, arm, seed, params = task
    study, cfg = STUDIES[name], params.config
    plan_mode, config_changes = study.arms[arm]
    corpus = gen_synthetic_corpus(
        cfg.vocab_size, cfg.feat_dim, params.n_utts, params.len_range,
        list(params.aug_profiles), seed=seed * 1000 + study.salt,
    )
    cut = len(corpus.examples) - params.n_heldout_utts * params.copies_per_utt
    model = ToyModel(replace(cfg, seed=seed, **config_changes))
    train(model, replace(corpus, examples=corpus.examples[:cut]), plan_mode)
    heldout = [e for e in corpus.examples[cut:] if e.aug_id == 0]
    return study.measure(model, corpus, heldout)


def run_study(
    study: str,
    seeds: list[int],
    out_dir: str | Path,
    jobs: int = 1,
    params: StudyParams | None = None,
) -> dict:
    """Execute one study over the seeds; writes CSV (+ ATTN1 dumps) to out_dir.
    An unknown study, fewer than 3 seeds, or a repeated seed raise BadConfig
    before out_dir is created."""
    if study not in STUDIES:
        raise BadConfig(f"unknown study {study!r}; known: {', '.join(STUDIES)}")
    if len(seeds) < 3:
        raise BadConfig("need at least 3 seeds")
    if len(set(seeds)) < len(seeds):
        raise BadConfig(f"seeds {seeds} repeat a seed; each seed is one run")
    arms, params = STUDIES[study].arms, params or STUDIES[study].params

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # arm-major, seed-minor: the canonical order of study.csv and the dumps
    tasks = [(study, arm, seed, params) for arm in arms for seed in seeds]
    rows, results = [], map_tasks(_run_arm, tasks, jobs)
    for (_, arm, seed, _), (metrics, attns) in zip(tasks, results):
        rows += [(arm, seed, name, metrics[name]) for name in sorted(metrics)]
        for i, attn in enumerate(attns):
            attn_dir = out / "attn" / f"{arm}_seed{seed}"
            attn_dir.mkdir(parents=True, exist_ok=True)
            write_attention(attn, attn_dir / f"{i:03d}.attn")

    csv_lines = ["study,arm,seed,metric,value"]
    csv_lines += [f"{study},{a},{sd},{m},{v:.8g}" for a, sd, m, v in rows]
    (out / "study.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    medians: dict[str, dict[str, float]] = {}
    for arm, name in dict.fromkeys((a, m) for a, _seed, m, _value in rows):
        values = [v for a, _seed, m, v in rows if (a, m) == (arm, name)]
        medians.setdefault(arm, {})[name] = float(np.median(values))
    summary = {"study": study, "seeds": list(seeds), "medians": medians}
    summary |= STUDIES[study].verdicts(medians)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary
