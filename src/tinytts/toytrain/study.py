"""Controlled toy studies: batching policy and augmentation embeddings.

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

import numpy as np

from ..curation import BUCKETED, RANDOM_SHUFFLE
from ..errors import BadConfig
from ..evalkit import AttentionMatrix, sharpness_score, write_attention
from ..parallel import map_tasks
from .data import SyntheticCorpus, gen_synthetic_corpus
from .model import ToyConfig, ToyModel, infer
from .train import train

BATCHING = "batching"
AUG_EMBEDDING = "augembedding"

DEFAULT_AUG_PROFILES = ((0.0, 0.1), (0.2, 0.05), (-0.15, 0.08))


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


def rmse_to_templates(
    model: ToyModel, corpus: SyntheticCorpus, tokens: list[int], aug_id: int
) -> float:
    """Inference RMSE against the clean template frames (overlapping prefix)."""
    frames, _gates, _attn = infer(model, tokens, aug_id)
    truth = corpus.clean_frames_for(tokens)
    t = min(frames.shape[0], truth.shape[0])
    return float(np.sqrt(np.mean((frames[:t] - truth[:t]) ** 2)))


def _corpus(params: StudyParams, seed: int, salt: int):
    """(corpus, training part, held-out clean examples of the last utterances)."""
    corpus = gen_synthetic_corpus(
        params.config.vocab_size,
        params.config.feat_dim,
        params.n_utts,
        params.len_range,
        list(params.aug_profiles),
        seed=seed * 1000 + salt,
    )
    cut = len(corpus.examples) - params.n_heldout_utts * params.copies_per_utt
    train_part = replace(corpus, examples=corpus.examples[:cut])
    heldout_clean = [e for e in corpus.examples[cut:] if e.aug_id == 0]
    return corpus, train_part, heldout_clean


def _run_batching_arm(args):
    seed, mode, params = args
    _, train_part, heldout = _corpus(params, seed, salt=17)
    model = ToyModel(replace(params.config, seed=seed))
    train(model, train_part, batch_plan_mode=mode)
    attns = [AttentionMatrix(infer(model, e.tokens, 0)[2]) for e in heldout]
    scores = [sharpness_score(a) for a in attns]
    return {
        "median_sharpness": float(np.median(scores)),
        "mean_sharpness": float(np.mean(scores)),
    }, attns


def _run_augemb_arm(args):
    seed, arm, params = args
    corpus, train_part, heldout = _corpus(params, seed, salt=29)
    cfg = replace(
        params.config,
        seed=seed,
        aug_embed_dim=params.config.aug_embed_dim if arm == "embed" else 0,
    )
    model = ToyModel(cfg)
    train(model, train_part, batch_plan_mode=BUCKETED)
    # without an embedding table the model never reads its aug id, so every id
    # decodes the same frames: aug id 0 alone is measured
    aug_ids = range(cfg.n_aug_ids) if cfg.aug_embed_dim else [0]
    return {
        f"rmse_aug{aug_id}": float(
            np.median(
                [rmse_to_templates(model, corpus, e.tokens, aug_id) for e in heldout]
            )
        )
        for aug_id in aug_ids
    }, []


def run_study(
    study: str,
    seeds: list[int],
    out_dir: str | Path,
    jobs: int = 1,
    params: StudyParams | None = None,
) -> dict:
    """Execute one study over the seeds; writes CSV (+ ATTN1 dumps) to out_dir.
    Fewer than 3 seeds, or a repeated seed, raise BadConfig before out_dir is
    created."""
    if len(seeds) < 3:
        raise BadConfig("need at least 3 seeds")
    if len(set(seeds)) < len(seeds):
        raise BadConfig(f"seeds {seeds} repeat a seed; each seed is one run")
    if study == BATCHING:
        arms = [BUCKETED, RANDOM_SHUFFLE]
        runner = _run_batching_arm
        params = params or BATCHING_PARAMS
    elif study == AUG_EMBEDDING:
        arms = ["embed", "noembed"]
        runner = _run_augemb_arm
        params = params or AUGEMB_PARAMS
    else:
        raise ValueError(f"unknown study {study!r}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # arm-major, seed-minor: the canonical order of study.csv and the dumps
    tasks = [(seed, arm, params) for arm in arms for seed in seeds]
    rows = []
    for (seed, arm, _), (metrics, attns) in zip(tasks, map_tasks(runner, tasks, jobs)):
        rows += [(arm, seed, name, metrics[name]) for name in sorted(metrics)]
        for i, attn in enumerate(attns):
            attn_dir = out / "attn" / f"{arm}_seed{seed}"
            attn_dir.mkdir(parents=True, exist_ok=True)
            write_attention(attn, attn_dir / f"{i:03d}.attn")

    csv_lines = ["study,arm,seed,metric,value"]
    csv_lines += [f"{study},{a},{sd},{m},{v:.8g}" for a, sd, m, v in rows]
    (out / "study.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    summary = _summarize(study, seeds, rows)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def _summarize(study, seeds, rows) -> dict:
    """The per-arm medians over seeds of each metric in rows, and the verdicts."""
    values: dict[str, dict[str, list[float]]] = {}
    for arm, _seed, name, value in rows:
        values.setdefault(arm, {}).setdefault(name, []).append(value)
    medians = {
        arm: {name: float(np.median(vals)) for name, vals in per_metric.items()}
        for arm, per_metric in values.items()
    }
    summary: dict = {"study": study, "seeds": list(seeds), "medians": medians}
    if study == BATCHING:
        b = medians[BUCKETED]["median_sharpness"]
        r = medians[RANDOM_SHUFFLE]["median_sharpness"]
        summary["bucketed_sharper"] = b > r
    else:
        embed = medians["embed"]
        clean = embed["rmse_aug0"]
        summary["clean_id_beats_noisy_ids"] = all(
            clean < value for name, value in embed.items() if name != "rmse_aug0"
        )
        summary["embedding_beats_no_embedding"] = clean < medians["noembed"]["rmse_aug0"]
    return summary
