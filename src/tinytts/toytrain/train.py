"""Training loop: Adam, global-norm clipping, bucketed or shuffled batches.

Batches are planned on frame counts with the same semantics the corpus
curation module uses for durations, re-planned each epoch with an
epoch-derived seed, so a run is a pure function of (config, corpus).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..config import BUCKETED
from ..curation import CorpusEntry, Subset, plan_batches
from ..errors import BadConfig
from .data import SyntheticCorpus, ToyExample
from .model import ToyModel, backward, forward, make_batch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainReport:
    final_loss: float
    loss_curve: list[float]
    grad_norms: list[float]  # global norm of each step's gradient, before clipping
    wall_clock_s: float


class Adam:
    def __init__(self, model: ToyModel, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(model.parameter_count())  # flat, in params order
        self.v = np.zeros_like(self.m)

    def step(self, model: ToyModel, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        g = np.concatenate([grads[name].reshape(-1) for name in model.params])
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        update = self.lr * (self.m / bias1) / (np.sqrt(self.v / bias2) + ADAM_EPS)
        start = 0
        for p in model.params.values():
            p -= update[start : start + p.size].reshape(p.shape)
            start += p.size


def clipped(norm: float, max_norm: float) -> bool:
    """Whether clip_global_norm scales gradients of this global norm."""
    return norm > max_norm > 0


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale grads in place to a global L2 norm of at most max_norm; the norm before."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if clipped(norm, max_norm):
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def mean_corpus_loss(model: ToyModel, examples: list[ToyExample]) -> float:
    """Teacher-forced loss over the whole corpus in deterministic batches; one
    that is not finite raises BadConfig, with numpy's warnings silenced."""
    cfg = model.config
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(examples), cfg.batch_size):
            chunk = examples[start : start + cfg.batch_size]
            total += forward(model, make_batch(chunk, cfg)).loss * len(chunk)
    loss = total / len(examples)
    if not math.isfinite(loss):
        raise BadConfig(f"corpus loss {loss:g} is not finite")
    return loss


def _train_step(
    model: ToyModel, optimizer: Adam, examples: list[ToyExample]
) -> tuple[float, float]:
    """One Adam update, whose activations and grads die with it: (loss, norm).
    A loss or pre-clip gradient norm that is not finite raises BadConfig before
    the update is applied."""
    result = forward(model, make_batch(examples, model.config))
    grads = backward(model, result)
    norm = clip_global_norm(grads, model.config.grad_clip_norm)
    if not (math.isfinite(result.loss) and math.isfinite(norm)):
        raise BadConfig(
            f"step {optimizer.t}: loss {result.loss:g} or gradient norm {norm:g} "
            "is not finite"
        )
    optimizer.step(model, grads)
    return result.loss, norm


def train(
    model: ToyModel, corpus: SyntheticCorpus, batch_plan_mode: str = BUCKETED
) -> TrainReport:
    """Run config.steps Adam updates with teacher forcing throughout; BadConfig
    if a step's loss or gradient norm, or the final corpus loss, is not finite."""
    cfg = model.config
    if not corpus.examples:
        raise ValueError("corpus is empty")
    started = time.perf_counter()
    curve: list[float] = []
    norms: list[float] = []
    optimizer = Adam(model, cfg.learning_rate)
    # the curation planner's rows: id = example index, duration = frame count
    subset = Subset([
        CorpusEntry(f"{i:06d}", "", "", float(e.target_frames.shape[0]))
        for i, e in enumerate(corpus.examples)
    ])
    step = 0
    epoch = 0
    # _train_step refuses a non-finite value, so numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while step < cfg.steps:
            batches = plan_batches(
                subset, cfg.batch_size, batch_plan_mode, cfg.seed + epoch
            )
            epoch += 1
            for batch_ids in batches:
                if step >= cfg.steps:
                    break
                examples = [corpus.examples[int(i)] for i in batch_ids]
                loss, norm = _train_step(model, optimizer, examples)
                curve.append(loss)
                norms.append(norm)
                step += 1
    return TrainReport(
        final_loss=mean_corpus_loss(model, corpus.examples),
        loss_curve=curve,
        grad_norms=norms,
        wall_clock_s=time.perf_counter() - started,
    )
