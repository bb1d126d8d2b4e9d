"""Shared fixture builders: deterministic tones, gated noise, speech-like clips;
the output-tree hash the determinism tests compare; the finite-difference
gradient check of the toy model; the tracemalloc peak of the memory tests.

The BLAS thread count is fixed here at one, before numpy loads, as tinytts
itself does when it loads first (here numpy loads first): OpenBLAS splits some
long weight-gradient reductions across its threads, so the count moves the
bits of a trained model, and the golden pins were recorded with one thread.
"""

import os

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tinytts.audio import AudioClip
from tinytts.toytrain import ToyModel, backward, forward, make_batch

FS = 22050


def tone(freq_hz: float, amplitude: float, duration_s: float, fs: int = FS) -> AudioClip:
    t = np.arange(int(round(duration_s * fs))) / fs
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), fs)


def gated_noise(
    burst_s: float, gap_s: float, n_periods: int, seed: int = 0, fs: int = FS, std: float = 1.0
) -> AudioClip:
    """Unit-variance Gaussian bursts separated by silence, 50% duty by default."""
    rng = np.random.default_rng(seed)
    burst_n = int(round(burst_s * fs))
    gap_n = int(round(gap_s * fs))
    parts = []
    for _ in range(n_periods):
        parts.append(std * rng.standard_normal(burst_n))
        parts.append(np.zeros(gap_n))
    return AudioClip(np.concatenate(parts), fs)


def speech_like(seed: int, duration_s: float = 3.0, fs: int = FS) -> AudioClip:
    """Speech surrogate: syllabically gated, low-pass-ish harmonic + noise mix.

    Alternates voiced stretches (harmonic stack with pitch wobble) and pauses,
    so P.56 sees realistic activity between 0.4 and 0.9.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    f0 = 110.0 + 40.0 * rng.random()
    voiced = np.zeros(n)
    for k in range(1, 6):
        voiced += (0.5 / k) * np.sin(
            2 * np.pi * k * f0 * t + 2 * np.pi * rng.random()
        )
    hiss = 0.05 * rng.standard_normal(n)
    # syllable-rate on/off envelope, smoothed to avoid clicks
    seg = max(1, int(0.15 * fs))
    gates = rng.random(int(np.ceil(n / seg))) < 0.7
    env = np.repeat(gates.astype(float), seg)[:n]
    win = np.ones(int(0.01 * fs))
    env = np.convolve(env, win / len(win), mode="same")
    x = (voiced + hiss) * env
    peak = np.max(np.abs(x))
    return AudioClip(0.5 * x / peak, fs)


def scaled(clip: AudioClip, gain: float) -> AudioClip:
    return AudioClip(clip.samples * gain, clip.sample_rate_hz)


@pytest.fixture
def sine_clip() -> AudioClip:
    return tone(1000.0, 0.5, 2.0)


def tree_sha256(root: Path) -> str:
    """SHA-256 over every file under root: relative path, then bytes, sorted."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def grad_check(model: ToyModel, examples: list, eps: float = 1e-5) -> float:
    """Max relative error of analytic vs central-finite-difference gradients."""
    batch = make_batch(examples, model.config)
    analytic = backward(model, forward(model, batch))

    def loss_at() -> float:
        return forward(model, batch).loss

    worst = 0.0
    for name, p in model.params.items():
        flat = p.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_at()
            flat[i] = keep - eps
            down = loss_at()
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            a = analytic[name].reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, over what was held before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
