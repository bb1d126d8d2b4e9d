"""Seeded benchmark inputs: an LJSpeech-layout corpus of speech-like WAVs.

The corpus is written with the standard-library `wave` module, not with the
package under test, so a change to tinytts' WAV writer cannot change the
inputs. Every seed gives the same multiset of durations (evenly spaced over
1.5-10 s) in a seed-dependent order with seed-dependent signals and text:
the amount of work is the same for every seed, so seed-to-seed spread in the
timings comes from the machine, not from a larger or smaller corpus.
"""

from __future__ import annotations

import hashlib
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 22050
N_SOURCES = 16
MIN_DURATION_S = 1.5
MAX_DURATION_S = 10.0

_WORDS = (
    "the commission found that a printing press was used for the record of "
    "public works while prisoners in newgate waited on their trial and the "
    "sheriff ordered twelve copies of every paper sent to the city"
).split()


def speech_like(rng: np.random.Generator, n: int, fs: int) -> np.ndarray:
    """Syllabically gated harmonic stack plus hiss, peak 0.5.

    Same recipe as the speech surrogate of the test suite: voiced stretches
    with a random pitch alternate with pauses at syllable rate, so P.56 sees
    an activity factor between about 0.4 and 0.9.
    """
    t = np.arange(n) / fs
    f0 = 110.0 + 40.0 * rng.random()
    voiced = np.zeros(n)
    for k in range(1, 6):
        voiced += (0.5 / k) * np.sin(2 * np.pi * k * f0 * t + 2 * np.pi * rng.random())
    hiss = 0.05 * rng.standard_normal(n)
    seg = max(1, int(0.15 * fs))
    gates = rng.random(int(np.ceil(n / seg))) < 0.7
    gates[0] = True  # P.56 rejects an all-silent clip; keep one syllable
    env = np.repeat(gates.astype(float), seg)[:n]
    win = np.ones(int(0.01 * fs))
    env = np.convolve(env, win / len(win), mode="same")
    x = (voiced + hiss) * env
    return 0.5 * x / np.max(np.abs(x))


def durations_s() -> np.ndarray:
    return np.linspace(MIN_DURATION_S, MAX_DURATION_S, N_SOURCES)


def write_ljspeech_corpus(root: Path, seed: int) -> None:
    """metadata.csv (`id|raw|normalized`) plus wavs/<id>.wav, all from `seed`."""
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(N_SOURCES)
    wav_dir = root / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, slot in enumerate(order):
        utt_id = f"LJ{seed % 1000:03d}-{i + 1:04d}"
        n = int(round(durations_s()[slot] * SAMPLE_RATE_HZ))
        x = speech_like(np.random.default_rng([seed, 1, i]), n, SAMPLE_RATE_HZ)
        pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
        with wave.open(str(wav_dir / f"{utt_id}.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(SAMPLE_RATE_HZ)
            fh.writeframes(pcm.tobytes())
        words = rng.choice(_WORDS, size=3 + int(slot)).tolist()
        text = " ".join(words)
        rows.append(f"{utt_id}|{text.capitalize()}.|{text}.")
    (root / "metadata.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def tree_digest(root: Path, patterns: tuple[str, ...]) -> str:
    """SHA-256 over (relative path, bytes) of the files matching `patterns`."""
    h = hashlib.sha256()
    files = sorted({p for pat in patterns for p in root.glob(pat) if p.is_file()})
    for path in files:
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


CORPUS_PATTERNS = ("metadata.csv", "wavs/*.wav")
