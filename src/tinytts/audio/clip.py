"""Mono audio clip, the unit every DSP operation works on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AudioClip:
    """Mono PCM samples as float64 in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional (mono)")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz
