"""Log-mel spectrogram extraction and the MELB on-disk format.

Framing uses no padding: T = 1 + (len - win_length) // hop_length, with a
periodic Hann window. The filterbank uses the Slaney mel scale (linear below
1 kHz, logarithmic above) with area-normalized triangles, applied to the
magnitude STFT, then a floored natural log.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import BadConfig, MalformedFile, UnusableSignal
from .clip import AudioClip

_MEL_BREAK_HZ = 1000.0
_MEL_BELOW_BREAK = 3.0 / 200.0  # mels per Hz in the linear region
_MEL_LOG_STEP = np.log(6.4) / 27.0
STFT_BLOCK = 64  # frames per rfft call of the STFT
# bound the filterbank, n_mels x (n_fft // 2 + 1) doubles, at 67 MB
MAX_N_FFT = 2**15
MAX_N_MELS = 512


@dataclass(frozen=True)
class MelConfig:
    n_fft: int = 1024
    hop_length: int = 256
    win_length: int = 1024
    n_mels: int = 80
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0
    log_floor: float = 1e-5

    def __post_init__(self) -> None:
        if min(self.n_fft, self.hop_length, self.win_length, self.n_mels) < 1:
            raise BadConfig("n_fft, hop_length, win_length, n_mels must be >= 1")
        if self.n_fft > MAX_N_FFT or self.n_mels > MAX_N_MELS:
            raise BadConfig(f"need n_fft <= {MAX_N_FFT} and n_mels <= {MAX_N_MELS}")
        if self.win_length > self.n_fft:
            raise BadConfig("win_length must not exceed n_fft")
        if self.hop_length > self.win_length:
            raise BadConfig("hop_length must not exceed win_length")
        if not 0 <= self.fmin_hz < self.fmax_hz:
            raise BadConfig("need 0 <= fmin_hz < fmax_hz")
        if self.log_floor <= 0:
            raise BadConfig("log_floor must be positive")


def hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, log above."""
    f = np.asarray(f, dtype=np.float64)
    mel = f * _MEL_BELOW_BREAK
    above = f >= _MEL_BREAK_HZ
    mel = np.where(
        above,
        _MEL_BREAK_HZ * _MEL_BELOW_BREAK
        + np.log(np.maximum(f, _MEL_BREAK_HZ) / _MEL_BREAK_HZ) / _MEL_LOG_STEP,
        mel,
    )
    return mel


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    break_mel = _MEL_BREAK_HZ * _MEL_BELOW_BREAK
    f = m / _MEL_BELOW_BREAK
    above = m >= break_mel
    return np.where(
        above, _MEL_BREAK_HZ * np.exp(_MEL_LOG_STEP * (m - break_mel)), f
    )


def mel_filterbank(cfg: MelConfig, sample_rate_hz: int) -> np.ndarray:
    """(n_mels x n_fft//2+1) area-normalized triangular filters."""
    nyquist = sample_rate_hz / 2.0
    if cfg.fmax_hz > nyquist:
        raise BadConfig(f"fmax_hz {cfg.fmax_hz} above Nyquist {nyquist}")
    fft_freqs = np.linspace(0.0, nyquist, cfg.n_fft // 2 + 1)
    # n_mels + 2 edges equally spaced in mels; one row per band, which spans
    # edges k to k + 2 and peaks at edge k + 1: lo < center < hi
    pts = mel_to_hz(
        np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2)
    )
    lo, center, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    up = (fft_freqs - lo) / np.maximum(center - lo, 1e-12)
    down = (hi - fft_freqs) / np.maximum(hi - center, 1e-12)
    tri = np.maximum(0.0, np.minimum(up, down))
    return tri * (2.0 / (hi - lo))  # area normalization


def frame_count(n_samples: int, cfg: MelConfig) -> int:
    return 1 + (n_samples - cfg.win_length) // cfg.hop_length


@functools.lru_cache(maxsize=8)
def _mel_basis(cfg: MelConfig, sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    """The periodic Hann window and the filterbank, as read-only arrays."""
    window = 0.5 - 0.5 * np.cos(
        2.0 * np.pi * np.arange(cfg.win_length) / cfg.win_length
    )
    fb = mel_filterbank(cfg, sample_rate_hz)
    window.flags.writeable = False
    fb.flags.writeable = False
    return window, fb


def _stft_magnitude(x: np.ndarray, cfg: MelConfig, window: np.ndarray) -> np.ndarray:
    """(T, n_fft//2+1) STFT magnitudes, transformed STFT_BLOCK frames at a time.

    Each row of a blocked rfft equals that row of one whole call, so only the
    windowed frames and spectra of one block are held beside the result.
    """
    t = frame_count(len(x), cfg)
    stride = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        x,
        shape=(t, cfg.win_length),
        strides=(cfg.hop_length * stride, stride),
        writeable=False,
    )
    mag = np.empty((t, cfg.n_fft // 2 + 1))
    for start in range(0, t, STFT_BLOCK):
        rows = slice(start, start + STFT_BLOCK)
        np.abs(np.fft.rfft(frames[rows] * window, n=cfg.n_fft, axis=1), out=mag[rows])
    return mag


def mel_spectrogram(clip: AudioClip, cfg: MelConfig = MelConfig()) -> np.ndarray:
    """T x n_mels floored log-mel magnitudes, one row per frame."""
    if len(clip.samples) < cfg.win_length:
        raise UnusableSignal(
            f"{len(clip.samples)} samples < win_length {cfg.win_length}"
        )
    window, fb = _mel_basis(cfg, clip.sample_rate_hz)
    mel = _stft_magnitude(clip.samples, cfg, window) @ fb.T
    return np.log(np.maximum(mel, cfg.log_floor))


# --- MELB format: 16-byte header (magic, T, n_mels, reserved), f32 LE payload ---

_MELB_MAGIC = b"MELB"


def write_melb(frames: np.ndarray, path: str | Path) -> None:
    t, n_mels = frames.shape
    header = _MELB_MAGIC + struct.pack("<III", t, n_mels, 0)
    Path(path).write_bytes(header + frames.astype("<f4").tobytes(order="C"))


def read_melb(path: str | Path) -> np.ndarray:
    """Read a MELB file back as a T x n_mels float array; a MalformedFile
    names the path."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != _MELB_MAGIC:
        raise MalformedFile(f"{path}: not a MELB file")
    t, n_mels, reserved = struct.unpack("<III", raw[4:16])
    if reserved != 0:
        raise MalformedFile(f"{path}: MELB reserved field must be 0")
    expect = 16 + 4 * t * n_mels
    if len(raw) != expect:
        raise MalformedFile(
            f"{path}: MELB payload is {len(raw) - 16} bytes, expected {expect - 16}"
        )
    return (
        np.frombuffer(raw[16:], dtype="<f4").reshape(t, n_mels).astype(np.float64)
    )
