"""Active speech level measurement, ITU-T P.56 Method B.

Constants: envelope smoothing time constant 0.03 s (two cascaded first-order
smoothers), hangover 0.2 s, margin 15.9 dB, amplitude threshold ladder
2**-j for j = 0..30 downward from full scale. The active level is found by
log-linear interpolation between the two ladder rungs whose candidate-level
minus threshold-level difference brackets the margin.

dB values are dBFS with the power of a full-scale square wave (amplitude 1.0)
as the 0 dB reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SignalTooShort, SilentSignal
from .clip import AudioClip

SMOOTHING_TIME_S = 0.03
HANGOVER_S = 0.2
MARGIN_DB = 15.9
N_THRESHOLDS = 31  # 2**0 down to 2**-30
MIN_DURATION_S = 0.5


@dataclass(frozen=True)
class ActiveLevelResult:
    """Active speech level and how much of the signal was speech-active."""

    active_level_db: float
    activity_factor: float
    long_term_level_db: float


def _envelope(x: np.ndarray, fs: int) -> np.ndarray:
    """Rectified signal through two cascaded first-order smoothers."""
    # imported here, not at module level: scipy.signal is slow to import and
    # most commands never measure P.56
    from scipy.signal import lfilter

    g = np.exp(-1.0 / (fs * SMOOTHING_TIME_S))
    p = lfilter([1.0 - g], [1.0, -g], np.abs(x))
    return lfilter([1.0 - g], [1.0, -g], p)


def _active_counts(env: np.ndarray, thresholds: np.ndarray, hang: int) -> np.ndarray:
    """Samples active per threshold: envelope crossing extended by the hangover.

    Sample i is active at threshold c when env[k] >= c for some k in
    [i - hang, i], i.e. when the trailing max of the last hang + 1 envelope
    samples reaches c; one sort of those maxima then counts every rung.
    """
    from scipy.ndimage import maximum_filter1d

    trailing_max = maximum_filter1d(
        env, size=hang + 1, origin=hang // 2, mode="nearest"
    )
    return len(env) - np.searchsorted(np.sort(trailing_max), thresholds, side="left")


def active_speech_level_p56(clip: AudioClip) -> ActiveLevelResult:
    """Measure the active speech level of a clip, P.56 Method B."""
    x = clip.samples
    n = len(x)
    if n < MIN_DURATION_S * clip.sample_rate_hz:
        raise SignalTooShort(
            f"need at least {MIN_DURATION_S} s, got {n / clip.sample_rate_hz:.3f} s"
        )
    sq = float(np.dot(x, x))
    if sq == 0.0:
        raise SilentSignal("all-zero signal")
    long_term_db = 10.0 * np.log10(sq / n)

    hang = int(np.ceil(HANGOVER_S * clip.sample_rate_hz))
    # ascending thresholds, 2**-30 up to 1.0
    thresholds = 2.0 ** np.arange(-(N_THRESHOLDS - 1), 1, dtype=np.float64)
    counts = _active_counts(_envelope(x, clip.sample_rate_hz), thresholds, hang)

    threshold_db = 20.0 * np.log10(thresholds)
    with np.errstate(divide="ignore"):
        candidate_db = 10.0 * np.log10(np.where(counts > 0, sq / counts, np.inf))
    delta = candidate_db - threshold_db

    if counts[0] == 0 or delta[0] <= MARGIN_DB:
        # nothing crossed even the lowest rung, or the signal sits within the
        # margin of it: no meaningful activity
        raise SilentSignal("no activity above the lowest threshold")

    active_db = None
    for j in range(1, N_THRESHOLDS):
        if counts[j] == 0:
            break
        if delta[j] <= MARGIN_DB:
            # log-linear interpolation between rungs j-1 and j
            frac = (delta[j - 1] - MARGIN_DB) / (delta[j - 1] - delta[j])
            active_db = candidate_db[j - 1] + frac * (
                candidate_db[j] - candidate_db[j - 1]
            )
            break
    if active_db is None:
        # margin never reached inside the ladder; treat the highest crossed
        # rung as the answer (unreachable for signals with sane crest factors)
        crossed = np.nonzero(counts > 0)[0]
        active_db = float(candidate_db[crossed[-1]])

    activity = (sq / n) / 10.0 ** (active_db / 10.0)
    return ActiveLevelResult(
        active_level_db=float(active_db),
        activity_factor=float(activity),
        long_term_level_db=float(long_term_db),
    )
