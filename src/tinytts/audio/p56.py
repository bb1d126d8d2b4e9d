"""Active speech level measurement, ITU-T P.56 Method B.

Constants: envelope smoothing time constant 0.03 s (two cascaded first-order
smoothers), hangover 0.2 s, margin 15.9 dB, amplitude threshold ladder
2**-j for j = 0..30 downward from full scale. The active level is found by
log-linear interpolation between the two ladder rungs whose candidate-level
minus threshold-level difference brackets the margin.

dB values are dBFS with the power of a full-scale square wave (amplitude 1.0)
as the 0 dB reference.

Envelope: a blocked scan of y[n] = g y[n-1] + (1 - g) x[n], both smoothers at
once. The samples sit in blocks of BLOCK; one matrix product gives each
block's two smoother states at its end from a zero start, a doubling scan
over the blocks carries those states forward (log2 of the block count vector
steps), and a second product gives every sample from its block's input and
its carried-in states. All terms are non-negative, so nothing cancels and the
result stays within a few ulps of the sample-by-sample recursion.

Counting: the ladder is powers of two, so an envelope sample reaches 2**t
exactly when its binary exponent is at least t. Each sample's rung comes
from its exponent bits; a doubling sliding max over those small integers
applies the hangover; the run lengths of that max, summed from the top rung
down, count the active samples of every rung at once. The counts are exact,
and the result depends only on them and the signal energy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import UnusableSignal
from .clip import AudioClip

SMOOTHING_TIME_S = 0.03
HANGOVER_S = 0.2
MARGIN_DB = 15.9
N_THRESHOLDS = 31  # 2**0 down to 2**-30
MIN_DURATION_S = 0.5
BLOCK = 32  # samples per block of the envelope scan


@dataclass(frozen=True)
class ActiveLevelResult:
    """Active speech level and how much of the signal was speech-active."""

    active_level_db: float
    activity_factor: float
    long_term_level_db: float


@functools.lru_cache(maxsize=8)
def _block_response(fs: int) -> tuple[float, np.ndarray, np.ndarray]:
    """g and the cascade's replies over one block of BLOCK samples, c = 1 - g.

    Row j < BLOCK of `response` is the reply at block position k to input
    sample j, c**2 (k - j + 1) g**(k - j) for k >= j; rows BLOCK and BLOCK + 1
    are the replies to the first and second smoother's carried-in state,
    c (k + 1) g**(k + 1) and g**(k + 1). The columns of `end_states` map a
    block's input to the two states at its last sample.
    """
    g = float(np.exp(-1.0 / (fs * SMOOTHING_TIME_S)))
    c = 1.0 - g
    k = np.arange(BLOCK)
    lag = k[None, :] - k[:, None]
    response = np.zeros((BLOCK + 2, BLOCK))
    response[:BLOCK] = np.where(lag >= 0, c * c * (lag + 1) * g ** np.abs(lag), 0.0)
    response[BLOCK] = c * (k + 1) * g ** (k + 1)
    response[BLOCK + 1] = g ** (k + 1)
    end_states = np.stack([c * g ** k[::-1], response[:BLOCK, -1]], axis=1)
    return g, response, end_states


def _envelope(x: np.ndarray, fs: int) -> np.ndarray:
    """|x| through two cascaded first-order smoothers y[n] = g y[n-1] + c x[n].

    The states (p, q) carried from block to block follow
    s[b] = A**BLOCK s[b-1] + e[b], with A**m = g**m [[1, 0], [c m, 1]]; step
    `span` of the doubling scan adds A**(span BLOCK) times the state `span`
    blocks back.
    """
    g, response, end_states = _block_response(fs)
    c = 1.0 - g
    n = len(x)
    nb = -(-n // BLOCK)
    head = n // BLOCK * BLOCK
    # input samples, zero-padded to whole blocks, then the carried-in states
    blocks = np.zeros((nb, BLOCK + 2))
    np.abs(x[:head].reshape(-1, BLOCK), out=blocks[: head // BLOCK, :BLOCK])
    blocks[head // BLOCK :, : n - head] = np.abs(x[head:])
    p, q = (blocks[:, :BLOCK] @ end_states).T.copy()
    span = 1
    while span < nb:
        decay = g ** (span * BLOCK)
        q[span:] += decay * (q[:-span] + c * span * BLOCK * p[:-span])
        p[span:] += decay * p[:-span]
        span *= 2
    blocks[1:, BLOCK] = p[:-1]
    blocks[1:, BLOCK + 1] = q[:-1]
    return (blocks @ response).reshape(-1)[:n]


def _active_counts(env: np.ndarray, thresholds: np.ndarray, hang: int) -> np.ndarray:
    """Samples active per threshold: envelope crossing extended by the hangover.

    Sample i is active at threshold c when env[k] >= c for some k in
    [i - hang, i], i.e. when the trailing max of the last hang + 1 envelope
    samples reaches c. The thresholds must be powers of two; env >= 0. env is
    overwritten: its buffer holds each sample's rung.
    """
    t_exp = thresholds.view(np.int64) >> 52
    base = int(t_exp.min()) - 1  # rung 0: below every threshold
    top = int(t_exp.max()) - base
    bits = env.view(np.int64)
    bits >>= 52  # env >= 0: the biased exponent
    bits -= base
    np.clip(bits, 0, top, out=bits)
    # trailing windows reach hang samples before the start
    rungs = np.zeros(hang + len(env), np.uint8)
    rungs[hang:] = bits
    # rungs[i] = max over the 2**j samples starting at i, doubling j
    width = 1
    while 2 * width <= hang + 1:
        rungs = np.maximum(rungs[:-width], rungs[width:])
        width *= 2
    trailing = np.maximum(rungs[: len(env)], rungs[hang + 1 - width :][: len(env)])
    starts = np.flatnonzero(trailing[1:] != trailing[:-1]) + 1
    lengths = np.diff(starts, prepend=0, append=len(env))
    per_rung = np.zeros(top + 1, np.int64)
    np.add.at(per_rung, trailing[np.concatenate([[0], starts])], lengths)
    at_least = np.cumsum(per_rung[::-1])[::-1]
    return at_least[t_exp - base]


def active_speech_level_p56(clip: AudioClip) -> ActiveLevelResult:
    """Measure the active speech level of a clip, P.56 Method B."""
    x = clip.samples
    n = len(x)
    if n < MIN_DURATION_S * clip.sample_rate_hz:
        raise UnusableSignal(
            f"need at least {MIN_DURATION_S} s, got {n / clip.sample_rate_hz:.3f} s"
        )
    sq = float(np.dot(x, x))
    if sq == 0.0:
        raise UnusableSignal("all-zero signal")
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
        raise UnusableSignal("no activity above the lowest threshold")

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
