import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from tinytts.audio import AudioClip, active_speech_level_p56
from tinytts.audio.p56 import (
    BLOCK,
    HANGOVER_S,
    MIN_DURATION_S,
    N_THRESHOLDS,
    SMOOTHING_TIME_S,
    _active_counts,
    _envelope,
)
from tinytts.errors import UnusableSignal

from conftest import gated_noise, scaled, speech_like, tone


def test_full_duty_sine_active_equals_rms():
    # constant-envelope tone: active level == long-term level == 20log10(a) - 3.01
    for amp in (0.5, 0.1, 0.9):
        r = active_speech_level_p56(tone(1000.0, amp, 2.0))
        expected = 20 * np.log10(amp) - 3.0103
        assert r.active_level_db == pytest.approx(expected, abs=0.2)
        assert r.activity_factor >= 0.98


def test_gated_noise_50_percent_duty():
    # 50% duty with gaps well beyond the 0.2 s hangover; oracle = segment-wise
    # power bookkeeping of the construction
    clip = gated_noise(4.0, 4.0, 3, seed=3)
    n = len(clip.samples)
    burst_power = np.sum(clip.samples**2) / (n / 2)  # energy over active half
    r = active_speech_level_p56(clip)
    oracle_active = 10 * np.log10(burst_power)
    oracle_long = 10 * np.log10(np.mean(clip.samples**2))
    assert oracle_active - oracle_long == pytest.approx(3.01, abs=0.02)
    assert r.active_level_db - r.long_term_level_db == pytest.approx(3.01, abs=0.5)
    assert r.active_level_db == pytest.approx(oracle_active, abs=0.5)
    assert r.activity_factor == pytest.approx(0.5, abs=0.05)


def test_all_zero_raises_silent():
    with pytest.raises(UnusableSignal, match="all-zero signal"):
        active_speech_level_p56(AudioClip(np.zeros(22050), 22050))


def test_too_short_raises():
    with pytest.raises(UnusableSignal, match="need at least .* s, got"):
        active_speech_level_p56(AudioClip(np.ones(1000), 22050))


def test_scale_equivariance_property():
    # gain g shifts both levels by 20log10(g) and leaves activity alone
    rng = np.random.default_rng(11)
    base = speech_like(5)
    r0 = active_speech_level_p56(base)
    for _ in range(10):
        gain_db = rng.uniform(-30, 10)
        g = 10 ** (gain_db / 20)
        r = active_speech_level_p56(scaled(base, g))
        assert r.active_level_db - r0.active_level_db == pytest.approx(gain_db, abs=0.05)
        assert r.long_term_level_db - r0.long_term_level_db == pytest.approx(gain_db, abs=0.05)
        assert r.activity_factor == pytest.approx(r0.activity_factor, abs=0.01)


def test_active_at_least_long_term_property():
    for seed in range(12):
        r = active_speech_level_p56(speech_like(seed))
        assert r.active_level_db >= r.long_term_level_db - 1e-9
        assert 0.0 < r.activity_factor <= 1.0 + 1e-12


def _loop_active_counts(env, thresholds, hang):
    """Oracle: one pass per threshold, tracking the last crossing index."""
    n = len(env)
    idx = np.arange(n)
    counts = np.empty(len(thresholds), dtype=np.int64)
    for j, c in enumerate(thresholds):
        cross = env >= c
        if not cross.any():
            counts[j] = 0
            continue
        last = np.maximum.accumulate(np.where(cross, idx, -(hang + 1)))
        counts[j] = int(np.count_nonzero(idx - last <= hang))
    return counts


LADDER = 2.0 ** np.arange(-(N_THRESHOLDS - 1), 1, dtype=np.float64)
# 11025 Hz: hang 2205, an even window of hang + 1; 22050 Hz: hang 4410, odd
PROPERTY_RATES = (11025, 22050)


def _hang(rate):
    return int(np.ceil(HANGOVER_S * rate))


def test_property_rates_cover_both_window_parities():
    assert [_hang(r) for r in PROPERTY_RATES] == [2205, 4410]
    assert {(_hang(r) + 1) % 2 for r in PROPERTY_RATES} == {0, 1}


@st.composite
def envelopes(draw):
    """Bursty non-negative envelopes just over the minimum duration.

    Burst levels are exact ladder rungs (ties with a threshold) or off-rung
    values; a quiet envelope never reaches the lowest rung.
    """
    rate = draw(st.sampled_from(PROPERTY_RATES))
    n = int(np.ceil(MIN_DURATION_S * rate)) + draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = rng.random(n) * 2.0 ** -draw(st.integers(8, 40))
    bursts = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),  # start
                st.integers(1, n),  # length
                st.integers(0, 34),  # level exponent, rung 2**-k
                st.sampled_from([1.0, 0.75, 1.5]),  # on or off the rung
            ),
            max_size=6,
        )
    )
    for start, length, k, factor in bursts:
        env[start : start + length] = 2.0**-k * factor
    if draw(st.booleans()):  # activity at index 0
        env[0] = 2.0 ** -draw(st.integers(0, 30))
    if draw(st.booleans()):  # never crosses the lowest rung
        env = env * (LADDER[0] / (2.0 * max(env.max(), LADDER[0])))
    return env, _hang(rate)


@settings(max_examples=80, deadline=None)
@given(envelopes())
def test_active_counts_match_per_threshold_loop(case):
    env, hang = case
    expected = _loop_active_counts(env, LADDER, hang)
    np.testing.assert_array_equal(_active_counts(env, LADDER, hang), expected)


def test_active_counts_match_loop_on_speech_envelopes():
    for rate in PROPERTY_RATES:
        for seed in range(3):
            clip = speech_like(seed, duration_s=1.0, fs=rate)
            env = _envelope(clip.samples, rate)
            expected = _loop_active_counts(env, LADDER, _hang(rate))
            np.testing.assert_array_equal(
                _active_counts(env, LADDER, _hang(rate)), expected
            )


def test_margin_never_reached_takes_the_highest_crossed_rung():
    # one 0.5 sample in 1 s of silence: the envelope crosses rungs up to 2**-12
    # (ladder index 18) but never comes within the margin, so the ladder walk
    # stops at the first empty rung and falls back to the highest crossed one
    x = np.zeros(22050)
    x[0] = 0.5
    r = active_speech_level_p56(AudioClip(x, 22050))
    counts = _loop_active_counts(_envelope(x, 22050), LADDER, _hang(22050))
    top = int(np.flatnonzero(counts)[-1])
    assert top == 18 and counts[top + 1] == 0
    assert r.active_level_db == 10 * np.log10(0.25 / counts[top])
    assert r.active_level_db == pytest.approx(-43.09, abs=0.005)
    assert r.activity_factor == pytest.approx(0.231, abs=0.0005)


def _lfilter_envelope(x, fs):
    """Oracle: |x| through the two smoothers as two sample-by-sample recursions."""
    g = np.exp(-1.0 / (fs * SMOOTHING_TIME_S))
    p = lfilter([1.0 - g], [1.0, -g], np.abs(x))
    return lfilter([1.0 - g], [1.0, -g], p)


ENVELOPE_RATES = (11025, 16000, 22050)


@st.composite
def speech_like_signals(draw):
    """Noise bursts over quiet stretches and exact silence, at a sample rate and
    a length below one block, at a block multiple or one either side of it."""
    rate = draw(st.sampled_from(ENVELOPE_RATES))
    blocks = draw(st.integers(1, int(1.2 * rate) // BLOCK))
    n = draw(
        st.one_of(
            st.integers(1, BLOCK - 1),
            st.sampled_from([-1, 0, 1]).map(lambda d: blocks * BLOCK + d),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * 2.0 ** -draw(st.integers(12, 40))
    for _ in range(draw(st.integers(0, 6))):
        start = int(rng.integers(n))
        stop = start + int(rng.integers(1, max(2, rate // 4)))
        x[start:stop] = rng.standard_normal(len(x[start:stop])) * 2.0 ** -rng.uniform(0, 14)
    if draw(st.booleans()):  # digital silence, as at the head of a recording
        x[: int(rng.integers(n))] = 0.0
    return x, rate


@settings(max_examples=120, deadline=None)
@given(speech_like_signals())
def test_envelope_matches_lfilter_oracle(case):
    x, rate = case
    env = _envelope(x, rate)
    expected = _lfilter_envelope(x, rate)
    assert env.shape == expected.shape
    audible = expected >= 2.0**-40
    np.testing.assert_allclose(env[audible], expected[audible], rtol=1e-12, atol=0)
    np.testing.assert_array_less(env[~audible], 2.0**-39)
    hang = _hang(rate)
    np.testing.assert_array_equal(
        _active_counts(env, LADDER, hang), _loop_active_counts(expected, LADDER, hang)
    )


SCIPY_FREE = """
import sys
from pathlib import Path

from tinytts.audio import active_speech_level_p56, write_wav
from tinytts.cli import main

sys.path.insert(0, sys.argv[2])
from conftest import speech_like

tmp = Path(sys.argv[1])
active_speech_level_p56(speech_like(1, duration_s=1.0))
(tmp / "wavs").mkdir()
rows = []
for i in range(2):
    write_wav(speech_like(i, duration_s=1.2, fs=16000), tmp / "wavs" / f"u{i}.wav")
    rows.append(f"u{i}|r|t")
(tmp / "metadata.csv").write_text("\\n".join(rows) + "\\n")
argv = ["curate", "--corpus-root", str(tmp), "--budget-s", "100", "--out-dir", str(tmp / "s")]
assert main(argv) == 0
argv = ["augment", "--manifest", str(tmp / "s" / "subset.jsonl"), "--out-dir", str(tmp / "a"),
        "--noise-specs", "white:20:1,usasi:15:2"]
assert main(argv) == 0
assert main(["verify-aug", "--manifest", str(tmp / "a" / "manifest.jsonl")]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_and_p56_pipeline_never_import_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, str(tmp_path), str(tests)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
