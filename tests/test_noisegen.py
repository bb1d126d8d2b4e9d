import re

import numpy as np
import pytest
from scipy.signal import welch

from tinytts.audio import AudioClip, active_speech_level_p56
from tinytts.errors import BadConfig, MalformedFile, UnusableSignal
from tinytts.noisegen import (
    MAX_ABS_DB,
    PSD_TABLE,
    USASI,
    WHITE,
    SpectrumSpec,
    NoiseSpec,
    default_noise_specs,
    mix_at_snr,
    read_psd_table_csv,
    shaped_noise,
    usasi_magnitude,
    white_gaussian,
    _table_magnitude,
)

from conftest import FS, scaled, speech_like, tone


def test_white_moments_1e6():
    x = white_gaussian(10**6, seed=1)
    assert x.mean() == pytest.approx(0.0, abs=0.005)
    assert x.var() == pytest.approx(1.0, abs=0.01)


def test_white_determinism_and_seed_sensitivity():
    a = white_gaussian(64, seed=9)
    b = white_gaussian(64, seed=9)
    assert np.array_equal(a, b)
    c = white_gaussian(64, seed=10)
    assert np.all(a[:16] != c[:16])


def test_white_golden_values():
    # freezes the PRNG + Gaussian transform contract (Philox key=seed,
    # numpy ziggurat); a change here means existing datasets can't be rebuilt
    x = white_gaussian(4, seed=1)
    golden = [
        1.0202879773607301,
        0.7597131895605167,
        -0.24583790273512823,
        0.4420758466537692,
    ]
    assert np.allclose(x, golden, rtol=0, atol=1e-15)


def test_usasi_welch_matches_analytic_curve():
    fs = 22050
    x = shaped_noise(60 * fs, SpectrumSpec(USASI), fs, seed=42)
    f, pxx = welch(x, fs=fs, nperseg=4096)
    band = (f >= 50) & (f <= 5000)
    measured_db = 10 * np.log10(pxx[band])
    analytic_db = 20 * np.log10(usasi_magnitude(f[band]))
    i200 = np.argmin(np.abs(f[band] - 200.0))
    offset = measured_db[i200] - analytic_db[i200]
    assert np.max(np.abs(measured_db - analytic_db - offset)) <= 1.0


def test_white_kind_is_identity_shaping():
    n = FS
    shaped = shaped_noise(n, SpectrumSpec(WHITE), FS, seed=5)
    raw = white_gaussian(n, seed=5)
    assert np.allclose(shaped, raw / np.sqrt(np.mean(raw**2)))


def test_flat_table_degenerates_to_white():
    fs = 22050
    spec = SpectrumSpec(PSD_TABLE, ((100.0, 3.0), (5000.0, 3.0)))
    x = shaped_noise(40 * fs, spec, fs, seed=1)
    f, pxx = welch(x, fs=fs, nperseg=2048)
    band = (f >= 100) & (f <= 5000)
    db = 10 * np.log10(pxx[band])
    assert np.max(np.abs(db - db.mean())) <= 1.0


def test_shaped_noise_unit_rms_property():
    for kind, pts in ((WHITE, None), (USASI, None), (PSD_TABLE, ((50.0, 6.0), (5000.0, -3.0)))):
        x = shaped_noise(2 * FS, SpectrumSpec(kind, pts), FS, seed=3)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(1.0, abs=0.01)


def test_shaped_noise_too_short():
    with pytest.raises(UnusableSignal, match="need at least 1 s"):
        shaped_noise(FS - 1, SpectrumSpec(USASI), FS, seed=0)


def test_bad_tables_rejected():
    with pytest.raises(BadConfig, match="needs at least 2 points"):
        SpectrumSpec(PSD_TABLE, ((100.0, 0.0),))  # one point
    with pytest.raises(BadConfig, match="frequencies must strictly increase"):
        SpectrumSpec(PSD_TABLE, ((100.0, 0.0), (50.0, 0.0)))  # not increasing
    with pytest.raises(BadConfig, match="frequencies must be finite and positive"):
        SpectrumSpec(PSD_TABLE, ((0.0, 0.0), (50.0, 0.0)))  # f=0
    with pytest.raises(BadConfig, match="PSD table powers must be in"):
        SpectrumSpec(PSD_TABLE, ((10.0, np.inf), (50.0, 0.0)))
    # a NaN frequency compares false with everything, so order checks pass it
    for points in (((np.nan, 0.0), (50.0, 0.0)), ((100.0, 0.0), (np.nan, 0.0))):
        with pytest.raises(BadConfig, match="frequencies must be finite"):
            SpectrumSpec(PSD_TABLE, points)
    with pytest.raises(BadConfig, match="PSD table frequency above Nyquist"):
        shaped_noise(2 * FS, SpectrumSpec(PSD_TABLE, ((100.0, 0.0), (20000.0, 0.0))), FS, seed=0)


def test_table_powers_bounded():
    # beyond the bound 10 ** (power / 20) overflows or underflows to a NaN noise
    for power in (MAX_ABS_DB, -MAX_ABS_DB):
        spec = SpectrumSpec(PSD_TABLE, ((20.0, power), (8000.0, 0.0)))
        x = shaped_noise(FS, spec, FS, seed=2)
        assert np.all(np.isfinite(x))
        assert np.sqrt(np.mean(x**2)) == pytest.approx(1.0)
    for power in (300.5, -300.5, 7000.0, -7000.0, np.nan, -np.inf):
        with pytest.raises(BadConfig, match="PSD table powers must be in .*300 dB"):
            SpectrumSpec(PSD_TABLE, ((20.0, power), (8000.0, 7.0)))


def test_table_magnitude_flat_beyond_the_ends():
    pts = ((100.0, 6.0), (1000.0, -14.0))
    freqs = np.array([0.0, 50.0, 100.0, 316.22776601683796, 1000.0, 4000.0])
    expect_db = np.array([6.0, 6.0, 6.0, -4.0, -14.0, -14.0])
    assert np.allclose(_table_magnitude(pts, freqs), 10.0 ** (expect_db / 20.0))


def test_mix_gain_for_unit_rms_tone():
    # constant-envelope unit-RMS tone: active power = 1, so the 20 dB noise
    # gain is 10**(-20/20) = 0.1
    clip = tone(1000.0, np.sqrt(2.0), 2.0)
    res = mix_at_snr(clip, SpectrumSpec(WHITE), 20.0, seed=7)
    assert res.noise_gain == pytest.approx(0.1, rel=0.01)


@pytest.mark.parametrize("snr_db", [25.0, 15.0, 20.0])
def test_remeasured_snr_within_tolerance(snr_db):
    speech = speech_like(17)
    res = mix_at_snr(speech, SpectrumSpec(USASI), snr_db, seed=11)
    # remeasurement oracle: P.56 active level of the (rescaled) clean part
    # against the power of the extracted noise component
    clean = speech.samples * res.mixture_gain
    noise = res.clip.samples - clean
    active_db = active_speech_level_p56(
        AudioClip(clean, speech.sample_rate_hz)
    ).active_level_db
    achieved = active_db - 10 * np.log10(np.mean(noise**2))
    assert achieved == pytest.approx(snr_db, abs=0.3)


def test_mix_silent_speech_raises():
    with pytest.raises(UnusableSignal, match="all-zero signal"):
        mix_at_snr(AudioClip(np.zeros(FS), FS), SpectrumSpec(WHITE), 20.0, seed=0)


def test_mix_determinism():
    speech = speech_like(2)
    a = mix_at_snr(speech, SpectrumSpec(USASI), 15.0, seed=4)
    b = mix_at_snr(speech, SpectrumSpec(USASI), 15.0, seed=4)
    assert np.array_equal(a.clip.samples, b.clip.samples)
    assert a.noise_gain == b.noise_gain


def test_mix_linearity_in_speech_gain():
    # SNR is scale-invariant: scaling speech by g scales the noise gain by g
    speech = speech_like(8)
    base = mix_at_snr(speech, SpectrumSpec(WHITE), 20.0, seed=3)
    for g in (0.25, 0.5):
        res = mix_at_snr(scaled(speech, g), SpectrumSpec(WHITE), 20.0, seed=3)
        assert res.noise_gain == pytest.approx(g * base.noise_gain, rel=0.01)


def test_overflow_rescue_preserves_snr():
    # near-full-scale speech at low SNR forces the peak above 1.0
    speech = scaled(speech_like(4), 1.9)
    res = mix_at_snr(speech, SpectrumSpec(WHITE), 0.0, seed=6)
    assert res.mixture_gain < 1.0
    assert np.max(np.abs(res.clip.samples)) == pytest.approx(0.99, abs=1e-9)
    clean = speech.samples * res.mixture_gain
    noise = res.clip.samples - clean
    active_db = active_speech_level_p56(
        AudioClip(clean, speech.sample_rate_hz)
    ).active_level_db
    achieved = active_db - 10 * np.log10(np.mean(noise**2))
    assert achieved == pytest.approx(0.0, abs=0.3)


def test_default_specs_match_configuration_contract():
    specs = default_noise_specs()
    assert [s.aug_id for s in specs] == [1, 2, 3]
    assert [s.snr_db for s in specs] == [25.0, 15.0, 20.0]
    assert len({s.aug_id for s in specs}) == 3


def test_noise_spec_rejects_reserved_aug_id():
    with pytest.raises(BadConfig, match=re.escape("aug_id 0 is outside [1, 2**32)")):
        NoiseSpec("bad", SpectrumSpec(WHITE), 10.0, 0)


def test_noise_spec_aug_id_fits_derive_seed():
    # derive_seed hashes the aug id as 4 bytes
    NoiseSpec("top", SpectrumSpec(WHITE), 10.0, 2**32 - 1)
    with pytest.raises(BadConfig, match=re.escape("outside [1, 2**32)")):
        NoiseSpec("bad", SpectrumSpec(WHITE), 10.0, 2**32)


def test_psd_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("freq_hz,power_db\n100,3.5\n1000,-2\n", encoding="utf-8")
    spec = read_psd_table_csv(path)
    assert spec.kind == PSD_TABLE
    assert spec.psd_points == ((100.0, 3.5), (1000.0, -2.0))
    # blank lines, a first one included, are skipped
    path.write_text("\nfreq_hz, power_db\n\n100,3.5\n1000,-2\n", encoding="utf-8")
    assert read_psd_table_csv(path).psd_points == spec.psd_points
    bad = tmp_path / "bad.csv"
    bad.write_text("frequency,power\n100,0\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match=re.escape(f"{bad}:1: bad PSD CSV header")):
        read_psd_table_csv(bad)
    bad.write_text("freq_hz,power_db\n100,3,4\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match=re.escape(f"{bad}:2: expected 2")):
        read_psd_table_csv(bad)
