import re

import numpy as np
import pytest

from tinytts.audio import (
    AudioClip,
    MelConfig,
    frame_count,
    mel_filterbank,
    mel_spectrogram,
    read_melb,
    write_melb,
)
from tinytts.audio.mel import hz_to_mel, mel_to_hz
from tinytts.errors import BadConfig, MalformedFile, UnusableSignal

from conftest import FS, tone

CFG = MelConfig()


def mel_band_centers(cfg: MelConfig) -> np.ndarray:
    """Center frequency in Hz of each triangular band: the n_mels inner points
    of n_mels + 2 edges equally spaced in mels."""
    edges = np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2)
    return mel_to_hz(edges[1:-1])


def test_silence_hits_log_floor():
    mel = mel_spectrogram(AudioClip(np.zeros(4096), FS), CFG)
    assert np.all(mel == np.log(CFG.log_floor))


@pytest.mark.parametrize("band", [15, 30, 45, 60])
def test_tone_at_band_center_wins_that_band(band):
    # oracle: an ideal line spectrum at a triangle peak excites only that band,
    # so the band index must win the per-frame argmax
    center = mel_band_centers(CFG)[band]
    clip = tone(center, 0.3, 0.5)
    mel = mel_spectrogram(clip, CFG)
    interior = mel[2:-2]
    assert np.all(np.argmax(interior, axis=1) == band)


def _filterbank_per_band(cfg: MelConfig, sample_rate_hz: int) -> np.ndarray:
    """Reference: one triangle per band, built in a loop."""
    nyquist = sample_rate_hz / 2.0
    fft_freqs = np.linspace(0.0, nyquist, cfg.n_fft // 2 + 1)
    pts = mel_to_hz(
        np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2)
    )
    fb = np.zeros((cfg.n_mels, len(fft_freqs)))
    for k in range(cfg.n_mels):
        lo, center, hi = pts[k], pts[k + 1], pts[k + 2]
        up = (fft_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - center, 1e-12)
        tri = np.maximum(0.0, np.minimum(up, down))
        fb[k] = tri * (2.0 / (hi - lo))
    return fb


@pytest.mark.parametrize("rate", [16000, 22050, 44100, 48000])
@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        MelConfig(n_mels=40, fmin_hz=80.0, fmax_hz=7600.0),
        MelConfig(
            n_fft=2048, win_length=2048, hop_length=512, n_mels=128, fmin_hz=20.0
        ),
        MelConfig(n_fft=512, win_length=400, hop_length=160, n_mels=200, fmax_hz=6000.0),
    ],
)
def test_filterbank_matches_per_band_loop(cfg, rate):
    expected = _filterbank_per_band(cfg, rate)
    assert mel_filterbank(cfg, rate).tobytes() == expected.tobytes()


def test_exact_window_gives_one_frame():
    mel = mel_spectrogram(AudioClip(np.zeros(CFG.win_length), FS), CFG)
    assert mel.shape == (1, CFG.n_mels)


def test_frame_count_formula_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(CFG.win_length, 60000))
        mel = mel_spectrogram(AudioClip(rng.standard_normal(n) * 0.1, FS), CFG)
        assert mel.shape[0] == 1 + (n - CFG.win_length) // CFG.hop_length
        assert mel.shape[0] == frame_count(n, CFG)


def test_too_short_raises():
    with pytest.raises(UnusableSignal, match="samples < win_length"):
        mel_spectrogram(AudioClip(np.zeros(CFG.win_length - 1), FS), CFG)


def test_fmax_above_nyquist_rejected():
    cfg = MelConfig(fmax_hz=9000.0)
    with pytest.raises(BadConfig, match="fmax_hz 9000.0 above Nyquist"):
        mel_spectrogram(AudioClip(np.zeros(4096), 16000), cfg)


def test_bad_config_combinations():
    with pytest.raises(BadConfig, match="hop_length must not exceed win_length"):
        MelConfig(hop_length=2048)  # hop > win
    with pytest.raises(BadConfig, match="win_length must not exceed n_fft"):
        MelConfig(win_length=2048)  # win > n_fft
    with pytest.raises(BadConfig, match="need 0 <= fmin_hz < fmax_hz"):
        MelConfig(fmin_hz=500.0, fmax_hz=100.0)
    with pytest.raises(BadConfig, match="log_floor must be positive"):
        MelConfig(log_floor=0.0)
    # caps on the filterbank, 512 x 16385 doubles at most; a config allocates none
    MelConfig(n_fft=2**15, n_mels=512)
    for bad in ({"n_fft": 2**15 + 1}, {"n_fft": 2**40}, {"n_mels": 513}):
        with pytest.raises(BadConfig, match="n_fft <= 32768 and n_mels <= 512"):
            MelConfig(**bad)


def test_filterbank_rows_positive_and_tiling():
    fb = mel_filterbank(CFG, FS)
    sums = fb.sum(axis=1)
    assert np.all(sums > 0)
    # triangles tile [fmin, fmax]: every FFT bin strictly inside is covered
    freqs = np.linspace(0, FS / 2, CFG.n_fft // 2 + 1)
    inside = (freqs > mel_band_centers(CFG)[0]) & (freqs < mel_band_centers(CFG)[-1])
    assert np.all(fb[:, inside].sum(axis=0) > 0)


def test_floor_bounds_every_value():
    rng = np.random.default_rng(9)
    mel = mel_spectrogram(AudioClip(rng.standard_normal(8000) * 0.2, FS), CFG)
    assert np.all(mel >= np.log(CFG.log_floor) - 1e-12)


def test_melb_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mel = mel_spectrogram(AudioClip(rng.standard_normal(5000) * 0.3, FS), CFG)
    path = tmp_path / "x.melb"
    write_melb(mel, path)
    back = read_melb(path)
    assert back.shape == mel.shape
    assert np.allclose(back, mel, atol=1e-4)
    # header layout: magic, T, n_mels, reserved
    raw = path.read_bytes()
    assert raw[:4] == b"MELB"
    assert int.from_bytes(raw[4:8], "little") == mel.shape[0]
    assert int.from_bytes(raw[8:12], "little") == CFG.n_mels


def test_melb_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.melb"
    path.write_bytes(b"MELB")
    with pytest.raises(MalformedFile, match=re.escape(f"{path}: not a MELB file")):
        read_melb(path)


def test_melb_truncated_payload(tmp_path):
    path = tmp_path / "bad.melb"
    rng = np.random.default_rng(5)
    mel = mel_spectrogram(AudioClip(rng.standard_normal(5000) * 0.3, FS), CFG)
    write_melb(mel, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(MalformedFile, match="MELB payload is .* bytes, expected"):
        read_melb(path)
