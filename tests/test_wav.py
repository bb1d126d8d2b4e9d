import builtins
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinytts.audio.wav
from tinytts.audio import AudioClip, read_wav, read_wav_info, write_wav
from tinytts.errors import MalformedFile, TinyTtsError

from conftest import tone


def test_sine_scaling_identity(tmp_path):
    # 1 kHz sine at integer amplitude 16384 -> peak ~ 0.5 after /32768 scaling
    clip = tone(1000.0, 16384.0 / 32768.0, 1.0)
    path = tmp_path / "sine.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert back.sample_rate_hz == 22050
    assert len(back.samples) == 22050
    assert np.max(np.abs(back.samples)) == pytest.approx(0.5, abs=1e-4)


def test_all_zero_file(tmp_path):
    path = tmp_path / "zeros.wav"
    write_wav(AudioClip(np.zeros(100), 8000), path)
    back = read_wav(path)
    assert np.count_nonzero(back.samples) == 0
    assert len(back.samples) == 100
    assert back.duration_s == pytest.approx(100 / 8000)


def test_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(1)
    clip = AudioClip(rng.uniform(-0.9, 0.9, 1000), 16000)
    path = tmp_path / "rt.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - clip.samples)) <= 2.0**-15


def test_clamp_policy(tmp_path):
    path = tmp_path / "clamp.wav"
    write_wav(AudioClip(np.array([1.2, -1.5, 0.0]), 8000), path)
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / 32768)
    assert back.samples[1] == pytest.approx(-1.0)


def test_empty_clip_round_trips(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(AudioClip(np.zeros(0), 8000), path)
    back = read_wav(path)
    assert len(back.samples) == 0


def test_truncated_data_chunk(tmp_path):
    path = tmp_path / "good.wav"
    write_wav(AudioClip(np.zeros(500), 8000), path)
    raw = path.read_bytes()
    bad = tmp_path / "trunc.wav"
    bad.write_bytes(raw[: 44 + 100])  # data chunk declares 1000 bytes
    with pytest.raises(MalformedFile, match="declares 1000 bytes but only 100 present"):
        read_wav(bad)


def test_bad_magic(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"JUNK" + b"\x00" * 60)
    with pytest.raises(MalformedFile, match="missing RIFF/WAVE magic"):
        read_wav(bad)


def _pcm16_wav(data: bytes, channels: int = 1, rate: int = 8000) -> bytes:
    """A 16-bit PCM WAV of the given data bytes."""
    block = 2 * channels
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, channels, rate, rate * block, block, 16
    )
    return header + b"data" + struct.pack("<I", len(data)) + data


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    path.write_bytes(_pcm16_wav(np.zeros(40, dtype="<i2").tobytes(), channels=2))
    with pytest.raises(MalformedFile, match="2 channels; only mono"):
        read_wav(path)


def test_wav_info_matches_full_read(tmp_path):
    clip = tone(440.0, 0.3, 0.5, fs=16000)
    path = tmp_path / "probe.wav"
    write_wav(clip, path)
    n, rate = read_wav_info(path)
    assert (n, rate) == (len(clip.samples), 16000)


def test_round_trip_property_random_lengths(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(20):
        n = int(rng.integers(1, 5000))
        clip = AudioClip(rng.uniform(-1.0, 1.0, n), 22050)
        path = tmp_path / f"p{i}.wav"
        write_wav(clip, path)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - clip.samples)) <= 2.0**-15


def _count_reads(monkeypatch) -> list[int]:
    """Bytes returned by each read of files the WAV module opens."""
    counts: list[int] = []

    class Counting:
        def __init__(self, fh):
            self._fh = fh

        def read(self, *args):
            data = self._fh.read(*args)
            counts.append(len(data))
            return data

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def counting_open(*args, **kwargs):
        return Counting(builtins.open(*args, **kwargs))

    monkeypatch.setattr(tinytts.audio.wav, "open", counting_open, raising=False)
    return counts


def test_wav_info_reads_headers_only(tmp_path, monkeypatch):
    path = tmp_path / "long.wav"
    write_wav(AudioClip(np.zeros(22050 * 10), 22050), path)
    raw = path.read_bytes()
    counts = _count_reads(monkeypatch)
    assert read_wav_info(path) == (22050 * 10, 22050)
    assert 0 < sum(counts) < 4096
    truncated = tmp_path / "truncated.wav"
    truncated.write_bytes(raw[:-1])  # the data chunk declares one byte more
    with pytest.raises(MalformedFile, match="declares"):
        read_wav_info(truncated)


def test_header_errors_name_the_file(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(b"RIFF")
    for reader in (read_wav, read_wav_info):
        with pytest.raises(
            MalformedFile, match=re.escape(f"{path}: file shorter than a RIFF header")
        ):
            reader(path)


def test_wav_info_applies_the_full_header_check(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(_pcm16_wav(b"\x00" * 5) + b"\x00")  # with the pad byte
    for reader in (read_wav, read_wav_info):
        with pytest.raises(MalformedFile, match="odd byte count"):
            reader(path)


def _outcome(reader, path):
    try:
        result = reader(path)
    except TinyTtsError as exc:
        return type(exc), str(exc)
    if isinstance(result, AudioClip):
        return len(result.samples), result.sample_rate_hz
    return result


VALID_WAV = _pcm16_wav((np.arange(-50, 50) * 300).astype("<i2").tobytes())


def _assert_readers_agree(path) -> None:
    """Both readers return the same (sample count, rate), or both raise the
    same TinyTtsError subclass with the same message; any other exception fails
    the test."""
    assert _outcome(read_wav, path) == _outcome(read_wav_info, path)


@settings(max_examples=500, deadline=None)
@given(
    # a header byte: the samples cannot change what either reader returns
    position=st.sampled_from(range(44)),
    # half the changes are small: a size one short, a neighbouring format
    delta=st.one_of(st.integers(-3, 3), st.integers(-128, 127)).filter(bool),
)
def test_wav_readers_agree_on_a_changed_byte(tmp_path_factory, position, delta):
    raw = bytearray(VALID_WAV)
    raw[position] = (raw[position] + delta) % 256
    path = tmp_path_factory.getbasetemp() / "mutated.wav"
    path.write_bytes(bytes(raw))
    _assert_readers_agree(path)


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(0, len(VALID_WAV) - 1))
def test_wav_readers_agree_on_a_truncation(tmp_path_factory, cut):
    path = tmp_path_factory.getbasetemp() / "truncated.wav"
    path.write_bytes(VALID_WAV[:cut])
    _assert_readers_agree(path)
