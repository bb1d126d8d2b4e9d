"""Peak-memory contracts of the audio path, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so these peaks are exact byte
counts and do not depend on the machine. Each bound is in clip-sizes, the
float64 bytes of the 10 s speech-like clip the stage works on, so it holds a
constant factor per utterance, not only a bound per utterance.
"""

import pytest

from tinytts.audio import mel_spectrogram, write_wav
from tinytts.augment import build_augmented_dataset, verify_augmented_dataset
from tinytts.curation import CorpusEntry, Subset
from tinytts.noisegen import default_noise_specs

from conftest import speech_like, traced_peak

DURATION_S = 10.0


@pytest.fixture(scope="module")
def clip():
    return speech_like(3, duration_s=DURATION_S)


def clip_sizes(peak: int, clip) -> float:
    return peak / clip.samples.nbytes


def one_source(tmp_path, clip) -> Subset:
    path = tmp_path / "utt.wav"
    write_wav(clip, path)
    entry = CorpusEntry("utt", path, "text", clip.duration_s)
    return Subset([entry])


def test_build_holds_one_copy_at_a_time(tmp_path, clip):
    subset = one_source(tmp_path, clip)
    peak = traced_peak(
        lambda: build_augmented_dataset(subset, default_noise_specs(), tmp_path / "a", 5)
    )
    assert clip_sizes(peak, clip) <= 5.0


def test_verify_makes_no_scaled_or_squared_copies(tmp_path, clip):
    manifest = build_augmented_dataset(
        one_source(tmp_path, clip), default_noise_specs(), tmp_path / "a", 5
    )
    peak = traced_peak(lambda: verify_augmented_dataset(manifest))
    assert clip_sizes(peak, clip) <= 4.0


def test_mel_holds_the_magnitudes_not_the_frames(clip):
    assert clip_sizes(traced_peak(lambda: mel_spectrogram(clip)), clip) <= 3.5


def test_write_wav_holds_one_float_buffer(tmp_path, clip):
    peak = traced_peak(lambda: write_wav(clip, tmp_path / "out.wav"))
    assert clip_sizes(peak, clip) <= 1.5
