import json
import re
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import tinytts.augment
import tinytts.noisegen
from tinytts.audio import AudioClip, read_wav, write_wav
from tinytts.augment import (
    AugManifestEntry,
    build_augmented_dataset,
    derive_seed,
    read_aug_manifest,
    verify_augmented_dataset,
)
from tinytts.curation import CorpusEntry, Subset
from tinytts.errors import (
    BadConfig,
    MalformedFile,
    SourcesFailed,
)
from tinytts.noisegen import (
    PSD_TABLE,
    WHITE,
    NoiseSpec,
    SpectrumSpec,
    default_noise_specs,
)

from conftest import scaled, speech_like, tree_sha256


def make_speech_subset(root: Path, n: int, duration_s: float = 1.2) -> Subset:
    (root / "clean").mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n):
        clip = speech_like(100 + i, duration_s=duration_s)
        path = root / "clean" / f"utt{i:03d}.wav"
        write_wav(clip, path)
        entries.append(
            CorpusEntry(f"utt{i:03d}", path, f"text {i}", clip.duration_s)
        )
    return Subset(entries)


def test_cardinality_and_aug_id_partition(tmp_path):
    subset = make_speech_subset(tmp_path, 4)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 7)
    assert len(manifest) == 4 * 4
    by_aug = {}
    for m in manifest:
        by_aug.setdefault(m.aug_id, []).append(m.source_id)
    assert set(by_aug) == {0, 1, 2, 3}
    sources = sorted(e.id for e in subset.entries)
    for aug_id, ids in by_aug.items():
        assert sorted(ids) == sources
    # files on disk match the manifest
    for m in manifest:
        assert Path(m.audio_path).exists()


def test_clean_copies_identical_and_labeled(tmp_path):
    subset = make_speech_subset(tmp_path, 2)
    manifest = build_augmented_dataset(subset, [], tmp_path / "out", 3)
    assert len(manifest) == 2
    for m in manifest:
        assert m.aug_id == 0
        assert m.noise_name == "clean"
        assert m.snr_db is None
        src = dict((e.id, e.audio_path) for e in subset.entries)[m.source_id]
        assert Path(m.audio_path).read_bytes() == Path(src).read_bytes()


def test_duplicate_aug_id_rejected_before_writing(tmp_path):
    subset = make_speech_subset(tmp_path, 1)
    specs = [
        NoiseSpec("a", SpectrumSpec(WHITE), 20.0, 1),
        NoiseSpec("b", SpectrumSpec(WHITE), 10.0, 1),
    ]
    with pytest.raises(BadConfig, match="noise specs 'a' and 'b' share aug_id 1"):
        build_augmented_dataset(subset, specs, tmp_path / "out", 0)
    assert not (tmp_path / "out" / "wavs").exists()


def test_rebuild_is_byte_identical(tmp_path):
    subset = make_speech_subset(tmp_path, 3)
    specs = default_noise_specs()
    build_augmented_dataset(subset, specs, tmp_path / "a", 42)
    build_augmented_dataset(subset, specs, tmp_path / "b", 42)
    assert tree_sha256(tmp_path / "a") == tree_sha256(tmp_path / "b")
    # a different master seed must change the noise bytes
    build_augmented_dataset(subset, specs, tmp_path / "c", 43)
    assert tree_sha256(tmp_path / "a") != tree_sha256(tmp_path / "c")


def test_parallel_build_matches_serial(tmp_path):
    subset = make_speech_subset(tmp_path, 3)
    specs = default_noise_specs()
    build_augmented_dataset(subset, specs, tmp_path / "serial", 9, jobs=1)
    build_augmented_dataset(subset, specs, tmp_path / "par", 9, jobs=3)
    assert tree_sha256(tmp_path / "serial") == tree_sha256(tmp_path / "par")


def test_derive_seed_stability():
    # frozen values: changing the hash recipe would orphan existing datasets
    assert derive_seed(0, "utt000", 1) == derive_seed(0, "utt000", 1)
    assert derive_seed(0, "utt000", 1) != derive_seed(0, "utt000", 2)
    assert derive_seed(0, "utt000", 1) != derive_seed(1, "utt000", 1)
    assert derive_seed(0, "a", 258) != derive_seed(0, "a\x01", 2)


def test_silent_source_collected_as_failure(tmp_path):
    subset = make_speech_subset(tmp_path, 2)
    silent = tmp_path / "clean" / "silent.wav"
    write_wav(AudioClip(np.zeros(22050), 22050), silent)
    subset.entries.append(CorpusEntry("silent", silent, "quiet", 1.0))
    with pytest.raises(SourcesFailed, match="source failure.*silent: "):
        build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 1)


def test_verify_fresh_dataset(tmp_path):
    subset = make_speech_subset(tmp_path, 3)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 5)
    report = verify_augmented_dataset(manifest)
    assert report.n_noisy == 9
    assert report.n_clean == 3
    assert report.max_deviation_db <= 0.5
    assert len(report.flagged_ids) == 0
    parallel = verify_augmented_dataset(manifest, jobs=2)
    assert parallel == report


def test_verify_flags_edited_snr(tmp_path):
    subset = make_speech_subset(tmp_path, 2)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 5)
    victim = next(m for m in manifest if m.aug_id == 1)
    victim.snr_db += 3.0
    report = verify_augmented_dataset(manifest)
    assert victim.id in report.flagged_ids
    assert len(report.flagged_ids) == 1


def test_verify_missing_file(tmp_path):
    subset = make_speech_subset(tmp_path, 1)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 5)
    missing = manifest[1]
    Path(missing.audio_path).unlink()
    with pytest.raises(SourcesFailed, match=re.escape(f"{missing.id}: {missing.audio_path}")):
        verify_augmented_dataset(manifest)


def test_verify_missing_clean_file(tmp_path):
    subset = make_speech_subset(tmp_path, 2)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 5)
    clean = next(m for m in manifest if m.aug_id == 0)
    Path(clean.audio_path).unlink()
    with pytest.raises(SourcesFailed, match="^1 source failure") as exc:
        verify_augmented_dataset(manifest)
    assert f"clean source for {clean.source_id}" in str(exc.value)


def mismatch_copy(manifest: list[AugManifestEntry], how: str) -> AugManifestEntry:
    """Edit the files of the first source so that its first noisy copy cannot
    come from its clean file: the copy made 100 samples longer ("longer"), or
    the clean file rewritten at 16 kHz beside the 22.05 kHz copy ("rate").
    Returns that copy's row."""
    victim = next(m for m in manifest if m.aug_id != 0)
    if how == "longer":
        clip = read_wav(victim.audio_path)
        samples = np.concatenate([clip.samples, np.zeros(100)])
        write_wav(AudioClip(samples, clip.sample_rate_hz), victim.audio_path)
    else:
        clean = next(
            m for m in manifest if m.aug_id == 0 and m.source_id == victim.source_id
        )
        write_wav(AudioClip(read_wav(clean.audio_path).samples, 16000), clean.audio_path)
    return victim


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("how", ["longer", "rate"])
def test_verify_refuses_a_copy_unlike_its_clean_file(tmp_path, how, jobs):
    subset = make_speech_subset(tmp_path, 2)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 5)
    victim = mismatch_copy(manifest, how)
    with pytest.raises(SourcesFailed, match=f"{victim.id}: .* its clean file"):
        verify_augmented_dataset(manifest, jobs=jobs)


def test_manifest_round_trip(tmp_path):
    subset = make_speech_subset(tmp_path, 2)
    out = tmp_path / "out"
    manifest = build_augmented_dataset(subset, default_noise_specs(), out, 5)
    assert read_aug_manifest(out / "manifest.jsonl") == manifest
    # the WAVs and the manifest are the whole dataset
    assert sorted(p.name for p in out.iterdir()) == ["manifest.jsonl", "wavs"]


@pytest.mark.parametrize(
    "field, value",
    [("mixture_gain", "1.0"), ("snr_db", None), ("aug_id", "0"), ("aug_id", True)],
)
def test_manifest_mistyped_field_names_the_line(tmp_path, field, value):
    clean = AugManifestEntry("u__aug0", "u", "u__aug0.wav", "t", 1.0, 0, "clean", None, 1.0, 5)
    noisy = AugManifestEntry("u__aug1", "u", "u__aug1.wav", "t", 1.0, 1, "white", 20.0, 1.0, 6)
    path = tmp_path / "manifest.jsonl"
    rows = [asdict(clean), {**asdict(noisy), field: value}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(MalformedFile, match=re.escape(f"{path}:2:") + f".*{field}"):
        read_aug_manifest(path)


def test_manifest_repeated_id_names_both_lines(tmp_path):
    row = asdict(AugManifestEntry("u__aug0", "u", "u.wav", "t", 1.0, 0, "clean", None, 1.0, 5))
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [row, row]))
    with pytest.raises(MalformedFile, match=re.escape(f"{path}:2:") + ".*repeats line 1"):
        read_aug_manifest(path)


def _record_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so each call appends its first argument to a list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_build_reads_and_measures_each_source_once(tmp_path, monkeypatch):
    subset = make_speech_subset(tmp_path, 3)
    reads = _record_calls(monkeypatch, tinytts.augment, "read_wav")
    p56 = _record_calls(monkeypatch, tinytts.augment, "active_speech_level_p56")
    mix_p56 = _record_calls(monkeypatch, tinytts.noisegen, "active_speech_level_p56")
    build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 4)
    assert sorted(str(p) for p in reads) == sorted(
        str(e.audio_path) for e in subset.entries
    )
    assert len(p56) == 3
    assert mix_p56 == []


def test_verify_reads_each_file_once(tmp_path, monkeypatch):
    subset = make_speech_subset(tmp_path, 3)
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 5)
    reads = _record_calls(monkeypatch, tinytts.augment, "read_wav")
    p56 = _record_calls(monkeypatch, tinytts.augment, "active_speech_level_p56")
    report = verify_augmented_dataset(manifest)
    assert report.n_noisy == 9
    assert Counter(str(p) for p in reads) == Counter(m.audio_path for m in manifest)
    gains = {(m.source_id, m.mixture_gain) for m in manifest if m.aug_id != 0}
    assert len(p56) == len(gains)


def test_verify_remeasures_rescued_copies(tmp_path):
    # near-full-scale sources at 0 dB SNR: the overflow rescue scales the
    # mix, and verify measures P.56 on the clean source at that gain
    subset = make_speech_subset(tmp_path, 2)
    for i, e in enumerate(subset.entries):
        write_wav(scaled(speech_like(100 + i, duration_s=1.2), 1.9), e.audio_path)
    specs = [NoiseSpec("loud", SpectrumSpec(WHITE), 0.0, 1),
             NoiseSpec("quiet", SpectrumSpec(WHITE), 25.0, 2)]
    manifest = build_augmented_dataset(subset, specs, tmp_path / "out", 5)
    assert {m.mixture_gain < 1.0 for m in manifest} == {True, False}
    report = verify_augmented_dataset(manifest)
    assert report.n_noisy == 4 and len(report.flagged_ids) == 0


# a PSD table with a point above 8 kHz, the Nyquist frequency of 16 kHz audio
ABOVE_8KHZ = NoiseSpec(
    "hiss", SpectrumSpec(PSD_TABLE, ((100.0, 0.0), (11000.0, -6.0))), 20.0, 4
)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "bad_clip, extra_specs, n_written, why",
    [
        # silent: P.56 fails when the source renders; the good sources write
        (AudioClip(np.zeros(22050), 22050), [], 2 * 4, "all-zero signal"),
        # table above Nyquist: the rate check fails before any WAV is written
        (
            speech_like(7, duration_s=1.2, fs=16000), [ABOVE_8KHZ], 0,
            "noise spec 'hiss': PSD table frequency above Nyquist: 11000 > 8000 Hz",
        ),
    ],
    ids=["silent", "16khz"],
)
def test_failed_source_writes_no_manifest_and_no_copies(
    tmp_path, jobs, bad_clip, extra_specs, n_written, why
):
    subset = make_speech_subset(tmp_path, 2)
    bad = tmp_path / "clean" / "bad.wav"
    write_wav(bad_clip, bad)
    subset.entries.insert(1, CorpusEntry("bad", bad, "quiet", bad_clip.duration_s))
    out = tmp_path / "out"
    specs = default_noise_specs() + extra_specs
    with pytest.raises(SourcesFailed, match=f"source failure.*bad: {re.escape(why)}"):
        build_augmented_dataset(subset, specs, out, 1, jobs=jobs)
    assert not (out / "manifest.jsonl").exists()
    assert list((out / "wavs").glob("bad__*")) == []
    assert len(list((out / "wavs").glob("*.wav"))) == n_written


@pytest.mark.parametrize("jobs", [1, 2])
def test_write_error_is_collected_and_every_source_attempted(tmp_path, jobs):
    subset = make_speech_subset(tmp_path, 2)
    out = tmp_path / "out"
    # a directory where utt000's second noisy copy goes: writing it is an OSError
    (out / "wavs" / "utt000__aug2.wav").mkdir(parents=True)
    with pytest.raises(SourcesFailed, match=r"^1 source failure.*utt000: ") as caught:
        build_augmented_dataset(subset, default_noise_specs(), out, 1, jobs=jobs)
    assert "utt001" not in str(caught.value)
    assert not (out / "manifest.jsonl").exists()
    written = sorted(p.name for p in (out / "wavs").glob("utt001__*.wav"))
    assert written == [f"utt001__aug{k}.wav" for k in range(4)]


def test_16khz_source_augments_with_default_specs(tmp_path):
    clip = speech_like(8, duration_s=1.2, fs=16000)
    path = tmp_path / "u16k.wav"
    write_wav(clip, path)
    subset = Subset([CorpusEntry("u16k", path, "t", clip.duration_s)])
    manifest = build_augmented_dataset(subset, default_noise_specs(), tmp_path / "out", 3)
    assert sorted(m.aug_id for m in manifest) == [0, 1, 2, 3]
    report = verify_augmented_dataset(manifest)
    assert report.n_noisy == 3 and len(report.flagged_ids) == 0
