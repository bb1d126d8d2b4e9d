"""Noise-augmented training-set builder.

Each clean utterance yields one copy per noise spec plus the clean original,
every copy tagged with its augmentation id (0 = clean, used at inference).
Per-file seeds are a keyed BLAKE2b hash of (master_seed, source_id, aug_id),
so serial and parallel builds produce byte-identical trees.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .audio import ActiveLevelResult, AudioClip, active_speech_level_p56, read_wav
from .audio import read_wav_info, write_wav
from .curation import NULL, NUMBER, CorpusEntry, Subset, read_json_rows, write_json_rows
from .errors import BadConfig, MalformedFile, MissingInput, SourcesFailed, TinyTtsError
from .noisegen import NoiseSpec, mix_at_snr
from .parallel import map_tasks

CLEAN_NAME = "clean"
CLEAN_AUG_ID = 0
# verify flags a noisy copy whose re-measured SNR is further than this from its target
SNR_TOLERANCE_DB = 0.5
# the longest file name, in bytes, that common file systems take
MAX_NAME_BYTES = 255


@dataclass
class AugManifestEntry:
    id: str
    source_id: str
    audio_path: str
    text: str
    duration_s: float
    aug_id: int
    noise_name: str
    snr_db: float | None
    mixture_gain: float
    seed: int


def derive_seed(master_seed: int, source_id: str, aug_id: int) -> int:
    """Stable 64-bit per-(utterance, spec) seed, independent of build order."""
    h = hashlib.blake2b(digest_size=8)
    h.update(master_seed.to_bytes(8, "little", signed=False))
    h.update(source_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(aug_id.to_bytes(4, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def _check_specs(specs: list[NoiseSpec]) -> None:
    """NoiseSpec itself refuses aug_id 0, the clean copy's."""
    ids = [s.aug_id for s in specs]
    if len(set(ids)) != len(ids):
        raise BadConfig(f"duplicate aug_ids in {ids}")


def _copy_id(source_id: str, aug_id: int) -> str:
    """A copy's id; wavs/<copy id>.wav is its file."""
    return f"{source_id}__aug{aug_id}"


def _check_source(entry: CorpusEntry, specs: list[NoiseSpec]) -> None:
    """Every copy's file name must fit MAX_NAME_BYTES, and every spec must suit
    the source's sample rate (read from its header)."""
    for aug_id in (CLEAN_AUG_ID, *(spec.aug_id for spec in specs)):
        name = _copy_id(entry.id, aug_id) + ".wav"
        if len(name.encode("utf-8")) > MAX_NAME_BYTES:
            raise BadConfig(
                f"copy file name for aug_id {aug_id} is over {MAX_NAME_BYTES} bytes"
            )
    _, rate = read_wav_info(entry.audio_path)
    for spec in specs:
        spec.spectrum.check_rate(rate)


def _write_copy(
    entry: CorpusEntry,
    clip: AudioClip,
    level: ActiveLevelResult | None,
    spec: NoiseSpec | None,
    wav_dir: Path,
    master_seed: int,
) -> AugManifestEntry:
    """Render one copy of a source (the clean one when spec is None), write it
    and return its manifest row; the rendered samples die with the call."""
    aug_id = spec.aug_id if spec else CLEAN_AUG_ID
    seed = derive_seed(master_seed, entry.id, aug_id)
    out_clip, mixture_gain = clip, 1.0
    if spec is not None:
        mix = mix_at_snr(clip, spec.spectrum, spec.snr_db, seed, level=level)
        out_clip, mixture_gain = mix.clip, mix.mixture_gain
    out_id = _copy_id(entry.id, aug_id)
    row = AugManifestEntry(
        id=out_id,
        source_id=entry.id,
        audio_path=str(wav_dir / f"{out_id}.wav"),
        text=entry.text,
        duration_s=entry.duration_s,
        aug_id=aug_id,
        noise_name=spec.name if spec else CLEAN_NAME,
        snr_db=spec.snr_db if spec else None,
        mixture_gain=mixture_gain,
        seed=seed,
    )
    write_wav(out_clip, row.audio_path)
    return row


def _build_source(
    entry: CorpusEntry, specs: list[NoiseSpec], wav_dir: Path, master_seed: int
) -> list[AugManifestEntry]:
    """Write the clean copy and one noisy copy per spec of one source utterance.

    The source is read once and its P.56 level measured once. Each copy is
    written as soon as it is rendered, so no more than one copy is held. After
    the name and rate pre-check, P.56 (UnusableSignal) refuses a source before
    its first write, so that source writes none of its copies; an I/O error
    (OSError) while a copy is written leaves the source's earlier copies on disk.
    """
    clip = read_wav(entry.audio_path)
    level = active_speech_level_p56(clip) if specs else None
    return [
        _write_copy(entry, clip, level, spec, wav_dir, master_seed)
        for spec in [None, *specs]
    ]


def _failure_of(task, entry: CorpusEntry):
    """task(entry), or the text "<id>: <error>" of the TinyTtsError or OSError
    it raised."""
    try:
        return task(entry)
    except (TinyTtsError, OSError) as exc:
        return f"{entry.id}: {exc}"


def _raise_failures(outcomes: list) -> None:
    failures = [o for o in outcomes if isinstance(o, str)]
    if failures:
        raise SourcesFailed(
            f"{len(failures)} source failure(s): " + "; ".join(failures[:20])
        )


def build_augmented_dataset(
    subset: Subset,
    specs: list[NoiseSpec],
    out_dir: str | Path,
    master_seed: int,
    jobs: int = 1,
) -> list[AugManifestEntry]:
    """Write |subset| * (len(specs) + 1) WAVs plus a JSON-lines manifest.

    Every source's copy file names and sample rate are checked against every
    spec before any WAV is written. Then one task per source utterance renders
    and writes that utterance's WAVs, so memory holds one utterance's copies at
    a time. Every source is attempted, and the manifest is written only if
    every source succeeded; otherwise SourcesFailed names each failed id.
    """
    _check_specs(specs)
    check = partial(_check_source, specs=specs)
    _raise_failures([_failure_of(check, entry) for entry in subset.entries])
    out = Path(out_dir)
    wav_dir = out / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)

    task = partial(_build_source, specs=specs, wav_dir=wav_dir, master_seed=master_seed)
    per_source = map_tasks(partial(_failure_of, task), subset.entries, jobs)
    _raise_failures(per_source)
    manifest = [row for rows in per_source for row in rows]

    write_json_rows(out / "manifest.jsonl", [asdict(m) for m in manifest], "audio_path")
    return manifest


# the JSON type of each AugManifestEntry field
_AUG_ROW_TYPES = {
    **dict.fromkeys(("id", "source_id", "audio_path", "text", "noise_name"), (str,)),
    **dict.fromkeys(("duration_s", "mixture_gain"), NUMBER),
    **dict.fromkeys(("aug_id", "seed"), (int,)),
    "snr_db": (*NUMBER, NULL),
}


def _aug_row(row: dict) -> AugManifestEntry:
    if row["snr_db"] is None and row["aug_id"] != CLEAN_AUG_ID:
        raise ValueError(f"aug_id {row['aug_id']} is a noisy copy but has no snr_db")
    return AugManifestEntry(**row)


def read_aug_manifest(path: str | Path) -> list[AugManifestEntry]:
    return read_json_rows(path, _AUG_ROW_TYPES, _aug_row, "audio_path", key="id")


@dataclass
class VerifyReport:
    n_noisy: int
    n_clean: int
    max_deviation_db: float
    flagged_ids: list[str]  # deviation over SNR_TOLERANCE_DB


def _verify_source(source: tuple[str, list[AugManifestEntry]]) -> list[float]:
    """Deviations in dB between achieved active-speech SNR and target for the
    noisy copies of one source, given as (clean path, noisy rows).

    The clean file is read once, and P.56 is measured once per distinct
    mixture gain (on the clean samples themselves at gain 1.0); each noisy
    copy's noise is taken from its own file, in that file's buffer. A copy
    whose sample count or rate differs from the clean file's raises
    MalformedFile.
    """
    clean_path, noisy = source
    clean = read_wav(clean_path)
    by_gain: dict[float, tuple[np.ndarray, float]] = {}
    deviations = []
    for m in noisy:
        if m.mixture_gain not in by_gain:
            scaled = clean.samples
            if m.mixture_gain != 1.0:
                scaled = scaled * m.mixture_gain
            level = active_speech_level_p56(AudioClip(scaled, clean.sample_rate_hz))
            by_gain[m.mixture_gain] = scaled, level.active_level_db
        scaled_clean, active_db = by_gain[m.mixture_gain]
        mixed = read_wav(m.audio_path)
        shape = (mixed.samples.size, mixed.sample_rate_hz)
        if shape != (clean.samples.size, clean.sample_rate_hz):
            raise MalformedFile(
                f"{m.id}: {shape[0]} samples at {shape[1]} Hz, its clean file"
                f" {clean.samples.size} at {clean.sample_rate_hz} Hz"
            )
        noise = mixed.samples
        noise -= scaled_clean
        noise *= noise
        achieved = active_db - 10.0 * np.log10(np.mean(noise))
        deviations.append(abs(achieved - m.snr_db))
    return deviations


def verify_augmented_dataset(
    manifest: list[AugManifestEntry], jobs: int = 1
) -> VerifyReport:
    """Re-measure the achieved active-speech SNR of every noisy file."""
    clean = [m for m in manifest if m.aug_id == CLEAN_AUG_ID]
    clean_paths = {m.source_id: m.audio_path for m in clean}
    noisy = [m for m in manifest if m.aug_id != CLEAN_AUG_ID]
    by_source: dict[str, list[AugManifestEntry]] = {}
    for m in noisy:
        if not Path(m.audio_path).exists():
            raise MissingInput(f"{m.id}: {m.audio_path}")
        clean_path = clean_paths.get(m.source_id)
        if clean_path is None or not Path(clean_path).exists():
            raise MissingInput(f"{m.id}: clean source for {m.source_id}")
        by_source.setdefault(m.source_id, []).append(m)
    sources = [(clean_paths[sid], rows) for sid, rows in by_source.items()]
    per_source = map_tasks(_verify_source, sources, jobs)
    deviation: dict[str, float] = {}  # noisy row id -> its deviation
    for (_, rows), devs in zip(sources, per_source):
        deviation.update(zip([m.id for m in rows], devs))
    flagged = [m.id for m in noisy if deviation[m.id] > SNR_TOLERANCE_DB]
    max_dev = max(deviation.values(), default=0.0)
    return VerifyReport(len(noisy), len(clean), max_dev, flagged)
