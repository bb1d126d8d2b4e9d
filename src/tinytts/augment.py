"""Noise-augmented training-set builder.

Each clean utterance yields one copy per noise spec plus the clean original,
every copy tagged with its augmentation id (0 = clean, used at inference).
Per-file seeds are a keyed BLAKE2b hash of (master_seed, source_id, aug_id),
so serial and parallel builds produce byte-identical trees.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .audio import AudioClip, active_speech_level_p56, read_wav, write_wav
from .curation import CorpusEntry, Subset, read_json_rows
from .errors import BuildError, ConfigError, MissingFile, TinyTtsError
from .noisegen import NoiseSpec, mix_at_snr

CLEAN_NAME = "clean"
CLEAN_AUG_ID = 0


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
    ids = [s.aug_id for s in specs]
    if any(i < 1 for i in ids):
        raise ConfigError("noise specs must use aug_id >= 1 (0 is clean)")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate aug_ids in {ids}")


def _build_source(
    entry: CorpusEntry, specs: list[NoiseSpec], wav_dir: Path, master_seed: int
) -> list[AugManifestEntry]:
    """Write the clean copy and one noisy copy per spec of one source utterance.

    The source is read once and its P.56 level measured once. Every copy is
    rendered before any is written, so a source that fails (silent, too short,
    or a spec its sample rate cannot take) writes none of its copies.
    """
    clip = read_wav(entry.audio_path)
    level = active_speech_level_p56(clip) if specs else None
    rendered = []
    for spec in [None, *specs]:
        aug_id = spec.aug_id if spec else CLEAN_AUG_ID
        seed = derive_seed(master_seed, entry.id, aug_id)
        out_clip, mixture_gain = clip, 1.0
        if spec is not None:
            mix = mix_at_snr(clip, spec.spectrum, spec.snr_db, seed, level=level)
            out_clip, mixture_gain = mix.clip, mix.mixture_gain
        out_id = f"{entry.id}__aug{aug_id}"
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
        rendered.append((row, out_clip))
    for row, out_clip in rendered:
        write_wav(out_clip, row.audio_path)
    return [row for row, _ in rendered]


def build_augmented_dataset(
    subset: Subset,
    specs: list[NoiseSpec],
    out_dir: str | Path,
    master_seed: int,
    jobs: int = 1,
) -> list[AugManifestEntry]:
    """Write |subset| * (len(specs) + 1) WAVs plus a JSON-lines manifest.

    One task per source utterance renders and writes that utterance's WAVs,
    so memory holds one utterance's copies at a time; the manifest and
    summary are written only if every source succeeded.
    """
    _check_specs(specs)
    out = Path(out_dir)
    wav_dir = out / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)

    build = partial(
        _build_source, specs=specs, wav_dir=wav_dir, master_seed=master_seed
    )
    manifest: list[AugManifestEntry] = []
    failures: list[str] = []

    def collect(entry, rows_of) -> None:
        try:
            manifest.extend(rows_of())
        except TinyTtsError as exc:
            failures.append(f"{entry.id}: {exc}")

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(build, entry) for entry in subset.entries]
            for entry, fut in zip(subset.entries, futures):
                collect(entry, fut.result)
    else:
        for entry in subset.entries:
            collect(entry, partial(build, entry))
    if failures:
        raise BuildError(
            f"{len(failures)} source failure(s): " + "; ".join(failures[:20])
        )

    write_aug_manifest(manifest, out / "manifest.jsonl")
    summary = {
        "master_seed": master_seed,
        "n_sources": len(subset.entries),
        "n_outputs": len(manifest),
        "specs": [
            {
                "name": s.name,
                "kind": s.spectrum.kind,
                "snr_db": s.snr_db,
                "aug_id": s.aug_id,
            }
            for s in specs
        ],
    }
    (out / "build_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def write_aug_manifest(manifest: list[AugManifestEntry], path: str | Path) -> None:
    """Audio paths under the manifest's directory are stored relative, so a
    rebuilt dataset is byte-identical regardless of where it lives."""
    base = Path(path).resolve().parent
    with open(path, "w", encoding="utf-8") as fh:
        for m in manifest:
            row = asdict(m)
            audio = Path(row["audio_path"]).resolve()
            if audio.is_relative_to(base):
                row["audio_path"] = audio.relative_to(base).as_posix()
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_aug_manifest(path: str | Path) -> list[AugManifestEntry]:
    base = Path(path).resolve().parent

    def entry(row: dict) -> AugManifestEntry:
        if not Path(row["audio_path"]).is_absolute():
            row["audio_path"] = str(base / row["audio_path"])
        return AugManifestEntry(**row)

    return read_json_rows(path, entry)


@dataclass
class VerifyReport:
    n_noisy: int
    n_clean: int
    max_deviation_db: float
    n_exceeding_half_db: int
    flagged_ids: list[str]


def _verify_source(clean_path: str, noisy: list[AugManifestEntry]) -> list[float]:
    """Deviations in dB between achieved active-speech SNR and target for the
    noisy copies of one source.

    The clean file is read once, and P.56 is measured once per distinct
    mixture gain; each noisy copy's noise is taken from its own file.
    """
    clean = read_wav(clean_path)
    by_gain: dict[float, tuple[np.ndarray, float]] = {}
    deviations = []
    for m in noisy:
        if m.mixture_gain not in by_gain:
            scaled = clean.samples * m.mixture_gain
            level = active_speech_level_p56(AudioClip(scaled, clean.sample_rate_hz))
            by_gain[m.mixture_gain] = scaled, level.active_level_db
        scaled_clean, active_db = by_gain[m.mixture_gain]
        noise = read_wav(m.audio_path).samples - scaled_clean
        achieved = active_db - 10.0 * np.log10(np.mean(noise**2))
        deviations.append(abs(achieved - m.snr_db))
    return deviations


def verify_augmented_dataset(
    manifest: list[AugManifestEntry], tolerance_db: float = 0.5, jobs: int = 1
) -> VerifyReport:
    """Re-measure the achieved active-speech SNR of every noisy file."""
    clean_paths = {
        m.source_id: m.audio_path for m in manifest if m.aug_id == CLEAN_AUG_ID
    }
    n_clean = sum(1 for m in manifest if m.aug_id == CLEAN_AUG_ID)
    noisy = [m for m in manifest if m.aug_id != CLEAN_AUG_ID]
    by_source: dict[str, list[int]] = {}  # source id -> indices into noisy
    for i, m in enumerate(noisy):
        if not Path(m.audio_path).exists():
            raise MissingFile(f"{m.id}: {m.audio_path}")
        clean_path = clean_paths.get(m.source_id)
        if clean_path is None or not Path(clean_path).exists():
            raise MissingFile(f"{m.id}: clean source for {m.source_id}")
        by_source.setdefault(m.source_id, []).append(i)
    cleans = [clean_paths[sid] for sid in by_source]
    groups = [[noisy[i] for i in idx] for idx in by_source.values()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_source = list(pool.map(_verify_source, cleans, groups))
    else:
        per_source = list(map(_verify_source, cleans, groups))
    deviations = [0.0] * len(noisy)
    for idx, devs in zip(by_source.values(), per_source):
        for i, dev in zip(idx, devs):
            deviations[i] = dev
    flagged = [m.id for m, dev in zip(noisy, deviations) if dev > tolerance_db]
    max_dev = max(deviations, default=0.0)
    return VerifyReport(len(noisy), n_clean, max_dev, len(flagged), flagged)
