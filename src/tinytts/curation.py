"""Corpus ingest, duration-informed subset selection, batch planning.

Informed selection sorts the corpus ascending by duration (ties broken by id)
and takes the longest prefix whose total stays inside the duration budget, so
every selected sample is at most as long as every excluded one. Bucketed
batch planning chunks the duration-sorted subset into consecutive batches and
only shuffles the batch order, keeping within-batch durations close and the
zero padding small.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import read_wav_info
from .config import BUCKETED, INFORMED, RANDOM, RANDOM_SHUFFLE
from .errors import BadConfig, MalformedFile, MissingInput, read_fields, read_utf8
from .parallel import map_sources


@dataclass
class CorpusEntry:
    id: str
    audio_path: Path
    text: str
    duration_s: float = 0.0


@dataclass
class Subset:
    entries: list[CorpusEntry]

    @property
    def total_duration_s(self) -> float:
        """The entries' durations added in order, as the budget walk adds them."""
        total = 0.0
        for entry in self.entries:
            total += entry.duration_s
        return total


@dataclass
class PaddingReport:
    per_batch: list[tuple[float, float]]  # (duration range, padding ratio)
    mean_padding_ratio: float


def _plain_file_name(utt_id: str) -> str:
    """utt_id, if it names one file beside its siblings: not empty, `.` or
    `..`, and without `/`, `\\` or NUL. Else ValueError."""
    if utt_id in ("", ".", "..") or any(c in utt_id for c in "/\\\0"):
        raise ValueError(f"id {utt_id!r} is not a plain file name")
    return utt_id


def load_ljspeech_manifest(root_dir: str | Path) -> list[CorpusEntry]:
    """Parse LJSpeech metadata.csv; the normalized-text column is authoritative.
    A row without 3 `|`-separated fields, whose id an earlier row has, or
    whose id is not a plain file name raises MalformedFile naming path:line."""
    root = Path(root_dir)
    meta = root / "metadata.csv"
    if not meta.exists():
        raise MissingInput(f"no metadata.csv under {root}")
    first_line: dict[str, int] = {}
    entries = []
    for line_no, (utt_id, _raw, normalized) in read_fields(meta, "|", 3, MalformedFile):
        try:
            _plain_file_name(utt_id)
        except ValueError as exc:
            raise MalformedFile(f"{meta}:{line_no}: {exc}") from exc
        first = first_line.setdefault(utt_id, line_no)
        if first != line_no:
            raise MalformedFile(f"{meta}:{line_no}: id {utt_id!r} repeats line {first}")
        entries.append(CorpusEntry(utt_id, root / "wavs" / f"{utt_id}.wav", normalized))
    return entries


def measure_durations(entries: list[CorpusEntry]) -> list[CorpusEntry]:
    """Fill duration_s from WAV headers; SourcesFailed names each unreadable one."""
    paths, ids = [e.audio_path for e in entries], [e.id for e in entries]
    for entry, (n, rate) in zip(entries, map_sources(read_wav_info, paths, ids)):
        entry.duration_s = n / rate
    return entries


def _sorted_by_duration(entries: list[CorpusEntry]) -> list[CorpusEntry]:
    return sorted(entries, key=lambda e: (e.duration_s, e.id))


def _budget_prefix(ordered: list[CorpusEntry], budget_s: float, mode: str) -> Subset:
    """The longest prefix of `ordered` whose total duration fits the budget."""
    picked: list[CorpusEntry] = []
    total = 0.0
    for entry in ordered:
        if total + entry.duration_s > budget_s:
            break
        picked.append(entry)
        total += entry.duration_s
    if not picked:
        raise BadConfig(f"budget {budget_s} s below the first {mode} sample")
    return Subset(picked)


def select_informed_subset(entries: list[CorpusEntry], budget_s: float) -> Subset:
    """Shortest-first prefix within the duration budget."""
    return _budget_prefix(_sorted_by_duration(entries), budget_s, INFORMED)


def select_random_subset(
    entries: list[CorpusEntry], budget_s: float, seed: int
) -> Subset:
    """Uniform shuffle by seed, then the prefix that stays within budget."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    order = gen.permutation(len(entries))
    return _budget_prefix([entries[int(i)] for i in order], budget_s, RANDOM)


def plan_batches(
    subset: Subset, batch_size: int, mode: str, seed: int
) -> list[list[str]]:
    """Chunk the subset's ids into batches, bucketed by duration or fully shuffled."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    if mode == BUCKETED:
        ordered = _sorted_by_duration(subset.entries)
        batches = [
            [e.id for e in ordered[i : i + batch_size]]
            for i in range(0, len(ordered), batch_size)
        ]
        batches = [batches[int(i)] for i in gen.permutation(len(batches))]
        # keep the one ragged batch (if any) at the end
        batches.sort(key=lambda b: len(b) < batch_size)
    elif mode == RANDOM_SHUFFLE:
        order = gen.permutation(len(subset.entries))
        shuffled = [subset.entries[int(i)].id for i in order]
        batches = [
            shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)
        ]
    else:
        raise ValueError(f"unknown batch mode {mode!r}")
    return batches


def padding_stats(
    batches: list[list[str]], entries: list[CorpusEntry]
) -> PaddingReport:
    """Per-batch zero-padding ratio once every item is padded to the batch max."""
    durations = {e.id: e.duration_s for e in entries}
    per_batch = []
    for batch in batches:
        try:
            d = [durations[i] for i in batch]
        except KeyError as exc:
            raise BadConfig(f"batch references unknown id {exc.args[0]!r}") from exc
        ratio = 1.0 - sum(d) / (len(d) * max(d)) if max(d) > 0 else 0.0
        per_batch.append((max(d) - min(d), ratio))
    mean = sum(r for _, r in per_batch) / len(per_batch) if per_batch else 0.0
    return PaddingReport(per_batch, mean)


def symbol_histogram(subset: Subset, full_entries: list[CorpusEntry]) -> dict:
    """Case-folded character counts of the subset, and the share of the
    full corpus's symbol inventory that it covers."""
    if not subset.entries:
        raise BadConfig("no entries to count")

    def symbols_of(entries: list[CorpusEntry]):
        return (ch for e in entries for ch in e.text.casefold() if not ch.isspace())

    counts = Counter(symbols_of(subset.entries))
    total = sum(counts.values())
    histogram = {s: (c, c / total) for s, c in sorted(counts.items())}
    inventory = set(symbols_of(full_entries))
    coverage = len(set(counts) & inventory) / len(inventory) if inventory else 1.0
    return {"symbols": histogram, "coverage": coverage}


# --- manifest serialization: JSON-lines entries ---

def write_subset_manifest(subset: Subset, manifest_path: str | Path) -> None:
    rows = [
        {"id": e.id, "audio": e.audio_path, "text": e.text, "duration_s": e.duration_s}
        for e in subset.entries
    ]
    write_json_rows(manifest_path, rows, "audio")


def write_json_rows(path: str | Path, rows, audio_key: str | None = None) -> None:
    """One JSON object per line. Each row's `audio_key` path, if any, is stored
    relative to the file's directory when it lies under it, else absolute, so
    a tree rebuilt elsewhere has the same bytes; read_json_rows reverses this."""
    base = Path(path).resolve().parent
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            if audio_key is not None:
                audio = Path(row[audio_key]).resolve()
                row[audio_key] = (
                    audio.relative_to(base).as_posix()
                    if audio.is_relative_to(base)
                    else str(audio)
                )
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# JSON types of a row field: a number is an int or a float (never a bool)
NUMBER = (int, float)
NULL = type(None)


def _refuse_constant(name: str):
    """json.loads' parse_constant hook of read_json_rows: NaN, Infinity and
    -Infinity, which Python's json accepts and JSON does not, raise ValueError."""
    raise ValueError(f"{name} is not a finite number")


def check_fields(row: dict, types: dict) -> dict:
    """row, once each field named in `types` is found to hold one of its types.

    A type is a tuple of types, matched exactly so that a bool is never an
    int, or [type]: a list whose every item has that type. A missing field
    raises KeyError and a mistyped one ValueError.
    """
    for key, accepted in types.items():
        _check_value(key, row[key], accepted)
    return row


def _check_value(key: str, value, accepted) -> None:
    if isinstance(accepted, list):
        if type(value) is not list:
            raise ValueError(f"{key} {value!r}: not a list")
        item_types = accepted[0]
        # a list of plain values is checked in one pass; a mismatch, or a list
        # of lists, is walked item by item
        if isinstance(item_types, list) or not set(map(type, value)) <= set(item_types):
            for item in value:
                _check_value(key, item, item_types)
    elif type(value) not in accepted:
        names = "/".join(t.__name__ for t in accepted)
        raise ValueError(f"{key} {value!r}: not {names}")


def read_json_rows(
    path: str | Path, types: dict, build, audio_key: str | None = None,
    key: str | None = None,
) -> list:
    """build(row) for each JSON object of a JSON-lines file, blank lines skipped.

    Each field named in `types` must hold one of its types, the `audio_key`
    path, if any and relative, is made absolute against the file's directory,
    and the `key` field, if any, holds a value no earlier row holds. Lines may
    end in LF, CR LF or CR. Bad UTF-8 or JSON (NaN and Infinity included), a
    row that is not an object, a missing, mistyped or repeated field, and a
    KeyError, TypeError or ValueError from build raise MalformedFile naming
    path:line; a file with no rows raises MalformedFile naming the path.
    """
    base = Path(path).resolve().parent
    first_line: dict = {}
    out = []
    for line_no, line in enumerate(read_utf8(path, MalformedFile).split("\n"), start=1):
        try:
            if not line.strip():
                continue
            row = json.loads(line, parse_constant=_refuse_constant)
            if not isinstance(row, dict):
                raise ValueError("expected a JSON object")
            check_fields(row, types)
            if key is not None:
                first = first_line.setdefault(row[key], line_no)
                if first != line_no:
                    raise ValueError(f"{key} {row[key]!r} repeats line {first}")
            if audio_key is not None:
                row[audio_key] = str(base / row[audio_key])
            out.append(build(row))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFile(f"{path}:{line_no}: {exc!r}") from exc
    if not out:
        raise MalformedFile(f"{path}: no rows")
    return out


def read_subset_manifest(manifest_path: str | Path) -> Subset:
    """Read a write_subset_manifest file; a legacy `.summary.json` is ignored.
    An id that is not a plain file name raises MalformedFile naming path:line,
    since augment names its copies after it."""
    types = {"id": (str,), "audio": (str,), "text": (str,), "duration_s": NUMBER}

    def entry(row: dict) -> CorpusEntry:
        utt_id = _plain_file_name(row["id"])
        return CorpusEntry(utt_id, Path(row["audio"]), row["text"], row["duration_s"])

    return Subset(read_json_rows(manifest_path, types, entry, "audio", key="id"))
