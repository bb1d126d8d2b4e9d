import json
import re

import numpy as np
import pytest

from tinytts.audio import AudioClip, write_wav
from tinytts.curation import (
    BUCKETED,
    RANDOM_SHUFFLE,
    CorpusEntry,
    Subset,
    load_ljspeech_manifest,
    measure_durations,
    padding_stats,
    plan_batches,
    read_subset_manifest,
    select_informed_subset,
    select_random_subset,
    symbol_histogram,
    write_subset_manifest,
)
from tinytts.errors import (
    BadConfig,
    MalformedFile,
    MissingInput,
    SourcesFailed,
)


def entry(i, dur, text="abc"):
    return CorpusEntry(f"utt{i:03d}", f"wavs/utt{i:03d}.wav", text, dur)


def make_corpus(durations):
    return [entry(i, d) for i, d in enumerate(durations)]


def write_ljspeech_fixture(root, rows, durations_s=None, rate=8000):
    (root / "wavs").mkdir(parents=True)
    lines = []
    for i, (utt_id, raw, norm) in enumerate(rows):
        lines.append(f"{utt_id}|{raw}|{norm}")
        dur = 1.0 if durations_s is None else durations_s[i]
        write_wav(AudioClip(np.zeros(int(dur * rate)), rate), root / "wavs" / f"{utt_id}.wav")
    (root / "metadata.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_manifest_parse_identity(tmp_path):
    rows = [("a1", "Raw One", "one"), ("a2", "Raw Two", "two"), ("a3", "Raw 3", "three")]
    write_ljspeech_fixture(tmp_path, rows)
    entries = load_ljspeech_manifest(tmp_path)
    assert [e.id for e in entries] == ["a1", "a2", "a3"]
    assert [e.text for e in entries] == ["one", "two", "three"]


def test_manifest_wrong_arity_reports_line(tmp_path):
    (tmp_path / "wavs").mkdir()
    meta = tmp_path / "metadata.csv"
    for end in ("\n", "\r\n", "\r"):  # each ends a line, as in text mode
        meta.write_bytes(f"a1|x|y{end}a2|only-two{end}".encode())
        with pytest.raises(MalformedFile, match=re.escape(f"{meta}:2:")):
            load_ljspeech_manifest(tmp_path)


def test_repeated_metadata_id_names_both_lines(tmp_path):
    rows = [("a", "x", "hello"), ("b", "x", "b"), ("a", "x", "hello again")]
    write_ljspeech_fixture(tmp_path, rows)
    meta = tmp_path / "metadata.csv"
    with pytest.raises(MalformedFile, match=re.escape(f"{meta}:3: id 'a' repeats line 1")):
        load_ljspeech_manifest(tmp_path)


# ids that are not one plain file name: each would read or write outside wavs/
BAD_IDS = ["", ".", "..", "../esc", "../../esc", "sub/x", "sub\\x", "a\0b"]


@pytest.mark.parametrize("bad_id", BAD_IDS)
def test_metadata_id_must_be_a_plain_file_name(tmp_path, bad_id):
    write_ljspeech_fixture(tmp_path, [("a", "x", "hello")])
    meta = tmp_path / "metadata.csv"
    meta.write_text(meta.read_text(encoding="utf-8") + f"{bad_id}|x|y\n", encoding="utf-8")
    message = f"{meta}:2: id {bad_id!r} is not a plain file name"
    with pytest.raises(MalformedFile, match=re.escape(message)):
        load_ljspeech_manifest(tmp_path)


def test_missing_metadata(tmp_path):
    with pytest.raises(MissingInput, match="no metadata.csv under"):
        load_ljspeech_manifest(tmp_path)


def test_measure_durations(tmp_path):
    rows = [("a1", "r", "n"), ("a2", "r", "n")]
    write_ljspeech_fixture(tmp_path, rows, durations_s=[1.0, 2.5], rate=22050)
    entries = measure_durations(load_ljspeech_manifest(tmp_path))
    assert entries[0].duration_s == pytest.approx(1.0)
    assert entries[1].duration_s == pytest.approx(2.5)
    assert sum(e.duration_s for e in entries) == pytest.approx(3.5)


def test_measure_missing_file_names_id(tmp_path):
    rows = [("a1", "r", "n")]
    write_ljspeech_fixture(tmp_path, rows)
    entries = load_ljspeech_manifest(tmp_path)
    entries.insert(0, CorpusEntry("ghost", tmp_path / "wavs" / "ghost.wav", "n"))
    entries.append(CorpusEntry("phantom", tmp_path / "wavs" / "phantom.wav", "n"))
    # every file is read, so both missing ones are named, and a1 is not
    with pytest.raises(SourcesFailed, match="^2 source failure.*ghost: .*phantom: ") as caught:
        measure_durations(entries)
    assert "a1: " not in str(caught.value)


def test_informed_prefix_hand_case():
    corpus = make_corpus([5, 1, 3, 2, 4])
    subset = select_informed_subset(corpus, 6.0)
    assert [e.duration_s for e in subset.entries] == [1, 2, 3]
    assert subset.total_duration_s == pytest.approx(6.0)
    # budget 6.5 still picks the same prefix: adding 4 would exceed
    subset = select_informed_subset(corpus, 6.5)
    assert [e.duration_s for e in subset.entries] == [1, 2, 3]


def test_informed_empty_selection():
    with pytest.raises(BadConfig, match="below the first informed sample"):
        select_informed_subset(make_corpus([5, 7]), 4.0)


def test_informed_invariants_random_corpora():
    # prefix, budget safety, maximality on 100 random corpora
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        corpus = make_corpus(rng.uniform(0.5, 12.0, n).tolist())
        budget = float(rng.uniform(1.0, 30.0))
        try:
            subset = select_informed_subset(corpus, budget)
        except BadConfig as exc:
            assert "below the first" in str(exc)
            assert budget < min(e.duration_s for e in corpus)
            continue
        selected = {e.id for e in subset.entries}
        excluded = [e for e in corpus if e.id not in selected]
        if excluded:
            max_sel = max(e.duration_s for e in subset.entries)
            min_exc = min(e.duration_s for e in excluded)
            assert max_sel <= min_exc
            assert subset.total_duration_s + min_exc > budget  # maximality
        assert subset.total_duration_s <= budget
        assert subset.total_duration_s == pytest.approx(
            sum(e.duration_s for e in subset.entries)
        )


def test_random_subset_determinism_and_saturation():
    corpus = make_corpus([1.0] * 30)
    a = select_random_subset(corpus, 10.0, seed=7)
    b = select_random_subset(corpus, 10.0, seed=7)
    assert [e.id for e in a.entries] == [e.id for e in b.entries]
    assert len(a.entries) == 10
    everything = select_random_subset(corpus, 1e9, seed=7)
    assert sorted(e.id for e in everything.entries) == sorted(e.id for e in corpus)
    assert [e.id for e in everything.entries] != [e.id for e in corpus]


def test_bucketed_plan_chunks_sorted_durations():
    corpus = make_corpus([1, 2, 3, 4, 5, 6])
    subset = Subset(corpus)
    batches = plan_batches(subset, 2, BUCKETED, seed=0)
    durs = {e.id: e.duration_s for e in corpus}
    batch_sets = {frozenset(durs[i] for i in b) for b in batches}
    assert batch_sets == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})}


def test_plan_partition_property():
    rng = np.random.default_rng(5)
    corpus = make_corpus(rng.uniform(1, 8, 23).tolist())
    subset = Subset(corpus)
    for mode in (BUCKETED, RANDOM_SHUFFLE):
        batches = plan_batches(subset, 4, mode, seed=3)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == sorted(e.id for e in corpus)
        assert all(len(b) == 4 for b in batches[:-1])
        assert plan_batches(subset, 4, mode, seed=3) == batches


def test_padding_formula():
    corpus = [entry(0, 2.0), entry(1, 2.0), entry(2, 2.0), entry(3, 1.0), entry(4, 3.0)]
    report = padding_stats([["utt000", "utt001", "utt002"], ["utt003", "utt004"]], corpus)
    assert report.per_batch[0][1] == pytest.approx(0.0)
    assert report.per_batch[1][1] == pytest.approx(1.0 / 3.0)
    assert report.per_batch[1][0] == pytest.approx(2.0)


def test_padding_unknown_id():
    with pytest.raises(BadConfig, match="batch references unknown id 'nope'"):
        padding_stats([["nope"]], make_corpus([1.0]))


def test_bucketed_beats_shuffle_padding_property():
    # >= 20 random corpora and seeds: bucketed mean padding never exceeds shuffled
    rng = np.random.default_rng(20)
    for trial in range(20):
        n = int(rng.integers(8, 80))
        corpus = make_corpus(rng.uniform(0.5, 10.0, n).tolist())
        subset = Subset(corpus)
        seed = int(rng.integers(0, 2**32))
        batch_size = int(rng.integers(2, 9))
        bucketed = padding_stats(plan_batches(subset, batch_size, BUCKETED, seed), corpus)
        shuffled = padding_stats(
            plan_batches(subset, batch_size, RANDOM_SHUFFLE, seed), corpus
        )
        assert bucketed.mean_padding_ratio <= shuffled.mean_padding_ratio + 1e-12
        # bucketing also narrows the within-batch duration range on average
        if n >= 3:
            b_range = np.mean([r for r, _ in bucketed.per_batch])
            s_range = np.mean([r for r, _ in shuffled.per_batch])
            assert b_range <= s_range + 1e-12


def test_symbol_histogram_basic():
    subset = Subset([entry(0, 1, "ab"), entry(1, 1, "ba")])
    result = symbol_histogram(subset, subset.entries)
    assert result["symbols"]["a"] == (2, 0.5)
    assert result["symbols"]["b"] == (2, 0.5)
    assert result["coverage"] == 1.0


def test_symbol_histogram_coverage_tracks_exclusions():
    full = [entry(0, 1, "abc"), entry(1, 1, "xyz")]
    subset = Subset([full[0]])
    result = symbol_histogram(subset, full_entries=full)
    assert result["coverage"] == pytest.approx(0.5)
    assert "z" not in result["symbols"]


def test_manifest_round_trip(tmp_path):
    corpus = make_corpus([1.5, 2.0, 0.75])
    subset = select_informed_subset(corpus, 3.0)
    path = tmp_path / "subset.jsonl"
    write_subset_manifest(subset, path)
    back = read_subset_manifest(path)
    assert [e.id for e in back.entries] == [e.id for e in subset.entries]
    assert back.total_duration_s == subset.total_duration_s == 2.25
    assert [p.name for p in tmp_path.iterdir()] == ["subset.jsonl"]  # no sidecar


def test_manifest_with_legacy_summary_reads_the_same_entries(tmp_path):
    # older versions wrote mode, budget, seed, total and count to a sidecar
    subset = select_informed_subset(make_corpus([1.5, 2.0, 0.75]), 3.0)
    path = tmp_path / "subset.jsonl"
    write_subset_manifest(subset, path)
    without = read_subset_manifest(path)
    summary = {"mode": "informed", "budget_s": 3.0, "seed": None, "total_s": 2.25, "n": 2}
    (tmp_path / "subset.jsonl.summary.json").write_text(json.dumps(summary, indent=2))
    assert read_subset_manifest(path) == without


def test_repeated_manifest_id_names_both_lines(tmp_path):
    row = {"id": "u0", "audio": "u0.wav", "text": "t", "duration_s": 1.0}
    path = tmp_path / "subset.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [row, {**row, "id": "u1"}, row]))
    with pytest.raises(MalformedFile, match=re.escape(f"{path}:3:") + ".*repeats line 1"):
        read_subset_manifest(path)


@pytest.mark.parametrize("bad_id", BAD_IDS)
def test_subset_manifest_id_must_be_a_plain_file_name(tmp_path, bad_id):
    row = {"id": "u0", "audio": "u0.wav", "text": "t", "duration_s": 1.0}
    path = tmp_path / "subset.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [row, {**row, "id": bad_id}]))
    with pytest.raises(
        MalformedFile, match=re.escape(f"{path}:2:") + ".*is not a plain file name"
    ):
        read_subset_manifest(path)


def test_empty_manifest_names_the_file(tmp_path):
    path = tmp_path / "subset.jsonl"
    path.write_bytes(b"\n")
    with pytest.raises(MalformedFile, match=f"{re.escape(str(path))}: no rows"):
        read_subset_manifest(path)


@pytest.mark.parametrize(
    "field, value",
    [("id", 7), ("duration_s", "2"), ("duration_s", True), ("text", None)],
)
def test_manifest_mistyped_field_names_the_line(tmp_path, field, value):
    row = {"id": "u0", "audio": "u0.wav", "text": "t", "duration_s": 1.0}
    path = tmp_path / "subset.jsonl"  # no summary sidecar: durations are summed
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: value}) + "\n")
    with pytest.raises(MalformedFile, match=re.escape(f"{path}:2:") + f".*{field}"):
        read_subset_manifest(path)
