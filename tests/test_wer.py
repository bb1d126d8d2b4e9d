import hashlib
import itertools
from functools import lru_cache

import pytest

from tinytts.errors import EmptyReference
from tinytts.evalkit import normalize_text, sus_csv, sus_report, wer


def brute_force_edit_cost(ref: tuple, hyp: tuple) -> int:
    """Independent oracle: exhaustive recursion over all alignments."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        return min(
            go(i + 1, j + 1) + (ref[i] != hyp[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


def test_identity():
    b = wer(list("abcde"), list("abcde"))
    assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 0)
    assert b.wer_percent == 0.0


def test_tie_breaking_is_pinned():
    # the S/D/I split sus_csv writes: on equal cost the diagonal (match or
    # substitution) wins, then deletion; hashed over every pair of sequences
    # over "abc" up to length 4
    seqs = [list(p) for n in range(5) for p in itertools.product("abc", repeat=n)]
    h = hashlib.sha256()
    for ref in seqs[1:]:
        for hyp in seqs:
            b = wer(ref, hyp)
            h.update(bytes([b.substitutions, b.deletions, b.insertions]))
    assert h.hexdigest() == (
        "ae3c284120641eb11d1247078e91c6946b9feafd6ac51b5fec9b3b751a1f0c8d"
    )


def test_two_ref_five_hyp():
    # oracle: minimum edit cost 5 (2 substitutions + 3 insertions)
    ref, hyp = ["a", "b"], ["x", "y", "z", "w", "v"]
    assert brute_force_edit_cost(tuple(ref), tuple(hyp)) == 5
    b = wer(ref, hyp)
    assert b.substitutions == 2
    assert b.insertions == 3
    assert b.deletions == 0
    assert b.wer_percent == pytest.approx(250.0)


def test_substitution_plus_insertion():
    ref, hyp = ["a", "b", "c"], ["a", "x", "c", "d"]
    assert brute_force_edit_cost(tuple(ref), tuple(hyp)) == 2
    b = wer(ref, hyp)
    assert b.substitutions == 1
    assert b.insertions == 1
    assert b.deletions == 0
    assert b.wer_percent == pytest.approx(66.7, abs=0.05)


def test_empty_reference_raises():
    with pytest.raises(EmptyReference):
        wer([], ["a"])


def test_exhaustive_oracle_short_lengths():
    # all pairs over a 2-symbol alphabet with lengths <= 4
    vocab = ("a", "b")
    seqs = [
        s for k in range(5) for s in itertools.product(vocab, repeat=k)
    ]
    for ref in seqs:
        if not ref:
            continue
        for hyp in seqs:
            b = wer(list(ref), list(hyp))
            assert b.errors == brute_force_edit_cost(ref, hyp), (ref, hyp)


def test_substitution_symmetry_equal_lengths():
    ref, hyp = ["a", "b", "c", "d"], ["a", "x", "c", "y"]
    fwd = wer(ref, hyp)
    rev = wer(hyp, ref)
    assert fwd.substitutions == rev.substitutions == 2
    assert fwd.deletions == rev.deletions == 0


def test_normalize_basic():
    assert normalize_text("Hello, world!") == ["hello", "world"]
    assert normalize_text("it's  A test.") == ["it's", "a", "test"]
    assert normalize_text("") == []


def test_normalize_apostrophes_and_unicode():
    assert normalize_text("DON’T stop") == ["don't", "stop"]
    assert normalize_text("'quoted' words") == ["quoted", "words"]
    assert normalize_text("café Über") == ["café", "über"]


def test_sus_pooled_wer():
    # errors/ref words: (1,4) and (3,6) -> pooled 40%
    pairs = [
        ("one two three four", "one two three x"),
        ("a b c d e f", "a x y z e f"),
    ]
    agg = sus_report(pairs)
    assert agg.total_errors == 4
    assert agg.total_ref_words == 10
    assert agg.pooled_wer_percent == pytest.approx(40.0)


def test_sus_identical_pairs_zero():
    agg = sus_report([("the same text", "the same text")] * 3)
    assert agg.pooled_wer_percent == 0.0


def test_sus_error_names_pair_index():
    with pytest.raises(EmptyReference, match="pair 1"):
        sus_report([("fine text", "fine text"), ("...", "hyp")])


def test_sus_reorder_invariance():
    pairs = [
        ("one two three", "one x three"),
        ("four five", "four five six"),
        ("seven", "eight"),
    ]
    a = sus_report(pairs)
    b = sus_report(list(reversed(pairs)))
    assert a.pooled_wer_percent == b.pooled_wer_percent


def test_wer_can_exceed_100_percent():
    agg = sus_report([("two words", "a b c d e f g")])
    assert agg.pooled_wer_percent > 100.0


def test_sus_csv_format():
    agg = sus_report([("one two", "one two"), ("three", "x y")])
    csv = sus_csv(agg)
    lines = csv.strip().split("\n")
    assert lines[0] == "index,substitutions,deletions,insertions,n_ref_words,wer_percent"
    assert lines[1] == "0,0,0,0,2,0.0000"
    assert lines[2] == "1,1,0,1,1,200.0000"
