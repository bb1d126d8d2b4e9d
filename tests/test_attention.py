import re

import numpy as np
import pytest

from tinytts.errors import (
    BadConfig,
    MalformedFile,
)
from tinytts.evalkit import (
    AttentionMatrix,
    read_attention,
    sharpness_report,
    sharpness_score,
    write_attention,
)


def random_stochastic(rng, t, n):
    raw = rng.exponential(1.0, size=(t, n))
    return raw / raw.sum(axis=1, keepdims=True)


def test_uniform_matrix_scores_one_over_n():
    a = AttentionMatrix(np.full((5, 4), 0.25))
    assert sharpness_score(a) == pytest.approx(0.25)


def test_one_hot_rows_score_one():
    rng = np.random.default_rng(0)
    w = np.zeros((6, 5))
    w[np.arange(6), rng.integers(0, 5, 6)] = 1.0
    assert sharpness_score(AttentionMatrix(w)) == pytest.approx(1.0)


def test_direct_formula():
    a = AttentionMatrix(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
    assert sharpness_score(a) == pytest.approx(0.75)


def test_bounds_property_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t = int(rng.integers(1, 12))
        n = int(rng.integers(2, 9))
        a = AttentionMatrix(random_stochastic(rng, t, n))
        s = sharpness_score(a)
        assert 1.0 / n - 1e-12 <= s <= 1.0 + 1e-12


def test_column_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = random_stochastic(rng, 7, 6)
        s0 = sharpness_score(AttentionMatrix(w))
        perm = rng.permutation(6)
        s1 = sharpness_score(AttentionMatrix(w[:, perm]))
        assert s1 == pytest.approx(s0, abs=1e-12)


def test_non_stochastic_rejected():
    with pytest.raises(BadConfig, match="row 1 sums to"):
        AttentionMatrix(np.array([[0.5, 0.5], [0.4, 0.4]]))
    with pytest.raises(BadConfig, match=re.escape("row 0: weight outside [0, 1]")):
        AttentionMatrix(np.array([[1.2, -0.2]]))
    # NaN fails every comparison, so each check must ask "is it inside?"
    with pytest.raises(BadConfig, match=re.escape("row 1: weight outside [0, 1]")):
        AttentionMatrix(np.array([[0.5, 0.5], [np.nan, np.nan]]))


def test_report_csv_contract():
    mats = {
        "x": [AttentionMatrix(np.full((3, 4), 0.25))],
        "y": [
            AttentionMatrix(np.array([[0.2, 0.8], [0.4, 0.6]])),
            AttentionMatrix(np.array([[0.9, 0.1]])),
        ],
    }
    csv = sharpness_report(mats)
    lines = csv.strip().split("\n")
    assert lines[0] == "label,min,q1,median,q3,max,mean,n"
    assert len(lines) == 3
    assert lines[1].startswith("x,0.250000,")
    with pytest.raises(BadConfig, match="label 'empty' has no matrices"):
        sharpness_report({"empty": []})


def test_report_median_convention():
    # per-matrix scores 0.8, 0.6, 0.4 -> median 0.6
    mats = [AttentionMatrix(np.array([[s, 1 - s]])) for s in (0.8, 0.6, 0.4)]
    csv = sharpness_report({"z": mats})
    row = csv.strip().split("\n")[1].split(",")
    assert float(row[3]) == pytest.approx(0.6)


def test_attn_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = AttentionMatrix(random_stochastic(rng, 9, 5))
    path = tmp_path / "a.attn"
    write_attention(a, path)
    back = read_attention(path)
    assert back.weights.shape == (9, 5)
    assert np.max(np.abs(back.weights - a.weights)) < 1e-6
    assert path.read_text().splitlines()[0] == "ATTN1 9 5"


def test_attn_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.attn"
    path.write_text("ATTN1 3 4\n0.25 0.25 0.25 0.25\n0.25 0.25 0.25 0.25\n")
    with pytest.raises(MalformedFile, match=re.escape(f"{path}:1: 3 rows declared")):
        read_attention(path)
    path.write_text("ATTN1 1 2\n\n0.5 x\n")  # blank lines count toward the line number
    with pytest.raises(MalformedFile, match=re.escape(f"{path}:3: ")):
        read_attention(path)


def test_attn_non_stochastic_row_reported(tmp_path):
    path = tmp_path / "bad.attn"
    path.write_text("ATTN1 2 2\n0.5 0.5\n0.4 0.4\n")
    with pytest.raises(BadConfig, match="row 1 sums to"):
        read_attention(path)
