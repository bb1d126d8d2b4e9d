"""Fast study-machinery tests on scaled-down parameters.

The full-size studies (the ones the acceptance criteria assert on) live in
test_acceptance.py behind the `study` marker; here we only verify plumbing:
CSV shape, summary math, determinism, ATTN1 dumps.
"""

import json

import numpy as np
import pytest

from tinytts.curation import BUCKETED, RANDOM_SHUFFLE
from tinytts.errors import BadConfig
from tinytts.evalkit import read_attention
from tinytts.toytrain import ToyConfig, run_study
from tinytts.toytrain.study import (
    AUG_EMBEDDING,
    BATCHING,
    StudyParams,
)

from conftest import tree_sha256

MINI_BATCHING = StudyParams(
    config=ToyConfig(
        vocab_size=5,
        feat_dim=4,
        embed_dim=5,
        enc_hidden=6,
        aug_embed_dim=0,
        dec_hidden=6,
        attn_dim=5,
        n_aug_ids=1,
        max_decode_frames=30,
        batch_size=4,
        steps=20,
    ),
    n_utts=12,
    n_heldout_utts=3,
    len_range=(2, 5),
)

MINI_AUGEMB = StudyParams(
    config=ToyConfig(
        vocab_size=5,
        feat_dim=4,
        embed_dim=5,
        enc_hidden=6,
        aug_embed_dim=3,
        dec_hidden=6,
        attn_dim=5,
        n_aug_ids=4,
        max_decode_frames=30,
        batch_size=4,
        steps=20,
    ),
    n_utts=8,
    n_heldout_utts=2,
    len_range=(2, 4),
    aug_profiles=((0.0, 0.1), (0.2, 0.05), (-0.15, 0.08)),
)


def test_batching_study_outputs(tmp_path):
    summary = run_study(BATCHING, [1, 2, 3], tmp_path, params=MINI_BATCHING)
    csv_lines = (tmp_path / "study.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "study,arm,seed,metric,value"
    # 2 arms x 3 seeds x 2 metrics
    assert len(csv_lines) == 1 + 12
    for line in csv_lines[1:]:
        study, arm, seed, metric, value = line.split(",")
        assert study == BATCHING
        assert arm in (BUCKETED, RANDOM_SHUFFLE)
        assert metric in ("median_sharpness", "mean_sharpness")
        assert 0.0 < float(value) <= 1.0
    assert "bucketed_sharper" in summary
    # attention dumps readable by the evalkit loader
    attn_files = sorted(tmp_path.glob("attn/*/*.attn"))
    assert attn_files
    mat = read_attention(attn_files[0])
    assert np.allclose(mat.weights.sum(axis=1), 1.0, atol=1e-4)


def test_augemb_study_outputs(tmp_path):
    summary = run_study(AUG_EMBEDDING, [1, 2, 3], tmp_path, params=MINI_AUGEMB)
    assert set(summary["medians"]) == {"embed", "noembed"}
    assert set(summary["medians"]["embed"]) == {
        "rmse_aug0",
        "rmse_aug1",
        "rmse_aug2",
        "rmse_aug3",
    }
    # the no-embedding model never reads its aug id: one RMSE per seed
    assert set(summary["medians"]["noembed"]) == {"rmse_aug0"}
    rows = (tmp_path / "study.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 3 * 4 + 3 * 1  # seeds x aug ids (embed), seeds (noembed)
    for row in rows:
        metric, value = row.split(",")[3:]
        assert metric.startswith("rmse_aug") and float(value) >= 0.0
    assert "clean_id_beats_noisy_ids" in summary
    assert "embedding_beats_no_embedding" in summary
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["medians"] == summary["medians"]


def test_study_rejects_too_few_seeds(tmp_path):
    with pytest.raises(BadConfig, match="need at least 3 seeds"):
        run_study(BATCHING, [1, 2], tmp_path, params=MINI_BATCHING)


def test_study_rejects_repeated_seeds(tmp_path):
    # three runs of one seed would pass as three seeds' medians
    with pytest.raises(BadConfig, match="repeat a seed"):
        run_study(BATCHING, [1, 1, 1], tmp_path / "out", params=MINI_BATCHING)
    assert not (tmp_path / "out").exists()


def test_study_rerun_byte_identical(tmp_path):
    run_study(BATCHING, [1, 2, 3], tmp_path / "a", params=MINI_BATCHING)
    run_study(BATCHING, [1, 2, 3], tmp_path / "b", params=MINI_BATCHING)
    assert tree_sha256(tmp_path / "a") == tree_sha256(tmp_path / "b")


def test_unknown_study_is_refused_before_any_output(tmp_path):
    with pytest.raises(BadConfig, match="unknown study 'nope'; known: batching, augembedding"):
        run_study("nope", [1, 2, 3], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_augemb_study_tree_is_the_same_on_two_workers(tmp_path):
    # each worker process looks its arm up in the study table by name
    run_study(AUG_EMBEDDING, [1, 2, 3], tmp_path / "serial", params=MINI_AUGEMB)
    run_study(AUG_EMBEDDING, [1, 2, 3], tmp_path / "pool", jobs=2, params=MINI_AUGEMB)
    assert tree_sha256(tmp_path / "serial") == tree_sha256(tmp_path / "pool")
