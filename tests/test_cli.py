import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tinytts import curation
from tinytts.audio import read_melb, write_wav
from tinytts.augment import read_aug_manifest
from tinytts.cli import main
from tinytts.evalkit import read_attention
from tinytts.toytrain import ToyConfig, ToyModel, gen_synthetic_corpus, save_corpus, save_model

from conftest import BLAS_THREAD_VARS, speech_like, tone
from test_augment import mismatch_copy
from test_curation import write_ljspeech_fixture


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_curate_informed(tmp_path, capsys):
    rows = [(f"u{i}", "r", f"text {i}") for i in range(6)]
    write_ljspeech_fixture(tmp_path / "corpus", rows, durations_s=[3, 1, 2, 5, 4, 6])
    code, out = run_cli(
        capsys,
        "--json",
        "curate",
        "--corpus-root",
        str(tmp_path / "corpus"),
        "--mode",
        "informed",
        "--budget-s",
        "6",
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_selected"] == 3
    assert payload["prefix_property"] is True
    # one batch of 1, 2 and 3 s under either plan; symbols t, e, x, 0, 1, 2 of
    # the corpus's t, e, x, 0-5
    assert payload["padding_ratio_bucketed"] == pytest.approx(1 / 3)
    assert payload["padding_ratio_shuffled"] == pytest.approx(1 / 3)
    assert payload["symbol_coverage"] == pytest.approx(6 / 9)
    assert (tmp_path / "out" / "subset.jsonl").exists()
    assert (tmp_path / "out" / "resolved_config.txt").exists()


def test_curate_random_stays_in_budget_and_repeats_by_seed(tmp_path, capsys):
    durations = [3, 1, 2, 5, 4, 6, 2, 3, 1, 4] * 4
    rows = [(f"u{i}", "r", f"text {i}") for i in range(len(durations))]
    write_ljspeech_fixture(tmp_path / "corpus", rows, durations_s=durations)
    subsets, payloads = [], []
    for name in ("a", "b"):
        code, out = run_cli(
            capsys, "--json", "curate", "--corpus-root", str(tmp_path / "corpus"),
            "--mode", "random", "--seed", "7", "--budget-s", "40",
            "--out-dir", str(tmp_path / name),
        )
        assert code == 0
        payloads.append(json.loads(out))
        subsets.append((tmp_path / name / "subset.jsonl").read_bytes())
    assert subsets[0] == subsets[1] and payloads[0] == payloads[1]
    payload = payloads[0]
    assert payload["mode"] == "random" and 0 < payload["total_s"] <= 40
    assert 0 < payload["n_selected"] < len(durations)
    # bucketing never pads more than shuffling the same subset
    assert payload["padding_ratio_bucketed"] <= payload["padding_ratio_shuffled"]


def test_curate_rejects_nonempty_out_dir(tmp_path, capsys):
    rows = [("u0", "r", "t")]
    write_ljspeech_fixture(tmp_path / "corpus", rows)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "junk.txt").write_text("old run")
    code, _ = run_cli(
        capsys,
        "curate",
        "--corpus-root",
        str(tmp_path / "corpus"),
        "--budget-s",
        "10",
        "--out-dir",
        str(out_dir),
    )
    assert code == 1
    assert (out_dir / "junk.txt").exists()  # no partial writes


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["curate", "--no-such-flag"]) == 1


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    code, _ = run_cli(
        capsys, "--config", str(cfg), "p56", "--in", str(tmp_path / "x.wav")
    )
    assert code == 1


def test_p56_json(tmp_path, capsys):
    path = tmp_path / "tone.wav"
    write_wav(tone(1000.0, 0.5, 1.0), path)
    code, out = run_cli(capsys, "--json", "p56", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["active_level_db"] == pytest.approx(-9.03, abs=0.2)


def test_p56_missing_file_is_io_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "p56", "--in", str(tmp_path / "ghost.wav"))
    assert code == 2


def test_mix_writes_wav(tmp_path, capsys):
    src = tmp_path / "speech.wav"
    write_wav(speech_like(3), src)
    dst = tmp_path / "noisy.wav"
    code, out = run_cli(
        capsys,
        "--json",
        "mix",
        "--in",
        str(src),
        "--out",
        str(dst),
        "--noise",
        "usasi",
        "--snr-db",
        "15",
        "--seed",
        "3",
    )
    assert code == 0
    assert dst.exists()
    payload = json.loads(out)
    assert payload["noise_gain"] > 0


def test_mel_roundtrip(tmp_path, capsys):
    src = tmp_path / "tone.wav"
    write_wav(tone(440.0, 0.4, 0.5), src)
    dst = tmp_path / "tone.melb"
    code, _ = run_cli(capsys, "mel", "--in", str(src), "--out", str(dst))
    assert code == 0
    frames = read_melb(dst)
    assert frames.shape[1] == 80


def test_sharpness_uniform_file(tmp_path, capsys):
    attn_dir = tmp_path / "attn"
    attn_dir.mkdir()
    (attn_dir / "u.attn").write_text(
        "ATTN1 2 4\n0.25 0.25 0.25 0.25\n0.25 0.25 0.25 0.25\n"
    )
    code, out = run_cli(
        capsys, "sharpness", "--attn-dir", str(attn_dir), "--label", "x"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,min,q1,median,q3,max,mean,n"
    row = lines[1].split(",")
    assert row[0] == "x"
    assert all(float(v) == pytest.approx(0.25) for v in row[1:7])


def test_wer_identical_files(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    refs.write_text("the cat sat\nanother line here\n")
    code, out = run_cli(
        capsys, "--json", "wer", "--ref", str(refs), "--hyp", str(refs)
    )
    assert code == 0
    assert json.loads(out)["pooled_wer_percent"] == 0.0


def test_sus_csv_output(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("one two three\nfour five\n")
    hyps.write_text("one two wrong\nfour five\n")
    out_csv = tmp_path / "sus.csv"
    code, _ = run_cli(
        capsys,
        "sus",
        "--ref",
        str(refs),
        "--hyp",
        str(hyps),
        "--out",
        str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("0,1,0,0,3")


def test_wer_tsv_input(tmp_path, capsys):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("ref one\thyp one\nsame text\tsame text\n")
    code, out = run_cli(capsys, "--json", "wer", "--tsv", str(tsv))
    assert code == 0
    payload = json.loads(out)
    assert payload["ref_words"] == 4


@pytest.mark.parametrize("command", ["wer", "sus"])
@pytest.mark.parametrize(
    "inputs, message",
    [([], "--ref"), (["--ref", "{good}"], "--ref"),
     (["--ref", "{bad}", "--hyp", "{good}"], "{bad}:2: not UTF-8"),
     (["--ref", "{good}", "--hyp", "{bad}"], "{bad}:2: not UTF-8"),
     (["--tsv", "{bad}"], "{bad}:2: not UTF-8")],
    ids=["no-input", "ref-only", "bad-utf8-ref", "bad-utf8-hyp", "bad-utf8-tsv"],
)
def test_wer_bad_input_exits_cleanly(tmp_path, capsys, command, inputs, message):
    good = tmp_path / "good.txt"
    good.write_text("a b\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a\tb\r\na\tb\xff\n")
    argv = [a.format(good=good, bad=bad) for a in inputs]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(bad=bad) in err


def test_sentence_files_split_lines_only_at_line_ends(tmp_path, capsys):
    # str.splitlines would also split at U+0085 and U+2028, so the two files
    # would no longer pair line by line
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_text("the cat\x85sat\r\non\u2028mats\n", encoding="utf-8")
    hyp.write_text("the cat sat\non mats\n", encoding="utf-8")
    code, out = run_cli(capsys, "--json", "wer", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert json.loads(out)["errors"] == 0


def test_tsv_wrong_field_count_names_the_line(tmp_path, capsys):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("ref one\thyp one\n\nonly a reference\n")
    assert main(["wer", "--tsv", str(tsv)]) == 1
    assert f"error: {tsv}:3: expected 2 fields, got 1" in capsys.readouterr().err


def _curated_subset(tmp_path, capsys, ids=("u0", "u1")) -> str:
    """Curate a two-utterance speech corpus; the subset manifest's path."""
    (tmp_path / "corpus" / "wavs").mkdir(parents=True)
    lines = []
    for i, utt_id in enumerate(ids):
        clip = speech_like(40 + i, duration_s=1.1)
        write_wav(clip, tmp_path / "corpus" / "wavs" / f"{utt_id}.wav")
        lines.append(f"{utt_id}|raw|text {i}")
    (tmp_path / "corpus" / "metadata.csv").write_text("\n".join(lines) + "\n")

    code, _ = run_cli(
        capsys,
        "curate",
        "--corpus-root",
        str(tmp_path / "corpus"),
        "--budget-s",
        "100",
        "--out-dir",
        str(tmp_path / "subset"),
    )
    assert code == 0
    return str(tmp_path / "subset" / "subset.jsonl")


def test_augment_verify_pipeline(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "--json",
        "augment",
        "--manifest",
        _curated_subset(tmp_path, capsys),
        "--out-dir",
        str(tmp_path / "aug"),
        "--master-seed",
        "5",
        "--noise-specs",
        "white:25:1,usasi:15:2",
    )
    assert code == 0
    assert json.loads(out)["n_outputs"] == 6
    code, out = run_cli(
        capsys,
        "--json",
        "verify-aug",
        "--manifest",
        str(tmp_path / "aug" / "manifest.jsonl"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_noisy"] == 4
    assert payload["max_deviation_db"] <= 0.5


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_verify_aug_of_noise_that_rounds_away_prints_strict_json(tmp_path, capsys):
    # at 120 dB SNR the noise is far below one 16-bit step, so each copy's
    # samples equal its clean file's and the achieved SNR is unbounded
    manifest = tmp_path / "aug" / "manifest.jsonl"
    argv = ["augment", "--manifest", _curated_subset(tmp_path, capsys),
            "--out-dir", str(tmp_path / "aug"), "--noise-specs", "white:120:1"]
    assert run_cli(capsys, *argv)[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--json", "verify-aug", "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    payload = _strict_json(captured.out)
    assert payload["flagged_ids"] == ["u0__aug1", "u1__aug1"]
    assert payload["max_deviation_db"] is None


@pytest.mark.parametrize("how", ["longer", "rate"])
def test_verify_aug_refuses_a_copy_unlike_its_clean_file(tmp_path, capsys, how):
    manifest = tmp_path / "aug" / "manifest.jsonl"
    argv = ["augment", "--manifest", _curated_subset(tmp_path, capsys),
            "--out-dir", str(tmp_path / "aug")]
    assert run_cli(capsys, *argv)[0] == 0
    victim = mismatch_copy(read_aug_manifest(manifest), how)
    assert main(["verify-aug", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{victim.id}: " in err


def test_verify_aug_names_an_unreadable_copy(tmp_path, capsys):
    manifest = tmp_path / "aug" / "manifest.jsonl"
    argv = ["augment", "--manifest", _curated_subset(tmp_path, capsys),
            "--out-dir", str(tmp_path / "aug")]
    assert run_cli(capsys, *argv)[0] == 0
    noisy = [m for m in read_aug_manifest(manifest) if m.snr_db is not None]
    victims = [noisy[0], noisy[-1]]  # the first copy of u0, the last of u1
    assert [v.source_id for v in victims] == ["u0", "u1"]
    for victim in victims:
        Path(victim.audio_path).write_bytes(b"RIFF")
    # every source is attempted, so both are named, serial or on a pool
    for jobs in ("1", "2"):
        assert main(["verify-aug", "--manifest", str(manifest), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 2 source failure(s): ")
        for victim in victims:
            assert f"{victim.source_id}: " in err
            assert f"{victim.audio_path}: file shorter than a RIFF header" in err


@pytest.mark.parametrize("bad_id", ["../esc", "sub/x"])
def test_curate_refuses_an_id_that_is_not_a_file_name(tmp_path, capsys, bad_id):
    root = tmp_path / "corpus"
    write_ljspeech_fixture(root, [("u0", "r", "t")])
    write_wav(tone(440.0, 0.5, 1.0), root / "esc.wav")  # what ../esc would read
    meta = root / "metadata.csv"
    meta.write_text(meta.read_text() + f"{bad_id}|r|t\n")
    out = tmp_path / "out"
    argv = ["curate", "--corpus-root", str(root), "--budget-s", "10", "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{meta}:2: id {bad_id!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("bad_id", ["../esc", "../../esc", "sub/x"])
def test_augment_refuses_an_id_that_is_not_a_file_name(tmp_path, capsys, bad_id):
    manifest = Path(_curated_subset(tmp_path, capsys))
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    rows[1]["id"] = bad_id  # a hand edit: curate no longer writes such an id
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "aug"
    assert main(["augment", "--manifest", str(manifest), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{manifest}:2:" in err
    assert not out.exists()


@pytest.mark.parametrize("id_len", [245, 250])
def test_augment_refuses_an_id_too_long_for_its_copies(tmp_path, capsys, id_len):
    # <id>__aug1.wav is 255 bytes at 245 characters, the longest name allowed
    long_id = "x" * id_len
    manifest = _curated_subset(tmp_path, capsys, ids=("u0", long_id))
    out = tmp_path / "aug"
    code = main(["augment", "--manifest", manifest, "--out-dir", str(out)])
    if id_len == 245:
        assert code == 0
        assert (out / "wavs" / f"{long_id}__aug1.wav").exists()
        return
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{long_id}: copy file name" in err
    assert "u0:" not in err
    assert not out.exists()


def test_augment_write_error_exits_1_naming_its_source(tmp_path, capsys):
    manifest = _curated_subset(tmp_path, capsys)
    out = tmp_path / "aug"
    # a directory where u0's second noisy copy goes; --force reuses the out-dir
    (out / "wavs" / "u0__aug2.wav").mkdir(parents=True)
    code = main(["augment", "--manifest", manifest, "--out-dir", str(out), "--force"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u0: " in err and "u1" not in err
    assert not (out / "manifest.jsonl").exists()
    assert len(list((out / "wavs").glob("u1__aug*.wav"))) == 4


def test_augment_unreadable_source_exits_1_before_any_output(tmp_path, capsys):
    manifest = _curated_subset(tmp_path, capsys)
    (tmp_path / "corpus" / "wavs" / "u1.wav").unlink()
    out = tmp_path / "aug"
    assert main(["augment", "--manifest", manifest, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "u1: " in err and "u0" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["augment", "verify-aug"])
def test_empty_manifest_exits_cleanly(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(b"")
    out = tmp_path / "out"
    argv = [command, "--manifest", str(manifest)]
    assert main(argv + (["--out-dir", str(out)] if command == "augment" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{manifest}: no rows" in err
    assert not out.exists()


def test_study_cli_wiring(tmp_path, capsys, monkeypatch):
    # full studies train for minutes; the CLI layer is checked with a stub
    calls = {}

    def fake_run_study(study, seeds, out_dir, jobs=1, params=None):
        calls.update(study=study, seeds=seeds, jobs=jobs)
        Path(out_dir).mkdir(parents=True)  # as run_study makes it
        (tmp_path / "out" / "study.csv").write_text("study,arm,seed,metric,value\n")
        return {"study": study, "medians": {}}

    monkeypatch.setattr("tinytts.toytrain.run_study", fake_run_study)
    code, _ = run_cli(
        capsys,
        "--json",
        "study",
        "--study",
        "batching",
        "--seeds",
        "1,2,3",
        "--out-dir",
        str(tmp_path / "out"),
        "--jobs",
        "2",
    )
    assert code == 0
    assert calls == {"study": "batching", "seeds": [1, 2, 3], "jobs": 2}
    assert (tmp_path / "out" / "resolved_config.txt").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["curate", "--corpus-root", "{tmp}", "--budget-s", "5"], 1),
        (["augment", "--manifest", "{tmp}/none.jsonl"], 2),
        (["augment", "--manifest", "{tmp}/bad.jsonl"], 1),
        (["toy-train", "--corpus", "{tmp}/none.jsonl"], 2),
        (["toy-train", "--corpus", "{tmp}/toy.jsonl"], 1),
    ],
    ids=["curate-no-metadata", "augment-missing-manifest", "augment-bad-manifest",
         "toy-train-missing-corpus", "toy-train-feat-dim"],
)
def test_failed_run_leaves_no_out_dir(tmp_path, capsys, argv, code):
    (tmp_path / "bad.jsonl").write_text("not json\n")
    # feature dim 3 against toy.feat_dim's default 16
    save_corpus(gen_synthetic_corpus(12, 3, 2, (2, 3), [], seed=0), tmp_path / "toy.jsonl")
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([*argv, "--out-dir", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unknown_selection_mode_exits_before_reading_the_corpus(tmp_path, capsys):
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("selection_mode = bogus\n")
    out = tmp_path / "out"
    # no metadata.csv under the corpus root: reading it would fail with another error
    argv = ["curate", "--corpus-root", str(tmp_path), "--budget-s", "5", "--out-dir", str(out)]
    assert main(["--config", str(cfg), *argv]) == 1
    assert main([*argv, "--mode", "bogus"]) == 1
    err = capsys.readouterr().err
    assert err.count("selection_mode: cannot parse 'bogus'") == 2
    assert "metadata" not in err
    assert not out.exists()


def test_study_bad_seeds_exit_cleanly(tmp_path, capsys, monkeypatch):
    def no_study(*args, **kwargs):
        raise AssertionError("the study was started")

    monkeypatch.setattr("tinytts.toytrain.run_study", no_study)
    out = tmp_path / "out"
    # each seed goes through the seed rule, [0, 2**64), before the study starts
    for seeds, reason in [("1,x", "invalid literal"), ("-1,2,3", "seed -1 is outside"),
                          (f"1,2,{2**64}", f"seed {2**64} is outside")]:
        code = main(["study", "--study", "batching", f"--seeds={seeds}",
                     "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seeds" in err and reason in err
        assert not out.exists()


def test_study_too_few_seeds_leaves_no_output_dir(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["study", "--study", "batching", "--seeds", "1,2", "--out-dir", str(out)])
    assert code == 1
    assert "at least 3 seeds" in capsys.readouterr().err
    assert not out.exists()


TOY_CFG = (
    "toy.vocab_size = 4\ntoy.feat_dim = 3\ntoy.embed_dim = 4\n"
    "toy.enc_hidden = 5\ntoy.aug_embed_dim = 2\ntoy.dec_hidden = 5\n"
    "toy.attn_dim = 4\ntoy.n_aug_ids = 2\ntoy.max_decode_frames = 25\n"
    "toy.batch_size = 4\ntoy.steps = 5\ntoy.n_utts = 6\n"
    "toy.len_min = 2\ntoy.len_max = 4\ntoy.aug_profiles = 0.1:0.05\n"
)


def test_toy_pipeline_gen_train_infer(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG)
    corpus_path = tmp_path / "corpus.jsonl"
    code, out = run_cli(
        capsys,
        "--config",
        str(cfg),
        "--json",
        "toy-gen",
        "--out",
        str(corpus_path),
        "--seed",
        "5",
    )
    assert code == 0
    assert json.loads(out)["n_examples"] == 12

    train_dir = tmp_path / "run"
    code, out = run_cli(
        capsys,
        "--config",
        str(cfg),
        "--json",
        "toy-train",
        "--corpus",
        str(corpus_path),
        "--out-dir",
        str(train_dir),
        "--seed",
        "1",
    )
    assert code == 0
    assert (train_dir / "model.toym").exists()
    report = json.loads((train_dir / "train_report.json").read_text())
    assert report["steps"] == 5

    frames_path = tmp_path / "frames.melb"
    attn_path = tmp_path / "out.attn"
    code, out = run_cli(
        capsys,
        "--json",
        "toy-infer",
        "--model",
        str(train_dir / "model.toym"),
        "--tokens",
        "1,2,3",
        "--aug-id",
        "0",
        "--out-frames",
        str(frames_path),
        "--out-attn",
        str(attn_path),
    )
    assert code == 0
    frames = read_melb(frames_path)
    assert frames.shape[1] == 3
    attn = read_attention(attn_path)
    assert attn.weights.shape[1] == 3


@pytest.mark.parametrize("tokens", ["", "1,x", "1.5"])
def test_toy_infer_bad_tokens_exit_cleanly(tmp_path, capsys, tokens):
    model_path = tmp_path / "model.toym"
    save_model(ToyModel(ToyConfig(vocab_size=4, max_decode_frames=5)), model_path)
    code = main(["toy-infer", "--model", str(model_path), "--tokens", tokens])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_toy_infer_names_a_file_that_is_not_a_checkpoint(tmp_path, capsys):
    path = tmp_path / "model.toym"
    path.write_bytes(b"not a checkpoint")
    assert main(["toy-infer", "--model", str(path), "--tokens", "1"]) == 1
    assert f"error: {path}: bad magic" in capsys.readouterr().err


MIX = ["mix", "--in", "a.wav", "--out", "b.wav"]
INFER = ["toy-infer", "--model", "missing.toym"]
NOT_INT = "invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize(
    "argv, error",
    [
        ([*MIX, "--snr-db", "4000"], "--snr-db '4000': |snr_db| 4000 is above 300"),
        ([*MIX, "--snr-db", "10", "--seed", "-1"],
         "--seed '-1': seed -1 is outside [0, 2**64)"),
        ([*INFER, "--tokens", "1", "--aug-id", "x"], f"--aug-id 'x': {NOT_INT}"),
        ([*INFER, "--tokens", "1,x"], f"--tokens '1,x': {NOT_INT}"),
        (["study", "--study", "batching", "--seeds", "1,2,x", "--out-dir", "out"],
         f"--seeds '1,2,x': {NOT_INT}"),
        (["sharpness", "--attn-dir", "attn", "--label", "a,b"],
         "--label 'a,b': a label holds no comma, double quote, CR or LF"),
        (["sharpness", "--attn-dir", "attn", "--label", "a\nb"],
         "--label 'a\\nb': a label holds no comma, double quote, CR or LF"),
    ],
    ids=["snr-db", "seed", "aug-id", "tokens", "seeds", "label-comma", "label-newline"],
)
def test_typed_flag_prints_its_rule_reason(tmp_path, capsys, monkeypatch, argv, error):
    # one line naming the flag, before any file is read or written: the model
    # file does not exist, so loading it first would exit 2 instead
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_toy_train_malformed_corpus_exits_cleanly(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"templates": [[0.0]], "aug_profiles": [], "seed": 0}\n')
    run_dir = tmp_path / "run"
    code = main(["toy-train", "--corpus", str(corpus_path), "--out-dir", str(run_dir)])
    assert code == 1
    assert "emission_counts" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "config, extra",
    [
        ("toy.enc_hidden = 0\n", []),
        ("toy.batch_size = 0\n", []),
        ("", ["--steps", "-3"]),
        ("toy.max_decode_frames = 70000\n", []),
        ("toy.enc_hidden = 65536\n", []),  # past MAX_PARAMETERS
    ],
)
def test_toy_train_bad_config_exits_before_out_dir(tmp_path, capsys, config, extra):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(config)
    run_dir = tmp_path / "run"
    argv = ["--config", str(cfg), "toy-train", "--corpus", str(tmp_path / "none.jsonl")]
    code = main(argv + ["--out-dir", str(run_dir)] + extra)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not run_dir.exists()


def test_toy_train_refuses_a_count_past_its_checkpoint_field(tmp_path, capsys):
    # TOYM stores batch_size in 32 bits: a larger one would train, then fail to save
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(gen_synthetic_corpus(4, 3, 3, (2, 4), [], seed=0), corpus_path)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG + "toy.batch_size = 4294967296\n")
    run_dir = tmp_path / "run"
    argv = ["--config", str(cfg), "toy-train", "--corpus", str(corpus_path),
            "--steps", "1", "--out-dir", str(run_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "batch_size = 4294967296 >= 2**32" in err
    assert not run_dir.exists()


def test_toy_train_empty_corpus_exits_cleanly(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    header = {"templates": [[0.0]], "emission_counts": [1], "aug_profiles": [], "seed": 0}
    corpus_path.write_text(json.dumps(header) + "\n")
    run_dir = tmp_path / "run"
    code = main(["toy-train", "--corpus", str(corpus_path), "--out-dir", str(run_dir)])
    assert code == 1
    assert "no examples" in capsys.readouterr().err
    assert not (run_dir / "model.toym").exists()


def _toy_corpus_with_tokens(path, token_lists):
    """A one-symbol toy corpus file whose examples have the given tokens."""
    header = {"templates": [[0.0], [0.5]], "emission_counts": [0, 2],
              "aug_profiles": [], "seed": 0}
    rows = [{"tokens": t, "aug_id": 0, "frames": [[0.5], [0.5]], "gates": [0, 1]}
            for t in token_lists]
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *rows]))


@pytest.mark.parametrize("token_lists", [[[1], []], [[], []]], ids=["one", "all"])
def test_toy_train_empty_tokens_exit_cleanly(tmp_path, capsys, token_lists):
    corpus_path = tmp_path / "corpus.jsonl"
    _toy_corpus_with_tokens(corpus_path, token_lists)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("toy.vocab_size = 2\ntoy.feat_dim = 1\ntoy.n_aug_ids = 1\n"
                   "toy.aug_embed_dim = 0\ntoy.steps = 2\n")
    run_dir = tmp_path / "run"
    code = main(["--config", str(cfg), "toy-train", "--corpus", str(corpus_path),
                 "--out-dir", str(run_dir)])
    assert code == 1
    assert "need at least one token" in capsys.readouterr().err
    assert not (run_dir / "model.toym").exists()


@pytest.mark.parametrize(
    "config, argv",
    [
        ("", ["curate", "--mode", "random", "--seed", "-1"]),
        ("seed = -1\n", ["curate", "--mode", "random"]),
        ("", ["augment", "--master-seed", "-1"]),
        ("master_seed = -1\n", ["augment"]),
        ("", ["toy-gen", "--seed", "-1"]),
        ("toy.seed = -1\n", ["toy-gen"]),
        ("", ["mix", "--snr-db", "10", "--seed", "-1"]),
        # 2**64 and up: TOYM's seed field, derive_seed's 8 bytes, Philox's key
        ("toy.steps = 1\n", ["toy-train", "--seed", str(2**64)]),
        (f"toy.seed = {2**64}\ntoy.steps = 1\n", ["toy-train"]),
        ("", ["augment", "--master-seed", str(2**64)]),
        ("", ["toy-gen", "--seed", str(2**128)]),
        ("", ["mix", "--snr-db", "10", "--seed", str(2**128)]),
    ],
    ids=["curate-flag", "curate-config", "augment-flag", "augment-config",
         "toy-gen-flag", "toy-gen-config", "mix-flag", "toy-train-flag-2^64",
         "toy-train-config-2^64", "augment-flag-2^64", "toy-gen-flag-2^128",
         "mix-flag-2^128"],
)
def test_negative_seed_exits_before_any_output(tmp_path, capsys, config, argv):
    clip_path = tmp_path / "corpus" / "wavs" / "u0.wav"
    write_ljspeech_fixture(tmp_path / "corpus", [("u0", "r", "t")])
    write_wav(speech_like(0, 1.0), clip_path)
    toy_corpus = tmp_path / "toy.jsonl"
    save_corpus(gen_synthetic_corpus(12, 16, 2, (2, 3), [], seed=0), toy_corpus)
    manifest = tmp_path / "subset.jsonl"
    curation.write_subset_manifest(
        curation.Subset([curation.CorpusEntry("u0", clip_path, "t", 1.0)]),
        manifest,
    )
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    inputs = {
        "curate": ["--corpus-root", str(tmp_path / "corpus"), "--budget-s", "5",
                   "--out-dir", str(out)],
        "augment": ["--manifest", str(manifest), "--out-dir", str(out)],
        "toy-gen": ["--out", str(out)],
        "toy-train": ["--corpus", str(toy_corpus), "--out-dir", str(out)],
        "mix": ["--in", str(clip_path), "--out", str(out)],
    }[argv[0]]
    code = main(["--config", str(cfg), *argv, *inputs])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "seed" in err
    assert not out.exists()


def _jobs_argv(command, tmp_path):
    missing = str(tmp_path / "no_manifest.jsonl")
    out = str(tmp_path / "out")
    return {
        "augment": ["augment", "--manifest", missing, "--out-dir", out],
        "verify-aug": ["verify-aug", "--manifest", missing],
        "study": ["study", "--study", "batching", "--seeds", "1,2,3", "--out-dir", out],
    }[command]


@pytest.mark.parametrize("command", ["augment", "verify-aug", "study"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_jobs_outside_core_count_rejected_before_any_pool(
    tmp_path, capsys, monkeypatch, command, source
):
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    # tinytts.parallel.map_tasks, the one pool, looks the class up per call
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    for jobs in (0, (os.cpu_count() or 1) + 1):
        if source == "flag":
            argv = _jobs_argv(command, tmp_path) + ["--jobs", str(jobs)]
        else:
            cfg = tmp_path / "jobs.cfg"
            cfg.write_text(f"jobs = {jobs}\n")
            argv = ["--config", str(cfg)] + _jobs_argv(command, tmp_path)
        # the manifest does not exist: a check after reading it would exit 2
        assert main(argv) == 1
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_augment_snapshot_records_noise_specs_flag(tmp_path, capsys):
    manifest = _curated_subset(tmp_path, capsys)
    out = tmp_path / "aug"
    code, _ = run_cli(
        capsys, "augment", "--manifest", manifest, "--out-dir", str(out),
        "--noise-specs", "white:30:1",
    )
    assert code == 0
    assert "noise_specs = white:30:1\n" in (out / "resolved_config.txt").read_text()


def test_augment_aug_id_beyond_4_bytes_exits_before_any_output(tmp_path, capsys):
    manifest = _curated_subset(tmp_path, capsys)
    out = tmp_path / "aug"
    code = main(["augment", "--manifest", manifest, "--out-dir", str(out),
                 "--noise-specs", f"white:25:{2**32}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**32" in err
    assert not out.exists()


@pytest.mark.parametrize("n_utts", [0, -4])
def test_toy_gen_refuses_an_empty_corpus(tmp_path, capsys, n_utts):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"toy.n_utts = {n_utts}\n")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", str(cfg), "toy-gen", "--out", str(corpus)]) == 1
    assert "n_utts" in capsys.readouterr().err
    assert not corpus.exists()


def test_toy_gen_refuses_an_aug_profile_whose_copies_overflow(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG.replace("0.1:0.05", "1e308:1e308"))
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", str(cfg), "toy-gen", "--out", str(corpus)]) == 1
    assert "aug profile 1e+308:1e+308: copies overflow" in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize(
    "profiles, extra_cfg, argv",
    [
        # Adam's first update leaves the weights near 1e300: the next loss is not finite
        ("0.1:0.05", "toy.learning_rate = 1e300\n", []),
        # copies at 1e308 are finite, their squared error is not
        ("1e308:1", "", ["--steps", "0"]),
    ],
    ids=["learning-rate-1e300", "steps-0-on-a-corpus-near-the-float-limit"],
)
def test_toy_train_outside_the_finite_range_exits_before_out_dir(
    tmp_path, capsys, profiles, extra_cfg, argv
):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG.replace("0.1:0.05", profiles))
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", str(cfg), "toy-gen", "--out", str(corpus)]) == 0
    cfg.write_text(TOY_CFG + extra_cfg)
    run_dir = tmp_path / "run"
    code = main(["--config", str(cfg), "toy-train", "--corpus", str(corpus),
                 "--out-dir", str(run_dir), *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert not run_dir.exists()


def test_toy_train_outside_the_finite_range_prints_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG)
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", str(cfg), "toy-gen", "--out", str(corpus)]) == 0
    cfg.write_text(TOY_CFG + "toy.learning_rate = 1e300\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code = main(["--config", str(cfg), "toy-train", "--corpus", str(corpus),
                     "--out-dir", str(tmp_path / "run")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _run_cli_process(*argv: str) -> subprocess.CompletedProcess:
    """tinytts run as its own process, whose stderr holds every warning too."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "tinytts.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})


@pytest.mark.parametrize("command", ["toy-gen", "toy-train"])
def test_toy_commands_near_the_float_limit_print_one_error_line(tmp_path, command):
    # toy-gen: copies at 1e308 +- 1e308 overflow; toy-train --steps 0: copies
    # at 1e308 are finite, the initial loss over them is not
    cfg = tmp_path / "toy.cfg"
    profile = "1e308:1e308" if command == "toy-gen" else "1e308:1"
    cfg.write_text(TOY_CFG.replace("0.1:0.05", profile))
    corpus = tmp_path / "corpus.jsonl"
    proc = _run_cli_process("--config", str(cfg), "toy-gen", "--out", str(corpus))
    if command == "toy-train":
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli_process("--config", str(cfg), "toy-train", "--corpus", str(corpus),
                                "--out-dir", str(tmp_path / "run"), "--steps", "0")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("how", ["token", "feat-dim"])
def test_toy_train_names_the_corpus_index_of_a_refused_example(tmp_path, capsys, how):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG)  # 12 examples in batches of 4
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", str(cfg), "toy-gen", "--out", str(corpus)]) == 0
    rows = [json.loads(line) for line in corpus.read_text().splitlines()]
    index = 9  # rows[0] is the header; the example is the second of its batch
    example = rows[1 + index]
    if how == "token":
        example["tokens"][-1] = 99
        message = f"error: example {index}: token outside [1, vocab_size]"
    else:
        example["frames"] = [frame[:2] for frame in example["frames"]]
        message = f"error: example {index}: feat dim 2 != 3"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    run_dir = tmp_path / "run"
    code = main(["--config", str(cfg), "toy-train", "--corpus", str(corpus),
                 "--out-dir", str(run_dir)])
    assert code == 1
    assert capsys.readouterr().err == message + "\n"
    assert not run_dir.exists()


def test_toy_infer_refuses_a_checkpoint_with_a_non_finite_parameter(tmp_path, capsys):
    model = ToyModel(ToyConfig(vocab_size=4, max_decode_frames=5))
    model.params["out_b"][:] = np.nan
    path = tmp_path / "model.toym"
    save_model(model, path)
    assert main(["toy-infer", "--model", str(path), "--tokens", "1,2"]) == 1
    assert f"error: {path}: out_b: a value is not finite" in capsys.readouterr().err


def test_toy_train_snapshot_records_seed_and_steps(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("toy.vocab_size = 4\ntoy.feat_dim = 3\ntoy.n_utts = 4\n")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["--config", str(cfg), "toy-gen", "--out", str(corpus)]) == 0
    run_dir = tmp_path / "run"
    code = main([
        "--config", str(cfg), "toy-train", "--corpus", str(corpus),
        "--out-dir", str(run_dir), "--seed", "5", "--steps", "3",
    ])
    assert code == 0
    snapshot = (run_dir / "resolved_config.txt").read_text().splitlines()
    assert "toy.seed = 5" in snapshot and "toy.steps = 3" in snapshot
    assert json.loads((run_dir / "train_report.json").read_text())["steps"] == 3


def test_toy_train_report_has_gradient_norms_and_clip_count(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("toy.vocab_size = 4\ntoy.feat_dim = 3\ntoy.n_utts = 6\n")
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(capsys, "--config", str(cfg), "toy-gen", "--out", str(corpus))[0] == 0
    run_dir = tmp_path / "run"
    code, out = run_cli(
        capsys, "--config", str(cfg), "--json", "toy-train", "--corpus", str(corpus),
        "--out-dir", str(run_dir), "--steps", "12",
    )
    assert code == 0
    report = json.loads((run_dir / "train_report.json").read_text())
    norms = report["grad_norms"]
    assert len(norms) == len(report["loss_curve"]) == 12
    assert report["clipped_steps"] == sum(n > 1.0 for n in norms)  # the default
    assert 0 < report["clipped_steps"] < 12
    summary = json.loads(out)
    assert summary["clipped_steps"] == report["clipped_steps"]
    assert "grad_norms" not in summary and "loss_curve" not in summary


def test_toy_train_rebuilds_byte_for_byte(tmp_path, capsys):
    # the wall clock goes to stdout only, so a rerun writes the same bytes
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("toy.vocab_size = 4\ntoy.feat_dim = 3\ntoy.n_utts = 6\n")
    corpus = tmp_path / "corpus.jsonl"
    assert run_cli(capsys, "--config", str(cfg), "toy-gen", "--out", str(corpus))[0] == 0
    runs = []
    for name in ("a", "b"):
        code, out = run_cli(
            capsys, "--config", str(cfg), "--json", "toy-train", "--corpus", str(corpus),
            "--out-dir", str(tmp_path / name), "--steps", "4",
        )
        assert code == 0 and "wall_clock_s" in json.loads(out)
        runs.append([(tmp_path / name / f).read_bytes()
                     for f in ("train_report.json", "model.toym")])
    assert runs[0] == runs[1]
    assert "wall_clock_s" not in json.loads(runs[0][0])


IMPORTS = """
import sys
import tinytts.cli
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""


def test_cli_import_loads_no_process_pool_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the tinytts modules and BLAS setting a fresh interpreter ends with after the
# statements in argv[1]; the BLAS variables are unset at the start
LOADED = """
import json, os, sys
exec(sys.argv[1])
print(json.dumps({
    "tinytts": sorted(m for m in sys.modules if m.split(".")[0] == "tinytts"),
    "numpy": "numpy" in sys.modules,
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def _fresh_interpreter(statements: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, statements],
        capture_output=True,
        text=True,
        timeout=120,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_only_settings_and_errors():
    loaded = _fresh_interpreter("import tinytts.cli")
    assert loaded["numpy"] is False
    assert loaded["tinytts"] == ["tinytts", "tinytts.cli", "tinytts.config", "tinytts.errors"]
    assert loaded["blas_threads"] == "1"  # set for the numpy a command loads later


def test_p56_command_loads_no_other_pipeline(tmp_path):
    wav = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), wav)
    loaded = _fresh_interpreter(
        f"from tinytts.cli import main; assert main(['p56', '--in', {str(wav)!r}]) == 0"
    )
    assert loaded["numpy"] is True and "tinytts.audio.p56" in loaded["tinytts"]
    others = {f"tinytts.{m}" for m in ("toytrain", "evalkit", "augment", "curation", "noisegen")}
    assert [m for m in loaded["tinytts"] if ".".join(m.split(".")[:2]) in others] == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_exits_before_output(tmp_path, capsys, value):
    src = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), src)
    dst = tmp_path / "noisy.wav"
    assert main(["mix", "--in", str(src), "--out", str(dst), f"--snr-db={value}"]) == 1
    assert "finite" in capsys.readouterr().err
    assert not dst.exists()
    out = tmp_path / "subset"
    argv = ["curate", "--corpus-root", str(tmp_path), f"--budget-s={value}", "--out-dir", str(out)]
    assert main(argv) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["4000", "-4000"])
def test_snr_outside_bound_exits_before_output(tmp_path, capsys, value):
    # 10 ** (snr_db / 10) overflows at 4000 dB and underflows to 0 at -4000 dB
    src = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), src)
    dst = tmp_path / "noisy.wav"
    assert main(["mix", "--in", str(src), "--out", str(dst), f"--snr-db={value}"]) == 1
    assert "snr-db" in capsys.readouterr().err
    assert not dst.exists()
    manifest = _subset_manifest(tmp_path)
    out = tmp_path / "aug"
    argv = ["augment", "--manifest", str(manifest), "--out-dir", str(out),
            "--noise-specs", f"white:{value}:1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "300" in err
    assert not out.exists()


def test_psd_table_nan_frequency_exits_before_output(tmp_path, capsys):
    src = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), src)
    table = tmp_path / "t.csv"
    table.write_text("freq_hz,power_db\nnan,0\n1000,0\n")
    dst = tmp_path / "noisy.wav"
    argv = ["mix", "--in", str(src), "--out", str(dst), "--noise", str(table), "--snr-db", "10"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not dst.exists()


def test_non_finite_config_value_exits_before_output(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("toy.learning_rate = nan\n")
    run_dir = tmp_path / "run"
    argv = ["--config", str(cfg), "toy-train", "--corpus", str(tmp_path / "none.jsonl")]
    assert main(argv + ["--out-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "toy.learning_rate" in err
    assert not run_dir.exists()


def test_subset_manifest_row_without_audio_exits_cleanly(tmp_path, capsys):
    manifest = tmp_path / "subset.jsonl"
    manifest.write_text(
        '{"id": "a", "audio": "a.wav", "text": "t", "duration_s": 1.0}\n'
        '{"id": "b", "text": "t", "duration_s": 1.0}\n'
    )
    code = main(["augment", "--manifest", str(manifest), "--out-dir", str(tmp_path / "aug")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{manifest}:2:" in err and "audio" in err


@pytest.mark.parametrize(
    "line", [b"not json\n", b'["a", "list"]\n', b'{"id": "\xff"}\n'],
    ids=["bad-json", "not-object", "bad-utf8"],
)
def test_aug_manifest_bad_line_exits_cleanly(tmp_path, capsys, line):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(b"\n" + line)
    assert main(["verify-aug", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{manifest}:2:" in err


def test_attention_file_bad_utf8_exits_cleanly(tmp_path, capsys):
    attn_dir = tmp_path / "attn"
    attn_dir.mkdir()
    (attn_dir / "u.attn").write_bytes(b"ATTN1 1 2\n0.5 0.5\xff\n")
    code = main(["sharpness", "--attn-dir", str(attn_dir), "--label", "x"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {attn_dir / 'u.attn'}:2: not UTF-8")


def test_psd_table_bad_utf8_exits_cleanly(tmp_path, capsys):
    src = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), src)
    table = tmp_path / "mic.csv"
    table.write_bytes(b"freq_hz,power_db\n100,6\xff\n4000,-3\n")
    dst = tmp_path / "noisy.wav"
    argv = ["mix", "--in", str(src), "--out", str(dst), "--noise", str(table), "--snr-db", "10"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}:2: not UTF-8")
    assert not dst.exists()


@pytest.mark.parametrize("power", ["7000", "-7000"])
def test_psd_table_power_beyond_300_db_exits_before_any_output(
    tmp_path, capsys, power
):
    # 10 ** (7000 / 20) overflows: the noise would be NaN, written as zeros
    table = tmp_path / "t.csv"
    table.write_text(f"freq_hz,power_db\n20,{power}\n8000,{power}\n")
    manifest = _curated_subset(tmp_path, capsys)
    src = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), src)
    dst, out = tmp_path / "noisy.wav", tmp_path / "aug"
    for argv in (
        ["mix", "--in", str(src), "--out", str(dst), "--noise", str(table),
         "--snr-db", "10"],
        ["augment", "--manifest", manifest, "--out-dir", str(out),
         "--noise-specs", f"{table}:10:1"],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "300 dB" in err
    assert not dst.exists() and not out.exists()


@pytest.mark.parametrize("key", ["mel.n_fft = 1099511627776", "mel.n_fft = 32769",
                                 "mel.n_mels = 513"])
def test_mel_config_beyond_the_caps_exits_cleanly(tmp_path, capsys, key):
    # 2**40 bins would stop mel_filterbank with numpy's allocation traceback
    cfg = tmp_path / "mel.cfg"
    cfg.write_text(key + "\n")
    src = tmp_path / "tone.wav"
    write_wav(tone(440.0, 0.4, 0.5), src)
    dst = tmp_path / "tone.melb"
    assert main(["--config", str(cfg), "mel", "--in", str(src), "--out", str(dst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_fft <= 32768 and n_mels <= 512" in err
    assert not dst.exists()


def test_config_file_bad_utf8_exits_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"budget_s = 1\xff\n")
    assert main(["--config", str(cfg), "p56", "--in", str(tmp_path / "x.wav")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:1: not UTF-8")


def test_ljspeech_metadata_bad_utf8_exits_cleanly(tmp_path, capsys):
    write_ljspeech_fixture(tmp_path / "corpus", [("u0", "r", "t"), ("u1", "r", "t")])
    meta = tmp_path / "corpus" / "metadata.csv"
    meta.write_bytes(b"u0|r|t\nu1|r|t\xff\n")
    out_dir = tmp_path / "out"
    argv = ["curate", "--corpus-root", str(tmp_path / "corpus"), "--budget-s", "10"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{meta}:2:" in err


def test_curate_refuses_a_repeated_id(tmp_path, capsys):
    # each a__augK.wav would carry two transcripts once augmented
    rows = [("a", "x", "hello"), ("a", "x", "hello again"), ("b", "x", "b")]
    write_ljspeech_fixture(tmp_path / "corpus", rows, durations_s=[1.0, 1.0, 1.5])
    out_dir = tmp_path / "out"
    argv = ["curate", "--corpus-root", str(tmp_path / "corpus"), "--budget-s", "10"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 1
    meta = tmp_path / "corpus" / "metadata.csv"
    assert f"error: {meta}:2: id 'a' repeats line 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_file_is_read_once(tmp_path, capsys, monkeypatch):
    import builtins

    cfg = tmp_path / "run.cfg"
    cfg.write_text("mel.n_mels = 40\n")
    src = tmp_path / "tone.wav"
    write_wav(tone(440.0, 0.5, 0.5), src)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(cfg):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "tone.melb"
    assert main(["--config", str(cfg), "mel", "--in", str(src), "--out", str(out)]) == 0
    assert len(opened) == 1
    assert read_melb(out).shape[1] == 40


# --- one report per command: stdout holds a single document ---

def test_every_command_prints_one_json_object(tmp_path, capsys, monkeypatch):
    def fake_run_study(study, seeds, out_dir, jobs=1):
        Path(out_dir).mkdir(parents=True)  # as run_study makes it
        return {"study": study, "medians": {}}

    monkeypatch.setattr("tinytts.toytrain.run_study", fake_run_study)
    subset = _curated_subset(tmp_path, capsys)
    wav = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), wav)
    refs = tmp_path / "refs.txt"
    refs.write_text("one two three\nfour five\n")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG)
    corpus, run = tmp_path / "toy.jsonl", tmp_path / "run"
    commands = [
        ["curate", "--corpus-root", tmp_path / "corpus", "--budget-s", "100",
         "--out-dir", tmp_path / "subset2"],
        ["augment", "--manifest", subset, "--out-dir", tmp_path / "aug",
         "--noise-specs", "white:25:1"],
        ["verify-aug", "--manifest", tmp_path / "aug" / "manifest.jsonl"],
        ["p56", "--in", wav],
        ["mix", "--in", wav, "--out", tmp_path / "noisy.wav", "--snr-db", "15"],
        ["mel", "--in", wav, "--out", tmp_path / "speech.melb"],
        ["wer", "--ref", refs, "--hyp", refs],
        ["sus", "--ref", refs, "--hyp", refs, "--out", tmp_path / "sus.csv"],
        ["--config", cfg, "toy-gen", "--out", corpus],
        ["--config", cfg, "toy-train", "--corpus", corpus, "--out-dir", run],
        ["toy-infer", "--model", run / "model.toym", "--tokens", "1,2,3"],
        ["study", "--study", "batching", "--seeds", "1,2,3", "--out-dir", tmp_path / "study"],
    ]
    for argv in commands:
        code, out = run_cli(capsys, "--json", *map(str, argv))
        assert code == 0, argv
        assert isinstance(json.loads(out), dict), argv  # extra text fails to parse

    # sus without --out: stdout is its CSV alone, under --json too
    code, out = run_cli(capsys, "--json", "sus", "--ref", str(refs), "--hyp", str(refs))
    assert code == 0
    assert out == (tmp_path / "sus.csv").read_text()


def test_plain_output_is_the_payload_as_key_value_lines(tmp_path, capsys):
    wav = tmp_path / "speech.wav"
    write_wav(speech_like(3, duration_s=1.1), wav)
    argv = ["mix", "--in", str(wav), "--out", str(tmp_path / "noisy.wav"), "--snr-db", "15"]
    payload = json.loads(run_cli(capsys, "--json", *argv)[1])
    code, out = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert {k: json.loads(v) for k, v in (line.split(": ", 1) for line in lines)} == payload


def test_verify_aug_has_no_tolerance_flag(tmp_path, capsys):
    # the tolerance is augment.SNR_TOLERANCE_DB
    argv = ["verify-aug", "--manifest", str(tmp_path / "none.jsonl"), "--tolerance-db=1"]
    assert main(argv) == 1
    assert "--tolerance-db" in capsys.readouterr().err


# --- one mutated input per file reader: a typed error, never a traceback ---

def _flip(raw: bytes, pos: int) -> bytes:
    return raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1:]


def _speech_wavs(directory: Path, n: int = 2) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"u{i}.wav" for i in range(n)]
    for i, path in enumerate(paths):
        write_wav(speech_like(40 + i, duration_s=1.1), path)
    return paths


def _subset_manifest(tmp_path) -> Path:
    entries = [curation.CorpusEntry(p.stem, p, "text", 1.1)
               for p in _speech_wavs(tmp_path / "wavs")]
    manifest = tmp_path / "subset.jsonl"
    curation.write_subset_manifest(curation.Subset(entries), manifest)
    return manifest


def _reader_input(reader: str, tmp_path) -> tuple[Path, list[str]]:
    """A valid input file of the reader and a command that reads it."""
    if reader == "config":
        (wav,) = _speech_wavs(tmp_path, 1)
        path = tmp_path / "run.cfg"
        path.write_text("budget_s = 60\nselection_mode = random\n")
        return path, ["--config", str(path), "p56", "--in", str(wav)]
    if reader == "metadata":
        _speech_wavs(tmp_path / "corpus" / "wavs")
        path = tmp_path / "corpus" / "metadata.csv"
        path.write_text("u0|r|text 0\nu1|r|text 1\n")
        return path, ["curate", "--corpus-root", str(path.parent), "--budget-s", "100",
                      "--out-dir", str(tmp_path / "out")]
    if reader == "subset-manifest":
        path = _subset_manifest(tmp_path)
        return path, ["augment", "--manifest", str(path), "--out-dir", str(tmp_path / "out"),
                      "--noise-specs", "white:25:1"]
    if reader == "aug-manifest":
        aug = tmp_path / "aug"
        assert main(["augment", "--manifest", str(_subset_manifest(tmp_path)),
                     "--out-dir", str(aug), "--noise-specs", "white:25:1"]) == 0
        return aug / "manifest.jsonl", ["verify-aug", "--manifest", str(aug / "manifest.jsonl")]
    if reader == "wav":
        (path,) = _speech_wavs(tmp_path, 1)
        return path, ["p56", "--in", str(path)]
    if reader == "psd-csv":
        (wav,) = _speech_wavs(tmp_path, 1)
        path = tmp_path / "mic.csv"
        path.write_text("freq_hz,power_db\n100,6\n1000,0\n4000,-3\n")
        return path, ["mix", "--in", str(wav), "--out", str(tmp_path / "noisy.wav"),
                      "--noise", str(path), "--snr-db", "10"]
    if reader == "attn1":
        path = tmp_path / "attn" / "u.attn"
        path.parent.mkdir()
        path.write_text("ATTN1 2 4\n0.25 0.25 0.25 0.25\n0.5 0.5 0.0 0.0\n")
        return path, ["sharpness", "--attn-dir", str(path.parent), "--label", "x"]
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG)
    if reader == "toy-corpus":
        path = tmp_path / "toy.jsonl"
        save_corpus(gen_synthetic_corpus(4, 3, 3, (2, 4), [(0.1, 0.05)], seed=0), path)
        return path, ["--config", str(cfg), "toy-train", "--corpus", str(path),
                      "--out-dir", str(tmp_path / "run")]
    path = tmp_path / "model.toym"
    save_model(ToyModel(ToyConfig(vocab_size=4, max_decode_frames=5)), path)
    return path, ["toy-infer", "--model", str(path), "--tokens", "1,2,3"]


READERS = ["config", "metadata", "subset-manifest", "aug-manifest", "wav", "psd-csv",
           "attn1", "toy-corpus", "toym"]


@pytest.mark.parametrize(
    "reader, line, set_value",
    [
        ("aug-manifest", 1, lambda row: row.update(snr_db=float("nan"))),
        ("aug-manifest", 1, lambda row: row.update(mixture_gain=float("nan"))),
        ("toy-corpus", 1, lambda row: row["frames"][0].__setitem__(0, float("inf"))),
    ],
    ids=["aug-manifest-nan-snr", "aug-manifest-nan-mixture-gain", "toy-corpus-inf-frame"],
)
def test_non_finite_json_number_exits_cleanly(tmp_path, capsys, reader, line, set_value):
    # Python's json reads and writes NaN and Infinity; JSON has no such numbers
    path, argv = _reader_input(reader, tmp_path)
    capsys.readouterr()
    rows = [json.loads(r) for r in path.read_text(encoding="utf-8").splitlines()]
    if reader == "aug-manifest":
        assert rows[line]["aug_id"] != 0  # a noisy copy, whose SNR verify-aug checks
    set_value(rows[line])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}:{line + 1}:" in err


@pytest.mark.parametrize("reader", READERS)
def test_unmutated_reader_input_runs(tmp_path, capsys, reader):
    # so that a mutated run can fail only on its mutated file
    assert main(_reader_input(reader, tmp_path)[1]) == 0


@pytest.mark.parametrize(
    "reader, mutate",
    [
        ("config", lambda raw: raw[:19]),  # "budget_s = 60\nselec"
        ("config", lambda raw: _flip(raw, raw.index(b"="))),  # "budget_s < 60"
        ("metadata", lambda raw: raw[:4]),  # "u0|r"
        ("metadata", lambda raw: _flip(raw, raw.index(b"|"))),  # "u0}r|text 0"
        ("subset-manifest", lambda raw: raw[:-10]),  # the last row cut mid-JSON
        ("subset-manifest", lambda raw: _flip(raw, 0)),  # "z" for "{"
        ("aug-manifest", lambda raw: raw[:-10]),
        ("aug-manifest", lambda raw: _flip(raw, 0)),
        ("wav", lambda raw: raw[:-1]),  # the data chunk runs past the end
        ("wav", lambda raw: _flip(raw, 0)),  # "SIFF"
        ("psd-csv", lambda raw: raw[:-2]),  # "4000,-"
        ("psd-csv", lambda raw: _flip(raw, raw.index(b"100,") + 3)),  # "100-6"
        ("attn1", lambda raw: raw[: len(raw) // 2]),  # one row and a half missing
        ("attn1", lambda raw: _flip(raw, 0)),  # "@TTN1"
        ("toy-corpus", lambda raw: raw[:-10]),
        ("toy-corpus", lambda raw: _flip(raw, 0)),
        ("toym", lambda raw: raw[:20]),  # inside the config block
        ("toym", lambda raw: raw[:-8]),  # the last parameter block
        # max_decode_frames 5 + 2**24, past the bound on decode time
        ("toym", lambda raw: _flip(raw, raw.index((5).to_bytes(4, "little")) + 3)),
    ],
    ids=["config-truncate", "config-flip", "metadata-truncate", "metadata-flip",
         "subset-manifest-truncate", "subset-manifest-flip", "aug-manifest-truncate",
         "aug-manifest-flip", "wav-truncate", "wav-flip", "psd-csv-truncate", "psd-csv-flip",
         "attn1-truncate", "attn1-flip", "toy-corpus-truncate", "toy-corpus-flip",
         "toym-truncate-config", "toym-truncate-params", "toym-flip-max-decode-frames"],
)
def test_mutated_input_file_exits_with_a_typed_error(tmp_path, capsys, reader, mutate):
    path, argv = _reader_input(reader, tmp_path)
    capsys.readouterr()
    path.write_bytes(mutate(path.read_bytes()))
    assert main(argv) in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
