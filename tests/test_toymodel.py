import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tinytts.cli import main
from tinytts.config import MAX_DECODE_FRAMES, MAX_PARAMETERS
from tinytts.errors import BadConfig, MalformedFile
from tinytts.toytrain import (
    ToyConfig,
    ToyModel,
    forward,
    gen_synthetic_corpus,
    infer,
    load_corpus,
    load_model,
    make_batch,
    save_corpus,
    save_model,
    train,
)
from tinytts.toytrain.model import backward
from tinytts.toytrain.study import BATCHING_PARAMS

TINY = ToyConfig(
    vocab_size=4,
    feat_dim=3,
    embed_dim=4,
    enc_hidden=5,
    aug_embed_dim=2,
    dec_hidden=5,
    attn_dim=4,
    n_aug_ids=3,
    max_decode_frames=30,
    batch_size=2,
    steps=0,
    seed=1,
)


def tiny_corpus(seed=7, profiles=((0.1, 0.05),)):
    return gen_synthetic_corpus(4, 3, 4, (2, 4), list(profiles), seed=seed)


# --- corpus generator ---

def test_empty_profiles_gives_clean_identity():
    corpus = gen_synthetic_corpus(5, 4, 6, (2, 5), [], seed=3)
    assert all(e.aug_id == 0 for e in corpus.examples)
    for e in corpus.examples:
        assert np.array_equal(e.target_frames, corpus.clean_frames_for(e.tokens))


def test_batch_gate_fires_at_each_rows_last_frame_only():
    examples = tiny_corpus().examples
    batch = make_batch(examples, TINY)
    n_frames = [e.target_frames.shape[0] for e in examples]
    assert len(set(n_frames)) > 1  # rows of different lengths
    expected = np.zeros(batch.frame_mask.shape)
    expected[np.arange(len(examples)), np.array(n_frames) - 1] = 1.0
    assert np.array_equal(batch.gate_targets, expected)


def test_batch_refuses_an_example_without_frames():
    examples = tiny_corpus().examples[:2]
    examples[1] = replace(examples[1], target_frames=np.zeros((0, TINY.feat_dim)))
    with pytest.raises(BadConfig, match="example 1: no target frames"):
        make_batch(examples, TINY)


def test_zero_noise_profile_matches_clean():
    corpus = gen_synthetic_corpus(5, 4, 3, (2, 4), [(0.0, 0.0)], seed=3)
    by_id = {}
    for e in corpus.examples:
        by_id.setdefault(tuple(e.tokens), {})[e.aug_id] = e
    for versions in by_id.values():
        assert np.allclose(versions[0].target_frames, versions[1].target_frames)
        assert versions[1].aug_id == 1


def test_token_repetition_expands_templates():
    corpus = gen_synthetic_corpus(4, 3, 1, (2, 2), [], seed=11)
    e = corpus.examples[0]
    tok = e.tokens[0]
    d = corpus.emission_counts[tok]
    assert np.allclose(e.target_frames[:d], np.tile(corpus.templates[tok], (d, 1)))
    total = sum(corpus.emission_counts[t] for t in e.tokens)
    assert e.target_frames.shape == (total, 3)

    # the same bytes as one repeated template block per token, concatenated,
    # on every utterance of a batching-study corpus, one token and a repeat
    cfg = BATCHING_PARAMS.config
    corpus = gen_synthetic_corpus(
        cfg.vocab_size, cfg.feat_dim, BATCHING_PARAMS.n_utts,
        BATCHING_PARAMS.len_range, [], seed=1017,
    )
    for tokens in [e.tokens for e in corpus.examples] + [[3], [5, 5, 5], [2, 7, 7, 2]]:
        blocks = [
            np.repeat(corpus.templates[t][None, :], corpus.emission_counts[t], axis=0)
            for t in tokens
        ]
        reference = np.concatenate(blocks, axis=0)
        frames = corpus.clean_frames_for(tokens)
        assert frames.shape == reference.shape
        assert frames.tobytes() == reference.tobytes()


def test_bad_length_range():
    with pytest.raises(BadConfig, match="len_range .* outside"):
        gen_synthetic_corpus(4, 3, 2, (0, 4), [], seed=0)
    with pytest.raises(BadConfig, match="len_range .* outside"):
        gen_synthetic_corpus(4, 3, 2, (3, 65), [], seed=0)
    with pytest.raises(BadConfig, match="need vocab_size >= 2"):
        gen_synthetic_corpus(1, 3, 2, (2, 4), [], seed=0)
    for n_utts in (0, -4):  # an empty corpus, which toy-train would refuse
        with pytest.raises(BadConfig, match="need n_utts >= 1"):
            gen_synthetic_corpus(4, 3, n_utts, (2, 4), [(0.5, 0.1)], seed=0)


def test_corpus_file_round_trip(tmp_path):
    corpus = tiny_corpus()
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert len(back.examples) == len(corpus.examples)
    assert np.allclose(back.templates, corpus.templates)
    for a, b in zip(back.examples, corpus.examples):
        assert a.tokens == b.tokens
        assert a.aug_id == b.aug_id
        assert np.allclose(a.target_frames, b.target_frames)


def test_corpus_with_legacy_gates_loads_the_same_examples(tmp_path):
    # older versions wrote each example's gate targets, 1 at its last frame
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_corpus(), path)
    rows = [json.loads(r) for r in path.read_text(encoding="utf-8").splitlines()]
    for row in rows[1:]:
        row["gates"] = [0] * (len(row["frames"]) - 1) + [1]
    legacy = tmp_path / "legacy.jsonl"
    legacy.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    for a, b in zip(load_corpus(legacy).examples, load_corpus(path).examples, strict=True):
        assert (a.tokens, a.aug_id) == (b.tokens, b.aug_id)
        assert np.array_equal(a.target_frames, b.target_frames)


def test_corpus_blank_lines_are_skipped_and_an_empty_file_refused(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_corpus(), path)
    padded = tmp_path / "padded.jsonl"
    text = path.read_text(encoding="utf-8")
    padded.write_text("\n" + text, encoding="utf-8")
    for a, b in zip(load_corpus(padded).examples, load_corpus(path).examples, strict=True):
        assert (a.tokens, a.aug_id) == (b.tokens, b.aug_id)
        assert np.array_equal(a.target_frames, b.target_frames)
    # a line is numbered in the file, blank lines counted
    padded.write_text("\n" + text.replace('"aug_id": 0', '"aug_id": -1', 1), encoding="utf-8")
    with pytest.raises(MalformedFile, match=f"{padded}:3:"):
        load_corpus(padded)
    for content in ("", "\n\n"):
        padded.write_text(content)
        with pytest.raises(MalformedFile, match=f"{padded}: no rows"):
            load_corpus(padded)


@pytest.mark.parametrize(
    "line, old, new",
    [
        (0, '"emission_counts"', '"counts"'),  # header key missing
        (1, "{", "{not json"),
        (1, '"tokens": [', '"tokens": ["a", '),
        (1, None, "[1, 2]\n"),  # a row that is not an object
    ],
)
def test_malformed_corpus_file_rejected(tmp_path, line, old, new):
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_corpus(), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line] = new if old is None else lines[line].replace(old, new, 1)
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedFile, match=f"{path}:{line + 1}:"):
        load_corpus(path)


@pytest.mark.parametrize(
    "line, key, mistyped",
    [
        (1, "aug_id", lambda v: 1.7),
        (1, "aug_id", lambda v: "0"),
        (1, "aug_id", lambda v: True),
        (1, "frames", lambda v: [[str(x) for x in row] for row in v]),
        (1, "tokens", lambda v: [True, *v[1:]]),
        (0, "seed", lambda v: "abc"),
        (0, "emission_counts", lambda v: [1.5, *v[1:]]),
    ],
    ids=["aug-id-float", "aug-id-string", "aug-id-bool", "frame-string",
         "token-bool", "seed-string", "count-float"],
)
def test_mistyped_corpus_field_names_the_line(tmp_path, line, key, mistyped):
    # each of these used to be coerced (1.7 -> 1, "0" -> 0, "x" -> True) or kept
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_corpus(), path)
    rows = [json.loads(r) for r in path.read_text(encoding="utf-8").splitlines()]
    rows[line][key] = mistyped(rows[line][key])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(MalformedFile, match=f"{path}:{line + 1}:"):
        load_corpus(path)


@pytest.mark.parametrize(
    "line, key, bad",
    [
        (0, "seed", lambda v: -5),
        (0, "seed", lambda v: 2**64),
        (0, "aug_profiles", lambda v: [[0.1, 0.05, 9.0]]),
        (0, "aug_profiles", lambda v: [[0.1]]),
        (0, "emission_counts", lambda v: v[:-1]),
        (1, "aug_id", lambda v: -3),
        (2, "aug_id", lambda v: 2),  # tiny_corpus has one profile
    ],
    ids=["seed-negative", "seed-too-big", "profile-triple", "profile-single",
         "counts-short", "aug-id-negative", "aug-id-no-profile"],
)
def test_out_of_range_corpus_value_names_the_line(tmp_path, line, key, bad):
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_corpus(), path)
    rows = [json.loads(r) for r in path.read_text(encoding="utf-8").splitlines()]
    rows[line][key] = bad(rows[line][key])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(MalformedFile, match=f"{path}:{line + 1}:"):
        load_corpus(path)


def test_corpus_at_the_value_limits_loads(tmp_path):
    corpus = tiny_corpus()
    corpus.seed = 2**64 - 1
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert back.seed == 2**64 - 1
    assert {e.aug_id for e in back.examples} == {0, len(corpus.aug_profiles)}


# --- forward pass ---

def test_attention_rows_stochastic_over_valid_tokens():
    corpus = tiny_corpus()
    model = ToyModel(TINY)
    batch = make_batch(corpus.examples[:3], TINY)
    res = forward(model, batch)
    att = res.attention  # (B, T, N)
    assert np.allclose(att.sum(axis=2), 1.0, atol=1e-5)
    pad = np.broadcast_to(batch.tokens[:, None, :] == 0, att.shape)
    assert np.all(att[pad] == 0.0)
    n_tokens = (batch.tokens != 0).sum(axis=1)
    for i in range(att.shape[0]):
        assert np.all(att[i, :, : n_tokens[i]] > 0.0)


def test_padding_invariance_of_loss():
    corpus = tiny_corpus()
    examples = corpus.examples[:3]
    model = ToyModel(TINY)
    base = forward(model, make_batch(examples, TINY))
    # appending 3 all-pad frames to one example = padding the whole batch longer
    batch = make_batch(examples, TINY)
    b, t, m = batch.targets.shape
    wider = make_batch(examples, TINY)
    wider.targets = np.concatenate([wider.targets, np.zeros((b, 3, m))], axis=1)
    wider.frame_mask = np.concatenate(
        [wider.frame_mask, np.zeros((b, 3), dtype=bool)], axis=1
    )
    wider.gate_targets = np.concatenate([wider.gate_targets, np.zeros((b, 3))], axis=1)
    padded = forward(model, wider)
    assert abs(padded.loss - base.loss) < 1e-9


def test_zero_output_projection_closed_form():
    corpus = tiny_corpus(profiles=())
    model = ToyModel(TINY)
    model.params["out_w"][:] = 0.0
    bias = np.array([0.3, -0.2, 0.1])
    model.params["out_b"][:] = bias
    batch = make_batch(corpus.examples[:4], TINY)
    res = forward(model, batch)
    assert np.allclose(res.predicted, bias, atol=1e-12)
    diff = (batch.targets - bias) * batch.frame_mask[:, :, None]
    expected_mse = (diff**2).sum() / (batch.frame_mask.sum() * 3)
    assert res.mse == pytest.approx(expected_mse, rel=1e-12)


def test_aug_embedding_gradient_isolation():
    corpus = tiny_corpus()  # aug ids {0, 1}; row 2 unused
    model = ToyModel(TINY)
    batch = make_batch(corpus.examples[:4], TINY)
    res = forward(model, batch)
    grad = backward(model, res)["aug_emb"]
    used = set(batch.aug_ids.tolist())
    for row in range(TINY.n_aug_ids):
        if row in used:
            assert np.any(grad[row] != 0.0)
        else:
            assert np.all(grad[row] == 0.0)


def test_gate_loss_weight_scales_gradient_linearly():
    from dataclasses import replace

    corpus = tiny_corpus()
    batch_examples = corpus.examples[:3]

    def grads_at(lam):
        model = ToyModel(replace(TINY, gate_loss_weight=lam))
        batch = make_batch(batch_examples, model.config)
        res = forward(model, batch)
        return backward(model, res)

    g0, g1, g2 = grads_at(0.0), grads_at(1.0), grads_at(2.0)
    for name in g0:
        bce_part = g1[name] - g0[name]
        assert np.allclose(g2[name] - g1[name], bce_part, atol=1e-12)


def test_shape_and_range_validation():
    corpus = tiny_corpus()
    bad = corpus.examples[0]
    bad.aug_id = 99
    with pytest.raises(BadConfig, match=r"example 0: aug_id 99 not in \[0, 3\)"):
        make_batch([bad], TINY)
    bad.aug_id = 0
    bad.tokens = [0, 1]
    with pytest.raises(BadConfig, match="example 0: token outside"):
        make_batch([bad], TINY)


# --- inference ---

def test_untrained_infer_stops_at_cap():
    model = ToyModel(TINY)
    frames, gates, attn = infer(model, [1, 2, 3], 0)
    assert frames.shape[0] <= TINY.max_decode_frames
    assert attn.shape == (frames.shape[0], 3)
    assert np.allclose(attn.sum(axis=1), 1.0)


def test_infer_deterministic():
    model = ToyModel(TINY)
    a = infer(model, [2, 3, 1], 1)
    b = infer(model, [2, 3, 1], 1)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_without_aug_embedding_every_aug_id_decodes_the_same_bytes():
    # the augmentation-embedding study measures its no-embedding arm at aug id 0 only
    cfg = replace(TINY, aug_embed_dim=0, steps=6)
    model = ToyModel(cfg)
    train(model, tiny_corpus(profiles=((0.1, 0.05), (-0.1, 0.08))))
    frames, _, attn = infer(model, [2, 3, 1, 4], 0)
    for aug_id in range(1, cfg.n_aug_ids):
        other_frames, _, other_attn = infer(model, [2, 3, 1, 4], aug_id)
        assert other_frames.tobytes() == frames.tobytes()
        assert other_attn.tobytes() == attn.tobytes()


def test_infer_memory_follows_decoded_frames_not_the_cap():
    # the gate fires at the first frame of a cap that would hold megabytes
    model = ToyModel(replace(TINY, max_decode_frames=MAX_DECODE_FRAMES))
    model.params["gate_b"][:] = 50.0
    tracemalloc.start()
    try:
        frames, _, attn = infer(model, [1, 2, 3], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frames.shape[0] == 1 and attn.shape == (1, 3)
    assert peak < 1_000_000


def test_infer_rejects_bad_aug_id():
    model = ToyModel(TINY)
    with pytest.raises(BadConfig, match=r"aug_id 7 not in \[0, 3\)"):
        infer(model, [1], 7)


def test_infer_rejects_empty_tokens():
    with pytest.raises(BadConfig, match="need at least one token"):
        infer(ToyModel(TINY), [], 0)


def test_infer_first_frame_is_forward_frame_zero():
    # infer and the teacher-forced forward share one decoder step: at frame 0
    # both start from zero state, context and previous frame
    corpus = tiny_corpus()
    model = ToyModel(TINY)
    for example in corpus.examples[:2]:
        frames, _gates, attn = infer(model, example.tokens, example.aug_id)
        res = forward(model, make_batch([example], TINY))
        assert frames[0].tobytes() == res.predicted[0, 0].tobytes()
        assert attn[0].tobytes() == res.attention[0, 0].tobytes()


# --- serialization ---

def test_checkpoint_round_trip_exact(tmp_path):
    corpus = tiny_corpus()
    model = ToyModel(TINY)
    path = tmp_path / "model.toym"
    save_model(model, path)
    back = load_model(path)
    assert back.config == TINY
    for name, p in model.params.items():
        assert np.array_equal(back.params[name], p)
    batch = make_batch(corpus.examples[:2], TINY)
    assert np.array_equal(
        forward(back, batch).predicted, forward(model, batch).predicted
    )
    raw = path.read_bytes()
    assert raw[:4] == b"TOYM"


def test_checkpoint_truncation_detected(tmp_path):
    model = ToyModel(TINY)
    path = tmp_path / "model.toym"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(MalformedFile, match="bytes, config implies"):
        load_model(path)


def _with_enc_hidden(path, enc_hidden: int) -> None:
    """Save TINY to path with its header's enc_hidden, the 4th int, replaced."""
    save_model(ToyModel(TINY), path)
    raw = bytearray(path.read_bytes())
    raw[8 + 4 * 3 : 8 + 4 * 4] = struct.pack("<I", enc_hidden)
    path.write_bytes(bytes(raw))


def test_checkpoint_with_invalid_config_block_rejected(tmp_path):
    path = tmp_path / "model.toym"
    _with_enc_hidden(path, 0)
    with pytest.raises(MalformedFile, match="does not parse: dimensions"):
        load_model(path)


def test_checkpoint_claiming_more_than_it_holds_loads_nothing(tmp_path, capsys):
    # a small file whose header claims enc_hidden = 1000, within MAX_PARAMETERS:
    # its parameters would take 8 MB, so the length is checked before any is built
    path = tmp_path / "model.toym"
    _with_enc_hidden(path, 1000)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedFile, match="bytes, config implies"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert main(["toy-infer", "--model", str(path), "--tokens", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_checkpoint_past_the_parameter_cap_rejected(tmp_path, capsys):
    path = tmp_path / "model.toym"
    _with_enc_hidden(path, 2**16)  # enc_w_rec alone is 2**32 weights
    with pytest.raises(MalformedFile, match=f"does not parse: .* > {MAX_PARAMETERS}"):
        load_model(path)
    assert main(["toy-infer", "--model", str(path), "--tokens", "1"]) == 1
    assert f"parameters > {MAX_PARAMETERS}" in capsys.readouterr().err


INVALID_CONFIGS = [
    ("enc_hidden", 0, "dimensions and counts: enc_hidden = 0 < 1"),
    ("batch_size", 0, "dimensions and counts: batch_size = 0 < 1"),
    ("steps", -3, "dimensions and counts: steps = -3 < 0"),
    ("aug_embed_dim", -1, "dimensions and counts: aug_embed_dim = -1 < 0"),
    ("seed", -1, "dimensions and counts: seed = -1 < 0"),
    ("max_decode_frames", MAX_DECODE_FRAMES + 1, "max_decode_frames = 65537 > 65536"),
    # TOYM stores the seed in 64 bits and every other int field in 32
    ("batch_size", 2**32, r"batch_size = 4294967296 >= 2\*\*32"),
    ("steps", 2**32, r"steps = 4294967296 >= 2\*\*32"),
    ("seed", 2**64, r"seed = 18446744073709551616 >= 2\*\*64"),
    ("enc_hidden", 2**40, r"enc_hidden = 1099511627776 >= 2\*\*32"),
    # enc_w_rec alone is 2**32 weights
    ("enc_hidden", 2**16, f"parameters > {MAX_PARAMETERS}"),
    ("vocab_size", MAX_PARAMETERS, f"parameters > {MAX_PARAMETERS}"),
]


@pytest.mark.parametrize(
    "field, value, words", INVALID_CONFIGS, ids=[f"{f}-{v}" for f, v, _ in INVALID_CONFIGS]
)
def test_invalid_config_raises_bad_config(field, value, words):
    with pytest.raises(BadConfig, match=words):
        replace(TINY, **{field: value})


def test_toy_config_at_the_size_limits():
    replace(TINY, batch_size=2**32 - 1, steps=2**32 - 1, seed=2**64 - 1)
    replace(TINY, max_decode_frames=MAX_DECODE_FRAMES)


def test_parameter_count_pure_function_of_config():
    assert ToyModel(TINY).parameter_count() == ToyModel(TINY).parameter_count()
    wider = ToyConfig(
        vocab_size=4, feat_dim=3, embed_dim=4, enc_hidden=5, aug_embed_dim=0,
        dec_hidden=5, attn_dim=4, n_aug_ids=3, max_decode_frames=30,
        batch_size=2, steps=0, seed=1,
    )
    # removing the aug embedding dims shrinks aug table and every consumer
    assert ToyModel(wider).parameter_count() < ToyModel(TINY).parameter_count()
