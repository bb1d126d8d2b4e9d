"""The decoder step, forward pass and BPTT write into reused scratch buffers.

The reference below is the allocating form they replaced: every intermediate a
fresh array, with the same operations in the same grouping. Scratch buffers
must not change one bit of any output, because the studies' criteria flip on
last-bit differences (criterion 10 fails when one bias entry moves by 1e-15).
forward keeps no decoder inputs: the reference keeps its own, and the matrix
backward rebuilds must equal them bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from tinytts.toytrain import ToyModel, gen_synthetic_corpus, infer, make_batch
from tinytts.toytrain.model import (
    GATE_THRESHOLD,
    _Decoder,
    _decoder_inputs,
    backward,
    forward,
)
from tinytts.toytrain.study import AUGEMB_PARAMS, BATCHING_PARAMS


def _ref_encode(p, cfg, tokens, aug_ids):
    """The memory: encoder states, then each row's augmentation embedding."""
    b, n = tokens.shape
    emb = p["tok_emb"][tokens]
    h = np.zeros((b, cfg.enc_hidden))
    states = []
    for step in range(n):
        h = np.tanh(emb[:, step, :] @ p["enc_w_in"] + h @ p["enc_w_rec"] + p["enc_b"])
        states.append(h)
    enc = np.stack(states, axis=1)
    aug = np.broadcast_to(p["aug_emb"][aug_ids][:, None, :], (b, n, cfg.aug_embed_dim))
    return np.concatenate([enc, aug], axis=2)


def _ref_step(p, memory, mem_proj, token_mask, prev, state, context):
    dec_in = np.concatenate([prev, context], axis=1)
    state = np.tanh(dec_in @ p["dec_w_in"] + state @ p["dec_w_rec"] + p["dec_b"])
    query = state @ p["attn_w_query"]
    scores = np.tanh(query[:, None, :] + mem_proj + p["attn_b"])
    energies = (scores @ p["attn_v"])[:, :, 0]
    z = np.where(token_mask, energies, -np.inf)
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    alpha = ez / ez.sum(axis=1, keepdims=True)
    context = (alpha[:, None, :] @ memory)[:, 0, :]
    head_in = np.concatenate([state, context], axis=1)
    frame = head_in @ p["out_w"] + p["out_b"]
    gate = (head_in @ p["gate_w"] + p["gate_b"])[:, 0]
    return dec_in, state, scores, alpha, context, head_in, frame, gate


def _ref_forward(model, batch):
    cfg, p = model.config, model.params
    b, t_max = batch.frame_mask.shape
    memory = _ref_encode(p, cfg, batch.tokens, batch.aug_ids)
    mem_proj = memory @ p["attn_w_memory"]
    token_mask = batch.tokens != 0
    state = np.zeros((b, cfg.dec_hidden))
    context = np.zeros((b, cfg.memory_dim))
    prev = np.zeros((b, cfg.feat_dim))
    steps = []
    for t in range(t_max):
        s = _ref_step(p, memory, mem_proj, token_mask, prev, state, context)
        steps.append(s)
        state, context, prev = s[1], s[4], batch.targets[:, t, :]
    kept = {
        name: np.stack([s[i] for s in steps], axis=1)
        for name, i in (("dec_in", 0), ("scores", 2), ("attention", 3),
                        ("head_in", 5), ("predicted", 6), ("gate_logits", 7))
    }
    return dict(kept, memory=memory)


def _rows(x):
    return x.reshape(-1, x.shape[-1])


def _ref_backward(model, result, dec_in):
    cfg, p = model.config, model.params
    batch, memory, scores = result.batch, result.memory, result.scores
    m, hd, he = cfg.feat_dim, cfg.dec_hidden, cfg.enc_hidden
    b, t_max = batch.frame_mask.shape
    states = result.head_in[..., :hd]
    g = {}
    n_valid = float(batch.frame_mask.sum())
    d_pred = 2.0 * (result.predicted - batch.targets) * batch.frame_mask[..., None]
    d_pred /= n_valid * m
    sig = 1.0 / (1.0 + np.exp(-result.gate_logits))
    d_gate = cfg.gate_loss_weight * (sig - batch.gate_targets) * batch.frame_mask
    d_gate /= n_valid
    g["out_w"] = _rows(result.head_in).T @ _rows(d_pred)
    g["out_b"] = d_pred.sum(axis=(0, 1))
    g["gate_w"] = _rows(result.head_in).T @ d_gate.reshape(-1, 1)
    g["gate_b"] = np.array([d_gate.sum()])
    d_head = d_pred @ p["out_w"].T + d_gate[..., None] @ p["gate_w"].T

    v = p["attn_v"][:, 0]
    d_state = np.zeros((b, hd))
    d_context = np.zeros((b, cfg.memory_dim))
    d_mem_proj = np.zeros(memory.shape[:2] + (cfg.attn_dim,))
    d_contexts, d_energies, d_queries, d_dec_pre = (
        np.empty((b, t_max, k))
        for k in (cfg.memory_dim, memory.shape[1], cfg.attn_dim, hd)
    )
    for t in reversed(range(t_max)):
        alpha, state, score = result.attention[:, t], states[:, t], scores[:, t]
        d_state = d_state + d_head[:, t, :hd]
        d_context = d_context + d_head[:, t, hd:]
        d_alpha = (memory @ d_context[:, :, None])[:, :, 0]
        d_e = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        d_score_pre = d_e[:, :, None] * v * (1.0 - score * score)
        d_mem_proj += d_score_pre
        d_query = d_score_pre.sum(axis=1)
        d_pre = (d_state + d_query @ p["attn_w_query"].T) * (1.0 - state * state)
        d_contexts[:, t], d_energies[:, t], d_queries[:, t], d_dec_pre[:, t] = (
            d_context, d_e, d_query, d_pre
        )
        d_state = d_pre @ p["dec_w_rec"].T
        d_context = d_pre @ p["dec_w_in"][m:].T

    g["dec_w_in"] = _rows(dec_in).T @ _rows(d_dec_pre)
    g["dec_w_rec"] = _rows(states[:, :-1]).T @ _rows(d_dec_pre[:, 1:])
    g["dec_b"] = d_dec_pre.sum(axis=(0, 1))
    g["attn_w_query"] = _rows(states).T @ _rows(d_queries)
    g["attn_v"] = _rows(scores).T @ d_energies.reshape(-1, 1)
    g["attn_b"] = d_mem_proj.sum(axis=(0, 1))
    g["attn_w_memory"] = _rows(memory).T @ _rows(d_mem_proj)
    d_memory = (
        result.attention.transpose(0, 2, 1) @ d_contexts
        + d_mem_proj @ p["attn_w_memory"].T
    )
    g["aug_emb"] = np.zeros_like(p["aug_emb"])
    np.add.at(g["aug_emb"], batch.aug_ids, d_memory[:, :, he:].sum(axis=1))
    # the encoder states are memory's first columns, the embeddings tok_emb[tokens]
    enc = memory[:, :, :he]
    d_enc_pre = np.empty_like(enc)
    d_h = np.zeros((b, he))
    for n in reversed(range(enc.shape[1])):
        d_enc_pre[:, n] = (d_memory[:, n, :he] + d_h) * (1.0 - enc[:, n] * enc[:, n])
        d_h = d_enc_pre[:, n] @ p["enc_w_rec"].T
    g["enc_w_in"] = _rows(p["tok_emb"][batch.tokens]).T @ _rows(d_enc_pre)
    g["enc_w_rec"] = _rows(enc[:, :-1]).T @ _rows(d_enc_pre[:, 1:])
    g["enc_b"] = d_enc_pre.sum(axis=(0, 1))
    g["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(g["tok_emb"], batch.tokens, d_enc_pre @ p["enc_w_in"].T)
    return g


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _model_at_generic_point(cfg, seed):
    """Nonzero biases too, so a regrouped bias add shows."""
    model = ToyModel(cfg)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p[...] = rng.uniform(-0.5, 0.5, size=p.shape)
    return model


SHAPES = {
    "batching": (BATCHING_PARAMS.config, (3, 40)),
    "augemb": (AUGEMB_PARAMS.config, (3, 6)),
    "augemb_noembed": (replace(AUGEMB_PARAMS.config, aug_embed_dim=0), (3, 6)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_forward_and_backward_match_allocating_reference(shape):
    cfg, len_range = SHAPES[shape]
    corpus = gen_synthetic_corpus(
        cfg.vocab_size, cfg.feat_dim, 12, len_range,
        [(0.1, 0.05)] * (cfg.n_aug_ids - 1), seed=3,
    )
    # one utterance per token count: both the token and the frame masks cut
    examples = list({len(e.tokens): e for e in corpus.examples}.values())[:6]
    batch = make_batch(examples, cfg)
    assert len(set((batch.tokens != 0).sum(axis=1))) > 2
    assert len(set(batch.frame_mask.sum(axis=1))) > 2
    model = _model_at_generic_point(cfg, seed=7)

    result = forward(model, batch)
    ref = _ref_forward(model, batch)
    # forward keeps no decoder inputs; backward rebuilds them with this helper
    ref_dec_in = ref.pop("dec_in")
    contexts = result.head_in[..., cfg.dec_hidden:]
    assert _same_bits(_decoder_inputs(batch.targets, contexts), ref_dec_in)
    for name, expected in ref.items():
        assert _same_bits(getattr(result, name), expected), name
    grads = backward(model, result)
    for name, expected in _ref_backward(model, result, ref_dec_in).items():
        assert _same_bits(grads[name], expected), name


def test_single_utterance_steps_match_allocating_reference():
    # B = 1 with every token valid, fed its own frames, as infer() runs it
    cfg = AUGEMB_PARAMS.config
    model = _model_at_generic_point(cfg, seed=11)
    p = model.params
    tokens = np.array([[3, 1, 4, 1, 5]])
    mask = np.ones(tokens.shape, dtype=bool)
    dec = _Decoder(model, tokens, np.array([2]))
    memory = dec.memory
    ref_memory = _ref_encode(p, cfg, tokens, np.array([2]))
    assert _same_bits(memory, ref_memory)
    mem_proj = memory @ p["attn_w_memory"]
    ref_state = np.zeros((1, cfg.dec_hidden))
    ref_context = np.zeros((1, cfg.memory_dim))
    ref_prev = np.zeros((1, cfg.feat_dim))
    for _ in range(6):
        alpha = np.empty((1, tokens.shape[1]))
        head_in = np.empty((1, cfg.dec_hidden + cfg.memory_dim))
        dec.step(dec.frame, alpha, head_in)
        r = _ref_step(p, memory, mem_proj, mask, ref_prev, ref_state, ref_context)
        got = (dec.dec_in, dec.state, dec.scores, alpha, dec.context[:, 0], head_in,
               dec.frame, dec.gate[:, 0])
        for i, (a, b) in enumerate(zip(got, r)):
            assert _same_bits(a, b), i
        ref_state, ref_context, ref_prev = r[1], r[4], r[6]


def _ref_infer(model, tokens, aug_id):
    """Autoregressive decoding through the reference step, every row fresh."""
    cfg, p = model.config, model.params
    token_row = np.array([tokens])
    memory = _ref_encode(p, cfg, token_row, np.array([aug_id]))
    mem_proj = memory @ p["attn_w_memory"]
    mask = np.ones(token_row.shape, dtype=bool)
    state = np.zeros((1, cfg.dec_hidden))
    context = np.zeros((1, cfg.memory_dim))
    prev = np.zeros((1, cfg.feat_dim))
    frames, gate_probs, attention = [], [], []
    for _ in range(cfg.max_decode_frames):
        _, state, _, alpha, context, _, prev, gate = _ref_step(
            p, memory, mem_proj, mask, prev, state, context
        )
        gate_prob = 1.0 / (1.0 + np.exp(-float(gate[0])))
        frames.append(prev[0])
        gate_probs.append(gate_prob)
        attention.append(alpha[0])
        if gate_prob > GATE_THRESHOLD:
            break
    return np.array(frames), np.array(gate_probs), np.array(attention)


def test_infer_matches_allocating_reference():
    cfg = AUGEMB_PARAMS.config
    model = _model_at_generic_point(cfg, seed=7)
    # a gate bias that stops some decodes early and lets others run to the cap
    model.params["gate_b"][...] = -2.0
    corpus = gen_synthetic_corpus(cfg.vocab_size, cfg.feat_dim, 6, (3, 6), [], seed=3)
    lengths = set()
    for example in corpus.examples[:4]:
        for aug_id in range(cfg.n_aug_ids):
            got = infer(model, example.tokens, aug_id)
            expected = _ref_infer(model, example.tokens, aug_id)
            for i, (a, b) in enumerate(zip(got, expected)):
                assert _same_bits(a, b), (example.tokens, aug_id, i)
            lengths.add(len(got[0]))
    assert cfg.max_decode_frames in lengths  # decodes that never stop
    # several stop on the gate, each after two or more frames
    assert min(lengths) > 1 and len(lengths) > 2


def _decode_steps(dec, n_steps):
    """Copies of what each of n_steps steps fills or overwrites, fed its own frames."""
    b, n = dec.mask_bias.shape
    head_in = np.empty((b, dec.state.shape[1] + dec.memory.shape[2]))
    for _ in range(n_steps):
        alpha = np.empty((b, n))
        dec.step(dec.frame, alpha, head_in)
        yield [a.copy() for a in (alpha, head_in, dec.dec_in, dec.state, dec.context,
                                  dec.scores, dec.frame, dec.gate)]


def test_decoder_passes_share_no_state():
    cfg = AUGEMB_PARAMS.config
    model = _model_at_generic_point(cfg, seed=11)
    inputs = [(np.array([[3, 1, 4, 1, 5]]), np.array([2])),
              (np.array([[2, 7, 1, 8, 2]]), np.array([1]))]
    alone = [list(_decode_steps(_Decoder(model, *x), 8)) for x in inputs]
    first, second = (_decode_steps(_Decoder(model, *x), 8) for x in inputs)
    for step_alone in zip(*alone):
        for got, expected in zip((next(first), next(second)), step_alone):
            assert all(_same_bits(a, b) for a, b in zip(got, expected))
