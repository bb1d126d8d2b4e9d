"""Miniature attention sequence-to-sequence model with augmentation embeddings.

Architecture: single tanh-RNN encoder over token embeddings; the per-example
augmentation embedding is concatenated to every encoder output, and attention
plus the decoder consume that concatenated memory. Additive (content-based)
attention; single tanh-RNN decoder with teacher forcing; linear output and
gate heads over (state, context).

Parameters are plain numpy arrays. One decoder pass (_Decoder) holds a
batch's memory and carries, and its one step serves both the teacher-forced
forward pass and autoregressive inference; backward() is hand-written
backpropagation through time over the activations the forward pass keeps.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..config import ToyConfig, param_shapes
from ..errors import BadConfig, MalformedFile

TOYM_MAGIC = b"TOYM"
TOYM_VERSION = 1
GATE_THRESHOLD = 0.5  # infer stops once the gate probability exceeds this


class ToyModel:
    """Parameter container; weights uniform +-1/sqrt(fan_in), biases zero."""

    def __init__(self, config: ToyConfig, init_seed: int | None = None):
        self.config = config
        seed = config.seed if init_seed is None else init_seed
        gen = np.random.Generator(np.random.Philox(key=seed))
        self.params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(config):
            if name.endswith("_b"):
                data = np.zeros(shape)
            elif name.endswith("_emb"):
                data = gen.uniform(-0.5, 0.5, size=shape)
                if name == "tok_emb":
                    data[0] = 0.0  # padding row; masked attention keeps it at 0
            else:
                bound = 1.0 / np.sqrt(shape[0])
                data = gen.uniform(-bound, bound, size=shape)
            self.params[name] = data

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())


@dataclass
class Batch:
    tokens: np.ndarray  # (B, N) ints, 0 = padding: tokens != 0 is the token mask
    aug_ids: np.ndarray  # (B,) ints
    targets: np.ndarray  # (B, T, M)
    frame_mask: np.ndarray  # (B, T) bool
    gate_targets: np.ndarray  # (B, T) 1.0 at each row's last frame, else 0.0


@dataclass
class ForwardResult:
    predicted: np.ndarray  # (B, T, M)
    gate_logits: np.ndarray  # (B, T)
    attention: np.ndarray  # (B, T, N) rows stochastic over valid tokens
    loss: float
    mse: float
    bce: float
    # The tape backward() reads is predicted, gate_logits, attention, memory,
    # head_in and scores, one read-only copy each. Nothing in it is kept twice:
    # the encoder states are memory[..., :d_enc], the token embeddings
    # tok_emb[tokens], and the decoder inputs (B, T, M + mem) are the targets
    # and head_in's contexts one step late, rebuilt for dec_w_in's gradient.
    batch: Batch
    memory: np.ndarray  # (B, N, mem)
    head_in: np.ndarray  # (B, T, d_dec + mem) decoder state and context
    scores: np.ndarray  # (B, T, N, d_att) tanh of the attention pre-activation


def _check_input(tokens: list[int], aug_id: int, cfg: ToyConfig, where: str = ""):
    """Tokens non-empty and in [1, vocab_size], aug id in [0, n_aug_ids)."""
    if not tokens:
        raise BadConfig(f"{where}need at least one token")
    if any(tok < 1 or tok > cfg.vocab_size for tok in tokens):
        raise BadConfig(f"{where}token outside [1, vocab_size]")
    if not 0 <= aug_id < cfg.n_aug_ids:
        raise BadConfig(f"{where}aug_id {aug_id} not in [0, {cfg.n_aug_ids})")


def check_example(example, cfg: ToyConfig, where: str) -> None:
    """A ToyExample has target frames of width feat_dim, and _check_input's
    tokens and aug id; else BadConfig, its message led by `where`."""
    t, width = example.target_frames.shape
    if t == 0:
        raise BadConfig(f"{where}no target frames")
    if width != cfg.feat_dim:
        raise BadConfig(f"{where}feat dim {width} != {cfg.feat_dim}")
    _check_input(example.tokens, example.aug_id, cfg, where)


def make_batch(examples, cfg: ToyConfig) -> Batch:
    """Pad a list of ToyExample, each checked by check_example, into masked arrays."""
    b = len(examples)
    n_max = max(len(e.tokens) for e in examples)
    t_max = max(e.target_frames.shape[0] for e in examples)
    tokens = np.zeros((b, n_max), dtype=np.int64)
    aug_ids = np.zeros(b, dtype=np.int64)
    targets = np.zeros((b, t_max, cfg.feat_dim))
    frame_mask = np.zeros((b, t_max), dtype=bool)
    gates = np.zeros((b, t_max))
    for i, e in enumerate(examples):
        n = len(e.tokens)
        t = e.target_frames.shape[0]
        check_example(e, cfg, f"example {i}: ")
        tokens[i, :n] = e.tokens
        aug_ids[i] = e.aug_id
        targets[i, :t] = e.target_frames
        frame_mask[i, :t] = True
        gates[i, t - 1] = 1.0
    return Batch(tokens, aug_ids, targets, frame_mask, gates)


def _encode(model: ToyModel, tokens: np.ndarray, aug_ids: np.ndarray):
    """Token RNN + augmentation embedding concat: the memory (B, N, mem), whose
    first d_enc columns are the RNN states."""
    p, he = model.params, model.config.enc_hidden
    b, n = tokens.shape
    emb = p["tok_emb"][tokens]
    memory = np.empty((b, n, model.config.memory_dim))
    memory[:, :, he:] = p["aug_emb"][aug_ids][:, None, :]
    h = np.zeros((b, he))
    for step in range(n):
        h = np.tanh(emb[:, step] @ p["enc_w_in"] + h @ p["enc_w_rec"] + p["enc_b"])
        memory[:, step, :he] = h
    return memory


class _Decoder:
    """One decoder pass: the memory, its attention projection, the padding
    (token 0) as an additive bias, the biases tiled to the batch, contiguous
    buffers for a step's intermediates, and the carries, which start at zero:
    the state (B, d_dec), the context (B, 1, mem) and the frame (B, M).

    Writing a ufunc or product into a contiguous buffer with out= rounds as a
    fresh result does, and a tiled bias adds the same value to each element as
    a broadcast one, so the step's bits do not depend on these buffers.
    """

    def __init__(self, model: ToyModel, tokens: np.ndarray, aug_ids: np.ndarray):
        cfg, p = model.config, model.params
        self.p = p
        self.memory = memory = _encode(model, tokens, aug_ids)
        b, n, mem = memory.shape
        hd, att = p["attn_w_query"].shape
        self.mem_proj = memory @ p["attn_w_memory"]
        self.mask_bias = np.where(tokens != 0, 0.0, -np.inf)  # padding: weight 0
        self.dec_b = np.tile(p["dec_b"], (b, 1))
        self.attn_b = np.tile(p["attn_b"], (b, n, 1))
        self.out_b = np.tile(p["out_b"], (b, 1))
        self.gate_b = np.tile(p["gate_b"], (b, 1))
        self.x_in, self.x_rec = np.empty((b, hd)), np.empty((b, hd))
        self.query = np.empty((b, att))
        self.scores = np.empty((b, n, att))
        self.energies = np.empty((b, n, 1))
        self.row = np.empty((b, 1))
        self.gate = np.empty((b, 1))
        # one decoder-input row, refilled by every step; backward rebuilds the rows
        self.dec_in = np.empty((b, cfg.feat_dim + mem))
        self.state = np.zeros((b, hd))
        self.context = np.zeros((b, 1, mem))
        self.frame = np.zeros((b, cfg.feat_dim))

    def step(self, prev: np.ndarray, alpha: np.ndarray, head_in: np.ndarray) -> None:
        """Decoder RNN, additive attention over memory, output and gate heads.

        Fills alpha (B, N) and head_in (B, d_dec + mem) in place, and
        overwrites the carries, dec_in, the scores (B, N, d_att) and the gate
        logits (B, 1). prev (B, M) is read before the frame is overwritten, so
        it may be self.frame.
        """
        p, context = self.p, self.context[:, 0]
        np.concatenate([prev, context], axis=1, out=self.dec_in)
        np.dot(self.dec_in, p["dec_w_in"], out=self.x_in)
        np.dot(self.state, p["dec_w_rec"], out=self.x_rec)
        state = np.add(self.x_in, self.x_rec, out=self.state)
        state += self.dec_b
        np.tanh(state, out=state)
        np.dot(state, p["attn_w_query"], out=self.query)
        np.add(self.query[:, None, :], self.mem_proj, out=self.scores)
        self.scores += self.attn_b
        np.tanh(self.scores, out=self.scores)
        np.matmul(self.scores, p["attn_v"], out=self.energies)
        # softmax over the valid tokens
        z = self.energies[:, :, 0]
        z += self.mask_bias
        np.maximum.reduce(z, axis=1, keepdims=True, out=self.row)
        z -= self.row
        np.exp(z, out=z)
        np.add.reduce(z, axis=1, keepdims=True, out=self.row)
        np.divide(z, self.row, out=alpha)
        np.matmul(alpha[:, None, :], self.memory, out=self.context)
        np.concatenate([state, context], axis=1, out=head_in)
        np.dot(head_in, p["out_w"], out=self.frame)
        self.frame += self.out_b
        np.dot(head_in, p["gate_w"], out=self.gate)
        self.gate += self.gate_b


def forward(model: ToyModel, batch: Batch) -> ForwardResult:
    """Teacher-forced pass with masked MSE + gate BCE loss.

    Keeps the tape backward() reads: head_in, scores, attention, predicted,
    gate_logits and memory. The decoder inputs go through one reused row.
    """
    cfg = model.config
    b, t_max = batch.frame_mask.shape
    dec = _Decoder(model, batch.tokens, batch.aug_ids)
    memory = dec.memory

    # batch-major (B, T, ...): the weight-gradient GEMMs sum their rows in this order
    head_in = np.empty((b, t_max, cfg.dec_hidden + cfg.memory_dim))
    scores = np.empty((b, t_max) + dec.scores.shape[1:])
    attention = np.empty((b, t_max, memory.shape[1]))
    predicted = np.empty((b, t_max, cfg.feat_dim))
    gate_logits = np.empty((b, t_max))
    # The step writes attention and head_in straight into slice t: the
    # concatenate and divide that fill them round exactly, whatever the stride.
    # tanh and exp write only contiguous scratch, copied out here.
    prev = dec.frame  # zeros before the first step
    for t in range(t_max):
        dec.step(prev, attention[:, t], head_in[:, t])
        scores[:, t], predicted[:, t] = dec.scores, dec.frame
        gate_logits[:, t] = dec.gate[:, 0]
        prev = batch.targets[:, t, :]
    for a in (head_in, scores, attention, predicted, gate_logits, memory):
        a.setflags(write=False)

    # means over the valid frames: MSE on frames, stable BCE on gate logits
    n_valid = float(batch.frame_mask.sum())
    diff = (predicted - batch.targets) * batch.frame_mask[..., None]
    mse = (diff * diff).sum() / (n_valid * cfg.feat_dim)
    z = gate_logits
    per = np.maximum(z, 0.0) - z * batch.gate_targets + np.log1p(np.exp(-np.abs(z)))
    bce = (per * batch.frame_mask).sum() / n_valid
    loss = mse + bce * cfg.gate_loss_weight
    return ForwardResult(
        predicted, gate_logits, attention, float(loss), float(mse), float(bce),
        batch, memory, head_in, scores,
    )


def _rows(x: np.ndarray) -> np.ndarray:
    """All leading axes flattened into rows: weight gradients sum over them."""
    return x.reshape(-1, x.shape[-1])


def _decoder_inputs(targets: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """The (B, T, M + mem) inputs forward() gave its decoder steps, from the
    targets (B, T, M) and the steps' contexts (B, T, mem): row t holds frame
    t - 1 and context t - 1, and row 0 zeros."""
    b, t_max, m = targets.shape
    dec_in = np.zeros((b, t_max, m + contexts.shape[2]))
    dec_in[:, 1:, :m] = targets[:, :-1]
    dec_in[:, 1:, m:] = contexts[:, :-1]
    return dec_in


def _recurrent_weights_grad(states: np.ndarray, d_pre: np.ndarray) -> np.ndarray:
    """Gradient of W_rec in h_t = tanh(... + h_{t-1} @ W_rec), with h_{-1} = 0."""
    return _rows(states[:, :-1]).T @ _rows(d_pre[:, 1:])


def backward(model: ToyModel, result: ForwardResult) -> dict[str, np.ndarray]:
    """Gradient of result.loss for every parameter, in params order.

    Backpropagation through time over the activations forward() kept: the
    heads and losses for all frames at once, then the decoder steps last to
    first (the only sequential part: state and context carries), the memory
    projection and aug-embedding concat, and the encoder RNN last token first.
    """
    cfg = model.config
    p = model.params
    batch, memory, scores = result.batch, result.memory, result.scores
    m, hd, he = cfg.feat_dim, cfg.dec_hidden, cfg.enc_hidden
    b, t_max = batch.frame_mask.shape
    states = result.head_in[..., :hd]
    g: dict[str, np.ndarray] = {}

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
    # one buffer for the head gradient: its two products add in the same order
    d_head = d_pred @ p["out_w"].T
    d_head += d_gate[..., None] @ p["gate_w"].T
    del d_pred, sig

    n_tok = memory.shape[1]
    w_query_t, w_rec_t = p["attn_w_query"].T, p["dec_w_rec"].T
    w_context_t = p["dec_w_in"][m:].T  # the context half of dec_in
    d_state = np.zeros((b, hd))
    d_context = np.zeros((b, cfg.memory_dim))
    # Step t reads row t of d_head, then writes its two halves: d_dec_pre
    # holds each step's pre-activation gradient, d_contexts its context
    # gradient. No later step reads row t, so the head gradient is their buffer.
    d_dec_pre, d_contexts = d_head[..., :hd], d_head[..., hd:]
    d_energies, d_queries = (np.empty((b, t_max, k)) for k in (n_tok, cfg.attn_dim))
    # Contiguous scratch, reused by every step. The attention block is
    # token-major (N, B, A), so the sum over tokens for d_query, in token order
    # as before, is one axis-0 reduce. Its operands are copied in first and
    # multiplied in place (d_e * v rounds the same either way): a copy across
    # layouts is much cheaper than a broadcast multiply across layouts.
    d_alpha3, d_alpha_row = np.empty((b, n_tok, 1)), np.empty((b, 1))
    tmp_n = np.empty((b, n_tok))
    v = np.tile(p["attn_v"][:, 0], (n_tok, b, 1))
    d_mem_proj_t = np.zeros((n_tok, b, cfg.attn_dim))
    d_score_pre, score_slope = np.empty_like(d_mem_proj_t), np.empty_like(d_mem_proj_t)
    tmp_h, state_slope = np.empty((b, hd)), np.empty((b, hd))
    for t in reversed(range(t_max)):
        alpha, state = result.attention[:, t], states[:, t]
        score = scores[:, t].transpose(1, 0, 2)
        d_e, d_query = d_energies[:, t], d_queries[:, t]
        d_pre, d_ctx = d_dec_pre[:, t], d_contexts[:, t]
        d_state += d_pre
        d_context += d_ctx
        np.matmul(memory, d_context[:, :, None], out=d_alpha3)
        d_alpha = d_alpha3[:, :, 0]
        np.multiply(d_alpha, alpha, out=tmp_n)
        np.add.reduce(tmp_n, axis=1, keepdims=True, out=d_alpha_row)
        np.subtract(d_alpha, d_alpha_row, out=tmp_n)
        np.multiply(alpha, tmp_n, out=d_e)
        np.copyto(score_slope, score)
        np.multiply(score_slope, score_slope, out=score_slope)
        np.subtract(1.0, score_slope, out=score_slope)
        np.copyto(d_score_pre, d_e.T[:, :, None])
        d_score_pre *= v
        d_score_pre *= score_slope
        d_mem_proj_t += d_score_pre
        np.add.reduce(d_score_pre, axis=0, out=d_query)
        np.dot(d_query, w_query_t, out=tmp_h)
        np.add(d_state, tmp_h, out=tmp_h)
        np.multiply(state, state, out=state_slope)
        np.subtract(1.0, state_slope, out=state_slope)
        np.multiply(tmp_h, state_slope, out=d_pre)
        np.copyto(d_ctx, d_context)
        np.dot(d_pre, w_rec_t, out=d_state)
        np.dot(d_pre, w_context_t, out=d_context)
    # Each buffer goes at its last read, so the products below allocate beside
    # less. The loop's row views hold their bases, so they go first.
    del d_e, d_query, d_pre, d_ctx, d_score_pre, score_slope, v
    g["attn_v"] = _rows(scores).T @ d_energies.reshape(-1, 1)
    del d_energies
    g["attn_w_query"] = _rows(states).T @ _rows(d_queries)
    del d_queries
    # batch-major again: the sums below run over its rows in (B, N) order
    d_mem_proj = np.ascontiguousarray(d_mem_proj_t.transpose(1, 0, 2))
    del d_mem_proj_t
    g["attn_b"] = d_mem_proj.sum(axis=(0, 1))
    g["attn_w_memory"] = _rows(memory).T @ _rows(d_mem_proj)
    d_memory = (
        result.attention.transpose(0, 2, 1) @ d_contexts
        + d_mem_proj @ p["attn_w_memory"].T
    )
    del d_mem_proj, d_contexts

    # built for this one product, after the loop's largest buffers are gone
    dec_in = _decoder_inputs(batch.targets, result.head_in[..., hd:])
    g["dec_w_in"] = _rows(dec_in).T @ _rows(d_dec_pre)
    del dec_in
    g["dec_w_rec"] = _recurrent_weights_grad(states, d_dec_pre)
    g["dec_b"] = d_dec_pre.sum(axis=(0, 1))
    del d_dec_pre, d_head

    g["aug_emb"] = np.zeros_like(p["aug_emb"])
    np.add.at(g["aug_emb"], batch.aug_ids, d_memory[:, :, he:].sum(axis=1))
    enc = memory[:, :, :he]
    d_enc_pre = np.empty_like(enc)
    d_h = np.zeros((b, he))
    for n in reversed(range(enc.shape[1])):
        d_enc_pre[:, n] = (d_memory[:, n, :he] + d_h) * (1.0 - enc[:, n] * enc[:, n])
        d_h = d_enc_pre[:, n] @ p["enc_w_rec"].T
    g["enc_w_in"] = _rows(p["tok_emb"][batch.tokens]).T @ _rows(d_enc_pre)
    g["enc_w_rec"] = _recurrent_weights_grad(enc, d_enc_pre)
    g["enc_b"] = d_enc_pre.sum(axis=(0, 1))
    g["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(g["tok_emb"], batch.tokens, d_enc_pre @ p["enc_w_in"].T)
    return {name: g[name] for name in p}


def infer(model: ToyModel, tokens: list[int], aug_id: int):
    """Autoregressive decoding; stops at gate > GATE_THRESHOLD or max_decode_frames.

    Returns (frames (T, M), gate_probs (T,), attention (T, N)).
    """
    cfg = model.config
    _check_input(tokens, aug_id, cfg)
    token_row = np.asarray(tokens, dtype=np.int64)[None, :]
    dec = _Decoder(model, token_row, np.asarray([aug_id]))
    head_in = np.empty((1, cfg.dec_hidden + cfg.memory_dim))
    # grown one row per decoded step, so memory follows the frames decoded,
    # not the max_decode_frames a checkpoint claims
    frames, gate_probs, attention = [], [], []
    for _ in range(cfg.max_decode_frames):
        alpha = np.empty((1, len(tokens)))
        dec.step(dec.frame, alpha, head_in)
        gate_prob = 1.0 / (1.0 + np.exp(-float(dec.gate[0, 0])))
        frames.append(dec.frame[0].copy())  # the next step overwrites dec.frame
        gate_probs.append(gate_prob)
        attention.append(alpha[0])
        if gate_prob > GATE_THRESHOLD:
            break
    return np.array(frames), np.array(gate_probs), np.array(attention)


# --- TOYM checkpoint: magic, version, config block, parameter blocks ---

# the config block, as (field, struct format): ToyConfig's int fields, its
# float fields, then the 64-bit seed
_FIELDS = [f for f in fields(ToyConfig) if f.name != "seed"]
_CONFIG_LAYOUT = (
    [(f.name, "<I") for f in _FIELDS if type(f.default) is int]
    + [(f.name, "<d") for f in _FIELDS if type(f.default) is float]
    + [("seed", "<Q")]
)


def save_model(model: ToyModel, path: str | Path) -> None:
    cfg = model.config
    blob = bytearray()
    blob += TOYM_MAGIC
    blob += struct.pack("<I", TOYM_VERSION)
    for name, fmt in _CONFIG_LAYOUT:
        blob += struct.pack(fmt, getattr(cfg, name))
    for name, shape in param_shapes(cfg):
        data = model.params[name]
        if data.shape != shape:
            raise BadConfig(f"{name}: shape drifted from config")
        blob += struct.pack("<Q", data.size)
        blob += data.astype("<f8").tobytes(order="C")
    Path(path).write_bytes(bytes(blob))


def load_model(path: str | Path) -> ToyModel:
    """Read a save_model checkpoint; a MalformedFile names the path, and the
    parameter block of a value that is not finite."""
    raw = Path(path).read_bytes()
    if raw[:4] != TOYM_MAGIC:
        raise MalformedFile(f"{path}: bad magic")
    try:
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != TOYM_VERSION:
            raise MalformedFile(f"{path}: unsupported version {version}")
        pos = 8
        values: dict[str, object] = {}
        for name, fmt in _CONFIG_LAYOUT:
            (values[name],) = struct.unpack_from(fmt, raw, pos)
            pos += struct.calcsize(fmt)
        cfg = ToyConfig(**values)
        shapes = param_shapes(cfg)
        # the file must hold every block the config claims before any is allocated
        expect = pos + sum(8 + 8 * math.prod(shape) for _, shape in shapes)
        if len(raw) != expect:
            raise MalformedFile(f"{path}: {len(raw)} bytes, config implies {expect}")
        params: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            (count,) = struct.unpack_from("<Q", raw, pos)
            size = math.prod(shape)
            if count != size:
                raise MalformedFile(f"{path}: {name}: {count} values, expected {size}")
            data = np.frombuffer(raw, dtype="<f8", count=size, offset=pos + 8)
            if not np.isfinite(data).all():
                raise MalformedFile(f"{path}: {name}: a value is not finite")
            params[name] = data.reshape(shape).copy()
            pos += 8 + 8 * size
    except (struct.error, ValueError, BadConfig) as exc:
        raise MalformedFile(f"{path}: checkpoint does not parse: {exc}") from exc
    model = ToyModel.__new__(ToyModel)  # the file's parameters, not a random init
    model.config, model.params = cfg, params
    return model
