"""Miniature attention sequence-to-sequence model with augmentation embeddings.

Architecture: single tanh-RNN encoder over token embeddings; the per-example
augmentation embedding is concatenated to every encoder output, and attention
plus the decoder consume that concatenated memory. Additive (content-based)
attention; single tanh-RNN decoder with teacher forcing; linear output and
gate heads over (state, context).

Parameters are plain numpy arrays. One batched decoder step serves both the
teacher-forced forward pass and autoregressive inference; backward() is
hand-written backpropagation through time over the activations the forward
pass keeps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import (
    AugIdOutOfRange,
    MalformedCheckpoint,
    ShapeMismatch,
)

TOYM_MAGIC = b"TOYM"
TOYM_VERSION = 1


@dataclass(frozen=True)
class ToyConfig:
    vocab_size: int = 12
    feat_dim: int = 16
    embed_dim: int = 16
    enc_hidden: int = 32
    aug_embed_dim: int = 4
    dec_hidden: int = 32
    attn_dim: int = 16
    n_aug_ids: int = 4
    max_decode_frames: int = 200
    gate_loss_weight: float = 1.0
    learning_rate: float = 1e-3
    grad_clip_norm: float = 1.0
    batch_size: int = 16
    steps: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        positive = (
            self.vocab_size,
            self.feat_dim,
            self.embed_dim,
            self.enc_hidden,
            self.dec_hidden,
            self.attn_dim,
            self.n_aug_ids,
            self.max_decode_frames,
            self.batch_size,
        )
        if any(v < 1 for v in positive):
            raise ValueError("all dimensions and counts must be >= 1")
        if self.aug_embed_dim < 0:
            raise ValueError("aug_embed_dim must be >= 0")

    @property
    def memory_dim(self) -> int:
        return self.enc_hidden + self.aug_embed_dim


def _param_shapes(cfg: ToyConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Fixed parameter order; row 0 of tok_emb is the padding token."""
    mem = cfg.memory_dim
    return [
        ("tok_emb", (cfg.vocab_size + 1, cfg.embed_dim)),
        ("enc_w_in", (cfg.embed_dim, cfg.enc_hidden)),
        ("enc_w_rec", (cfg.enc_hidden, cfg.enc_hidden)),
        ("enc_b", (cfg.enc_hidden,)),
        ("aug_emb", (cfg.n_aug_ids, cfg.aug_embed_dim)),
        ("attn_w_query", (cfg.dec_hidden, cfg.attn_dim)),
        ("attn_w_memory", (mem, cfg.attn_dim)),
        ("attn_b", (cfg.attn_dim,)),
        ("attn_v", (cfg.attn_dim, 1)),
        ("dec_w_in", (cfg.feat_dim + mem, cfg.dec_hidden)),
        ("dec_w_rec", (cfg.dec_hidden, cfg.dec_hidden)),
        ("dec_b", (cfg.dec_hidden,)),
        ("out_w", (cfg.dec_hidden + mem, cfg.feat_dim)),
        ("out_b", (cfg.feat_dim,)),
        ("gate_w", (cfg.dec_hidden + mem, 1)),
        ("gate_b", (1,)),
    ]


class ToyModel:
    """Parameter container; weights uniform +-1/sqrt(fan_in), biases zero."""

    def __init__(self, config: ToyConfig, init_seed: int | None = None):
        self.config = config
        seed = config.seed if init_seed is None else init_seed
        gen = np.random.Generator(np.random.Philox(key=seed))
        self.params: dict[str, np.ndarray] = {}
        for name, shape in _param_shapes(config):
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
    tokens: np.ndarray  # (B, N) ints, 0 = padding
    token_mask: np.ndarray  # (B, N) bool
    aug_ids: np.ndarray  # (B,) ints
    targets: np.ndarray  # (B, T, M)
    frame_mask: np.ndarray  # (B, T) bool
    gate_targets: np.ndarray  # (B, T) float 0/1


class Step(NamedTuple):
    """Activations of one decoder step."""

    dec_in: np.ndarray  # (B, M + mem) previous frame and previous context
    state: np.ndarray  # (B, d_dec)
    scores: np.ndarray  # (B, N, d_att) tanh of the attention pre-activation
    alpha: np.ndarray  # (B, N) attention weights
    context: np.ndarray  # (B, mem)
    head_in: np.ndarray  # (B, d_dec + mem) state and context
    frame: np.ndarray  # (B, M)
    gate: np.ndarray  # (B,) logits


@dataclass
class ForwardResult:
    predicted: np.ndarray  # (B, T, M)
    gate_logits: np.ndarray  # (B, T)
    attention: np.ndarray  # (B, T, N) rows stochastic over valid tokens
    loss: float
    mse: float
    bce: float
    # the activations backward() reads, one read-only copy each
    batch: Batch
    emb: np.ndarray  # (B, N, d_e) token embeddings
    enc_states: np.ndarray  # (B, N, d_enc)
    memory: np.ndarray  # (B, N, mem)
    dec_in: np.ndarray  # (B, T, M + mem) previous frame and previous context
    head_in: np.ndarray  # (B, T, d_dec + mem) decoder state and context
    scores: np.ndarray  # (B, T, N, d_att) tanh of the attention pre-activation


def make_batch(examples, cfg: ToyConfig) -> Batch:
    """Pad a list of ToyExample to rectangular arrays with masks."""
    b = len(examples)
    n_max = max(len(e.tokens) for e in examples)
    t_max = max(e.target_frames.shape[0] for e in examples)
    tokens = np.zeros((b, n_max), dtype=np.int64)
    token_mask = np.zeros((b, n_max), dtype=bool)
    aug_ids = np.zeros(b, dtype=np.int64)
    targets = np.zeros((b, t_max, cfg.feat_dim))
    frame_mask = np.zeros((b, t_max), dtype=bool)
    gates = np.zeros((b, t_max))
    for i, e in enumerate(examples):
        n = len(e.tokens)
        t = e.target_frames.shape[0]
        if e.target_frames.shape[1] != cfg.feat_dim:
            raise ShapeMismatch(
                f"example {i}: feat dim {e.target_frames.shape[1]} != {cfg.feat_dim}"
            )
        if any(tok < 1 or tok > cfg.vocab_size for tok in e.tokens):
            raise ShapeMismatch(f"example {i}: token outside [1, vocab_size]")
        if not 0 <= e.aug_id < cfg.n_aug_ids:
            raise AugIdOutOfRange(
                f"example {i}: aug_id {e.aug_id} not in [0, {cfg.n_aug_ids})"
            )
        tokens[i, :n] = e.tokens
        token_mask[i, :n] = True
        aug_ids[i] = e.aug_id
        targets[i, :t] = e.target_frames
        frame_mask[i, :t] = True
        gates[i, :t] = e.gate_targets
    return Batch(tokens, token_mask, aug_ids, targets, frame_mask, gates)


def _encode(model: ToyModel, tokens: np.ndarray, aug_ids: np.ndarray):
    """Token RNN + augmentation embedding concat.

    Returns (embeddings (B, N, d_e), RNN states (B, N, d_enc), memory (B, N, mem)).
    """
    p = model.params
    b, n = tokens.shape
    emb = p["tok_emb"][tokens]
    h = np.zeros((b, model.config.enc_hidden))
    states = []
    for step in range(n):
        h = np.tanh(emb[:, step, :] @ p["enc_w_in"] + h @ p["enc_w_rec"] + p["enc_b"])
        states.append(h)
    enc = np.stack(states, axis=1)
    aug = np.broadcast_to(
        p["aug_emb"][aug_ids][:, None, :], (b, n, model.config.aug_embed_dim)
    )
    return emb, enc, np.concatenate([enc, aug], axis=2)


def _decoder_step(p, memory, mem_proj, token_mask, prev, state, context) -> Step:
    """Decoder RNN, additive attention over memory, output and gate heads."""
    dec_in = np.concatenate([prev, context], axis=1)
    state = np.tanh(dec_in @ p["dec_w_in"] + state @ p["dec_w_rec"] + p["dec_b"])
    query = state @ p["attn_w_query"]
    scores = np.tanh(query[:, None, :] + mem_proj + p["attn_b"])
    energies = (scores @ p["attn_v"])[:, :, 0]
    # softmax over the valid tokens; padded ones get weight 0
    z = np.where(token_mask, energies, -np.inf)
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    alpha = ez / ez.sum(axis=1, keepdims=True)
    context = (alpha[:, None, :] @ memory)[:, 0, :]
    head_in = np.concatenate([state, context], axis=1)
    frame = head_in @ p["out_w"] + p["out_b"]
    gate = (head_in @ p["gate_w"] + p["gate_b"])[:, 0]
    return Step(dec_in, state, scores, alpha, context, head_in, frame, gate)


def forward(model: ToyModel, batch: Batch) -> ForwardResult:
    """Teacher-forced pass with masked MSE + gate BCE loss."""
    cfg = model.config
    p = model.params
    b, t_max = batch.frame_mask.shape
    emb, enc_states, memory = _encode(model, batch.tokens, batch.aug_ids)
    mem_proj = memory @ p["attn_w_memory"]  # reused by every decoder step

    state = np.zeros((b, cfg.dec_hidden))
    context = np.zeros((b, cfg.memory_dim))
    prev = np.zeros((b, cfg.feat_dim))
    mask = batch.token_mask
    # batch-major (B, T, ...): the weight-gradient GEMMs sum their rows in this order
    dec_in = np.empty((b, t_max, cfg.feat_dim + cfg.memory_dim))
    head_in = np.empty((b, t_max, cfg.dec_hidden + cfg.memory_dim))
    scores = np.empty((b, t_max) + mem_proj.shape[1:])
    attention = np.empty((b, t_max, mask.shape[1]))
    predicted = np.empty((b, t_max, cfg.feat_dim))
    gate_logits = np.empty((b, t_max))
    kept = (dec_in, head_in, scores, attention, predicted, gate_logits)
    for t in range(t_max):
        s = _decoder_step(p, memory, mem_proj, mask, prev, state, context)
        values = (s.dec_in, s.head_in, s.scores, s.alpha, s.frame, s.gate)
        for buf, value in zip(kept, values):
            buf[:, t] = value
        state, context, prev = s.state, s.context, batch.targets[:, t, :]
    for a in kept + (emb, enc_states, memory):
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
        batch, emb, enc_states, memory, dec_in, head_in, scores,
    )


def _rows(x: np.ndarray) -> np.ndarray:
    """All leading axes flattened into rows: weight gradients sum over them."""
    return x.reshape(-1, x.shape[-1])


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
        d_context = d_pre @ p["dec_w_in"][m:].T  # the context half of dec_in

    g["dec_w_in"] = _rows(result.dec_in).T @ _rows(d_dec_pre)
    g["dec_w_rec"] = _recurrent_weights_grad(states, d_dec_pre)
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
    enc = result.enc_states
    d_enc_pre = np.empty_like(enc)
    d_h = np.zeros((b, he))
    for n in reversed(range(enc.shape[1])):
        d_enc_pre[:, n] = (d_memory[:, n, :he] + d_h) * (1.0 - enc[:, n] * enc[:, n])
        d_h = d_enc_pre[:, n] @ p["enc_w_rec"].T
    g["enc_w_in"] = _rows(result.emb).T @ _rows(d_enc_pre)
    g["enc_w_rec"] = _recurrent_weights_grad(enc, d_enc_pre)
    g["enc_b"] = d_enc_pre.sum(axis=(0, 1))
    g["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(g["tok_emb"], batch.tokens, d_enc_pre @ p["enc_w_in"].T)
    return {name: g[name] for name in p}


def infer(
    model: ToyModel, tokens: list[int], aug_id: int, gate_threshold: float = 0.5
):
    """Autoregressive decoding; stops at gate > threshold or max_decode_frames.

    Returns (frames (T, M), gate_probs (T,), attention (T, N)).
    """
    cfg = model.config
    if not 0 <= aug_id < cfg.n_aug_ids:
        raise AugIdOutOfRange(f"aug_id {aug_id} not in [0, {cfg.n_aug_ids})")
    if not tokens:
        raise ShapeMismatch("need at least one token")
    if any(tok < 1 or tok > cfg.vocab_size for tok in tokens):
        raise ShapeMismatch("token outside [1, vocab_size]")
    p = model.params
    token_mask = np.ones((1, len(tokens)), dtype=bool)
    _, _, memory = _encode(
        model, np.asarray(tokens, dtype=np.int64)[None, :], np.asarray([aug_id])
    )
    mem_proj = memory @ p["attn_w_memory"]

    state = np.zeros((1, cfg.dec_hidden))
    context = np.zeros((1, cfg.memory_dim))
    prev = np.zeros((1, cfg.feat_dim))
    frames, gate_probs, attn = [], [], []
    for _ in range(cfg.max_decode_frames):
        step = _decoder_step(p, memory, mem_proj, token_mask, prev, state, context)
        state, context, prev = step.state, step.context, step.frame
        gate_prob = 1.0 / (1.0 + np.exp(-float(step.gate[0])))
        frames.append(step.frame[0])
        gate_probs.append(gate_prob)
        attn.append(step.alpha[0])
        if gate_prob > gate_threshold:
            break
    return np.array(frames), np.array(gate_probs), np.array(attn)


# --- TOYM checkpoint: magic, version, config block, parameter blocks ---

_CONFIG_INTS = (
    "vocab_size",
    "feat_dim",
    "embed_dim",
    "enc_hidden",
    "aug_embed_dim",
    "dec_hidden",
    "attn_dim",
    "n_aug_ids",
    "max_decode_frames",
    "batch_size",
    "steps",
)
_CONFIG_FLOATS = ("gate_loss_weight", "learning_rate", "grad_clip_norm")


def save_model(model: ToyModel, path: str | Path) -> None:
    cfg = model.config
    blob = bytearray()
    blob += TOYM_MAGIC
    blob += struct.pack("<I", TOYM_VERSION)
    for name in _CONFIG_INTS:
        blob += struct.pack("<I", getattr(cfg, name))
    for name in _CONFIG_FLOATS:
        blob += struct.pack("<d", getattr(cfg, name))
    blob += struct.pack("<Q", cfg.seed)
    for name, shape in _param_shapes(cfg):
        data = model.params[name]
        if data.shape != shape:
            raise MalformedCheckpoint(f"{name}: shape drifted from config")
        blob += struct.pack("<Q", data.size)
        blob += data.astype("<f8").tobytes(order="C")
    Path(path).write_bytes(bytes(blob))


def load_model(path: str | Path) -> ToyModel:
    raw = Path(path).read_bytes()
    if raw[:4] != TOYM_MAGIC:
        raise MalformedCheckpoint("bad magic")
    try:
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != TOYM_VERSION:
            raise MalformedCheckpoint(f"unsupported version {version}")
        pos = 8
        values: dict[str, object] = {}
        for name in _CONFIG_INTS:
            (values[name],) = struct.unpack_from("<I", raw, pos)
            pos += 4
        for name in _CONFIG_FLOATS:
            (values[name],) = struct.unpack_from("<d", raw, pos)
            pos += 8
        (values["seed"],) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        cfg = ToyConfig(**values)
        model = ToyModel(cfg)
        for name, shape in _param_shapes(cfg):
            (count,) = struct.unpack_from("<Q", raw, pos)
            pos += 8
            expect = int(np.prod(shape)) if shape else 1
            if count != expect:
                raise MalformedCheckpoint(f"{name}: {count} values, expected {expect}")
            if pos + 8 * count > len(raw):
                raise MalformedCheckpoint(f"{name}: parameter block truncated")
            data = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(shape)
            pos += 8 * count
            model.params[name] = data.copy()
    except (struct.error, ValueError) as exc:
        raise MalformedCheckpoint(f"checkpoint does not parse: {exc}") from exc
    if pos != len(raw):
        raise MalformedCheckpoint(f"{len(raw) - pos} trailing bytes")
    return model
