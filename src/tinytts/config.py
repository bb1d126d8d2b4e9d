"""Run configuration, and the leaf of the package's import graph.

Precedence: command-line flags override the config file, which overrides the
defaults below. Unknown keys are errors so typos cannot silently fall back to
a default. Every command with an output directory echoes the fully-resolved
configuration there (minus execution details like job counts, which must not
change the output bytes). A flag that mirrors a key is set here, through the
key's parser, before the command runs, so that snapshot lists the values
that ran.

Every setting is declared here once, and the pipeline modules import it from
here: MelConfig and ToyConfig with their caps, the selection, batch-plan and
study names, MAX_ABS_DB, CURATE_BATCH_SIZE, the default noise specs (as the
`noise_specs` text) and aug profiles. This module imports only the standard
library and tinytts.errors, so the CLI can parse its flags and its config
without loading numpy or a pipeline.
The `mel.*` and `toy.*` keys are the fields of MelConfig and ToyConfig, with
the dataclass defaults; no default is written twice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import BadConfig, ConfigFileError, read_utf8

# curate's selection modes
INFORMED = "informed"
RANDOM = "random"
# training's batch plans
BUCKETED = "bucketed"
RANDOM_SHUFFLE = "random_shuffle"
# the studies, in the order of toytrain.study.STUDIES
BATCHING = "batching"
AUG_EMBEDDING = "augembedding"

# the bound of every dB value a user gives, a PSD table's powers and every SNR:
# far beyond the ~96 dB that 16-bit audio can show, and inside the range where
# 10 ** (db / 10) neither overflows nor underflows
MAX_ABS_DB = 300.0

# the `toy.aug_profiles` default and the augembedding study's, as (shift, std)
DEFAULT_AUG_PROFILES = ((0.0, 0.1), (0.2, 0.05), (-0.15, 0.08))

CURATE_BATCH_SIZE = 16  # of the plans whose padding curate reports; not a key

# bound the filterbank, n_mels x (n_fft // 2 + 1) doubles, at 67 MB
MAX_N_FFT = 2**15
MAX_N_MELS = 512


@dataclass(frozen=True)
class MelConfig:
    n_fft: int = 1024
    hop_length: int = 256
    win_length: int = 1024
    n_mels: int = 80
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0
    log_floor: float = 1e-5

    def __post_init__(self) -> None:
        if min(self.n_fft, self.hop_length, self.win_length, self.n_mels) < 1:
            raise BadConfig("n_fft, hop_length, win_length, n_mels must be >= 1")
        if self.n_fft > MAX_N_FFT or self.n_mels > MAX_N_MELS:
            raise BadConfig(f"need n_fft <= {MAX_N_FFT} and n_mels <= {MAX_N_MELS}")
        if self.win_length > self.n_fft:
            raise BadConfig("win_length must not exceed n_fft")
        if self.hop_length > self.win_length:
            raise BadConfig("hop_length must not exceed win_length")
        if not 0 <= self.fmin_hz < self.fmax_hz:
            raise BadConfig("need 0 <= fmin_hz < fmax_hz")
        if self.log_floor <= 0:
            raise BadConfig("log_floor must be positive")


MAX_DECODE_FRAMES = 2**16  # bounds infer's time whatever a checkpoint claims
# bounds the weights at 8 MB a copy; each study shape has under 4000 parameters
MAX_PARAMETERS = 2**20


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
        # int fields are sizes and counts (>= 1) but for these; seeds key Philox
        floors = {"aug_embed_dim": 0, "steps": 0, "seed": 0}
        for f in fields(self):
            if type(f.default) is not int:
                continue
            value, floor = getattr(self, f.name), floors.get(f.name, 1)
            if value < floor:
                raise BadConfig(f"dimensions and counts: {f.name} = {value} < {floor}")
            # TOYM stores the seed in 64 bits and every other int field in 32
            bits = 64 if f.name == "seed" else 32
            if value >= 2**bits:
                raise BadConfig(f"{f.name} = {value} >= 2**{bits}")
        if self.max_decode_frames > MAX_DECODE_FRAMES:
            raise BadConfig(
                f"max_decode_frames = {self.max_decode_frames} > {MAX_DECODE_FRAMES}"
            )
        n_params = sum(math.prod(shape) for _, shape in param_shapes(self))
        if n_params > MAX_PARAMETERS:
            raise BadConfig(f"{n_params} parameters > {MAX_PARAMETERS}")

    @property
    def memory_dim(self) -> int:
        return self.enc_hidden + self.aug_embed_dim


def param_shapes(cfg: ToyConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The toy model's parameters in their fixed order; row 0 of tok_emb is the
    padding token."""
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


# key prefix -> the dataclass whose fields are the keys under it
SECTIONS = {"mel": MelConfig, "toy": ToyConfig}


def seed_int(text: str) -> int:
    """int(text) for a seed, which keys Philox or a hash and fills TOYM's 64-bit
    seed field: a value outside [0, 2**64) raises ValueError."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed {value} is outside [0, 2**64)")
    return value


def finite_float(text: str) -> float:
    """float(text), refusing nan and infinities with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def job_count(text: str) -> int:
    """int(text) for the jobs key: at most one worker process per core."""
    jobs, cores = int(text), os.cpu_count() or 1
    if not 1 <= jobs <= cores:
        raise ValueError(f"{jobs} is outside [1, {cores}] (the CPU count)")
    return jobs


def selection_mode(text: str) -> str:
    if text not in (INFORMED, RANDOM):
        raise ValueError(f"expected {INFORMED} or {RANDOM}")
    return text


# every known key with its default and parser, the key's whole rule
DEFAULTS: dict[str, tuple[object, type]] = {
    "corpus_root": ("", str),
    "budget_s": (7200.0, finite_float),
    "selection_mode": (INFORMED, selection_mode),
    "seed": (0, seed_int),
    "master_seed": (0, seed_int),
    "jobs": (1, job_count),
    "noise_specs": ("white:25:1,usasi:15:2,sensor:20:3", str),
    **{
        f"{prefix}.{f.name}": (
            f.default,
            seed_int if f.name == "seed"
            else finite_float if type(f.default) is float
            else int,
        )
        for prefix, cls in SECTIONS.items()
        for f in fields(cls)
    },
    "toy.n_utts": (200, int),
    "toy.len_min": (3, int),
    "toy.len_max": (8, int),
    "toy.aug_profiles": (
        ",".join(f"{shift:g}:{std:g}" for shift, std in DEFAULT_AUG_PROFILES), str
    ),
}

# execution details excluded from resolved-config snapshots
_VOLATILE_KEYS = {"jobs"}


class RunConfig:
    def __init__(self):
        self.values = {k: v for k, (v, _) in DEFAULTS.items()}

    def get(self, key: str):
        if key not in DEFAULTS:
            raise ConfigFileError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, text: str) -> None:
        """Store the key's parser(text), the text of a flag or a config line."""
        if key not in DEFAULTS:
            raise ConfigFileError(f"unknown config key {key!r}")
        _, parser = DEFAULTS[key]
        try:
            self.values[key] = parser(text)
        except ValueError as exc:
            raise ConfigFileError(f"{key}: cannot parse {text!r}: {exc}") from exc

    def build(self, prefix: str):
        """The MelConfig ("mel") or ToyConfig ("toy") of the `prefix.*` values."""
        cls = SECTIONS[prefix]
        return cls(**{f.name: self.values[f"{prefix}.{f.name}"] for f in fields(cls)})

    def snapshot(self) -> str:
        keys = sorted(DEFAULTS.keys() - _VOLATILE_KEYS)
        return "".join(f"{k} = {self.values[k]}\n" for k in keys)


def load_config_file(path: str | Path) -> RunConfig:
    cfg = RunConfig()
    lines = read_utf8(path, ConfigFileError).split("\n")
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigFileError(f"{path}:{line_no}: expected key = value")
        key, _, raw = stripped.partition("=")
        try:
            cfg.set(key.strip(), raw.strip())
        except ConfigFileError as exc:
            raise ConfigFileError(f"{path}:{line_no}: {exc}") from exc
    return cfg


def finite_snr_db(text: str) -> float:
    """finite_float(text) for an SNR in dB, refusing |snr_db| > MAX_ABS_DB."""
    value = finite_float(text)
    if abs(value) > MAX_ABS_DB:
        raise ValueError(f"|snr_db| {abs(value):g} is above {MAX_ABS_DB:g}")
    return value


def parse_items(raw: str, what: str, usage: str, parse) -> list:
    """parse(*fields) per comma-separated item, its colon fields split from the
    right (CSV paths may hold colons); ConfigFileError naming a bad item."""
    n_colons = usage.count(":")
    out = []
    for item in raw.split(",") if raw.strip() else []:
        parts = item.strip().rsplit(":", n_colons)
        try:
            if len(parts) != n_colons + 1:
                raise ValueError(f"expected {usage}")
            out.append(parse(*parts))
        except (ValueError, BadConfig) as exc:
            raise ConfigFileError(f"{what} {item!r}: {exc}") from exc
    return out


def parse_aug_profiles(raw: str) -> list[tuple[float, float]]:
    """Decode `shift:std` pairs for the synthetic corpus generator."""

    def profile(shift: str, std: str) -> tuple[float, float]:
        return finite_float(shift), finite_float(std)

    return parse_items(raw, "aug profile", "shift:std", profile)
