"""Run configuration: key=value text files with defaults and strict keys.

Precedence: command-line flags override the config file, which overrides the
defaults below. Unknown keys are errors so typos cannot silently fall back to
a default. Every command with an output directory echoes the fully-resolved
configuration there (minus execution details like job counts, which must not
change the output bytes). A flag that mirrors a key is set here, through the
key's parser, before the command runs, so that snapshot lists the values
that ran.

The `mel.*` and `toy.*` keys are the fields of MelConfig and ToyConfig, with
the dataclass defaults; no default is written twice.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .audio import MelConfig
from .curation import INFORMED, RANDOM
from .errors import ConfigFileError, read_utf8
from .noisegen import (
    DEFAULT_NOISE_SPECS,
    MAX_ABS_DB,
    SPECTRA,
    NoiseSpec,
    read_psd_table_csv,
)
from .toytrain import ToyConfig
from .toytrain.study import DEFAULT_AUG_PROFILES

# key prefix -> the dataclass whose fields are the keys under it
SECTIONS = {"mel": MelConfig, "toy": ToyConfig}


def seed_int(text: str) -> int:
    """int(text) for a seed, which keys Philox or a hash and fills TOYM's 64-bit
    seed field: a value outside [0, 2**64) raises ValueError."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed {value} is outside [0, 2**64)")
    return value


def selection_mode(text: str) -> str:
    if text not in (INFORMED, RANDOM):
        raise ValueError(f"expected {INFORMED} or {RANDOM}")
    return text


# every known key with its default and parser
DEFAULTS: dict[str, tuple[object, type]] = {
    "corpus_root": ("", str),
    "budget_s": (7200.0, float),
    "selection_mode": (INFORMED, selection_mode),
    "seed": (0, seed_int),
    "master_seed": (0, seed_int),
    "jobs": (1, int),
    "noise_specs": (
        ",".join(f"{s.name}:{s.snr_db:g}:{s.aug_id}" for s in DEFAULT_NOISE_SPECS), str
    ),
    **{
        f"{prefix}.{f.name}": (
            f.default, seed_int if f.name == "seed" else type(f.default)
        )
        for prefix, cls in SECTIONS.items()
        for f in dataclasses.fields(cls)
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
    def __init__(self, values: dict[str, object] | None = None):
        self.values = {k: v for k, (v, _) in DEFAULTS.items()}
        if values:
            self.values.update(values)

    def get(self, key: str):
        if key not in DEFAULTS:
            raise ConfigFileError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, raw: str | object) -> None:
        if key not in DEFAULTS:
            raise ConfigFileError(f"unknown config key {key!r}")
        _, parser = DEFAULTS[key]
        if isinstance(raw, str) and parser is not str:
            try:
                raw = parser(raw)
            except ValueError as exc:
                raise ConfigFileError(f"{key}: cannot parse {raw!r}: {exc}") from exc
        if isinstance(raw, float) and not math.isfinite(raw):
            raise ConfigFileError(f"{key}: {raw!r} is not a finite number")
        self.values[key] = raw

    def build(self, prefix: str):
        """The MelConfig ("mel") or ToyConfig ("toy") of the `prefix.*` values."""
        cls = SECTIONS[prefix]
        names = [f.name for f in dataclasses.fields(cls)]
        return cls(**{name: self.values[f"{prefix}.{name}"] for name in names})

    def snapshot(self) -> str:
        lines = [
            f"{k} = {self.values[k]}"
            for k in sorted(DEFAULTS)
            if k not in _VOLATILE_KEYS
        ]
        return "\n".join(lines) + "\n"


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


def finite_float(text: str) -> float:
    """float(text), refusing nan and infinities with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def finite_snr_db(text: str) -> float:
    """finite_float(text) for an SNR in dB, refusing |snr_db| > MAX_ABS_DB."""
    value = finite_float(text)
    if abs(value) > MAX_ABS_DB:
        raise ValueError(f"|snr_db| {abs(value):g} is above {MAX_ABS_DB:g}")
    return value


def parse_spectrum(name: str):
    """white/usasi/sensor, or a path to a freq_hz,power_db CSV table."""
    if name in SPECTRA:
        return SPECTRA[name]
    if name.endswith(".csv"):
        return read_psd_table_csv(name)
    raise ConfigFileError(f"unknown spectrum {name!r}")


def _parse_items(raw: str, what: str, usage: str, parse) -> list:
    """parse(*fields) per comma-separated item, its colon fields split from the
    right (CSV paths may hold colons); ConfigFileError on a bad item."""
    n_colons = usage.count(":")
    out = []
    for item in raw.split(",") if raw.strip() else []:
        fields = item.strip().rsplit(":", n_colons)
        try:
            if len(fields) != n_colons + 1:
                raise ValueError(f"expected {usage}")
            out.append(parse(*fields))
        except ValueError as exc:
            raise ConfigFileError(f"{what} {item!r}: {exc}") from exc
    return out


def _noise_spec(name: str, snr_raw: str, aug_raw: str):
    snr, aug_id = finite_snr_db(snr_raw), int(aug_raw)
    stem = Path(name).stem if name.endswith(".csv") else name
    return NoiseSpec(stem, parse_spectrum(name), snr, aug_id)


def parse_noise_specs(raw: str) -> list[NoiseSpec]:
    """Decode `name:snr:aug_id` triples; name is white/usasi/sensor or a CSV path."""
    return _parse_items(raw, "noise spec", "name:snr_db:aug_id", _noise_spec)


def parse_aug_profiles(raw: str) -> list[tuple[float, float]]:
    """Decode `shift:std` pairs for the synthetic corpus generator."""

    def profile(shift: str, std: str) -> tuple[float, float]:
        return finite_float(shift), finite_float(std)

    return _parse_items(raw, "aug profile", "shift:std", profile)
