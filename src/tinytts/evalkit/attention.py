"""Attention-alignment sharpness diagnostics and the ATTN1 file format.

The sharpness score is the mean over decoder frames of each frame's
maximum attention weight: 1.0 means a perfectly peaked alignment, 1/N means
uniform attention over the N encoder tokens.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import BadConfig, MalformedFile, read_utf8

ROW_SUM_TOL = 1e-4


@dataclass
class AttentionMatrix:
    """T x N row-stochastic weights, one row per decoder frame."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise BadConfig("weights must be a non-empty T x N matrix")
        # each test is written to hold for valid values, so NaN fails it; the
        # BadConfig's `row` lets a file's reader name that row's line
        outside = ~((self.weights >= -1e-12) & (self.weights <= 1.0 + 1e-12))
        if outside.any():
            bad = int(np.argwhere(outside)[0][0])
            exc = BadConfig(f"row {bad}: weight outside [0, 1]")
        else:
            sums = self.weights.sum(axis=1)
            off = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
            if not off.any():
                return
            bad = int(np.argmax(off))
            exc = BadConfig(f"row {bad} sums to {sums[bad]:.6f}")
        exc.row = bad
        raise exc


def sharpness_score(a: AttentionMatrix) -> float:
    """Mean of the per-frame maximum attention weights."""
    return float(a.weights.max(axis=1).mean())


def sharpness_stats(scores: list[float]) -> dict[str, float]:
    """Boxplot-ready summary; quartiles by linear interpolation (type 7)."""
    arr = np.asarray(scores, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "min": float(arr.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "n": int(arr.size),
    }


def sharpness_report(matrices_by_label: dict[str, list[AttentionMatrix]]) -> str:
    """CSV with one row of boxplot statistics per configuration label."""
    out = io.StringIO()
    out.write("label,min,q1,median,q3,max,mean,n\n")
    for label in sorted(matrices_by_label):
        mats = matrices_by_label[label]
        if not mats:
            raise BadConfig(f"label {label!r} has no matrices")
        s = sharpness_stats([sharpness_score(m) for m in mats])
        out.write(
            f"{label},{s['min']:.6f},{s['q1']:.6f},{s['median']:.6f},"
            f"{s['q3']:.6f},{s['max']:.6f},{s['mean']:.6f},{s['n']}\n"
        )
    return out.getvalue()


# --- ATTN1 format: header line `ATTN1 <T> <N>`, then T rows of N floats ---

def write_attention(a: AttentionMatrix, path: str | Path) -> None:
    t, n = a.weights.shape
    lines = [f"ATTN1 {t} {n}"]
    for row in a.weights:
        lines.append(" ".join(f"{w:.8g}" for w in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_attention(path: str | Path) -> AttentionMatrix:
    """A write_attention file, blank lines skipped; its errors name path:line."""
    numbered = enumerate(read_utf8(path, MalformedFile).split("\n"), start=1)
    lines = [(line_no, line.split()) for line_no, line in numbered if line.strip()]
    if not lines:
        raise MalformedFile(f"{path}: empty file")
    line_no, header = lines[0]
    if len(header) != 3 or header[0] != "ATTN1":
        raise MalformedFile(f"{path}:{line_no}: bad header: {header}")
    try:
        t, n = int(header[1]), int(header[2])
    except ValueError as exc:
        raise MalformedFile(f"{path}:{line_no}: bad header dimensions") from exc
    body = lines[1:]
    if len(body) != t:
        raise MalformedFile(f"{path}:{line_no}: {t} rows declared, {len(body)} found")
    rows = []
    for line_no, vals in body:
        if len(vals) != n:
            raise MalformedFile(f"{path}:{line_no}: {len(vals)} values, not {n}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError as exc:
            raise MalformedFile(f"{path}:{line_no}: {exc}") from exc
    try:
        return AttentionMatrix(np.array(rows))
    except BadConfig as exc:  # a row's fault names its line, any other the header's
        line_no = body[exc.row][0] if hasattr(exc, "row") else lines[0][0]
        raise MalformedFile(f"{path}:{line_no}: {exc}") from exc
