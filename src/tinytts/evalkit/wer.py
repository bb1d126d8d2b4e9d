"""Word error rate with a full substitution/deletion/insertion breakdown.

Alignment is minimal-edit dynamic programming with unit costs; on ties a
substitution is preferred over an insertion+deletion pair, and a deletion
over an insertion. Corpus-level WER pools error and reference-word counts
over all pairs (not a mean of per-sentence rates), so values above 100% are
possible and meaningful.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ..errors import EmptyReference


@dataclass(frozen=True)
class WERBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    n_ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer_percent(self) -> float:
        return 100.0 * self.errors / self.n_ref_words


def normalize_text(s: str) -> list[str]:
    """Casefold, strip punctuation except intra-word apostrophes, split.

    The typographic apostrophe U+2019 is treated as '. Anything that is not
    a letter, digit, or kept apostrophe becomes whitespace.
    """
    folded = s.casefold().replace("’", "'")
    chars = []
    for i, ch in enumerate(folded):
        if ch.isalnum():
            chars.append(ch)
        elif ch == "'" and 0 < i < len(folded) - 1:
            prev_ok = folded[i - 1].isalnum()
            next_ok = folded[i + 1].isalnum()
            chars.append("'" if prev_ok and next_ok else " ")
        else:
            chars.append(" ")
    return "".join(chars).split()


def wer(ref: list[str], hyp: list[str]) -> WERBreakdown:
    """Minimal-edit S/D/I counts between reference and hypothesis words."""
    if not ref:
        raise EmptyReference("reference has no words")
    # row[j] = (edits, S, D, I) of the alignment of ref[:i] with hyp[:j]
    row = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, start=1):
        prev, row = row, [(i, 0, i, 0)]
        for j, h in enumerate(hyp, start=1):
            e, s, d, n = prev[j - 1]
            diag = (e + (r != h), s + (r != h), d, n)
            e, s, d, n = prev[j]
            dele = (e + 1, s, d + 1, n)
            e, s, d, n = row[j - 1]
            ins = (e + 1, s, d, n + 1)
            # min keeps the first of equal costs: diagonal, then deletion
            row.append(min(diag, dele, ins, key=lambda c: c[0]))
    _, s, d, n = row[-1]
    return WERBreakdown(s, d, n, len(ref))


@dataclass(frozen=True)
class SusAggregate:
    pooled_wer_percent: float
    total_errors: int
    total_ref_words: int
    per_sentence: tuple[WERBreakdown, ...]


def sus_report(pairs: list[tuple[str, str]]) -> SusAggregate:
    """Pooled corpus WER over (reference text, hypothesis text) pairs."""
    if not pairs:
        raise EmptyReference("no sentence pairs")
    breakdowns = []
    for idx, (ref_text, hyp_text) in enumerate(pairs):
        try:
            breakdowns.append(wer(normalize_text(ref_text), normalize_text(hyp_text)))
        except EmptyReference as exc:
            raise EmptyReference(f"pair {idx}: {exc}") from exc
    errors = sum(b.errors for b in breakdowns)
    ref_words = sum(b.n_ref_words for b in breakdowns)
    return SusAggregate(
        100.0 * errors / ref_words, errors, ref_words, tuple(breakdowns)
    )


def sus_csv(agg: SusAggregate) -> str:
    out = io.StringIO()
    out.write("index,substitutions,deletions,insertions,n_ref_words,wer_percent\n")
    for idx, b in enumerate(agg.per_sentence):
        out.write(
            f"{idx},{b.substitutions},{b.deletions},{b.insertions},"
            f"{b.n_ref_words},{b.wer_percent:.4f}\n"
        )
    return out.getvalue()
