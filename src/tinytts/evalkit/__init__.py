"""Alignment sharpness and SUS word-error-rate evaluation."""

from .attention import (
    AttentionMatrix,
    read_attention,
    sharpness_report,
    sharpness_score,
    sharpness_stats,
    write_attention,
)
from .wer import (
    SusAggregate,
    WERBreakdown,
    normalize_text,
    sus_csv,
    sus_report,
    wer,
)
