"""The benchmark's span recorder wraps tinytts functions by module and attribute
name; a target that no longer resolves turns its per-layer metrics ABSENT
without failing the benchmark, so a rename or removal must fail here."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_perfbench_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.Tracer().absent == []
