"""What the benchmark calls in tinytts must keep working.

The span recorder wraps tinytts functions by module and attribute name; a
target that no longer resolves turns its per-layer metrics ABSENT without
failing the benchmark, so a rename or removal must fail here. The workloads
call tinytts directly (subset manifests, batch planning, training, infer), so
each one also runs here once, briefly, writing only under `.perfbench_work/`."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_perfbench_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.Tracer().absent == []


@pytest.mark.parametrize("workload", ["augment-ljs", "train"])
def test_perfbench_workload_runs_correctly(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout[-2000:]
