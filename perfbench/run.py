"""tinytts benchmark entry point.

    python3 perfbench/run.py --workload augment-ljs --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Starts worker.py in a fresh process for the
workload, prints a readable report and, as the last line, one JSON object
with `correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists:
`end_to_end` with --trace 0, `per_layer` with --trace 1. This script uses
the standard library only and stays small, because the workload process it
starts inherits its peak resident size.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# One BLAS thread: an idle OpenBLAS worker spins on the second core, so the
# "single process" would otherwise use both cores and time its neighbours.
CHILD_ENV = {**os.environ, **dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
DEADLINE_S = 175.0
WORKLOAD_RATES = ("augment_audio_s_per_s", "verify_audio_s_per_s", "mel_audio_s_per_s") + tuple(
    f"{rate}.{shape}" for shape in ("batching", "augemb")
    for rate in ("train_steps_per_s", "train_frames_per_s", "infer_frames_per_s"))


def fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def main() -> None:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "tinytts" / "cli.py").is_file():
        fail(f"no tinytts sources under {src}; run from the root of a checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    out = work / f"result-{args.workload}.json"
    out.unlink(missing_ok=True)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        capture_output=True, text=True, env=CHILD_ENV,
        timeout=DEADLINE_S - (time.monotonic() - started),
    )
    if worker.returncode != 0:
        fail(f"workload process exited {worker.returncode}:\n{worker.stderr[-4000:]}", 1)
    res = json.loads(out.read_text(encoding="utf-8"))

    rates = {name: res["rates"].get(name, 0.0) for name in WORKLOAD_RATES}
    failed_share = res["failed"] / res["attempted"]
    if args.trace:
        metrics = {**res["layers"], **rates, "failed_op_share": failed_share,
                   "cli.import_ms": res["import_s"] * 1e3}
        listed = spec["per_layer"]
    else:
        metrics = {"setup_s": res["setup_s"], "wall_s": res["wall_s"],
                   "peak_rss_mb": res["peak_rss_mb"], "ok_op_share": 1.0 - failed_share}
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        fail(f"benchmark does not produce {missing}", 1)

    print(f"workload {res['workload']} seed {res['seed']}: {res['jobs']} jobs"
          f" + {res['traced_jobs']} traced, recorded reference "
          f"{'checked' if res['reference'] else 'not available for this seed'}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"  job wall times {res['job_walls_s']} s")
    print(f"  setup_s {res['setup_s']:.4f} s (import {res['import_s']:.4f} s)")
    print(f"  wall_s {res['wall_s']:.4f} s  peak_rss_mb {res['peak_rss_mb']:.1f} MB"
          f"  failed_op_share {failed_share:.4f} ({res['failed']}/{res['attempted']})")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in res["rates"].items():
        print(f"  {name} {value:.4f} {units[name]}")
    for name, value in res["phases_s"].items():
        print(f"  phase {name} {value:.4f} s")
    for name, value in res["work"].items():
        print(f"  work {name} {value:.6g}")
    for target in res.get("absent", []):
        print(f"  ABSENT {target}: metrics fed by it read -1")
    for problem in res["problems"]:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


if __name__ == "__main__":
    main()
