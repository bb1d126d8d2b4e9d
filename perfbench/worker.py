"""One workload run in a fresh process: inputs, set-up, closed-loop jobs, checks.

    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1
        --out result.json
    python3 perfbench/worker.py record --workload W --seeds 0-127

`run` is started by run.py and writes its figures to --out. `record` runs
one job per seed and stores the outputs' fingerprints in reference/W.json,
the digests later runs must reproduce; run it only on a commit whose
outputs are known good.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from inputs import CORPUS_PATTERNS, tree_digest, write_ljspeech_corpus  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# set-up is timed this many times per run; the import probes run between
# jobs, so the samples spread over the run instead of one stretch of it
SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import tinytts.cli; print(time.perf_counter() - t)"
)
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def ensure_inputs(workload: str, seed: int) -> tuple[Path | None, str | None]:
    """Generate the augment corpus for a seed once; (directory, digest)."""
    if workload != "augment-ljs":
        return None, None
    root = WORK / "inputs" / f"seed{seed}"
    stamp = root / "digest.txt"
    if stamp.is_file() and stamp.read_text() == tree_digest(root, CORPUS_PATTERNS):
        return root, stamp.read_text()
    if root.exists():
        shutil.rmtree(root)
    write_ljspeech_corpus(root, seed)
    digest = tree_digest(root, CORPUS_PATTERNS)
    stamp.write_text(digest)
    return root, digest


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "note": "CPU frequency and pinning are not controlled: the benchmark "
                "changes no machine setting",
    }


def import_seconds() -> float:
    """Time to import tinytts.cli in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    path = reference_path(workload)
    return json.loads(path.read_text()) if path.is_file() else {}


def run(args) -> None:
    inputs, inputs_digest = ensure_inputs(args.workload, args.seed)
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, inputs, work)
    setup_s, import_s = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
    inputs_digest = inputs_digest or wl.inputs_digest()

    reference = load_reference(args.workload)
    ref = reference.get("seeds", {}).get(str(args.seed))
    problems = []
    if reference.get("inputs", inputs_digest) != inputs_digest:
        problems.append("inputs: digest differs from the recorded one")
    if ref is not None and ref.get("inputs", inputs_digest) != inputs_digest:
        problems.append("inputs: digest differs from the one recorded for this seed")

    tracer = Tracer() if args.trace else None
    plain, traced, spans, iteration_s = [], [], [], []
    loop_start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if len(import_s) < SETUP_REPS:
            import_s.append(import_seconds())
        gc.collect()  # every job starts from the same heap, not the last job's cycles
        start = time.perf_counter()
        if trace_this:
            tracer.install()
            try:
                job = wl.job(tracer)
            finally:
                tracer.uninstall()
            traced.append(job)
            spans.append(tracer.take())
        else:
            plain.append(job := wl.job())
        iteration_s.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - loop_start
        enough = tracer is None or traced
        if enough and elapsed + statistics.median(iteration_s) > args.seconds:
            break

    while len(import_s) < SETUP_REPS:
        import_s.append(import_seconds())

    jobs = plain + traced
    for job in jobs:
        problems += wl.check(job, plain[0], ref)
    # one set of output checks per job, plus the input digest check
    attempted = sum(j.attempted for j in jobs) + len(jobs) + 1
    failed = sum(j.failed for j in jobs) + len(problems)

    def med(values):
        return statistics.median(values)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(plain),
        "traced_jobs": len(traced),
        "setup_s": med([i + s for i, s in zip(import_s, setup_s)]),
        "import_s": med(import_s),
        "wall_s": med([j.wall_s for j in plain]),
        "job_walls_s": [round(j.wall_s, 4) for j in plain],
        "phases_s": {k: med([j.phases_s[k] for j in plain]) for k in plain[0].phases_s},
        "work": plain[0].work,
        "rates": {k: med(v) for k, v in wl.rates(plain).items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reference": ref is not None,
        "inputs_digest": inputs_digest,
        "env": environment(),
    }
    if tracer is not None:
        n_sources = plain[0].work.get("n_sources", 0)
        per_job = [layer_metrics(s, n_sources, tracer.absent_spans) for s in spans]
        result["layers"] = {k: med([m[k] for m in per_job]) for k in per_job[0]}
        result["absent"] = tracer.absent
        traced_wall = med([j.wall_s for j in traced])
        result["layers"].update({
            "trace.untraced_wall_s": result["wall_s"],
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - result["wall_s"],
        })
    shutil.rmtree(work / "job", ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1))


def record(args) -> None:
    """Store each seed's output fingerprints as the reference."""
    lo, _, hi = args.seeds.partition("-")
    reference = load_reference(args.workload)
    work = WORK / f"record-{args.workload}"
    for seed in range(int(lo), int(hi or lo) + 1):
        inputs, digest = ensure_inputs(args.workload, seed)
        work.mkdir(parents=True, exist_ok=True)
        wl = WORKLOADS[args.workload](seed, inputs, work)
        wl.setup()
        job = wl.job()
        problems = wl.check(job, job, None)
        if problems:
            sys.exit(f"seed {seed}: {problems}")
        if digest is None:
            reference["inputs"] = wl.inputs_digest()
            fingerprint = {"final_loss": job.outputs["final_loss"],
                           "steady_loss": job.outputs["steady_loss"],
                           "infer": job.outputs["infer_fingerprint"]}
        else:
            fingerprint = {"inputs": digest, "augment_tree": job.outputs["augment_tree"],
                           "mel": job.outputs["mel"],
                           "max_deviation_db": job.outputs["max_deviation_db"]}
        seeds = reference.setdefault("seeds", {})
        seeds[str(seed)] = fingerprint
        reference["seeds"] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        REFERENCE_DIR.mkdir(exist_ok=True)
        reference_path(args.workload).write_text(json.dumps(reference, indent=1) + "\n")
        shutil.rmtree(work, ignore_errors=True)
        print(seed, fingerprint, flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=run)
    p = sub.add_parser("record")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seeds", required=True, help="N or LO-HI")
    p.set_defaults(func=record)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
