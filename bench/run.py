"""lsvkit benchmark: one workload as a closed loop of in-process CLI ops.

    python3 bench/run.py --workload tail-small --seed 1 --seconds 36 --trace 0

A single client runs ops back to back for --seconds, and for at least
MIN_OPS ops so that ten samples lie beyond the 75th percentile.  Every
op's output is checked (see workloads.py), and op 0 is rerun untimed
with one worker and must give the same bytes.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the environment, the sample counts and, with tracing, the exact counts.

--trace 0 reports the end-to-end metrics.  --trace 1 traces every other
op (spans from layers.py) and reports the per-layer metrics, taken over
the first TRACE_OPS traced ops so that their counts repeat exactly; the
spans of all traced ops are written at the end to
.bench_work/spans-<workload>.json, replacing those of the last traced run.

The package is imported from src/ next to this directory; without it the
command exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, WORKERS, CheckFailed, check_op, load_golden, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 40
TRACE_OPS = 20
SETUP_RUNS = 5
# keeps a run far inside its 180 s limit even on a much slower host
MAX_LOOP_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 40:
        p.error("--seed must lie in [0, 2**40)")
    return args


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def environment(uses_workers: bool) -> dict:
    import numpy
    import scipy

    import lsvkit

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lsvkit": lsvkit.__version__,
        "git_commit": _git_commit(),
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": WORKERS if uses_workers else None,
    }


def measure_setup(workload, seed: int, work: Path) -> list[float]:
    values = []
    for r in range(SETUP_RUNS):
        out = work / f"setup{r}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed), str(out)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        values.append(float(proc.stdout.split()[-1]))
    return values


def run_op(cli_main, calls, seed: int, out_dir: Path, root=None) -> tuple[float, list[bytes]]:
    """Run one op's calls; returns (seconds, data file bytes)."""
    out_dir.mkdir()
    argvs = [c.argv(seed, out_dir) for c in calls]
    codes = []
    start = time.perf_counter()
    for argv in argvs:
        if root is None:
            codes.append(cli_main(argv))
        else:
            with root():
                codes.append(cli_main(argv))
    seconds = time.perf_counter() - start
    try:
        if any(codes):
            raise CheckFailed(f"exit codes {codes}")
        return seconds, [(out_dir / c.out).read_bytes() for c in calls]
    finally:
        shutil.rmtree(out_dir)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lsvkit" / "cli.py").is_file():
        print(f"error: lsvkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    golden = load_golden() if args.seed == DEFAULT_SEED else None
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        return _run(args, workload, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, golden, work: Path) -> int:
    setup = measure_setup(workload, args.seed, work)

    import layers
    from lsvkit.cli import main as cli_main
    from spans import Recorder

    run_op(cli_main, workload.warmup_calls(), op_seed(args.seed, 0), work / "warmup")
    rec = Recorder() if args.trace else None

    times: list[float] = []
    traced_times: list[float] = []
    untraced_times: list[float] = []
    failures: dict[int, str] = {}
    op_bytes: dict[int, int] = {}
    first_blobs = None
    i = 0
    loop_start = time.perf_counter()
    while True:
        loop_s = time.perf_counter() - loop_start
        if (i >= MIN_OPS and loop_s >= args.seconds) or loop_s >= MAX_LOOP_S:
            break
        traced = rec is not None and i % 2 == 0
        root = None
        if traced:
            layers.install(rec)
            root = lambda op=i: rec.root(op)  # noqa: E731
        try:
            seconds, blobs = run_op(cli_main, workload.calls, op_seed(args.seed, i),
                                    work / f"op{i}", root)
            (traced_times if traced else untraced_times).append(seconds)
            times.append(seconds)
            check_op(workload, blobs, args.seed, i, golden)
            op_bytes[i] = sum(len(b) for b in blobs)
            if i == 0:
                first_blobs = blobs
        except CheckFailed as e:
            failures[i] = str(e)
        except (Exception, SystemExit):
            failures[i] = traceback.format_exc(limit=-3)
        finally:
            if traced:
                rec.restore()
        i += 1

    # determinism across worker counts: op 0 again with one worker, untimed
    if first_blobs is not None:
        calls = workload.single_worker_calls() if workload.has_workers else workload.calls
        try:
            _, blobs = run_op(cli_main, calls, op_seed(args.seed, 0), work / "rerun")
            if blobs != first_blobs:
                failures[0] = "single-worker rerun of op 0 differs"
        except (Exception, SystemExit):
            failures[0] = "single-worker rerun of op 0: " + traceback.format_exc(limit=-3)

    for op, err in sorted(failures.items()):
        print(f"op {op} failed: {err}", file=sys.stderr)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(workload.has_workers),
        "ops": i,
        "setup_s_samples": setup,
        "timed_ops": len(times),
        "op_s_samples": times,
        "failures": {str(k): v for k, v in sorted(failures.items())},
    }
    if rec is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.p75": (percentile(times, 75), "s"),
            # successful ops per second of the whole loop, checks and file handling included
            "ops_per_s": ((i - len(failures)) / loop_s, "1/s"),
            "ok_ratio": ((i - len(failures)) / i, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        counted = sorted({s.op for s in rec.spans})[:TRACE_OPS]
        counted_set = set(counted)
        spans = [s for s in rec.spans if s.op in counted_set]
        scored = sum(c.params["trials"] for c in workload.calls
                     if c.command in ("tail", "witness"))
        values = layers.layer_metrics(
            spans, scored, len(counted), sum(op_bytes.get(op, 0) for op in counted),
            statistics.median(traced_times), statistics.median(untraced_times))
        metrics = {k: (v, layers.METRIC_UNITS[k]) for k, v in values.items()}
        detail["counted_ops"] = counted
        detail["counts"] = {k: values[k] for k in layers.COUNTS}
        spans_path = WORK / f"spans-{workload.name}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json() for s in rec.spans], fh)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": i,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
