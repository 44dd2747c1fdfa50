"""Benchmark of the hobs CLI: one workload per run, checked against an
independent NumPy reference.

    python3 perfbench/run.py --workload trace-d128 --seed 1 --seconds 28 --trace 0

Run from the repository root.  The inputs are made from --seed here,
then worker processes are started one after another, each with one
driving thread and BLAS pinned to one thread: SETUPS - 1 that only set
up (import hobs, one warm-up operation), then one that sets up and
measures: as many whole rounds of operations as the rounds of its first
fifth say fill --seconds.  With --trace 0 the last line of output is a
JSON object with the end-to-end metrics; with --trace 1 the measuring
worker also traces the layers, and the metrics are the per-layer ones,
per operation.
Per-run results and traces are written under perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads, here and in the workers

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-up samples per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

import selftest  # noqa: E402
import workloads  # noqa: E402
from layers import COUNT_METRICS, TIME_METRICS  # noqa: E402


def _worker(args, workdir: Path, index: int, seconds: float, deadline: float) -> dict:
    result = workdir / f"worker{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--result", str(result), "--seconds", str(seconds), "--trace", str(args.trace)]
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"worker {index} exited with {proc.returncode}")
    return json.loads(result.read_text())


def _end_to_end(setups: list[float], run: dict) -> dict:
    return {
        "op_s.p50": {"value": run["op_s.p50"], "unit": "s"},
        "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def _per_layer(run: dict) -> dict:
    ops = run["trace_ops"]
    metrics = {}
    for name in TIME_METRICS:
        metrics[name] = {"value": sum(op["self_s"][name] for op in ops) / len(ops), "unit": "s"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": sum(op["counts"][name] for op in ops) / len(ops), "unit": "count"}
    traced = run["traced_op_seconds"]
    metrics["trace.op_s"] = {"value": sum(traced) / len(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(run["op_seconds"]), "unit": "s"}
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hobs" / "cli.py").is_file():
        sys.exit(f"no hobs sources under {ROOT / 'src'}; run from a checkout of the repository")
    failures = selftest.run()
    if failures:
        sys.exit("reference self-test failed: " + "; ".join(failures))

    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.make_inputs(args.workload, args.seed, workdir)
        setup_only = [] if args.trace else [_worker(args, workdir, i, 0.0, deadline) for i in range(SETUPS - 1)]
        run = _worker(args, workdir, SETUPS - 1, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workers = setup_only + [run]
    wrong = [w for worker in workers for w in worker["wrong"]]
    metrics = _per_layer(run) if args.trace else _end_to_end([w["setup_s"] for w in workers], run)
    line = {"correct": not wrong, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"result": line, "wrong": wrong, "workers": workers}, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload:>10}  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>10}  attempted {run['attempted']}, failed {run['failed']}"
          + "".join(f"\n{args.workload:>10}  failed: {f}" for f in run["failures"])
          + "".join(f"\n{args.workload:>10}  WRONG: {w}" for w in wrong))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
