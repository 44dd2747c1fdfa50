"""One workload process: import hobs, run a warm-up operation, then (in the
measuring role) repeat whole rounds of operations for the run's seconds.

Started by run.py, one process at a time; writes its result as JSON to
the file named by --result.  Every operation goes through the `hobs`
click entry point in this process, on input files, with --workers 1.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from before hobs and NumPy load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hobs.cli  # noqa: E402

IMPORT_S = time.perf_counter() - START

import workloads  # noqa: E402


@dataclass(frozen=True)
class Outcome:
    """What one operation did: its wall time, and whether it failed or was wrong."""

    seconds: float
    failure: str | None
    wrong: bool


def run_op(op: workloads.Op, digests: dict, tracer=None) -> Outcome:
    """Invoke hobs on op.argv, time argv to output file written, then check the output.

    A non-zero exit is a failure hobs owns up to.  An output that exits 0
    but fails its reference check, is not strict JSON, or differs from an
    earlier run of the same operation is a failure and a wrong answer.
    """
    op.out.unlink(missing_ok=True)
    if tracer:
        tracer.begin()
    start = time.perf_counter()
    try:
        hobs.cli.cli.main(args=list(op.argv), prog_name="hobs", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash inside hobs fails this operation, not the run
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer:
        tracer.end(seconds, op.label)
    if code != 0:
        return Outcome(seconds, f"exit {code}", wrong=False)
    digest = hashlib.sha256(op.out.read_bytes()).hexdigest()
    if digests.setdefault(op.label, digest) != digest:
        return Outcome(seconds, "output differs from an earlier run of the same seed", wrong=True)
    try:
        problems = op.check(op.out)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc}"]
    return Outcome(seconds, "; ".join(problems) or None, wrong=bool(problems))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="0: set up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(hobs.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"hobs was imported from {hobs.cli.__file__}, not from this checkout")

    ops = workloads.round_ops(args.workload, args.seed, args.workdir)
    digests: dict[str, str] = {}
    warm = run_op(ops[0], digests)
    result = {"setup_s": IMPORT_S + warm.seconds, "wrong": [f"warm-up: {warm.failure}"] if warm.wrong else []}
    if args.seconds > 0:
        run = measure(ops, digests, args.seconds, args.trace)
        result = {**run, "setup_s": result["setup_s"], "wrong": result["wrong"] + run["wrong"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    args.result.write_text(json.dumps(result))


def measure(ops, digests, seconds, trace) -> dict:
    """Run whole rounds of the operations for about `seconds`.

    The rounds of the first fifth of the seconds, operations and checks
    together, set how many rounds fill them.  A count fixed then, rather
    than a deadline, keeps a run from gaining or losing a round when the
    machine speeds up or slows down near the end.  With tracing on, rounds
    alternate untraced and traced, starting untraced, and there are at
    least two; the untraced rounds give the tracing overhead.  The
    throughput is the median over untraced rounds of the operations that
    did not fail per second of operation time, so a stretch where the
    machine stalls moves it no more than it moves the median operation
    time.
    """
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
    plain, traced, failures, wrong, throughputs = [], [], [], [], []
    rounds, r, sized, start = 1 + trace, 0, False, time.perf_counter()
    while r < rounds or not sized:
        tracing = tracer if r % 2 == 1 else None
        if tracing:
            tracing.install()
        round_s, round_ok = 0.0, 0
        try:
            for op in ops:
                outcome = run_op(op, digests, tracing)
                (traced if tracing else plain).append(outcome.seconds)
                round_s += outcome.seconds
                round_ok += not outcome.failure
                if outcome.failure:
                    failures.append(f"{op.label}: {outcome.failure}")
                if outcome.wrong:
                    wrong.append(f"{op.label}: {outcome.failure}")
        finally:
            if tracing:
                tracing.uninstall()
        if not tracing:
            throughputs.append(round_ok / round_s)
        r += 1
        elapsed = time.perf_counter() - start
        if not sized and elapsed >= seconds / 5:
            rounds, sized = max(rounds, r, round(seconds * r / elapsed)), True
    times = plain + traced
    return {
        "rounds": rounds,
        "op_seconds": plain,
        "traced_op_seconds": traced,
        "attempted": len(times),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "wrong": wrong,
        "op_s.p50": statistics.median(times),
        "ops_per_s": statistics.median(throughputs),
        "round_ops_per_s": throughputs,
        "trace_ops": tracer.ops if tracer else [],
    }


if __name__ == "__main__":
    main()
