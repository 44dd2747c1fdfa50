"""Time the stages the ROADMAP baseline quotes, with the benchmark's inputs:

    python3 perfbench/stages.py

* `exact_classical_mean` and `mc_estimate` (10^6 samples) at d=128,
  with the trace-d128 observable and full-rank density for seed 0;
* `dump_samples_csv` per 10^6 rows, on a d=8 observable and full-rank
  density made like the workloads' inputs;
* `hobs nogo` on the Pauli Z/X pair, through the CLI as the workloads run it.

Takes about a minute.  Prints one line per stage: the median of its
repeats and every repeat.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import worker  # noqa: E402  (puts the checkout's src/ first on sys.path)
import numpy as np  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
import hobs.mixed as mixed  # noqa: E402
from hobs.expr import parse  # noqa: E402
from hobs.kernel import GammaModel, build_hidden_observable  # noqa: E402
from hobs.spectral import DensityMatrix, validate_hermitian  # noqa: E402


def _timed(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _report(name: str, times: list[float], per: float = 1.0) -> None:
    scaled = [t / per for t in times]
    print(f"{name:<44} {statistics.median(scaled):9.4f} s   ({', '.join(f'{t:.4f}' for t in scaled)})")


def main() -> None:
    gamma = GammaModel.uniform()
    rng = workloads._rng("trace-d128", 0)
    f = build_hidden_observable(validate_hermitian(workloads._observable(rng, 128)), gamma)
    mu = mixed.HiddenMixedState(
        ensemble=mixed.ensemble_from_density(DensityMatrix(entries=workloads._density(rng, 128))), gamma=gamma)
    b = parse("x^2")
    _report("exact_classical_mean, d=128", _timed(lambda: mixed.exact_classical_mean(f, b, mu), 3))
    _report("mc_estimate, 10^6 samples, d=128",
            _timed(lambda: mixed.mc_estimate(f, b, mu, mixed.SampleStream(seed=1), 10**6), 1))

    rng = np.random.default_rng(0)
    f8 = build_hidden_observable(validate_hermitian(workloads._observable(rng, 8)), gamma)
    mu8 = mixed.HiddenMixedState(
        ensemble=mixed.ensemble_from_density(DensityMatrix(entries=workloads._density(rng, 8))), gamma=gamma)
    _report("dump_samples_csv, per 10^6 rows, d=8",
            _timed(lambda: mixed.dump_samples_csv(f8, mu8, mixed.SampleStream(seed=1), 10**6, io.StringIO()), 2))

    workdir = worker.ROOT / "perfbench" / "work" / f"stages-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads._write(workdir / "Z.json", np.diag([1.0, -1.0]).astype(complex))
        workloads._write(workdir / "X.json", np.array([[0, 1], [1, 0]], dtype=complex))
        A, B = reference.load_matrix(workdir / "Z.json"), reference.load_matrix(workdir / "X.json")

        def pauli_check(out):
            report = reference.strict_json(out.read_text())
            problems = reference.check_nogo_report(report, A, B)
            return problems + ([] if report["results"]["gap"] >= 2.0 - 1e-6 else ["Pauli gap below 2 - 1e-6"])

        op = workloads.Op("pauli", ("nogo", str(workdir / "Z.json"), str(workdir / "X.json"),
                                    "--out", str(workdir / "pauli.json")), workdir / "pauli.json", pauli_check)
        outcomes = [worker.run_op(op, {}) for _ in range(3)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _report("hobs nogo, Pauli Z/X pair, CLI", [o.seconds for o in outcomes])
    failures = [o.failure for o in outcomes if o.failure]
    if failures:
        sys.exit("Pauli nogo failed its check: " + failures[0])


if __name__ == "__main__":
    main()
