"""Self-test of the NumPy reference at tiny sizes, in well under a second:

    python3 perfbench/selftest.py

run.py runs it too, before any workload, so a broken reference cannot
pass hobs output it should reject.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import reference

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _verify_report(trace: float, sigma: float, samples: int) -> dict:
    return {"pass": True, "results": {
        "dimension": 3, "samples": samples, "expression": "x^2", "trace": trace, "exact_classical_mean": trace,
        "mc_mean": trace + sigma / math.sqrt(samples), "mc_std_error": sigma / math.sqrt(samples)}}


def _nogo_report(psi: np.ndarray, gap: float) -> dict:
    return {"pass": True, "results": {
        "branch": "witness", "gap": gap, "gap_threshold": 1e-6, "reconstruction_error": 0.0,
        "witness_ray": [[float(z.real), float(z.imag)] for z in psi]}}


def run() -> list[str]:
    """Every self-test that fails, by name; empty when the reference is sound."""
    failures = []
    psi = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
    gap = reference.shared_u_gap(PAULI_Z, PAULI_X, psi)
    if not gap >= 2.0 - 1e-6:
        failures.append("Pauli X/Z gap below 2 - 1e-6")
    if reference.check_nogo_report(_nogo_report(psi, gap), PAULI_Z, PAULI_X):
        failures.append("a valid Pauli witness is rejected")
    corrupt = {
        "a wrong gap": _nogo_report(psi, gap - 1e-3),
        "an unnormalized ray": _nogo_report(2.0 * psi, gap),
        "a gap under its threshold": _nogo_report(psi, 0.0),
    }
    for name, report in corrupt.items():
        if not reference.check_nogo_report(report, PAULI_Z, PAULI_X):
            failures.append(f"a witness with {name} is accepted")

    T = np.diag([1.0, 2.0, 3.0]).astype(complex)
    D = np.diag([0.2, 0.3, 0.5]).astype(complex)
    trace, sigma = reference.trace_and_sigma(T, D, reference.EXPRESSIONS["x^2"])
    if abs(trace - 5.9) > 1e-12 or abs(sigma - math.sqrt(0.2 * 1 + 0.3 * 16 + 0.5 * 81 - 5.9**2)) > 1e-12:
        failures.append("diagonal Tr[T^2 D] is not 0.2*1 + 0.3*4 + 0.5*9 = 5.9")
    samples = 10**4
    if reference.check_verify_report(_verify_report(5.9, sigma, samples), T, D, "x^2", samples):
        failures.append("a valid verify-trace report is rejected")
    corrupt = {
        "a trace off by 1e-6": _verify_report(5.9 + 1e-6, sigma, samples),
        "a zero standard error": _verify_report(5.9, 0.0, samples),
        "a failing verdict": {**_verify_report(5.9, sigma, samples), "pass": False},
    }
    for name, report in corrupt.items():
        if not reference.check_verify_report(report, T, D, "x^2", samples):
            failures.append(f"a verify-trace report with {name} is accepted")
    return failures

if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print("FAIL", problem)
    print("reference self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
