"""Independent NumPy reference for the benchmark's correctness checks.

Nothing here imports hobs.  Every figure a check compares against is
computed from the input matrices with `numpy.linalg.eigh`:

* ``Tr[b(T) D] = sum_i b(lambda_i) w_i`` with ``w_i = <v_i|D|v_i> = Tr[P_i D]``,
  which is also the law of ``b(f)`` under the eigen-ensemble of ``D``, so
  its standard deviation bounds the Monte Carlo mean and standard error;
* the shared-u second-moment gap of ``f_A + f_B`` on one ray, from the
  two step profiles.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Every expression the workloads pass to hobs, written again as NumPy.
EXPRESSIONS = {
    "x": lambda x: x,
    "x^2": lambda x: x * x,
    "x^3 - abs(x)": lambda x: x * x * x - np.abs(x),
    "clamp(-0.5, 0.5)": lambda x: np.clip(x, -0.5, 0.5),
    "clamp(-0.5, 0.5) + 2*step(0.25)": lambda x: np.clip(x, -0.5, 0.5) + 2.0 * (x >= 0.25),
    "min(x, 0.6) + max(x^2, 0.5)": lambda x: np.minimum(x, 0.6) + np.maximum(x * x, 0.5),
    "step(0) - 2*ind(-0.6, 0.1)": lambda x: 1.0 * (x >= 0.0) - 2.0 * ((x >= -0.6) & (x <= 0.1)),
}


def load_matrix(path) -> np.ndarray:
    """A matrix or vector file of [re, im] pairs as a complex array."""
    arr = np.asarray(json.loads(Path(path).read_text()), dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def spectral_law(T: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of T and the weights Tr[P_i D] that f takes them with under mu."""
    lam, V = np.linalg.eigh(T)
    w = np.einsum("ai,ab,bi->i", V.conj(), D, V).real
    return lam, w


def trace_and_sigma(T: np.ndarray, D: np.ndarray, b) -> tuple[float, float]:
    """Tr[b(T) D] and the standard deviation of b(f) under mu."""
    lam, w = spectral_law(T, D)
    vals = np.asarray(b(lam), dtype=float)
    mean = float(w @ vals)
    return mean, math.sqrt(max(0.0, float(w @ (vals - mean) ** 2)))


def check_verify_report(report: dict, T: np.ndarray, D: np.ndarray, expression: str, samples: int) -> list[str]:
    """A passing verify-trace report agrees with the reference trace and law."""
    problems = []
    b = EXPRESSIONS[expression]
    exact, sigma = trace_and_sigma(T, D, b)
    scale = max(1.0, float(np.max(np.abs(b(np.linalg.eigvalsh(T))))))
    r = report["results"]
    if report["pass"] is not True:
        problems.append("report does not pass")
    if (r["dimension"], r["samples"], r["expression"]) != (T.shape[0], samples, expression):
        problems.append("report echoes the wrong dimension, sample count or expression")
    for key in ("trace", "exact_classical_mean"):
        if abs(r[key] - exact) > 1e-9 * scale:
            problems.append(f"{key} {r[key]!r} differs from reference {exact!r}")
    se = sigma / math.sqrt(samples)
    if abs(r["mc_mean"] - exact) > 5.0 * se:
        problems.append(f"mc_mean {r['mc_mean']!r} is more than 5 sigma/sqrt(n) from {exact!r}")
    if abs(r["mc_std_error"] - se) > 0.1 * se:
        problems.append(f"mc_std_error {r['mc_std_error']!r} is not within 10% of {se!r}")
    return problems


def _step_profile(T: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right edges and values of the quantile step function of T on the line of psi."""
    lam, V = np.linalg.eigh(T)
    p = np.abs(V.conj().T @ psi) ** 2 / np.vdot(psi, psi).real
    right = np.minimum(np.cumsum(p), 1.0)
    right[-1] = 1.0
    return right, lam


def shared_u_gap(A: np.ndarray, B: np.ndarray, psi: np.ndarray) -> float:
    """|integral over u of (f_A + f_B)^2 - <(A+B)^2>_psi| with u shared by both."""
    ra, la = _step_profile(A, psi)
    rb, lb = _step_profile(B, psi)
    edges = np.unique(np.concatenate(([0.0], ra, rb)))
    mid = (edges[:-1] + edges[1:]) / 2.0
    fa = la[np.minimum(np.searchsorted(ra, mid), len(la) - 1)]
    fb = lb[np.minimum(np.searchsorted(rb, mid), len(lb) - 1)]
    second = float(np.dot(np.diff(edges), (fa + fb) ** 2))
    S = A + B
    expected = np.vdot(psi, S @ (S @ psi)).real / np.vdot(psi, psi).real
    return abs(second - expected)


def check_nogo_report(report: dict, A: np.ndarray, B: np.ndarray) -> list[str]:
    """A witness report whose gap the reference recomputes at the witness ray."""
    problems = []
    r = report["results"]
    if report["pass"] is not True or r["branch"] != "witness":
        return ["no witness reported"]
    if not r["gap"] > r["gap_threshold"]:
        problems.append("gap does not exceed its threshold")
    psi = np.array([re + 1j * im for re, im in r["witness_ray"]])
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        problems.append("witness ray is not normalized")
    scale = max(1.0, float(np.linalg.norm(A, 2) + np.linalg.norm(B, 2)) ** 2)
    gap = shared_u_gap(A, B, psi)
    if abs(gap - r["gap"]) > 1e-8 * scale:
        problems.append(f"gap {r['gap']!r} differs from the reference {gap!r} at the witness ray")
    if r["reconstruction_error"] > 1e-8 * max(1.0, float(np.linalg.norm(A + B))):
        problems.append("first moments do not reconstruct A + B")
    return problems
