"""The three workloads: their inputs, their round of hobs operations, and the
reference check each operation's output must pass.

Inputs are made from the workload seed alone, with NumPy, before any
timing starts.  A run repeats the same round of operations, so every
operation after the first round repeats an earlier seed and must
reproduce its output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# One CLI size per workload; the README explains each choice.
TRACE_DIM, TRACE_SAMPLES = 128, 2**16  # one sample block: halves the warm-up that set-up pays three times
TRACE_EXPRESSIONS = ("x^2", "clamp(-0.5, 0.5) + 2*step(0.25)")
MC_DIM, MC_SAMPLES = 4, 1_000_000
MC_EXPRESSIONS = ("clamp(-0.5, 0.5)", "min(x, 0.6) + max(x^2, 0.5)", "step(0) - 2*ind(-0.6, 0.1)", "x^3 - abs(x)")
SHIFT_SEED = 1  # the shifted-operator operation is the same in every run
NOGO_DIM, NOGO_PAIRS = 4, 8

WORKLOADS = ("trace-d128", "mc-d4", "nogo-d4")


@dataclass(frozen=True)
class Op:
    """One hobs invocation: argv after `hobs`, its output file, and its check."""

    label: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[Path], list[str]]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_spectrum(rng: np.random.Generator, spectrum: np.ndarray) -> np.ndarray:
    u = _unitary(rng, len(spectrum))
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """Eigenvalues on a grid over [-0.9, 0.9], each moved by at most a tenth of
    the grid step, so no two merge and none sits on an expression threshold."""
    grid = np.linspace(-0.9, 0.9, d)
    step = grid[1] - grid[0]
    return _with_spectrum(rng, grid + rng.uniform(-0.1, 0.1, d) * step)


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full rank, with well separated eigenvalues, so its eigen-ensemble is unique."""
    w = np.linspace(1.0, 2.0, d) + rng.uniform(-0.1, 0.1, d) / d
    return _with_spectrum(rng, w / np.sum(w))


def _write(path: Path, m: np.ndarray) -> None:
    path.write_text(json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in m]))


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input matrices into workdir."""
    rng = _rng(workload, seed)
    if workload == "trace-d128":
        _write(workdir / "T.json", _observable(rng, TRACE_DIM))
        _write(workdir / "D.json", _density(rng, TRACE_DIM))
    elif workload == "mc-d4":
        _write(workdir / "T.json", _observable(rng, MC_DIM))
        _write(workdir / "D.json", _density(rng, MC_DIM))
        _write(workdir / "T_shift.json", np.diag(1e8 + np.arange(MC_DIM)).astype(complex))
        _write(workdir / "D_flat.json", np.eye(MC_DIM, dtype=complex) / MC_DIM)
    else:
        for i in range(NOGO_PAIRS):
            _write(workdir / f"A{i}.json", _observable(rng, NOGO_DIM))
            _write(workdir / f"B{i}.json", _observable(rng, NOGO_DIM))


def _report_check(check: Callable[[dict], list[str]]) -> Callable[[Path], list[str]]:
    def run(out: Path) -> list[str]:
        return check(reference.strict_json(out.read_text()))

    return run


def _verify_op(workdir: Path, label: str, t: str, d: str, expression: str, samples: int, hobs_seed: str) -> Op:
    out = workdir / f"{label}.json"
    argv = ("verify-trace", str(workdir / t), str(workdir / d), expression, "--samples", str(samples),
            "--seed", hobs_seed, "--workers", "1", "--out", str(out))
    T, D = reference.load_matrix(workdir / t), reference.load_matrix(workdir / d)
    check = _report_check(lambda rep: reference.check_verify_report(rep, T, D, expression, samples))
    return Op(label, argv, out, check)


def round_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The round of operations a run repeats, over inputs already in workdir."""
    seeds = [str(s) for s in np.random.default_rng([len(WORKLOADS) + WORKLOADS.index(workload), seed])
             .integers(0, 2**63, size=max(len(MC_EXPRESSIONS), NOGO_PAIRS))]
    if workload == "trace-d128":
        return [_verify_op(workdir, f"verify{i}", "T.json", "D.json", e, TRACE_SAMPLES, seeds[i])
                for i, e in enumerate(TRACE_EXPRESSIONS)]
    if workload == "mc-d4":
        ops = [_verify_op(workdir, f"verify{i}", "T.json", "D.json", e, MC_SAMPLES, seeds[i])
               for i, e in enumerate(MC_EXPRESSIONS)]
        return ops + [_verify_op(workdir, "shifted", "T_shift.json", "D_flat.json", "x", MC_SAMPLES, str(SHIFT_SEED))]
    ops = []
    for i in range(NOGO_PAIRS):
        A, B = reference.load_matrix(workdir / f"A{i}.json"), reference.load_matrix(workdir / f"B{i}.json")
        out = workdir / f"nogo{i}.json"
        argv = ("nogo", str(workdir / f"A{i}.json"), str(workdir / f"B{i}.json"), "--seed", seeds[i], "--out", str(out))
        ops.append(Op(f"nogo{i}", argv, out,
                      _report_check(lambda rep, A=A, B=B: reference.check_nogo_report(rep, A, B))))
    return ops
