"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines as they are produced.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from helpers import (
    PAULI_X,
    PAULI_Z,
    op,
    random_density,
    random_expression_text,
    random_hermitian,
    random_projector,
)

from hobs import (
    Ensemble,
    HiddenMixedState,
    SampleStream,
    apply_borel,
    build_hidden_observable,
    commutes,
    density_from_ensemble,
    ensemble_from_density,
    exact_classical_mean,
    gamma_from_complex,
    hidden_state_measure,
    homomorphism_check,
    joint_diagonalize,
    mc_estimate,
    moments_check,
    nogo_witness,
    parse,
    proposition_from_projector,
    pushforward_ks,
    random_ray,
    spectral_support_check,
    statistical_equivalence_check,
    trace_expectation,
    validate_hermitian,
)


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}): {detail}"


def _instances(count: int, seed: int = 20240801):
    """The shared random instance family for criteria 1 and 2."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dim = int(rng.integers(2, 17))
        T = random_hermitian(rng, dim)
        D = random_density(rng, dim)
        b = parse(random_expression_text(rng, depth=4))
        out.append((T, D, b))
    return out


def test_criterion_1_central_identity_exact_path():
    started = time.perf_counter()
    worst = 0.0
    for T, D, b in _instances(200):
        f = build_hidden_observable(T)
        mu = HiddenMixedState(ensemble=ensemble_from_density(D))
        trace_value = trace_expectation(apply_borel(f.decomposition, b), D)
        mean = exact_classical_mean(f, b, mu)
        worst = max(worst, abs(trace_value - mean) / max(1.0, abs(trace_value)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed <= 10.0
    _criterion(1, "central identity, exact path", ok, f"worst rel gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_central_identity_monte_carlo():
    started = time.perf_counter()
    hits = 0
    for idx, (T, D, b) in enumerate(_instances(50)):
        f = build_hidden_observable(T)
        mu = HiddenMixedState(ensemble=ensemble_from_density(D))
        trace_value = trace_expectation(apply_borel(f.decomposition, b), D)
        est = mc_estimate(f, b, mu, SampleStream(seed=idx), 1_000_000)
        gap = abs(est.mean - trace_value)
        if est.std_error > 0.0:
            z = gap / est.std_error
        else:
            z = 0.0 if gap <= 1e-12 * max(1.0, abs(trace_value)) else math.inf
        hits += z <= 4.0
    elapsed = time.perf_counter() - started
    ok = hits >= 49 and elapsed <= 60.0
    _criterion(2, "central identity, Monte Carlo path", ok, f"{hits}/50 within 4 sigma, {elapsed:.1f}s")


def test_criterion_3_moment_theorem():
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        f = build_hidden_observable(random_hermitian(rng, dim))
        psi = random_ray(rng, dim)
        report = moments_check(f, psi, n_max=8, tol=1e-10)
        ok = ok and report.passed
        worst = max(worst, max(e / s for e, s in zip(report.errors, report.scales)))
    _criterion(3, "moment theorem to order 8", ok, f"worst scaled error {worst:.2e}")


def test_criterion_4_spectral_support_strong_form():
    rng = np.random.default_rng(4)
    f = build_hidden_observable(random_hermitian(rng, 8))
    report = spectral_support_check(f, n_rays=100, samples_per_ray=1000, rng=rng)
    ok = report.passed and report.n_evaluations == 100000
    _criterion(
        4,
        "spectral support, zero exceptions",
        ok,
        f"{report.n_evaluations} evaluations, {report.n_outside} outside",
    )


def test_criterion_5_gamma_pushforward_ks():
    # the model's defining map: u = arg(z)/2pi of standard complex Gaussian points z, a rotation-invariant law
    draws = np.random.default_rng(5).normal(size=(100000, 2))
    u = gamma_from_complex(draws[:, 0] + 1j * draws[:, 1])
    report = pushforward_ks(u)
    # independent oracle: scipy's exact one-sample KS test
    from scipy import stats

    scipy_p = stats.kstest(u, "uniform").pvalue
    ok = report.passed and report.significance == 1e-3 and scipy_p > 1e-3
    _criterion(
        5,
        "hidden parameter pushforward is uniform",
        ok,
        f"D={report.statistic:.5f} < {report.critical_value:.5f}, scipy p={scipy_p:.3f}",
    )


def test_criterion_6_density_correspondence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        E = random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        D = random_density(rng, dim)
        L = proposition_from_projector(E)
        mu = HiddenMixedState(ensemble=ensemble_from_density(D))
        gap = abs(hidden_state_measure(L, mu) - float(np.trace(E @ D.entries).real))
        worst = max(worst, gap)
    ok = worst <= 1e-10

    # two distinct mixtures with one density matrix must give equal means
    eigen = ensemble_from_density(density_from_ensemble(Ensemble(weights=np.array([0.5, 0.5]), rays=np.eye(2, dtype=complex))))
    rotated = Ensemble(
        weights=np.array([0.5, 0.5]),
        rays=np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    )
    worst_pair = 0.0
    for _ in range(20):
        T = random_hermitian(rng, 2)
        b = parse(random_expression_text(rng, depth=3))
        f = build_hidden_observable(T)
        m1 = exact_classical_mean(f, b, HiddenMixedState(ensemble=eigen))
        m2 = exact_classical_mean(f, b, HiddenMixedState(ensemble=rotated))
        worst_pair = max(worst_pair, abs(m1 - m2))
    ok = ok and worst_pair <= 1e-10
    _criterion(
        6,
        "density correspondence and mixture invariance",
        ok,
        f"worst event gap {worst:.2e}, worst mean gap {worst_pair:.2e}",
    )


def test_criterion_7_context_homomorphism():
    rng = np.random.default_rng(7)
    ok = True
    worst_op = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 13))
        base = random_hermitian(rng, dim)
        size = int(rng.integers(2, 5))
        family = []
        for _ in range(size):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            entries = sum(c * np.linalg.matrix_power(base.entries, k) for k, c in enumerate(coeffs))
            family.append(validate_hermitian(entries))
        ctx = joint_diagonalize(family)
        report = homomorphism_check(ctx, trials=8, rng=rng)
        ok = ok and report.passed and report.max_operator_error <= 1e-8
        ok = ok and report.max_additive_deviation == 0.0 and report.max_multiplicative_deviation == 0.0
        worst_op = max(worst_op, report.max_operator_error)
    _criterion(7, "context homomorphism over 50 families", ok, f"worst operator error {worst_op:.2e}")


def test_criterion_8_nogo_witness():
    report = nogo_witness(op(PAULI_Z), op(PAULI_X), search=4096, rng=np.random.default_rng(8))
    ok = report.branch == "witness" and report.gap >= 2.0 - 1e-6

    rng = np.random.default_rng(88)
    found = 0
    tried = 0
    while tried < 20:
        dim = 2 if tried < 10 else 3
        A = random_hermitian(rng, dim)
        B = random_hermitian(rng, dim)
        if commutes(A, B):
            continue
        tried += 1
        pair_report = nogo_witness(A, B, search=512, rng=rng)
        found += pair_report.branch == "witness" and pair_report.gap > pair_report.gap_threshold
    ok = ok and found == 20
    _criterion(
        8,
        "second-moment witnesses for non-commuting pairs",
        ok,
        f"pauli gap {report.gap:.12f}, {found}/20 random pairs certified",
    )


def test_criterion_9_statistical_equivalence_across_decompositions():
    # T's observable from its own decomposition, and T's member of its one-member context, whose eigenspaces come
    # from refining a mean-removed, binary-scaled copy of T
    rng = np.random.default_rng(9)
    T = random_hermitian(rng, 6)
    f1 = build_hidden_observable(T)
    f2 = joint_diagonalize([T]).members[0]
    rays = [random_ray(rng, 6) for _ in range(50)]
    report = statistical_equivalence_check(f1, f2, rays, weight_tol=1e-12)
    _criterion(
        9,
        "statistical equivalence across decompositions",
        report.passed,
        f"max weight error {report.max_weight_error:.2e} over {report.n_rays} rays",
    )


def _run_cli(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "hobs", *args],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    t_path = tmp_path / "T.json"
    d_path = tmp_path / "D.json"
    t_path.write_text(json.dumps([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    d_path.write_text(json.dumps([[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]))

    sample_args = ["sample", str(d_path), "--samples", "100000", "--seed", "77"]
    s1 = _run_cli(sample_args + ["--workers", "1"])
    s2 = _run_cli(sample_args + ["--workers", "1"])
    s4 = _run_cli(sample_args + ["--workers", "4"])
    verify_args = ["verify-trace", str(t_path), str(d_path), "x^2 - x", "--samples", "200000", "--seed", "77"]
    v1 = _run_cli(verify_args + ["--workers", "1"])
    v2 = _run_cli(verify_args + ["--workers", "1"])
    v4 = _run_cli(verify_args + ["--workers", "4"])
    ok = s1 == s2 == s4 and v1 == v2 == v4
    _criterion(10, "byte-identical CLI output across runs and workers", ok, f"{len(s1)} + {len(v1)} bytes compared")
