import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PAULI_X, PAULI_Y, PAULI_Z, op, random_density, random_hermitian, state

from hobs import (
    DensityMatrix,
    DimensionMismatch,
    EvaluationError,
    HermiticityViolation,
    NonFiniteInput,
    NonSquareError,
    apply_borel,
    commutator_norm,
    commutes,
    compose,
    expectation,
    parse,
    spectral_decompose,
    spectral_projector,
    trace_expectation,
    validate_hermitian,
)
from hobs.mixed import ensemble_from_density
from hobs.spectral import HermitianOperator, _cluster_means, _floor


class TestValidateHermitian:
    def test_identity_accepted_no_correction(self):
        T = validate_hermitian(np.eye(2))
        assert np.array_equal(T.entries, np.eye(2, dtype=complex))

    def test_pauli_y_accepted(self):
        T = validate_hermitian(PAULI_Y)
        assert np.array_equal(T.entries, PAULI_Y)

    def test_maximally_non_hermitian_rejected(self):
        with pytest.raises(HermiticityViolation):
            validate_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            validate_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            validate_hermitian([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(NonFiniteInput):
            DensityMatrix(entries=[[0.5, 0.0], [0.0, bad]])

    def test_rounding_skew_symmetrized(self):
        raw = PAULI_Z + np.array([[0.0, 1e-15], [-1e-15, 0.0]])
        T = validate_hermitian(raw)
        assert np.array_equal(T.entries, T.entries.conj().T)


def eigenspace_projectors(S):
    """The projector onto each eigenspace, in spectral order, via spectral_projector."""
    return [spectral_projector(S, lambda x: x == lam) for lam in S.eigenvalues]


class TestSpectralDecompose:
    def test_already_diagonal(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        assert np.array_equal(S.eigenvalues, [-1.0, 1.0])
        P0, P1 = eigenspace_projectors(S)
        np.testing.assert_allclose(P0, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(P1, np.diag([0.0, 1.0]), atol=1e-14)

    def test_identity_fully_merged(self):
        S = spectral_decompose(op(np.eye(5)))
        assert np.array_equal(S.eigenvalues, [1.0])
        np.testing.assert_allclose(eigenspace_projectors(S)[0], np.eye(5), atol=1e-12)

    def test_pauli_x_hand_decomposition(self):
        # eigenvector for -1 is (1,-1)/sqrt2, for +1 is (1,1)/sqrt2
        S = spectral_decompose(op(PAULI_X))
        np.testing.assert_allclose(S.eigenvalues, [-1.0, 1.0], atol=1e-12)
        projectors = eigenspace_projectors(S)
        np.testing.assert_allclose(projectors[0], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12)
        np.testing.assert_allclose(projectors[1], np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)
        for P in projectors:
            np.testing.assert_allclose(P @ P, P, atol=1e-12)

    def test_near_degenerate_merged(self):
        S = spectral_decompose(op(np.diag([1.0, 1.0 + 1e-12, 2.0])))
        assert len(S.eigenvalues) == 2
        assert np.trace(eigenspace_projectors(S)[0]).real == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "diagonal, eigenvalues",
        [
            ([1e-310, 1e-310], [1e-310]),
            ([1.0, 1e-310, 1e-310], [1e-310, 1.0]),
            ([1.7e308, 1.7e308], [1.7e308]),
            ([1.7e308, 1.7e308, 1.7e308], [1.7e308]),
            ([0.1, 0.1, 0.1], [0.1]),
            ([0.7, 0.7, 0.7, 0.2], [0.2, 0.7]),
        ],
        ids=[
            "subnormal-pair", "subnormal-pair-beside-one", "pair-near-largest-double",
            "triple-near-largest-double", "triple-tenth", "triple-beside-a-singleton",
        ],
    )
    def test_repeated_eigenvalue_keeps_its_bits(self, diagonal, eigenvalues):
        # a sum over the cluster over its size would round all but the subnormal pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            S = spectral_decompose(validate_hermitian(np.diag(diagonal)))
        assert S.eigenvalues.tolist() == eigenvalues

    def test_singleton_keeps_negative_zero(self):
        S = spectral_decompose(validate_hermitian(np.diag([-0.0, 1.0])))
        assert S.eigenvalues.tolist() == [0.0, 1.0] and np.signbit(S.eigenvalues[0])

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 32])
    def test_roundtrip_and_invariants(self, dim):
        rng = np.random.default_rng(dim)
        T = random_hermitian(rng, dim)
        S = spectral_decompose(T)
        scale = np.linalg.norm(T.entries)
        assert np.linalg.norm(S.operator_with_values(S.eigenvalues) - T.entries) <= 1e-10 * max(1.0, scale)
        assert np.all(np.diff(S.eigenvalues) > 0)
        total = np.zeros((dim, dim), dtype=complex)
        projectors = eigenspace_projectors(S)
        for i, P in enumerate(projectors):
            np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
            np.testing.assert_allclose(P @ P, P, atol=1e-12)
            for Q in projectors[i + 1 :]:
                assert np.linalg.norm(P @ Q) <= 1e-12
            total += P
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_FLOATS = st.sampled_from([1.7e308, -1.7e308, 1e-310, -1e-310, -0.0, 0.0, 0.1, 0.7])


def _exactly_hermitian(data, dim: int, parts) -> np.ndarray:
    """A matrix whose diagonal is real and whose lower triangle is the conjugate of its upper one."""
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        m[i, i] = data.draw(parts)
        for j in range(i + 1, dim):
            m[i, j] = complex(data.draw(parts), data.draw(parts))
            m[j, i] = m[i, j].conjugate()
    return m


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """m - (m/2 - m^dagger/2), the formula HermitianOperator starts from, written out here."""
    return m - (m / 2.0 - m.conj().T / 2.0)


class TestHermitianOperator:
    def test_any_matrix_is_stored_hermitian(self):
        T = HermitianOperator(entries=[[1, 2], [3, 4]])
        assert np.array_equal(T.entries, T.entries.conj().T)
        assert T.entries.tolist() == [[1, 2.5], [2.5, 4]]

    def test_pair_rounded_apart_is_mirrored(self):
        # 1e-13 and 1e-14 differ by more than a factor of two, so the skew half-difference rounds: the
        # formula alone leaves 5.5e-14 above the diagonal and 5.5000000000000005e-14 below it
        raw = np.array([[1.0, 1e-13], [1e-14, 1.0]], dtype=complex)
        assert _symmetrized(raw)[0, 1] == 5.5e-14 and _symmetrized(raw)[1, 0] == 5.5000000000000005e-14
        T = validate_hermitian(raw)
        assert np.array_equal(T.entries, T.entries.conj().T)
        assert T.entries[0, 1] == T.entries[1, 0] == 5.5000000000000005e-14

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_exactly_hermitian_keeps_its_bits(self, data, dim):
        m = _exactly_hermitian(data, dim, _FLOATS | _EDGE_FLOATS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            stored = HermitianOperator(entries=m).entries
        assert _bits(stored.view(float)) == _bits(m.view(float))  # subnormals, -0.0 and 1.7e308 included

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4))
    def test_skew_within_tolerance_is_made_exactly_hermitian(self, data, dim):
        m = _exactly_hermitian(data, dim, _FLOATS | _EDGE_FLOATS)
        units = st.floats(-1.0, 1.0)
        k = np.array([[complex(data.draw(units), data.draw(units)) for _ in range(dim)] for _ in range(dim)])
        # each skew entry is at most sqrt(2) * 1e-13 * max(1, max|m|), so over at most 16 entries the skew Frobenius
        # norm stays below 5.7e-13 * max(1, max|m|), within validate_hermitian's 1e-12 * max(1, ||raw||_F)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = m + 1e-13 * max(1.0, float(np.max(np.abs(m.view(float))))) * k
        if not np.all(np.isfinite(raw)):  # a perturbed entry beyond the largest double is no input
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stored = validate_hermitian(raw).entries
        expected = _symmetrized(raw)
        assert np.array_equal(stored, stored.conj().T)
        assert _bits(np.tril(stored).view(float)) == _bits(np.tril(expected).view(float))
        kept = np.triu(expected == expected.conj().T)  # pairs the formula alone leaves exactly Hermitian
        assert _bits(stored[kept].view(float)) == _bits(expected[kept].view(float))


class TestClusterMeans:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), weighted=st.booleans())
    def test_runs_of_equal_values_are_exact(self, data, weighted):
        runs = data.draw(st.lists(st.tuples(_FLOATS | _EDGE_FLOATS, st.integers(1, 6)), min_size=1, max_size=4))
        values = np.array([v for v, n in runs for _ in range(n)])
        offsets = np.cumsum([0] + [n for _, n in runs[:-1]])
        weights = None
        if weighted:
            weights = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(values), max_size=len(values))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            means, totals = _cluster_means(values, offsets, weights)
        assert _bits(means) == _bits([v for v, _ in runs])  # signed zeros included
        expected_totals = [n for _, n in runs] if weights is None else np.add.reduceat(weights, offsets)
        assert totals.tolist() == list(expected_totals)

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(-1e300, 1e300).filter(lambda x: abs(x) > 1e-290),
        steps=st.lists(st.integers(-1000, 1000), min_size=1, max_size=8),
        weights=st.lists(st.floats(1e-3, 1.0), min_size=8, max_size=8),
    )
    def test_near_equal_run_within_two_ulps_of_the_exact_mean(self, base, steps, weights):
        values = np.array([base + k * np.spacing(base) for k in steps])
        w = np.array(weights[: len(values)])
        means, _ = _cluster_means(values, np.array([0]), w)
        exact = sum(Fraction(v) * Fraction(x) for v, x in zip(values, w)) / sum(Fraction(x) for x in w)
        assert abs(Fraction(means[0]) - exact) <= 2 * Fraction(np.spacing(np.max(np.abs(values))))

    def test_singleton_keeps_its_bits(self):
        values = np.array([-0.0, 0.1, 1.7e308, 1e-310])
        means, totals = _cluster_means(values, np.arange(4))
        assert _bits(means) == _bits(values)
        assert totals.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zero_weight_run_keeps_its_first_value(self):
        values = np.array([0.25, 0.5, 0.75, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error: no division by a zero total
            means, totals = _cluster_means(values, np.array([0, 3]), np.array([0.0, 0.0, 0.0, 0.5, 0.5]))
        assert means.tolist() == [0.25, 2.5]
        assert totals.tolist() == [0.0, 1.0]


class TestSpectralProjector:
    def test_halfline_picks_negative_eigenspace(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        P = spectral_projector(S, lambda x: x <= 0.0)
        np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-14)

    def test_real_line_gives_identity(self):
        S = spectral_decompose(op(PAULI_X))
        np.testing.assert_allclose(spectral_projector(S, lambda x: True), np.eye(2), atol=1e-12)

    def test_singleton_on_pauli_x(self):
        S = spectral_decompose(op(PAULI_X))
        P = spectral_projector(S, lambda x: x == 1.0)
        np.testing.assert_allclose(P, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_empty_selection_is_zero(self):
        S = spectral_decompose(op(PAULI_X))
        assert np.array_equal(spectral_projector(S, parse("ind(5, 6)")), np.zeros((2, 2)))

    def test_additivity_over_disjoint_sets(self):
        rng = np.random.default_rng(42)
        T = random_hermitian(rng, 6)
        S = spectral_decompose(T)
        cut = float(np.median(S.eigenvalues))
        left = spectral_projector(S, lambda x: x <= cut)
        right = spectral_projector(S, lambda x: x > cut)
        np.testing.assert_allclose(left + right, spectral_projector(S, lambda x: True), atol=1e-12)
        union = spectral_projector(S, lambda x: x <= cut or x > cut)
        np.testing.assert_allclose(union, left + right, atol=1e-14)


class TestApplyBorel:
    def test_identity_function_reconstructs(self):
        rng = np.random.default_rng(1)
        T = random_hermitian(rng, 5)
        S = spectral_decompose(T)
        out = apply_borel(S, parse("x"))
        assert np.linalg.norm(out.entries - T.entries) <= 1e-12 * max(1.0, np.linalg.norm(T.entries))

    def test_square_on_pauli_spectrum(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        np.testing.assert_allclose(apply_borel(S, parse("x^2")).entries, np.eye(2), atol=1e-14)

    def test_indicator_gives_spectral_projector(self):
        # characteristic function of (-inf, 0] realized as 1 - step(just above 0)
        S = spectral_decompose(op(np.diag([-2.0, 3.0])))
        out = apply_borel(S, parse("ind(-2, 0)"))
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_undefined_value_raises(self):
        S = spectral_decompose(op(PAULI_X))
        with pytest.raises(EvaluationError):
            apply_borel(S, lambda lam: float("nan"))

    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(7)
        T = random_hermitian(rng, 6)
        S = spectral_decompose(T)
        b, c = parse("x^2 - 1"), parse("2*x + 0.5")
        direct = apply_borel(S, compose(b, c))
        staged = apply_borel(spectral_decompose(apply_borel(S, c)), b)
        scale = max(1.0, np.linalg.norm(direct.entries))
        assert np.linalg.norm(direct.entries - staged.entries) <= 1e-9 * scale


class TestExpectation:
    def test_identity_operator(self):
        assert expectation(op(np.eye(2)), state(0.3, 0.4j)) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_state_balances_diag(self):
        assert expectation(op(np.diag([-1.0, 1.0])), state(1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_pauli_x_on_basis_state(self):
        assert expectation(op(PAULI_X), state(1, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(op(np.eye(3)), state(1, 0))

    @given(
        mag=st.floats(1e-3, 1e3),
        phase=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_ray_invariance(self, mag, phase):
        z = mag * np.exp(1j * phase)
        rng = np.random.default_rng(3)
        T = random_hermitian(rng, 4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        base = expectation(T, state(*v))
        scaled = expectation(T, state(*(z * v)))
        assert scaled == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))


class TestTraceExpectation:
    def test_identity_gives_trace_of_density(self):
        D = DensityMatrix(entries=np.diag([0.2, 0.8]))
        assert trace_expectation(op(np.eye(2)), D) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_cancels(self):
        D = DensityMatrix(entries=np.eye(2) / 2)
        assert trace_expectation(op(np.diag([-1.0, 1.0])), D) == pytest.approx(0.0, abs=1e-15)

    def test_off_diagonal_product_traceless(self):
        D = DensityMatrix(entries=np.diag([0.3, 0.7]))
        assert trace_expectation(op(PAULI_X), D) == pytest.approx(0.0, abs=1e-15)

    def test_matches_eigen_ensemble_sum(self):
        # the trace must equal the weighted sum of ray expectations over
        # any eigen-ensemble of D
        rng = np.random.default_rng(11)
        T = random_hermitian(rng, 6)
        D = random_density(rng, 6)
        ens = ensemble_from_density(D)
        via_sum = sum(
            w * expectation(T, state(*ray)) for w, ray in zip(ens.weights, ens.rays)
        )
        assert trace_expectation(T, D) == pytest.approx(via_sum, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_expectation(op(np.eye(3)), DensityMatrix(entries=np.eye(2) / 2))


class TestCommutator:
    def test_self_commutes(self):
        A = op(PAULI_X)
        assert commutator_norm(A, A) == 0.0
        assert commutes(A, A)

    def test_diagonals_commute(self):
        A, B = op(np.diag([1.0, 2.0])), op(np.diag([5.0, -3.0]))
        assert commutator_norm(A, B) == 0.0
        assert commutes(A, B)

    def test_pauli_pair_frobenius_value(self):
        # XZ - ZX = [[0,-2],[2,0]], Frobenius norm 2*sqrt(2)
        value = commutator_norm(op(PAULI_X), op(PAULI_Z))
        assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)
        assert not commutes(op(PAULI_X), op(PAULI_Z))

    def test_huge_entries_do_not_overflow_into_commuting(self):
        # the Frobenius norms overflow unscaled, and inf <= inf would pass
        assert not commutes(op(np.diag([1e160, -1e160])), op(PAULI_X))
        assert commutes(op(np.diag([1e160, -1e160])), op(np.diag([1e160, 3.0])))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        scale_exponents=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        perturbation=st.floats(-14.0, -6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decision_equals_the_unscaled_inequality(self, dim, scale_exponents, perturbation, seed):
        rng = np.random.default_rng(seed)
        A = random_hermitian(rng, dim, scale=10.0 ** scale_exponents[0])
        nudge = random_hermitian(rng, dim, scale=10.0**perturbation).entries
        B = op(10.0 ** scale_exponents[1] * (A.entries @ A.entries + nudge))
        threshold = 1e-10 * max(1.0, np.linalg.norm(A.entries)) * max(1.0, np.linalg.norm(B.entries))
        assert commutes(A, B) == (commutator_norm(A, B) <= threshold)


class TestFloor:
    @given(exponent=st.integers(-1074, 1023), x=st.floats(min_value=0.0, allow_infinity=False))
    def test_floor_of_a_binary_scaled_copy_is_the_scaled_floor(self, exponent, x):
        # so a tolerance floored on a copy scaled by a power of two s is s times the one floored at 1, bit for bit
        s = math.ldexp(1.0, exponent)
        assert _floor(s * x, s) == s * max(1.0, x)


class TestDensityAndStateValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            DensityMatrix(entries=np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(entries=np.diag([1.5, -0.5]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityViolation):
            DensityMatrix(entries=[[0.5, 0.5], [0.0, 0.5]])

    def test_density_is_symmetrized_as_an_operator_is(self):
        # a skew part of Frobenius norm 7.07e-13, within tolerance: folded away by the one hermiticity rule
        raw = [[0.5, 0.1 + 0.5e-12j], [0.1 + 0.5e-12j, 0.5]]
        assert np.array_equal(DensityMatrix(entries=raw).entries, validate_hermitian(raw).entries)

    def test_density_skew_rejected_with_the_operator_message(self):
        raw = [[0.5, 0.1 + 1.5e-12j], [0.1 + 1.5e-12j, 0.5]]
        with pytest.raises(HermiticityViolation) as operator_error:
            validate_hermitian(raw)
        with pytest.raises(HermiticityViolation) as density_error:
            DensityMatrix(entries=raw)
        assert str(density_error.value) == str(operator_error.value)

    def test_density_and_operator_share_the_skew_boundary(self):
        # D + t*i*X has skew Frobenius norm t*sqrt(2) against 1e-12 * max(1, ||D||_F) = 1e-12: t = 7.07e-13 is the
        # boundary, and both checks accept below it and reject above it
        base = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        accepted = []
        for t in (0.5e-12, 0.7e-12, 0.72e-12, 1.5e-12, 1e-9):
            raw = base + np.array([[0.0, t * 1j], [t * 1j, 0.0]])
            try:
                validate_hermitian(raw)
            except HermiticityViolation:
                with pytest.raises(HermiticityViolation):
                    DensityMatrix(entries=raw)
            else:
                DensityMatrix(entries=raw)
                accepted.append(t)
        assert accepted == [0.5e-12, 0.7e-12]

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            state(0, 0)
