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


class TestValidateHermitian:
    def test_identity_accepted_no_correction(self):
        T = validate_hermitian(np.eye(2))
        assert T.correction == 0.0
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
        assert 0.0 < T.correction < 1e-13
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

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            state(0, 0)
