import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    PAULI_X,
    PAULI_Z,
    op,
    random_hermitian,
    random_projector,
    random_unit,
    riemann_line_mean,
    state,
)

from hobs import (
    DimensionMismatch,
    StateVector,
    GammaModel,
    HiddenObservable,
    HiddenPoint,
    NonQuadraticFirstMoment,
    NotAProjector,
    SharedParameterSum,
    ZeroInput,
    apply_borel,
    build_hidden_observable,
    cdf,
    draw_u,
    expectation,
    gamma_from_complex,
    line_integral_exact,
    line_mean,
    line_weights,
    moments_check,
    orthodoxy_reconstruct,
    orthodoxy_second_moment_gap,
    parse,
    proposition_from_projector,
    pushforward_ks,
    quantile,
    random_ray,
    spectral_decompose,
    spectral_support_check,
    statistical_equivalence_check,
    validate_hermitian,
)
from hobs.kernel import (
    WITNESS_BLOCK,
    _bulk_line_weights,
    _cumulative,
    _piece_index,
    _padded,
    _pooled_law,
    _row_search_into,
    u_from_words,
)


def comonotone_law(parts, psi, combine=np.add):
    """Test-local merged-edge law of parts fed by one shared u.

    Each part's value on the pieces cut by all positive-weight cumulative
    edges, combined pointwise; the weights are the gaps between edges.
    """
    laws = [(v[w > 0.0], _cumulative(w)[w > 0.0]) for v, w in (p.line_distribution(psi) for p in parts)]
    edges = np.unique(np.concatenate([c for _, c in laws]))
    values = functools.reduce(combine, [v[_piece_index(c, edges)] for v, c in laws])
    return values, np.diff(np.concatenate(([0.0], edges)))


def law_mean(parts, psi, transform=None, combine=np.add):
    """Per-line mean of the comonotone law, of its values or of transform(values)."""
    values, weights = comonotone_law(parts, psi, combine)
    return float(np.dot(weights, values if transform is None else transform(values)))


class SharedParameterProduct:
    """Test-local pointwise product on a shared hidden point.

    Products of observable functions generally fall outside the
    orthodox class; this drives the NonQuadraticFirstMoment path.
    """

    def __init__(self, *parts):
        self.parts = parts

    @property
    def dim(self):
        return self.parts[0].dim

    def evaluate(self, point):
        out = 1.0
        for p in self.parts:
            out *= p.evaluate(point)
        return out

    def line_means(self, rays):
        return np.array([law_mean(self.parts, StateVector(components=r), combine=np.multiply) for r in rays])


class TestGammaModel:
    def test_arg_of_minus_one_is_half(self):
        assert gamma_from_complex(complex(math.cos(math.pi), math.sin(math.pi))) == pytest.approx(0.5, abs=1e-15)

    def test_arg_of_i_is_quarter(self):
        assert gamma_from_complex(1j) == pytest.approx(0.25, abs=1e-16)

    def test_arg_of_minus_i_wraps_to_three_quarters(self):
        assert gamma_from_complex(-1j) == pytest.approx(0.75, abs=1e-16)

    def test_positive_real_axis_remapped_interior(self):
        u = gamma_from_complex(1.0)
        assert 0.0 < u < 1e-300

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            gamma_from_complex(0.0)

    def test_scalar_map_is_the_array_map(self):
        # one u map: a point gets the same bits mapped alone as inside a sampled block
        rng = np.random.default_rng(31)
        z = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * 10.0 ** rng.uniform(-300, 300, size=4000)
        axes = np.array([1.0, 5e-324, 1e308])
        z = np.concatenate([z, axes, -axes, np.conj(-axes), 1j * axes, -1j * axes])
        scalar = np.array([gamma_from_complex(point) for point in z])
        assert np.array_equal(scalar, gamma_from_complex(z))

    def test_words_map_into_open_interval(self):
        w = np.concatenate([np.linspace(0.0, 1.0, 1001, endpoint=False), [np.nextafter(1.0, 0.0)]])
        u = u_from_words(w)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_zero_word_maps_to_smallest_positive_double(self):
        assert u_from_words(np.zeros(3)).tolist() == [5e-324] * 3

    def test_other_words_pass_through(self):
        w = np.array([5e-324, 1e-300, 0.25, 0.875, np.nextafter(1.0, 0.0)])
        out = np.empty(5)
        assert u_from_words(w, out=out) is out and np.array_equal(out, w)

    def test_pushforward_is_uniform(self):
        report = pushforward_ks(draw_u(np.random.default_rng(17), 100000))
        assert report.passed, f"KS statistic {report.statistic} >= {report.critical_value}"

    def test_uniform_is_the_only_model(self):
        # the model has no field left to choose between laws, so every instance is the uniform one
        assert dataclasses.fields(GammaModel) == ()
        assert GammaModel.uniform() == GammaModel()
        with pytest.raises(TypeError):
            GammaModel(kind="arg")

    def test_quarter_turn_adds_a_quarter(self):
        # rotation invariance of the defining map: multiplying by i (exact in floating point) moves u by 1/4 mod 1
        rng = np.random.default_rng(41)
        z = rng.normal(size=20000) + 1j * rng.normal(size=20000)
        shift = gamma_from_complex(1j * z) - gamma_from_complex(z)
        distance = np.abs((shift - 0.25 + 0.5) % 1.0 - 0.5)
        assert distance.max() < 1e-15

    def test_map_lands_in_open_interval_at_every_scale(self):
        rng = np.random.default_rng(43)
        z = (rng.normal(size=20000) + 1j * rng.normal(size=20000)) * 10.0 ** rng.uniform(-300, 300, size=20000)
        u = gamma_from_complex(z)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_ks_statistic_is_scipy_s(self):
        from scipy import stats

        u = draw_u(np.random.default_rng(19), 20000)
        report = pushforward_ks(u)
        assert report.n_samples == 20000 and report.significance == 1e-3
        assert report.statistic == pytest.approx(stats.kstest(u, "uniform").statistic, abs=1e-15)
        assert report.critical_value == pytest.approx(math.sqrt(-0.5 * math.log(0.5e-3)) / math.sqrt(20000), rel=1e-15)

    def test_ks_rejects_a_skewed_law(self):
        # u^2 has cdf sqrt(x): D = 1/4 at x = 1/4, far above the 1e-3 critical value at n = 10^5
        report = pushforward_ks(draw_u(np.random.default_rng(23), 100000) ** 2)
        assert not report.passed
        assert report.statistic == pytest.approx(0.25, abs=0.01)


class TestHiddenPoint:
    def test_normalizes_ray(self):
        p = HiddenPoint(ray=state(3, 4), u=0.5)
        assert np.linalg.norm(p.ray.components) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("magnitude", [1e200, 1e-170])
    def test_extreme_ray_normalizes_to_the_unit_ray(self, magnitude):
        # the ray is binary-scaled before its norm, whose square would overflow or underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = HiddenPoint(ray=state(magnitude, magnitude), u=0.5)
        np.testing.assert_allclose(p.ray.components, [math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
    def test_parameter_must_be_interior(self, u):
        with pytest.raises(ValueError):
            HiddenPoint(ray=state(1, 0), u=u)


class TestCdf:
    def test_equal_weights_at_zero(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        assert cdf(S, state(1, 1), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_below_spectrum_is_zero(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        assert cdf(S, state(1, 1), -2.0) == 0.0

    def test_at_top_is_one(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        assert cdf(S, state(1, 1), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_pauli_x_weight_from_hand_eigenvector(self):
        # weight of eigenvalue -1 on (1,0) is |<(1,-1)/sqrt2, (1,0)>|^2 = 1/2
        S = spectral_decompose(op(PAULI_X))
        w, v = np.linalg.eigh(PAULI_X)  # independent eigensolver route
        expected = abs(np.vdot(v[:, 0], np.array([1.0, 0.0]))) ** 2
        assert cdf(S, state(1, 0), -1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5, abs=1e-12)


class TestQuantile:
    def test_jump_tie_selects_lower(self):
        S = spectral_decompose(op(np.diag([-1.0, 1.0])))
        psi = state(1, 1)
        assert quantile(S, psi, 0.3) == -1.0
        assert quantile(S, psi, 0.5) == -1.0  # inf with >= at the jump
        assert quantile(S, psi, 0.7) == 1.0

    def test_identity_operator_constant(self):
        S = spectral_decompose(op(np.eye(3)))
        for u in (0.001, 0.5, 0.999):
            assert quantile(S, state(1, 2j, -1), u) == 1.0

    def test_zero_weight_eigenvalue_skipped(self):
        S = spectral_decompose(op(np.diag([0.0, 5.0])))
        for u in (0.001, 0.5, 0.999):
            assert quantile(S, state(0, 1), u) == 5.0

    def test_u_out_of_range(self):
        S = spectral_decompose(op(np.eye(2)))
        with pytest.raises(ValueError):
            quantile(S, state(1, 0), 0.0)

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_u(self, u1, u2):
        rng = np.random.default_rng(5)
        T = random_hermitian(rng, 5)
        S = spectral_decompose(T)
        psi = state(*random_unit(rng, 5))
        lo, hi = sorted((u1, u2))
        assert quantile(S, psi, lo) <= quantile(S, psi, hi)


@st.composite
def edge_rows(draw):
    """(K, m) cumulative-weight rows with ties and leading and trailing zero-weight pieces, and points to look up."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.choice([0.0, 0.25, 0.5, rng.random()], size=(k, m)) * rng.integers(0, 2, size=(k, m))
    positive = draw(st.integers(0, m - 1))
    weights[:, : draw(st.integers(0, positive))] = 0.0
    weights[:, m - draw(st.integers(0, m - 1 - positive)) :] = 0.0
    weights[:, positive] += 1.0
    edges = _cumulative(weights / weights.sum(axis=1, keepdims=True))
    n = draw(st.integers(1, 40))
    x = np.where(rng.random(n) < 0.5, rng.choice(edges.ravel(), size=n), rng.random(n))
    x[rng.random(n) < 0.1] = 0.0
    return edges, x, rng.integers(0, k, size=n)


def stale_scratch(n):
    """out and the intp, float and bool search scratch of n points, holding an earlier block's values."""
    return np.full(n, -7, dtype=np.intp), [np.full(n, -7, dtype=np.intp), np.full(n, np.nan), np.ones(n, dtype=bool)]


class TestRowSearch:
    @given(edge_rows(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_clipped_searchsorted(self, case, right):
        edges, x, rows = case
        side = "right" if right else "left"
        m = edges.shape[1]
        expected = [min(np.searchsorted(edges[r], xi, side), m - 1) for r, xi in zip(rows, x)]
        # the search of sample blocks, into arrays holding an earlier block's values
        out, scratch = stale_scratch(x.size)
        assert np.array_equal(_row_search_into(_padded(edges), x, rows, out, scratch, right), expected)
        row = edges[rows[0]]  # a single 1-D row
        out, scratch = stale_scratch(x.size)
        assert np.array_equal(_row_search_into(_padded(row), x, None, out, scratch, right),
                              np.minimum(np.searchsorted(row, x, side), m - 1))
        # _piece_index, the left search of one row, keeps the shape of its points: scalar and 0-d points give 0-d
        assert np.array_equal(_piece_index(row, x), np.minimum(np.searchsorted(row, x), m - 1))
        for point in (x[0], np.asarray(x[0])):
            found = _piece_index(row, point)
            assert np.ndim(found) == 0 and found == min(np.searchsorted(row, x[0]), m - 1)

    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    def test_one_row_first_pass_and_width_one(self, right):
        # m edges search m - 1 padded to widths 1 (m = 1: no pass) to 128; a one-row search compares its points
        # with one edge on the first pass; the points sit on, just below and just above every edge
        side = "right" if right else "left"
        for m in range(1, 129):
            rng = np.random.default_rng(m)
            weights = rng.choice([0.0, 0.25, 1.0], size=m)
            weights[rng.integers(m)] = 1.0
            row = _cumulative(weights / weights.sum())
            x = np.concatenate(([0.0], row, np.nextafter(row, 0.0), np.nextafter(row, 1.0), rng.random(20)))
            x = np.minimum(x, np.nextafter(1.0, 0.0))
            expected = np.minimum(np.searchsorted(row, x, side), m - 1)
            assert _padded(row)[1] == 1 << (m - 1).bit_length()
            out, scratch = stale_scratch(x.size)
            assert np.array_equal(_row_search_into(_padded(row), x, None, out, scratch, right), expected), m
            # the row stacked twice and searched by rows: a gathered first pass
            out, scratch = stale_scratch(x.size)
            rows = rng.integers(0, 2, size=x.size)
            assert np.array_equal(_row_search_into(_padded(np.stack([row, row])), x, rows, out, scratch, right),
                                  expected), m

    def test_piece_index_tie_rule_on_a_stack(self):
        cumulative = np.array([[0.0, 0.5, 0.5, 1.0], [0.25, 0.25, 1.0, 1.0]])
        u = np.array([0.0, 0.5, 0.5000000000000001, 0.25, 0.3, 1.0])
        rows = np.array([0, 0, 0, 1, 1, 1])
        out, scratch = stale_scratch(6)
        assert _row_search_into(_padded(cumulative), u, rows, out, scratch).tolist() == [0, 1, 3, 0, 2, 2]
        assert [_piece_index(cumulative[r], ui) for r, ui in zip(rows, u)] == [0, 1, 3, 0, 2, 2]
        for r in (0, 1):  # each row alone: the first pass compares with its one edge
            out, scratch = stale_scratch(3)
            expected = [0, 1, 3] if r == 0 else [0, 2, 2]
            assert _row_search_into(_padded(cumulative[r]), u[rows == r], None, out, scratch).tolist() == expected


class TestHiddenObservable:
    def test_eigenstate_is_constant(self):
        f = build_hidden_observable(op(np.diag([1.0, 0.0])))
        for u in (0.01, 0.5, 0.99):
            assert f.evaluate(HiddenPoint(ray=state(1, 0), u=u)) == 1.0

    def test_balanced_diagonal_threshold(self):
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])))
        psi = state(1, 1)
        assert f.evaluate(HiddenPoint(ray=psi, u=0.5)) == -1.0
        assert f.evaluate(HiddenPoint(ray=psi, u=0.5000001)) == 1.0

    def test_pauli_x_threshold_from_cdf_oracle(self):
        f = build_hidden_observable(op(PAULI_X))
        psi = state(1, 0)
        c = cdf(f.decomposition, psi, -1.0)
        assert f.evaluate(HiddenPoint(ray=psi, u=c)) == f.decomposition.eigenvalues[0]
        assert f.evaluate(HiddenPoint(ray=psi, u=c + 1e-12)) == f.decomposition.eigenvalues[1]

    def test_dimension_mismatch(self):
        f = build_hidden_observable(op(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            f.evaluate(HiddenPoint(ray=state(1, 0), u=0.5))

    def test_value_table_needs_one_entry_per_piece(self):
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])))
        with pytest.raises(DimensionMismatch):
            HiddenObservable(operator=f.operator, decomposition=f.decomposition, values=[1.0])

    def test_values_stay_in_spectrum(self):
        rng = np.random.default_rng(23)
        f = build_hidden_observable(random_hermitian(rng, 8))
        report = spectral_support_check(f, n_rays=50, samples_per_ray=200, rng=rng)
        assert report.passed and report.n_evaluations == 10000

    def test_ray_invariance_of_evaluate(self):
        rng = np.random.default_rng(29)
        f = build_hidden_observable(random_hermitian(rng, 4))
        v = random_unit(rng, 4)
        for z in (2.0, -0.5 + 0.25j, 1j):
            for u in rng.random(10) * 0.98 + 0.01:
                a = f.evaluate(HiddenPoint(ray=state(*v), u=float(u)))
                b = f.evaluate(HiddenPoint(ray=state(*(z * v)), u=float(u)))
                assert a == b

    def test_line_distribution_partitions_unit_interval(self):
        rng = np.random.default_rng(31)
        f = build_hidden_observable(random_hermitian(rng, 6))
        values, weights = f.line_distribution(state(*random_unit(rng, 6)))
        assert np.array_equal(values, f.values)
        assert np.all(weights >= 0.0)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)


class TestLineIntegral:
    def test_symmetric_identity_function(self):
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])))
        assert line_integral_exact(f, parse("x"), state(1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_square_of_sign_spectrum(self):
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])))
        assert line_integral_exact(f, parse("x^2"), state(1, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_pauli_x_mean_hand_value(self):
        # <X psi, psi>/||psi||^2 at psi=(2,1): 2*Re(2*conj(1))/5 = 4/5
        f = build_hidden_observable(op(PAULI_X))
        assert line_integral_exact(f, parse("x"), state(2, 1)) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_functional_calculus_expectation(self, seed):
        rng = np.random.default_rng(seed)
        T = random_hermitian(rng, 6)
        f = build_hidden_observable(T)
        psi = state(*random_unit(rng, 6))
        b = parse("min(x^2, 2) - abs(x)")
        lhs = line_integral_exact(f, b, psi)
        rhs = expectation(apply_borel(f.decomposition, b), psi)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_riemann_grid_oracle(self):
        rng = np.random.default_rng(77)
        T = random_hermitian(rng, 4)
        f = build_hidden_observable(T)
        psi = state(*random_unit(rng, 4))
        exact = line_integral_exact(f, parse("x"), psi)
        grid = riemann_line_mean(f, psi, n=20001)
        assert exact == pytest.approx(grid, abs=2e-3)

    def test_line_mean_agrees_with_line_integral(self):
        rng = np.random.default_rng(13)
        f = build_hidden_observable(random_hermitian(rng, 5))
        psi = state(*random_unit(rng, 5))
        assert line_mean(f, psi) == pytest.approx(line_integral_exact(f, parse("x"), psi), abs=1e-14)


class TestMoments:
    def test_identity_operator_all_zero_error(self):
        f = build_hidden_observable(op(np.eye(3)))
        report = moments_check(f, state(1, 1j, -2), n_max=5, tol=1e-12)
        assert report.passed
        assert all(e == pytest.approx(0.0, abs=1e-14) for e in report.errors)

    def test_sign_spectrum_second_moment(self):
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])))
        report = moments_check(f, state(1, 1), n_max=2, tol=1e-12)
        assert report.line_moments[2] == pytest.approx(1.0, abs=1e-15)
        assert report.operator_moments[2] == pytest.approx(1.0, abs=1e-15)
        assert report.errors[2] <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_random_operator_matches_matrix_powers(self, seed):
        rng = np.random.default_rng(seed)
        f = build_hidden_observable(random_hermitian(rng, 4))
        psi = state(*random_unit(rng, 4))
        report = moments_check(f, psi, n_max=5, tol=1e-10)
        assert report.passed, report.errors


class TestOrthodoxy:
    def test_reconstructs_known_operator(self):
        rng = np.random.default_rng(3)
        T = random_hermitian(rng, 4)
        f = build_hidden_observable(T)
        rebuilt = orthodoxy_reconstruct(f, rng=rng)
        assert np.linalg.norm(rebuilt.entries - T.entries) <= 1e-10 * max(1.0, np.linalg.norm(T.entries))

    def test_constant_function_gives_scaled_identity(self):
        f = build_hidden_observable(op(2.5 * np.eye(3)))
        rebuilt = orthodoxy_reconstruct(f)
        np.testing.assert_allclose(rebuilt.entries, 2.5 * np.eye(3), atol=1e-12)

    def test_shared_sum_reconstructs_operator_sum(self):
        h = SharedParameterSum(
            parts=(
                build_hidden_observable(op(PAULI_Z)),
                build_hidden_observable(op(PAULI_X)),
            )
        )
        rebuilt = orthodoxy_reconstruct(h)
        np.testing.assert_allclose(rebuilt.entries, PAULI_Z + PAULI_X, atol=1e-12)

    def test_shared_product_is_not_quadratic(self):
        # per-line mean of f_Z * f_X is 1 - 2|p - q|, kinked in the ray
        h = SharedParameterProduct(
            build_hidden_observable(op(PAULI_Z)),
            build_hidden_observable(op(PAULI_X)),
        )
        with pytest.raises(NonQuadraticFirstMoment):
            orthodoxy_reconstruct(h)

    def test_genuine_observable_has_zero_gap(self):
        rng = np.random.default_rng(9)
        T = random_hermitian(rng, 4)
        f = build_hidden_observable(T)
        for _ in range(5):
            psi = random_ray(rng, 4)
            assert orthodoxy_second_moment_gap(f, T, psi) <= 1e-10

    def test_pauli_sum_gap_vanishes_on_basis_state(self):
        h = SharedParameterSum(
            parts=(
                build_hidden_observable(op(PAULI_Z)),
                build_hidden_observable(op(PAULI_X)),
            )
        )
        total = validate_hermitian(PAULI_Z + PAULI_X)
        assert orthodoxy_second_moment_gap(h, total, state(1, 0)) <= 1e-12

    def test_pauli_sum_gap_is_two_at_balanced_ray(self):
        # p_Z(-1) = p_X(-1) = (1 - sqrt2/2)/2 at this ray, so the sum is
        # -2 then +2 with one breakpoint: integral of h^2 is 4, while
        # <(Z+X)^2> = <2 I> = 2
        h = SharedParameterSum(
            parts=(
                build_hidden_observable(op(PAULI_Z)),
                build_hidden_observable(op(PAULI_X)),
            )
        )
        total = validate_hermitian(PAULI_Z + PAULI_X)
        psi = state(math.cos(math.pi / 8), math.sin(math.pi / 8))
        assert law_mean(h.parts, psi, transform=lambda v: v * v) == pytest.approx(4.0, abs=1e-12)
        assert orthodoxy_second_moment_gap(h, total, psi) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_gap_on_a_huge_or_tiny_ray_is_the_unit_ray_gap(self, scale):
        # the ray's squares overflowed to inf (gap 2.0) or underflowed to 0 (gap nan) before it was normalized
        h = SharedParameterSum(
            parts=(
                build_hidden_observable(op(PAULI_Z)),
                build_hidden_observable(op(PAULI_X)),
            )
        )
        total = validate_hermitian(PAULI_Z + PAULI_X)
        v = np.array([1.0, 0.3 + 0.2j])
        unit = orthodoxy_second_moment_gap(h, total, StateVector(components=v / np.linalg.norm(v)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            gap = orthodoxy_second_moment_gap(h, total, StateVector(components=scale * v))
        assert gap == unit == orthodoxy_second_moment_gap(h, total, StateVector(components=v))

    @pytest.mark.parametrize("seed", range(8))
    def test_pauli_sum_gap_matches_step_integral_formula(self, seed):
        # independent oracle: with both summands valued in {-1,+1} and
        # breakpoints p, q, the integral of h^2 is 4(1 - |p - q|)
        rng = np.random.default_rng(seed)
        fZ = build_hidden_observable(op(PAULI_Z))
        fX = build_hidden_observable(op(PAULI_X))
        h = SharedParameterSum(parts=(fZ, fX))
        total = validate_hermitian(PAULI_Z + PAULI_X)
        psi = random_ray(rng, 2)
        p = line_weights(fZ.decomposition, psi)[0]
        q = line_weights(fX.decomposition, psi)[0]
        expected = abs(4.0 * (1.0 - abs(p - q)) - 2.0)
        assert orthodoxy_second_moment_gap(h, total, psi) == pytest.approx(expected, abs=1e-12)

    def test_shared_sum_riemann_oracle(self):
        h = SharedParameterSum(
            parts=(
                build_hidden_observable(op(PAULI_Z)),
                build_hidden_observable(op(PAULI_X)),
            )
        )
        rng = np.random.default_rng(41)
        psi = random_ray(rng, 2)
        assert law_mean(h.parts, psi) == pytest.approx(riemann_line_mean(h, psi), abs=2e-3)
        assert h.line_means(psi.components[None])[0] == pytest.approx(riemann_line_mean(h, psi), abs=2e-3)
        assert law_mean(h.parts, psi, transform=lambda v: v * v) == pytest.approx(
            riemann_line_mean(h, psi, transform=lambda v: v * v), abs=2e-2
        )


def _degenerate_hermitian(rng, dim, diagonal):
    """Integer spectrum in [-2, 2], so eigenvalues repeat and merge; diagonal ones
    give basis-state rays zero-weight pieces."""
    spectrum = rng.integers(-2, 3, size=dim).astype(float)
    if diagonal:
        return op(np.diag(spectrum))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return op((q * spectrum) @ q.conj().T)


class TestBatchedSecondMomentGap:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 8),
        n_parts=st.integers(1, 3),
        diagonal=st.lists(st.booleans(), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_pointwise_law(self, dim, n_parts, diagonal, seed):
        rng = np.random.default_rng(seed)
        operators = [_degenerate_hermitian(rng, dim, diagonal[i]) for i in range(n_parts)]
        parts = tuple(build_hidden_observable(T) for T in operators)
        h = SharedParameterSum(parts=parts) if n_parts > 1 else parts[0]
        C = validate_hermitian(sum(T.entries for T in operators))
        rays = np.concatenate([
            np.eye(dim, dtype=complex),
            rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim)),
            3.0 * np.eye(dim, dtype=complex)[:1] + np.eye(dim, dtype=complex)[-1:],
        ])
        gaps = orthodoxy_second_moment_gap(h, C, rays)
        tol = 1e-12 * max(1.0, np.linalg.norm(C.entries, 2) ** 2)
        assert gaps.shape == (len(rays),)
        for row, gap in zip(rays, gaps):
            psi = StateVector(components=row)
            squared = validate_hermitian(C.entries @ C.entries)
            pointwise = abs(law_mean(parts, psi, transform=lambda v: v * v) - expectation(squared, psi))
            assert gap == pytest.approx(pointwise, abs=tol)
            scalar = orthodoxy_second_moment_gap(h, C, psi)
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(gap, abs=tol)

    def test_ray_dimension_must_match(self):
        f = build_hidden_observable(op(PAULI_Z))
        with pytest.raises(DimensionMismatch):
            orthodoxy_second_moment_gap(f, op(PAULI_Z), np.ones((4, 3)))
        with pytest.raises(DimensionMismatch):
            orthodoxy_second_moment_gap(f, op(PAULI_Z), state(1, 0, 0))

    def test_three_parts_against_the_riemann_oracle(self):
        parts = tuple(build_hidden_observable(op(P)) for P in (PAULI_Z, PAULI_X, PAULI_Z + PAULI_X))
        h = SharedParameterSum(parts=parts)
        psi = random_ray(np.random.default_rng(12), 2)
        zero = validate_hermitian(np.zeros((2, 2)))
        oracle = riemann_line_mean(h, psi, n=4001, transform=lambda v: v * v)
        assert orthodoxy_second_moment_gap(h, zero, psi) == pytest.approx(oracle, abs=5e-2)


def _per_probe_reconstruct(h):
    """The polarization reconstruct one probe at a time, each mean from the test-local comonotone law."""
    dim = h.dim
    parts = h.parts if isinstance(h, SharedParameterSum) else (h,)

    def mean(*entries):
        v = np.zeros(dim, dtype=complex)
        for j, amplitude in entries:
            v[j] = amplitude
        return law_mean(parts, StateVector(components=v))

    s = 1.0 / math.sqrt(2.0)
    T = np.diag([mean((j, 1.0)) for j in range(dim)]).astype(complex)
    for j in range(dim):
        for k in range(j + 1, dim):
            half = (T[j, j].real + T[k, k].real) / 2.0
            re = mean((j, s), (k, s)) - half
            im = half - mean((j, s), (k, 1.0j * s))
            T[j, k], T[k, j] = re + 1.0j * im, re - 1.0j * im
    return T


class RecordingMeans:
    """A hidden function that records the row count of every batched mean it is asked for."""

    def __init__(self, h):
        self.h, self.calls = h, []

    @property
    def dim(self):
        return self.h.dim

    def line_means(self, rays):
        self.calls.append(len(rays))
        return self.h.line_means(rays)


class TestBatchedReconstruct:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 8),
        n_parts=st.integers(1, 3),
        diagonal=st.lists(st.booleans(), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_probe_loop(self, dim, n_parts, diagonal, seed):
        rng = np.random.default_rng(seed)
        parts = tuple(build_hidden_observable(_degenerate_hermitian(rng, dim, diagonal[i]))
                      for i in range(n_parts))
        h = SharedParameterSum(parts=parts) if n_parts > 1 else parts[0]
        expected = _per_probe_reconstruct(h)
        rebuilt = orthodoxy_reconstruct(h).entries
        scale = max(1.0, np.linalg.norm(expected, 2))
        assert np.max(np.abs(rebuilt - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("validation_rays", [32, 5, 0])
    def test_rng_state_matches_sequential_random_rays(self, validation_rays):
        f = build_hidden_observable(random_hermitian(np.random.default_rng(2), 3))
        after = np.random.default_rng(17)
        orthodoxy_reconstruct(f, validation_rays=validation_rays, rng=after)
        expected = np.random.default_rng(17)
        for _ in range(validation_rays):
            random_ray(expected, 3)
        assert after.bit_generator.state == expected.bit_generator.state

    def test_error_names_the_first_failing_held_out_ray(self):
        # a first-moment map that is quadratic on every probe (each has at most two nonzero
        # coordinates) but jumps on held-out rays where |psi_0 psi_1 psi_2|^2 passes that of ray 0
        seed, dim = 4, 3
        f = build_hidden_observable(random_hermitian(np.random.default_rng(8), dim))
        draws = np.random.default_rng(seed)
        triple = [np.prod(np.abs(random_ray(draws, dim).components) ** 2) for _ in range(32)]
        first = next(i for i, t in enumerate(triple) if t > triple[0])
        assert first > 1

        class Jump:
            dim = f.dim

            def line_means(self, rays):
                return f.line_means(rays) + (np.prod(np.abs(rays) ** 2, axis=-1) > triple[0])

        with pytest.raises(NonQuadraticFirstMoment, match=rf"on held-out ray {first}$"):
            orthodoxy_reconstruct(Jump(), rng=np.random.default_rng(seed))

    def test_d24_crosses_a_block_boundary(self):
        rng = np.random.default_rng(24)
        h = SharedParameterSum(parts=tuple(build_hidden_observable(random_hermitian(rng, 24)) for _ in range(2)))
        recorder = RecordingMeans(h)
        rebuilt = orthodoxy_reconstruct(recorder).entries
        assert recorder.calls == [WITNESS_BLOCK, 24 * 24 - WITNESS_BLOCK, 32]  # 608 rays
        expected = _per_probe_reconstruct(h)
        assert np.max(np.abs(rebuilt - expected)) <= 1e-13 * max(1.0, np.linalg.norm(expected, 2))
        target = h.parts[0].operator.entries + h.parts[1].operator.entries
        assert np.linalg.norm(rebuilt - target) <= 1e-12 * np.linalg.norm(target)


class TestPropositions:
    def test_full_space(self):
        L = proposition_from_projector(np.eye(2))
        assert line_mean(L, state(1, 1j)) == 1.0
        assert L.evaluate(HiddenPoint(ray=state(1, 0), u=0.42)) == 1.0

    def test_empty_event(self):
        L = proposition_from_projector(np.zeros((2, 2)))
        assert line_mean(L, state(1, 1)) == 0.0
        assert L.evaluate(HiddenPoint(ray=state(1, 0), u=0.42)) == 0.0

    def test_rank_one_half_measure(self):
        # <E>_psi = |<(1,1)/sqrt2, (1,0)>|^2 = 1/2
        E = np.full((2, 2), 0.5)
        L = proposition_from_projector(E)
        assert line_mean(L, state(1, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_indicator_values_exactly_binary(self):
        rng = np.random.default_rng(4)
        E = random_projector(rng, 5, 2)
        L = proposition_from_projector(E)
        for _ in range(20):
            point = HiddenPoint(ray=random_ray(rng, 5), u=float(rng.uniform(0.01, 0.99)))
            assert L.evaluate(point) in (0.0, 1.0)

    def test_measure_equals_expectation(self):
        rng = np.random.default_rng(6)
        E = random_projector(rng, 6, 3)
        L = proposition_from_projector(E)
        for _ in range(10):
            psi = random_ray(rng, 6)
            assert line_mean(L, psi) == pytest.approx(
                expectation(validate_hermitian(E), psi), abs=1e-12
            )

    def test_disjoint_family_measures_add(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        projectors = [np.outer(q[:, i], q[:, i].conj()) for i in range(4)]
        props = [proposition_from_projector(E) for E in projectors]
        total = validate_hermitian(np.sum(projectors, axis=0))
        for _ in range(5):
            psi = random_ray(rng, 6)
            added = sum(line_mean(L, psi) for L in props)
            assert added == pytest.approx(expectation(total, psi), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 16),
        rank_fraction=st.floats(0.0, 1.0),
        noise_exponent=st.floats(-17.0, -9.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_projector_split_at_one_half(self, dim, rank_fraction, noise_exponent, seed):
        # the gap partition of an accepted near-projector is its split at 1/2: kernel block, then range block
        rng = np.random.default_rng(seed)
        rank = round(rank_fraction * dim)
        E = random_projector(rng, dim, rank) + random_hermitian(rng, dim, scale=10.0**noise_exponent).entries
        try:
            S = proposition_from_projector(E).decomposition
        except NotAProjector:
            assume(False)
        w = np.linalg.eigh((E + E.conj().T) / 2.0)[0]
        kernel_dim = int(np.searchsorted(w, 0.5))
        if kernel_dim in (0, dim):
            offsets, eigenvalues = [0], [float(kernel_dim == 0)]
        else:
            offsets, eigenvalues = [0, kernel_dim], [0.0, 1.0]
        assert S.offsets.tolist() == offsets
        assert S.eigenvalues.tolist() == eigenvalues

    @pytest.mark.parametrize(
        "bad",
        [
            np.diag([0.5, 0.5]),
            [[0.0, 1.0], [0.0, 0.0]],
            np.ones((2, 3)),
            [[math.nan, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -math.inf]],
            [[1.0, 1e200], [-1e200, 0.0]],
            np.diag([1e200, 0.0]),
            np.diag([1.7e308, 0.0]),
        ],
    )
    def test_not_a_projector(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error: huge entries must not overflow a norm
            with pytest.raises(NotAProjector):
                proposition_from_projector(bad)


def weights_from_projectors(projectors, rays):
    """<psi, P_i psi> / <psi, psi> for each ray (row) and explicit projector P_i."""
    p = np.einsum("ra,iab,rb->ri", rays.conj(), np.array(projectors), rays).real
    return p / np.einsum("ra,ra->r", rays.conj(), rays).real[:, None]


class TestLineWeightsFromEigenvectorBlocks:
    """Block sums of |<v_j, psi>|^2 equal <psi, P_i psi> from explicitly built projectors."""

    def check(self, S, projectors, rng, n_rays=16):
        dim = projectors[0].shape[0]
        rays = rng.normal(size=(n_rays, dim)) + 1j * rng.normal(size=(n_rays, dim))
        expected = weights_from_projectors(projectors, rays)
        unit = rays / np.linalg.norm(rays, axis=1)[:, None]
        np.testing.assert_allclose(_bulk_line_weights(S, unit), expected, rtol=0, atol=1e-12)
        for ray, row in zip(rays, expected):
            np.testing.assert_allclose(line_weights(S, StateVector(components=ray)), row, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merged_clusters(self, seed):
        rng = np.random.default_rng(seed)
        dim = 9
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        # clusters of sizes 3, 1, 4, 1; the 1e-13 splits are merged away
        spectrum = np.array([-1.0, -1.0 + 1e-13, -1.0, 0.5, 2.0, 2.0, 2.0 + 1e-13, 2.0, 3.0])
        sizes = [3, 1, 4, 1]
        T = validate_hermitian((q * spectrum) @ q.conj().T)
        S = build_hidden_observable(T).decomposition
        assert len(S.eigenvalues) == len(sizes)
        order = np.argsort(spectrum, kind="stable")
        starts = np.cumsum([0] + sizes[:-1])
        projectors = [q[:, order[a : a + n]] @ q[:, order[a : a + n]].conj().T for a, n in zip(starts, sizes)]
        self.check(S, projectors, rng)

    @pytest.mark.parametrize("rank", [0, 2, 5])
    def test_proposition(self, rank):
        rng = np.random.default_rng(40 + rank)
        E = random_projector(rng, 5, rank)
        S = proposition_from_projector(E).decomposition
        family = [np.eye(5) - E, E]
        projectors = [P for P in family if np.trace(P).real > 0.5]
        self.check(S, projectors, rng)


class TestExtremeRayMagnitudes:
    """line_weights, line_mean and expectation read the ray binary-scaled, so its length cannot overflow them."""

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e-310])
    def test_huge_and_tiny_rays_equal_the_unit_ray(self, magnitude):
        T = op(np.diag([1.0, 2.0]))
        f = build_hidden_observable(T)
        unit = StateVector(components=np.array([1.0, 1.0]) / math.sqrt(2.0))
        far = state(magnitude, magnitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error: the squared norm overflowed, or underflowed to 0
            np.testing.assert_allclose(line_weights(f.decomposition, far), line_weights(f.decomposition, unit), rtol=1e-15)
            assert line_mean(f, far) == pytest.approx(line_mean(f, unit), rel=1e-15)
            assert expectation(T, far) == pytest.approx(expectation(T, unit), rel=1e-15)

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_random_ray_at_extreme_magnitude(self, magnitude):
        rng = np.random.default_rng(5)
        T = random_hermitian(rng, 3)
        f = build_hidden_observable(T)
        unit = StateVector(components=random_unit(rng, 3))
        far = StateVector(components=magnitude * unit.components)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(line_weights(f.decomposition, far), line_weights(f.decomposition, unit), rtol=1e-14, atol=1e-15)
            assert line_mean(f, far) == pytest.approx(line_mean(f, unit), rel=1e-14, abs=1e-15)
            assert expectation(T, far) == pytest.approx(expectation(T, unit), rel=1e-14, abs=1e-15)

    def test_in_range_rays_keep_the_unscaled_bits(self):
        # a power-of-two scale multiplies numerator and denominator by the same power of four, exactly
        rng = np.random.default_rng(6)
        for dim in (1, 2, 3, 5, 8):
            T = random_hermitian(rng, dim)
            f = build_hidden_observable(T)
            for _ in range(50):
                v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.uniform(-60, 60)
                psi = StateVector(components=v)
                norm2 = np.vdot(v, v).real
                assert np.array_equal(line_weights(f.decomposition, psi), _bulk_line_weights(f.decomposition, v) / norm2)
                assert line_mean(f, psi) == float(f.line_means(v[None])[0] / norm2)
                assert expectation(T, psi) == float(np.vdot(v, T.entries @ v).real / norm2)


class TestStatisticalEquivalence:
    def test_same_observable(self):
        rng = np.random.default_rng(2)
        f = build_hidden_observable(random_hermitian(rng, 4))
        rays = [random_ray(rng, 4) for _ in range(10)]
        assert statistical_equivalence_check(f, f, rays).passed

    def test_shifted_operator_not_equivalent(self):
        rng = np.random.default_rng(15)
        T = random_hermitian(rng, 3)
        shifted = validate_hermitian(T.entries + np.eye(3))
        f1 = build_hidden_observable(T)
        f2 = build_hidden_observable(shifted)
        rays = [random_ray(rng, 3) for _ in range(5)]
        report = statistical_equivalence_check(f1, f2, rays)
        assert not report.passed
        assert report.failures

    def test_composition_compatible_distributions(self):
        # the per-line law of b(f) equals the per-line law of the
        # observable built from b applied through the functional calculus
        rng = np.random.default_rng(21)
        T = random_hermitian(rng, 5)
        f = build_hidden_observable(T)
        b = parse("clamp(-1, 1) * x + ind(0, 2)")
        g = build_hidden_observable(apply_borel(f.decomposition, b))
        for _ in range(10):
            psi = random_ray(rng, 5)
            values, weights = f.line_distribution(psi)
            v1, w1 = _pooled_law(b(values), weights, 0.0)
            v2, w2 = _pooled_law(*g.line_distribution(psi), 0.0)
            keep1, keep2 = w1 > 1e-12, w2 > 1e-12
            np.testing.assert_allclose(v1[keep1], v2[keep2], atol=1e-9)
            np.testing.assert_allclose(w1[keep1], w2[keep2], atol=1e-10)


class TestDrawU:
    def test_open_interval_and_deterministic(self):
        u1 = draw_u(np.random.default_rng(99), 1000)
        u2 = draw_u(np.random.default_rng(99), 1000)
        assert np.array_equal(u1, u2)
        assert np.all((u1 > 0.0) & (u1 < 1.0))

    def test_u_is_word_0_of_two_word_rows(self):
        # the draw support and context make: u is word 2i of the generator, bit for bit
        words = np.random.default_rng(101).random(2 * 5000)
        assert np.array_equal(draw_u(np.random.default_rng(101), 5000), u_from_words(words[0::2]))

    def test_draw_advances_two_words_a_sample(self):
        rng, reference = np.random.default_rng(103), np.random.default_rng(103)
        draw_u(rng, 777)
        reference.random(2 * 777)
        assert rng.random() == reference.random()
