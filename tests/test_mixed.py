import io
import re

import numpy as np
import pytest

from helpers import (
    op,
    random_density,
    random_expression_text,
    random_hermitian,
    random_projector,
    state,
)

from hobs import (
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    GammaModel,
    HiddenMixedState,
    SampleStream,
    StateVector,
    apply_borel,
    build_hidden_observable,
    density_from_ensemble,
    dump_samples_csv,
    ensemble_from_density,
    exact_classical_mean,
    hidden_state_measure,
    mc_estimate,
    parse,
    proposition_from_projector,
    sample_hidden,
    trace_expectation,
)
from hobs.kernel import _bulk_line_weights, _cumulative
from hobs.mixed import _block_values, _draw_block

UNIFORM = GammaModel.uniform()


def mixed(D: DensityMatrix, gamma=UNIFORM) -> HiddenMixedState:
    return HiddenMixedState(ensemble=ensemble_from_density(D), gamma=gamma)


class TestEnsemble:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Ensemble(weights=np.array([1.0, 0.0]), rays=np.eye(2, dtype=complex))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Ensemble(weights=np.array([0.6, 0.6]), rays=np.eye(2, dtype=complex))

    def test_non_empty(self):
        with pytest.raises(ValueError):
            Ensemble(weights=np.array([]), rays=np.zeros((0, 2), dtype=complex))

    def test_rays_normalized_on_construction(self):
        ens = Ensemble(weights=np.array([1.0]), rays=np.array([[3.0, 4.0]], dtype=complex))
        assert np.linalg.norm(ens.rays[0]) == pytest.approx(1.0, abs=1e-15)

    def test_weights_and_rays(self):
        ens = Ensemble(weights=[0.25, 0.75], rays=[[1, 0], [0, 2]])
        assert np.array_equal(ens.weights, [0.25, 0.75])
        assert ens.dim == 2


class TestDensityCorrespondence:
    def test_pure_density_single_component(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        D = DensityMatrix(entries=np.outer(v, v.conj()))
        ens = ensemble_from_density(D)
        assert ens.size == 1
        assert ens.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(ens.rays[0], v)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_two_components(self):
        ens = ensemble_from_density(DensityMatrix(entries=np.eye(2) / 2))
        assert ens.size == 2
        np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-15)

    def test_diagonal_density(self):
        ens = ensemble_from_density(DensityMatrix(entries=np.diag([0.3, 0.7])))
        np.testing.assert_allclose(sorted(ens.weights), [0.3, 0.7], atol=1e-15)
        for row in np.abs(ens.rays):
            assert sorted(row) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_single_component_rebuilds_projector(self):
        ens = Ensemble(weights=[1.0], rays=[[1, 1j]])
        D = density_from_ensemble(ens)
        np.testing.assert_allclose(D.entries, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-15)

    def test_orthonormal_pair_gives_maximally_mixed(self):
        ens = Ensemble(weights=[0.5, 0.5], rays=[[1, 0], [0, 1]])
        np.testing.assert_allclose(density_from_ensemble(ens).entries, np.eye(2) / 2, atol=1e-15)

    def test_non_orthogonal_pair_hand_value(self):
        # 1/2 |e1><e1| + 1/2 |(1,1)/sqrt2><...| = [[3,1],[1,1]]/4
        ens = Ensemble(weights=[0.5, 0.5], rays=[[1, 0], [1, 1]])
        np.testing.assert_allclose(
            density_from_ensemble(ens).entries, np.array([[3.0, 1.0], [1.0, 1.0]]) / 4.0, atol=1e-15
        )

    @pytest.mark.parametrize("dim", [2, 3, 7, 12])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        D = random_density(rng, dim)
        again = density_from_ensemble(ensemble_from_density(D))
        assert np.linalg.norm(again.entries - D.entries) <= 1e-10


class TestExactClassicalMean:
    def test_identity_observable(self):
        rng = np.random.default_rng(0)
        f = build_hidden_observable(op(np.eye(3)), UNIFORM)
        mu = mixed(random_density(rng, 3))
        assert exact_classical_mean(f, parse("x"), mu) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_sign_spectrum(self):
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.eye(2) / 2))
        assert exact_classical_mean(f, parse("x"), mu) == pytest.approx(0.0, abs=1e-15)

    def test_square_of_involution(self):
        f = build_hidden_observable(op([[0.0, 1.0], [1.0, 0.0]]), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.diag([0.3, 0.7])))
        assert exact_classical_mean(f, parse("x^2"), mu) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_central_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 12))
        T = random_hermitian(rng, dim)
        D = random_density(rng, dim)
        b = parse(random_expression_text(rng, depth=3))
        f = build_hidden_observable(T, UNIFORM)
        mu = mixed(D)
        trace_value = trace_expectation(apply_borel(f.decomposition, b), D)
        mean = exact_classical_mean(f, b, mu)
        assert abs(trace_value - mean) <= 1e-10 * max(1.0, abs(trace_value))

    def test_mean_is_ensemble_invariant(self):
        # two mixtures with the same density matrix must agree on every mean
        rng = np.random.default_rng(101)
        eigen = ensemble_from_density(DensityMatrix(entries=np.eye(2) / 2))
        rotated = Ensemble(weights=[0.5, 0.5], rays=[[1, 1], [1, -1]])
        np.testing.assert_allclose(
            density_from_ensemble(eigen).entries, density_from_ensemble(rotated).entries, atol=1e-12
        )
        for _ in range(10):
            T = random_hermitian(rng, 2)
            b = parse(random_expression_text(rng, depth=2))
            f = build_hidden_observable(T, UNIFORM)
            m1 = exact_classical_mean(f, b, HiddenMixedState(ensemble=eigen, gamma=UNIFORM))
            m2 = exact_classical_mean(f, b, HiddenMixedState(ensemble=rotated, gamma=UNIFORM))
            assert m1 == pytest.approx(m2, abs=1e-10)

    def test_dimension_mismatch(self):
        f = build_hidden_observable(op(np.eye(3)), UNIFORM)
        with pytest.raises(DimensionMismatch):
            exact_classical_mean(f, parse("x"), mixed(DensityMatrix(entries=np.eye(2) / 2)))

    def test_proposition_measure_equals_trace(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            E = random_projector(rng, dim, int(rng.integers(1, dim)))
            D = random_density(rng, dim)
            L = proposition_from_projector(E, UNIFORM)
            mu = mixed(D)
            expected = float(np.trace(E @ D.entries).real)
            assert hidden_state_measure(L, mu) == pytest.approx(expected, abs=1e-10)


class TestSampleStream:
    def test_words_are_partition_independent(self):
        stream = SampleStream(seed=1234)
        whole = stream.raw_words(0, 1000)
        split = np.vstack([stream.raw_words(0, 300), stream.raw_words(300, 700)])
        assert np.array_equal(whole, split)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SampleStream(seed=1).raw_words(0, 8), SampleStream(seed=2).raw_words(0, 8))

    def test_blocks_cover_range(self):
        stream = SampleStream(seed=0, block_size=100)
        blocks = list(stream.blocks(250))
        assert blocks == [(0, 100), (100, 100), (200, 50)]


class TestSampleHidden:
    def test_single_component_stays_on_ray(self):
        mu = HiddenMixedState(ensemble=Ensemble(weights=[1.0], rays=[[1, 1j]]), gamma=UNIFORM)
        points = sample_hidden(mu, SampleStream(seed=3), 100)
        ref = points[0].ray.components
        for p in points:
            assert abs(np.vdot(p.ray.components, ref)) == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < p.u < 1.0

    def test_deterministic_per_seed(self):
        mu = mixed(DensityMatrix(entries=np.diag([0.3, 0.7])))
        a = sample_hidden(mu, SampleStream(seed=9), 50)
        b = sample_hidden(mu, SampleStream(seed=9), 50)
        assert all(pa.u == pb.u for pa, pb in zip(a, b))

    def test_component_counts_within_binomial_bound(self):
        n = 100000
        mu = HiddenMixedState(
            ensemble=Ensemble(weights=[0.5, 0.5], rays=[[1, 0], [0, 1]]), gamma=UNIFORM
        )
        stream = SampleStream(seed=2024)
        from hobs.mixed import _draw_block

        k, _ = _draw_block(mu, stream, 0, n)
        count = int(np.sum(k == 0))
        assert abs(count - n / 2) <= 4.0 * np.sqrt(n * 0.25)

    def test_requires_positive_count(self):
        mu = mixed(DensityMatrix(entries=np.eye(2) / 2))
        with pytest.raises(ValueError):
            sample_hidden(mu, SampleStream(seed=0), 0)


class TestMcEstimate:
    def test_constant_integrand_exact(self):
        f = build_hidden_observable(op(np.eye(2)), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.eye(2) / 2))
        est = mc_estimate(f, parse("x"), mu, SampleStream(seed=0), 10000)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_constant_expression_integrand(self):
        # constant ASTs carry no variable node; the vectorized path must
        # still produce one value per sample
        rng = np.random.default_rng(63)
        f = build_hidden_observable(random_hermitian(rng, 5), UNIFORM)
        mu = mixed(random_density(rng, 5))
        est = mc_estimate(f, parse("2.5"), mu, SampleStream(seed=1), 10000)
        assert est.mean == 2.5
        assert est.std_error == 0.0

    def test_zero_mean_unit_variance_bound(self):
        n = 1_000_000
        f = build_hidden_observable(op(np.diag([-1.0, 1.0])), UNIFORM)
        mu = HiddenMixedState(ensemble=Ensemble(weights=[1.0], rays=[[1, 1]]), gamma=UNIFORM)
        est = mc_estimate(f, parse("x"), mu, SampleStream(seed=7), n)
        assert abs(est.mean) <= 4.0 / np.sqrt(n)
        assert est.std_error == pytest.approx(1.0 / np.sqrt(n), rel=1e-2)

    def test_worker_counts_agree_bitwise(self):
        rng = np.random.default_rng(31)
        f = build_hidden_observable(random_hermitian(rng, 4), UNIFORM)
        mu = mixed(random_density(rng, 4))
        b = parse("x^2 - x")
        serial = mc_estimate(f, b, mu, SampleStream(seed=5), 300000, workers=1)
        parallel = mc_estimate(f, b, mu, SampleStream(seed=5), 300000, workers=4)
        assert serial.mean == parallel.mean
        assert serial.std_error == parallel.std_error

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_consistent_with_exact_mean(self, seed):
        rng = np.random.default_rng(seed)
        f = build_hidden_observable(random_hermitian(rng, 3), UNIFORM)
        mu = mixed(random_density(rng, 3))
        b = parse("x + x^2")
        exact = exact_classical_mean(f, b, mu)
        est = mc_estimate(f, b, mu, SampleStream(seed=seed), 200000)
        slack = max(4.0 * est.std_error, 1e-9)
        assert abs(est.mean - exact) <= slack

    def test_arg_model_sampling_agrees_too(self):
        rng = np.random.default_rng(77)
        gamma = GammaModel.complex_arg()
        f = build_hidden_observable(random_hermitian(rng, 3), gamma)
        mu = mixed(random_density(rng, 3), gamma=gamma)
        exact = exact_classical_mean(f, parse("x"), mu)
        est = mc_estimate(f, parse("x"), mu, SampleStream(seed=123), 200000)
        assert abs(est.mean - exact) <= max(4.0 * est.std_error, 1e-9)

    def test_variance_survives_large_offset(self):
        # values 1e8..1e8+3 with equal weight: s2 - n*mean^2 cancels to 0 here
        n = 1_000_000
        f = build_hidden_observable(op(np.diag(1e8 + np.arange(4.0))), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.eye(4) / 4))
        est = mc_estimate(f, parse("x"), mu, SampleStream(seed=1), n)
        assert est.std_error == pytest.approx(np.sqrt(1.25 / n), rel=1e-2)
        assert abs(est.mean - (1e8 + 1.5)) <= 4.0 * est.std_error

    def test_requires_two_samples(self):
        f = build_hidden_observable(op(np.eye(2)), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.eye(2) / 2))
        with pytest.raises(ValueError):
            mc_estimate(f, parse("x"), mu, SampleStream(seed=0), 1)


class TestBlockValues:
    def test_matches_values_on_line_per_component(self):
        rng = np.random.default_rng(32)
        f = build_hidden_observable(random_hermitian(rng, 32), UNIFORM)
        mu = mixed(random_density(rng, 32))
        assert mu.ensemble.size == 32
        k, u, values = _block_values(f, mu, SampleStream(seed=3), 0, 20000)
        assert set(np.unique(k)) == set(range(32))
        for comp, row in enumerate(mu.ensemble.rays):
            mask = k == comp
            assert np.array_equal(values[mask], f.values_on_line(StateVector(components=row), u[mask]))


def masked_block_values(f, mu, stream, start, count):
    """The per-component reference: mask each component's samples and searchsorted its cumulative weights."""
    k, u = _draw_block(mu, stream, start, count)
    weights = _bulk_line_weights(f.decomposition, mu.ensemble.rays)
    values = np.empty(count, dtype=float)
    for comp in range(mu.ensemble.size):
        mask = k == comp
        if np.any(mask):
            cumulative = _cumulative(weights[comp])
            values[mask] = f.values[np.minimum(np.searchsorted(cumulative, u[mask]), cumulative.size - 1)]
    return values


class TestBlockSearch:
    @pytest.mark.parametrize("case", ["full-rank", "basis-rays", "pure"])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_block_values_equal_masked_loop(self, case, dim):
        rng = np.random.default_rng(dim)
        T = random_hermitian(rng, dim)
        if case == "full-rank":
            D = random_density(rng, dim)
        elif case == "basis-rays":  # every line weight is 0 or 1: ties on every edge
            D = DensityMatrix(entries=np.eye(dim) / dim)
            T = op(np.diag(np.arange(dim, dtype=float)))
        else:  # one component
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            D = DensityMatrix(entries=np.outer(v, v.conj()) / np.vdot(v, v).real)
        f, mu, stream = build_hidden_observable(T, UNIFORM), mixed(D), SampleStream(seed=dim)
        assert mu.ensemble.size == {"full-rank": dim, "basis-rays": dim, "pure": 1}[case]
        k, u, values = _block_values(f, mu, stream, 100, 5000)
        assert np.array_equal(k, _draw_block(mu, stream, 100, 5000)[0])
        assert np.array_equal(values, masked_block_values(f, mu, stream, 100, 5000))

    @pytest.mark.parametrize("weights", [[0.25, 0.25, 0.5], [0.1, 0.2, 0.3, 0.4], [1.0]])
    def test_component_draw_is_clipped_right_searchsorted(self, weights):
        size = len(weights)
        mu = HiddenMixedState(ensemble=Ensemble(weights=weights, rays=np.eye(size)), gamma=UNIFORM)
        cumulative = np.minimum(np.cumsum(mu.ensemble.weights), 1.0)
        pinned = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], cumulative, np.nextafter(cumulative, 0.0)))

        class PinnedStream(SampleStream):  # the first words of the block sit on the cumulative weights
            def raw_words(self, start, count):
                words = super().raw_words(start, count)
                words[: pinned.size, 0] = pinned
                return words

        stream = PinnedStream(seed=11)
        k, _ = _draw_block(mu, stream, 0, 1000)
        first = stream.raw_words(0, 1000)[:, 0]
        assert np.array_equal(k, np.minimum(np.searchsorted(cumulative, first, "right"), size - 1))


class TestCsvDump:
    def make(self):
        rng = np.random.default_rng(8)
        f = build_hidden_observable(random_hermitian(rng, 3), UNIFORM)
        mu = mixed(random_density(rng, 3))
        return f, mu

    def test_header_and_row_shape(self):
        f, mu = self.make()
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=1), 25, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "component_index,u,value"
        assert len(lines) == 26
        row = re.compile(r"^\d+,[0-9.eE+-]+,[0-9.eE+-]+$")
        assert all(row.match(line) for line in lines[1:])

    def test_value_column_in_spectrum(self):
        f, mu = self.make()
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=1), 200, buf)
        for line in buf.getvalue().splitlines()[1:]:
            value = float(line.split(",")[2])
            assert np.min(np.abs(f.decomposition.eigenvalues - value)) <= 1e-12

    def test_deterministic_and_worker_invariant(self):
        f, mu = self.make()
        outputs = []
        for workers in (1, 1, 4):
            buf = io.StringIO()
            dump_samples_csv(f, mu, SampleStream(seed=42), 70000, buf, workers=workers)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rows_match_per_row_formatting(self):
        # one full d=8 block, against the row-at-a-time f-string formatting
        rng = np.random.default_rng(65)
        f = build_hidden_observable(random_hermitian(rng, 8), UNIFORM)
        mu = mixed(random_density(rng, 8))
        n = 65536
        k, u, values = _block_values(f, mu, SampleStream(seed=7), 0, n)
        expected = "component_index,u,value\n" + "".join(
            f"{ki},{ui:.17g},{vi:.17g}\n" for ki, ui, vi in zip(k, u, values)
        )
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=7), n, buf)
        assert buf.getvalue().encode() == expected.encode()

    def test_seventeen_significant_digits(self):
        f, mu = self.make()
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=1), 5, buf)
        first = buf.getvalue().splitlines()[1]
        u_text = first.split(",")[1]
        assert float(u_text) == float(f"{float(u_text):.17g}")
        assert len(u_text.replace(".", "").lstrip("0")) >= 15
