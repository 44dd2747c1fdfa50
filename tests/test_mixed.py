import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

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
    EvaluationError,
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
    function_values,
    hidden_state_measure,
    mc_estimate,
    parse,
    proposition_from_projector,
    sample_hidden,
    trace_expectation,
)
from hobs.kernel import _bulk_line_weights, _cumulative
from hobs.mixed import SAMPLE_WORDS, _block_arrays, _block_values, _components, _draw_block, _sampling_tables

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

    @pytest.mark.parametrize("magnitude", [1e200, 1e-170])
    def test_extreme_rays_normalize_to_the_unit_ray(self, magnitude):
        # each row is binary-scaled before its norm, whose square would overflow or underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = Ensemble(weights=[0.5, 0.5], rays=[[magnitude, magnitude], [3.0, 4.0]])
        np.testing.assert_allclose(ens.rays[0], [math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15)
        in_range = np.array([3.0, 4.0], dtype=complex)
        assert np.array_equal(ens.rays[1], in_range / np.linalg.norm(in_range))

    def test_in_range_rays_keep_the_unscaled_bits(self):
        # a power-of-two scale per row multiplies a row and its norm by the same power of two, exactly
        rng = np.random.default_rng(8)
        r = (rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))) * 10.0 ** rng.uniform(-60, 60, size=(40, 1))
        ens = Ensemble(weights=np.full(40, 1 / 40), rays=r)
        assert np.array_equal(ens.rays, r / np.linalg.norm(r, axis=1)[:, None])

    def test_huge_ray_means(self):
        # the unscaled norm overflowed to inf and the ray became 0: exact mean 0.0, Monte Carlo 1.0
        f = build_hidden_observable(op(np.diag([0.0, 1.0])), UNIFORM)
        mu = HiddenMixedState(ensemble=Ensemble(weights=[1.0], rays=[[1e200, 1e200]]), gamma=UNIFORM)
        assert exact_classical_mean(f, parse("x"), mu) == pytest.approx(0.5, rel=1e-15)
        est = mc_estimate(f, parse("x"), mu, SampleStream(seed=3), 100000)
        assert abs(est.mean - 0.5) <= 4.0 * est.std_error

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


def fresh_words(stream, start, count, width):
    """stream.raw_words into a buffer of its own."""
    return stream.raw_words(start, count, width, np.empty(width * count))


class TestSampleStream:
    def test_words_are_partition_independent(self):
        stream = SampleStream(seed=1234)
        for width in (2, 3):
            whole = fresh_words(stream, 0, 1000, width)
            split = np.vstack([fresh_words(stream, 0, 300, width), fresh_words(stream, 300, 700, width)])
            assert np.array_equal(whole, split)

    def test_different_seeds_differ(self):
        for width in (2, 3):
            assert not np.array_equal(fresh_words(SampleStream(seed=1), 0, 8, width),
                                      fresh_words(SampleStream(seed=2), 0, 8, width))

    @pytest.mark.parametrize("width", [2, 3])
    def test_block_into_reused_buffer_is_the_rows_of_one_long_draw(self, width):
        # the layout contract: sample i is words width*i .. width*i + width - 1 of one stream, whatever
        # the buffer held before and wherever the worker's generator was left
        stream = SampleStream(seed=77, block_size=1000)
        whole = fresh_words(stream, 0, 5000, width)
        assert whole.shape == (5000, width)
        buffer, rng = np.full(3 * stream.block_size, np.nan), stream.generator()
        rng.integers(2**32, dtype=np.uint32)  # leaves half a word buffered
        # in order, backwards, a repeated start, the last partial block, and a block off the block grid
        for start, count in [(0, 1000), (1000, 1000), (4000, 1000), (2500, 1000), (1000, 1000), (1000, 1000),
                             (4990, 10), (0, 1000), (3001, 7)]:
            for generator in (None, rng):
                block = stream.raw_words(start, count, width, buffer, generator)
                assert np.shares_memory(block, buffer)
                assert np.array_equal(block, whole[start : start + count])
            rng.random()  # a draw between blocks moves the generator on

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

    def test_arg_u_is_the_angle_word(self):
        # under arg, sample i reads words 3i..3i+2: the component word, the radius word (drawn, not read) and the
        # angle word, which is u bit for bit
        gamma = GammaModel(kind="arg")
        mu = HiddenMixedState(ensemble=Ensemble(weights=[0.5, 0.5], rays=np.eye(2)), gamma=gamma)
        stream = SampleStream(seed=17)
        words = fresh_words(stream, 300, 5000, SAMPLE_WORDS["arg"])
        _, u = _draw_block(mu, _components(mu), stream, 300, 5000)
        assert SAMPLE_WORDS["arg"] == 3 and np.all(words[:, 2] > 0.0)
        assert np.array_equal(u, words[:, 2])

    def test_component_counts_within_binomial_bound(self):
        n = 100000
        mu = HiddenMixedState(
            ensemble=Ensemble(weights=[0.5, 0.5], rays=[[1, 0], [0, 1]]), gamma=UNIFORM
        )
        stream = SampleStream(seed=2024)
        k, _ = _draw_block(mu, _components(mu), stream, 0, n)
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
        gamma = GammaModel(kind="arg")
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

    def test_unsampled_piece_with_huge_value(self):
        # piece 1 has line weight 0; a zero count times its overflowed squared offset would make M2 NaN
        f = build_hidden_observable(op(np.diag([0.0, 1.0])), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.diag([1.0, 0.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            est = mc_estimate(f, parse("1e200*x"), mu, SampleStream(seed=0), 10000)
        assert (est.mean, est.std_error) == (0.0, 0.0)

    def test_b_is_evaluated_only_at_sampled_pieces(self):
        f = build_hidden_observable(op(np.diag([0.0, 1.0])), UNIFORM)
        b = lambda x: np.where(x > 0, 1.0, np.inf)  # noqa: E731
        on_one = mixed(DensityMatrix(entries=np.diag([0.0, 1.0])))
        est = mc_estimate(f, b, on_one, SampleStream(seed=0), 10000)
        assert (est.mean, est.std_error) == (1.0, 0.0)
        on_zero = mixed(DensityMatrix(entries=np.diag([1.0, 0.0])))
        with pytest.raises(EvaluationError):
            mc_estimate(f, b, on_zero, SampleStream(seed=0), 10000)

    def test_requires_two_samples(self):
        f = build_hidden_observable(op(np.eye(2)), UNIFORM)
        mu = mixed(DensityMatrix(entries=np.eye(2) / 2))
        with pytest.raises(ValueError):
            mc_estimate(f, parse("x"), mu, SampleStream(seed=0), 1)

    @pytest.mark.parametrize("gamma", [UNIFORM, GammaModel(kind="arg")], ids=["uniform", "arg"])
    def test_equal_at_any_block_size_and_worker_count(self, gamma):
        rng = np.random.default_rng(24)
        f = build_hidden_observable(random_hermitian(rng, 4), gamma)
        mu = mixed(random_density(rng, 4), gamma=gamma)
        n = 200_003
        estimates = {
            (block_size, workers): mc_estimate(
                f, parse("x^2 + x"), mu, SampleStream(seed=5, block_size=block_size), n, workers=workers)
            for block_size in (1000, 16384, 65536)
            for workers in (1, 3)
        }
        assert len(set(estimates.values())) == 1, estimates


# warms up with three 10^6-sample estimates at d = 4, then prints the minor page faults of ten more and of ten
# one-block estimates between them: a call makes and drops its block arrays whatever its size, so the difference
# is what the blocks after the first fault in
FAULT_PROBE = """
import resource
import sys
import numpy as np
from hobs import (DensityMatrix, GammaModel, HiddenMixedState, SampleStream, build_hidden_observable,
                  ensemble_from_density, mc_estimate, parse, validate_hermitian)
gamma = GammaModel(kind=sys.argv[1])
rng = np.random.default_rng(4)
m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
f = build_hidden_observable(validate_hermitian((m + m.conj().T) / 2), gamma)
m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
rho = m @ m.conj().T
mu = HiddenMixedState(ensemble=ensemble_from_density(DensityMatrix(entries=rho / np.trace(rho).real)), gamma=gamma)
assert mu.ensemble.size == 4
b, block = parse("x^2"), SampleStream(seed=0).block_size


def faults(seed, n):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    mc_estimate(f, b, mu, SampleStream(seed=seed), n)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


for seed in range(3):
    faults(seed, 10**6), faults(seed, block)
calls = [(faults(seed, 10**6), faults(seed, block)) for seed in range(3, 13)]
print(*map(sum, zip(*calls)))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc heap page faults")
@pytest.mark.parametrize("kind", ["uniform", "arg"])
def test_steady_state_estimate_does_not_fault_pages_in(kind):
    # block-sized arrays freed and allocated per block let the heap trim and fault back in on every block:
    # 5,889-14,370 faults per 10^6-sample call were measured that way; with arrays reused for a whole call, a
    # call faults in about as many pages as a one-block call, under either model (a block allocates no array)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, kind], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    full, one_block = map(int, proc.stdout.split())
    assert full - one_block <= 10 * 256, f"{full / 10:.0f} minor faults per call, {one_block / 10:.0f} at one block"


def block_piece_counts(f, mu, stream, n):
    """Per-piece counts of n samples, the bincount of the pieces _block_values gives each block."""
    counts, tables = np.zeros(f.values.size, dtype=np.int64), _sampling_tables(f, mu)
    for start, count in stream.blocks(n):
        pieces = _block_values(tables, mu, stream, start, count, _block_arrays(count))[2]
        counts += np.bincount(pieces, minlength=f.values.size)
    return counts


class TestCountReduction:
    @pytest.mark.parametrize("gamma", [UNIFORM, GammaModel(kind="arg")], ids=["uniform", "arg"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_is_the_count_formula_for_any_partition(self, seed, gamma):
        rng = np.random.default_rng([93, seed])
        dim = int(rng.integers(2, 7))
        f = build_hidden_observable(random_hermitian(rng, dim), gamma)
        mu = mixed(random_density(rng, dim), gamma=gamma)
        b = parse(random_expression_text(rng, depth=3))
        n = 150_001  # a multiple of neither block size
        c = block_piece_counts(f, mu, SampleStream(seed=seed), n)
        assert c.sum() == n
        seen = c > 0
        c = c[seen]
        x = function_values(b, f.values[seen])
        d = x - x[0]
        mean = x[0] + (c @ d) / n
        std_error = math.sqrt(c @ (d - (c @ d) / n) ** 2 / (n - 1) / n)
        estimates = [
            mc_estimate(f, b, mu, SampleStream(seed=seed, block_size=block_size), n, workers=workers)
            for block_size, workers in [(65536, 1), (65536, 2), (65536, 3), (100, 1), (100, 3)]
        ]
        for est in estimates:
            assert (est.mean, est.std_error) == (mean, std_error)


class TestStreamFit:
    @pytest.mark.parametrize("gamma", [UNIFORM, GammaModel(kind="arg")], ids=["uniform", "arg"])
    def test_piece_counts_and_u_column_fit_their_laws(self, gamma):
        from scipy import stats
        rng = np.random.default_rng(4)
        f = build_hidden_observable(random_hermitian(rng, 4), gamma)
        mu = mixed(random_density(rng, 4), gamma=gamma)
        n = 1_000_000
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=19), n, buf)
        table = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
        counts = block_piece_counts(f, mu, SampleStream(seed=19), n)
        assert np.array_equal(counts, np.bincount(np.searchsorted(f.values, table[:, 2]), minlength=f.values.size))
        # the exact law of a piece: sum over components k of w_k times the piece's weight on ray k
        law = mu.ensemble.weights @ _bulk_line_weights(f.decomposition, mu.ensemble.rays)
        assert stats.chisquare(counts, n * law / law.sum()).pvalue > 1e-6
        assert stats.kstest(table[:, 1], "uniform").pvalue > 1e-6


class TestBlockValues:
    def test_matches_values_on_line_per_component(self):
        rng = np.random.default_rng(32)
        f = build_hidden_observable(random_hermitian(rng, 32), UNIFORM)
        mu = mixed(random_density(rng, 32))
        assert mu.ensemble.size == 32
        # the smallest component weight is 5.7e-5: 400,000 draws expect about 23 of it, and miss it with
        # probability about 1e-10 under any stream
        n = 400000
        k, u, pieces = _block_values(_sampling_tables(f, mu), mu, SampleStream(seed=3), 0, n, _block_arrays(n))
        values = f.values[pieces]
        assert set(np.unique(k)) == set(range(32))
        for comp, row in enumerate(mu.ensemble.rays):
            mask = k == comp
            assert np.array_equal(values[mask], f.values_on_line(StateVector(components=row), u[mask]))


def masked_block_values(f, mu, stream, start, count):
    """The per-component reference: mask each component's samples and searchsorted its cumulative weights."""
    k, u = _draw_block(mu, _components(mu), stream, start, count)
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
        k, u, pieces = _block_values(_sampling_tables(f, mu), mu, stream, 100, 5000, _block_arrays(5000))
        assert np.array_equal(k, _draw_block(mu, _components(mu), stream, 100, 5000)[0])
        assert np.array_equal(f.values[pieces], masked_block_values(f, mu, stream, 100, 5000))

    @pytest.mark.parametrize("weights", [[0.25, 0.25, 0.5], [0.1, 0.2, 0.3, 0.4], [1.0]])
    def test_component_draw_is_clipped_right_searchsorted(self, weights):
        size = len(weights)
        mu = HiddenMixedState(ensemble=Ensemble(weights=weights, rays=np.eye(size)), gamma=UNIFORM)
        cumulative = np.minimum(np.cumsum(mu.ensemble.weights), 1.0)
        pinned = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], cumulative, np.nextafter(cumulative, 0.0)))

        class PinnedStream(SampleStream):  # the first words of the block sit on the cumulative weights
            def raw_words(self, start, count, width, out, rng=None):
                words = super().raw_words(start, count, width, out, rng)
                words[: pinned.size, 0] = pinned
                return words

        stream = PinnedStream(seed=11)
        first = fresh_words(stream, 0, 1000, SAMPLE_WORDS["uniform"])[:, 0]
        expected = np.minimum(np.searchsorted(cumulative, first, "right"), size - 1)
        k, _ = _draw_block(mu, _components(mu), stream, 0, 1000)
        assert np.array_equal(k, expected)
        # a worker's generator, moved on by an earlier block, and its arrays, holding that block's values
        rng, arrays = stream.generator(), _block_arrays(1000)
        _draw_block(mu, _components(mu), stream, 5000, 1000, arrays, rng)
        k, _ = _draw_block(mu, _components(mu), stream, 0, 1000, arrays, rng)
        assert np.array_equal(k, expected)


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
        # four d=8 blocks, against the row-at-a-time f-string formatting of one draw of the whole range
        rng = np.random.default_rng(65)
        f = build_hidden_observable(random_hermitian(rng, 8), UNIFORM)
        mu = mixed(random_density(rng, 8))
        n = 65536
        k, u, pieces = _block_values(_sampling_tables(f, mu), mu, SampleStream(seed=7), 0, n, _block_arrays(n))
        expected = "component_index,u,value\n" + "".join(
            f"{ki},{ui:.17g},{vi:.17g}\n" for ki, ui, vi in zip(k, u, f.values[pieces])
        )
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=7), n, buf)
        assert buf.getvalue().encode() == expected.encode()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_blocks_are_drawn_at_most_workers_ahead_of_the_rows_written(self, monkeypatch, workers):
        f, mu = self.make()
        stream, buf, drawn = SampleStream(seed=5, block_size=100), io.StringIO(), {}

        def recording(*args):  # args[3] is the block's first sample
            drawn[args[3] // stream.block_size] = max(buf.getvalue().count("\n") - 1, 0)
            return _block_values(*args)

        monkeypatch.setattr("hobs.mixed._block_values", recording)
        dump_samples_csv(f, mu, stream, 1000, buf, workers=workers)
        assert sorted(drawn) == list(range(10))
        for j, rows in drawn.items():  # the rows of blocks 0 .. j - workers are out before block j is drawn
            assert rows >= (j - workers + 1) * stream.block_size, (j, rows)

    def test_dimension_mismatch_raises_before_the_header(self):
        f = build_hidden_observable(op(np.eye(3)), UNIFORM)
        buf = io.StringIO()
        with pytest.raises(DimensionMismatch):
            dump_samples_csv(f, mixed(DensityMatrix(entries=np.eye(2) / 2)), SampleStream(seed=1), 10, buf)
        assert buf.getvalue() == ""

    def test_seventeen_significant_digits(self):
        f, mu = self.make()
        buf = io.StringIO()
        dump_samples_csv(f, mu, SampleStream(seed=1), 5, buf)
        first = buf.getvalue().splitlines()[1]
        u_text = first.split(",")[1]
        assert float(u_text) == float(f"{float(u_text):.17g}")
        assert len(u_text.replace(".", "").lstrip("0")) >= 15
