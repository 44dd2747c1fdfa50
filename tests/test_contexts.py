import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PAULI_X, PAULI_Z, op, random_hermitian, random_projector, state

from hobs import (
    DegeneracyResolutionFailure,
    DimensionMismatch,
    HiddenPoint,
    NotCommuting,
    NotOrthogonalFamily,
    SHARED_U_CAVEAT,
    build_hidden_observable,
    context_combine,
    homomorphism_check,
    joint_diagonalize,
    line_mean,
    line_weights,
    make_partition_context,
    nogo_witness,
    orthodoxy_reconstruct,
    parse,
    quantile,
    random_ray,
    spectral_projector,
    statistical_equivalence_check,
    validate_hermitian,
)


def random_commuting_family(rng, dim, size):
    """Polynomials of one random generator, the canonical commuting family."""
    base = random_hermitian(rng, dim)
    family = []
    for _ in range(size):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        entries = sum(c * np.linalg.matrix_power(base.entries, k) for k, c in enumerate(coeffs))
        family.append(validate_hermitian(entries))
    return family


class TestJointDiagonalize:
    def test_already_diagonal_pair(self):
        ctx = joint_diagonalize([op(np.diag([1.0, 2.0])), op(np.diag([3.0, 3.0]))])
        assert np.array_equal(ctx.decomposition.eigenvalues, [1.0, 2.0])
        assert dict(enumerate(ctx.members[0].values, start=1)) == {1: 1.0, 2: 2.0}
        assert dict(enumerate(ctx.members[1].values, start=1)) == {1: 3.0, 2: 3.0}

    def test_identity_single_eigenspace(self):
        ctx = joint_diagonalize([op(np.eye(3))])
        assert np.array_equal(ctx.decomposition.eigenvalues, [1.0])
        assert dict(enumerate(ctx.members[0].values, start=1)) == {1: 1.0}

    def test_involution_and_its_square(self):
        # joint basis is the eigenbasis of X; X^2 = I is constant on it
        ctx = joint_diagonalize([op(PAULI_X), op(PAULI_X @ PAULI_X)])
        w, v = np.linalg.eigh(PAULI_X)  # independent eigensolver oracle
        table_x = dict(enumerate(ctx.members[0].values, start=1))
        assert table_x[1] == pytest.approx(w[0], abs=1e-10)
        assert table_x[2] == pytest.approx(w[1], abs=1e-10)
        assert dict(enumerate(ctx.members[1].values, start=1)) == pytest.approx({1: 1.0, 2: 1.0}, abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 6])
    @pytest.mark.parametrize("shift", [-1e8, 1e8, 1e4])
    @pytest.mark.parametrize("seed", range(3))
    def test_common_offset_keeps_joint_eigenspaces_apart(self, dim, shift, seed):
        # T = shift*I + 0.01*H has d distinct eigenvalues, which a cluster
        # tolerance scaled by the offset instead of the spread would merge
        rng = np.random.default_rng(seed)
        T = shift * np.eye(dim) + random_hermitian(rng, dim, scale=0.01).entries
        ctx = joint_diagonalize([op(T), op(T @ T - T)])
        assert ctx.n_labels == dim
        np.testing.assert_allclose(np.sort(ctx.members[0].values), np.linalg.eigvalsh(T), rtol=0.0, atol=1e-6)

    def test_non_commuting_rejected(self):
        with pytest.raises(NotCommuting):
            joint_diagonalize([op(PAULI_X), op(PAULI_Z)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            joint_diagonalize([op(np.eye(2)), op(np.eye(3))])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            joint_diagonalize([])

    @pytest.mark.parametrize("seed", range(6))
    def test_labels_and_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 10))
        family = random_commuting_family(rng, dim, size=int(rng.integers(2, 5)))
        ctx = joint_diagonalize(family)
        m = len(ctx.decomposition.eigenvalues)
        assert np.array_equal(ctx.decomposition.eigenvalues, np.arange(1, m + 1, dtype=float))
        for member in ctx.members:
            rebuilt = sum(
                value * spectral_projector(ctx.decomposition, parse(f"ind({label}, {label})"))
                for label, value in enumerate(member.values, start=1)
            )
            scale = max(1.0, np.linalg.norm(member.operator.entries))
            assert np.linalg.norm(rebuilt - member.operator.entries) <= 1e-8 * scale

    def test_transfer_through_functional_calculus_rebuilds_member(self):
        from hobs import apply_borel

        rng = np.random.default_rng(50)
        ctx = joint_diagonalize(random_commuting_family(rng, 5, 2))
        for member in ctx.members:
            table = member.values
            rebuilt = apply_borel(ctx.decomposition, lambda lam: table[int(round(lam)) - 1])
            scale = max(1.0, np.linalg.norm(member.operator.entries))
            assert np.linalg.norm(rebuilt.entries - member.operator.entries) <= 1e-8 * scale

    def test_misjudged_commuting_pair_fails_reconstruction(self):
        # 2^-20 (Z, X) passes commutes() under its absolute floor; the blocks refined on Z cannot carry X
        with pytest.raises(DegeneracyResolutionFailure):
            joint_diagonalize([op(2.0**-20 * PAULI_Z), op(2.0**-20 * PAULI_X)])

    @given(
        dim=st.integers(2, 8),
        digits=st.lists(st.lists(st.integers(0, 2), min_size=8, max_size=8), min_size=1, max_size=3),
        exponents=st.lists(st.integers(0, 40), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_members_split_at_their_own_scales(self, dim, digits, exponents, seed):
        # members diagonal in one unitary basis, with repeated values and scales up to 2^40 apart: the labels
        # are the distinct joint value tuples, whatever each member's scale
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        values = [np.ldexp(np.array(row[:dim], dtype=float), e) for row, e in zip(digits, exponents)]
        rotated = [(q * v) @ q.conj().T for v in values]
        family = [validate_hermitian((m + m.conj().T) / 2) for m in rotated]
        ctx = joint_diagonalize(family)
        assert ctx.n_labels == len(set(zip(*(v.tolist() for v in values))))
        for member in ctx.members:
            rebuilt = ctx.decomposition.operator_with_values(member.values)
            scale = max(1.0, np.linalg.norm(member.operator.entries))
            assert np.linalg.norm(rebuilt - member.operator.entries) <= 1e-8 * scale

    def test_generator_spectrum_is_exact_integers(self):
        rng = np.random.default_rng(40)
        ctx = joint_diagonalize(random_commuting_family(rng, 6, 3))
        assert ctx.f0.decomposition.eigenvalues.dtype == np.float64
        assert all(float(x).is_integer() for x in ctx.f0.decomposition.eigenvalues)


class TestContextMembers:
    def test_constant_member(self):
        ctx = joint_diagonalize([op(np.diag([1.0, 2.0])), op(np.diag([3.0, 3.0]))])
        g = ctx.members[1]
        rng = np.random.default_rng(1)
        for _ in range(10):
            point = HiddenPoint(ray=random_ray(rng, 2), u=float(rng.uniform(0.01, 0.99)))
            assert g.evaluate(point) == 3.0

    def test_generator_member_matches_f0(self):
        rng = np.random.default_rng(2)
        base = random_hermitian(rng, 4)
        ctx = joint_diagonalize([base])
        g = ctx.members[0]
        for _ in range(10):
            point = HiddenPoint(ray=random_ray(rng, 4), u=float(rng.uniform(0.01, 0.99)))
            label = ctx.f0.evaluate(point)
            assert g.evaluate(point) == ctx.members[0].values[int(label) - 1]

    def test_involution_member_matches_standalone_quantile(self):
        rng = np.random.default_rng(3)
        ctx = joint_diagonalize([op(PAULI_X)])
        g = ctx.members[0]
        f = build_hidden_observable(op(PAULI_X))
        psi = state(1, 0)
        for u in rng.uniform(0.01, 0.99, size=25):
            direct = quantile(f.decomposition, psi, float(u))
            assert g.evaluate(HiddenPoint(ray=psi, u=float(u))) == pytest.approx(direct, abs=1e-10)

    def test_reconstructed_operator_is_member(self):
        rng = np.random.default_rng(4)
        family = random_commuting_family(rng, 5, 3)
        ctx = joint_diagonalize(family)
        for i, member in enumerate(ctx.members):
            rebuilt = orthodoxy_reconstruct(ctx.members[i], rng=rng)
            scale = max(1.0, np.linalg.norm(member.operator.entries))
            assert np.linalg.norm(rebuilt.entries - member.operator.entries) <= 1e-8 * scale

    def test_statistically_equivalent_to_standalone(self):
        rng = np.random.default_rng(5)
        family = random_commuting_family(rng, 6, 2)
        ctx = joint_diagonalize(family)
        rays = [random_ray(rng, 6) for _ in range(15)]
        for i, member in enumerate(ctx.members):
            standalone = build_hidden_observable(member.operator)
            report = statistical_equivalence_check(ctx.members[i], standalone, rays, weight_tol=1e-10)
            assert report.passed, report.failures


class TestContextCombine:
    def test_hand_sum(self):
        ctx = joint_diagonalize([op(np.diag([1.0, 2.0])), op(np.diag([3.0, 3.0]))])
        fn, operator = context_combine(ctx, [2.0, 3.0], "sum")
        assert dict(enumerate(fn.values, start=1)) == {1: 11.0, 2: 13.0}
        np.testing.assert_allclose(operator.entries, np.diag([11.0, 13.0]), atol=1e-12)

    def test_sum_of_opposites_is_zero(self):
        rng = np.random.default_rng(6)
        A = random_hermitian(rng, 3)
        ctx = joint_diagonalize([A, validate_hermitian(-A.entries)])
        fn, operator = context_combine(ctx, [1.0, 1.0], "sum")
        np.testing.assert_allclose(fn.values, 0.0, atol=1e-10)
        np.testing.assert_allclose(operator.entries, 0.0, atol=1e-10)

    def test_product_squares_member(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(rng, 3)
        ctx = joint_diagonalize([A, A])
        fn, operator = context_combine(ctx, [1.0, 1.0], "product")
        np.testing.assert_allclose(fn.values, ctx.members[0].values ** 2, atol=1e-12)
        scale = max(1.0, np.linalg.norm(A.entries) ** 2)
        assert np.linalg.norm(operator.entries - A.entries @ A.entries) <= 1e-10 * scale

    def test_coefficient_count_checked(self):
        ctx = joint_diagonalize([op(np.eye(2))])
        with pytest.raises(ValueError):
            context_combine(ctx, [1.0, 2.0], "sum")


class TestHomomorphismCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_family_exactly_closed(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        ctx = joint_diagonalize(random_commuting_family(rng, dim, 3))
        report = homomorphism_check(ctx, trials=8, rng=rng)
        assert report.passed
        assert report.max_additive_deviation == 0.0
        assert report.max_multiplicative_deviation == 0.0
        assert report.max_operator_error <= 1e-8

    def test_single_member_degenerate_pass(self):
        rng = np.random.default_rng(19)
        ctx = joint_diagonalize([random_hermitian(rng, 3)])
        assert homomorphism_check(ctx, trials=4, rng=rng).passed

    def test_diagonal_family_operator_sums(self):
        ctx = joint_diagonalize([op(np.diag([1.0, 2.0])), op(np.diag([3.0, 3.0]))])
        report = homomorphism_check(ctx, trials=8)
        assert report.passed


class TestNogoWitness:
    def test_diagonal_pair_takes_commuting_branch(self):
        report = nogo_witness(op(np.diag([1.0, 2.0])), op(np.diag([5.0, 5.0])), search=16)
        assert report.branch == "commuting"
        assert report.context is not None
        assert SHARED_U_CAVEAT in report.caveats

    def test_equal_operators_commute(self):
        rng = np.random.default_rng(8)
        A = random_hermitian(rng, 3)
        report = nogo_witness(A, A, search=16, rng=rng)
        assert report.branch == "commuting"

    def test_pauli_pair_reaches_maximal_gap(self):
        report = nogo_witness(
            op(PAULI_Z), op(PAULI_X), search=512, rng=np.random.default_rng(0)
        )
        assert report.branch == "witness"
        assert report.gap >= 2.0 - 1e-6
        assert report.gap <= 2.0 + 1e-9
        assert report.reconstruction_error <= 1e-10
        assert report.witness_ray is not None

    def test_witness_ray_attains_reported_gap(self):
        from hobs import SharedParameterSum, StateVector, orthodoxy_second_moment_gap

        report = nogo_witness(
            op(PAULI_Z), op(PAULI_X), search=128, rng=np.random.default_rng(1)
        )
        h = SharedParameterSum(
            parts=(build_hidden_observable(op(PAULI_Z)), build_hidden_observable(op(PAULI_X)))
        )
        total = validate_hermitian(PAULI_Z + PAULI_X)
        psi = StateVector(components=report.witness_ray)
        assert orthodoxy_second_moment_gap(h, total, psi) == pytest.approx(report.gap, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dichotomy_exactly_one_branch(self, dim):
        rng = np.random.default_rng(dim * 100)
        for _ in range(5):
            A = random_hermitian(rng, dim)
            B = random_hermitian(rng, dim)
            report = nogo_witness(A, B, search=256, rng=rng)
            from hobs import commutes

            if commutes(A, B):
                assert report.branch == "commuting"
            else:
                assert report.branch == "witness"
                assert report.gap > report.gap_threshold

    @pytest.mark.parametrize("search", [1, 700, 1024])
    def test_rng_state_matches_sequential_random_rays(self, search):
        # orthodoxy_reconstruct draws its 32 validation rays first
        rng = np.random.default_rng(31)
        A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
        after = np.random.default_rng(5)
        nogo_witness(A, B, search=search, rng=after, polish_budget=10)
        expected = np.random.default_rng(5)
        for _ in range(32 + search):
            random_ray(expected, 3)
        assert after.bit_generator.state == expected.bit_generator.state


def _sequential_compass(objective, v0, budget):
    """One move scored at a time: the reference the batched polish must reproduce.

    Also returns the accepted moves and, per sweep, the evaluation count
    and the point reached when it ends.
    """
    best_v, best = v0.copy(), objective(v0[None, :])[0]
    accepted, sweeps, evals, delta = [], [], 0, 0.25
    while delta > 1e-12 and evals < budget:
        while evals < budget:
            improved = False
            for i in range(best_v.size):
                for sign in (1.0, -1.0):
                    cand = best_v.copy()
                    cand[i] += sign * delta
                    if not np.any(cand):
                        continue
                    val = objective(cand[None, :])[0]
                    evals += 1
                    if val > best:
                        best, best_v, improved = val, cand, True
                        accepted.append(cand)
            sweeps.append((evals, best_v, best))
            if not improved:
                break
        delta *= 0.5
    return best_v, best, accepted, sweeps


class TestCompassPolish:
    @staticmethod
    def objective(rows):
        # piecewise smooth with a ridge and a kink, maximum away from the start
        target = np.array([0.3, -1.1, 0.7, 0.0])
        return -np.abs(rows - target).sum(axis=1) - 0.5 * np.abs(rows[:, 0] + rows[:, 1] + 0.2) + 0.1 * rows[:, 2]

    def test_matches_the_sequential_search(self):
        from hobs.contexts import _compass_polish

        # the start sits one step from the origin, so a zero candidate is skipped
        v0 = np.array([0.25, 0.0, 0.0, 0.0])
        best_v, best, accepted, sweeps = _sequential_compass(self.objective, v0, 20000)
        assert sweeps[-1][0] < 20000 and len(accepted) > 10
        v, value = _compass_polish(self.objective, v0, 20000)
        assert np.array_equal(v, best_v) and value == best
        # the budget is checked between sweeps: a budget of n evaluations stops
        # at the end of the first sweep that brings the count to n or more
        for k, (evals, point, point_value) in enumerate(sweeps):
            for budget in (evals, evals + 1):
                expected = sweeps[k if budget == evals else min(k + 1, len(sweeps) - 1)]
                v, value = _compass_polish(self.objective, v0, budget)
                assert np.array_equal(v, expected[1]) and value == expected[2], budget

    def test_accepts_the_same_moves_a_sweep_per_call(self):
        from hobs.contexts import _compass_polish

        calls, improvers = [], []

        def recorded(rows):
            values = self.objective(rows)
            better = np.flatnonzero(values > (improvers[-1][1] if improvers else -np.inf))
            if better.size:  # the first row beating the best so far is the move taken
                improvers.append((rows[better[0]], values[better[0]]))
            calls.append(len(rows))
            return values

        v0 = np.array([0.25, 0.0, 0.0, 0.0])
        _, _, accepted, sweeps = _sequential_compass(self.objective, v0, 20000)
        _compass_polish(recorded, v0, 20000)
        assert len(improvers) == 1 + len(accepted)
        assert all(np.array_equal(row, move) for (row, _), move in zip(improvers[1:], accepted))
        assert len(calls) <= 1 + len(accepted) + len(sweeps) < sweeps[-1][0]
        assert max(calls) == 2 * v0.size


class TestPartitionContext:
    def test_single_full_projector(self):
        member = context_combine(make_partition_context([np.eye(2)]), [5.0])[0]
        rng = np.random.default_rng(9)
        for _ in range(5):
            point = HiddenPoint(ray=random_ray(rng, 2), u=float(rng.uniform(0.01, 0.99)))
            assert member.evaluate(point) == 5.0
        np.testing.assert_allclose(member.operator.entries, 5.0 * np.eye(2), atol=1e-12)

    def test_projector_and_complement(self):
        rng = np.random.default_rng(10)
        E = random_projector(rng, 4, 2)
        member = context_combine(make_partition_context([E, np.eye(4) - E]), [1.0, 0.0])[0]
        np.testing.assert_allclose(member.operator.entries, E, atol=1e-10)
        for _ in range(10):
            psi = random_ray(rng, 4)
            from hobs import expectation

            weight = line_mean(member, psi)
            assert weight == pytest.approx(expectation(validate_hermitian(E), psi), abs=1e-10)

    def test_rank_one_basis_family(self):
        projectors = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        member = context_combine(make_partition_context(projectors), [1.0, 2.0, 3.0])[0]
        np.testing.assert_allclose(member.operator.entries, np.diag([1.0, 2.0, 3.0]), atol=1e-12)
        rebuilt = orthodoxy_reconstruct(member)
        np.testing.assert_allclose(rebuilt.entries, np.diag([1.0, 2.0, 3.0]), atol=1e-8)

    def test_member_values_are_coefficients_or_zero(self):
        rng = np.random.default_rng(11)
        E1 = random_projector(rng, 5, 1)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        # build a second projector orthogonal to E1 from its kernel
        kernel = q - (E1 @ q)
        kernel, _ = np.linalg.qr(kernel)
        E2 = np.outer(kernel[:, 0], kernel[:, 0].conj())
        ctx = make_partition_context([E1, E2])
        member = context_combine(ctx, [2.5, -1.5])[0]
        values = set()
        for _ in range(50):
            point = HiddenPoint(ray=random_ray(rng, 5), u=float(rng.uniform(0.01, 0.99)))
            values.add(member.evaluate(point))
        assert values <= {0.0, 2.5, -1.5}

    def test_disjoint_events_measures_add(self):
        rng = np.random.default_rng(12)
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        projectors = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)]
        ctx = make_partition_context(projectors)
        psi = random_ray(rng, 4)
        total = sum(line_mean(L, psi) for L in ctx.members)
        from hobs import expectation

        combined = validate_hermitian(np.sum(projectors, axis=0))
        assert total == pytest.approx(expectation(combined, psi), abs=1e-12)

    def test_generator_weights_match_projectors_with_complement(self):
        rng = np.random.default_rng(13)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        projectors = [basis[:, :1] @ basis[:, :1].conj().T, basis[:, 1:3] @ basis[:, 1:3].conj().T]
        ctx = make_partition_context(projectors)
        assert ctx.f0.values[0] == 0.0
        S = ctx.decomposition
        assert np.array_equal(S.eigenvalues, [0.0, 1.0, 2.0])
        family = [np.eye(6) - projectors[0] - projectors[1]] + projectors
        for _ in range(10):
            psi = random_ray(rng, 6)
            expected = [np.vdot(psi.components, P @ psi.components).real for P in family]
            np.testing.assert_allclose(line_weights(S, psi), expected, rtol=0, atol=1e-12)

    def test_orthogonality_enforced(self):
        E = np.diag([1.0, 0.0])
        with pytest.raises(NotOrthogonalFamily):
            make_partition_context([E, E])

    def test_zero_projector_rejected(self):
        with pytest.raises(NotOrthogonalFamily):
            make_partition_context([np.zeros((2, 2))])

    def test_non_projector_rejected(self):
        with pytest.raises(NotOrthogonalFamily):
            make_partition_context([np.diag([0.5, 0.0])])

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("complement", [False, True])
    def test_combinations_close_exactly(self, dim, complement):
        # projectors onto consecutive column blocks of a random unitary, leaving the last column out for a complement
        rng = np.random.default_rng([dim, complement])
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        stop = dim - int(complement)
        cuts = np.sort(rng.choice(np.arange(1, stop), size=int(rng.integers(0, stop)), replace=False))
        edges = [0, *cuts.tolist(), stop]
        projectors = [basis[:, a:b] @ basis[:, a:b].conj().T for a, b in zip(edges, edges[1:])]
        ctx = make_partition_context(projectors)
        assert (ctx.f0.values[0] == 0.0) == complement
        report = homomorphism_check(ctx, trials=8, rng=rng)
        assert report.passed
        assert report.max_additive_deviation == 0.0
        assert report.max_multiplicative_deviation == 0.0
        assert report.max_operator_error <= 1e-8
        coeffs = rng.uniform(-2.0, 2.0, size=len(projectors))
        fn, operator = context_combine(ctx, coeffs)
        assert set(fn.values.tolist()) <= {0.0, *coeffs.tolist()}
        np.testing.assert_allclose(operator.entries, np.tensordot(coeffs, projectors, axes=1), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_projector_rejected(self, bad):
        with pytest.raises(NotOrthogonalFamily):
            make_partition_context([np.eye(2), np.diag([bad, 0.0])])
