"""Commutative context algebras driven by one generator observable.

A context packages a commuting operator family as transfer tables over
a common generator: joint-diagonalizing the family (each member's
eigenspaces found inside those of the members before it) yields integer
labels 1..m for the joint eigenspaces, a generator operator carrying
exactly those labels as eigenvalues, and per-member tables reading each
operator's value on each joint eigenspace.  Every member function then
factors through the single generator value, which is why sums and
products inside a context are exact pointwise, not merely in
distribution.

For a non-commuting pair no context exists; the witness search couples
the two observable functions on a shared hidden parameter and hunts
for a ray where the second moment of the sum departs from the operator
prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegeneracyResolutionFailure,
    NonFiniteInput,
    NotAProjector,
    NotCommuting,
    NotOrthogonalFamily,
)
from .kernel import (
    PROJECTOR_TOL,
    RECONSTRUCT_TOL,
    WITNESS_BLOCK,
    HiddenObservable,
    SharedParameterSum,
    _cumulative,
    _piece_index,
    _random_rows,
    build_hidden_observable,
    draw_u,
    line_weights,
    orthodoxy_reconstruct,
    orthodoxy_second_moment_gap,
    proposition_from_projector,
    random_ray,
)
from .spectral import (
    EIGENVALUE_MERGE_RTOL,
    HERMITICITY_RTOL,
    HermitianOperator,
    SpectralDecomposition,
    _binary_scale,
    _check_dims,
    _cluster_means,
    _cluster_offsets,
    _relative_error,
    commutes,
    validate_hermitian,
)

OPERATOR_SIDE_TOL = 1e-8

SHARED_U_CAVEAT = (
    "the hidden parameter u is shared by all observables evaluated in one "
    "experiment run; this coupling is a modeling convention, and witnesses "
    "certify non-orthodox behaviour only under it"
)


@dataclass(frozen=True)
class Context:
    """A commuting family expressed as transfer tables over one generator.

    f0 is the generator observable, valued in one label per piece of its
    partition: 1..m for the joint eigenspaces of a family, 0 on the
    complement and then 1..n for a partition context.  Each member shares
    f0's decomposition and carries its operator's value on each piece.
    """

    f0: HiddenObservable
    members: tuple[HiddenObservable, ...]

    @property
    def decomposition(self) -> SpectralDecomposition:
        return self.f0.decomposition

    @property
    def dim(self) -> int:
        return self.f0.dim

    @property
    def n_labels(self) -> int:
        return len(self.decomposition.eigenvalues)


def joint_diagonalize(family: Sequence[HermitianOperator]) -> Context:
    """Build the context of a commuting family by successive refinement.

    Starting from one block, the identity basis, each member in family
    order is compressed to every block wider than one column and
    eigendecomposed there; the block is split wherever consecutive
    eigenvalues differ by more than EIGENVALUE_MERGE_RTOL times the
    member's spread (at least 1) or HERMITICITY_RTOL times its norm,
    whichever is larger.  Each member must then act as a scalar on each
    final block, verified by reconstructing it from its transfer table.
    """
    ops = list(family)
    if not ops:
        raise ValueError("family must be non-empty")
    dim = ops[0].dim
    for op in ops[1:]:
        _check_dims(dim, op.dim)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not commutes(ops[i], ops[j]):
                raise NotCommuting(f"family members {i} and {j} do not commute within tolerance")
    v = np.eye(dim, dtype=complex)
    offsets = np.array([0])
    for op in ops:
        # a copy scaled by a power of two s cannot overflow; its mean eigenvalue is removed, since a common
        # offset moves no eigenspace and would otherwise set the split tolerance
        s = _binary_scale(op.entries)
        scaled = s * op.entries
        a = scaled - np.trace(scaled).real / dim * np.eye(dim)
        # the shift-invariant rule, floored at the rounding residue that validate_hermitian tolerates
        floor = HERMITICITY_RTOL * float(np.linalg.norm(scaled))
        gap_tol = max(EIGENVALUE_MERGE_RTOL * max(s, float(np.linalg.norm(a))), floor)
        starts = []
        for start, stop in zip(offsets, np.append(offsets[1:], dim)):
            if stop - start > 1:
                q = v[:, start:stop]
                w, u = np.linalg.eigh(q.conj().T @ a @ q)
                v[:, start:stop] = q @ u
                starts.append(start + _cluster_offsets(w, gap_tol))
            else:
                starts.append([start])
        offsets = np.concatenate(starts)
    labels = np.arange(1, len(offsets) + 1, dtype=float)
    decomposition = SpectralDecomposition(eigenvalues=labels, vectors=v, offsets=offsets)
    transfers = []
    for i, op in enumerate(ops):
        table = _cluster_means(np.diag(v.conj().T @ op.entries @ v).real, offsets)[0]
        error = _relative_error(decomposition.operator_with_values(table), op.entries)
        if error > RECONSTRUCT_TOL:
            raise DegeneracyResolutionFailure(
                f"the refined joint eigenspaces do not reconstruct family member {i} (relative error {error:.3e})"
            )
        transfers.append(table)
    generator = HermitianOperator(entries=decomposition.operator_with_values(labels))
    f0 = HiddenObservable(operator=generator, decomposition=decomposition, values=labels)
    members = tuple(replace(f0, operator=op, values=table) for op, table in zip(ops, transfers))
    return Context(f0=f0, members=members)


def _combined_table(tables: np.ndarray, coeffs: np.ndarray, op: str) -> np.ndarray:
    # per-label reductions mirror the pointwise ones in homomorphism_check
    # exactly (same np.dot / np.prod calls), keeping both sides bit-identical
    if op == "sum":
        return np.array([np.dot(coeffs, tables[:, j]) for j in range(tables.shape[1])])
    return np.array([np.prod(coeffs * tables[:, j]) for j in range(tables.shape[1])])


def context_combine(
    ctx: Context, coeffs: Sequence[float], op: str = "sum"
) -> tuple[HiddenObservable, HermitianOperator]:
    """Pointwise combination of member functions, paired with the operator.

    "sum" builds sum of c_i * f_i, "product" the product of c_i * f_i;
    the paired operator is the same combination of member operators.
    """
    if op not in ("sum", "product"):
        raise ValueError(f"op must be 'sum' or 'product', got {op!r}")
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.shape != (len(ctx.members),):
        raise ValueError(f"need {len(ctx.members)} coefficients, got {coeffs.shape}")
    tables = np.array([m.values for m in ctx.members])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned about
        table = _combined_table(tables, coeffs, op)
        if op == "sum":
            entries = np.tensordot(coeffs, [m.operator.entries for m in ctx.members], axes=1)
        else:
            entries = np.eye(ctx.dim, dtype=complex)
            for c, member in zip(coeffs, ctx.members):
                entries = entries @ (c * member.operator.entries)
    if not (np.all(np.isfinite(table)) and np.all(np.isfinite(entries))):
        raise NonFiniteInput(f"the {op} combination of this family is not representable in double precision")
    operator = validate_hermitian(entries)
    return replace(ctx.f0, operator=operator, values=table), operator


@dataclass(frozen=True)
class HomomorphismReport:
    trials: int
    max_additive_deviation: float  # pointwise; zero when exact
    max_multiplicative_deviation: float
    max_operator_error: float  # reconstructed vs combined operator, Frobenius
    operator_tolerance: float
    passed: bool


def homomorphism_check(
    ctx: Context,
    trials: int = 16,
    rng: np.random.Generator | None = None,
    *,
    operator_tol: float = OPERATOR_SIDE_TOL,
) -> HomomorphismReport:
    """Verify algebra closure through the generator.

    Pointwise: for random coefficients and random hidden points, the
    combined function equals the combination of member values exactly
    (both reduce the same table column).  Operator side: the operator
    reconstructed from the combined function's first moments matches
    the combined operator within operator_tol.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    tables = np.array([m.values for m in ctx.members])
    max_add = 0.0
    max_mul = 0.0
    max_op = 0.0
    for _ in range(trials):
        coeffs = rng.uniform(-2.0, 2.0, size=len(ctx.members))
        psi = random_ray(rng, ctx.dim)
        u = float(draw_u(rng, 1)[0])
        idx = int(_piece_index(_cumulative(line_weights(ctx.decomposition, psi)), u))
        column = tables[:, idx]

        fn_sum, op_sum = context_combine(ctx, coeffs, "sum")
        max_add = max(max_add, abs(float(fn_sum.values[idx]) - float(np.dot(coeffs, column))))
        fn_prod, op_prod = context_combine(ctx, coeffs, "product")
        max_mul = max(max_mul, abs(float(fn_prod.values[idx]) - float(np.prod(coeffs * column))))

        for fn, op in ((fn_sum, op_sum), (fn_prod, op_prod)):
            rebuilt = orthodoxy_reconstruct(fn, rng=rng)
            max_op = max(max_op, _relative_error(rebuilt.entries, op.entries))
    passed = max_add == 0.0 and max_mul == 0.0 and max_op <= operator_tol
    return HomomorphismReport(
        trials=trials,
        max_additive_deviation=max_add,
        max_multiplicative_deviation=max_mul,
        max_operator_error=max_op,
        operator_tolerance=operator_tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# The no-go dichotomy witness


@dataclass(frozen=True)
class NogoReport:
    branch: str  # "commuting" | "witness" | "inconclusive"
    gap: float
    gap_threshold: float
    witness_ray: Optional[np.ndarray]
    reconstruction_error: float
    context: Optional[Context]
    caveats: tuple[str, ...]


def _compass_polish(objective, v0: np.ndarray, budget: int) -> tuple[np.ndarray, float]:
    """Deterministic pattern search maximizing a piecewise-smooth objective.

    Shrinking +-delta coordinate moves, tried in order: the first that
    improves is taken, and the later ones are tried again from there.
    `objective` scores matrix rows, one call for the moves left in a sweep;
    `budget` counts moves as a one-at-a-time search scores them.  Converges
    onto ridge maxima the random stage can only approach, as the exact-gap bound needs.
    """
    best_v = v0.copy()
    best = objective(best_v[None, :])[0]
    steps = np.repeat(np.eye(v0.size), 2, axis=0) * np.tile([1.0, -1.0], v0.size)[:, None]
    evals = 0
    delta = 0.25
    while delta > 1e-12 and evals < budget:
        while evals < budget:
            improved, start = False, 0
            while start < len(steps):
                cands = best_v + delta * steps[start:]
                moves = np.flatnonzero(np.any(cands, axis=1))  # zero candidates are skipped
                values = objective(cands[moves])
                better = np.flatnonzero(values > best)
                evals += better[0] + 1 if better.size else moves.size
                if better.size == 0:
                    break
                best, best_v, improved = values[better[0]], cands[moves[better[0]]], True
                start += moves[better[0]] + 1
            if not improved:
                break
        delta *= 0.5
    return best_v, best


def nogo_witness(
    A: HermitianOperator,
    B: HermitianOperator,
    search: int = 4096,
    rng: np.random.Generator | None = None,
    *,
    tolerance: float = 1e-10,
    polish_budget: int = 20000,
) -> NogoReport:
    """Resolve the dichotomy for a pair of operators.

    Commuting pairs get their context.  Otherwise the sum of the two
    observable functions on a shared hidden parameter is reconstructed
    (its first moments always give A+B) and random rays, then a
    deterministic polish, maximize the second-moment gap; a gap above
    10 * tolerance certifies the sum is no observable function under
    the shared-parameter convention.  If neither branch fires the
    report says inconclusive rather than passing silently.
    """
    _check_dims(A.dim, B.dim)
    rng = rng if rng is not None else np.random.default_rng(0)
    threshold = 10.0 * tolerance
    if commutes(A, B):
        ctx = joint_diagonalize([A, B])
        return NogoReport(
            branch="commuting",
            gap=0.0,
            gap_threshold=threshold,
            witness_ray=None,
            reconstruction_error=0.0,
            context=ctx,
            caveats=(SHARED_U_CAVEAT,),
        )

    h = SharedParameterSum(parts=(build_hidden_observable(A), build_hidden_observable(B)))
    candidate = orthodoxy_reconstruct(h, rng=rng)
    reconstruction_error = float(np.linalg.norm(candidate.entries - (A.entries + B.entries)))

    def objective(rays: np.ndarray) -> np.ndarray:  # a gap that overflows is never picked
        gaps = orthodoxy_second_moment_gap(h, candidate, rays)
        return np.where(np.isfinite(gaps), gaps, -np.inf)

    # blocks of the stream of `search` random_ray draws; the first largest gap wins
    best_ray, best_gap = None, -np.inf
    search = max(1, search)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, search, WITNESS_BLOCK):
            rays = _random_rows(rng, min(WITNESS_BLOCK, search - start), A.dim)
            gaps = objective(rays)
            k = int(np.argmax(gaps))
            if gaps[k] > best_gap:
                best_gap, best_ray = gaps[k], rays[k] / np.linalg.norm(rays[k])
        if best_ray is None:
            raise NonFiniteInput("the second-moment gap of this pair is not representable in double precision")
        chart = np.concatenate([best_ray.real, best_ray.imag])
        chart, best_gap = _compass_polish(lambda c: objective(c[:, : A.dim] + 1.0j * c[:, A.dim :]), chart, polish_budget)
    witness = chart[: A.dim] + 1.0j * chart[A.dim :]  # nonzero: the polish skips the zero vector

    branch = "witness" if best_gap > threshold else "inconclusive"
    return NogoReport(
        branch=branch,
        gap=float(best_gap),
        gap_threshold=threshold,
        witness_ray=witness / np.linalg.norm(witness),
        reconstruction_error=reconstruction_error,
        context=None,
        caveats=(SHARED_U_CAVEAT,),
    )


# ---------------------------------------------------------------------------
# Partition contexts (orthogonal projector families)


def make_partition_context(projectors: Sequence) -> Context:
    """Validate an orthogonal family of nonzero projectors and build its context.

    The generator carries label n on the range of the n-th projector
    (label 0 on the complement, when there is one), and member n is the
    indicator of label n, so the members are disjoint on every line and
    context_combine places a coefficient on each label.
    """
    mats = [np.array(E, dtype=complex) for E in projectors]
    if not mats:
        raise NotOrthogonalFamily("projector family must be non-empty")
    dim = mats[0].shape[0]
    props = []
    for idx, E in enumerate(mats):
        try:
            props.append(proposition_from_projector(E))
        except NotAProjector as exc:
            raise NotOrthogonalFamily(f"member {idx}: {exc}") from exc
        if E.shape != (dim, dim):
            raise NotOrthogonalFamily("projectors must share one dimension")
        if int(round(np.trace(E).real)) == 0:
            raise NotOrthogonalFamily(f"member {idx} is the zero projector")
    cleaned = [p.operator.entries for p in props]
    for i in range(len(cleaned)):
        for j in range(i + 1, len(cleaned)):
            if np.linalg.norm(cleaned[i] @ cleaned[j]) > PROJECTOR_TOL * dim:
                raise NotOrthogonalFamily(f"members {i} and {j} are not orthogonal")

    # each member's range basis is the eigenvalue-1 block of its proposition;
    # the complement's basis is the rest of a complete QR basis of their span
    blocks = [S.vectors[:, S.offsets[-1]:] for S in (p.decomposition for p in props)]
    ranges = np.hstack(blocks)
    complement = np.linalg.qr(ranges, mode="complete")[0][:, ranges.shape[1]:]
    eigenvalues = np.arange(1, len(blocks) + 1, dtype=float)
    if complement.shape[1] > 0:
        eigenvalues = np.concatenate(([0.0], eigenvalues))
        blocks = [complement] + blocks
    offsets = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    decomposition = SpectralDecomposition(eigenvalues=eigenvalues, vectors=np.hstack(blocks), offsets=offsets)
    generator = HermitianOperator(entries=decomposition.operator_with_values(eigenvalues))
    f0 = HiddenObservable(operator=generator, decomposition=decomposition, values=eigenvalues)
    members = tuple(replace(f0, operator=p.operator, values=eigenvalues == n) for n, p in enumerate(props, start=1))
    return Context(f0=f0, members=members)
