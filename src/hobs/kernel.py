"""Hidden parameter spaces over rays and quantile-built observable functions.

A hidden point is a ray of the Hilbert space plus a parameter u drawn
uniformly from (0, 1).  For a Hermitian operator T the associated
observable function evaluates, on each line, the quasi-inverse of the
step CDF

    F_psi(r) = sum of ||P_i psi||^2 / ||psi||^2 over eigenvalues <= r

at u, i.e. the smallest eigenvalue whose cumulative spectral weight
reaches u.  Every per-line integral here is a finite sum over spectral
weights, so the defining mean-value identities hold to rounding error,
not to sampling error.

The model defines u as arg(z)/2pi of a point z != 0 on the line drawn
from a rotation-invariant law (gamma_from_complex).  That law is uniform
on (0, 1), which the Kolmogorov-Smirnov helper below checks, so u is
drawn directly as a uniform word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonQuadraticFirstMoment,
    NotAProjector,
    ZeroInput,
)
from .spectral import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    _binary_scale,
    _check_dims,
    _cluster_means,
    _cluster_offsets,
    _readonly,
    _relative_error,
    expectation,
    function_values,
    spectral_decompose,
)

_TINY = np.nextafter(0.0, 1.0)  # smallest positive double; open-interval remap

PROJECTOR_TOL = 1e-10
WEIGHT_TOL = 1e-12
RECONSTRUCT_TOL = 1e-8  # held-out first moments may deviate from the candidate's by this times max(1, ||T||_2)
WITNESS_BLOCK = 512  # rays weighed per call; bounds a block's memory
SAMPLE_BLOCK = 16384  # hidden parameters drawn per block by a sampler; bounds a block's memory
KS_SIGNIFICANCE = 1e-3  # pushforward_ks's level alpha


# ---------------------------------------------------------------------------
# The hidden parameter model


@dataclass(frozen=True)
class GammaModel:
    """The hidden parameter model: u is uniform on (0, 1) on every line.

    It is the only model, and nothing reads it.  The type and `uniform()` remain only because the
    benchmark's stage timer still passes one to build_hidden_observable and to HiddenMixedState; they
    go, with those uses, in the benchmark change of ROADMAP items 4 and 9.
    """

    @classmethod
    def uniform(cls) -> "GammaModel":
        return cls()


def gamma_from_complex(z) -> np.ndarray:
    """Normalized argument of each entry of z, wrapped into the open interval (0, 1): the model's defining map.

    arg(z)/2pi lies in (-1/2, 1/2]; negative values wrap up by one and
    the boundary 0 (positive real axis) maps to the smallest positive
    double, a measure-zero remap that keeps the value interior.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(z):
        raise ZeroInput("argument of 0 is undefined")
    t = np.arctan2(z.imag, z.real) / (2.0 * math.pi)
    t = np.where(t < 0.0, t + 1.0, t)
    return np.where(t == 0.0, _TINY, t)[()]


def u_from_words(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map raw uniform words in [0, 1) to hidden parameters in (0, 1), written into `out` when one is given.

    This is the single place the parameter model touches raw
    randomness, so counter-based streams and ordinary generators
    produce identical values from identical words.
    """
    return np.maximum(w, _TINY, out=out)  # 0 is the only word below _TINY


def draw_u(rng: np.random.Generator, n: int) -> np.ndarray:
    """n hidden parameters from an ordinary numpy generator: two words a draw, u from word 0."""
    return u_from_words(rng.random((n, 2))[:, 0])


def _random_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n unnormalized Haar-uniform rays as rows: the stream of n random_ray draws, in order."""
    draws = rng.normal(size=(n, 2, dim))
    return draws[:, 0] + 1j * draws[:, 1]


def random_ray(rng: np.random.Generator, dim: int) -> StateVector:
    """A Haar-uniform ray representative on the unit sphere."""
    v = _random_rows(rng, 1, dim)[0]
    while not np.any(v):  # pragma: no cover - probability zero
        v = _random_rows(rng, 1, dim)[0]
    return StateVector(components=v / np.linalg.norm(v))


@dataclass(frozen=True)
class HiddenPoint:
    """A ray representative (normalized on construction) plus u in (0,1)."""

    ray: StateVector
    u: float

    def __post_init__(self):
        if not (0.0 < self.u < 1.0):
            raise ValueError(f"hidden parameter {self.u!r} outside (0, 1)")
        c = self.ray.components
        v = _binary_scale(c) * c  # a power of two: |v|^2 neither overflows nor underflows to 0
        object.__setattr__(self, "ray", StateVector(v / np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# Per-line spectral weights, CDF, quantile


def line_weights(S: SpectralDecomposition, psi: StateVector) -> np.ndarray:
    """Spectral weights p_i = ||P_i psi||^2 / ||psi||^2 on the line of psi."""
    _check_dims(S.dim, psi.dim)
    v = _binary_scale(psi.components) * psi.components  # a power of two: no square overflows or underflows to 0
    return _bulk_line_weights(S, v) / np.vdot(v, v).real


def _bulk_line_weights(S: SpectralDecomposition, rays: np.ndarray) -> np.ndarray:
    """Weights of unit rays (the last axis), shape (..., m): block sums of |<v_j, psi>|^2."""
    amplitudes = rays.conj() @ S.vectors
    return np.add.reduceat(amplitudes.real**2 + amplitudes.imag**2, S.offsets, axis=-1)


def _padded(edges: np.ndarray) -> tuple[np.ndarray, int]:
    """The rows _row_search_into searches, flattened, and their width: all but the last edge, padded with +inf."""
    inner = np.atleast_2d(edges)[:, :-1]
    width = 1 << inner.shape[1].bit_length()
    flat = np.full(inner.shape[0] * width, np.inf)
    flat.reshape(-1, width)[:, : inner.shape[1]] = inner
    return flat, width


def _row_search_into(table: tuple[np.ndarray, int], x: np.ndarray, rows, out: np.ndarray, scratch,
                     right: bool = False) -> np.ndarray:
    """min(searchsorted(edges[rows[i]], x[i], side), m - 1) per point of the 1-D x, by one branchless binary search.

    `table` is `_padded(edges)` for (K, m) edges with nondecreasing rows, or 1-D edges for one row (rows None).
    The clipped count over m edges is the count over the first m - 1, so only those are searched, padded with
    +inf to a power-of-two width.  Each pass steps past the edge it lands on when that edge is < x (<= x when
    `right`): the same count, ties included, as searchsorted.  x is never NaN here: u_from_words maps into (0, 1)
    and HiddenPoint validates its u.

    The counts are written into `out`, and `scratch` is an intp, a float and a bool array of x's size (the
    first only read when rows are given), so a call allocates no array.  Each pass keeps the position
    row * width + count, reads the edge it lands on through a view shifted by the step, and adds the step
    where that edge is before x.  One row's first pass starts every point at 0, so it compares x with one edge.
    """
    (flat, width), (pos, edge, hit) = table, scratch
    before, step = (np.less_equal if right else np.less), width >> 1
    if rows is None:  # a width-1 table compares x with its +inf pad and multiplies by step 0: no pass
        pos = np.multiply(before(flat[step - 1], x, out=hit), step, out=out)
        step >>= 1
    else:  # out keeps each row's start, subtracted at the end
        np.copyto(pos, np.multiply(rows, width, out=out))
    steps = edge.view(np.intp)  # the edges a pass read are spent when it adds its steps
    while step:
        # flat[pos + step - 1]; every position is in range, and mode="clip" writes into `edge` unbuffered
        np.take(flat[step - 1 :], pos, out=edge, mode="clip")
        pos += np.multiply(before(edge, x, out=hit), step, out=steps)
        step >>= 1
    if rows is not None:
        np.subtract(pos, out, out=out)
    return out


def _piece_index(cumulative: np.ndarray, u) -> np.ndarray:
    """First index with cumulative weight >= u (the quasi-inverse tie rule), in u's shape: a scalar, or an array."""
    x = np.ravel(u)
    out = np.empty(x.size, dtype=np.intp)
    _row_search_into(_padded(cumulative), x, None, out, (None, np.empty(x.size), np.empty(x.size, dtype=bool)))
    return out.reshape(np.shape(u))[()]


def _cumulative(weights: np.ndarray) -> np.ndarray:
    # clip before pinning the top so the array stays sorted even when
    # rounding pushes a partial sum a few ulp past 1
    c = np.minimum(weights.cumsum(axis=-1), 1.0)
    c[..., -1] = 1.0
    return c


def _quantile_values(values: np.ndarray, weights: np.ndarray, u) -> np.ndarray:
    """values at the pieces of u on a line whose spectral weights are `weights`."""
    return values[_piece_index(_cumulative(weights), u)]


def cdf(S: SpectralDecomposition, psi: StateVector, r: float) -> float:
    """F_psi(r): total spectral weight at or below r.

    Right-continuous step function; 0 below the spectrum, 1 at and
    above its top.
    """
    p = line_weights(S, psi)
    return float(np.sum(p[S.eigenvalues <= r]))


def quantile(S: SpectralDecomposition, psi: StateVector, u: float) -> float:
    """Smallest eigenvalue whose cumulative weight reaches u in (0, 1).

    At a jump, u equal to the cumulative weight selects the lower
    eigenvalue (the infimum rule); zero-weight eigenvalues are never
    returned.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"u={u!r} outside (0, 1)")
    return float(_quantile_values(S.eigenvalues, line_weights(S, psi), u))


# ---------------------------------------------------------------------------
# The quantile-built observable


@dataclass(frozen=True)
class HiddenObservable:
    """An observable function: a value table over a spectral partition.

    On each line, u selects a piece of `decomposition` by the per-line
    quantile of the spectral CDF, and the function takes that piece's
    entry of `values` (one per piece, in spectral order): the
    eigenvalues for the observable of an operator, a transfer table for
    a context member, {0, 1} for a proposition.  `operator` is the sum
    of values[i] * P_i.  The per-line pushforward of u equals the
    spectral weights exactly, so every per-line integral is a finite sum.
    """

    operator: HermitianOperator
    decomposition: SpectralDecomposition
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.decomposition.eigenvalues.shape:
            raise DimensionMismatch(f"{values.size} values for {self.decomposition.eigenvalues.size} spectral pieces")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def dim(self) -> int:
        return self.operator.dim

    def evaluate(self, point: HiddenPoint) -> float:
        return float(self.values_on_line(point.ray, point.u))

    def line_distribution(self, psi: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """Per-line value distribution as (values, weights), one entry per piece."""
        return np.array(self.values), line_weights(self.decomposition, psi)

    def values_on_line(self, psi: StateVector, u: np.ndarray) -> np.ndarray:
        """Vectorized evaluate for many parameters on one line."""
        return _quantile_values(self.values, line_weights(self.decomposition, psi), u)

    def line_means(self, rays: np.ndarray) -> np.ndarray:
        """Exact per-line means on the unit rows of `rays`."""
        return _bulk_line_weights(self.decomposition, rays) @ self.values


def build_hidden_observable(T: HermitianOperator, gamma: GammaModel | None = None) -> HiddenObservable:
    """The observable function of T; `gamma` is ignored, and stays only for perfbench/stages.py (ROADMAP item 9)."""
    S = spectral_decompose(T)
    return HiddenObservable(operator=T, decomposition=S, values=S.eigenvalues)


@dataclass(frozen=True)
class SharedParameterSum:
    """Pointwise sum of hidden functions fed by one shared hidden point.

    Sharing u across summands is a modeling convention, not a
    consequence of the construction; reports built on it carry that
    caveat.
    """

    parts: tuple

    def __post_init__(self):
        dims = {p.dim for p in self.parts}
        if len(self.parts) == 0 or len(dims) != 1:
            raise DimensionMismatch("summands must be nonempty and share one dimension")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def evaluate(self, point: HiddenPoint) -> float:
        return float(sum(p.evaluate(point) for p in self.parts))

    def line_means(self, rays: np.ndarray) -> np.ndarray:
        """Exact per-line means on unit rows: the sum of the parts' means, whatever couples them."""
        return sum(p.line_means(rays) for p in self.parts)

    @cached_property
    def _gap_tables(self):
        """The gap's constants: per part its eigenvectors, weight columns, values squared and values
        padded with the last; then the piece offsets of all parts in one row of amplitudes, and where C psi starts."""
        stops = np.cumsum([p.values.size for p in self.parts])
        laws = [(p.decomposition.vectors, slice(stop - p.values.size, stop), p.values * p.values,
                 np.append(p.values, p.values[-1])) for p, stop in zip(self.parts, stops)]
        columns = np.arange(len(self.parts) + 1) * self.dim
        return laws, np.concatenate([p.decomposition.offsets + c for p, c in zip(self.parts, columns)] + [columns[-1:]])


# ---------------------------------------------------------------------------
# Exact per-line integrals and the moment characterization


def line_integral_exact(f: HiddenObservable, b, psi: StateVector) -> float:
    """Exact mean of b(f) over one line: the finite sum of p_i * b(values_i)."""
    return float(np.dot(line_weights(f.decomposition, psi), function_values(b, f.values)))


def line_mean(h: HiddenObservable | SharedParameterSum, psi: StateVector) -> float:
    """Exact mean over the line of psi: the mean on the binary-scaled row over its squared norm, as line_weights divides."""
    v = _binary_scale(psi.components) * psi.components
    return float(h.line_means(v[None])[0] / np.vdot(v, v).real)


@dataclass(frozen=True)
class MomentReport:
    orders: tuple[int, ...]
    line_moments: tuple[float, ...]
    operator_moments: tuple[float, ...]
    errors: tuple[float, ...]
    scales: tuple[float, ...]  # max(1, ||T||_2^n), the per-order error scale
    tolerance: float
    passed: bool


def moments_check(f: HiddenObservable, psi: StateVector, n_max: int, tol: float) -> MomentReport:
    """Compare exact per-line moments of f with <T^n>_psi for n <= n_max.

    Passes when every per-order error is at most tol * max(1, ||T||_2^n),
    where ||T||_2 is the largest |value| of f.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = line_weights(f.decomposition, psi)
    lams = f.values
    norm = float(np.max(np.abs(lams)))
    orders, lhs, rhs, errs, scales = [], [], [], [], []
    power = np.eye(f.dim, dtype=complex)
    for n in range(n_max + 1):
        left = float(np.dot(p, lams**n))
        right = expectation(HermitianOperator(entries=(power + power.conj().T) / 2.0), psi)
        orders.append(n)
        lhs.append(left)
        rhs.append(right)
        errs.append(abs(left - right))
        scales.append(max(1.0, norm**n))
        power = power @ f.operator.entries
    passed = all(e <= tol * s for e, s in zip(errs, scales))
    return MomentReport(
        orders=tuple(orders),
        line_moments=tuple(lhs),
        operator_moments=tuple(rhs),
        errors=tuple(errs),
        scales=tuple(scales),
        tolerance=tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Orthodoxy: recovering the unique operator behind per-line first moments


def orthodoxy_reconstruct(
    h: HiddenObservable | SharedParameterSum,
    *,
    validation_rays: int = 32,
    rng: np.random.Generator | None = None,
) -> HermitianOperator:
    """The unique Hermitian candidate behind the per-line first moments of h.

    Polarization over the d^2 probe family {e_j, (e_j+e_k)/sqrt2,
    (e_j+i e_k)/sqrt2} pins every matrix entry; held-out random rays
    then certify that the first-moment map is the quadratic form of
    that candidate at all, which fails exactly when h has no orthodox
    mean values even at first order.
    """
    dim, rng = h.dim, (rng if rng is not None else np.random.default_rng(0))

    def means(rows, count: int) -> np.ndarray:  # h.line_means of rows(a, b), at most WITNESS_BLOCK rows a call
        blocks = range(0, count, WITNESS_BLOCK)
        return np.concatenate([np.zeros(0), *(h.line_means(rows(a, min(a + WITNESS_BLOCK, count))) for a in blocks)])

    # probe q is e_q for q < dim, then e_j + e_k, then e_j + i e_k over the pairs j < k; a pair row has squared
    # norm 2, so half its line_means is, exactly, the mean on the ray (e_j + e_k)/sqrt2 or (e_j + i e_k)/sqrt2
    j, k = np.triu_indices(dim, 1)
    eye, first, second = np.eye(dim), np.r_[0:dim, j, j], np.r_[0:dim, k, k]
    phase = np.r_[np.zeros(dim), np.ones(j.size), np.full(j.size, 1j)]
    probes = means(lambda a, b: eye[first[a:b]] + phase[a:b, None] * eye[second[a:b]], dim * dim)
    diag, real_probe, imag_probe = np.split(probes, [dim, dim + j.size])
    half = (diag[j] + diag[k]) / 2.0
    T = np.diag(diag).astype(complex)
    T[j, k] = (real_probe / 2.0 - half) + 1.0j * (half - imag_probe / 2.0)
    T[k, j] = T[j, k].conj()
    scale = max(1.0, float(np.linalg.norm(T, 2)))
    rays = _random_rows(rng, validation_rays, dim)
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    gaps = np.abs(means(lambda a, b: rays[a:b], validation_rays) - np.sum((rays.conj() * (rays @ T.T)).real, axis=-1))
    failed = np.flatnonzero(gaps > RECONSTRUCT_TOL * scale)
    if failed.size:
        raise NonQuadraticFirstMoment(
            f"first moments deviate from any quadratic form by {gaps[failed[0]]:.3e} on held-out ray {failed[0]}"
        )
    return HermitianOperator(entries=T)


def orthodoxy_second_moment_gap(
    h: HiddenObservable | SharedParameterSum, T_candidate: HermitianOperator, rays
) -> float | np.ndarray:
    """|integral of h^2 over the line - <T_candidate^2>_psi|, both exact.

    A float for a StateVector, n gaps for an (n, d) array of nonzero rows.
    """
    scalar = isinstance(rays, StateVector)
    if scalar:  # a power of two, as in line_weights: no square overflows or underflows to 0
        rays = _binary_scale(rays.components) * rays.components
    psi, dim = np.atleast_2d(rays), h.dim
    _check_dims(dim, psi.shape[-1])
    psi = psi / np.sqrt(np.add.reduce((psi.conj() * psi).real, axis=-1, keepdims=True))  # np.linalg.norm's sum
    laws, offsets = (h if isinstance(h, SharedParameterSum) else SharedParameterSum((h,)))._gap_tables
    # conj(psi) on each part's eigenvectors, then C psi: <C^2> = ||C psi||^2 for Hermitian C
    amplitudes, conj = np.empty((len(psi), offsets[-1] + dim), dtype=complex), psi.conj()
    for i, (vectors, *_) in enumerate(laws):
        np.matmul(conj, vectors, out=amplitudes[:, i * dim : (i + 1) * dim])
    np.matmul(psi, T_candidate.entries.T, out=amplitudes[:, offsets[-1] :])
    squares = amplitudes.real**2
    squares += amplitudes.imag**2
    weights, c_squared = np.add.reduceat(squares, offsets, axis=-1), squares[:, offsets[-1] :].sum(axis=-1)
    del psi, conj, amplitudes, squares  # a block of rays keeps less alive through the pair merge below
    second = sum(weights[:, pieces] @ values_squared for _, pieces, values_squared, _ in laws)
    edges = [_cumulative(weights[:, pieces]) for _, pieces, _, _ in laws]
    zero, at = np.zeros((len(weights), 1)), np.arange(len(weights))[:, None]
    for (f_edges, (*_, f)), (g_edges, (*_, g)) in combinations(zip(edges, laws), 2):
        # comonotone parts (shared u): on each merged-edge interval, a part's piece is its edge count before it;
        # the stable sort keeps the 0 first, and a count past a part's last edge reads its padded last value
        pair = np.concatenate((zero, f_edges, g_edges), axis=-1)
        order = pair.argsort(axis=-1, kind="stable")
        ordered = pair[at, order]
        g_count = (order > f_edges.shape[1]).cumsum(axis=-1)[:, :-1]  # of the first t sorted edges; f has t - g_count
        cross = (ordered[:, 1:] - ordered[:, :-1]) * f[np.arange(g_count.shape[1]) - g_count] * g[g_count]
        second = second + 2.0 * cross.sum(axis=-1)
    gaps = np.abs(second - c_squared)
    return float(gaps[0]) if scalar else gaps


# ---------------------------------------------------------------------------
# Hidden propositions


def proposition_from_projector(E) -> HiddenObservable:
    """The proposition realizing a projector E: its observable function.

    The spectral data is pinned to the exact eigenvalues {0, 1}, with the
    eigenvectors of E split at 1/2 into bases of its kernel and range, so
    the indicator takes exactly those values.
    """
    E = np.array(E, dtype=complex)
    if not np.all(np.isfinite(E)):
        raise NotAProjector("matrix has a NaN or infinite entry")
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise NotAProjector(f"expected a square matrix, got shape {E.shape}")
    if _relative_error(E.conj().T, E) > PROJECTOR_TOL:
        raise NotAProjector("matrix is not Hermitian within tolerance")
    # a Hermitian E with an entry part of modulus >= 2 has an eigenvalue L with |L| >= 2, so ||E @ E - E|| >= L^2/2
    # fails the idempotency test by far: it is rejected before E + E^H or E @ E could overflow
    if np.max(np.abs(E.view(float))) >= 2.0:
        raise NotAProjector("matrix is not idempotent within tolerance")
    E = (E + E.conj().T) / 2.0
    if _relative_error(E @ E, E) > PROJECTOR_TOL:
        raise NotAProjector("matrix is not idempotent within tolerance")
    w, vectors = np.linalg.eigh(E)
    offsets = _cluster_offsets(w, 0.5)  # the eigenvalues near 0, then those near 1
    S = SpectralDecomposition(eigenvalues=(_cluster_means(w, offsets)[0] > 0.5) * 1.0, vectors=vectors, offsets=offsets)
    return HiddenObservable(operator=HermitianOperator(entries=E), decomposition=S, values=S.eigenvalues)


# ---------------------------------------------------------------------------
# Statistical equivalence of per-line distributions


def _pooled_law(values: np.ndarray, weights: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort a per-line law and pool runs of values whose gaps are within tol (exact ties always).

    Each pooled value is its run's _cluster_means value, which aligns supports whose entries
    agree only to rounding, e.g. transfer tables against independently decomposed eigenvalue lists.
    """
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    return _cluster_means(values, _cluster_offsets(values, tol), weights)


@dataclass(frozen=True)
class EquivalenceReport:
    n_rays: int
    passed: bool
    max_weight_error: float
    failures: tuple[str, ...]


def statistical_equivalence_check(
    f1,
    f2,
    rays: Sequence[StateVector],
    *,
    weight_tol: float = WEIGHT_TOL,
) -> EquivalenceReport:
    """Compare per-line value distributions of two hidden observables.

    Passes when, on every probe ray, the two (value, weight) lists have
    matching supports (within 1e-9 * max(1, largest |value| on the ray)
    after dropping weights below weight_tol) and weights equal within
    weight_tol.
    """
    _check_dims(f1.dim, f2.dim)
    failures: list[str] = []
    max_weight_error = 0.0
    for idx, psi in enumerate(rays):
        (v1, w1), (v2, w2) = f1.line_distribution(psi), f2.line_distribution(psi)
        top = max(np.max(np.abs(v1), initial=0.0), np.max(np.abs(v2), initial=0.0))
        vtol = 1e-9 * max(1.0, top)
        (v1, w1), (v2, w2) = _pooled_law(v1, w1, vtol), _pooled_law(v2, w2, vtol)
        keep1, keep2 = w1 > weight_tol, w2 > weight_tol
        v1, w1, v2, w2 = v1[keep1], w1[keep1], v2[keep2], w2[keep2]
        if len(v1) != len(v2):
            failures.append(f"ray {idx}: support sizes {len(v1)} vs {len(v2)}")
            continue
        if np.max(np.abs(v1 - v2), initial=0.0) > vtol:
            failures.append(f"ray {idx}: supports differ beyond {vtol:.3e}")
            continue
        err = float(np.max(np.abs(w1 - w2), initial=0.0))
        max_weight_error = max(max_weight_error, err)
        if err > weight_tol:
            failures.append(f"ray {idx}: weight error {err:.3e}")
    return EquivalenceReport(
        n_rays=len(list(rays)),
        passed=not failures,
        max_weight_error=max_weight_error,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Spectral support and pushforward checks


@dataclass(frozen=True)
class SupportReport:
    n_evaluations: int
    n_outside: int
    passed: bool


def spectral_support_check(
    f: HiddenObservable,
    *,
    n_rays: int,
    samples_per_ray: int,
    rng: np.random.Generator,
) -> SupportReport:
    """Sampled evaluations must land exactly in the value table; each ray's u are drawn SAMPLE_BLOCK at a time."""
    lams = f.values
    outside = 0
    for _ in range(n_rays):
        cumulative = _cumulative(line_weights(f.decomposition, random_ray(rng, f.dim)))
        for start in range(0, samples_per_ray, SAMPLE_BLOCK):
            vals = lams[_piece_index(cumulative, draw_u(rng, min(SAMPLE_BLOCK, samples_per_ray - start)))]
            outside += int(np.sum(~np.isin(vals, lams)))
    return SupportReport(n_evaluations=n_rays * samples_per_ray, n_outside=outside, passed=outside == 0)


@dataclass(frozen=True)
class KsReport:
    n_samples: int
    statistic: float
    critical_value: float
    significance: float
    passed: bool


def pushforward_ks(u) -> KsReport:
    """Kolmogorov-Smirnov check of the samples u against uniform(0,1) at level KS_SIGNIFICANCE.

    Uses the asymptotic critical value sqrt(-ln(alpha/2)/2)/sqrt(n).
    """
    u = np.sort(np.ravel(u))
    n = u.size
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - u))
    d_minus = float(np.max(u - (grid - 1.0 / n)))
    statistic = max(d_plus, d_minus)
    critical = math.sqrt(-0.5 * math.log(KS_SIGNIFICANCE / 2.0)) / math.sqrt(n)
    return KsReport(
        n_samples=n,
        statistic=statistic,
        critical_value=critical,
        significance=KS_SIGNIFICANCE,
        passed=statistic < critical,
    )
