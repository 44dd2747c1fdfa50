"""Dense Hermitian linear algebra: operators, spectral data, functional calculus.

All types are immutable after construction (arrays are marked
read-only), so any operation here may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    EvaluationError,
    HermiticityViolation,
    NonFiniteInput,
    NonSquareError,
)

# Tolerances (see module-level conventions): hermiticity is relative to
# the Frobenius norm of the input, eigenvalue merging to the spectral
# norm, the commutation threshold to the product of Frobenius norms.
HERMITICITY_RTOL = 1e-12
EIGENVALUE_MERGE_RTOL = 1e-9
COMMUTATOR_RTOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIGENVALUE_FLOOR = -1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_complex_matrix(raw) -> np.ndarray:
    m = np.array(raw, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    return m


@dataclass(frozen=True)
class HermitianOperator:
    """A d x d complex Hermitian matrix."""

    entries: np.ndarray
    correction: float = 0.0  # Frobenius norm of the symmetrized-away skew part

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly(np.array(self.entries, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StateVector:
    """A nonzero complex vector; the zero vector is rejected."""

    components: np.ndarray

    def __post_init__(self):
        v = np.array(self.components, dtype=complex).reshape(-1)
        if v.size == 0 or not np.any(v):
            raise ValueError("state vector must be nonzero")
        object.__setattr__(self, "components", _readonly(v))

    @property
    def dim(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit trace."""

    entries: np.ndarray
    # np.linalg.eigh(entries), made once: the check reads its eigenvalues, ensemble_from_density its eigenvectors
    eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = validate_hermitian(self.entries).entries  # checked and symmetrized by the one hermiticity rule
        trace = np.trace(m).real
        if abs(trace - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"density matrix trace {float(trace)!r} != 1")
        eigenvalues, vectors = np.linalg.eigh(m)
        if eigenvalues.min() < DENSITY_EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {eigenvalues.min():.3e}")
        object.__setattr__(self, "entries", _readonly(m))
        object.__setattr__(self, "eigh", (_readonly(eigenvalues), _readonly(vectors)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending), each with an orthonormal eigenvector block.

    Columns offsets[i]:offsets[i+1] of `vectors` (the last block runs to
    the end) are an orthonormal basis of the eigenspace of eigenvalues[i],
    so the spectral projector P_i is that block times its adjoint.
    Per-line weights need only |<v_j, psi>|^2 summed over each block, so
    no d x d projector is stored; matrices are built on request.
    """

    eigenvalues: np.ndarray  # shape (m,), strictly increasing
    vectors: np.ndarray  # shape (d, d), orthonormal columns grouped by eigenvalue
    offsets: np.ndarray  # shape (m,), first column of each block; offsets[0] == 0

    def __post_init__(self):
        w = _readonly(np.array(self.eigenvalues, dtype=float))
        v = _readonly(np.array(self.vectors, dtype=complex))
        o = _readonly(np.array(self.offsets, dtype=np.intp))
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "offsets", o)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def operator_with_values(self, values) -> np.ndarray:
        """The Hermitian matrix sum of values[i] * P_i."""
        sizes = np.diff(self.offsets, append=self.vectors.shape[1])
        v = self.vectors
        m = (v * np.repeat(np.asarray(values, dtype=float), sizes)) @ v.conj().T
        return m / 2.0 + m.conj().T / 2.0  # halving first cannot overflow, and is exact above the subnormals


def _cluster_offsets(sorted_values: np.ndarray, gap_tol: float) -> np.ndarray:
    """Start index of each run of ascending values whose neighbours are within gap_tol."""
    with np.errstate(over="ignore"):  # a gap beyond the largest double is infinite, and still splits
        gaps = np.diff(sorted_values)
    return np.concatenate(([0], np.flatnonzero(gaps > gap_tol) + 1))


def _cluster_means(values: np.ndarray, offsets: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and total weight (1 per value by default) of each run of values starting at an offset.

    A run's mean is first + sum((v - first) * w) / sum(w) (Chan, Golub & LeVeque 1983): exact for equal values, and
    no overflow for close ones.  A run with no net difference, as any weightless one (w >= 0), keeps its first value.
    """
    weights = np.ones(len(values)) if weights is None else weights
    means, totals = values[offsets], np.add.reduceat(weights, offsets)
    shifts = np.add.reduceat((values - np.repeat(means, np.diff(offsets, append=len(values)))) * weights, offsets)
    moved = shifts != 0.0
    means[moved] += shifts[moved] / totals[moved]
    return means, totals


def _binary_scale(m: np.ndarray, axis=None):
    # 2^-k taking m's largest real or imaginary part (per row, as a column, when `axis` is given) into [1/2, 1): norm
    # tests on copies scaled by it cannot overflow; for a part below 2^-1024 (a subnormal) the scale stops at 2^1023,
    # the largest finite one, and lifts it to >= 2^-51
    top = np.max(np.abs(m.view(float)), axis=axis, keepdims=axis is not None, initial=0.0)
    scale = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1023))
    return float(scale) if axis is None else scale


def _relative_error(rebuilt: np.ndarray, op: np.ndarray) -> float:
    """||rebuilt - op||_F / max(1, ||op||_F), from copies binary-scaled so that neither norm overflows."""
    s = _binary_scale(op)
    return float(np.linalg.norm(s * (rebuilt - op))) / max(s, float(np.linalg.norm(s * op)))


def validate_hermitian(raw) -> HermitianOperator:
    """Accept a square matrix as Hermitian, symmetrizing rounding residue.

    The skew part H/2 - H^dagger/2 is folded back into the operator and
    its Frobenius norm recorded as `correction`; above tolerance the
    input is rejected instead.
    """
    m = _as_complex_matrix(raw)
    skew = m / 2.0 - m.conj().T / 2.0  # halving first cannot overflow, and is exact above the subnormals
    scale = _binary_scale(m)
    correction = float(np.linalg.norm(scale * skew)) / scale
    if correction * scale > HERMITICITY_RTOL * max(scale, float(np.linalg.norm(scale * m))):
        raise HermiticityViolation(
            f"matrix is not Hermitian within tolerance (skew Frobenius norm {correction:.3e})"
        )
    return HermitianOperator(entries=m - skew, correction=correction)


def spectral_decompose(T: HermitianOperator) -> SpectralDecomposition:
    """Eigendecompose T and merge near-degenerate eigenvalues.

    Eigenvalues closer than EIGENVALUE_MERGE_RTOL * max(1, ||T||_2) are
    clustered into a single eigenspace; the cluster carries the mean of
    its eigenvalues.
    """
    try:
        w, v = np.linalg.eigh(T.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    offsets = _cluster_offsets(w, EIGENVALUE_MERGE_RTOL * max(1.0, float(np.max(np.abs(w), initial=0.0))))
    return SpectralDecomposition(eigenvalues=_cluster_means(w, offsets)[0], vectors=v, offsets=offsets)


def spectral_projector(S: SpectralDecomposition, B: Callable[[float], object]) -> np.ndarray:
    """Projector onto the eigenspaces whose eigenvalue lies in B.

    B is any membership predicate on floats, such as an indicator
    expression `parse("ind(5, 6)")`.  The empty selection yields the
    zero matrix.
    """
    return S.operator_with_values([1.0 if B(float(lam)) else 0.0 for lam in S.eigenvalues])


def function_values(b, x: np.ndarray) -> np.ndarray:
    """b at each entry of x, checked finite.

    `b` is a BorelExpr or any real-valued callable; one vectorized call
    is tried first, then one call per entry.  Overflow is not warned
    about: it is reported by the finite check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            values = np.asarray(b(x), dtype=float)
            if values.shape != x.shape:
                raise TypeError("not vectorized")
        except Exception:
            try:
                values = np.array([float(b(v)) for v in x], dtype=float)
            except Exception as exc:
                raise EvaluationError(f"function undefined on the spectrum: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise EvaluationError("function takes a non-finite value on the spectrum")
    return values


def apply_borel(S: SpectralDecomposition, b) -> HermitianOperator:
    """Functional calculus: the operator with eigenvalue b(lambda_i) on each eigenspace."""
    return HermitianOperator(entries=S.operator_with_values(function_values(b, S.eigenvalues)))


def _check_dims(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatch(f"dimension mismatch: {a} vs {b}")


def expectation(T: HermitianOperator, psi: StateVector) -> float:
    """<T psi, psi> / <psi, psi>; depends only on the ray of psi."""
    _check_dims(T.dim, psi.dim)
    v = _binary_scale(psi.components) * psi.components  # a power of two: <v, v> neither overflows nor underflows to 0
    num = np.vdot(v, T.entries @ v).real
    return float(num / np.vdot(v, v).real)


def trace_expectation(T: HermitianOperator, D: DensityMatrix) -> float:
    """Trace[T D]."""
    _check_dims(T.dim, D.dim)
    return float(np.einsum("ij,ji->", T.entries, D.entries).real)


def commutator_norm(A: HermitianOperator, B: HermitianOperator) -> float:
    """Frobenius norm of AB - BA."""
    _check_dims(A.dim, B.dim)
    return float(np.linalg.norm(A.entries @ B.entries - B.entries @ A.entries))


def commutes(A: HermitianOperator, B: HermitianOperator) -> bool:
    """||[A,B]|| <= rtol * max(1, ||A||) * max(1, ||B||), tested on binary-scaled copies."""
    sa, sb = _binary_scale(A.entries), _binary_scale(B.entries)
    a, b = HermitianOperator(entries=sa * A.entries), HermitianOperator(entries=sb * B.entries)
    threshold = COMMUTATOR_RTOL * max(sa, float(np.linalg.norm(a.entries))) * max(sb, float(np.linalg.norm(b.entries)))
    return commutator_norm(a, b) <= threshold
