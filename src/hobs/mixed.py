"""Ray ensembles, the density-matrix correspondence, and seeded Monte Carlo.

A hidden mixed state is a weighted mixture of rays, each carrying the
uniform hidden-parameter law of its line.  Its density matrix is the
weighted sum of ray projectors; means of observable functions against
the mixture equal operator traces against that matrix, exactly for the
finite sums computed here and statistically for the sampling paths.

Sampling follows a counter-based contract: sample i consumes exactly
the four 64-bit words at counter block i of a Philox stream keyed by
the seed, and reductions merge per-block centred moments of fixed-size
blocks in index order.  Serial and worker-parallel runs therefore
produce bit-identical results for any worker count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, EigensolverFailure
from .kernel import (
    GammaModel,
    HiddenObservable,
    HiddenPoint,
    _bulk_line_weights,
    _quantile_values,
    _row_search,
    u_from_words,
)
from .spectral import DensityMatrix, StateVector, function_values

WEIGHT_DROP_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
WORDS_PER_SAMPLE = 4  # one Philox counter block per sample


@dataclass(frozen=True)
class Ensemble:
    """Positive weights summing to one over normalized rays."""

    weights: np.ndarray
    rays: np.ndarray  # shape (k, d), rows normalized

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        r = np.array(self.rays, dtype=complex)
        if w.ndim != 1 or r.ndim != 2 or w.shape[0] != r.shape[0] or w.size == 0:
            raise ValueError("ensemble needs matching, non-empty weights and rays")
        if np.any(w <= 0.0):
            raise ValueError("ensemble weights must be strictly positive")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"ensemble weights sum to {float(np.sum(w))!r}, not 1")
        norms = np.linalg.norm(r, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("ensemble rays must be nonzero")
        r = r / norms[:, None]
        w.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rays", r)

    @property
    def dim(self) -> int:
        return self.rays.shape[1]

    @property
    def size(self) -> int:
        return self.rays.shape[0]


@dataclass(frozen=True)
class HiddenMixedState:
    ensemble: Ensemble
    gamma: GammaModel

    @property
    def dim(self) -> int:
        return self.ensemble.dim


def ensemble_from_density(D: DensityMatrix) -> Ensemble:
    """Canonical eigen-ensemble of D; zero-weight eigenvectors are dropped."""
    try:
        w, v = np.linalg.eigh(D.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    keep = w > WEIGHT_DROP_TOL
    w = w[keep]
    return Ensemble(weights=w / np.sum(w), rays=v[:, keep].T)


def density_from_ensemble(ens: Ensemble) -> DensityMatrix:
    """The density matrix sum of w_k times the projector onto ray k.

    Orthogonality of the rays is not required; the correspondence is
    linear in the mixture.
    """
    entries = np.einsum("k,ka,kb->ab", ens.weights, ens.rays, ens.rays.conj())
    return DensityMatrix(entries=entries)


def exact_classical_mean(f: HiddenObservable, b, mu: HiddenMixedState) -> float:
    """Mean of b(f) against the mixture, as an exact finite sum.

    Equals Trace[b(T) delta(mu)] up to rounding, which is the identity
    the workbench exists to verify.
    """
    if f.dim != mu.dim:
        raise DimensionMismatch(f"dimension mismatch: {f.dim} vs {mu.dim}")
    weights = _bulk_line_weights(f.decomposition, mu.ensemble.rays)
    return float(np.dot(mu.ensemble.weights, weights @ function_values(b, f.values)))


def hidden_state_measure(L: HiddenObservable, mu: HiddenMixedState) -> float:
    """mu(L): the mixture-weighted exact per-line measure of the event."""
    if L.dim != mu.dim:
        raise DimensionMismatch(f"dimension mismatch: {L.dim} vs {mu.dim}")
    return float(np.dot(mu.ensemble.weights, L.line_means(mu.ensemble.rays)))


# ---------------------------------------------------------------------------
# Counter-based sampling


@dataclass(frozen=True)
class SampleStream:
    """Reproducible sample randomness keyed by a 64-bit seed.

    Sample i reads the Philox counter block i, so any contiguous range
    of samples can be generated independently of how the range is
    partitioned across workers.
    """

    seed: int
    block_size: int = 65536

    def raw_words(self, start: int, count: int) -> np.ndarray:
        """Uniform [0,1) words for samples [start, start+count), shape (count, 4)."""
        bg = Philox(key=self.seed)
        bg.advance(start)
        return Generator(bg).random((count, WORDS_PER_SAMPLE))

    def blocks(self, n: int):
        """The fixed partition plan: [start, stop) slices of block_size."""
        for start in range(0, n, self.block_size):
            yield start, min(self.block_size, n - start)


def _draw_block(mu: HiddenMixedState, stream: SampleStream, start: int, count: int):
    """Component indices and hidden parameters for one sample range."""
    words = stream.raw_words(start, count)
    cum = np.minimum(np.cumsum(mu.ensemble.weights), 1.0)
    k = _row_search(cum, words[:, 0], right=True)
    u = u_from_words(mu.gamma, words[:, 1], words[:, 2])
    return k, u


def _block_values(
    f: HiddenObservable, mu: HiddenMixedState, stream: SampleStream, start: int, count: int
):
    """Component indices, hidden parameters and values of f for one sample range."""
    k, u = _draw_block(mu, stream, start, count)
    weights = _bulk_line_weights(f.decomposition, mu.ensemble.rays)
    return k, u, _quantile_values(f.values, weights, u, k)


def sample_hidden(mu: HiddenMixedState, stream: SampleStream, n: int) -> list[HiddenPoint]:
    """n hidden points drawn from the mixture; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = [StateVector(components=row) for row in mu.ensemble.rays]
    points: list[HiddenPoint] = []
    for start, count in stream.blocks(n):
        k, u = _draw_block(mu, stream, start, count)
        points.extend(HiddenPoint(ray=states[ki], u=ui) for ki, ui in zip(k, u))
    return points


def _map_blocks(fn, stream: SampleStream, n: int, workers: int) -> list:
    """fn of each (start, count) block of n samples, in block order, on up to `workers` threads."""
    blocks = list(stream.blocks(n))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, blocks))
    return [fn(block) for block in blocks]


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int


def _merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Chan-Golub-LeVeque update: (count, mean, M2) of two sample sets joined."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def mc_estimate(
    f: HiddenObservable,
    b,
    mu: HiddenMixedState,
    stream: SampleStream,
    n: int,
    *,
    workers: int = 1,
) -> McEstimate:
    """Sample mean and CLT standard error of b(f) over n draws from mu.

    Each block contributes its centred moments (count, mean, M2), which
    are merged in block order, so the result does not depend on the
    worker count and the variance does not cancel when the mean is large
    against the spread.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if f.dim != mu.dim:
        raise DimensionMismatch(f"dimension mismatch: {f.dim} vs {mu.dim}")

    def block_moments(block):
        start, count = block
        _, _, values = _block_values(f, mu, stream, start, count)
        x = np.asarray(b(values), dtype=float)
        if x.shape != values.shape:  # constant callables may collapse the shape
            x = np.broadcast_to(x, values.shape)
        # shifting by the first value keeps a constant block's M2 exactly 0; overflow leaves it non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = x - x[0]
            shifted_mean = np.mean(shifted)
            centred = shifted - shifted_mean
            return count, float(x[0] + shifted_mean), float(np.sum(centred * centred))

    _, mean, m2 = functools.reduce(_merge_moments, _map_blocks(block_moments, stream, n, workers))
    variance = m2 / (n - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(variance / n), n_samples=n)


def dump_samples_csv(
    f: HiddenObservable,
    mu: HiddenMixedState,
    stream: SampleStream,
    n: int,
    out: IO[str],
    *,
    workers: int = 1,
) -> None:
    """Write `component_index,u,value` rows, 17 significant digits.

    Blocks may be computed by several workers but are always written in
    block order, so output bytes do not depend on the worker count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    computed = _map_blocks(lambda block: _block_values(f, mu, stream, *block), stream, n, workers)
    out.write("component_index,u,value\n")
    for k, u, values in computed:
        out.write("".join("%d,%.17g,%.17g\n" % row for row in zip(k.tolist(), u.tolist(), values.tolist())))
