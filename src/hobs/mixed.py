"""Ray ensembles, the density-matrix correspondence, and seeded Monte Carlo.

A hidden mixed state is a weighted mixture of rays, each carrying the
uniform hidden-parameter law of its line.  Its density matrix is the
weighted sum of ray projectors; means of observable functions against
the mixture equal operator traces against that matrix, exactly for the
finite sums computed here and statistically for the sampling paths.

Sampling follows a seekable-stream contract: sample i consumes exactly
the 64-bit words 4i..4i+3 of a PCG64DXSM stream seeded by the seed,
reached by advancing the stream, so any block of samples is drawn on
its own.  Every sampled value of b(f) is b at one of the m pieces of f,
so a Monte Carlo estimate reduces its samples to exact integer counts
per piece, and its mean and spread follow from m counts.  Serial and
worker-parallel runs therefore produce bit-identical results for any
worker count and block size.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import IO

import numpy as np
from numpy.random import PCG64DXSM, Generator

from . import kernel
from .errors import EigensolverFailure
from .kernel import (
    GammaModel,
    HiddenObservable,
    HiddenPoint,
    _bulk_line_weights,
    _cumulative,
    _row_search,
    u_from_words,
)
from .spectral import DensityMatrix, StateVector, _check_dims, function_values

WEIGHT_DROP_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
# words 0-2 pick the component and feed u; the unused fourth keeps a block's word array the size that
# measured no page faults per block (three words made the heap top shrink and fault back in each block)
WORDS_PER_SAMPLE = 4


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
    _check_dims(f.dim, mu.dim)
    weights = _bulk_line_weights(f.decomposition, mu.ensemble.rays)
    return float(np.dot(mu.ensemble.weights, weights @ function_values(b, f.values)))


def hidden_state_measure(L: HiddenObservable, mu: HiddenMixedState) -> float:
    """mu(L): the mixture-weighted exact per-line measure of the event."""
    _check_dims(L.dim, mu.dim)
    return float(np.dot(mu.ensemble.weights, L.line_means(mu.ensemble.rays)))


# ---------------------------------------------------------------------------
# Counter-based sampling


@dataclass(frozen=True)
class SampleStream:
    """Reproducible sample randomness keyed by a 64-bit seed.

    Sample i reads words 4i..4i+3 of one PCG64DXSM stream seeded by
    `seed`; `advance` jumps to any sample in O(log n) steps, so any
    contiguous range of samples can be generated independently of how
    the range is partitioned across workers.
    """

    seed: int
    block_size: int = 65536

    def raw_words(self, start: int, count: int) -> np.ndarray:
        """Uniform [0,1) words for samples [start, start+count), shape (count, 4)."""
        bg = PCG64DXSM(self.seed)
        bg.advance(WORDS_PER_SAMPLE * start)
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


def _block_values(cumulative: np.ndarray, mu: HiddenMixedState, stream: SampleStream, start: int, count: int):
    """Component indices, hidden parameters and quantile pieces (row k of `cumulative`) for one sample range."""
    k, u = _draw_block(mu, stream, start, count)
    # called through the module so that perfbench's tracer, which patches kernel._piece_index, sees it
    return k, u, kernel._piece_index(cumulative, u, k)


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


def _sample_blocks(f: HiddenObservable, mu: HiddenMixedState, stream: SampleStream, n: int, workers: int, reduce):
    """reduce(k, u, pieces) of each block of n samples, in block order; the dimension check and table run on the call.

    reduce runs in the call that draws its block: arrays kept until the next draw made every block fault pages in.
    """
    _check_dims(f.dim, mu.dim)
    cumulative = _cumulative(_bulk_line_weights(f.decomposition, mu.ensemble.rays))
    fn, blocks = (lambda block: reduce(*_block_values(cumulative, mu, stream, *block))), stream.blocks(n)
    return map(fn, blocks) if workers == 1 else _threaded_blocks(fn, blocks, workers)


def _threaded_blocks(fn, blocks, workers: int):
    """Yield fn of each block in order; the next block is submitted when the consumer takes the oldest result."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, block) for block in islice(blocks, workers))
        while pending:
            yield pending.popleft().result()
            pending.extend(pool.submit(fn, block) for block in islice(blocks, 1))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int


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

    Each block adds the bincount of its samples' quantile pieces to m
    integer counts, so the result depends on neither the worker count
    nor the block size.  Over the pieces that were sampled, with counts
    c, x = b(values) and d = x - x[0],

        mean = x[0] + (c @ d) / n,   M2 = c @ (d - (c @ d) / n)^2,

    and the standard error is sqrt(M2 / (n - 1) / n).  The shift by x[0]
    keeps M2 of a constant b exactly 0 and stops the variance cancelling
    when the mean is large against the spread; overflow leaves it
    non-finite.  b is evaluated only at sampled pieces and must be finite
    there (EvaluationError otherwise).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    counts = sum(_sample_blocks(
        f, mu, stream, n, workers, lambda k, u, pieces: np.bincount(pieces, minlength=f.values.size)))
    # unsampled pieces are left out: a zero count times an overflowed square would make M2 NaN
    seen = np.flatnonzero(counts)
    counts = counts[seen]
    x = function_values(b, f.values[seen])
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - x[0]
        shift = (counts @ d) / n
        m2 = counts @ (d - shift) ** 2
    return McEstimate(mean=float(x[0] + shift), std_error=math.sqrt(m2 / (n - 1) / n), n_samples=n)


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

    Blocks are computed on up to `workers` threads and written in block
    order as taken: output bytes do not depend on workers, memory not on n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = _sample_blocks(f, mu, stream, n, workers, lambda k, u, pieces: "".join(
        "%d,%.17g,%.17g\n" % row for row in zip(k.tolist(), u.tolist(), f.values[pieces].tolist())))
    out.write("component_index,u,value\n")
    out.writelines(blocks)
