"""Ray ensembles, the density-matrix correspondence, and seeded Monte Carlo.

A hidden mixed state is a weighted mixture of rays, each carrying the
uniform hidden-parameter law of its line.  Its density matrix is the
weighted sum of ray projectors; means of observable functions against
the mixture equal operator traces against that matrix, exactly for the
finite sums computed here and statistically for the sampling paths.

Sampling follows a seekable-stream contract: sample i consumes exactly
the 64-bit words 2i and 2i+1 of a PCG64DXSM stream seeded by the seed,
reached by advancing the stream, so any block of samples is drawn on its
own.  Each worker seeds one generator per call, rewinds and advances it
for each block, and draws every block into one set of arrays (a block
allocates none); it drops both when the call returns.  Every sampled
value of b(f) is b at one of the m pieces of f, so a Monte Carlo
estimate reduces its samples to exact integer counts per piece, and its
mean and spread follow from m counts.  Serial and worker-parallel runs therefore produce bit-identical
results for any worker count and block size.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import IO

import numpy as np
from numpy.random import PCG64DXSM, Generator

from .kernel import (
    SAMPLE_BLOCK,
    GammaModel,
    HiddenObservable,
    HiddenPoint,
    _bulk_line_weights,
    _cumulative,
    _padded,
    _row_search_into,
    u_from_words,
)
from .spectral import DensityMatrix, StateVector, _binary_scale, _check_dims, function_values

WEIGHT_DROP_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
SAMPLE_WORDS = 2  # words per sample: word 0 picks the component and word 1 is u's


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
        r = _binary_scale(r, axis=1) * r  # a power of two per row: no |row|^2 overflows or underflows to 0
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
    gamma: GammaModel = GammaModel.uniform()  # read by nothing; kept for perfbench/stages.py (ROADMAP item 9)

    @property
    def dim(self) -> int:
        return self.ensemble.dim


def ensemble_from_density(D: DensityMatrix) -> Ensemble:
    """Canonical eigen-ensemble of D, from the eigh its check made; zero-weight eigenvectors are dropped."""
    w, v = D.eigh
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

    Sample i reads words 2i and 2i+1 of one PCG64DXSM stream seeded by
    `seed` (SAMPLE_WORDS a sample); `advance` jumps to any sample in
    O(log n) steps, so any contiguous range of samples can be generated
    independently of how the range is partitioned across workers.  A
    worker seeds one `generator()` per call, and each block restores it
    to the saved start state and advances it.  The default block size
    keeps the arrays a worker reuses for every block of a call under
    1.1 MB.
    """

    seed: int
    block_size: int = SAMPLE_BLOCK

    def generator(self) -> Generator:
        """A generator of this stream, for every raw_words call of one thread."""
        return Generator(PCG64DXSM(self.seed))

    @cached_property
    def _start(self) -> dict:
        return PCG64DXSM(self.seed).state

    def raw_words(self, start: int, count: int, out: np.ndarray, rng=None) -> np.ndarray:
        """Uniform [0,1) words for samples [start, start+count), shape (count, 2): a view of the flat `out`.

        `rng`, a `generator()` in any state (a new one if None), is rewound to the stream's start and advanced.
        """
        rng = rng or self.generator()
        rng.bit_generator.state = self._start
        rng.bit_generator.advance(SAMPLE_WORDS * start)
        return rng.random(out=out[: count * SAMPLE_WORDS].reshape(count, SAMPLE_WORDS))

    def blocks(self, n: int):
        """The fixed partition plan: [start, stop) slices of block_size."""
        for start in range(0, n, self.block_size):
            yield start, min(self.block_size, n - start)


def _components(mu: HiddenMixedState) -> tuple[np.ndarray, int]:
    """The `_padded` cumulative component weights that word 0 of a sample is searched in."""
    return _padded(np.minimum(np.cumsum(mu.ensemble.weights), 1.0))


def _sampling_tables(f: HiddenObservable, mu: HiddenMixedState):
    """The per-call tables of _block_values: the component table, and per component f's cumulative spectral weights."""
    _check_dims(f.dim, mu.dim)
    return _components(mu), _padded(_cumulative(_bulk_line_weights(f.decomposition, mu.ensemble.rays)))


def _block_arrays(size: int) -> list[np.ndarray]:
    """Arrays for blocks of up to `size` samples: words, word 0, u, k, pieces, and the search scratch."""
    return [np.empty(SAMPLE_WORDS * size), np.empty(size), np.empty(size),
            *(np.empty(size, dtype=np.intp) for _ in range(3)), np.empty(size), np.empty(size, dtype=bool)]


def _draw_block(components, stream: SampleStream, start: int, count: int, arrays=None, rng=None):
    """Component indices and hidden parameters for one sample range, drawn by `rng` (see raw_words) into `arrays`
    (of count samples) if given."""
    buffer, first, u, k, _, *scratch = arrays or _block_arrays(count)
    words = stream.raw_words(start, count, buffer, rng)
    np.copyto(first, words[:, 0])  # the search passes read a contiguous column
    _row_search_into(components, first, None, k, scratch, right=True)
    return k, u_from_words(words[:, 1], out=u)


def _block_values(tables, stream: SampleStream, start: int, count: int, arrays, rng=None):
    """Component indices, hidden parameters and quantile pieces (row k of the piece table) of a sample range, in
    `_block_arrays` of count samples."""
    k, u = _draw_block(tables[0], stream, start, count, arrays, rng)
    return k, u, _row_search_into(tables[1], u, k, arrays[4], arrays[5:])


def sample_hidden(mu: HiddenMixedState, stream: SampleStream, n: int) -> list[HiddenPoint]:
    """n hidden points drawn from the mixture; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    states = [StateVector(components=row) for row in mu.ensemble.rays]
    points: list[HiddenPoint] = []
    components = _components(mu)
    for start, count in stream.blocks(n):
        k, u = _draw_block(components, stream, start, count)
        points.extend(HiddenPoint(ray=states[ki], u=ui) for ki, ui in zip(k, u))
    return points


def _sample_blocks(f: HiddenObservable, mu: HiddenMixedState, stream: SampleStream, n: int, workers: int, reduce):
    """reduce(k, u, pieces) of each block of n samples, in block order; the dimension check and tables run on the call.

    reduce runs in the call that draws its block, and each thread draws every block with one generator into one set
    of arrays, made on its first block and dropped with the call's blocks: a block's arrays freed to the heap and
    allocated again made the heap trim and fault pages back in on every block, depending on allocation history.
    """
    tables, local = _sampling_tables(f, mu), threading.local()

    def fn(block):
        start, count = block
        if not hasattr(local, "arrays"):
            local.arrays, local.rng = _block_arrays(stream.block_size), stream.generator()
        words, *rest = local.arrays  # raw_words cuts the word buffer to the words it draws
        arrays = [words, *(a[:count] for a in rest)]
        return reduce(*_block_values(tables, stream, start, count, arrays, local.rng))

    blocks = stream.blocks(n)
    return map(fn, blocks) if workers == 1 else _threaded_blocks(fn, blocks, workers)


def _threaded_blocks(fn, blocks, workers: int):
    """Yield fn of each block in order on at most the CPU count of threads, with as many blocks pending; the next
    block is submitted when the consumer takes the oldest result."""
    workers = min(workers, os.cpu_count() or 1)
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
    # the index and value columns take one of K and m strings, formatted once per call
    indices = np.array(["%d," % k for k in range(mu.ensemble.size)], dtype=object)
    values = np.array([",%.17g\n" % v for v in f.values.tolist()], dtype=object)
    blocks = _sample_blocks(f, mu, stream, n, workers, lambda k, u, pieces: "".join(
        "%s%.17g%s" % row for row in zip(indices[k].tolist(), u.tolist(), values[pieces].tolist())))
    out.write("component_index,u,value\n")
    out.writelines(blocks)
