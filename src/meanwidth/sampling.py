"""Reproducible Monte Carlo sampling of random widths and correlated maxima.

Reproducibility contract: an McConfig (seed, samples, chunk_size) fully
determines every estimate, bit for bit, regardless of how many worker
threads evaluate the chunks.  Each chunk owns a private PCG64 substream
spawned from the seed, and chunk results are reduced in chunk-index order.
The worker threads belong to one process-wide pool, reused across calls.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .extremes import IndefiniteMatrixError
from .polytopes import MomentEstimate, PolytopeKind, RegularPolytope

# bytes of width_samples' one row-block buffer, which it draws the normals into
# and reduces in place; 256 KiB draws as fast as 1 MiB, and larger ones raise RSS
_BLOCK_BYTES = 1 << 18

__all__ = [
    "McConfig",
    "chunk_rng",
    "width_samples",
    "estimate_moments",
    "symmetric_sqrt",
    "sample_correlated_max",
]


@dataclass(frozen=True)
class McConfig:
    seed: int
    samples: int
    # rows per PCG64 substream; width_samples draws a chunk in row blocks of
    # _BLOCK_BYTES, while sample_correlated_max holds chunk_size x dim doubles
    chunk_size: int = 8_192

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")

    def chunks(self):
        """Yield (chunk_index, chunk_sample_count)."""
        full, rem = divmod(self.samples, self.chunk_size)
        for i in range(full):
            yield i, self.chunk_size
        if rem:
            yield full, rem


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent PCG64 substream of one chunk."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, chunk_index)))


@functools.lru_cache(maxsize=1)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool.  Reusing its threads reuses their malloc
    arenas, so repeated draws do not grow the process; asking for another
    thread count drops the old pool, whose idle workers exit once it is
    collected."""
    return ThreadPoolExecutor(max_workers=threads)


# a forked child inherits the pool but none of its threads: submitting to it
# would wait forever, so the child starts a pool of its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map_chunks(fn, cfg: McConfig, threads: int):
    """Apply fn(chunk_rng(seed, i), count) to every chunk i; results in chunk
    order.  Every chunked draw of the library goes through here, and each
    caller states its thread count."""
    if cfg.samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples for a standard error, got {cfg.samples}")

    def run(i, count):
        return fn(chunk_rng(cfg.seed, i), count)

    return _pool_map(run, list(cfg.chunks()), threads)


def _pool_map(fn, arg_tuples: list, threads: int) -> list:
    """[fn(*args) for args in arg_tuples], in that order, as tasks on the
    shared pool; on the calling thread when threads <= 1 or there is only
    one task.  fn must not map on the pool itself: its workers would wait on
    tasks queued behind them."""
    if threads <= 1 or len(arg_tuples) <= 1:
        return [fn(*args) for args in arg_tuples]
    pool = _pool(threads)
    futures = [pool.submit(fn, *args) for args in arg_tuples]
    return [f.result() for f in futures]


def width_samples(p: RegularPolytope, rng: np.random.Generator, count: int) -> np.ndarray:
    """Vectorized draws of the random projection width W for one polytope.

    Cube: sum|eta| / |eta|.  Crosspolytope: 2 max|eta| / |eta|.
    S_{n-1}: (max eta - min eta) / |eta|.  T_{n-1}: the same range of the
    centered coordinates, scaled by sqrt(n/(n-1)) and normalized by the
    centered norm (the direction is uniform inside the hyperplane).

    The count x n normals are drawn in row blocks of at most _BLOCK_BYTES,
    in turn from rng, into one buffer that each family reduces in place, so
    working memory is one block (or one row, if a row is wider) whatever
    count and n are.  A block draw continues the same stream and every width
    is a reduction of its own row, so the widths are bit-identical to drawing
    and reducing the whole count x n array at once; a row that cannot be
    allocated is refused before any draw."""
    n = p.n
    rows = max(1, min(count, _BLOCK_BYTES // (8 * n)))
    try:
        g_buf = np.empty((rows, n))
    except MemoryError as exc:
        raise ValueError(f"{p.kind.value} n={n}: a row of {n} doubles does not fit in memory") from exc
    norm_buf = np.empty(rows)
    out = np.empty(count)
    for start in range(0, count, rows):
        w = out[start : start + rows]
        g, norm = g_buf[: len(w)], norm_buf[: len(w)]
        rng.standard_normal(out=g)
        if p.kind is PolytopeKind.CUBE:
            np.add.reduce(np.abs(g, out=g), axis=1, out=w)
        elif p.kind is PolytopeKind.CROSS:
            np.maximum.reduce(np.abs(g, out=g), axis=1, out=w)
            np.multiply(w, 2.0, out=w)
        else:
            np.maximum.reduce(g, axis=1, out=w)
            np.subtract(w, np.minimum.reduce(g, axis=1, out=norm), out=w)
        if p.kind is PolytopeKind.SIMPLEX_T:
            np.multiply(w, math.sqrt(n / (n - 1)), out=w)
            # g - g.mean(axis=1, keepdims=True), now that the range is taken
            np.divide(np.add.reduce(g, axis=1, out=norm), n, out=norm)
            np.subtract(g, norm[:, None], out=g)
        # np.linalg.norm(x, axis=1) is exactly sqrt(add.reduce(x * x, axis=1)),
        # and |g| * |g| has the bits of g * g
        np.sqrt(np.add.reduce(np.multiply(g, g, out=g), axis=1, out=norm), out=norm)
        np.divide(w, norm, out=w)
    return out


def _mean_stderr(sums, count: int) -> tuple[float, float]:
    """Mean and standard error from per-chunk (sum, sum of squares) pairs,
    reduced in chunk order."""
    try:
        s = math.fsum(c[0] for c in sums)
        s2 = math.fsum(c[1] for c in sums)
    except OverflowError:  # finite chunk sums whose total leaves double range
        return math.inf, math.inf
    mean = s / count
    var = max(s2 / count - mean * mean, 0.0) * (count / (count - 1))
    return mean, math.sqrt(var / count)


def _moment_sums(values: np.ndarray, ks: tuple[int, ...]) -> dict[int, tuple[float, float]]:
    out = {}
    # an overflow shows as inf here and is refused by estimate_moments
    with np.errstate(over="ignore"):
        for k in ks:
            wk = values if k == 1 else values**k
            out[k] = (float(wk.sum()), float((wk * wk).sum()))
    return out


def estimate_moments(
    p: RegularPolytope, ks: tuple[int, ...], cfg: McConfig, threads: int = 1
) -> dict[int, MomentEstimate]:
    """Monte Carlo estimates of E[W^k] for several k from one shared sample."""
    ks = tuple(ks)
    if any(k < 1 for k in ks):
        raise ValueError(f"moment orders must be positive, got {ks}")

    per_chunk = _map_chunks(lambda rng, count: _moment_sums(width_samples(p, rng, count), ks), cfg, threads)
    out = {}
    for k in ks:
        mean, stderr = _mean_stderr([c[k] for c in per_chunk], cfg.samples)
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            raise ValueError(f"{p.kind.value} Monte Carlo moment n={p.n}, k={k} is out of double-precision range")
        out[k] = MomentEstimate(mean, stderr)
    return out


def symmetric_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, rejecting matrices with eigenvalues < -1e-10.

    Eigenvalues in [-1e-10, 0) are treated as exact zeros; optimizer iterates
    and the singular regular-simplex Gram sit on the PSD boundary.
    """
    matrix = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eigh(matrix)
    if vals.min() < -1e-10:
        raise IndefiniteMatrixError(f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def sample_correlated_max(gram: np.ndarray, cfg: McConfig, threads: int = 1) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of E max of the centered Gaussian
    vector with the given covariance, which may be any PSD matrix."""
    root = symmetric_sqrt(gram)
    n = root.shape[0]

    def work(rng, count):
        return _moment_sums((rng.standard_normal((count, n)) @ root).max(axis=1), (1,))[1]

    return _mean_stderr(_map_chunks(work, cfg, threads), cfg.samples)
