"""Reproducible Monte Carlo sampling of random widths and correlated maxima.

Reproducibility contract: an McConfig (seed, samples, chunk_size) fully
determines every estimate, bit for bit, regardless of how many worker
threads evaluate the chunks.  Each chunk owns a private PCG64 substream
spawned from the seed, and chunk results are reduced in chunk-index order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .extremes import IndefiniteMatrixError
from .polytopes import MomentEstimate, PolytopeKind, RegularPolytope

__all__ = [
    "McConfig",
    "chunk_rng",
    "width_samples",
    "estimate_moment",
    "estimate_moments",
    "symmetric_sqrt",
    "sample_correlated_max",
]


@dataclass(frozen=True)
class McConfig:
    seed: int
    samples: int
    # keep chunk buffers modest: a chunk materializes chunk_size x dim doubles
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


def _map_chunks(fn, cfg: McConfig, threads: int = 1):
    """Apply fn(chunk_rng(seed, i), count) to every chunk i; results in chunk
    order.  Every chunked draw of the library goes through here."""
    if cfg.samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples for a standard error, got {cfg.samples}")

    def run(i, count):
        return fn(chunk_rng(cfg.seed, i), count)

    plan = list(cfg.chunks())
    if threads <= 1 or len(plan) <= 1:
        return [run(i, c) for i, c in plan]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run, i, c) for i, c in plan]
        return [f.result() for f in futures]


def width_samples(p: RegularPolytope, rng: np.random.Generator, count: int) -> np.ndarray:
    """Vectorized draws of the random projection width W for one polytope.

    Cube: sum|eta| / |eta|.  Crosspolytope: 2 max|eta| / |eta|.
    S_{n-1}: (max eta - min eta) / |eta|.  T_{n-1}: the same range of the
    centered coordinates, scaled by sqrt(n/(n-1)) and normalized by the
    centered norm (the direction is uniform inside the hyperplane).
    """
    n = p.n
    g = rng.standard_normal((count, n))
    if p.kind is PolytopeKind.CUBE:
        return np.abs(g).sum(axis=1) / np.linalg.norm(g, axis=1)
    if p.kind is PolytopeKind.CROSS:
        return 2.0 * np.abs(g).max(axis=1) / np.linalg.norm(g, axis=1)
    rng_vals = g.max(axis=1) - g.min(axis=1)
    if p.kind is PolytopeKind.SIMPLEX_S:
        return rng_vals / np.linalg.norm(g, axis=1)
    centered = g - g.mean(axis=1, keepdims=True)
    return math.sqrt(n / (n - 1)) * rng_vals / np.linalg.norm(centered, axis=1)


def _mean_stderr(sums, count: int) -> tuple[float, float]:
    """Mean and standard error from per-chunk (sum, sum of squares) pairs,
    reduced in chunk order."""
    s = math.fsum(c[0] for c in sums)
    s2 = math.fsum(c[1] for c in sums)
    mean = s / count
    var = max(s2 / count - mean * mean, 0.0) * (count / (count - 1))
    return mean, math.sqrt(var / count)


def _moment_sums(values: np.ndarray, ks: tuple[int, ...]) -> dict[int, tuple[float, float]]:
    out = {}
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
        out[k] = MomentEstimate(polytope=p, k=k, value=mean, route="monte_carlo", error=stderr)
    return out


def estimate_moment(p: RegularPolytope, k: int, cfg: McConfig, threads: int = 1) -> MomentEstimate:
    return estimate_moments(p, (k,), cfg, threads)[k]


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
        m = (rng.standard_normal((count, n)) @ root).max(axis=1)
        return float(m.sum()), float((m * m).sum())

    return _mean_stderr(_map_chunks(work, cfg, threads), cfg.samples)
