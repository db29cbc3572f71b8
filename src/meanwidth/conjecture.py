"""Numerical exploration of the maximal-mean-width conjecture.

The conjecture: for every centered unit-variance Gaussian vector
(xi_1, ..., xi_n),

    E max(xi_1, ..., xi_n) <= sqrt(n/(n-1)) E max(eta_1, ..., eta_n),

with equality exactly at the regular-simplex correlation structure
(all off-diagonals -1/(n-1)).  This module checks the bound on sampled
correlation matrices, searches for counterexamples by projected stochastic
ascent over sphere configurations, and reproduces the interpolated
covariance family whose E-max curve is non-increasing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .extremes import _SQRT_2PI, expected_max
from .polytopes import PolytopeKind, RegularPolytope, sudakov_v1
from .sampling import McConfig, _map_chunks, _pool_map, sample_correlated_max, symmetric_sqrt

__all__ = [
    "GramConfiguration",
    "BoundCheck",
    "SearchResult",
    "regular_simplex_gram",
    "random_unit_diagonal_gram",
    "conjecture_bound_check",
    "optimize_configuration",
    "interpolation_covariance",
    "interpolation_emax_curve",
    "gram_fingerprint_distance",
]

@dataclass(frozen=True)
class GramConfiguration:
    """Unit-diagonal PSD correlation matrix of a sphere point configuration."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("Gram matrix must have unit diagonal")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise ValueError("correlations must lie in [-1, 1]")
        symmetric_sqrt(m)  # raises IndefiniteMatrixError unless m is PSD
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class BoundCheck:
    n: int
    estimate: float
    stderr: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class SearchResult:
    best_gram: GramConfiguration
    best_value: float  # sqrt(2 pi) * E max estimate = V1 of the best hull
    best_stderr: float
    regular_value: float
    gap: float  # best_value - regular_value


def regular_simplex_gram(n: int) -> GramConfiguration:
    """Correlation matrix of the regular simplex: off-diagonals -1/(n-1)."""
    if n < 2:
        raise ValueError(f"regular simplex Gram needs n >= 2, got {n}")
    m = np.full((n, n), -1.0 / (n - 1))
    np.fill_diagonal(m, 1.0)
    return GramConfiguration(n=n, matrix=m)


def random_unit_diagonal_gram(n: int, rng: np.random.Generator) -> GramConfiguration:
    """Random PSD unit-diagonal matrix: an orthogonal conjugation of a random
    nonnegative spectrum, renormalized to unit diagonal."""
    spectrum = rng.uniform(0.05, 1.0, size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * spectrum) @ q.T
    d = 1.0 / np.sqrt(np.diag(a))
    m = a * np.outer(d, d)
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 1.0)
    return GramConfiguration(n=n, matrix=np.clip(m, -1.0, 1.0))


@functools.lru_cache(maxsize=64)
def _simplex_bound(n: int) -> float:
    """sqrt(n/(n-1)) E max(eta_1..eta_n): a closed form up to n = 5, one
    quadrature per n past it, kept since bound checks repeat the same few n."""
    return math.sqrt(n / (n - 1)) * expected_max(n)[0]


def conjecture_bound_check(g: GramConfiguration, cfg: McConfig, threads: int = 1) -> BoundCheck:
    """Compare E max under g against the sqrt(n/(n-1)) * E max(iid) bound."""
    n = g.n
    if n < 2:
        raise ValueError(f"the bound sqrt(n/(n-1)) E max needs n >= 2, got {n}")
    estimate, stderr = sample_correlated_max(g.matrix, cfg, threads)
    bound = _simplex_bound(n)
    ok = estimate <= bound + 4.0 * stderr
    return BoundCheck(n=n, estimate=estimate, stderr=stderr, bound=bound, ok=bool(ok))


def gram_fingerprint_distance(a: GramConfiguration, b: GramConfiguration) -> float:
    """Relabeling-invariant distance: sup-norm between the sorted off-diagonal
    entries plus sorted eigenvalues of the two Gram matrices."""
    def fingerprint(g):
        m = g.matrix
        off = np.sort(m[~np.eye(g.n, dtype=bool)])
        return off, np.sort(np.linalg.eigvalsh(m))

    off_a, eig_a = fingerprint(a)
    off_b, eig_b = fingerprint(b)
    return float(max(np.max(np.abs(off_a - off_b)), np.max(np.abs(eig_a - eig_b))))


def _common_normals(n: int, cfg: McConfig) -> np.ndarray:
    """The common-random-numbers batch, one draw per column, chunks in order.
    Drawn serially: the batch is a few milliseconds of the search."""
    return np.concatenate(_map_chunks(lambda rng, c: rng.standard_normal((c, n)).T.copy(), cfg, 1), axis=1)


def _first_argmax(scores: np.ndarray) -> np.ndarray:
    """scores.argmax(axis=0), lowest row on ties, by one contiguous pass per
    row; the narrowest index type cuts memory traffic."""
    best = scores[0].copy()
    winners = np.zeros(scores.shape[1], dtype=np.min_scalar_type(scores.shape[0] - 1))
    for j in range(1, scores.shape[0]):
        winners += (scores[j] > best) * (j - winners)
        np.maximum(best, scores[j], out=best)
    return winners.astype(np.intp)


def _project(points: np.ndarray) -> np.ndarray:
    """Rows scaled onto the unit sphere (zero rows left as they are); the
    norm is np.linalg.norm(points, axis=1) bit for bit, in fewer numpy calls."""
    norms = np.sqrt(np.add.reduce(points * points, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return points / norms


def _ascend(start: np.ndarray, zt: np.ndarray, iterations: int) -> tuple[float, float, np.ndarray]:
    """One restart over the CRN batch zt (n x samples, read only): returns
    the mean and standard error of its final maxima, and its points."""
    n, samples = zt.shape
    points = _project(start)
    grad = np.empty((n, n))
    for it in range(1, iterations + 1):
        winners = _first_argmax(points @ zt)
        # bincount sums each bin in sample order, bit for bit as np.add.at
        for j in range(n):
            grad[:, j] = np.bincount(winners, weights=zt[j], minlength=n)
        grad /= samples
        points = _project(points + (0.5 / math.sqrt(it)) * grad)
    maxima = (points @ zt).max(axis=0)
    return maxima.mean(), float(maxima.std(ddof=1) / math.sqrt(samples)), points


def optimize_configuration(
    n: int, restarts: int, cfg: McConfig, iterations: int = 400, threads: int = 1
) -> SearchResult:
    """Maximize E max <eta, y_i> over n unit vectors y_1..y_n in R^n.

    Projected stochastic subgradient ascent on the common-random-numbers
    objective: for each draw z the subgradient places z on the argmax row
    (lowest index on ties), rows are renormalized to the sphere after every
    step, step size 0.5/sqrt(iter).  The CRN batch is shared by all restarts
    so restart objectives are directly comparable.  All starting points are
    drawn first, in restart order; the restarts then run as tasks on the
    shared worker pool, and the first best one wins, so the result does not
    depend on threads.
    """
    if n < 2:
        raise ValueError(f"search needs n >= 2, got {n}")
    if n > 12:
        raise ValueError(f"search is capped at n = 12, got {n}")
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts}")

    zt = _common_normals(n, cfg)
    init_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    starts = [(init_rng.standard_normal((n, n)), zt, iterations) for _ in range(restarts)]
    best_mean = -math.inf
    for mean, stderr, points in _pool_map(_ascend, starts, threads):
        if mean > best_mean:
            best_mean, best_stderr, best_points = mean, stderr, points

    gram_m = np.clip(best_points @ best_points.T, -1.0, 1.0)
    np.fill_diagonal(gram_m, 1.0)
    best_gram = GramConfiguration(n=n, matrix=0.5 * (gram_m + gram_m.T))
    regular_value = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, n))
    best_value = _SQRT_2PI * float(best_mean)
    return SearchResult(
        best_gram=best_gram,
        best_value=best_value,
        best_stderr=_SQRT_2PI * best_stderr,
        regular_value=regular_value,
        gap=best_value - regular_value,
    )


def interpolation_covariance(n: int, t: float) -> np.ndarray:
    """Covariance of the 2n-dimensional interpolation family: variances
    2n/(t+2n-1), correlation -2nt/(t+2n-1) inside pairs (2i-1, 2i)."""
    if n < 1:
        raise ValueError(f"interpolation family needs n >= 1, got {n}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    m = 2 * n
    var = 2.0 * n / (t + 2.0 * n - 1.0)
    cov = np.zeros((m, m))
    np.fill_diagonal(cov, var)
    pair = -2.0 * n * t / (t + 2.0 * n - 1.0)
    for i in range(n):
        cov[2 * i, 2 * i + 1] = pair
        cov[2 * i + 1, 2 * i] = pair
    return cov


def interpolation_emax_curve(n: int, t_grid, cfg: McConfig) -> list[tuple[float, float, float]]:
    """Common-random-numbers estimate of phi(t) = E max xi(t) on a t grid.

    Returns (t, mean, stderr) per node; every node reuses the same seeded
    chunks, so adjacent differences are far less noisy than the values.
    """
    t_grid = [float(t) for t in t_grid]
    if any(t1 > t2 for t1, t2 in zip(t_grid, t_grid[1:])):
        raise ValueError("t grid must be sorted ascending")
    return [(t, *sample_correlated_max(interpolation_covariance(n, t), cfg)) for t in t_grid]
