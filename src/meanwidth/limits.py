"""Limit laws for the standardized random widths and goodness-of-fit.

The cube width satisfies a central limit theorem with limit
N(0, (pi-3)/pi); the simplex and crosspolytope widths, centered with the
u_n sequence and blown up by sqrt(2 n log n), converge to a sum of two
independent Gumbel variables and to twice a Gumbel variable respectively.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .extremes import u_sequence
from .polytopes import PolytopeKind, RegularPolytope
from .sampling import McConfig, _map_chunks, width_samples
from .special import _scipy_special

__all__ = [
    "LIMIT_VAR",
    "LimitLaw",
    "standardize",
    "standardized_sample",
    "limit_cdf",
    "ks_statistic",
]

# variance of the cube width's normal limit, from the bivariate CLT behind it:
# Var|eta| - (E|eta|)^2 / 2 = (pi - 2)/pi - 1/pi
LIMIT_VAR = (math.pi - 3.0) / math.pi


class LimitLaw(str, enum.Enum):
    NORMAL_LIMIT_VAR = "normal"
    TWO_GUMBEL = "two-gumbel"
    GUMBEL_SUM = "gumbel-sum"


_FAMILY_LAWS = {
    PolytopeKind.CUBE: LimitLaw.NORMAL_LIMIT_VAR,
    PolytopeKind.SIMPLEX_S: LimitLaw.GUMBEL_SUM,
    PolytopeKind.SIMPLEX_T: LimitLaw.GUMBEL_SUM,
    PolytopeKind.CROSS: LimitLaw.TWO_GUMBEL,
}


def standardize(p: RegularPolytope, w):
    """The cube width centered at its sqrt(2n/pi) limit location; a simplex
    width as sqrt(2 n log n) (w - 2 u_n / sqrt(n)), the crosspolytope's with
    u_{2n} in place of u_n."""
    n = p.n
    if p.kind is PolytopeKind.CUBE:
        return np.asarray(w, dtype=float) - math.sqrt(2.0 * n / math.pi)
    if p.kind is PolytopeKind.CROSS and n < 2:
        raise ValueError(f"standardizing the crosspolytope width needs n >= 2, got {n}")
    u = u_sequence(2 * n if p.kind is PolytopeKind.CROSS else n)
    scale = math.sqrt(2.0 * n * math.log(n))
    return scale * (np.asarray(w, dtype=float) - 2.0 * u / math.sqrt(n))


def standardized_sample(p: RegularPolytope, cfg: McConfig, threads: int = 1) -> tuple[LimitLaw, np.ndarray]:
    """The seeded width sample of p, standardized and sorted ascending, and
    the law it tends to; the bits do not depend on threads."""
    law = _FAMILY_LAWS[p.kind]
    standardize(p, np.empty(0))  # an n it cannot standardize fails here, before any draw
    if law in (LimitLaw.NORMAL_LIMIT_VAR, LimitLaw.GUMBEL_SUM):
        # these CDFs need scipy.special: imported after the threaded draws, its
        # objects raised the next run's peak RSS by 4 MB
        _scipy_special()
    widths = np.concatenate(_map_chunks(lambda rng, c: width_samples(p, rng, c), cfg, threads))
    return law, np.sort(standardize(p, widths))


def limit_cdf(law: LimitLaw, x):
    """CDF of a limit law; scalars or arrays."""
    law = LimitLaw(law)
    arr = np.asarray(x, dtype=float)
    if law is LimitLaw.TWO_GUMBEL:
        out = np.exp(-np.exp(-arr / 2.0))
    elif law is LimitLaw.NORMAL_LIMIT_VAR:
        out = _scipy_special().ndtr(arr / math.sqrt(LIMIT_VAR))
    else:
        # P[G1 + G2 <= x] = z K1(z) with z = 2 exp(-x/2), since
        # d/dz [z K1(z)] = -z K0(z).  Below z = 1e-300 (where K1(z) ~ 1/z
        # overflows) z K1(z) rounds to 1; past z ~ 700 K1 underflows to 0.
        z = 2.0 * np.exp(-arr / 2.0)
        out = np.where(z < 1e-300, 1.0, 0.0)
        ok = (z >= 1e-300) & (z < 690.0)
        out[ok] = z[ok] * _scipy_special().k1(z[ok])
    return out if out.ndim else float(out)


def ks_statistic(sample: np.ndarray, law: LimitLaw) -> float:
    """Kolmogorov-Smirnov distance between a sorted sample and a limit law."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("KS statistic needs a nonempty sample")
    if np.any(np.diff(sample) < 0):
        raise ValueError("sample must be sorted ascending")
    n = sample.size
    cdf = np.atleast_1d(limit_cdf(law, sample))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
