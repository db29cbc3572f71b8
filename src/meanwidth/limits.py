"""Limit laws for the standardized random widths and goodness-of-fit.

The cube width satisfies a central limit theorem with limit
N(0, (pi-3)/pi); the simplex and crosspolytope widths, centered with the
u_n sequence and blown up by sqrt(2 n log n), converge to a sum of two
independent Gumbel variables and to twice a Gumbel variable respectively.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .extremes import u_sequence

__all__ = [
    "CltConstants",
    "CLT_CONSTANTS",
    "LimitLaw",
    "standardize_cube",
    "standardize_simplex",
    "standardize_cross",
    "limit_cdf",
    "gumbel_sum_density",
    "ks_statistic",
]

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class CltConstants:
    """Constants of the bivariate CLT behind the cube width limit."""

    mu: float = math.sqrt(2.0 / math.pi)  # E|eta|
    sigma2: float = (math.pi - 2.0) / math.pi  # Var|eta|
    v2: float = 2.0  # Var(eta^2)
    r: float = 1.0 / math.sqrt(math.pi - 2.0)  # Corr(|eta|, eta^2)
    limit_var: float = (math.pi - 3.0) / math.pi


CLT_CONSTANTS = CltConstants()


class LimitLaw(str, enum.Enum):
    NORMAL_LIMIT_VAR = "normal"
    GUMBEL = "gumbel"
    TWO_GUMBEL = "two-gumbel"
    GUMBEL_SUM = "gumbel-sum"


def standardize_cube(w, n: int):
    """Center the cube width at its sqrt(2n/pi) limit location."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return np.asarray(w, dtype=float) - math.sqrt(2.0 * n / math.pi)


def standardize_simplex(w, n: int):
    """sqrt(2 n log n) (w - 2 u_n / sqrt(n)); limit law GUMBEL_SUM."""
    u = u_sequence(n)
    scale = math.sqrt(2.0 * n * math.log(n))
    return scale * (np.asarray(w, dtype=float) - 2.0 * u / math.sqrt(n))


def standardize_cross(w, n: int):
    """sqrt(2 n log n) (w - 2 u_{2n} / sqrt(n)); limit law TWO_GUMBEL."""
    if n < 2:
        raise ValueError(f"standardize_cross needs n >= 2, got {n}")
    u = u_sequence(2 * n)
    scale = math.sqrt(2.0 * n * math.log(n))
    return scale * (np.asarray(w, dtype=float) - 2.0 * u / math.sqrt(n))


def gumbel_sum_density(x):
    """Density of the sum of two independent Gumbel variables:
    2 exp(-x) K0(2 exp(-x/2))."""
    x = np.asarray(x, dtype=float)
    z = 2.0 * np.exp(-x / 2.0)
    # K0 underflows past z ~ 700, and z itself underflows to 0 past x ~ 1490;
    # the density is 0 at both ends.
    out = np.zeros_like(z)
    ok = (z > 0.0) & (z < 690.0)
    out[ok] = 2.0 * np.exp(-x[ok]) * sp.k0(z[ok])
    return out if out.ndim else float(out)


def limit_cdf(law: LimitLaw, x):
    """CDF of a limit law; scalars or arrays."""
    law = LimitLaw(law)
    arr = np.asarray(x, dtype=float)
    if law is LimitLaw.GUMBEL:
        out = np.exp(-np.exp(-arr))
    elif law is LimitLaw.TWO_GUMBEL:
        out = np.exp(-np.exp(-arr / 2.0))
    elif law is LimitLaw.NORMAL_LIMIT_VAR:
        out = sp.ndtr(arr / math.sqrt(CLT_CONSTANTS.limit_var))
    else:
        # P[G1 + G2 <= x] = z K1(z) with z = 2 exp(-x/2), since
        # d/dz [z K1(z)] = -z K0(z).  Below z = 1e-300 (where K1(z) ~ 1/z
        # overflows) z K1(z) rounds to 1; past z ~ 700 K1 underflows to 0.
        z = 2.0 * np.exp(-arr / 2.0)
        out = np.where(z < 1e-300, 1.0, 0.0)
        ok = (z >= 1e-300) & (z < 690.0)
        out[ok] = z[ok] * sp.k1(z[ok])
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
