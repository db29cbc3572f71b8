"""Special functions used throughout the library.

Everything here is a pure, stateless function: the standard normal tail,
log-space gamma ratios and absolute Gaussian moments.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

__all__ = [
    "normal_tail",
    "normal_tail_inverse",
    "log_gamma_ratio",
    "gaussian_abs_moment",
]

_SQRT2 = math.sqrt(2.0)


def normal_tail(t):
    """Upper tail of the standard normal, P[eta > t].

    Accepts scalars or arrays.  Computed through erfc, which stays accurate
    (relative error ~1e-15) far into the tail where the naive 1 - CDF form
    would cancel catastrophically.
    """
    return 0.5 * sp.erfc(np.asarray(t, dtype=float) / _SQRT2)


def normal_tail_inverse(p):
    """Inverse of normal_tail: the t with P[eta > t] = p, for p in (0, 1)."""
    return _SQRT2 * sp.erfcinv(2.0 * np.asarray(p, dtype=float))


def _stirling_correction(x: float) -> float:
    # tail of the Stirling series; next omitted term is < 1e-15 for x >= 20
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * x2)) / x2) / x2) / x


def log_gamma_ratio(a: float, b: float) -> float:
    """log Gamma(a) - log Gamma(b), carried in log space.

    Raw gamma ratios overflow already for arguments of a few hundred.  For
    large nearby arguments the two gammaln values agree to 8+ digits, so the
    naive difference would lose them; the Stirling difference below keeps the
    relative error of exp(result) at ~1e-14 up to arguments of 1e7.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"gamma ratio needs positive arguments, got a={a}, b={b}")
    if a == b:
        return 0.0
    if min(a, b) < 20.0:
        # small arguments: gammaln values are O(10), no cancellation to fear
        return float(sp.gammaln(a) - sp.gammaln(b))
    d = b - a
    value = (
        -(a - 0.5) * math.log1p(d / a)
        - d * math.log(b)
        + d
        + _stirling_correction(a)
        - _stirling_correction(b)
    )
    return value


def gaussian_abs_moment(k: int) -> float:
    """E|eta|^k for a standard normal eta: 2^(k/2) Gamma((k+1)/2) / sqrt(pi)."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    if k == 0:
        return 1.0
    return float(math.exp(0.5 * k * math.log(2.0) + sp.gammaln((k + 1) / 2) - 0.5 * math.log(math.pi)))
