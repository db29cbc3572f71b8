"""Special functions used throughout the library.

Everything here is a pure, stateless function: the standard normal tail,
log-space gamma ratios and absolute Gaussian moments.  The gamma function
comes from math; scipy.special, which the normal tail's erfc needs, is
imported on first use, so a run without quadrature never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "normal_tail",
    "normal_tail_inverse",
    "log_gamma_ratio",
    "gaussian_abs_moment",
]

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
# log_gamma_ratio takes the Stirling difference once both arguments reach this
_STIRLING_MIN = 20.0
# math.lgamma is good to this many ulp of max(|lgamma|, 1) at the multiples of
# 1/2 the package passes it (worst seen: 2.71 ulp at 6.5); pinned by a test
_LGAMMA_ULPS = 3.0


@functools.cache
def _scipy_special():
    """scipy.special, imported on the first call: the package's one import of
    it, which costs more than numpy's and only quadratures and limit laws need."""
    from scipy import special

    return special


def normal_tail(t):
    """Upper tail of the standard normal, P[eta > t].

    Accepts scalars or arrays.  Computed through scipy's erfc, which keeps
    its relative accuracy far into the tail, where the naive 1 - CDF form
    would cancel catastrophically: its relative error at a given argument
    reaches about 19 eps for t <= 8.5, 33 eps for t <= 14 and 130 eps for
    t <= 28, inside the U^2 / 2 eps that the tail rule of
    extremes._survival_moments allows for it at its cut-off U.  Rounding
    t / sqrt(2) adds about t^2 eps, inside that rule's 0.3 % margin.
    """
    return 0.5 * _scipy_special().erfc(np.asarray(t, dtype=float) / _SQRT2)


def normal_tail_inverse(p):
    """Inverse of normal_tail: the t with P[eta > t] = p, for p in (0, 1)."""
    return _SQRT2 * _scipy_special().erfcinv(2.0 * np.asarray(p, dtype=float))


def _stirling_correction(x: float) -> float:
    # tail of the Stirling series; next omitted term is < 1e-15 for x >= 20
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * x2)) / x2) / x2) / x


def log_gamma_ratio(a: float, b: float) -> float:
    """log Gamma(a) - log Gamma(b), carried in log space.

    Raw gamma ratios overflow already for arguments of a few hundred.  For
    large nearby arguments the two lgamma values agree to 8+ digits, so the
    naive difference would lose them; the Stirling difference below keeps the
    relative error of exp(result) at ~1e-14 up to arguments of 1e7.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"gamma ratio needs positive arguments, got a={a}, b={b}")
    if a == b:
        return 0.0
    if min(a, b) < _STIRLING_MIN:
        # small arguments: lgamma values are O(10), no cancellation to fear
        return math.lgamma(a) - math.lgamma(b)
    d = b - a
    value = (
        -(a - 0.5) * math.log1p(d / a)
        - d * math.log(b)
        + d
        + _stirling_correction(a)
        - _stirling_correction(b)
    )
    return value


def _log_gamma_ratio_rounding(a: float, b: float) -> float:
    """A bound on the absolute rounding error of log_gamma_ratio(a, b), in
    units of eps: each term's own rounding and that of the sums."""
    if a == b:
        return 0.0
    if min(a, b) < _STIRLING_MIN:
        # lgamma is good to _LGAMMA_ULPS ulp of max(|lgamma|, 1) (relative
        # above magnitude 1, absolute below), and the difference rounds once more
        return (_LGAMMA_ULPS + 0.5) * (max(abs(math.lgamma(a)), 1.0) + max(abs(math.lgamma(b)), 1.0))
    d = b - a
    return 5.0 * abs((a - 0.5) * math.log1p(d / a)) + 4.0 * abs(d * math.log(b)) + 2.0 * abs(d) + 1.0


def gaussian_abs_moment(k: int) -> float:
    """E|eta|^k for a standard normal eta: 2^(k/2) Gamma((k+1)/2) / sqrt(pi)."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    if k == 0:
        return 1.0
    return math.exp(0.5 * k * math.log(2.0) + math.lgamma((k + 1) / 2) - 0.5 * math.log(math.pi))


def _gaussian_abs_moment_rounding(k: int) -> float:
    """A bound on the relative rounding error of gaussian_abs_moment(k), in
    units of eps: each term of the exponent rounds at a few ulp of its size,
    lgamma at _LGAMMA_ULPS and the sum at half an ulp more, and exp adds 1."""
    lg = max(abs(math.lgamma((k + 1) / 2)), 1.0)
    return 5.0 + k + (_LGAMMA_ULPS + 0.5) * lg + abs(math.log(gaussian_abs_moment(k)))
