"""Special functions used throughout the library.

Everything here is a pure, stateless function: the standard normal tail,
the half-step log gamma ratio and absolute Gaussian moments.  The gamma
function comes from math; scipy.special, which the normal tail's erfc needs,
is imported on first use, and only the quadratures use it (B_m for m <= 5 is
a closed form and runs none; the limit laws' CDFs take math and numpy).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "normal_tail",
    "normal_tail_inverse",
    "log_half_gamma_ratio",
    "gaussian_abs_moment",
]

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
# log_half_gamma_ratio takes the Stirling difference once d / 2 reaches this
_STIRLING_MIN = 20.0
# math.lgamma is good to this many ulp of max(|lgamma|, 1) at the multiples of
# 1/2 the package passes it (worst seen: 2.71 ulp at 6.5); pinned by a test
_LGAMMA_ULPS = 3.0


@functools.cache
def _scipy_special():
    """scipy.special, imported on the first call: the package's one import of
    it, which costs more than numpy's and which only the quadratures need."""
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


def log_half_gamma_ratio(d: int) -> tuple[float, float]:
    """(log Gamma((d+1)/2) - log Gamma(d/2), a bound on its absolute rounding
    in eps) for an integer d >= 1: E|g| = sqrt(2) Gamma((d+1)/2) / Gamma(d/2)
    for g ~ N(0, I_d).  Past _STIRLING_MIN the lgamma values would cancel, so
    a Stirling difference with the step fixed at exactly 1/2 keeps the digits,
    also where d/2 and (d+1)/2 round to one double (d >= 2^53).  The bound
    adds each term's rounding and the sums'; the arguments' own eps/2 from
    2^53 on moves the result by under an eps, inside the first two budgets."""
    if d < 1:
        raise ValueError(f"the half-step gamma ratio needs d >= 1, got {d}")
    x, a = d / 2, (d + 1) / 2
    if x < _STIRLING_MIN:
        # lgamma is good to _LGAMMA_ULPS ulp of max(|lgamma|, 1) (relative above
        # magnitude 1, absolute below), and the difference rounds once more
        la, lx = math.lgamma(a), math.lgamma(x)
        return la - lx, (_LGAMMA_ULPS + 0.5) * (max(abs(la), 1.0) + max(abs(lx), 1.0))
    head = x * math.log1p(-0.5 / a)
    value = -head + 0.5 * math.log(x) - 0.5 + _stirling_correction(a) - _stirling_correction(x)
    return value, 5.0 * abs(head) + 2.0 * abs(math.log(x)) + 2.0


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
