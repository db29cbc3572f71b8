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

_EULER_GAMMA = 0.5772156649015329
# _z_k1's series coefficients for k < 13 (the first left out is below 1e-20 at z <= 2):
# c_k = 1/(k! (k+1)!) and d_k = c_k (psi(k+1) + psi(k+2))/2, with psi(k+1) = H_k - gamma
_HARMONIC = [math.fsum(1.0 / j for j in range(1, k + 1)) for k in range(14)]
_K1_C = [1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(13)]
_K1_D = [c * ((_HARMONIC[k] + _HARMONIC[k + 1]) / 2.0 - _EULER_GAMMA) for k, c in enumerate(_K1_C)]
# past z = 2, the trapezoid rule's nodes u = j/4 (j = 0 ... 25) and weights e^(-u^2)/4, halved at u = 0
_U2 = [(j / 4.0) ** 2 for j in range(26)]
_W = [math.exp(-u2) / (4.0 if u2 else 8.0) for u2 in _U2]
# points per math.erfc pass of the normal CDF, which holds them as Python floats
_ERFC_SLICE = 1 << 13


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
    widths = np.concatenate(_map_chunks(lambda rng, c: width_samples(p, rng, c), cfg, threads))
    return law, np.sort(standardize(p, widths))


def _z_k1(z: np.ndarray) -> np.ndarray:
    """z K1(z) for an array of z >= 0, by limit_cdf's two branches."""
    out = np.empty_like(z)
    near = z <= 2.0
    # z = 0 (x past about 1490) would make z^2 log(z/2) a NaN; the floor gives 1, as any z below 1e-9 does
    zn = np.maximum(z[near], np.finfo(float).tiny)
    q = zn * zn / 4.0
    out[near] = 1.0 + 2.0 * q * (np.log(zn / 2.0) * np.polyval(_K1_C[::-1], q) - np.polyval(_K1_D[::-1], q))
    # e^(-z) is 0 from z ~ 745; the clamp keeps z = inf (x = -inf) from giving inf/inf
    zf = np.minimum(z[~near], 800.0)
    out[~near] = 2.0 * np.exp(-zf) * sum(w * (zf + u2) / np.sqrt(2.0 * zf + u2) for u2, w in zip(_U2, _W))
    return out


def limit_cdf(law: LimitLaw, x):
    """CDF of a limit law; a float for a scalar, else an array.

    The normal law's is erfc(-y / sqrt(2 LIMIT_VAR)) / 2, by math.erfc point by
    point over slices of _ERFC_SLICE points.  For the Gumbel sum, s = e^(-G2) gives P[G1 + G2 <= x] = int_0^inf
    exp(-s - e^(-x)/s) ds = z K1(z), z = 2 e^(-x/2).  For z <= 2, A&S 9.6.11
    (K1 = 1/z + log(z/2) I1 - (z/4) sum_k (psi(k+1) + psi(k+2)) (z^2/4)^k / (k! (k+1)!),
    I1 = (z/2) sum_k (z^2/4)^k / (k! (k+1)!)) yields _z_k1's series.  Past it,
    u = sqrt(2z) sinh(t/2) in K1(z) = int_0^inf e^(-z cosh t) cosh t dt gives z K1(z)
    = 2 e^(-z) int_0^inf e^(-u^2) (z + u^2) / sqrt(2z + u^2) du, whose even integrand
    is analytic for |Im u| < sqrt(2z), at least 2: the trapezoid rule at h = 1/4
    errs by about e^(4 - 16 pi) < 1e-19, and the nodes past u = 6.25 add under e^(-42)."""
    law = LimitLaw(law)
    arr = np.asarray(x, dtype=float)
    # far in a tail, a finite x overflows exp or the normal's divide to inf,
    # which yields the exact 0 or 1
    with np.errstate(over="ignore"):
        if law is LimitLaw.TWO_GUMBEL:
            out = np.exp(-np.exp(-arr / 2.0))
        elif law is LimitLaw.NORMAL_LIMIT_VAR:
            flat, out = arr.ravel(), np.empty(arr.size)
            for start in range(0, arr.size, _ERFC_SLICE):
                y = (flat[start : start + _ERFC_SLICE] / -math.sqrt(2.0 * LIMIT_VAR)).tolist()
                np.multiply(np.fromiter(map(math.erfc, y), float, len(y)), 0.5, out=out[start : start + len(y)])
            out = out.reshape(arr.shape)
        else:
            out = _z_k1(2.0 * np.exp(-arr / 2.0))
    return out if out.ndim else float(out)


def ks_statistic(sample: np.ndarray, law: LimitLaw) -> float:
    """Kolmogorov-Smirnov distance between a sorted 1-D sample and a limit law."""
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 1:
        raise ValueError(f"KS statistic needs a 1-D sample, got shape {sample.shape}")
    if sample.size == 0:
        raise ValueError("KS statistic needs a nonempty sample")
    if np.any(sample[1:] < sample[:-1]):
        raise ValueError("sample must be sorted ascending")
    n = sample.size
    cdf = limit_cdf(law, sample)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
