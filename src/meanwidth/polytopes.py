"""Moments of the random projection width of the regular polytope families.

The four families are the unit-volume cube Q_n in R^n, the corner simplex
S_{n-1} = conv(e_1, ..., e_n) in R^n, the regular simplex T_{n-1} with n
vertices inscribed in the unit sphere of R^{n-1}, and the crosspolytope
C_n = conv(+-e_1, ..., +-e_n).

Every width is W = X / |g| with g ~ N(0, I_d), d the ambient dimension, and
X a Gaussian extreme of g: the sum of absolute values (cube), twice the max
of absolute values (crosspolytope) or the scaled range (simplices).  The
direction g/|g| is independent of |g|, so E[W^k] = E[X^k] / E|g|^k.  The
cube's E[X^k] has a closed form for every k; the other families take it from
the quadratures of extremes: max_abs_moments (crosspolytope) and
range_moments (simplices).  This module is the reduction E[X^k] -> E[W^k].
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

from .extremes import _SQRT_2PI, expected_max, max_abs_moments, range_moments
from .special import (
    _EPS, _gaussian_abs_moment_rounding, gaussian_abs_moment, log_half_gamma_ratio,
)

__all__ = [
    "PolytopeKind",
    "RegularPolytope",
    "MomentEstimate",
    "v1_from_mean_width",
    "width_moment_cube",
    "width_moment",
    "family_width_moments",
    "sudakov_v1",
]


class PolytopeKind(str, enum.Enum):
    CUBE = "cube"
    SIMPLEX_S = "simplex-s"
    SIMPLEX_T = "simplex-t"
    CROSS = "cross"


@dataclass(frozen=True)
class RegularPolytope:
    kind: PolytopeKind
    n: int  # family parameter: Q_n, S_{n-1}, T_{n-1}, C_n

    def __post_init__(self):
        # a plain string names its member; an unknown name raises ValueError
        object.__setattr__(self, "kind", PolytopeKind(self.kind))
        # a numpy integer becomes its Python int; a float or a bool is refused
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"family parameter must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError(f"family parameter must be positive, got {self.n}")
        if self.n > sys.float_info.max:  # an exact comparison, also past double range
            raise ValueError(f"family parameter n={self.n} is past double range")
        if self.kind in (PolytopeKind.SIMPLEX_S, PolytopeKind.SIMPLEX_T) and self.n < 2:
            raise ValueError(f"a simplex needs at least 2 vertices, got n={self.n}")

    @property
    def ambient_dim(self) -> int:
        # T_{n-1} lives in the hyperplane realization of R^{n-1}; the others
        # sit in R^n.
        return self.n - 1 if self.kind is PolytopeKind.SIMPLEX_T else self.n


@dataclass(frozen=True)
class MomentEstimate:
    polytope: RegularPolytope
    k: int
    value: float
    route: str  # closed_form | quadrature | monte_carlo
    error: float  # deterministic bound for closed_form/quadrature, stderr for MC


def v1_from_mean_width(dim: int, mean_width: float) -> float:
    """First intrinsic volume from the mean width of a body in R^dim:
    V1 = sqrt(pi) Gamma((dim+1)/2) / Gamma(dim/2) * E[W]."""
    v1 = math.exp(0.5 * math.log(math.pi) + log_half_gamma_ratio(dim)[0]) * mean_width
    if math.isinf(v1):
        raise ValueError(f"V1 in dimension {dim} is out of double-precision range")
    return v1


def _abs_sum_moments(n: int, ks) -> dict[int, tuple[float, float]]:
    """{k: (E[(|eta_1| + ... + |eta_n|)^k], error bound)} for each k, in one pass.

    Binary powering of the moment sequence of |eta| under the binomial
    convolution (x * y)_j = sum_i C(j, i) x_i y_{j-i}, which adds only
    positive terms.  With each m_j good to relative d_j, entry k is good to
    relative k (max_{j<=k} d_j / j + 2 eps L) after L <= 2 bit_length(n)
    sequential convolutions, since each adds at most (j + 3) eps / 2 <= 2 j eps
    to entry j.  Entry j reads entries up to j only: each k gets its own bits.
    """
    top = max(ks, default=0)
    m = [gaussian_abs_moment(j) for j in range(top + 1)]

    def convolve(x, y):
        return [math.fsum(math.comb(j, i) * x[i] * y[j - i] for i in range(j + 1)) for j in range(top + 1)]

    power, total, e = m, None, n
    while True:
        if e & 1:
            total = power if total is None else convolve(total, power)
        e >>= 1
        if not e:
            break
        power = convolve(power, power)
    out, d = {}, 0.0
    for j in range(1, top + 1):
        d = max(d, _gaussian_abs_moment_rounding(j) / j)
        out[j] = (total[j], j * _EPS * (d + 4.0 * n.bit_length()) * total[j])
    return {k: out[k] for k in ks}


def _per_norm(moment: float, err: float, d: int, k: int) -> tuple[float, float, float]:
    """moment and err divided by E|g|^k for g ~ N(0, I_d), and a bound on the
    relative rounding of that division, in units of eps.

    E|g|^k = 2^(k/2) Gamma((d+k)/2) / Gamma(d/2) is E|g|^(k mod 2) times
    (d + i) over i = k mod 2, k mod 2 + 2, ..., k - 2.  Dividing by one factor
    at a time keeps every step in double range, at eps/2 each.  For odd k,
    1 / E|g| = exp(y), y = -log(2) / 2 - log_half_gamma_ratio(d), right at
    every d: exp turns y's absolute rounding relative and adds its own, and
    the product adds half an eps."""
    rounding = 0.5 * (k // 2)
    if k % 2:
        ratio, ratio_eps = log_half_gamma_ratio(d)
        y = -0.5 * math.log(2.0) - ratio
        moment, err = moment * math.exp(y), err * math.exp(y)
        rounding += 4.0 + abs(y) + ratio_eps
    for i in range(k % 2, k - 1, 2):
        moment, err = moment / (d + i), err / (d + i)
    return moment, err, rounding


def width_moment_cube(n: int, k: int) -> MomentEstimate:
    """Closed-form E[W_{Q_n}^k] = Gamma(n/2) / (2^(k/2) Gamma((n+k)/2)) E[(sum |eta_i|)^k].
    The benchmark's reference script is what keeps it."""
    return width_moment(RegularPolytope(PolytopeKind.CUBE, n), k)


def family_width_moments(kind: PolytopeKind, ns, ks) -> list[dict[int, MomentEstimate]]:
    """E[W^k] = E[X^k] / E|g|^k of the polytope of kind for each n of ns and
    each k of ks: the cube's closed form (X = sum |eta_i|), or quadrature of
    E[(max |eta_i|)^k] (crosspolytope, X = 2 max |eta_i|) or of E[range^k]
    (simplices, X = range, scaled by sqrt(n/(n-1)) for T_{n-1}), every n and
    k of one quadrature in one batch.  The error adds the rounding of the
    scaling to that of E[X^k]."""
    kind = PolytopeKind(kind)
    ps = [RegularPolytope(kind, n) for n in ns]
    ks = tuple(dict.fromkeys(ks))
    if any(k < 1 for k in ks):
        raise ValueError(f"moment orders must be positive, got {ks}")
    route = "quadrature"
    if kind is PolytopeKind.CUBE:
        route, each = "closed_form", []
        for p in ps:
            try:
                each.append(_abs_sum_moments(p.n, ks))
            except OverflowError as exc:
                raise ValueError(f"cube moment n={p.n}, k={max(ks)} is out of double-precision range") from exc
    elif kind is PolytopeKind.CROSS:
        each = max_abs_moments(ns, ks)
    else:
        each = range_moments(ns, ks)
    out = []
    for p, moments in zip(ps, each):
        # scale and its relative rounding in eps: sqrt(n/(n-1)) adds its eps/2 to half the quotient's
        scale, scale_eps = 1.0, 0.0
        if kind is PolytopeKind.CROSS:
            scale = 2.0
        elif kind is PolytopeKind.SIMPLEX_T:
            scale, scale_eps = math.sqrt(p.n / (p.n - 1)), 0.75
        d, ests = p.ambient_dim, {}
        for k, (moment, err) in moments.items():
            value, error, rounding = _per_norm(scale**k * moment, scale**k * err, d, k)
            # scale**k: k times scale's rounding and pow's 1 eps; the product 0.5 eps
            rounding += k * scale_eps + 1.5 if scale_eps else 0.0
            error += _EPS * rounding * abs(value)
            if not (math.isfinite(value) and math.isfinite(error)):
                raise ValueError(f"{kind.value} moment n={p.n}, k={k} is out of double-precision range")
            ests[k] = MomentEstimate(polytope=p, k=k, value=value, route=route, error=error)
        out.append(ests)
    return out


def width_moment(p: RegularPolytope, k: int) -> MomentEstimate:
    """E[W^k] of p alone; the benchmark's reference script is what keeps it."""
    return family_width_moments(p.kind, (p.n,), (k,))[0][k]


def sudakov_v1(p: RegularPolytope) -> float:
    """First intrinsic volume via the Gaussian supremum representation.

    Cube: exactly n.  T_{n-1}: sqrt(2 pi) sqrt(n/(n-1)) E max(eta_1..eta_n).
    S_{n-1}: sqrt((n-1)/n) V1(T_{n-1}).  C_n: sqrt(2 pi) E max |eta_i|.
    """
    if p.kind is PolytopeKind.CUBE:
        return float(p.n)
    if p.kind is PolytopeKind.SIMPLEX_T:
        return _SQRT_2PI * math.sqrt(p.n / (p.n - 1)) * expected_max(p.n)[0]
    if p.kind is PolytopeKind.SIMPLEX_S:
        return math.sqrt((p.n - 1) / p.n) * sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, p.n))
    return _SQRT_2PI * max_abs_moments([p.n], (1,))[0][1][0]
