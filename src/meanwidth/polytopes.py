"""Moments of the random projection width of the regular polytope families.

The four families are the unit-volume cube Q_n in R^n, the corner simplex
S_{n-1} = conv(e_1, ..., e_n) in R^n, the regular simplex T_{n-1} with n
vertices inscribed in the unit sphere of R^{n-1}, and the crosspolytope
C_n = conv(+-e_1, ..., +-e_n).

Every width is W = X / |g| with g ~ N(0, I_d), d the ambient dimension, and
X a Gaussian extreme of g: the sum of absolute values (cube), twice the max
of absolute values (crosspolytope) or the scaled range (simplices).  The
direction g/|g| is independent of |g|, so E[W^k] = E[X^k] / E|g|^k.  The
cube's E[X^k] has a closed form for every k; the other families go through
adaptive quadrature of survival-function integrals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .extremes import (
    DEFAULT_QUAD,
    QuadratureConfig,
    _SQRT_2PI,
    _quad,
    _trunc_point,
    expected_max,
    expected_max_abs,
    max_abs_moment,
    solve_t_n,
)
from .special import gaussian_abs_moment, log_gamma_ratio, normal_tail

__all__ = [
    "PolytopeKind",
    "RegularPolytope",
    "MomentEstimate",
    "v1_from_mean_width",
    "width_moment_cube",
    "width_moment",
    "width_moments",
    "range_cdf",
    "range_moments",
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
        if self.n < 1:
            raise ValueError(f"family parameter must be positive, got {self.n}")
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
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return math.exp(0.5 * math.log(math.pi) + log_gamma_ratio((dim + 1) / 2, dim / 2)) * mean_width


def _abs_sum_moment(n: int, k: int) -> float:
    # E[(|eta_1| + ... + |eta_n|)^k]: the cumulants of a sum of n iid terms
    # are n times those of |eta|; moments <-> cumulants by the recursion
    # m_j = sum_{i=1..j} C(j-1, i-1) kappa_i m_{j-i}.
    m = [gaussian_abs_moment(j) for j in range(k + 1)]
    kappa = [0.0] * (k + 1)
    for j in range(1, k + 1):
        kappa[j] = m[j] - sum(math.comb(j - 1, i - 1) * kappa[i] * m[j - i] for i in range(1, j))
    s = [1.0] + [0.0] * k
    for j in range(1, k + 1):
        s[j] = sum(math.comb(j - 1, i - 1) * n * kappa[i] * s[j - i] for i in range(1, j + 1))
    return s[k]


def _per_norm_moment(x: float, d: int, k: int) -> float:
    """x / E|g|^k for g ~ N(0, I_d), where E|g|^k = 2^(k/2) Gamma((d+k)/2) / Gamma(d/2)."""
    if k % 2 == 0:
        # E|g|^k is exactly d (d+2) ... (d+k-2) for even k
        return x / math.prod(float(d + 2 * j) for j in range(k // 2))
    return x * math.exp(-0.5 * k * math.log(2.0) + log_gamma_ratio(d / 2, (d + k) / 2))


def width_moment_cube(n: int, k: int) -> MomentEstimate:
    """Closed-form E[W_{Q_n}^k] = Gamma(n/2) / (2^(k/2) Gamma((n+k)/2)) E[(sum |eta_i|)^k]."""
    p = RegularPolytope(PolytopeKind.CUBE, n)
    if k < 1:
        raise ValueError(f"moment order must be positive, got {k}")
    try:
        moment = _abs_sum_moment(n, k)
    except OverflowError:
        moment = math.inf
    value = _per_norm_moment(moment, n, k)
    if not math.isfinite(value):
        raise ValueError(f"cube moment n={n}, k={k} is out of double-precision range")
    return MomentEstimate(polytope=p, k=k, value=value, route="closed_form", error=8.0 * abs(value) * 2.2e-16)


def range_cdf(n: int, t: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """P[max eta_i - min eta_i <= t] = n int phi(x) (Phi(x+t) - Phi(x))^(n-1) dx."""
    if n < 2:
        raise ValueError(f"range needs n >= 2, got {n}")
    if t <= 0:
        return 0.0

    def integrand(x):
        diff = float(normal_tail(x)) - float(normal_tail(x + t))
        if diff <= 0.0:
            return 0.0
        return math.exp(-0.5 * x * x) / _SQRT_2PI * diff ** (n - 1)

    value, _ = _quad(integrand, -t - 9.0, 9.0, cfg)
    return min(n * value, 1.0)


def range_moments(n: int, ks, cfg: QuadratureConfig = DEFAULT_QUAD) -> dict[int, tuple[float, float]]:
    """E[(max eta_i - min eta_i)^k] with error bound for each k, by nested
    quadrature of the range CDF.  The outer quadratures of every k sample the
    same nodes, so each range-CDF value is computed once per call."""
    ks = tuple(dict.fromkeys(ks))
    if n < 2:
        raise ValueError(f"range needs n >= 2, got {n}")
    if any(k < 1 for k in ks):
        raise ValueError(f"moment orders must be positive, got {ks}")
    # range > t forces max > t/2 or -min > t/2, so the survival function is
    # bounded by 2n normal_tail(t/2)
    t_hi = 2.0 * _trunc_point(2 * n)
    inner_cfg = replace(cfg, epsabs=min(cfg.epsabs, 1e-13))
    outer_cfg = replace(cfg, epsrel=max(cfg.epsrel, 1e-11))
    points = [2.0 * solve_t_n(n)]
    survival = {}

    def surv(t):
        s = survival.get(t)
        if s is None:
            s = survival[t] = 1.0 - range_cdf(n, t, inner_cfg)
        return s

    out = {}
    for k in ks:
        value, err = _quad(lambda t: k * t ** (k - 1) * surv(t), 0.0, t_hi, outer_cfg, points=points)
        tail = 2 * n * k * t_hi ** (k - 1) * float(normal_tail(t_hi / 2.0)) * 4.0
        out[k] = (value, err + tail)
    return out


def width_moments(p: RegularPolytope, ks, cfg: QuadratureConfig = DEFAULT_QUAD) -> dict[int, MomentEstimate]:
    """E[W^k] = E[X^k] / E|g|^k for several k: the cube's closed form, or
    quadrature of E[(max |eta_i|)^k] (crosspolytope, X = 2 max |eta_i|) or of
    E[range^k] (simplices, X = range, scaled by sqrt(n/(n-1)) for T_{n-1}),
    every k from one set of range-CDF values."""
    ks = tuple(dict.fromkeys(ks))
    if p.kind is PolytopeKind.CUBE:
        return {k: width_moment_cube(p.n, k) for k in ks}
    if any(k < 1 for k in ks):
        raise ValueError(f"moment orders must be positive, got {ks}")
    if p.kind is PolytopeKind.CROSS:
        scale, moments = 2.0, {k: max_abs_moment(p.n, k, cfg) for k in ks}
    else:
        scale = math.sqrt(p.n / (p.n - 1)) if p.kind is PolytopeKind.SIMPLEX_T else 1.0
        moments = range_moments(p.n, ks, cfg)
    out = {}
    for k, (moment, err) in moments.items():
        sk = scale**k
        out[k] = MomentEstimate(
            polytope=p,
            k=k,
            value=_per_norm_moment(sk * moment, p.ambient_dim, k),
            route="quadrature",
            error=_per_norm_moment(sk * err, p.ambient_dim, k),
        )
    return out


def width_moment(p: RegularPolytope, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> MomentEstimate:
    return width_moments(p, (k,), cfg)[k]


def sudakov_v1(p: RegularPolytope, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """First intrinsic volume via the Gaussian supremum representation.

    Cube: exactly n.  T_{n-1}: sqrt(2 pi) sqrt(n/(n-1)) E max(eta_1..eta_n).
    S_{n-1}: sqrt((n-1)/n) V1(T_{n-1}).  C_n: sqrt(2 pi) E max |eta_i|.
    """
    if p.kind is PolytopeKind.CUBE:
        return float(p.n)
    if p.kind is PolytopeKind.SIMPLEX_T:
        return _SQRT_2PI * math.sqrt(p.n / (p.n - 1)) * expected_max(p.n, cfg).value
    if p.kind is PolytopeKind.SIMPLEX_S:
        return math.sqrt((p.n - 1) / p.n) * sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, p.n), cfg)
    return _SQRT_2PI * expected_max_abs(p.n, cfg).value
