"""Moments of the random projection width of the regular polytope families.

The four families are the unit-volume cube Q_n in R^n, the corner simplex
S_{n-1} = conv(e_1, ..., e_n) in R^n, the regular simplex T_{n-1} with n
vertices inscribed in the unit sphere of R^{n-1}, and the crosspolytope
C_n = conv(+-e_1, ..., +-e_n).

Every moment E[W^k] reduces to a moment of a Gaussian extreme (sum, max of
absolute values, or range) times a gamma-ratio prefactor.  The cube has a
closed form for every k; the other families go through adaptive quadrature
of survival-function integrals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .extremes import (
    DEFAULT_QUAD,
    QuadratureConfig,
    _quad,
    expected_max,
    expected_max_abs,
    max_abs_moment,
    solve_t_n,
)
from .special import gaussian_abs_moment, log_gamma_ratio, normal_tail, normal_tail_inverse

__all__ = [
    "PolytopeKind",
    "RegularPolytope",
    "MomentEstimate",
    "v1_from_mean_width",
    "width_moment_cube",
    "width_moment_cross",
    "width_moment_simplex_s",
    "width_moment_simplex_t",
    "range_cdf",
    "range_moment",
    "sudakov_v1",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def width_moment_cube(n: int, k: int) -> MomentEstimate:
    """Closed-form E[W_{Q_n}^k] = Gamma(n/2) / (2^(k/2) Gamma((n+k)/2)) E[(sum |eta_i|)^k]."""
    p = RegularPolytope(PolytopeKind.CUBE, n)
    if k < 1:
        raise ValueError(f"moment order must be positive, got {k}")
    try:
        moment = _abs_sum_moment(n, k)
    except OverflowError:
        moment = math.inf
    if k % 2 == 0:
        # the prefactor is exactly 1 / (n (n+2) ... (n+k-2)) for even k
        value = moment / math.prod(float(n + 2 * j) for j in range(k // 2))
    else:
        value = moment * math.exp(-0.5 * k * math.log(2.0) + log_gamma_ratio(n / 2, (n + k) / 2))
    if not math.isfinite(value):
        raise ValueError(f"cube moment n={n}, k={k} is out of double-precision range")
    return MomentEstimate(polytope=p, k=k, value=value, route="closed_form", error=8.0 * abs(value) * 2.2e-16)


def width_moment_cross(n: int, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> MomentEstimate:
    """E[W_{C_n}^k] = 2^(k/2) Gamma(n/2)/Gamma((n+k)/2) E[(max |eta_i|)^k]."""
    p = RegularPolytope(PolytopeKind.CROSS, n)
    if k < 1:
        raise ValueError(f"moment order must be positive, got {k}")
    moment, err = max_abs_moment(n, k, cfg)
    pref = math.exp(0.5 * k * math.log(2.0) + log_gamma_ratio(n / 2, (n + k) / 2))
    return MomentEstimate(polytope=p, k=k, value=pref * moment, route="quadrature", error=pref * err)


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


def range_moment(n: int, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """E[(max eta_i - min eta_i)^k] by nested quadrature of the range CDF."""
    if n < 2:
        raise ValueError(f"range needs n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"moment order must be positive, got {k}")
    # range > t forces max > t/2 or -min > t/2, so the survival function is
    # bounded by 2n normal_tail(t/2)
    t_hi = 2.0 * float(normal_tail_inverse(min(cfg.trunc_eps / (2 * n), 0.25)))
    inner_cfg = replace(cfg, epsabs=min(cfg.epsabs, 1e-13))

    def integrand(t):
        return k * t ** (k - 1) * (1.0 - range_cdf(n, t, inner_cfg))

    outer_cfg = replace(cfg, epsrel=max(cfg.epsrel, 1e-11))
    value, err = _quad(integrand, 0.0, t_hi, outer_cfg, points=[2.0 * solve_t_n(n)])
    tail = 2 * n * k * t_hi ** (k - 1) * float(normal_tail(t_hi / 2.0)) * 4.0
    return value, err + tail


def width_moment_simplex_s(n: int, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> MomentEstimate:
    """E[W_{S_{n-1}}^k] = 2^(-k/2) Gamma(n/2)/Gamma((n+k)/2) E[range^k]."""
    p = RegularPolytope(PolytopeKind.SIMPLEX_S, n)
    moment, err = range_moment(n, k, cfg)
    pref = math.exp(-0.5 * k * math.log(2.0) + log_gamma_ratio(n / 2, (n + k) / 2))
    return MomentEstimate(polytope=p, k=k, value=pref * moment, route="quadrature", error=pref * err)


def width_moment_simplex_t(n: int, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> MomentEstimate:
    """E[W_{T_{n-1}}^k] = 2^(-k/2) Gamma((n-1)/2)/Gamma((n-1+k)/2) (n/(n-1))^(k/2) E[range^k]."""
    p = RegularPolytope(PolytopeKind.SIMPLEX_T, n)
    moment, err = range_moment(n, k, cfg)
    pref = math.exp(
        -0.5 * k * math.log(2.0)
        + log_gamma_ratio((n - 1) / 2, (n - 1 + k) / 2)
        + 0.5 * k * (math.log(n) - math.log(n - 1))
    )
    return MomentEstimate(polytope=p, k=k, value=pref * moment, route="quadrature", error=pref * err)


def width_moment(p: RegularPolytope, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> MomentEstimate:
    """Dispatch to the family-specific closed form or quadrature route."""
    if p.kind is PolytopeKind.CUBE:
        return width_moment_cube(p.n, k)
    if p.kind is PolytopeKind.CROSS:
        return width_moment_cross(p.n, k, cfg)
    if p.kind is PolytopeKind.SIMPLEX_S:
        return width_moment_simplex_s(p.n, k, cfg)
    return width_moment_simplex_t(p.n, k, cfg)


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
