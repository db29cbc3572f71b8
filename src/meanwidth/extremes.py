"""Expected maxima of independent Gaussian samples, by quadrature.

Computes A_n = E max(|eta_1|, ..., |eta_n|), its higher moments and
B_m = E max(eta_1, ..., eta_m) as integrals of survival functions, the
centering sequence u_n, the quantile sequence t_n, and the two comparison
inequalities

    B_{2n} <= A_n <= sqrt(2n/(2n-1)) * B_{2n},
    A_n / B_{2n} = 1 + (1 + o(1)) / (8 n log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate
from scipy.special import gammaincc

from .special import gaussian_abs_moment, normal_tail, normal_tail_inverse

__all__ = [
    "QuadratureConfig",
    "NumericalError",
    "QuadratureError",
    "IndefiniteMatrixError",
    "ExtremeValueResult",
    "ComparisonReport",
    "u_sequence",
    "solve_t_n",
    "max_abs_moment",
    "expected_max_abs",
    "expected_max",
    "expected_max_gap",
    "comparison_report",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# survival-function mass cut off beyond each quadrature's upper limit
_TRUNC_EPS = 1e-16


class NumericalError(Exception):
    """A computation that cannot produce a trustworthy number (CLI exit 4)."""


class QuadratureError(NumericalError, RuntimeError):
    """Raised when an adaptive quadrature cannot reach the requested tolerance."""


class IndefiniteMatrixError(NumericalError, ValueError):
    """Raised when a matrix that must be positive semidefinite is not."""


@dataclass(frozen=True)
class QuadratureConfig:
    epsabs: float = 1e-12
    epsrel: float = 1e-12
    limit: int = 200


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class ExtremeValueResult:
    n: int
    kind: str  # "max" or "max_abs"
    value: float
    abs_error_bound: float


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    a_n: float
    b_2n: float
    ratio: float
    slepian_ok: bool
    upper_ok: bool
    gap_normalized: float  # 8 n log n (a_n / b_2n - 1); nan for n = 1
    slack: float


def _quad(f, lo, hi, cfg: QuadratureConfig, points=None):
    """The package's one adaptive quadrature: scipy's quad under cfg, raising
    QuadratureError instead of warning when it does not converge."""
    if points is not None and len(points) >= cfg.limit:
        raise QuadratureError(f"{len(points)} break points need more than limit={cfg.limit} subintervals")
    value, err, info, *rest = integrate.quad(
        f, lo, hi, epsabs=cfg.epsabs, epsrel=cfg.epsrel, limit=cfg.limit,
        points=points, full_output=True,
    )
    if rest:
        raise QuadratureError(f"quadrature did not converge: {rest[0]}")
    return value, err


def u_sequence(n: int) -> float:
    """Centering sequence u_n = sqrt(2 log n) - (log log n / 2 + log(2 sqrt(pi))) / sqrt(2 log n)."""
    if n < 2:
        raise ValueError(f"u_n needs n >= 2, got {n}")
    s = math.sqrt(2.0 * math.log(n))
    return s - (0.5 * math.log(math.log(n)) + math.log(2.0 * math.sqrt(math.pi))) / s


def solve_t_n(n: int) -> float:
    """The t with normal_tail(t) = 1/(2n), i.e. the (1 - 1/(2n)) normal quantile."""
    if n < 1:
        raise ValueError(f"t_n needs n >= 1, got {n}")
    # closed form through erfcinv; abs turns its -0.0 at n = 1 into 0.0
    return abs(float(normal_tail_inverse(1.0 / (2.0 * n))))


def _survival_moments(surv, ks, envelope: float, cfg: QuadratureConfig, peak: float, scale: float = 1.0):
    """{k: (int_0^inf k t^(k-1) surv(t) dt, error bound)} for a survival
    function under the envelope surv(t) <= envelope * normal_tail(t / scale).

    Every k integrates over [0, T], envelope * normal_tail(T / scale) =
    _TRUNC_EPS, split at peak unless it is 0, reading one memo of surv values.
    Its error adds the envelope's exact moment beyond T, with U = T / scale:
    envelope scale^k (E|eta|^k Q((k+1)/2, U^2/2) / 2 - U^k normal_tail(U)).
    """
    ks = tuple(dict.fromkeys(ks))
    if any(k < 1 for k in ks):
        raise ValueError(f"moment orders must be positive, got {ks}")
    u = float(normal_tail_inverse(min(_TRUNC_EPS / envelope, 0.25)))
    points = [peak] if peak else None
    memo = {}

    def cached(t):
        s = memo.get(t)
        if s is None:
            s = memo[t] = surv(t)
        return s

    out = {}
    for k in ks:
        try:
            value, err = _quad(lambda t: k * t ** (k - 1) * cached(t), 0.0, scale * u, cfg, points=points)
            q = float(gammaincc((k + 1) / 2, 0.5 * u * u))
            err += envelope * scale**k * (0.5 * gaussian_abs_moment(k) * q - u**k * float(normal_tail(u)))
        except OverflowError as exc:
            raise ValueError(f"moment of order {k} is out of double-precision range") from exc
        out[k] = (value, err)
    return out


def max_abs_moment(n: int, k: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> tuple[float, float]:
    """E[(max |eta_i|)^k] = int_0^inf k t^(k-1) (1 - F_n(t)) dt, with error bound."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def surv(t):
        r = float(normal_tail(t))
        return 1.0 if r >= 0.5 else -math.expm1(n * math.log1p(-2.0 * r))

    # 1 - F_n <= 2n normal_tail(t)
    return _survival_moments(surv, (k,), 2 * n, cfg, peak=solve_t_n(n))[k]


def expected_max_abs(n: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> ExtremeValueResult:
    """A_n = E max(|eta_1|, ..., |eta_n|), the k = 1 case of max_abs_moment."""
    value, err = max_abs_moment(n, 1, cfg)
    return ExtremeValueResult(n=n, kind="max_abs", value=value, abs_error_bound=err)


def _neg_part(m: int, cfg: QuadratureConfig) -> tuple[float, float]:
    # int_0^inf normal_tail(t)^m dt with its error bound.  The integrand is
    # <= 2^-m for t >= 0 and decays super-exponentially; truncate where the
    # log-integrand drops below -45.
    def integrand(t):
        r = float(normal_tail(t))
        return math.exp(m * math.log(r)) if r > 0 else 0.0

    t_neg = float(normal_tail_inverse(min(math.exp(-45.0 / m), 0.25)))
    value, err = _quad(integrand, 0.0, t_neg, cfg)
    return value, err + math.exp(-45.0)


def expected_max(m: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> ExtremeValueResult:
    """B_m = E max(eta_1, ..., eta_m).

    Split over the positive and negative parts:
    int_0^inf (1 - G(t)) dt - int_0^inf normal_tail(t)^m dt, with the small
    correction integral computed rather than dropped.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")

    def pos_part(t):
        r = float(normal_tail(t))
        return -math.expm1(m * math.log1p(-r))

    pos, err_pos = _survival_moments(pos_part, (1,), m, cfg, peak=solve_t_n(m))[1]
    neg, err_neg = _neg_part(m, cfg)
    return ExtremeValueResult(n=m, kind="max", value=pos - neg, abs_error_bound=err_pos + err_neg)


def expected_max_gap(n: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> ExtremeValueResult:
    """The difference A_n - B_{2n}, computed without cancellation.

    A_n - B_{2n} = int_0^inf (G_n(t) - F_n(t)) dt + int_0^inf normal_tail(t)^{2n} dt
    where the first integrand is evaluated as exp(a) * expm1(b - a) with
    a = n log(1 - 2r), b = 2n log(1 - r), b - a = n log1p(r^2 / (1 - 2r)).
    The direct subtraction of two ~sqrt(2 log n)-sized quadratures would lose
    every significant digit of the O(1 / (n sqrt(log n))) gap.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def diff(t):
        r = float(normal_tail(t))
        one_minus_2r = -math.expm1(math.log(2.0) + math.log(r)) if r > 0 else 1.0
        if one_minus_2r <= 0.0:
            # F_n vanishes here; the difference is G_n itself.
            return math.exp(2 * n * math.log1p(-r))
        a = n * math.log1p(-2.0 * r)
        delta = n * math.log1p(r * r / one_minus_2r)
        if delta > 30.0:
            # F_n is negligible next to G_n; no cancellation to protect
            return math.exp(a + delta) - math.exp(a)
        return math.exp(a) * math.expm1(delta)

    # |G_n - F_n| <= 1 - F_n <= 2n normal_tail(t)
    value, err = _survival_moments(diff, (1,), 2 * n, cfg, peak=solve_t_n(n))[1]
    neg, err_neg = _neg_part(2 * n, cfg)
    return ExtremeValueResult(n=n, kind="gap", value=value + neg, abs_error_bound=err + err_neg)


def comparison_report(n: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> ComparisonReport:
    """Both comparison inequalities plus the normalized gap 8 n log n (a_n / b_2n - 1).

    b_2n is recovered as a_n minus the cancellation-free gap so that the
    normalized gap keeps full relative accuracy even at n = 1e5, where
    a_n / b_2n - 1 is of order 1e-7.
    """
    a = expected_max_abs(n, cfg)
    gap = expected_max_gap(n, cfg)
    b_val = a.value - gap.value
    slack = a.abs_error_bound + gap.abs_error_bound
    ratio = a.value / b_val
    slepian_ok = gap.value >= -slack
    upper_ok = a.value <= math.sqrt(2 * n / (2 * n - 1)) * b_val + slack
    gap_norm = 8.0 * n * math.log(n) * (gap.value / b_val) if n >= 2 else math.nan
    return ComparisonReport(
        n=n, a_n=a.value, b_2n=b_val, ratio=ratio,
        slepian_ok=bool(slepian_ok), upper_ok=bool(upper_ok),
        gap_normalized=gap_norm, slack=slack,
    )
