"""Expected extremes of independent Gaussian samples, by quadrature.

Computes A_n = E max(|eta_1|, ..., |eta_n|), B_m = E max(eta_1, ..., eta_m)
(in closed form for m <= 5) and the higher moments of max |eta_i| and of the
range max eta_i - min eta_i as integrals of survival functions, all through
the package's one adaptive quadrature, _quad_batch; the centering sequence
u_n, the quantile sequence t_n, and the two comparison inequalities

    B_{2n} <= A_n <= sqrt(2n/(2n-1)) * B_{2n},
    A_n / B_{2n} = 1 + (1 + o(1)) / (8 n log n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .special import _EPS, normal_tail, normal_tail_inverse

__all__ = [
    "NumericalError",
    "QuadratureError",
    "IndefiniteMatrixError",
    "ComparisonReport",
    "u_sequence",
    "solve_t_n",
    "max_abs_moments",
    "range_moments",
    "expected_max",
    "expected_max_gap",
    "comparison_reports",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
_ASIN_THIRD = math.asin(1.0 / 3.0)
# B_1, ..., B_5 in closed form (Bose and Gupta, Biometrika 46, 1959)
_CLOSED_MAX = (0.0, 1.0 / _SQRT_PI, 1.5 / _SQRT_PI, 1.5 / _SQRT_PI * (1.0 + 2.0 / math.pi * _ASIN_THIRD),
               1.25 / _SQRT_PI * (1.0 + 6.0 / math.pi * _ASIN_THIRD))
# their rounding bound in eps relative: math.pi, 1/3, sqrt and asin each add at
# most an ulp, the rest one rounding each, which sums to about 3.2 eps at B_5
_CLOSED_MAX_EPS = 4.0
# survival-function mass cut off beyond each quadrature's upper limit
_TRUNC_EPS = 1e-16


class NumericalError(Exception):
    """A computation that cannot produce a trustworthy number (CLI exit 4)."""


class QuadratureError(NumericalError, RuntimeError):
    """Raised when an adaptive quadrature cannot reach the requested tolerance."""


class IndefiniteMatrixError(NumericalError, ValueError):
    """Raised when a matrix that must be positive semidefinite is not."""


# the most intervals any one integral may use
_LIMIT = 200
# the relative tolerance of every quadrature but range_moments' outer one
_EPSREL = 1e-12
# _range_batch's inner break points between its ends -t/2 and 9, as offsets from x = -t/2
_RANGE_OFFSETS = (0.75, 1.5, 2.5, 4.0, 6.0)
# _survival_moments' break points below each peak, as fractions of it: QAG's
# first two bisection points of [0, peak], which the simplex and
# crosspolytope integrals all reach
_PEAK_FRACTIONS = (0.5, 0.75)
# _survival_moments' break points past each peak, in units of the integral's scale
_OUTER_OFFSETS = (1.0, 3.0)
# range_moments' inner absolute tolerance up to the break point 2 t_n
_RANGE_EPSABS = 1e-13


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


# QUADPACK's qk21 (Piessens et al. 1983): the Kronrod nodes x_1 > ... > x_11 = 0
# on [-1, 1], their weights, and the weights of the embedded 10-point Gauss
# rule, whose nodes are x_2, x_4, ..., x_10.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK21_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525980025, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_GAUSS = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
)


def _mirrored(half, sign):
    # the 21 entries from -1 to 1, given those of x_1, ..., x_11
    return np.array([sign * v for v in half[:10]] + list(half[::-1]))


_X21 = _mirrored(_GK21_NODES, -1.0)
_WK21 = _mirrored(_GK21_KRONROD, 1.0)
_WG21 = _mirrored(_GK21_GAUSS, 1.0)
_TINY = float(np.finfo(float).tiny)
# the most intervals one call of f sees: 5376 nodes, 43 KB per float64 array,
# small enough that numpy's temporaries reuse freed memory instead of page-faulting
_GK21_ROWS = 256


def _gk21(f, lo, hi, owners):
    """qk21 on each interval (lo[r], hi[r]): the arrays of their Kronrod
    values and of QUADPACK's error estimates, from one call f(nodes, owners)
    per block of at most _GK21_ROWS intervals.  Row sums, not BLAS, so each
    interval's bits do not depend on the others or on the blocks."""
    # one block also when there are no intervals, so f sees the empty node array
    blocks = [_gk21_rows(f, lo[r : r + _GK21_ROWS], hi[r : r + _GK21_ROWS], owners[r : r + _GK21_ROWS])
              for r in range(0, max(len(lo), 1), _GK21_ROWS)]
    values, errors = zip(*blocks)
    return np.concatenate(values), np.concatenate(errors)


def _gk21_rows(f, lo, hi, owners):
    # _gk21 on one block of intervals
    half = 0.5 * (hi - lo)
    fv = f((0.5 * (lo + hi))[:, None] + half[:, None] * _X21, owners)
    resk = (fv * _WK21).sum(axis=1)
    err = np.abs(resk - (fv * _WG21).sum(axis=1)) * half
    res_abs = (np.abs(fv) * _WK21).sum(axis=1) * half
    res_asc = (np.abs(fv - 0.5 * resk[:, None]) * _WK21).sum(axis=1) * half
    rescale = (res_asc != 0.0) & (err != 0.0)
    # Python's pow, which numpy's vector pow does not match to the last bit;
    # fmin, like Python's min(1.0, r), keeps 1.0 over a NaN ratio
    ratio = (200.0 * err[rescale] / res_asc[rescale]).tolist()
    powers = np.fromiter(map(pow, ratio, itertools.repeat(1.5)), float, len(ratio))
    err[rescale] = res_asc[rescale] * np.fmin(1.0, powers)
    # fmax, like Python's max(floor, err), keeps the floor over a NaN estimate (an infinite integrand value)
    floored = res_abs > _TINY / (50.0 * _EPS)
    err[floored] = np.fmax(50.0 * _EPS * res_abs[floored], err[floored])
    return resk * half, err


def _quad_batch(f, edges, epsrel: float = _EPSREL, epsabs=0.0):
    """The package's one adaptive quadrature, QUADPACK's QAG with the 21-point
    Gauss-Kronrod rule and no extrapolation, for several integrals side by
    side.  Integral i starts from the intervals between the break points of
    edges[i], a row of a 2-D array; each round bisects the interval with the
    largest error estimate (the leftmost of equal ones) of every integral
    whose estimates sum to more than max(epsabs, epsrel |value|), epsabs
    one floor or one per integral; only range_moments changes the defaults.
    f(nodes, owners) maps a 2-D array of nodes elementwise to integrand
    values, row r belonging to integral owners[r].  Raises QuadratureError
    when an integral starts from or needs more than _LIMIT intervals.
    Returns [(value, error estimate)] in the order of edges; each equals what
    the integral gets on its own.  Only the integrals that the first round,
    on every row of edges at once, leaves above tolerance get lists."""
    edges = np.asarray(edges, dtype=float)
    count, size = edges.shape[0], edges.shape[1] - 1
    if size > _LIMIT:
        raise QuadratureError(f"an integral starts from more than limit={_LIMIT} intervals")
    values, errors = _gk21(f, edges[:, :-1].ravel(), edges[:, 1:].ravel(), np.repeat(np.arange(count), size))
    vals, errs = values.reshape(count, size).tolist(), errors.reshape(count, size).tolist()
    floors = np.broadcast_to(epsabs, count).tolist()
    # integral i: its break points in ascending order, once it needs a bisection
    points, results, todo = {}, [None] * count, range(count)
    while todo:
        split = {}
        for i in todo:
            value, err = math.fsum(vals[i]), math.fsum(errs[i])
            if err <= max(floors[i], epsrel * abs(value)):
                results[i] = (value, err)
                continue
            if len(errs[i]) >= _LIMIT:
                raise QuadratureError(
                    f"quadrature did not converge: error estimate {err:.3g} after limit={_LIMIT} subintervals"
                )
            if i not in points:
                points[i] = edges[i].tolist()
            # list.index finds the leftmost of equal estimates
            split[i] = j = errs[i].index(max(errs[i]))
            points[i].insert(j + 1, 0.5 * (points[i][j] + points[i][j + 1]))
        if split:
            x = np.array([points[i][j : j + 3] for i, j in split.items()])
            values, errors = _gk21(f, x[:, :2].ravel(), x[:, 1:].ravel(), np.array(list(split)).repeat(2))
            values, errors = values.tolist(), errors.tolist()
            for r, (i, j) in enumerate(split.items()):
                vals[i][j : j + 1], errs[i][j : j + 1] = values[2 * r : 2 * r + 2], errors[2 * r : 2 * r + 2]
        todo = split
    return results


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
    # every survival integral's peak: its cut-off tail _TRUNC_EPS / (2n) must stay a normal double
    if n > _TRUNC_EPS / (2.0 * _TINY):
        raise ValueError(f"n={n} is past double range: the quadratures take n up to {_TRUNC_EPS / (2.0 * _TINY):.4g}")
    # closed form through erfcinv; abs turns its -0.0 at n = 1 into 0.0
    return abs(float(normal_tail_inverse(1.0 / (2.0 * n))))


def _survival_moments(integrals, epsrel: float = _EPSREL):
    """[{k: (int_0^inf k t^(k-1) surv(t) dt, error bound)}] for each
    integral (surv, ks, envelope, peak, scale) of integrals: a survival
    function under the envelope surv(t) <= envelope * normal_tail(t / scale),
    surv mapping an array of t elementwise.  The package's one rule for
    where a quadrature stops and what its tail adds to the error.

    Every k integrates over [0, T], envelope * normal_tail(T / scale) =
    _TRUNC_EPS (T / scale at least the upper quartile), split at f peak
    for f in _PEAK_FRACTIONS, at peak, and at peak + d scale for d in
    _OUTER_OFFSETS, where the tail's mass lies, each break point clamped to
    T (at peak = 0, or where a clamped point meets T, a zero-length interval
    adds an exact 0), every k of every integral in one _quad_batch to the
    relative tolerance epsrel that calls each surv once per interval (a memo
    keyed by the integral and its row of nodes).
    Its error adds a bound on the envelope's moment beyond T.  With U = T / scale,
    normal_tail(s) <= phi(s) / s bounds int_U^inf k s^(k-1) normal_tail(s) ds
    by k J_(k-2) for k >= 2, where J_j = int_U^inf s^j phi(s) ds = U^(j-1) phi(U) + (j-1) J_(j-2),
    J_0 = normal_tail(U) and J_1 = phi(U); for k = 1 the Mills ratio bound
    gives phi(U) / (1 + U^2) <= phi(U) / U^2.
    """
    # quadrature q integrates order k of integral g, (g, k) = orders[q]; tails[q] = (envelope, scale, J term)
    orders, edges, tails = [], [], []
    for g, (_, ks, envelope, peak, scale) in enumerate(integrals):
        ks = tuple(dict.fromkeys(ks))
        if any(k < 1 for k in ks):
            raise ValueError(f"moment orders must be positive, got {ks}")
        # min(_TRUNC_EPS / envelope, 0.25), also for an envelope that underflowed to 0
        u = float(normal_tail_inverse(_TRUNC_EPS / max(envelope, 4.0 * _TRUNC_EPS)))
        # Every term of the bound is positive, so it rounds to about (k + U^2) eps
        # relative: U^2 / 2 from phi(U)'s exp and normal_tail's erfc, a few eps per
        # step of the recurrence.  The bound exceeds the exact tail by 0.3 % or
        # more (about 1 / U^2, or 1 / k once the tail lies well past U), which
        # covers that rounding; a test pins the margin.  A J_j past double range
        # is inf, which the loop refuses.
        phi = math.exp(-0.5 * u * u) / _SQRT_2PI
        j_moments, term = [float(normal_tail(u)), phi], phi
        for j in range(2, max(ks) - 1):
            term *= u
            j_moments.append(term + (j - 1) * j_moments[j - 2])
        orders += [(g, k) for k in ks]
        t_hi = scale * u
        below = [f * peak for f in _PEAK_FRACTIONS]
        edges += [(0.0, *below, *(min(peak + d * scale, t_hi) for d in (0.0, *_OUTER_OFFSETS)), t_hi)] * len(ks)
        tails += [(envelope, scale, k * j_moments[k - 2] if k > 1 else phi / (u * u)) for k in ks]
    integral_of, order_of, memo = np.array([g for g, _ in orders]), np.array([k for _, k in orders]), {}

    def integrand(t, owners):
        keys = list(zip(integral_of[owners].tolist(), map(np.ndarray.tobytes, t)))
        # each new row once per integral, even when several orders bisect its interval
        fresh = {key: r for r, key in enumerate(keys) if key not in memo}
        for g in dict.fromkeys(g for g, _ in fresh):
            new = [key for key in fresh if key[0] == g]
            memo.update(zip(new, integrals[g][0](t[[fresh[key] for key in new]])))
        s = np.array([memo[key] for key in keys])
        out, ks = np.empty_like(t), order_of[owners]
        for k in dict.fromkeys(ks.tolist()):
            # an int exponent: numpy squares t at k = 3, where pow(t, 2.0) can differ
            rows = ks == k
            out[rows] = k * t[rows] ** (k - 1) * s[rows]
        return out

    out, k = [{} for _ in integrals], max((k for _, k in orders), default=0)  # named when the batch itself overflows
    try:
        with np.errstate(over="raise"):
            # 2-D also when empty
            rows = np.reshape(edges, (-1, len(_PEAK_FRACTIONS) + len(_OUTER_OFFSETS) + 3))
            results = _quad_batch(integrand, rows, epsrel)
        for (g, k), (envelope, scale, term), (value, err) in zip(orders, tails, results):
            err += envelope * scale**k * term
            if not math.isfinite(err):
                raise OverflowError
            out[g][k] = (value, err)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"moment of order {k} is out of double-precision range") from exc
    return out


def _max_abs_integral(n: int, ks):
    """max_abs_moments' integral for _survival_moments: 1 - F_n, F_n the CDF of max |eta_i|."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def surv(t):
        # t >= 0, so 2 normal_tail(t) <= 1; at t = 0, log1p(-1) = -inf gives surv = 1
        with np.errstate(divide="ignore"):
            return -np.expm1(n * np.log1p(-2.0 * normal_tail(t)))

    # 1 - F_n <= 2n normal_tail(t)
    return surv, ks, 2 * n, solve_t_n(n), 1.0


def max_abs_moments(ns, ks) -> list[dict[int, tuple[float, float]]]:
    """[{k: (E[(max |eta_i|)^k], error bound)}] for each n of ns, as
    int_0^inf k t^(k-1) (1 - F_n(t)) dt, every n and k in one batch, 1 - F_n
    once per interval."""
    return _survival_moments([_max_abs_integral(n, ks) for n in ns])


def _range_term(n: int, x, u, v):
    """exp(-x^2/2) (u^(n-1) - (u - v)^(n-1)) for 0 <= v <= u, u > 0, elementwise:
    -exp(-x^2/2 + (n-1) log u) expm1((n-1) log1p(-v/u)), one exp for phi and
    the power, which underflows to +0.0 by itself.  v = u only as t -> 0 in
    _range_batch, where log1p(-1) = -inf gives the exact u^(n-1)."""
    with np.errstate(divide="ignore"):
        return -np.exp((n - 1) * np.log(u) - 0.5 * x * x) * np.expm1((n - 1) * np.log1p(-v / u))


def _range_batch(n: int, ts, epsabs) -> list[float]:
    """P[max eta_i - min eta_i > t] at every t > 0 of ts: one batch of
    quadratures, each value the one its t gets on its own under the absolute
    floor epsabs, one for every t or one per t.

    With a = normal_tail(x), b = normal_tail(x + t), p = 1 - a and q = 1 - b,
    the survival is n int phi(x) (a^(n-1) - (a - b)^(n-1)) dx over (-t - 9, 9)
    (the CDF is n int phi(x) (a - b)^(n-1) dx, and n int phi a^(n-1) = 1).
    The reflection x -> -x - t keeps the probability of the window [x, x + t]
    and folds the half below x = -t/2 onto the half above: S(t) / n =
    int_{-t/2}^9 [phi(x) (a^(n-1) - (a - b)^(n-1)) + phi(x + t) (q^(n-1) - (q - p)^(n-1))] dx,
    each bracket -u^(n-1) expm1((n-1) log1p(-v/u)) for (u, v) = (a, b), (q, p),
    without a 1 - CDF cancellation.  One normal_tail(|x|) gives a and p, the
    smaller of them exactly; _range_term gives each term.  The intervals start
    at -t/2 + d for d in 0 and _RANGE_OFFSETS, where the mass lies, and end
    at 9.  From n of about 1.4e19, u^(n-1) underflows for every double
    u < 1: QuadratureError."""
    ts = np.asarray(ts, dtype=float)
    if math.exp(-760.0 / (n - 1)) == 1.0:  # every u^(n-1) is 0 or 1, which cannot resolve S
        raise QuadratureError(f"the range survival at n={n} needs powers u^(n-1) past double resolution")

    def integrand(x, owners):
        shifted = x + ts[owners][:, None]
        c = normal_tail(np.abs(x))
        d, below = 1.0 - c, x < 0.0
        a, p = np.where(below, d, c), np.where(below, c, d)
        b = normal_tail(shifted)
        return (_range_term(n, x, a, b) + _range_term(n, shifted, 1.0 - b, p)) / _SQRT_2PI

    edges = np.column_stack((-0.5 * ts[:, None] + (0.0, *_RANGE_OFFSETS), np.full(len(ts), 9.0)))
    values = _quad_batch(integrand, edges, epsabs=epsabs)
    return [n * value for value, _ in values]


def _range_integral(n: int, ks):
    """range_moments' integral for _survival_moments: the survival function
    of the range, one _range_batch per call on all its nodes, each t with the
    inner absolute floor _RANGE_EPSABS up to the break point 2 t_n and none past it."""
    if n < 2:
        raise ValueError(f"range needs n >= 2, got {n}")
    peak = 2.0 * solve_t_n(n)

    def surv(t):
        # outer nodes lie inside (0, T), so every t > 0
        ts = t.ravel()
        return np.reshape(_range_batch(n, ts, np.where(ts <= peak, _RANGE_EPSABS, 0.0)), t.shape)

    # range > t forces max > t/2 or -min > t/2, so the survival function is
    # bounded by 2n normal_tail(t/2)
    return surv, ks, 2 * n, peak, 2.0


def range_moments(ns, ks) -> list[dict[int, tuple[float, float]]]:
    """[{k: (E[(max eta_i - min eta_i)^k], error bound)}] for each n of ns, by
    nested quadrature of the range survival function S(t) = _range_batch.

    Up to the break point 2 t_n (about the median range) the inner
    quadratures, each over the folded window (-t/2, 9), run to the absolute
    tolerance epsabs = 1e-13 as well as the relative _EPSREL = 1e-12; past
    it, where S is small and the high moments take their weight, to epsrel
    alone.  The outer quadrature runs to 1e-11 relative from the break
    points 0, 2 t_n f for f in _PEAK_FRACTIONS, 2 t_n, 2 t_n + 2 d for d in
    _OUTER_OFFSETS (the range's scale is 2), each clamped to the cut-off T,
    and T.  The error adds what the inner tolerances allow: |dS| <= n epsabs
    + epsrel below the break point, epsrel S past it, so n epsabs + epsrel
    times peak^k plus epsrel times the moment.  The outer quadratures of every n and k run as
    one batch that computes each interval's survival values once, and the
    inner quadratures of one outer call's nodes run as one batch, with a
    floor per t."""
    integrals = [_range_integral(n, ks) for n in ns]
    return [{k: (v, e + (n * _RANGE_EPSABS + _EPSREL) * peak**k + _EPSREL * abs(v)) for k, (v, e) in moments.items()}
            for n, (*_, peak, _), moments in zip(ns, integrals, _survival_moments(integrals, epsrel=1e-11))]


def _max_integral(m: int):
    """expected_max's integral for _survival_moments: 1 - Phi^m - normal_tail^m.

    With G = Phi^m the CDF of the max, B_m = int_0^inf (1 - G) dt -
    int_{-inf}^0 G dt, and int_{-inf}^0 Phi(t)^m dt = int_0^inf
    normal_tail(t)^m dt, so B_m = int_0^inf (1 - Phi(t)^m - normal_tail(t)^m) dt,
    its integrand -expm1(m log1p(-r)) - r^m with r = normal_tail(t).
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")

    def surv(t):
        r = normal_tail(t)
        return -np.expm1(m * np.log1p(-r)) - r**m

    # 0 <= 1 - Phi^m - normal_tail^m <= 1 - Phi^m <= m normal_tail(t)
    return surv, (1,), m, solve_t_n(m), 1.0


def expected_max(m: int) -> tuple[float, float]:
    """(B_m, error bound), B_m = E max(eta_1, ..., eta_m): for m <= 5 the
    closed form _CLOSED_MAX with its rounding bound, which loads no
    scipy.special; past it one survival integral, _max_integral."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m <= len(_CLOSED_MAX):
        value = _CLOSED_MAX[m - 1]
        return value, _CLOSED_MAX_EPS * _EPS * value
    return _survival_moments([_max_integral(m)])[0][1]


def _gap_integral(n: int):
    """expected_max_gap's integral for _survival_moments: G_n - F_n + r^(2n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def diff(t):
        # t in [0, T] keeps r = normal_tail(t) in (0, 1/2]; 1 - 2r is exact for
        # r >= 1/4 (Sterbenz) and +0.0 at t = 0, where delta = inf gives G_n itself
        r = normal_tail(t)
        with np.errstate(divide="ignore"):
            delta = n * np.log1p(r * r / (1.0 - 2.0 * r))
        return np.exp(2 * n * np.log1p(-r)) * -np.expm1(-delta) + r ** (2 * n)

    # G_n - F_n >= 0 and G_n + r^(2n) <= 1, so 0 <= integrand <= 1 - F_n <= 2n normal_tail(t)
    return diff, (1,), 2 * n, solve_t_n(n), 1.0


def expected_max_gap(n: int) -> tuple[float, float]:
    """(A_n - B_{2n}, error bound), one survival integral computed without cancellation.

    With r = normal_tail(t), F_n = (1 - 2r)^n the CDF of max |eta_i| and
    G_n = (1 - r)^(2n) that of the max of 2n, A_n - B_{2n} =
    int_0^inf (G_n(t) - F_n(t) + r^(2n)) dt (the r^(2n) term is B_2n's part
    below 0, as in _max_integral).  G_n - F_n is evaluated as
    G_n * -expm1(-delta), delta = log(G_n / F_n) = n log1p(r^2 / (1 - 2r)).
    The direct subtraction of two ~sqrt(2 log n)-sized quadratures would lose
    every significant digit of the O(1 / (n sqrt(log n))) gap.
    """
    return _survival_moments([_gap_integral(n)])[0][1]


def comparison_reports(ns) -> list[ComparisonReport]:
    """Both comparison inequalities plus the normalized gap
    8 n log n (a_n / b_2n - 1) for each n of ns, from one batch of
    quadratures: A_n and the gap A_n - B_2n of every n side by side.

    b_2n is recovered as a_n minus the cancellation-free gap so that the
    normalized gap keeps full relative accuracy even at n = 1e5, where
    a_n / b_2n - 1 is of order 1e-7.  The flags test the gap against its own
    error, which A_n's outgrows from n of about 1e10: slepian_ok is
    gap >= -gap_err and upper_ok gap - gap_err <= m (b_2n + slack), m = sqrt(2n/(2n-1)) - 1.
    """
    ns = list(ns)
    moments = _survival_moments([q for n in ns for q in (_max_abs_integral(n, (1,)), _gap_integral(n))])
    reports = []
    for n, a, gap in zip(ns, moments[::2], moments[1::2]):
        (a_n, a_err), (gap_n, gap_err) = a[1], gap[1]
        b_2n, slack = a_n - gap_n, a_err + gap_err
        # m = x / (sqrt(1 + x) + 1) for x = 1/(2n-1), without cancellation
        x = 1.0 / (2 * n - 1)
        upper_ok = gap_n - gap_err <= x / (math.sqrt(1.0 + x) + 1.0) * (b_2n + slack)
        gap_norm = 8.0 * n * math.log(n) * (gap_n / b_2n) if n >= 2 else math.nan
        reports.append(ComparisonReport(n=n, a_n=a_n, b_2n=b_2n, ratio=a_n / b_2n, slepian_ok=bool(gap_n >= -gap_err),
                                        upper_ok=bool(upper_ok), gap_normalized=gap_norm, slack=slack))
    return reports
