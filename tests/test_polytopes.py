import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate

from meanwidth import extremes, polytopes
from meanwidth.extremes import (
    QuadratureError,
    _TRUNC_EPS,
    _quad_batch,
    _range_batch,
    _range_term,
    expected_max,
    max_abs_moments,
    range_moments,
    solve_t_n,
)
from meanwidth.polytopes import (
    PolytopeKind,
    RegularPolytope,
    _abs_sum_moments,
    family_width_moments,
    sudakov_v1,
    v1_from_mean_width,
    width_moment,
    width_moment_cube,
)
from meanwidth.limits import standardize
from meanwidth.sampling import McConfig, estimate_moments
from meanwidth.special import gaussian_abs_moment, normal_tail, normal_tail_inverse

SQRT_2PI = math.sqrt(2.0 * math.pi)
# the n of the range integrand's checks against its pow reference
POW_NS = [2, 3, 57, 400, 2000, 10**5]


def gamma_ratio(n, k):
    """Gamma(n/2 + k/2) / Gamma(n/2) at 30 digits: the oracles' own gamma ratio."""
    with mpmath.workdps(30):
        return float(mpmath.rf(mpmath.mpf(n) / 2, mpmath.mpf(k) / 2))


def cube_polynomial(n, k):
    """Hand-derived E[W_{Q_n}^k] for k = 1..4: an oracle of the closed form."""
    if k == 1:
        return n / gamma_ratio(n, 1) / math.sqrt(math.pi)
    if k == 2:
        return 1.0 + 2.0 * (n - 1) / math.pi
    if k == 3:
        poly = 2.0 * n * n + (3.0 * math.pi - 6.0) * n + 4.0 - math.pi
        return 0.5 / gamma_ratio(n, 3) * math.pi ** -1.5 * n * poly
    poly = (
        4.0 * n**3
        + (12.0 * math.pi - 24.0) * n**2
        + (44.0 - 20.0 * math.pi + 3.0 * math.pi**2) * n
        + 8.0 * math.pi
        - 24.0
    )
    return poly / ((n + 2) * math.pi**2)


class TestRegularPolytope:
    def test_ambient_dims(self):
        assert RegularPolytope(PolytopeKind.CUBE, 4).ambient_dim == 4
        assert RegularPolytope(PolytopeKind.SIMPLEX_S, 4).ambient_dim == 4
        assert RegularPolytope(PolytopeKind.SIMPLEX_T, 4).ambient_dim == 3
        assert RegularPolytope(PolytopeKind.CROSS, 4).ambient_dim == 4

    def test_simplex_needs_two_vertices(self):
        with pytest.raises(ValueError):
            RegularPolytope(PolytopeKind.SIMPLEX_T, 1)
        with pytest.raises(ValueError):
            RegularPolytope(PolytopeKind.SIMPLEX_S, 1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            RegularPolytope(PolytopeKind.CUBE, 0)

    def test_rejects_n_past_double_range(self):
        top = int(sys.float_info.max)
        assert RegularPolytope(PolytopeKind.CUBE, top).n == top
        with pytest.raises(ValueError, match="past double range"):
            RegularPolytope(PolytopeKind.CUBE, top + 1)

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None])
    def test_rejects_a_non_integer_n(self, kind, n):
        # the crosspolytope at 2.5 once gave a value for a body that does not exist
        with pytest.raises(ValueError, match="must be an integer"):
            RegularPolytope(kind, n)
        with pytest.raises(ValueError, match="must be an integer"):
            family_width_moments(kind, [3, n], (1,))

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_a_numpy_integer_n_gives_the_python_ints_bits(self, kind):
        def bits(ests):
            return [(k, est.value.hex(), est.error.hex()) for k, est in ests.items()]

        p = RegularPolytope(kind, np.int64(7))
        assert type(p.n) is int and p == RegularPolytope(kind, 7)
        ns = [3, 57]
        want = [bits(ests) for ests in family_width_moments(kind, ns, (1, 3))]
        for dtype in (np.int64, np.int32, np.uint16):
            assert [bits(ests) for ests in family_width_moments(kind, [dtype(n) for n in ns], (1, 3))] == want

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_a_string_kind_gives_the_members_bits(self, kind):
        # the kind is coerced to its member, so every `is` check sees it
        p, q = RegularPolytope(kind.value, 10), RegularPolytope(kind, 10)
        assert p.kind is kind
        assert p.ambient_dim == q.ambient_dim

        def bits(ests):
            return [(k, est.value.hex(), est.error.hex()) for k, est in ests.items()]

        assert bits({k: width_moment(p, k) for k in (1, 2)}) == bits({k: width_moment(q, k) for k in (1, 2)})
        assert bits(family_width_moments(kind.value, [10], (1,))[0]) == bits({1: width_moment(q, 1)})
        cfg = McConfig(seed=3, samples=2000)
        assert bits(estimate_moments(p, (1, 2), cfg)) == bits(estimate_moments(q, (1, 2), cfg))
        w = np.linspace(0.5, 3.0, 7)
        assert standardize(p, w).tobytes() == standardize(q, w).tobytes()

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="hexagon"):
            RegularPolytope("hexagon", 3)
        with pytest.raises(ValueError, match="hexagon"):
            family_width_moments("hexagon", [3], (1,))


class TestV1FromMeanWidth:
    def test_segment(self):
        assert v1_from_mean_width(1, 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_unit_square_semiperimeter(self):
        # Cauchy: mean width of the unit square is 4/pi, V1 its semiperimeter
        assert v1_from_mean_width(2, 4.0 / math.pi) == pytest.approx(2.0, rel=1e-13)

    def test_dim3_factor_is_two(self):
        w = 0.7318
        assert v1_from_mean_width(3, w) == pytest.approx(2.0 * w, rel=1e-13)

    def test_rejects_a_dimension_below_one(self):
        with pytest.raises(ValueError):
            v1_from_mean_width(0, 1.0)

    def test_past_double_range_is_refused(self):
        # the cube's V1 is n; at the largest double it rounds past it
        top = int(sys.float_info.max)
        with pytest.raises(ValueError, match="double-precision range"):
            v1_from_mean_width(top, width_moment_cube(top, 1).value)


def cube_moment_mp(n, k):
    """E[W_{Q_n}^k] in 50-digit arithmetic, by a cumulant recursion: a route
    independent of the closed form's binomial powering."""
    with mpmath.workdps(50):
        m = [2 ** mpmath.mpf(j / 2) * mpmath.gamma(mpmath.mpf(j + 1) / 2) / mpmath.sqrt(mpmath.pi) for j in range(k + 1)]
        kappa = [mpmath.mpf(0)] * (k + 1)
        for j in range(1, k + 1):
            kappa[j] = m[j] - sum(math.comb(j - 1, i - 1) * kappa[i] * m[j - i] for i in range(1, j))
        s = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
        for j in range(1, k + 1):
            s[j] = sum(math.comb(j - 1, i - 1) * n * kappa[i] * s[j - i] for i in range(1, j + 1))
        return s[k] * mpmath.gamma(mpmath.mpf(n) / 2) / (2 ** mpmath.mpf(k / 2) * mpmath.gamma(mpmath.mpf(n + k) / 2))


class TestCubeMoments:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 10, 12])
    def test_error_is_an_honest_bound(self, k):
        # 8 eps |v| fell short by up to 5.9x here (n = 35, k = 7), through the
        # gammaln difference of the odd-k prefactor and the cumulant recursion
        for n in range(1, 60):
            est = width_moment_cube(n, k)
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(est.value) - cube_moment_mp(n, k)) <= est.error, n

    def test_n1_constant_width(self):
        for k in (1, 2, 3, 4):
            assert abs(width_moment_cube(1, k).value - 1.0) <= 4 * 2.2e-16

    def test_n2_second_moment(self):
        assert width_moment_cube(2, 2).value == pytest.approx(1.0 + 2.0 / math.pi, rel=1e-14)

    def test_n3_v1_consistency(self):
        est = width_moment_cube(3, 1)
        assert v1_from_mean_width(3, est.value) == pytest.approx(3.0, rel=1e-13)

    def test_rejects_k_outside_closed_forms(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                width_moment_cube(3, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_polynomials(self, k):
        for n in range(1, 1001):
            assert width_moment_cube(n, k).value == pytest.approx(cube_polynomial(n, k), rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("k", range(5, 13))
    def test_n1_higher_k_is_one(self, k):
        # Q_1 is a unit segment: W = 1 in every direction
        est = width_moment_cube(1, k)
        assert abs(est.value - 1.0) <= est.error

    @pytest.mark.parametrize("k", range(5, 13))
    def test_n2_higher_k_quadrature_oracle(self, k):
        # unit square: W = |cos phi| + |sin phi|, phi uniform on a quarter turn
        oracle, _ = integrate.quad(
            lambda phi: (math.cos(phi) + math.sin(phi)) ** k, 0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13
        )
        assert width_moment_cube(2, k).value == pytest.approx(2.0 / math.pi * oracle, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 35, 1000, 10**7])
    def test_several_orders_equal_each_order_alone_bit_for_bit(self, n):
        shared = _abs_sum_moments(n, (7, 1, 12, 2, 5))
        assert list(shared) == [7, 1, 12, 2, 5]
        for k, (value, err) in shared.items():
            alone_value, alone_err = _abs_sum_moments(n, (k,))[k]
            assert (value.hex(), err.hex()) == (alone_value.hex(), alone_err.hex())

    @pytest.mark.parametrize("n, k", [(10**7, 60), (10**7, 61), (1, 400)])
    def test_rejects_values_out_of_double_range(self, n, k):
        with pytest.raises(ValueError):
            width_moment_cube(n, k)


class TestCrossMoments:
    def test_n1_is_constant_2(self):
        assert width_moment(RegularPolytope(PolytopeKind.CROSS, 1), 1).value == pytest.approx(2.0, rel=1e-11)
        assert width_moment(RegularPolytope(PolytopeKind.CROSS, 1), 2).value == pytest.approx(4.0, rel=1e-11)

    def test_n3_k2_vs_monte_carlo(self):
        est = width_moment(RegularPolytope(PolytopeKind.CROSS, 3), 2)
        mc = estimate_moments(RegularPolytope(PolytopeKind.CROSS, 3), (2,), McConfig(seed=11, samples=1_000_000))[2]
        assert abs(est.value - mc.value) < 4.0 * mc.error + est.error


    @pytest.mark.parametrize("n, k", [(2000, 200), (3000, 180)])
    def test_moment_under_an_overflowing_norm_moment(self, n, k):
        # E|g|^k overflows a double (about 1e332 at n = 2000, k = 200), where
        # dividing by its product had printed 0
        est = width_moment(RegularPolytope(PolytopeKind.CROSS, n), k)
        moment = max_abs_moments([n], (k,))[0][k][0]
        with mpmath.workdps(40):
            norm = 2 ** mpmath.mpf(k / 2) * mpmath.gamma(mpmath.mpf(n + k) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
            exact = 2 ** mpmath.mpf(k) * mpmath.mpf(moment) / norm
            assert est.value > 0.0
            assert abs(mpmath.mpf(est.value) - exact) <= est.error


class TestRangeEngine:
    def test_n2_range_is_abs_difference(self):
        # E|eta_1 - eta_2| = 2/sqrt(pi)
        value, err = range_moments([2], (1,))[0][1]
        assert value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-9)

    def test_n2_second_moment(self):
        # E (eta_1 - eta_2)^2 = 2
        value, _ = range_moments([2], (2,))[0][2]
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_nonconvergence_raises(self):
        # at n = 1e9, a^(n-1) magnifies the last-bit rounding of the normal
        # tail a by 1e9, so no inner survival quadrature reaches its relative
        # tolerance before running out of subdivisions
        with pytest.raises(QuadratureError):
            range_moments([10**9], (1,))

    @pytest.mark.parametrize("n", POW_NS)
    def test_skipping_the_underflowing_pow_keeps_the_bits(self, n):
        # from n = 57 on, phi(x) a^(n-1) underflows at part of the nodes; each
        # term is then the +0.0 the pow path wrote there, never NaN or a stray
        # subnormal, on a fine grid over each t's folded domain
        tiny_log = -1076 * math.log(2.0)  # exp of less rounds to 0, with 0.69 to spare
        underflows = 0
        for ts, _ in range_grids(n):
            for t in ts:
                x = np.linspace(-0.5 * t, 9.0, 21 * 400)
                for node, u, v in range_brackets(n, x, t):
                    term = _range_term(n, node, u, v)
                    assert not np.isnan(term).any() and not np.signbit(term).any()
                    # exp(-x^2/2 + (n-1) log u), in extended precision, bounds the term
                    wide = node.astype(np.longdouble)
                    gone = (n - 1) * np.log(u.astype(np.longdouble)) - 0.5 * wide * wide < tiny_log
                    assert term[gone].tobytes() == np.zeros(gone.sum()).tobytes()
                    underflows += int(gone.sum())
        assert (underflows > 0) == (n >= 57)

    @pytest.mark.parametrize("n", POW_NS)
    def test_one_exp_integrand_matches_mpmath(self, monkeypatch, n):
        # the integrand against the same brackets at 40 digits, 210 nodes per t:
        # within 4 eps (1 + |A|) of each term, A = -x^2/2 + (n-1) log u its exp's
        # argument, plus a subnormal's spacing
        integrands = []
        real = extremes._quad_batch

        def spy(f, *args, **kwargs):
            integrands.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(extremes, "_quad_batch", spy)
        for ts, epsabs in range_grids(n):
            _range_batch(n, ts, epsabs)
            for i, t in enumerate(ts):
                x = np.linspace(-0.5 * t, 9.0, 21 * 10).reshape(10, 21)
                got = integrands[-1](x, np.full(len(x), i)).ravel()
                terms = range_brackets(n, x.ravel(), t)
                with mpmath.workdps(40):
                    root = mpmath.sqrt(2 * mpmath.pi)
                    for j, value in enumerate(got.tolist()):
                        exact = bound = mpmath.mpf(0)
                        for node, u, v in terms:
                            node, u, v = (mpmath.mpf(float(w[j])) for w in (node, u, v))
                            arg = (n - 1) * mpmath.log(u) - node * node / 2
                            term = -mpmath.exp(arg) * mpmath.expm1((n - 1) * mpmath.log1p(-v / u)) / root
                            exact += term
                            bound += 4 * sys.float_info.epsilon * (1 + abs(arg)) * term
                        assert abs(value - exact) <= bound + 2.0**-1074, (n, t, j, value, exact)

    @pytest.mark.parametrize("n", POW_NS)
    def test_one_exp_survival_within_the_inner_tolerance_of_pow(self, n):
        # the survival through the one-exp integrand against the quadrature of
        # the pow reference, within the inner tolerance max(n epsabs, epsrel S)
        for ts, epsabs in range_grids(n):
            for got, want in zip(_range_batch(n, ts, epsabs), full_pow_range_batch(n, ts, epsabs)):
                assert abs(got - want) <= max(n * epsabs, 1e-12 * want), (n, got, want)

    def test_two_point_survival_matches_the_closed_form(self):
        # at n = 2 the range is sqrt(2) |eta|, so S(t) = 2 normal_tail(t / sqrt(2)),
        # on both sides of the break point 2 t_2 with each side's inner tolerance
        peak = 2.0 * solve_t_n(2)
        for ts, epsabs in (([0.01, 0.3, 1.0, peak], 1e-13), ([1.01 * peak, 3.0, 6.0, 12.0, 20.0], 0.0)):
            for t, surv in zip(ts, _range_batch(2, ts, epsabs)):
                exact = 2.0 * float(normal_tail(t / math.sqrt(2.0)))
                assert abs(surv - exact) <= 2 * epsabs + 1e-12 * exact, (t, surv, exact)

    @pytest.mark.parametrize("n", [3, 57, 400, 2000, 10**5])
    def test_folded_survival_matches_the_unfolded_quadrature(self, monkeypatch, n):
        # the fold x -> -x - t against the survival integral over the whole
        # window (-t - 9, 9): within both quadratures' error estimates and the
        # inner tolerance's allowance n epsabs + epsrel S
        results = []
        real = extremes._quad_batch

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(extremes, "_quad_batch", spy)
        peak = 2.0 * solve_t_n(n)
        for ts, epsabs in (([0.05, 0.5 * peak, peak], 1e-13), ([1.01 * peak, peak + 2.0, peak + 8.0], 0.0)):
            _range_batch(n, ts, epsabs)
            folded = results[-1]
            unfolded = unfolded_range_batch(n, ts, epsabs)
            for t, (value, err), (oracle, oracle_err) in zip(ts, folded, unfolded):
                allowance = n * epsabs + 1e-12 * n * oracle
                assert abs(n * value - n * oracle) <= n * (err + oracle_err) + allowance, (t, n * value, n * oracle)

    def test_cdf_subdivision_limit_raises(self, monkeypatch):
        # the inner survival batch on its own: at n = 221 and t = 0.1 it needs
        # more than its starting intervals, one more than its break points about -t/2
        monkeypatch.setattr(extremes, "_LIMIT", len(extremes._RANGE_OFFSETS) + 1)
        with pytest.raises(QuadratureError, match="did not converge"):
            _range_batch(221, [0.1], 1e-13)


def range_grids(n):
    """The pow tests' t on both sides of the break point 2 t_n, each with its inner tolerance."""
    peak = 2.0 * solve_t_n(n)
    return ([0.05, 0.5 * peak, peak], 1e-13), ([1.01 * peak, peak + 2.0, peak + 8.0], 0.0)


def range_brackets(n, x, t):
    """[(node, u, v)] of _range_batch's two terms at the nodes x for t, as
    its integrand computes them: (x, a, b) and (x + t, 1 - b, p)."""
    shifted = x + t
    c = normal_tail(np.abs(x))
    below = x < 0.0
    b = normal_tail(shifted)
    return [(x, np.where(below, 1.0 - c, c), b), (shifted, 1.0 - b, np.where(below, c, 1.0 - c))]


def full_pow_integrand(n, ts):
    """_range_batch's folded integrand with phi and both powers computed
    apart, pow at every node: the reference of its one-exp terms."""
    ts = np.asarray(ts, dtype=float)

    def integrand(x, owners):
        total = 0.0
        for node, u, v in range_brackets(n, x, ts[owners][:, None]):
            with np.errstate(divide="ignore"):
                total = total + np.exp(-0.5 * node * node) * -(u ** (n - 1)) * np.expm1((n - 1) * np.log1p(-v / u))
        return total / SQRT_2PI

    return integrand


def full_pow_range_batch(n, ts, epsabs):
    """_range_batch through full_pow_integrand, its edges built one t at a
    time: the reference of its one-exp terms and its edge array."""
    edges = [(-0.5 * t, *(-0.5 * t + d for d in extremes._RANGE_OFFSETS), 9.0) for t in ts]
    return [n * value for value, _ in _quad_batch(full_pow_integrand(n, ts), edges, epsabs=epsabs)]


def unfolded_range_batch(n, ts, epsabs):
    """[(value, error estimate)] of S(t) / n, the range survival unfolded: the
    integral of phi(x) (a^(n-1) - (a - b)^(n-1)) over the whole window
    (-t - 9, 9), a = normal_tail(x), b = normal_tail(x + t), split at
    -t/2 + d for d in +-0.75, +-1.5, +-2.5, +-4, +-6 and at -t/2."""
    ts = np.asarray(ts, dtype=float)

    def integrand(x, owners):
        a = normal_tail(x)
        b = normal_tail(x + ts[owners][:, None])
        with np.errstate(divide="ignore"):
            bracket = -(a ** (n - 1)) * np.expm1((n - 1) * np.log1p(-b / a))
        return np.exp(-0.5 * x * x) / SQRT_2PI * bracket

    offsets = (-6.0, -4.0, -2.5, -1.5, -0.75, 0.0, 0.75, 1.5, 2.5, 4.0, 6.0)
    edges = [(-t - 9.0, *(-0.5 * t + d for d in offsets), 9.0) for t in ts]
    return _quad_batch(integrand, edges, epsabs=epsabs)


def per_k_range_moment(n, k):
    """The nested quadrature of one k on its own, the range survival
    recomputed at every outer node by a batch of one: the oracle of
    range_moments' shared, batched survival values.  Returns the value,
    QUADPACK's error estimate, the cut-off T and the inner tolerances'
    allowance (n epsabs + epsrel) peak^k + epsrel value: inner epsabs 1e-13
    up to the break point and 0 past it, inner epsrel 1e-12, outer 1e-11.
    The outer quadrature starts from 0, f peak for f in _PEAK_FRACTIONS, the
    peak 2 t_n, peak + 2 d for d in _OUTER_OFFSETS (the range's scale is 2),
    each clamped to T, and T."""
    t_hi = 2.0 * float(normal_tail_inverse(min(_TRUNC_EPS / (2 * n), 0.25)))
    peak = 2.0 * solve_t_n(n)

    def survival(x):
        return _range_batch(n, [x], 1e-13 if x <= peak else 0.0)[0]

    def integrand(t):
        surv = np.array([survival(x) for x in t.ravel().tolist()]).reshape(t.shape)
        return k * t ** (k - 1) * surv

    below = [f * peak for f in extremes._PEAK_FRACTIONS]
    edges = [0.0, *below, *(min(peak + 2.0 * d, t_hi) for d in (0.0, *extremes._OUTER_OFFSETS)), t_hi]
    value, err = _quad_batch(lambda t, owners: integrand(t), [edges], epsrel=1e-11)[0]
    inner = (n * 1e-13 + 1e-12) * peak**k + 1e-12 * value
    return value, err, t_hi, inner


def envelope_tail(n, k, t_hi):
    # what the cut-off can drop: the range survival is at most 2n normal_tail(t/2)
    value, _ = integrate.quad(
        lambda t: 2 * n * k * t ** (k - 1) * float(normal_tail(t / 2.0)), t_hi, math.inf, epsabs=0.0, epsrel=1e-13
    )
    return value


class TestRangeMoments:
    @pytest.mark.parametrize("n", [3, 57, 221])
    def test_equals_the_per_k_quadrature_bit_for_bit(self, n):
        shared = range_moments([n], (1, 2, 3, 4))[0]
        assert list(shared) == [1, 2, 3, 4]
        for k in (1, 2, 3, 4):
            value, err = shared[k]
            oracle_value, oracle_err, t_hi, inner = per_k_range_moment(n, k)
            assert value.hex() == oracle_value.hex()
            assert err == pytest.approx(oracle_err + envelope_tail(n, k, t_hi) + inner, rel=1e-10)

    def test_n2_error_is_an_honest_bound(self):
        # the n = 2 range is |eta_1 - eta_2| = sqrt(2) |eta|
        moments = range_moments([2], range(1, 8))[0]
        for k in range(1, 8):
            value, err = moments[k]
            exact = 2.0 ** (k / 2) * gaussian_abs_moment(k)
            assert abs(value - exact) <= err, k

    def test_n2_high_orders_converge_within_the_error_bound(self):
        # the survival is computed without the 1 - CDF cancellation, so the
        # orders whose weight lies in the far tail converge too
        moments = range_moments([2], range(8, 13))[0]
        for k in range(8, 13):
            value, err = moments[k]
            exact = 2.0 ** (k / 2) * gaussian_abs_moment(k)
            assert abs(value - exact) <= err, k
        # k = 12: 2^6 * 11!! = 665280
        assert moments[12][0] == pytest.approx(665280.0, rel=1e-13)

    def test_survival_and_cdf_add_to_one(self):
        # the oracle: scipy's quad of the CDF n int phi(x) (Phi(x+t) - Phi(x))^(n-1) dx,
        # the bracket as the difference of two normal tails
        def cdf(n, t):
            def integrand(x):
                return n * math.exp(-0.5 * x * x) / SQRT_2PI * float(normal_tail(x) - normal_tail(x + t)) ** (n - 1)

            value, _ = integrate.quad(integrand, -t - 12.0, 12.0, epsabs=1e-15, epsrel=1e-13, limit=200)
            return value

        for n in (2, 5, 221):
            # t = 25 is the t -> inf limit: the survival vanishes and the CDF is 1
            ts = [0.3, 1.0, 2.5, 4.0, 6.0, 25.0]
            survs = _range_batch(n, ts, epsabs=0.0)
            for t, surv in zip(ts, survs):
                assert surv + cdf(n, t) == pytest.approx(1.0, abs=1e-13), (n, t)
            assert survs == [_range_batch(n, [t], epsabs=0.0)[0] for t in ts]

    def test_n3_error_is_an_honest_bound(self):
        # the n = 3 range density 6 int phi(x) phi(x+d) (Phi(x+d) - Phi(x)) dx
        # reduces, with y = x + d/2 and E Phi(Y + a) = Phi(a sqrt(2/3)) for
        # Y ~ N(0, 1/2), to (3/sqrt(pi)) exp(-d^2/4) erf(d/sqrt(12))
        moments = range_moments([3], (1, 2, 3, 4))[0]
        with mpmath.workdps(30):
            density = lambda d: 3 / mpmath.sqrt(mpmath.pi) * mpmath.exp(-d * d / 4) * mpmath.erf(d / mpmath.sqrt(12))
            exact = {k: float(mpmath.quad(lambda d: d**k * density(d), [0, 4, 8, 16, mpmath.inf])) for k in range(1, 5)}
        # R = (|eta_1 - eta_2| + |eta_2 - eta_3| + |eta_3 - eta_1|) / 2
        assert exact[1] == pytest.approx(3.0 / math.sqrt(math.pi), rel=1e-15)
        assert exact[2] == pytest.approx(2.0 + 3.0 * math.sqrt(3.0) / math.pi, rel=1e-15)
        for k in (1, 2, 3, 4):
            value, err = moments[k]
            assert abs(value - exact[k]) <= err, k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 57, 100, 221, 1000, 2000, 10**4, 10**5, 10**6])
    def test_mean_range_is_twice_the_expected_max(self, n):
        # E[max - min] = 2 E max by symmetry: an independent quadrature route
        value, err = range_moments([n], (1,))[0][1]
        emax, emax_err = expected_max(n)
        assert abs(value - 2.0 * emax) <= err + 2.0 * emax_err

    def test_mean_range_keeps_its_digits_at_large_n(self):
        # far tighter than the error bound (1.0e-8 relative): no survival value
        # is 1 - CDF, so none loses the CDF's rounding to cancellation
        n = 10**5
        two_b = 2.0 * expected_max(n)[0]
        assert abs(range_moments([n], (1,))[0][1][0] - two_b) <= 2e-12 * two_b

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_mean_range_keeps_thirteen_digits(self, n):
        # with the inner break points about -t/2 each survival value starts from
        # intervals that resolve its mass; a single break point at -t/2 reads
        # 6.7e-13 and 6.1e-13 relative
        two_b = 2.0 * expected_max(n)[0]
        assert abs(range_moments([n], (1,))[0][1][0] - two_b) <= 1e-13 * two_b

    def test_inner_break_points_save_intervals(self, monkeypatch):
        # GK21 intervals of every inner _range_batch quadrature: 3576 over the
        # unfolded window (-t - 9, 9) with the single inner break point x = -t/2,
        # 2540 with break points at -t/2 +- 0.75 .. 6, 1260 folded about -t/2;
        # deterministic counts.  The inner quadratures are the _quad_batch
        # calls nested in the outer one.
        intervals, depth = [], [0]
        real = extremes._quad_batch

        def counting(f, edge_lists, *args, **kwargs):
            def g(x, owners):
                intervals.append(len(x))
                return f(x, owners)

            depth[0] += 1
            try:
                return real(g if depth[0] > 1 else f, edge_lists, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(extremes, "_quad_batch", counting)
        range_moments([159], (1, 2, 3, 4))
        assert sum(intervals) <= 0.4 * 3576

    def test_duplicate_orders_are_computed_once(self):
        assert list(range_moments([4], (3, 1, 3))[0]) == [3, 1]

    @pytest.mark.parametrize("n, ks", [(1, (1,)), (3, (1, 0)), (3, (-1,))])
    def test_rejects_bad_input(self, n, ks):
        with pytest.raises(ValueError):
            range_moments([n], ks)


class TestWidthMoments:
    @pytest.mark.parametrize("kind", list(PolytopeKind))
    @pytest.mark.parametrize("n", [2, 9])
    def test_each_k_equals_width_moment(self, kind, n):
        p = RegularPolytope(kind, n)
        ests = family_width_moments(kind, (n,), (3, 1, 2, 3))[0]
        assert list(ests) == [3, 1, 2]
        for k in (1, 2, 3):
            assert ests[k] == width_moment(p, k)

    def test_a_moment_is_the_value_error_pair(self):
        # every route returns the (value, error) pair that the extremes return
        p = RegularPolytope(PolytopeKind.CROSS, 5)
        for est in (width_moment(p, 1), estimate_moments(p, (1,), McConfig(seed=1, samples=200))[1]):
            assert est._fields == ("value", "error")
            value, error = est
            assert (value, error) == (est.value, est.error)

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_rejects_nonpositive_order(self, kind):
        with pytest.raises(ValueError):
            family_width_moments(kind, (3,), (1, 0))

    @pytest.mark.parametrize(
        "kind, n, exact",
        [
            # Q_1 is a unit segment and C_1 a segment of length 2: constant widths
            (PolytopeKind.CUBE, 1, lambda k: 1.0),
            (PolytopeKind.CROSS, 1, lambda k: 2.0**k),
            # T_1 is a segment of length 2 on a line: constant width 2
            (PolytopeKind.SIMPLEX_T, 2, lambda k: 2.0**k),
            # S_1 = [e_1, e_2]: W = |<g, e_1 - e_2>| / |g|, E[W^k] = E|eta|^k / Gamma(1 + k/2)
            (PolytopeKind.SIMPLEX_S, 2, lambda k: gaussian_abs_moment(k) / math.gamma(1 + k / 2)),
        ],
        ids=lambda v: v.value if isinstance(v, PolytopeKind) else None,
    )
    def test_exact_oracles_within_the_error(self, kind, n, exact):
        # at cross n = 1 the cut-off drops exactly the envelope's mass, so
        # the k = 12 error is nearly all used: the bound is tight, not loose
        ests = family_width_moments(kind, (n,), range(1, 13))[0]
        for k in range(1, 13):
            assert abs(ests[k].value - exact(k)) <= ests[k].error, k

    @pytest.mark.parametrize(
        "kind, name",
        [
            (PolytopeKind.CUBE, "_abs_sum_moments"),
            pytest.param(PolytopeKind.CROSS, "max_abs_moments", id="cross-batch"),
            pytest.param(PolytopeKind.SIMPLEX_S, "range_moments", id="simplex-s-batch"),
            pytest.param(PolytopeKind.SIMPLEX_T, "range_moments", id="simplex-t-batch"),
        ],
    )
    def test_one_moment_computation_per_call(self, monkeypatch, kind, name):
        # the cube's closed form once per n, a quadrature once for every n
        calls, ks = [], (1, 2, 3, 4)
        real = getattr(polytopes, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(polytopes, name, counted)
        family_width_moments(kind, (5,), ks)
        family_width_moments(kind, [5, 9], ks)
        if kind is PolytopeKind.CUBE:
            assert calls == [(5, ks), (5, ks), (9, ks)]
        else:
            assert calls == [((5,), ks), ([5, 9], ks)]

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_several_n_equal_each_n_alone_bit_for_bit(self, kind):
        # the outer quadratures of every n share their rounds, each integral
        # with its own intervals, so no n's bits depend on the others
        ns, ks = (9, 2, 57, 9, 3), (4, 1, 3)

        def bits(ests):
            return [(k, est.value.hex(), est.error.hex()) for k, est in ests.items()]

        together = family_width_moments(kind, ns, ks)
        assert [bits(ests) for ests in together] == [bits(family_width_moments(kind, (n,), ks)[0]) for n in ns]

    def test_rejects_an_invalid_n_in_a_batch(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            family_width_moments(PolytopeKind.SIMPLEX_T, [3, 1], (1,))


class TestSimplexMoments:
    def test_s_n2_k1(self):
        # segment of length sqrt(2) in R^2: E W = 2 sqrt(2) / pi
        assert width_moment(RegularPolytope(PolytopeKind.SIMPLEX_S, 2), 1).value == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, abs=1e-9)

    def test_s_n2_k2(self):
        assert width_moment(RegularPolytope(PolytopeKind.SIMPLEX_S, 2), 2).value == pytest.approx(1.0, abs=1e-9)

    def test_s_n4_k1_vs_monte_carlo(self):
        est = width_moment(RegularPolytope(PolytopeKind.SIMPLEX_S, 4), 1)
        mc = estimate_moments(RegularPolytope(PolytopeKind.SIMPLEX_S, 4), (1,), McConfig(seed=21, samples=1_000_000))[1]
        assert abs(est.value - mc.value) < 4.0 * mc.error + est.error

    def test_t_n2_is_constant_2(self):
        assert width_moment(RegularPolytope(PolytopeKind.SIMPLEX_T, 2), 1).value == pytest.approx(2.0, abs=1e-9)

    def test_t_n3_semiperimeter(self):
        # equilateral triangle inscribed in the unit circle: V1 = 3 sqrt(3) / 2
        est = width_moment(RegularPolytope(PolytopeKind.SIMPLEX_T, 3), 1)
        assert v1_from_mean_width(2, est.value) == pytest.approx(1.5 * math.sqrt(3.0), abs=1e-8)

    def test_t_n3_k2_vs_monte_carlo(self):
        est = width_moment(RegularPolytope(PolytopeKind.SIMPLEX_T, 3), 2)
        mc = estimate_moments(RegularPolytope(PolytopeKind.SIMPLEX_T, 3), (2,), McConfig(seed=31, samples=1_000_000))[2]
        assert abs(est.value - mc.value) < 4.0 * mc.error + est.error


class TestSudakovV1:
    def test_cube(self):
        assert sudakov_v1(RegularPolytope(PolytopeKind.CUBE, 5)) == 5.0

    def test_simplex_t3(self):
        v1 = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, 3))
        assert v1 == pytest.approx(1.5 * math.sqrt(3.0), abs=1e-9)

    def test_cross1_is_segment(self):
        assert sudakov_v1(RegularPolytope(PolytopeKind.CROSS, 1)) == pytest.approx(2.0, abs=1e-9)

    def test_simplex_s_vs_t_scaling(self):
        for n in (2, 5, 9):
            s = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_S, n))
            t = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, n))
            assert s == pytest.approx(math.sqrt((n - 1) / n) * t, rel=1e-12)

    def test_agrees_with_moment_route(self):
        for kind, n in ((PolytopeKind.SIMPLEX_T, 4), (PolytopeKind.CROSS, 4)):
            p = RegularPolytope(kind, n)
            via_moment = v1_from_mean_width(p.ambient_dim, width_moment(p, 1).value)
            assert sudakov_v1(p) == pytest.approx(via_moment, abs=1e-7)

    def test_corollary_sandwich(self):
        for n in (1, 2, 5, 10, 25, 50):
            c = sudakov_v1(RegularPolytope(PolytopeKind.CROSS, n))
            t = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, 2 * n))
            slack = 1e-8
            assert math.sqrt((2 * n - 1) / (2 * n)) * t <= c + slack
            assert c <= t + slack

    def test_log_upper_bound(self):
        # V1(T_{n-1}) <= sqrt(4 pi log n)
        for n in (2, 10, 100, 10_000):
            t = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, n))
            assert t <= SQRT_2PI * math.sqrt(2 * math.log(n)) * math.sqrt(n / (n - 1)) + 1e-9
            if n >= 10:
                assert t <= math.sqrt(4.0 * math.pi * math.log(n)) + 1e-9


class TestMomentProperties:
    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_log_convexity(self, kind):
        n = 4
        cfgs = {}
        for k in (1, 2, 3, 4):
            if kind is PolytopeKind.CUBE:
                cfgs[k] = width_moment_cube(n, k).value
            else:
                cfgs[k] = width_moment(RegularPolytope(kind, n), k).value
        for k in (2, 3):
            assert cfgs[k] ** 2 <= cfgs[k - 1] * cfgs[k + 1] * (1.0 + 1e-9)

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_route_agreement_all_families(self, kind, n):
        p = RegularPolytope(kind, n)
        mc = estimate_moments(p, (1, 2, 3, 4), McConfig(seed=500 + n, samples=200_000))
        for k in (1, 2, 3, 4):
            det = width_moment(p, k)
            # 4 combined error units: MC stderr plus deterministic bound
            assert abs(det.value - mc[k].value) < 4.0 * (mc[k].error + det.error)
