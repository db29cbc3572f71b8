import dataclasses
import functools
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize

from meanwidth import extremes
from meanwidth.extremes import (
    _TRUNC_EPS,
    QuadratureError,
    _max_integral,
    _survival_moments,
    comparison_reports,
    expected_max,
    expected_max_gap,
    max_abs_moments,
    solve_t_n,
    u_sequence,
)
from meanwidth.sampling import McConfig
from meanwidth.special import _EPS, gaussian_abs_moment, normal_tail, normal_tail_inverse

SQRT_2PI = math.sqrt(2.0 * math.pi)
EULER_GAMMA = 0.5772156649015329


def _phi(x):
    return math.exp(-0.5 * x * x) / SQRT_2PI


@functools.cache
def _max_abs_survival_mp(n, t):
    # P[max |eta_i| > t]; cached because mpmath's quadrature nodes depend on
    # the interval only, so every order k reuses them
    return -mpmath.expm1(n * mpmath.log1p(-mpmath.erfc(t / mpmath.sqrt(2))))


class TestUSequence:
    def test_n2_direct_substitution(self):
        s = math.sqrt(2.0 * math.log(2.0))
        expected = s - (0.5 * math.log(math.log(2.0)) + math.log(2.0 * math.sqrt(math.pi))) / s
        assert u_sequence(2) == expected

    def test_n100(self):
        assert u_sequence(100) == pytest.approx(2.3662, abs=5e-4)

    def test_defining_relation_at_1e6(self):
        n = 10**6
        u = u_sequence(n)
        assert SQRT_2PI * u * math.exp(0.5 * u * u) / n == pytest.approx(1.0, abs=0.05)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            u_sequence(1)


class TestSolveTn:
    def test_n1_is_zero(self):
        assert solve_t_n(1) == 0.0
        assert math.copysign(1.0, solve_t_n(1)) == 1.0

    def test_n2_is_75pct_quantile(self):
        assert solve_t_n(2) == pytest.approx(0.6744897501960817, abs=1e-10)

    def test_defining_equation_at_1e4(self):
        n = 10**4
        assert float(normal_tail(solve_t_n(n))) == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_closed_form_matches_the_root_finder(self):
        # an independent route: the bracketed root of normal_tail(t) = 1/(2n)
        for n in range(2, 2000):
            target = 1.0 / (2.0 * n)
            root = optimize.brentq(lambda t: normal_tail(t) - target, 0.0, 50.0, xtol=1e-14, rtol=8.9e-16)
            assert solve_t_n(n) == pytest.approx(root, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("n", [2, 7, 1999, 10**5, 10**6])
    def test_tail_at_t_n_is_one_over_2n(self, n):
        assert float(normal_tail(solve_t_n(n))) == pytest.approx(1.0 / (2 * n), rel=1e-13)


class TestExpectedMaxAbs:
    def test_n1_half_normal_mean(self):
        value, err = max_abs_moments([1], (1,))[0][1]
        assert value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-11)
        assert err < 1e-10

    def test_n2_against_order_statistic_oracle(self):
        # independent oracle: E max(|x|, |y|) = 8 int_0^inf x phi(x) (Phi(x) - 1/2) dx
        oracle, _ = integrate.quad(
            lambda x: 8.0 * x * _phi(x) * (0.5 - float(normal_tail(x))), 0.0, 10.0, epsabs=1e-13
        )
        assert max_abs_moments([2], (1,))[0][1][0] == pytest.approx(oracle, abs=1e-8)

    def test_n1e4_asymptotic_bracket(self):
        value = max_abs_moments([10**4], (1,))[0][1][0]
        u = u_sequence(2 * 10**4)
        assert u <= value <= u + 1.0


class TestMaxAbsMoment:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_n1_half_normal_moments(self, k):
        # max |eta_1| = |eta_1|: E|eta|^k = 1, 2 sqrt(2/pi), 3
        exact = {2: 1.0, 3: 2.0 * math.sqrt(2.0 / math.pi), 4: 3.0}[k]
        value, err = max_abs_moments([1], (k,))[0][k]
        assert abs(value - exact) <= err

    @pytest.mark.parametrize("k", range(1, 8))
    def test_n1_error_is_an_honest_bound(self, k):
        value, err = max_abs_moments([1], (k,))[0][k]
        assert abs(value - gaussian_abs_moment(k)) <= err

    @pytest.mark.parametrize(
        "n, k",
        [(3, 40), (3, 80), (3, 100), (50, 60)] + [(n, k) for n in (1, 2, 3, 5) for k in (81, 88, 102, 151, 158)],
    )
    def test_large_order_error_is_an_honest_bound(self, n, k):
        # at large k most of the moment lies beyond the cut-off, so the error
        # must carry the dropped tail in full, with its rounding: at n = 1 the
        # envelope is the survival itself and leaves the bound no other slack
        with mpmath.workdps(30):
            if n == 1:
                exact = 2 ** (mpmath.mpf(k) / 2) * mpmath.gamma(mpmath.mpf(k + 1) / 2) / mpmath.sqrt(mpmath.pi)
            else:
                integrand = lambda t: k * t ** (k - 1) * _max_abs_survival_mp(n, t)
                exact = mpmath.quad(integrand, [0, 4, 8, 12, 16, 24, mpmath.inf])
            value, err = max_abs_moments([n], (k,))[0][k]
            assert abs(mpmath.mpf(value) - exact) <= err

    def test_tail_bound_is_within_5_percent_of_the_exact_tail(self):
        # the error adds k J_(k-2) (phi(U) / U^2 at k = 1) for the envelope's
        # tail past the cut-off U, int_U^inf k s^(k-1) normal_tail(s) ds, and
        # leaves the bound's rounding to its margin over that tail: pin the
        # margin at every cut-off (envelopes 1 to 2e12) and every order whose
        # bound is finite.  A zero survival makes the error the tail bound alone.
        def zero(t):
            return np.zeros_like(t)

        with mpmath.workdps(40):
            for envelope in [1.0] + [2.0 * 10.0**j for j in range(13)]:
                u = float(normal_tail_inverse(_TRUNC_EPS / envelope))
                U = mpmath.mpf(u)
                foot = mpmath.erfc(U / mpmath.sqrt(2)) / 2
                for k in itertools.count(1):
                    # J_k - U^k normal_tail(U), J_k = int_U^inf s^k phi(s) ds
                    j_k = 2 ** (mpmath.mpf(k) / 2) * mpmath.gammainc(mpmath.mpf(k + 1) / 2, U * U / 2) / (
                        2 * mpmath.sqrt(mpmath.pi)
                    )
                    exact = envelope * (j_k - U**k * foot)
                    try:
                        bound = _survival_moments([(zero, (k,), envelope, 0.0, 1.0)], epsrel=1e-12)[0][k][1]
                    except ValueError:
                        # refused only once the bound leaves double range
                        assert 1.05 * exact > sys.float_info.max, (envelope, k)
                        break
                    assert exact <= bound <= 1.05 * exact, (envelope, k)
                assert k > 250

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_several_orders_equal_each_order_alone_bit_for_bit(self, n):
        shared = max_abs_moments([n], (4, 1, 2, 4, 3))[0]
        assert list(shared) == [4, 1, 2, 3]
        for k, (value, err) in shared.items():
            alone_value, alone_err = max_abs_moments([n], (k,))[0][k]
            assert (value.hex(), err.hex()) == (alone_value.hex(), alone_err.hex())

    @pytest.mark.parametrize("n", [1, 5])
    def test_subdivision_limit_raises(self, monkeypatch, n):
        monkeypatch.setattr(extremes, "_LIMIT", 1)
        with pytest.raises(QuadratureError):
            max_abs_moments([n], (2,))

    def test_out_of_range_order_raises(self):
        # also in one batch with an order that fits; the message names 320
        for ks in [(320,), (1, 320)]:
            with pytest.raises(ValueError, match="order 320 is out of double-precision"):
                max_abs_moments([3], ks)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_orders_below_one(self, k):
        # E[X^0] is 1, not the integral's 0, and k < 0 has an unbounded integrand
        with pytest.raises(ValueError):
            max_abs_moments([3], (k,))


class TestExpectedMax:
    def test_m1_is_zero(self):
        assert expected_max(1)[0] == pytest.approx(0.0, abs=1e-11)

    def test_m2_closed_form(self):
        assert expected_max(2)[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-11)

    def test_m2_against_order_statistic_oracle(self):
        # E max(x, y) = 2 int x phi(x) Phi(x) dx
        oracle, _ = integrate.quad(
            lambda x: 2.0 * x * _phi(x) * (1.0 - float(normal_tail(x))), -10.0, 10.0, epsabs=1e-13
        )
        assert expected_max(2)[0] == pytest.approx(oracle, abs=1e-10)

    def test_m3_closed_form(self):
        assert expected_max(3)[0] == pytest.approx(3.0 / (2.0 * math.sqrt(math.pi)), abs=1e-10)

    @pytest.mark.parametrize(
        "m, exact",
        # 30 digits of B_m from an mpmath route apart from _CLOSED_MAX's formulas: at mpmath.mp.dps = 40,
        # mpmath.quad(lambda t: t * m * mpmath.npdf(t) * mpmath.ncdf(t) ** (m - 1), [-mpmath.inf, -4, 0, 4, mpmath.inf])
        [
            (2, "0.564189583547756286948079451561"),
            (3, "0.846284375321634430422119177341"),
            (4, "1.02937537300396413205698664698"),
            (5, "1.16296447364051961277226798855"),
        ],
    )
    def test_m4_m5_closed_forms_within_the_error_bound(self, m, exact):
        value, err = expected_max(m)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(value) - mpmath.mpf(exact)) <= err

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 36, 52, 53, 54, 1075, 1076, 2000])
    def test_against_mpmath_within_the_error_bound(self, m):
        # m <= 5 takes the closed forms; past it the integrand's normal_tail^m
        # term, 2^-m at t = 0, still moves the integrand there up to m = 53,
        # is lost to its rounding from m = 54 and underflows to 0 from m = 1075
        with mpmath.workdps(40):
            def density(t):
                return t * m * mpmath.npdf(t) * mpmath.ncdf(t) ** (m - 1)

            exact = mpmath.quad(density, [-mpmath.inf, -8, -4, -2, 0, 1, 2, 2.5, 3, 3.5, 4, 5, 6, 8, 12, mpmath.inf])
        value, err = expected_max(m)
        # 1e-35 is the reference's own error (4e-42 at m = 1, where B_1 = 0 is exact and err = 0)
        assert abs(value - exact) <= err + 1e-35
        if m == 1:
            assert value == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_closed_forms_against_the_quadrature(self, m):
        # the survival integral that expected_max runs past m = 5, as the second route
        value, err = expected_max(m)
        quad_value, quad_err = _survival_moments([_max_integral(m)])[0][1]
        assert abs(value - quad_value) <= err + quad_err
        assert err <= 8.0 * _EPS * value

    @pytest.mark.parametrize("m", [10, 36])
    def test_negative_part_keeps_the_bound_tight(self, m):
        # B_m's one integral converges to a relative tolerance, so its error
        # estimate stays far below the 1e-12 an absolute tolerance would allow
        assert expected_max(m)[1] <= 3e-14

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_monte_carlo_agreement(self, n):
        cfg = McConfig(seed=314, samples=2_000_000)
        for stream, (kind, target) in enumerate(
            (("max_abs", max_abs_moments([n], (1,))[0][1]), ("max", expected_max(n)))
        ):
            total = 0.0
            total_sq = 0.0
            for i, count in cfg.chunks():
                rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(stream, i)))
                g = rng.standard_normal((count, n))
                vals = np.abs(g).max(axis=1) if kind == "max_abs" else g.max(axis=1)
                total += float(vals.sum())
                total_sq += float((vals * vals).sum())
            mean = total / cfg.samples
            var = max(total_sq / cfg.samples - mean * mean, 0.0)
            stderr = math.sqrt(var / cfg.samples)
            assert abs(mean - target[0]) < 4.0 * stderr + target[1]


class TestComparison:
    def test_n1_equality(self):
        rep = comparison_reports([1])[0]
        assert rep.a_n == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-10)
        assert rep.a_n == pytest.approx(math.sqrt(2.0) * rep.b_2n, abs=1e-10)
        assert rep.slepian_ok and rep.upper_ok
        assert math.isnan(rep.gap_normalized)

    def test_n10_both_sides(self):
        rep = comparison_reports([10])[0]
        assert rep.slepian_ok and rep.upper_ok
        assert rep.ratio >= 1.0

    @pytest.mark.parametrize("n", [2, 7, 40, 150])
    def test_theorem_both_sides(self, n):
        rep = comparison_reports([n])[0]
        assert rep.b_2n <= rep.a_n + rep.slack
        assert rep.a_n <= math.sqrt(2 * n / (2 * n - 1)) * rep.b_2n + rep.slack

    def test_gap_consistent_with_direct_b(self):
        for n in (3, 25):
            rep = comparison_reports([n])[0]
            assert rep.b_2n == pytest.approx(expected_max(2 * n)[0], abs=1e-9)

    def test_one_batch_equals_each_report_on_its_own(self):
        # comparison_reports integrates A_n and the gap of every n in one batch
        ns = (1, 2, 7, 100, 4000, 100000)

        def bits(rep):
            return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rep)]

        assert [bits(rep) for rep in comparison_reports(ns)] == [bits(comparison_reports([n])[0]) for n in ns]

    def test_gap_sweep_approaches_one_from_above(self):
        gaps = [comparison_reports([n])[0].gap_normalized for n in (100, 1000, 10000, 100000)]
        assert all(g > 0 for g in gaps)
        dists = [abs(g - 1.0) for g in gaps]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    @staticmethod
    def reports_and_gaps(monkeypatch, ns, replace=None):
        """comparison_reports(ns) and the (gap, gap_err) of each n from its own
        batch, gap replaced by replace(a_n, gap, gap_err) when given."""
        real, gaps = extremes._survival_moments, []

        def spy(integrals, *args, **kwargs):
            out = real(integrals, *args, **kwargs)
            for a, gap in zip(out[::2], out[1::2]):
                value, err = gap[1]
                gap[1] = (value if replace is None else replace(a[1][0], value, err), err)
                gaps.append(gap[1])
            return out

        monkeypatch.setattr(extremes, "_survival_moments", spy)
        return comparison_reports(ns), gaps

    @staticmethod
    def upper_margin(n):
        # sqrt(2n/(2n-1)) - 1
        with mpmath.workdps(30):
            return float(mpmath.sqrt(mpmath.mpf(2 * n) / (2 * n - 1)) - 1)

    def test_flags_hold_with_margin_up_to_1e100(self, monkeypatch):
        # each flag tests the gap against its own error: for 2 <= n <= 1e12 the
        # margins measured were at least 3.8e3 (Slepian) and 1.95e5 (upper)
        # times gap_err; n = 1 is the equality case A_1 = sqrt(2) B_2
        ns = [*range(1, 401), *(int(10 ** (e / 4)) for e in range(9, 49)), 10**15, 10**18, 10**30, 10**100]
        reports, gaps = self.reports_and_gaps(monkeypatch, ns)
        for rep, (gap, gap_err) in zip(reports, gaps):
            assert rep.slepian_ok and rep.upper_ok, rep.n
            if 2 <= rep.n <= 10**12:
                assert gap >= 1e3 * gap_err, rep.n
                assert self.upper_margin(rep.n) * (rep.b_2n + rep.slack) - (gap - gap_err) >= 1e5 * gap_err, rep.n

    @pytest.mark.parametrize("n", [10**10, 10**12])
    def test_a_wrong_gap_turns_its_flag_false(self, monkeypatch, n):
        # slack = a_err + gap_err outgrows the gap from n of about 1e10 (130 times
        # it at 1e12), so flags tested against it held whatever the gap was
        m = self.upper_margin(n)
        (low,), _ = self.reports_and_gaps(monkeypatch, [n], lambda a_n, gap, gap_err: -10.0 * gap_err)
        assert not low.slepian_ok and low.upper_ok
        # twice the largest gap the upper bound allows, gap <= m (a_n - gap)
        (high,), _ = self.reports_and_gaps(monkeypatch, [n], lambda a_n, gap, gap_err: 2.0 * m * a_n / (1.0 + m))
        assert high.slepian_ok and not high.upper_ok


class TestGap:
    @pytest.mark.parametrize("n", [10**3, 10**7, 10**9, 10**12])
    def test_matches_mpmath_within_its_error(self, n):
        # the gap is about B_2n / (8 n log n): 3.5e-14 at n = 1e12, where an
        # absolute tolerance of 1e-12 had left it 3.3 % low
        with mpmath.workdps(40):
            tail = lambda t: mpmath.erfc(t / mpmath.sqrt(2)) / 2
            # G_2n(t) - F_n(t) = (1 - r)^(2n) - (1 - 2r)^n with r = normal_tail(t)
            diff = lambda t: mpmath.exp(2 * n * mpmath.log1p(-tail(t))) - mpmath.exp(n * mpmath.log1p(-2 * tail(t)))
            t_n = solve_t_n(n)
            points = [0] + [t_n + d for d in (-4, -2, -1, 0, 1, 2, 4, 10) if t_n + d > 0] + [mpmath.inf]
            exact = mpmath.quad(diff, points) + mpmath.quad(lambda t: tail(t) ** (2 * n), [0, 1, mpmath.inf])
            exact = float(exact)
        gap, err = expected_max_gap(n)
        assert abs(gap - exact) <= err
        assert gap == pytest.approx(exact, rel=1e-14)

    def test_n1_closed_form_within_the_error_bound(self):
        # A_1 = E|eta| = sqrt(2/pi) and B_2 = 1/sqrt(pi)
        gap, err = expected_max_gap(1)
        assert abs(gap - (math.sqrt(2.0 / math.pi) - 1.0 / math.sqrt(math.pi))) <= err

    def test_extremes_at_1e12_prints_the_true_normalized_gap(self):
        # 8 n log n (A_n / B_2n - 1) = 1.0640 at n = 1e12, where the absolute
        # tolerance had printed 1.0286
        assert comparison_reports([10**12])[0].gap_normalized == pytest.approx(1.0640241509998, rel=1e-12)


class TestUpperBound:
    # sqrt(2 log n) bounds E max of any n unit-variance centered Gaussians
    def test_n1(self):
        assert math.sqrt(2 * math.log(1)) == 0.0
        assert expected_max(1)[0] <= 1e-10

    def test_n2(self):
        assert math.sqrt(2 * math.log(2)) == pytest.approx(1.17741, abs=1e-5)
        assert math.sqrt(2 * math.log(2)) >= expected_max(2)[0]

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**6])
    def test_dominates_expected_max(self, n):
        assert expected_max(n)[0] <= math.sqrt(2 * math.log(n))


class TestEulerGammaTrend:
    def test_gap_scale_and_trend(self):
        dists = []
        for n in (10**3, 10**4, 10**5):
            scaled = (expected_max(n)[0] - u_sequence(n)) * math.sqrt(2.0 * math.log(n))
            assert 0.0 <= scaled <= 2.0
            dists.append(abs(scaled - EULER_GAMMA))
        assert dists[0] > dists[1] > dists[2]
