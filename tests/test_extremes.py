import math

import numpy as np
import pytest
from scipy import integrate, optimize

from meanwidth.extremes import (
    QuadratureConfig,
    QuadratureError,
    comparison_report,
    expected_max,
    expected_max_abs,
    max_abs_moment,
    solve_t_n,
    u_sequence,
)
from meanwidth.sampling import McConfig
from meanwidth.special import gaussian_abs_moment, normal_tail

SQRT_2PI = math.sqrt(2.0 * math.pi)
EULER_GAMMA = 0.5772156649015329


def _phi(x):
    return math.exp(-0.5 * x * x) / SQRT_2PI


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
        res = expected_max_abs(1)
        assert res.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-11)
        assert res.abs_error_bound < 1e-10

    def test_n2_against_order_statistic_oracle(self):
        # independent oracle: E max(|x|, |y|) = 8 int_0^inf x phi(x) (Phi(x) - 1/2) dx
        oracle, _ = integrate.quad(
            lambda x: 8.0 * x * _phi(x) * (0.5 - float(normal_tail(x))), 0.0, 10.0, epsabs=1e-13
        )
        assert expected_max_abs(2).value == pytest.approx(oracle, abs=1e-8)

    def test_n1e4_asymptotic_bracket(self):
        value = expected_max_abs(10**4).value
        u = u_sequence(2 * 10**4)
        assert u <= value <= u + 1.0


class TestMaxAbsMoment:
    def test_first_moment_is_expected_max_abs(self):
        for n in (1, 7, 1000):
            assert max_abs_moment(n, 1)[0] == expected_max_abs(n).value

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_n1_half_normal_moments(self, k):
        # max |eta_1| = |eta_1|: E|eta|^k = 1, 2 sqrt(2/pi), 3
        exact = {2: 1.0, 3: 2.0 * math.sqrt(2.0 / math.pi), 4: 3.0}[k]
        value, err = max_abs_moment(1, k)
        assert abs(value - exact) <= err

    @pytest.mark.parametrize("k", range(1, 8))
    def test_n1_error_is_an_honest_bound(self, k):
        value, err = max_abs_moment(1, k)
        assert abs(value - gaussian_abs_moment(k)) <= err

    @pytest.mark.parametrize("n", [1, 5])
    def test_subdivision_limit_raises(self, n):
        with pytest.raises(QuadratureError):
            max_abs_moment(n, 2, QuadratureConfig(limit=1))

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_orders_below_one(self, k):
        # E[X^0] is 1, not the integral's 0, and k < 0 has an unbounded integrand
        with pytest.raises(ValueError):
            max_abs_moment(3, k)


class TestExpectedMax:
    def test_m1_is_zero(self):
        assert expected_max(1).value == pytest.approx(0.0, abs=1e-11)

    def test_m2_closed_form(self):
        assert expected_max(2).value == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-11)

    def test_m2_against_order_statistic_oracle(self):
        # E max(x, y) = 2 int x phi(x) Phi(x) dx
        oracle, _ = integrate.quad(
            lambda x: 2.0 * x * _phi(x) * (1.0 - float(normal_tail(x))), -10.0, 10.0, epsabs=1e-13
        )
        assert expected_max(2).value == pytest.approx(oracle, abs=1e-10)

    def test_m3_closed_form(self):
        assert expected_max(3).value == pytest.approx(3.0 / (2.0 * math.sqrt(math.pi)), abs=1e-10)

    @pytest.mark.parametrize(
        "m, exact",
        [
            (4, 3.0 / (2.0 * math.sqrt(math.pi)) * (1.0 + 2.0 / math.pi * math.asin(1.0 / 3.0))),
            (5, 5.0 / (4.0 * math.sqrt(math.pi)) * (1.0 + 6.0 / math.pi * math.asin(1.0 / 3.0))),
        ],
    )
    def test_m4_m5_closed_forms_within_the_error_bound(self, m, exact):
        res = expected_max(m)
        assert abs(res.value - exact) <= res.abs_error_bound

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_monte_carlo_agreement(self, n):
        cfg = McConfig(seed=314, samples=2_000_000)
        for stream, (kind, target) in enumerate(
            (("max_abs", expected_max_abs(n)), ("max", expected_max(n)))
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
            assert abs(mean - target.value) < 4.0 * stderr + target.abs_error_bound


class TestComparison:
    def test_n1_equality(self):
        rep = comparison_report(1)
        assert rep.a_n == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-10)
        assert rep.a_n == pytest.approx(math.sqrt(2.0) * rep.b_2n, abs=1e-10)
        assert rep.slepian_ok and rep.upper_ok
        assert math.isnan(rep.gap_normalized)

    def test_n10_both_sides(self):
        rep = comparison_report(10)
        assert rep.slepian_ok and rep.upper_ok
        assert rep.ratio >= 1.0

    @pytest.mark.parametrize("n", [2, 7, 40, 150])
    def test_theorem_both_sides(self, n):
        rep = comparison_report(n)
        assert rep.b_2n <= rep.a_n + rep.slack
        assert rep.a_n <= math.sqrt(2 * n / (2 * n - 1)) * rep.b_2n + rep.slack

    def test_gap_consistent_with_direct_b(self):
        for n in (3, 25):
            rep = comparison_report(n)
            direct = expected_max(2 * n)
            assert rep.b_2n == pytest.approx(direct.value, abs=1e-9)

    def test_gap_sweep_approaches_one_from_above(self):
        gaps = [comparison_report(n).gap_normalized for n in (100, 1000, 10000, 100000)]
        assert all(g > 0 for g in gaps)
        dists = [abs(g - 1.0) for g in gaps]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestUpperBound:
    # sqrt(2 log n) bounds E max of any n unit-variance centered Gaussians
    def test_n1(self):
        assert math.sqrt(2 * math.log(1)) == 0.0
        assert expected_max(1).value <= 1e-10

    def test_n2(self):
        assert math.sqrt(2 * math.log(2)) == pytest.approx(1.17741, abs=1e-5)
        assert math.sqrt(2 * math.log(2)) >= expected_max(2).value

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**6])
    def test_dominates_expected_max(self, n):
        assert expected_max(n).value <= math.sqrt(2 * math.log(n))


class TestEulerGammaTrend:
    def test_gap_scale_and_trend(self):
        dists = []
        for n in (10**3, 10**4, 10**5):
            scaled = (expected_max(n).value - u_sequence(n)) * math.sqrt(2.0 * math.log(n))
            assert 0.0 <= scaled <= 2.0
            dists.append(abs(scaled - EULER_GAMMA))
        assert dists[0] > dists[1] > dists[2]
