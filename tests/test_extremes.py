import math

import numpy as np
import pytest
from scipy import integrate

from meanwidth.extremes import (
    QuadratureConfig,
    QuadratureError,
    cdf_max,
    cdf_max_abs,
    comparison_report,
    emax_upper_bound,
    expected_max,
    expected_max_abs,
    max_abs_moment,
    solve_t_n,
    u_sequence,
)
from meanwidth.sampling import McConfig, chunk_rng
from meanwidth.special import normal_tail

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

    def test_n2_is_75pct_quantile(self):
        assert solve_t_n(2) == pytest.approx(0.6744897501960817, abs=1e-10)

    def test_defining_equation_at_1e4(self):
        n = 10**4
        assert float(normal_tail(solve_t_n(n))) == pytest.approx(1.0 / (2 * n), abs=1e-12)


class TestCdfs:
    def test_max_abs_at_zero(self):
        for n in (1, 3, 100):
            assert cdf_max_abs(n, 0.0) == 0.0

    def test_max_abs_n1_is_half_normal(self):
        for t in (0.3, 1.0, 2.5):
            assert cdf_max_abs(1, t) == pytest.approx(1.0 - 2.0 * float(normal_tail(t)), rel=1e-13)

    def test_max_abs_n2_at_one(self):
        expected = (1.0 - 2.0 * float(normal_tail(1.0))) ** 2
        assert cdf_max_abs(2, 1.0) == pytest.approx(expected, rel=1e-13)
        assert cdf_max_abs(2, 1.0) == pytest.approx(0.46606, abs=1e-5)

    def test_max_abs_rejects_negative_t(self):
        with pytest.raises(ValueError):
            cdf_max_abs(3, -0.1)

    def test_max_at_zero(self):
        assert cdf_max(1, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert cdf_max(2, 0.0) == pytest.approx(0.25, rel=1e-14)

    def test_max_m4_at_two(self):
        assert cdf_max(4, 2.0) == pytest.approx((1.0 - float(normal_tail(2.0))) ** 4, rel=1e-13)

    def test_max_dominates_max_abs(self):
        # (1-z)^2 >= 1-2z pointwise
        t = np.linspace(0.0, 8.0, 400)
        for n in (1, 2, 10, 1000):
            assert np.all(cdf_max(2 * n, t) >= cdf_max_abs(n, t) - 1e-15)


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

    @pytest.mark.parametrize("n", [1, 5])
    def test_subdivision_limit_raises(self, n):
        with pytest.raises(QuadratureError):
            max_abs_moment(n, 2, QuadratureConfig(limit=1))


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

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_monte_carlo_agreement(self, n):
        cfg = McConfig(seed=314, samples=2_000_000)
        for stream, (kind, target) in enumerate(
            (("max_abs", expected_max_abs(n)), ("max", expected_max(n)))
        ):
            total = 0.0
            total_sq = 0.0
            for i, count in cfg.chunks():
                g = chunk_rng(cfg.seed, i, stream=stream).standard_normal((count, n))
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
    def test_n1(self):
        assert emax_upper_bound(1) == 0.0
        assert expected_max(1).value <= 1e-10

    def test_n2(self):
        assert emax_upper_bound(2) == pytest.approx(1.17741, abs=1e-5)
        assert emax_upper_bound(2) >= expected_max(2).value

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**6])
    def test_dominates_expected_max(self, n):
        assert expected_max(n).value <= emax_upper_bound(n)


class TestEulerGammaTrend:
    def test_gap_scale_and_trend(self):
        dists = []
        for n in (10**3, 10**4, 10**5):
            scaled = (expected_max(n).value - u_sequence(n)) * math.sqrt(2.0 * math.log(n))
            assert 0.0 <= scaled <= 2.0
            dists.append(abs(scaled - EULER_GAMMA))
        assert dists[0] > dists[1] > dists[2]
