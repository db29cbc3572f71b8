import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy import special as sp

from meanwidth.special import (
    _EPS,
    _LGAMMA_ULPS,
    gaussian_abs_moment,
    log_half_gamma_ratio,
    normal_tail,
    normal_tail_inverse,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestNormalTail:
    def test_at_zero(self):
        assert normal_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_mills_sandwich_at_2(self):
        # (1/t - 1/t^3) phi(t) <= tail <= phi(t)/t at t=2
        value = float(normal_tail(2.0))
        lo = (0.5 - 0.125) * math.exp(-2.0) / SQRT_2PI
        hi = 0.5 * math.exp(-2.0) / SQRT_2PI
        assert lo <= value <= hi

    def test_mills_sandwich_dense_grid(self):
        t = np.linspace(0.05, 12.0, 500)
        phi = np.exp(-0.5 * t * t) / SQRT_2PI
        tail = normal_tail(t)
        assert np.all(tail <= phi / t + 1e-300)
        assert np.all(tail >= (1.0 / t - 1.0 / t**3) * phi - 1e-300)

    def test_quantile(self):
        # 97.5% quantile of the standard normal
        assert float(normal_tail(1.959964)) == pytest.approx(0.025, abs=1e-7)
        oracle = 0.5 * sp.erfc(1.959964 / math.sqrt(2.0))
        assert float(normal_tail(1.959964)) == pytest.approx(oracle, rel=1e-14)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_symmetry(self, t):
        assert float(normal_tail(t) + normal_tail(-t)) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        t = np.linspace(-8.0, 8.0, 200)
        assert np.all(np.diff(normal_tail(t)) < 0)

    def test_inverse_roundtrip(self):
        for p in (0.4, 0.1, 1e-4, 1e-12):
            assert float(normal_tail(normal_tail_inverse(p))) == pytest.approx(p, rel=1e-12)


def array_route_tail(t):
    # normal_tail's expression through np.asarray, written out: the oracle of every input type
    return 0.5 * sp.erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


class TestNormalTailScalarPath:
    @pytest.mark.parametrize(
        "t",
        [1.3, 3, np.float64(0.7), 0.0, -0.0, math.inf, -math.inf, math.nan, 40.0, -40.0],
        ids=repr,
    )
    def test_equals_the_array_route_bitwise(self, t):
        got, expected = normal_tail(t), array_route_tail(t)
        assert type(got) is type(expected) is np.float64
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_equals_the_array_route_on_random_floats(self):
        points = np.random.default_rng(5).normal(scale=10.0, size=50_000)
        got = np.array([normal_tail(float(t)) for t in points])
        assert got.tobytes() == array_route_tail(points).tobytes()

    @pytest.mark.parametrize("t", [[0.5, -1.0, 3.0], np.array([0.5, -1.0, 3.0]), np.float32(0.5)],
                             ids=["list", "array", "float32"])
    def test_non_float_inputs_keep_the_array_route(self, t):
        got, expected = normal_tail(t), array_route_tail(t)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

class TestLogGammaRatio:
    def test_half_integer(self):
        # Gamma(1.5)/Gamma(1) = sqrt(pi)/2, Gamma(1)/Gamma(0.5) = 1/sqrt(pi)
        assert log_half_gamma_ratio(2)[0] == pytest.approx(math.log(math.sqrt(math.pi) / 2.0), abs=1e-12)
        assert log_half_gamma_ratio(1)[0] == pytest.approx(-0.5 * math.log(math.pi), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_half_gamma_ratio(0)
        with pytest.raises(ValueError):
            log_half_gamma_ratio(-2)

    @pytest.mark.parametrize("a", [0.5, 1.0, 7.5, 150.0, 1e4, 1e7])
    def test_recurrence(self, a):
        # two half steps from d = 2a: Gamma(a+1)/Gamma(a) = a, across the Stirling cut-off
        d = int(2 * a)
        assert math.exp(log_half_gamma_ratio(d)[0] + log_half_gamma_ratio(d + 1)[0]) == pytest.approx(a, rel=1e-13)

    def test_large_arguments_finite(self):
        assert math.isfinite(math.exp(log_half_gamma_ratio(10**7)[0]))
        assert math.isfinite(math.exp(log_half_gamma_ratio(2**1023)[0]))

    @pytest.mark.parametrize("d", [*range(1, 201), 2**53 - 1, 2**53, 2**53 + 1, 2**200])
    def test_within_its_rounding_bound_of_mpmath(self, d):
        # from d = 2^53 the two arguments d/2 and (d+1)/2 round to one double;
        # the oracle needs enough digits to hold them apart (61 at 2^200)
        with mpmath.workdps(90):
            exact = mpmath.log(mpmath.rf(mpmath.mpf(d) / 2, mpmath.mpf(1) / 2))
            value, rounding = log_half_gamma_ratio(d)
            assert abs(value - exact) <= rounding * _EPS


class TestLgamma:
    def test_within_the_assumed_ulps(self):
        # the package passes math.lgamma multiples of 1/2: (k + 1) / 2 for the
        # moments of |eta|, d / 2 and (d + k) / 2 below the Stirling cut-off;
        # the rounding bounds take it to be good to _LGAMMA_ULPS ulp of
        # max(|lgamma|, 1).  The worst seen is 2.71 ulp, at 6.5.
        with mpmath.workdps(40):
            for x in [i / 2 for i in range(1, 1001)] + [i / 2 for i in range(1001, 200_001, 997)]:
                exact = mpmath.loggamma(x)
                ulp = math.ulp(max(abs(float(exact)), 1.0))
                assert abs(math.lgamma(x) - exact) <= _LGAMMA_ULPS * ulp, x


class TestGaussianAbsMoment:
    def test_zeroth(self):
        assert gaussian_abs_moment(0) == 1.0

    def test_first(self):
        assert gaussian_abs_moment(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_third(self):
        assert gaussian_abs_moment(3) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_fourth(self):
        assert gaussian_abs_moment(4) == pytest.approx(3.0, rel=1e-13)

    def test_even_moments_are_double_factorials(self):
        df = 1.0
        for m in range(6):
            if m > 0:
                df *= 2 * m - 1
            assert gaussian_abs_moment(2 * m) == pytest.approx(df, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_abs_moment(-1)


def _k0_quadrature(z):
    # K0(z) = int_0^inf exp(-z cosh t) dt, cut where the integrand has
    # dropped by e^-60 relative to its value at 0
    t_max = math.acosh(1.0 + 60.0 / z)
    value, _ = integrate.quad(
        lambda t: math.exp(-z * math.cosh(t)), 0.0, t_max, epsabs=0.0, epsrel=1e-13, limit=200
    )
    return value


class TestBesselK0:
    """scipy.special.k0, the K0 in the Gumbel-sum density (limits), against
    its integral representations."""

    def test_at_one(self):
        assert sp.k0(1.0) == pytest.approx(0.421024438240708, rel=1e-10)

    def test_large_z_asymptotic_bound(self):
        value = sp.k0(10.0)
        assert 0.0 < value < math.exp(-10.0) * math.sqrt(math.pi / 20.0) * 1.1

    def test_monotone(self):
        assert sp.k0(1.0) > sp.k0(2.0)

    def test_rejects_nonpositive(self):
        # no finite value at z <= 0: the density must never evaluate K0 at
        # an underflowed z = 2 exp(-x/2) = 0
        for z in (0.0, -1.0):
            assert not math.isfinite(sp.k0(z))

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0])
    def test_second_quadrature_scheme(self, z):
        # independent route: K0(z) = int_1^inf exp(-z x) / sqrt(x^2 - 1) dx,
        # with x = 1 + s^2 to remove the endpoint singularity
        oracle, _ = integrate.quad(
            lambda s: 2.0 * math.exp(-z * (1.0 + s * s)) / math.sqrt(s * s + 2.0),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )
        assert sp.k0(z) == pytest.approx(oracle, abs=1e-8, rel=1e-10)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_against_scipy(self, z):
        assert _k0_quadrature(z) == pytest.approx(float(sp.k0(z)), rel=1e-10)
