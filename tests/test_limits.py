import math
import os

import numpy as np
import pytest
from scipy import integrate

from meanwidth.limits import (
    CLT_CONSTANTS,
    EULER_GAMMA,
    LimitLaw,
    gumbel_sum_density,
    ks_statistic,
    limit_cdf,
    standardize_cross,
    standardize_cube,
    standardize_simplex,
)
from meanwidth.polytopes import PolytopeKind, RegularPolytope
from meanwidth.sampling import McConfig, _map_chunks, width_samples


def _standardized_sample(kind, n, samples, seed):
    p = RegularPolytope(kind, n)
    cfg = McConfig(seed=seed, samples=samples)
    # the chunks drawn on every core: the same bits as one thread
    w = np.concatenate(_map_chunks(lambda rng, c: width_samples(p, rng, c), cfg, os.cpu_count() or 1))
    if kind is PolytopeKind.CUBE:
        return np.sort(standardize_cube(w, n))
    if kind is PolytopeKind.CROSS:
        return np.sort(standardize_cross(w, n))
    return np.sort(standardize_simplex(w, n))


# the bivariate CLT behind the cube limit: E|eta|, Var|eta|, Var(eta^2) and
# Corr(|eta|, eta^2) of a standard normal eta
MU = math.sqrt(2.0 / math.pi)
SIGMA2 = (math.pi - 2.0) / math.pi
V2 = 2.0
R = 1.0 / math.sqrt(math.pi - 2.0)


class TestCltConstants:
    def test_exact_values(self):
        c = CLT_CONSTANTS
        assert c.limit_var == pytest.approx((math.pi - 3.0) / math.pi, abs=1e-15)
        # limit_var = sigma2 - mu^2 / 2: the projection correction
        assert c.limit_var == pytest.approx(SIGMA2 - MU**2 / 2.0, abs=1e-14)

    def test_monte_carlo_moments(self):
        g = np.random.default_rng(4).standard_normal(2_000_000)
        a = np.abs(g)
        assert a.mean() == pytest.approx(MU, abs=3e-3)
        assert a.var() == pytest.approx(SIGMA2, abs=3e-3)
        assert (g * g).var() == pytest.approx(V2, abs=1e-2)
        corr = np.corrcoef(a, g * g)[0, 1]
        assert corr == pytest.approx(R, abs=3e-3)


class TestStandardizers:
    def test_cube_is_a_shift(self):
        w = np.array([1.0, 2.0])
        out = standardize_cube(w, 8)
        shift = math.sqrt(16.0 / math.pi)
        assert np.allclose(out, w - shift, atol=1e-14)

    def test_simplex_affine(self):
        n = 50
        a = float(standardize_simplex(0.0, n))
        b = float(standardize_simplex(1.0, n))
        scale = math.sqrt(2.0 * n * math.log(n))
        assert b - a == pytest.approx(scale, rel=1e-12)

    def test_cross_uses_u_2n(self):
        n = 50
        # zero of the map is at w = 2 u_{2n} / sqrt(n)
        from meanwidth.extremes import u_sequence

        w0 = 2.0 * u_sequence(2 * n) / math.sqrt(n)
        assert float(standardize_cross(w0, n)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            standardize_cube([1.0], 0)
        with pytest.raises(ValueError):
            standardize_cross([1.0], 1)


class TestSimpleCdfs:
    def test_gumbel_at_zero(self):
        assert limit_cdf(LimitLaw.GUMBEL, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_gumbel_is_scaled_gumbel(self):
        x = np.linspace(-3.0, 8.0, 50)
        assert np.allclose(
            limit_cdf(LimitLaw.TWO_GUMBEL, x), limit_cdf(LimitLaw.GUMBEL, x / 2.0), atol=1e-15
        )

    def test_normal_limit_var(self):
        s = math.sqrt(CLT_CONSTANTS.limit_var)
        assert limit_cdf(LimitLaw.NORMAL_LIMIT_VAR, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert limit_cdf(LimitLaw.NORMAL_LIMIT_VAR, 1.959964 * s) == pytest.approx(0.975, abs=1e-6)

    def test_accepts_string_names(self):
        assert limit_cdf("gumbel", 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("law", list(LimitLaw))
    def test_monotone_and_limits(self, law):
        x = np.linspace(-6.0, 25.0, 80)
        cdf = np.atleast_1d(limit_cdf(law, x))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] < 0.05
        assert cdf[-1] > 0.999


class TestGumbelSum:
    def test_density_mass(self):
        mass, _ = integrate.quad(gumbel_sum_density, -10.0, 200.0, epsabs=1e-10, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_density_mean(self):
        mean, _ = integrate.quad(
            lambda x: x * gumbel_sum_density(x), -10.0, 200.0, epsabs=1e-10, limit=300
        )
        assert mean == pytest.approx(2.0 * EULER_GAMMA, abs=1e-4)

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.0, 1.0, 4.0])
    def test_cdf_closed_form_oracle(self, x):
        # the closed form z K1(z) against the integral of the K0 density
        oracle, _ = integrate.quad(gumbel_sum_density, min(x, 0.0) - 40.0, x, epsabs=1e-13, limit=200)
        assert limit_cdf(LimitLaw.GUMBEL_SUM, x) == pytest.approx(oracle, abs=1e-11)

    @pytest.mark.parametrize("x", [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 4.0, 10.0, 30.0])
    def test_cdf_convolution_oracle(self, x):
        # independent route: int Gumbel-cdf(x - y) Gumbel-density(y) dy
        oracle, _ = integrate.quad(
            lambda y: math.exp(-math.exp(-(x - y))) * math.exp(-y - math.exp(-y)),
            -8.0,
            40.0,
            epsabs=0.0,
            epsrel=1e-12,
            limit=300,
        )
        assert limit_cdf(LimitLaw.GUMBEL_SUM, x) == pytest.approx(oracle, rel=1e-10, abs=1e-14)

    def test_density_extreme_argument_is_zero(self):
        assert gumbel_sum_density(-20.0) == 0.0

    def test_far_right_tail_has_no_nan(self):
        # z = 2 exp(-x/2) underflows to 0 here, where K0 and K1 are infinite
        xs = np.array([1500.0, 2000.0])
        assert np.array_equal(gumbel_sum_density(xs), [0.0, 0.0])
        assert np.array_equal(limit_cdf(LimitLaw.GUMBEL_SUM, xs), [1.0, 1.0])
        assert limit_cdf(LimitLaw.GUMBEL_SUM, 1500.0) == 1.0


class TestKsStatistic:
    def test_single_midpoint(self):
        # one sample at the median of the law: KS = 1/2
        x = float(np.log(-1.0 / np.log(0.5)))  # Gumbel median
        assert ks_statistic(np.array([x]), LimitLaw.GUMBEL) == pytest.approx(0.5, abs=1e-12)

    def test_exact_sample_is_small(self):
        # inverse-CDF sample from the Gumbel law itself
        n = 100_000
        u = (np.arange(1, n + 1) - 0.5) / n
        x = -np.log(-np.log(u))
        assert ks_statistic(x, LimitLaw.GUMBEL) < 1.95 / math.sqrt(n)

    def test_shifted_sample_is_large(self):
        n = 10_000
        u = (np.arange(1, n + 1) - 0.5) / n
        x = -np.log(-np.log(u)) + 1.0
        assert ks_statistic(x, LimitLaw.GUMBEL) > 0.2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([1.0, 0.0]), LimitLaw.GUMBEL)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), LimitLaw.GUMBEL)


class TestConvergence:
    def test_cube_ks_decreases_with_n(self):
        ks = []
        for n in (50, 500, 5000):
            s = _standardized_sample(PolytopeKind.CUBE, n, 30_000, seed=42)
            ks.append(ks_statistic(s, LimitLaw.NORMAL_LIMIT_VAR))
        # allow one Monte Carlo inversion in the decreasing trend
        assert sum(a > b for a, b in zip(ks, ks[1:])) >= 1
        assert ks[-1] < ks[0]

    def test_cross_ks_decreases_with_n(self):
        ks = []
        for n in (50, 500, 5000):
            s = _standardized_sample(PolytopeKind.CROSS, n, 30_000, seed=42)
            ks.append(ks_statistic(s, LimitLaw.TWO_GUMBEL))
        assert sum(a > b for a, b in zip(ks, ks[1:])) >= 1
        assert ks[-1] < ks[0]

    def test_simplex_ks_decreases_with_n(self):
        ks = []
        for n in (50, 500, 5000):
            s = _standardized_sample(PolytopeKind.SIMPLEX_T, n, 30_000, seed=42)
            ks.append(ks_statistic(s, LimitLaw.GUMBEL_SUM))
        assert sum(a > b for a, b in zip(ks, ks[1:])) >= 1
        assert ks[-1] < ks[0]
