import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from meanwidth.limits import (
    _ERFC_SLICE,
    _FAMILY_LAWS,
    _K1_C,
    _K1_D,
    _U2,
    _W,
    LIMIT_VAR,
    LimitLaw,
    _z_k1,
    ks_statistic,
    limit_cdf,
    standardize,
    standardized_sample,
)
from meanwidth.polytopes import PolytopeKind, RegularPolytope
from meanwidth.sampling import McConfig, chunk_rng, width_samples

EULER_GAMMA = 0.5772156649015329


def gumbel_cdf(x):
    """The standard Gumbel CDF exp(-exp(-x)); twice a Gumbel variable has CDF gumbel_cdf(x / 2)."""
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def gumbel_sum_density(x):
    """Density of the sum of two independent Gumbel variables:
    2 exp(-x) K0(2 exp(-x/2)), the oracle of limit_cdf's closed form."""
    x = np.asarray(x, dtype=float)
    z = 2.0 * np.exp(-x / 2.0)
    # K0 underflows past z ~ 700, and z itself underflows to 0 past x ~ 1490;
    # the density is 0 at both ends.
    out = np.zeros_like(z)
    ok = (z > 0.0) & (z < 690.0)
    out[ok] = 2.0 * np.exp(-x[ok]) * special.k0(z[ok])
    return out if out.ndim else float(out)


def _standardized_sample(kind, n, samples, seed, law):
    # the chunks drawn on every core: the same bits as one thread
    got, sample = standardized_sample(RegularPolytope(kind, n), McConfig(seed=seed, samples=samples),
                                      os.cpu_count() or 1)
    assert got is law
    return sample


# the bivariate CLT behind the cube limit: E|eta|, Var|eta|, Var(eta^2) and
# Corr(|eta|, eta^2) of a standard normal eta
MU = math.sqrt(2.0 / math.pi)
SIGMA2 = (math.pi - 2.0) / math.pi
V2 = 2.0
R = 1.0 / math.sqrt(math.pi - 2.0)


class TestCltConstants:
    def test_exact_values(self):
        assert LIMIT_VAR == pytest.approx((math.pi - 3.0) / math.pi, abs=1e-15)
        # LIMIT_VAR = sigma2 - mu^2 / 2: the projection correction
        assert LIMIT_VAR == pytest.approx(SIGMA2 - MU**2 / 2.0, abs=1e-14)

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
        out = standardize(RegularPolytope(PolytopeKind.CUBE, 8), w)
        shift = math.sqrt(16.0 / math.pi)
        assert np.allclose(out, w - shift, atol=1e-14)

    def test_simplex_affine(self):
        n = 50
        p = RegularPolytope(PolytopeKind.SIMPLEX_T, n)
        a = float(standardize(p, 0.0))
        b = float(standardize(p, 1.0))
        scale = math.sqrt(2.0 * n * math.log(n))
        assert b - a == pytest.approx(scale, rel=1e-12)

    def test_cross_uses_u_2n(self):
        n = 50
        # zero of the map is at w = 2 u_{2n} / sqrt(n)
        from meanwidth.extremes import u_sequence

        w0 = 2.0 * u_sequence(2 * n) / math.sqrt(n)
        assert float(standardize(RegularPolytope(PolytopeKind.CROSS, n), w0)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_n(self):
        # the polytope itself refuses a cube of dimension 0
        with pytest.raises(ValueError):
            standardize(RegularPolytope(PolytopeKind.CUBE, 0), [1.0])
        with pytest.raises(ValueError, match="n >= 2"):
            standardize(RegularPolytope(PolytopeKind.CROSS, 1), [1.0])


class TestSimpleCdfs:
    def test_gumbel_at_zero(self):
        assert limit_cdf(LimitLaw.TWO_GUMBEL, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_gumbel_is_scaled_gumbel(self):
        x = np.linspace(-3.0, 8.0, 50)
        assert np.allclose(
            limit_cdf(LimitLaw.TWO_GUMBEL, x), gumbel_cdf(x / 2.0), atol=1e-15
        )

    def test_normal_limit_var(self):
        s = math.sqrt(LIMIT_VAR)
        assert limit_cdf(LimitLaw.NORMAL_LIMIT_VAR, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert limit_cdf(LimitLaw.NORMAL_LIMIT_VAR, 1.959964 * s) == pytest.approx(0.975, abs=1e-6)

    def test_accepts_string_names(self):
        assert limit_cdf("two-gumbel", 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

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


EPS = float(np.finfo(float).eps)
SIGMA = math.sqrt(LIMIT_VAR)


def _mp_z_k1(z):
    """z K1(z) at the exact value of z, to 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpf(z)
        return z * mpmath.besselk(1, z)


def _mp_limit_cdf(law, x):
    """limit_cdf's oracle at the exact value of x, to 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        if law is LimitLaw.NORMAL_LIMIT_VAR:
            return mpmath.ncdf(x / mpmath.sqrt((mpmath.pi - 3) / mpmath.pi))
        return _mp_z_k1(2 * mpmath.exp(-x / 2))


class TestNumpyCdfs:
    """The Gumbel-sum CDF z K1(z) (a series up to z = 2, a trapezoid rule past
    it) and the normal CDF through math.erfc, against 30-digit mpmath."""

    @pytest.mark.parametrize(
        "zs",
        [np.geomspace(1e-300, 700.0, 301), np.linspace(1e-3, 6.0, 301), np.nextafter(2.0, [0.0, 2.0, 4.0])],
        ids=["1e-300..700", "0..6", "around-2"],
    )
    def test_z_k1_within_8_eps_relative(self, zs):
        got = _z_k1(zs)
        for z, value in zip(zs, got):
            exact = _mp_z_k1(z)
            if exact >= np.finfo(float).tiny:  # a normal double
                assert abs(value - exact) <= 8.0 * EPS * exact, z

    @pytest.mark.parametrize(
        "law, xs",
        [
            (LimitLaw.GUMBEL_SUM, np.linspace(-13.0, 1500.0, 301)),
            (LimitLaw.GUMBEL_SUM, np.linspace(-13.0, 30.0, 301)),
            (LimitLaw.NORMAL_LIMIT_VAR, np.linspace(-12.0 * SIGMA, 12.0 * SIGMA, 401)),
        ],
        ids=["gumbel-sum-wide", "gumbel-sum-bulk", "normal"],
    )
    def test_limit_cdf_within_4_eps_absolute(self, law, xs):
        got = limit_cdf(law, xs)
        for x, value in zip(xs, got):
            assert abs(value - _mp_limit_cdf(law, x)) <= 4.0 * EPS, x

    def test_normal_cdf_within_1e_13_relative(self):
        ys = np.linspace(-8.0 * SIGMA, 8.0 * SIGMA, 401)
        for y, value in zip(ys, limit_cdf(LimitLaw.NORMAL_LIMIT_VAR, ys)):
            exact = _mp_limit_cdf(LimitLaw.NORMAL_LIMIT_VAR, y)
            assert abs(value - exact) <= 1e-13 * exact, y

    @pytest.mark.parametrize("law", list(LimitLaw))
    def test_infinities(self, law):
        assert limit_cdf(law, -math.inf) == 0.0
        assert limit_cdf(law, math.inf) == 1.0
        assert np.array_equal(limit_cdf(law, np.array([-np.inf, np.inf])), [0.0, 1.0])

    @pytest.mark.parametrize("law", list(LimitLaw))
    @pytest.mark.parametrize("x", [-1.5, 0.0, 3.0, np.float64(0.25), np.array(0.5)])
    def test_scalar_in_gives_float_out(self, law, x):
        assert type(limit_cdf(law, x)) is float

    @pytest.mark.parametrize("law", list(LimitLaw))
    @pytest.mark.parametrize("x, cdf", [(-2000.0, 0.0), (2000.0, 1.0), (-1e308, 0.0), (1e308, 1.0)])
    def test_finite_tails_are_exact_without_warnings(self, law, x, cdf):
        # exp and the normal's divide overflow to inf out here; the config
        # turns any RuntimeWarning into an error
        assert limit_cdf(law, x) == cdf
        assert np.array_equal(limit_cdf(law, np.array([x, -x])), [cdf, 1.0 - cdf])
        assert ks_statistic(np.array([-abs(x), abs(x)]), law) == 0.5

    @pytest.mark.parametrize("law", list(LimitLaw))
    def test_array_keeps_its_shape(self, law):
        # (3, _ERFC_SLICE // 2) is one and a half slices of the normal CDF,
        # which it runs over the flattened array before it reshapes
        for shape in [(2, 3), (3, _ERFC_SLICE // 2)]:
            x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
            got = limit_cdf(law, x)
            assert got.shape == shape
            assert np.array_equal(got.ravel(), limit_cdf(law, x.ravel()))
            assert np.array_equal(got[-1], limit_cdf(law, x[-1]))


def _plain_z_k1(z):
    """_z_k1's series and trapezoid as plain array expressions, written out
    here: the bits that any rewrite of _z_k1 must keep."""
    out = np.empty_like(z)
    near = z <= 2.0
    zn = np.maximum(z[near], np.finfo(float).tiny)
    q = zn * zn / 4.0
    out[near] = 1.0 + 2.0 * q * (np.log(zn / 2.0) * np.polyval(_K1_C[::-1], q) - np.polyval(_K1_D[::-1], q))
    zf = np.minimum(z[~near], 800.0)
    out[~near] = 2.0 * np.exp(-zf) * sum(w * (zf + u2) / np.sqrt(2.0 * zf + u2) for u2, w in zip(_U2, _W))
    return out


class TestBitsOfThePlainExpressions:
    """The standardized sample, the CDFs and the KS distance have the bits of
    the plain expressions written out here."""

    def test_z_k1(self):
        z = np.concatenate([[0.0, 2.0, np.inf], np.geomspace(1e-300, 1e300, 2001), np.linspace(0.0, 9.0, 2001)])
        assert _z_k1(z).tobytes() == _plain_z_k1(z).tobytes()

    @pytest.mark.parametrize("kind,n", [(PolytopeKind.CUBE, 200), (PolytopeKind.CROSS, 200),
                                        (PolytopeKind.SIMPLEX_S, 50), (PolytopeKind.SIMPLEX_T, 50)])
    @pytest.mark.parametrize("samples", [1, 2, _ERFC_SLICE + 1, 2 * _ERFC_SLICE, 3 * _ERFC_SLICE + 1],
                             ids=["1", "2", "past-one-erfc-slice", "two-erfc-slices", "past-three-erfc-slices"])
    def test_standardized_sample_cdf_and_ks(self, kind, n, samples):
        p, law = RegularPolytope(kind, n), _FAMILY_LAWS[kind]
        cfg = McConfig(seed=3, samples=samples)
        widths = np.concatenate([width_samples(p, chunk_rng(3, i), c) for i, c in cfg.chunks()])
        sample = np.sort(standardize(p, widths))
        if samples > 1:  # one sample has no standard error, so no chunk map draws it
            got_law, got = standardized_sample(p, cfg, threads=2)
            assert got_law is law
            assert got.tobytes() == sample.tobytes()
        if law is LimitLaw.NORMAL_LIMIT_VAR:
            y = (sample / -math.sqrt(2.0 * LIMIT_VAR)).tolist()
            cdf = 0.5 * np.fromiter(map(math.erfc, y), float, samples)
        elif law is LimitLaw.GUMBEL_SUM:
            cdf = _plain_z_k1(2.0 * np.exp(-sample / 2.0))
        else:
            cdf = np.exp(-np.exp(-sample / 2.0))
        assert limit_cdf(law, sample).tobytes() == cdf.tobytes()
        i = np.arange(1, samples + 1)
        assert ks_statistic(sample, law) == float(max(np.max(i / samples - cdf), np.max(cdf - (i - 1) / samples)))


class TestKsStatistic:
    # samples of twice a Gumbel variable: doubling is exact, so TWO_GUMBEL's
    # CDF at 2x has the bits of the Gumbel CDF at x
    def test_single_midpoint(self):
        # one sample at the median of the law: KS = 1/2
        x = 2.0 * float(np.log(-1.0 / np.log(0.5)))  # twice the Gumbel median
        assert ks_statistic(np.array([x]), LimitLaw.TWO_GUMBEL) == pytest.approx(0.5, abs=1e-12)

    def test_exact_sample_is_small(self):
        # inverse-CDF sample from the law itself
        n = 100_000
        u = (np.arange(1, n + 1) - 0.5) / n
        x = -2.0 * np.log(-np.log(u))
        assert ks_statistic(x, LimitLaw.TWO_GUMBEL) < 1.95 / math.sqrt(n)

    def test_shifted_sample_is_large(self):
        n = 10_000
        u = (np.arange(1, n + 1) - 0.5) / n
        x = 2.0 * (-np.log(-np.log(u)) + 1.0)
        assert ks_statistic(x, LimitLaw.TWO_GUMBEL) > 0.2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([2.0, 0.0]), LimitLaw.TWO_GUMBEL)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), LimitLaw.TWO_GUMBEL)

    @pytest.mark.parametrize("sample", [[math.nan, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [math.nan]],
                             ids=["first", "middle", "last", "lone"])
    def test_rejects_a_nan(self, sample):
        # a NaN passes the sortedness check, and a maximum over slices would drop it
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(np.array(sample), LimitLaw.TWO_GUMBEL)

    @pytest.mark.parametrize("law", list(LimitLaw))
    def test_infinities_are_a_valid_sample(self, law):
        # the CDF is 0 at -inf and 1 at +inf, so each end is 1/3 away from the empirical steps
        mid = limit_cdf(law, 0.0)
        assert ks_statistic(np.array([-math.inf, 0.0, math.inf]), law) == pytest.approx(
            max(1.0 / 3.0, 2.0 / 3.0 - mid, mid - 1.0 / 3.0), abs=1e-15)

    @pytest.mark.parametrize(
        "sample",
        [1.0, np.float64(1.0), np.array([[0.0, 1.0]]), np.array([[0.0], [1.0]])],
        ids=["float", "float64", "row", "column"],
    )
    def test_rejects_a_sample_that_is_not_1d(self, sample):
        # a (n, 1) column would broadcast against its n CDF values into an n x n table
        with pytest.raises(ValueError, match="1-D"):
            ks_statistic(sample, LimitLaw.TWO_GUMBEL)


class TestBoundedMemory:
    @pytest.mark.parametrize("kind,n", [(PolytopeKind.SIMPLEX_S, 50), (PolytopeKind.CUBE, 200)])
    def test_the_sample_twice_is_the_working_set(self, kind, n):
        # the chunks and their join hold the sample twice; the standardized
        # chunks, the in-place sort and the KS slices add a few slices at most
        samples = 100_000
        bound = 2 * 8 * samples + 4 * 8 * _ERFC_SLICE
        p = RegularPolytope(kind, n)
        standardized_sample(p, McConfig(seed=1, samples=2), threads=2)  # caches u_n and the pool
        tracemalloc.start()
        try:
            law, sample = standardized_sample(p, McConfig(seed=1, samples=samples), threads=2)
            ks_statistic(sample, law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


class TestConvergence:
    def test_cube_ks_decreases_with_n(self):
        ks = []
        for n in (50, 500, 5000):
            s = _standardized_sample(PolytopeKind.CUBE, n, 30_000, seed=42, law=LimitLaw.NORMAL_LIMIT_VAR)
            ks.append(ks_statistic(s, LimitLaw.NORMAL_LIMIT_VAR))
        # allow one Monte Carlo inversion in the decreasing trend
        assert sum(a > b for a, b in zip(ks, ks[1:])) >= 1
        assert ks[-1] < ks[0]

    def test_cross_ks_decreases_with_n(self):
        ks = []
        for n in (50, 500, 5000):
            s = _standardized_sample(PolytopeKind.CROSS, n, 30_000, seed=42, law=LimitLaw.TWO_GUMBEL)
            ks.append(ks_statistic(s, LimitLaw.TWO_GUMBEL))
        assert sum(a > b for a, b in zip(ks, ks[1:])) >= 1
        assert ks[-1] < ks[0]

    def test_simplex_ks_decreases_with_n(self):
        ks = []
        for n in (50, 500, 5000):
            s = _standardized_sample(PolytopeKind.SIMPLEX_T, n, 30_000, seed=42, law=LimitLaw.GUMBEL_SUM)
            ks.append(ks_statistic(s, LimitLaw.GUMBEL_SUM))
        assert sum(a > b for a, b in zip(ks, ks[1:])) >= 1
        assert ks[-1] < ks[0]
