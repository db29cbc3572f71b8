import math
from dataclasses import replace

import pytest
from scipy import integrate

from meanwidth.extremes import (
    DEFAULT_QUAD,
    QuadratureConfig,
    QuadratureError,
    _TRUNC_EPS,
    _quad,
    expected_max,
    solve_t_n,
)
from meanwidth.polytopes import (
    PolytopeKind,
    RegularPolytope,
    range_cdf,
    range_moments,
    sudakov_v1,
    v1_from_mean_width,
    width_moment,
    width_moment_cube,
    width_moments,
)
from meanwidth.sampling import McConfig, estimate_moments
from meanwidth.special import gaussian_abs_moment, log_gamma_ratio, normal_tail, normal_tail_inverse

SQRT_2PI = math.sqrt(2.0 * math.pi)


def cube_polynomial(n, k):
    """Hand-derived E[W_{Q_n}^k] for k = 1..4: the oracle of the cumulant route."""
    if k == 1:
        return n * math.exp(log_gamma_ratio(n / 2, (n + 1) / 2)) / math.sqrt(math.pi)
    if k == 2:
        return 1.0 + 2.0 * (n - 1) / math.pi
    if k == 3:
        poly = 2.0 * n * n + (3.0 * math.pi - 6.0) * n + 4.0 - math.pi
        return 0.5 * math.exp(log_gamma_ratio(n / 2, (n + 3) / 2)) * math.pi ** -1.5 * n * poly
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


class TestV1FromMeanWidth:
    def test_segment(self):
        assert v1_from_mean_width(1, 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_unit_square_semiperimeter(self):
        # Cauchy: mean width of the unit square is 4/pi, V1 its semiperimeter
        assert v1_from_mean_width(2, 4.0 / math.pi) == pytest.approx(2.0, rel=1e-13)

    def test_dim3_factor_is_two(self):
        w = 0.7318
        assert v1_from_mean_width(3, w) == pytest.approx(2.0 * w, rel=1e-13)


class TestCubeMoments:
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


class TestRangeEngine:
    def test_cdf_limits(self):
        assert range_cdf(3, 0.0) == 0.0
        assert range_cdf(3, 25.0) == pytest.approx(1.0, abs=1e-12)

    def test_n2_range_is_abs_difference(self):
        # E|eta_1 - eta_2| = 2/sqrt(pi)
        value, err = range_moments(2, (1,))[1]
        assert value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-9)

    def test_n2_second_moment(self):
        # E (eta_1 - eta_2)^2 = 2
        value, _ = range_moments(2, (2,))[2]
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_nonconvergence_raises(self):
        # the exact value is 2^6 * 11!! = 665280, but the outer quadrature
        # runs out of subdivisions before reaching its tolerance
        with pytest.raises(QuadratureError):
            range_moments(2, (12,))

    def test_cdf_subdivision_limit_raises(self):
        with pytest.raises(QuadratureError):
            range_cdf(5, 1.0, QuadratureConfig(limit=1))


def per_k_range_moment(n, k, cfg=DEFAULT_QUAD):
    """The nested quadrature of one k on its own, range CDF recomputed at
    every outer node: the oracle of range_moments' shared survival values."""
    t_hi = 2.0 * float(normal_tail_inverse(min(_TRUNC_EPS / (2 * n), 0.25)))
    inner_cfg = replace(cfg, epsabs=min(cfg.epsabs, 1e-13))

    def integrand(t):
        return k * t ** (k - 1) * (1.0 - range_cdf(n, t, inner_cfg))

    outer_cfg = replace(cfg, epsrel=max(cfg.epsrel, 1e-11))
    value, err = _quad(integrand, 0.0, t_hi, outer_cfg, points=[2.0 * solve_t_n(n)])
    tail = 2 * n * k * t_hi ** (k - 1) * float(normal_tail(t_hi / 2.0)) * 4.0
    return value, err + tail


class TestRangeMoments:
    @pytest.mark.parametrize("n", [3, 57, 221])
    def test_equals_the_per_k_quadrature_bit_for_bit(self, n):
        shared = range_moments(n, (1, 2, 3, 4))
        assert list(shared) == [1, 2, 3, 4]
        for k in (1, 2, 3, 4):
            value, err = shared[k]
            oracle_value, oracle_err = per_k_range_moment(n, k)
            assert value.hex() == oracle_value.hex()
            assert err.hex() == oracle_err.hex()

    def test_n2_error_is_an_honest_bound(self):
        # the n = 2 range is |eta_1 - eta_2| = sqrt(2) |eta|
        moments = range_moments(2, range(1, 8))
        for k in range(1, 8):
            value, err = moments[k]
            exact = 2.0 ** (k / 2) * gaussian_abs_moment(k)
            assert abs(value - exact) <= err, k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 57, 221, 2000])
    def test_mean_range_is_twice_the_expected_max(self, n):
        # E[max - min] = 2 E max by symmetry: an independent quadrature route
        value, err = range_moments(n, (1,))[1]
        emax = expected_max(n)
        assert abs(value - 2.0 * emax.value) <= err + 2.0 * emax.abs_error_bound

    def test_duplicate_orders_are_computed_once(self):
        assert list(range_moments(4, (3, 1, 3))) == [3, 1]

    @pytest.mark.parametrize("n, ks", [(1, (1,)), (3, (1, 0)), (3, (-1,))])
    def test_rejects_bad_input(self, n, ks):
        with pytest.raises(ValueError):
            range_moments(n, ks)


class TestWidthMoments:
    @pytest.mark.parametrize("kind", list(PolytopeKind))
    @pytest.mark.parametrize("n", [2, 9])
    def test_each_k_equals_width_moment(self, kind, n):
        p = RegularPolytope(kind, n)
        ests = width_moments(p, (3, 1, 2, 3))
        assert list(ests) == [3, 1, 2]
        for k in (1, 2, 3):
            assert ests[k] == width_moment(p, k)

    @pytest.mark.parametrize("kind", list(PolytopeKind))
    def test_rejects_nonpositive_order(self, kind):
        with pytest.raises(ValueError):
            width_moments(RegularPolytope(kind, 3), (1, 0))


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
