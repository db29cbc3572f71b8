"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
The Monte Carlo thresholds (KS distances, the cube mean bound) are pinned
regression values calibrated from oracle runs at the seeds used below; they
are not asymptotic guarantees.
"""

import math
import os
import subprocess
import sys

import numpy as np
from scipy import integrate

from meanwidth.conjecture import (
    conjecture_bound_check,
    gram_fingerprint_distance,
    interpolation_emax_curve,
    optimize_configuration,
    random_unit_diagonal_gram,
    regular_simplex_gram,
)
from meanwidth.extremes import comparison_report, expected_max, expected_max_abs
from meanwidth.limits import (
    CLT_CONSTANTS,
    EULER_GAMMA,
    LimitLaw,
    gumbel_sum_density,
    ks_statistic,
    standardize_cross,
    standardize_cube,
    standardize_simplex,
)
from meanwidth.polytopes import (
    PolytopeKind,
    RegularPolytope,
    sudakov_v1,
    width_moment,
    width_moment_cube,
)
from meanwidth.sampling import McConfig, _map_chunks, estimate_moments, width_samples


def verdict(index: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {index}: {title}{suffix}")
    assert ok, f"criterion {index} failed: {title}{suffix}"


def _widths(kind: PolytopeKind, n: int, samples: int, seed: int) -> np.ndarray:
    """The seeded width sample, its chunks drawn on every core (same bits)."""
    p = RegularPolytope(kind, n)
    cfg = McConfig(seed=seed, samples=samples)
    return np.concatenate(_map_chunks(lambda rng, c: width_samples(p, rng, c), cfg, os.cpu_count() or 1))


def test_criterion_01_cube_moment_formulas():
    worst = 0.0
    ok = True
    for n in range(1, 11):
        p = RegularPolytope(PolytopeKind.CUBE, n)
        mc = estimate_moments(p, (1, 2, 3, 4), McConfig(seed=101, samples=1_000_000))
        for k in (1, 2, 3, 4):
            closed = width_moment_cube(n, k).value
            if n == 1:
                ok = ok and abs(closed - 1.0) <= 4.0 * 2.220446049250313e-16
                continue
            z = abs(mc[k].value - closed) / mc[k].error
            worst = max(worst, z)
            ok = ok and z < 4.0
    verdict(1, "cube closed forms vs Monte Carlo, n 1..10, k 1..4", ok, f"worst z = {worst:.2f}")


def test_criterion_02_cross_and_simplex_second_moments():
    worst = 0.0
    ok = True
    for n in range(2, 7):
        for kind in (PolytopeKind.CROSS, PolytopeKind.SIMPLEX_T):
            p = RegularPolytope(kind, n)
            quad = width_moment(p, 2)
            mc = estimate_moments(p, (2,), McConfig(seed=202, samples=400_000))[2]
            combined = mc.error + quad.error
            z = abs(quad.value - mc.value) / combined
            worst = max(worst, z)
            ok = ok and z < 4.0
    verdict(2, "quadrature second moments vs Monte Carlo, cross and simplex, n 2..6",
            ok, f"worst z = {worst:.2f}")


def test_criterion_03_comparison_theorem_finite_n():
    ok = True
    for n in range(1, 201):
        rep = comparison_report(n)
        ok = ok and rep.b_2n <= rep.a_n + rep.slack
        ok = ok and rep.a_n <= math.sqrt(2 * n / (2 * n - 1)) * rep.b_2n + rep.slack
    rep1 = comparison_report(1)
    equality = (
        abs(rep1.a_n - math.sqrt(2.0) * rep1.b_2n) < 1e-10
        and abs(rep1.a_n - math.sqrt(2.0 / math.pi)) < 1e-10
    )
    verdict(3, "comparison inequality both sides, n 1..200, with n=1 equality",
            ok and equality)


def test_criterion_04_normalized_gap_trend():
    gaps = [comparison_report(n).gap_normalized for n in (100, 1_000, 10_000, 100_000)]
    positive = all(g > 0.0 for g in gaps)
    dists = [abs(g - 1.0) for g in gaps]
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    verdict(4, "normalized gap positive and approaching 1 monotonically",
            positive and decreasing, "gaps = " + ", ".join(f"{g:.4f}" for g in gaps))


def test_criterion_05_corollary_chain():
    slack = 1e-8
    sandwich = True
    for n in range(1, 51):
        t = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, 2 * n))
        c = sudakov_v1(RegularPolytope(PolytopeKind.CROSS, n))
        sandwich = sandwich and math.sqrt((2 * n - 1) / (2 * n)) * t <= c + slack
        sandwich = sandwich and c <= t + slack
    scaled = []
    for n in (100, 1_000, 10_000):
        t = sudakov_v1(RegularPolytope(PolytopeKind.SIMPLEX_T, 2 * n))
        c = sudakov_v1(RegularPolytope(PolytopeKind.CROSS, n))
        scaled.append((t / c - 1.0) * 4 * n)
    dists = [abs(s - 1.0) for s in scaled]
    trend = all(a > b for a, b in zip(dists, dists[1:]))
    verdict(5, "V1 sandwich n 1..50 and scaled ratio trend toward 1",
            sandwich and trend, "scaled = " + ", ".join(f"{s:.4f}" for s in scaled))


def test_criterion_06_cube_central_limit():
    n, samples, seed = 2_000, 100_000, 42
    std = np.sort(standardize_cube(_widths(PolytopeKind.CUBE, n, samples, seed), n))
    mean = float(std.mean())
    var = float(std.var(ddof=1))
    ks = ks_statistic(std, LimitLaw.NORMAL_LIMIT_VAR)
    target = CLT_CONSTANTS.limit_var
    ok = abs(mean) <= 0.004 and abs(var - target) <= 0.1 * target and ks <= 0.02
    verdict(6, "cube width CLT at n=2000",
            ok, f"mean = {mean:.5f}, var = {var:.5f}, KS = {ks:.4f}")


def test_criterion_07_gumbel_limits():
    n, samples, seed = 5_000, 100_000, 42
    std_s = np.sort(standardize_simplex(_widths(PolytopeKind.SIMPLEX_T, n, samples, seed), n))
    ks_s = ks_statistic(std_s, LimitLaw.GUMBEL_SUM)
    std_c = np.sort(standardize_cross(_widths(PolytopeKind.CROSS, n, samples, seed), n))
    ks_c = ks_statistic(std_c, LimitLaw.TWO_GUMBEL)
    mass, _ = integrate.quad(gumbel_sum_density, -10.0, 200.0, epsabs=1e-10, limit=300)
    mean, _ = integrate.quad(lambda x: x * gumbel_sum_density(x), -10.0, 200.0,
                             epsabs=1e-10, limit=300)
    ok = (
        ks_s <= 0.05
        and ks_c <= 0.05
        and abs(mass - 1.0) <= 1e-6
        and abs(mean - 2.0 * EULER_GAMMA) <= 1e-4
    )
    verdict(7, "simplex/cross Gumbel-type limits at n=5000",
            ok, f"KS simplex = {ks_s:.4f}, KS cross = {ks_c:.4f}, mass err = {abs(mass - 1.0):.1e}")


def test_criterion_08_interpolation_curve():
    ok = True
    for n in (1, 3, 5):
        cfg = McConfig(seed=808, samples=200_000)
        curve = interpolation_emax_curve(n, [0.0, 0.25, 0.5, 0.75, 1.0], cfg)
        for (_, m1, e1), (_, m2, e2) in zip(curve, curve[1:]):
            ok = ok and m2 <= m1 + 4.0 * (e1 + e2)
        t0_target = math.sqrt(2 * n / (2 * n - 1)) * expected_max(2 * n).value
        t1_target = expected_max_abs(n).value
        ok = ok and abs(curve[0][1] - t0_target) < 4.0 * curve[0][2]
        ok = ok and abs(curve[-1][1] - t1_target) < 4.0 * curve[-1][2]
    verdict(8, "interpolated E-max curve non-increasing with quadrature endpoints, n in {1,3,5}", ok)


def test_criterion_09_conjecture_lab():
    res = optimize_configuration(3, 20, McConfig(seed=5, samples=100_000))
    target = 1.5 * math.sqrt(3.0)
    fingerprint = gram_fingerprint_distance(res.best_gram, regular_simplex_gram(3))
    search_ok = abs(res.best_value - target) < 5.0 * res.best_stderr and fingerprint < 1e-2
    checks_ok = True
    rng = np.random.default_rng(909)
    for n in range(2, 9):
        for _ in range(1_000):
            g = random_unit_diagonal_gram(n, rng)
            check = conjecture_bound_check(g, McConfig(seed=6, samples=2_000))
            checks_ok = checks_ok and check.ok
    verdict(9, "search recovers the regular simplex; 1000 random grams per n 2..8 respect the bound",
            search_ok and checks_ok,
            f"best V1 = {res.best_value:.5f} vs {target:.5f}, fingerprint = {fingerprint:.4f}")


def _run_cli(args: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "meanwidth.cli", *args],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_criterion_10_cli_reproducibility():
    commands = [
        ["moments", "--family", "simplex-t", "--n", "3,5", "--k", "1,2",
         "--route", "mc", "--samples", "20000", "--seed", "7"],
        ["limits", "--family", "cross", "--n", "200", "--samples", "20000", "--seed", "7"],
        ["search", "--n", "3", "--restarts", "2", "--samples", "20000", "--seed", "7"],
    ]
    ok = True
    for argv in commands:
        first = _run_cli(argv + ["--threads", "1"])
        second = _run_cli(argv + ["--threads", "1"])
        threaded = _run_cli(argv + ["--threads", "8"])
        ok = ok and first == second == threaded
    verdict(10, "seeded CLI output byte-identical across runs and thread counts", ok)
