import math

import numpy as np
import pytest

from meanwidth import conjecture
from meanwidth.conjecture import (
    GramConfiguration,
    _first_argmax,
    conjecture_bound_check,
    gram_fingerprint_distance,
    interpolation_covariance,
    interpolation_emax_curve,
    optimize_configuration,
    random_unit_diagonal_gram,
    regular_simplex_gram,
)
from meanwidth.extremes import (
    IndefiniteMatrixError,
    NumericalError,
    expected_max,
    max_abs_moments,
)
from meanwidth.sampling import McConfig, chunk_rng, sample_correlated_max


class TestGramConfiguration:
    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            GramConfiguration(n=2, matrix=m)

    def test_rejects_bad_diagonal(self):
        m = np.array([[0.9, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            GramConfiguration(n=2, matrix=m)

    def test_rejects_a_diagonal_and_asymmetry_within_numpys_default_rtol(self):
        # 9e-6 off the unit diagonal and 4e-6 asymmetric: both far past atol
        m = np.array([[0.999991, 0.5], [0.500004, 1.0]])
        with pytest.raises(ValueError):
            GramConfiguration(n=2, matrix=m)

    def test_rejects_out_of_range(self):
        m = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValueError):
            GramConfiguration(n=2, matrix=m)

    def test_rejects_indefinite(self):
        m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValueError):
            GramConfiguration(n=3, matrix=m)

    def test_indefinite_is_a_numerical_error(self):
        m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(IndefiniteMatrixError) as info:
            GramConfiguration(n=3, matrix=m)
        assert isinstance(info.value, NumericalError)
        assert isinstance(info.value, ValueError)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            GramConfiguration(n=3, matrix=np.eye(2))


class TestRegularSimplexGram:
    def test_entries(self):
        g = regular_simplex_gram(4)
        off = g.matrix[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1.0 / 3.0, atol=1e-15)
        assert np.allclose(np.diag(g.matrix), 1.0, atol=1e-15)

    def test_row_sums_vanish(self):
        # the simplex directions sum to zero, so rows of the Gram sum to zero
        g = regular_simplex_gram(5)
        assert np.allclose(g.matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_has_zero_eigenvalue(self):
        g = regular_simplex_gram(6)
        vals = np.linalg.eigvalsh(g.matrix)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(vals[1:], 6.0 / 5.0, atol=1e-12)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            regular_simplex_gram(1)


class TestRandomGram:
    def test_is_valid_configuration(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 8):
            g = random_unit_diagonal_gram(n, rng)
            assert isinstance(g, GramConfiguration)
            assert g.n == n

    def test_replay(self):
        a = random_unit_diagonal_gram(4, np.random.default_rng(9))
        b = random_unit_diagonal_gram(4, np.random.default_rng(9))
        assert np.array_equal(a.matrix, b.matrix)


class TestBoundCheck:
    def test_regular_gram_saturates(self):
        n = 5
        check = conjecture_bound_check(regular_simplex_gram(n), McConfig(seed=3, samples=400_000))
        assert check.ok
        # equality case: estimate within Monte Carlo noise of the bound itself
        assert abs(check.estimate - check.bound) < 4.0 * check.stderr

    def test_identity_gram_has_slack(self):
        n = 5
        check = conjecture_bound_check(
            GramConfiguration(n=n, matrix=np.eye(n)), McConfig(seed=4, samples=200_000)
        )
        assert check.ok
        assert check.estimate < check.bound

    def test_bound_is_the_quadrature_value_on_every_call(self):
        # the bound is memoized per n: a repeat call must still give the
        # exact expression
        g, cfg = regular_simplex_gram(4), McConfig(seed=1, samples=10)
        for _ in range(2):
            bound = conjecture_bound_check(g, cfg).bound
            assert bound == math.sqrt(4 / 3) * expected_max(4)[0]

    def test_random_grams_all_pass(self):
        rng = np.random.default_rng(123)
        for n in (2, 4, 7):
            for _ in range(40):
                g = random_unit_diagonal_gram(n, rng)
                check = conjecture_bound_check(g, McConfig(seed=6, samples=2_000))
                assert check.ok, f"bound violated at n={n}: {check}"

    def test_rejects_n1_before_any_draw(self, monkeypatch):
        # sqrt(n/(n-1)) has no value at n = 1; the draws alone would take seconds
        calls = []
        monkeypatch.setattr(conjecture, "sample_correlated_max", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="n >= 2"):
            conjecture_bound_check(GramConfiguration(n=1, matrix=np.eye(1)), McConfig(seed=1, samples=10**7))
        assert calls == []


class TestFingerprintDistance:
    def test_zero_on_identical(self):
        g = regular_simplex_gram(4)
        assert gram_fingerprint_distance(g, g) == 0.0

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(17)
        g = random_unit_diagonal_gram(5, rng)
        perm = rng.permutation(5)
        relabeled = GramConfiguration(n=5, matrix=g.matrix[np.ix_(perm, perm)])
        assert gram_fingerprint_distance(g, relabeled) < 1e-12

    def test_detects_difference(self):
        a = regular_simplex_gram(4)
        b = GramConfiguration(n=4, matrix=np.eye(4))
        assert gram_fingerprint_distance(a, b) > 0.3


class TestInterpolation:
    def test_rejects_t_outside_unit_interval(self):
        with pytest.raises(ValueError):
            interpolation_covariance(3, -0.1)
        with pytest.raises(ValueError):
            interpolation_covariance(3, 1.5)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_1(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            interpolation_covariance(n, 0.5)
        with pytest.raises(ValueError, match="n >= 1"):
            interpolation_emax_curve(n, [0.0, 1.0], McConfig(seed=1, samples=100))

    def test_endpoint_t0_is_iid_scaled(self):
        # t = 0: 2n iid coordinates with variance 2n/(2n-1)
        n = 4
        cov = interpolation_covariance(n, 0.0)
        assert np.allclose(cov, (2 * n / (2 * n - 1)) * np.eye(2 * n), atol=1e-14)

    def test_endpoint_t1_pairs_are_antipodal(self):
        # t = 1: unit variances, correlation -1 inside pairs
        n = 3
        cov = interpolation_covariance(n, 1.0)
        assert np.allclose(np.diag(cov), 1.0, atol=1e-14)
        for i in range(n):
            assert cov[2 * i, 2 * i + 1] == pytest.approx(-1.0, abs=1e-14)

    def test_endpoint_values_match_quadrature(self):
        # E max at t=0 is sqrt(2n/(2n-1)) E max of 2n iid normals;
        # at t=1 the maximum over antipodal pairs is max |eta_i| over n
        n = 4
        cfg = McConfig(seed=8, samples=400_000)
        lo, _ = sample_correlated_max(interpolation_covariance(n, 0.0), cfg)
        hi, _ = sample_correlated_max(interpolation_covariance(n, 1.0), cfg)
        curve = interpolation_emax_curve(n, [0.0, 1.0], cfg)
        target0 = math.sqrt(2 * n / (2 * n - 1)) * expected_max(2 * n)[0]
        target1 = max_abs_moments([n], (1,))[0][1][0]
        for mean, stderr, target in (
            (curve[0][1], curve[0][2], target0),
            (curve[1][1], curve[1][2], target1),
        ):
            assert abs(mean - target) < 4.0 * stderr
        assert lo == pytest.approx(curve[0][1], abs=1e-12)
        assert hi == pytest.approx(curve[1][1], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_curve_non_increasing(self, n):
        cfg = McConfig(seed=9, samples=200_000)
        curve = interpolation_emax_curve(n, [0.0, 0.25, 0.5, 0.75, 1.0], cfg)
        for (_, m1, e1), (_, m2, e2) in zip(curve, curve[1:]):
            assert m2 <= m1 + 4.0 * (e1 + e2)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            interpolation_emax_curve(2, [0.5, 0.2], McConfig(seed=1, samples=100))


class TestOptimizer:
    def test_rejects_bad_arguments(self):
        cfg = McConfig(seed=1, samples=100)
        with pytest.raises(ValueError):
            optimize_configuration(1, 1, cfg)
        with pytest.raises(ValueError):
            optimize_configuration(13, 1, cfg)
        with pytest.raises(ValueError):
            optimize_configuration(3, 0, cfg)

    def test_n2_finds_antipodal_pair(self):
        # optimum at n=2: two antipodal unit vectors, E max = E|eta| line
        res = optimize_configuration(2, 5, McConfig(seed=5, samples=40_000), iterations=200)
        assert res.best_gram.matrix[0, 1] == pytest.approx(-1.0, abs=0.05)
        assert abs(res.gap) < 5.0 * res.best_stderr

    def test_result_is_reproducible(self):
        cfg = McConfig(seed=5, samples=20_000)
        a = optimize_configuration(3, 2, cfg, iterations=100)
        b = optimize_configuration(3, 2, cfg, iterations=100)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_gram.matrix, b.best_gram.matrix)

    def test_never_beats_regular_significantly(self):
        res = optimize_configuration(3, 5, McConfig(seed=6, samples=50_000), iterations=200)
        assert res.gap <= 5.0 * res.best_stderr

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_matches_the_add_at_step_bit_for_bit(self, n, threads):
        # 20_001 samples leave a partial last chunk; three restarts on two
        # threads leave one restart queued behind the others
        cfg = McConfig(seed=17, samples=20_001)
        res = optimize_configuration(n, 3, cfg, iterations=50, threads=threads)
        value, stderr, gram = _add_at_search(n, 3, cfg, iterations=50)
        assert res.best_value == value
        assert res.best_stderr == stderr
        assert np.array_equal(res.best_gram.matrix, gram)


def _add_at_search(n, restarts, cfg, iterations):
    """Reference optimizer: the draws as (samples, n) rows, argmax(axis=1)
    winners and an np.add.at gradient.  Returns (best_value, best_stderr,
    best Gram matrix)."""
    z = np.concatenate([chunk_rng(cfg.seed, i).standard_normal((c, n)) for i, c in cfg.chunks()])

    def project(points):
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return points / norms

    best_mean, best_points = -math.inf, None
    init_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    for _ in range(restarts):
        points = project(init_rng.standard_normal((n, n)))
        for it in range(1, iterations + 1):
            winners = (z @ points.T).argmax(axis=1)
            grad = np.zeros_like(points)
            np.add.at(grad, winners, z)
            grad /= z.shape[0]
            points = project(points + (0.5 / math.sqrt(it)) * grad)
        mean = (z @ points.T).max(axis=1).mean()
        if mean > best_mean:
            best_mean, best_points = mean, points
    maxima = (z @ best_points.T).max(axis=1)
    stderr = float(maxima.std(ddof=1) / math.sqrt(z.shape[0]))
    gram = np.clip(best_points @ best_points.T, -1.0, 1.0)
    np.fill_diagonal(gram, 1.0)
    root_2pi = math.sqrt(2.0 * math.pi)
    return root_2pi * float(best_mean), root_2pi * stderr, 0.5 * (gram + gram.T)


class TestFirstArgmax:
    @pytest.mark.parametrize("scores", [
        np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 2.0, 3.0]]),  # duplicated rows
        np.full((5, 4), 0.25),  # every column all-equal
        np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]]),  # signed zeros compare equal
        np.array([[-1.0, 5.0], [-0.0, 5.0], [0.0, 7.0], [-0.0, 7.0]]),
        np.array([[0.5, -2.0, 9.0]]),  # a single row
    ])
    def test_ties_go_to_the_lowest_row(self, scores):
        winners = _first_argmax(scores)
        assert winners.dtype == np.intp
        assert np.array_equal(winners, scores.argmax(axis=0))

    @pytest.mark.parametrize("rows", [2, 3, 12, 300])
    def test_matches_argmax_on_rounded_draws(self, rows):
        # rounding to a coarse grid makes ties common
        scores = np.round(np.random.default_rng(rows).standard_normal((rows, 5_000)), 1)
        assert np.array_equal(_first_argmax(scores), scores.argmax(axis=0))
