import math

import numpy as np
import pytest

from meanwidth.extremes import IndefiniteMatrixError, NumericalError, expected_max
from meanwidth.polytopes import PolytopeKind, RegularPolytope
from meanwidth.sampling import (
    McConfig,
    chunk_rng,
    estimate_moment,
    estimate_moments,
    sample_correlated_max,
    symmetric_sqrt,
    width_samples,
)


class TestMcConfig:
    def test_chunk_plan_covers_samples(self):
        cfg = McConfig(seed=1, samples=20_001, chunk_size=8_192)
        plan = list(cfg.chunks())
        assert [c for _, c in plan] == [8_192, 8_192, 3_617]
        assert [i for i, _ in plan] == [0, 1, 2]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            McConfig(seed=1, samples=0)
        with pytest.raises(ValueError):
            McConfig(seed=1, samples=10, chunk_size=0)

    def test_one_sample_has_no_standard_error(self):
        cfg = McConfig(seed=1, samples=1)
        with pytest.raises(ValueError, match="2 samples"):
            sample_correlated_max(np.eye(3), cfg)
        with pytest.raises(ValueError, match="2 samples"):
            estimate_moments(RegularPolytope(PolytopeKind.CUBE, 3), (1,), cfg)


class TestChunkRng:
    def test_replay_is_identical(self):
        a = chunk_rng(7, 3).standard_normal(5)
        b = chunk_rng(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_and_chunks_differ(self):
        base = chunk_rng(7, 3).standard_normal(5)
        assert not np.array_equal(base, chunk_rng(7, 4).standard_normal(5))
        assert not np.array_equal(base, chunk_rng(8, 3).standard_normal(5))


class TestWidthSupports:
    CASES = [
        (PolytopeKind.CUBE, 6, 0.0, math.sqrt(6.0)),
        (PolytopeKind.CROSS, 6, 0.0, 2.0),
        (PolytopeKind.SIMPLEX_T, 6, 0.0, 2.0),
        (PolytopeKind.SIMPLEX_S, 6, 0.0, 2.0),
    ]

    @pytest.mark.parametrize("kind,n,lo,hi", CASES)
    def test_samples_inside_support(self, kind, n, lo, hi):
        w = width_samples(RegularPolytope(kind, n), np.random.default_rng(5), 20_000)
        assert w.min() > lo
        assert w.max() <= hi + 1e-12


class TestDeterminism:
    def test_repeat_is_bit_identical(self):
        p = RegularPolytope(PolytopeKind.SIMPLEX_T, 5)
        cfg = McConfig(seed=99, samples=50_000)
        a = estimate_moments(p, (1, 2), cfg)
        b = estimate_moments(p, (1, 2), cfg)
        for k in (1, 2):
            assert a[k].value == b[k].value
            assert a[k].error == b[k].error

    def test_thread_count_does_not_change_bits(self):
        p = RegularPolytope(PolytopeKind.CUBE, 4)
        cfg = McConfig(seed=123, samples=60_000, chunk_size=7_000)
        serial = estimate_moment(p, 2, cfg, threads=1)
        threaded = estimate_moment(p, 2, cfg, threads=8)
        assert serial.value == threaded.value
        assert serial.error == threaded.error

    def test_correlated_max_thread_invariance(self):
        gram = np.eye(3)
        cfg = McConfig(seed=5, samples=40_000, chunk_size=6_000)
        assert sample_correlated_max(gram, cfg, threads=1) == sample_correlated_max(
            gram, cfg, threads=4
        )


class TestCrossDegenerate:
    def test_n1_width_is_constant_two(self):
        p = RegularPolytope(PolytopeKind.CROSS, 1)
        est = estimate_moments(p, (1, 2, 3), McConfig(seed=2, samples=10_000))
        for k in (1, 2, 3):
            assert est[k].value == pytest.approx(2.0**k, rel=1e-14)
            assert est[k].error == pytest.approx(0.0, abs=1e-12)


class TestSimplexIdentity:
    def test_s_width_dominated_by_scaled_t_width(self):
        # with shared Gaussian draws, range/|g| <= range/|g - mean(g)|, i.e.
        # W_S <= sqrt((n-1)/n) W_T pointwise
        n = 6
        cfg = McConfig(seed=77, samples=100_000)
        factor = math.sqrt((n - 1) / n)
        s_p = RegularPolytope(PolytopeKind.SIMPLEX_S, n)
        t_p = RegularPolytope(PolytopeKind.SIMPLEX_T, n)
        for i, count in cfg.chunks():
            ws = width_samples(s_p, chunk_rng(cfg.seed, i), count)
            wt = width_samples(t_p, chunk_rng(cfg.seed, i), count)
            assert np.all(ws <= factor * wt + 1e-12)


class TestEmpiricalComparison:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_max_abs_dominates_max(self, n):
        # E max_{i<=n} |eta_i| >= E max_{i<=2n} eta_i, checked on shared draws
        rng = np.random.default_rng(1000 + n)
        g = rng.standard_normal((200_000, 2 * n))
        a = np.abs(g[:, :n]).max(axis=1)
        b = g.max(axis=1)
        diff = a - b
        stderr = diff.std(ddof=1) / math.sqrt(diff.size)
        assert diff.mean() > -4.0 * stderr


class TestSymmetricSqrt:
    def test_identity(self):
        assert np.allclose(symmetric_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_squares_back(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 5))
        m = a @ a.T
        r = symmetric_sqrt(m)
        assert np.allclose(r @ r, m, atol=1e-10)
        assert np.allclose(r, r.T, atol=1e-12)

    def test_rejects_indefinite(self):
        m = np.diag([1.0, -0.5])
        with pytest.raises(ValueError):
            symmetric_sqrt(m)

    def test_indefinite_is_a_numerical_error(self):
        with pytest.raises(IndefiniteMatrixError) as info:
            symmetric_sqrt(np.diag([1.0, -0.5]))
        assert isinstance(info.value, NumericalError)

    def test_accepts_boundary(self):
        # singular PSD matrix (rank 1) must pass
        m = np.full((3, 3), 1.0)
        r = symmetric_sqrt(m)
        assert np.allclose(r @ r, m, atol=1e-10)


class TestCorrelatedMax:
    def test_identity_gram_n2(self):
        mean, stderr = sample_correlated_max(np.eye(2), McConfig(seed=9, samples=500_000))
        assert abs(mean - 1.0 / math.sqrt(math.pi)) < 4.0 * stderr

    def test_perfectly_correlated_is_zero_mean(self):
        gram = np.full((4, 4), 1.0)
        mean, stderr = sample_correlated_max(gram, McConfig(seed=10, samples=200_000))
        assert abs(mean) < 4.0 * stderr

    def test_regular_simplex_value(self):
        # equality case: E max at the regular simplex Gram is
        # sqrt(n/(n-1)) E max of iid normals
        n = 4
        gram = np.full((n, n), -1.0 / (n - 1))
        np.fill_diagonal(gram, 1.0)
        mean, stderr = sample_correlated_max(gram, McConfig(seed=11, samples=500_000))
        target = math.sqrt(n / (n - 1)) * expected_max(n).value
        assert abs(mean - target) < 4.0 * stderr

    def test_iid_gram_matches_quadrature(self):
        n = 6
        mean, stderr = sample_correlated_max(np.eye(n), McConfig(seed=12, samples=500_000))
        assert abs(mean - expected_max(n).value) < 4.0 * stderr
