import contextlib
import dataclasses
import io
import math
import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meanwidth
from meanwidth import cli, sampling
from meanwidth.extremes import IndefiniteMatrixError, NumericalError, expected_max
from meanwidth.polytopes import PolytopeKind, RegularPolytope
from meanwidth.sampling import (
    McConfig,
    chunk_rng,
    estimate_moments,
    sample_correlated_max,
    symmetric_sqrt,
    width_samples,
)


class TestMcConfig:
    def test_chunk_plan_covers_samples(self, monkeypatch):
        cfg = McConfig(seed=1, samples=20_001)
        plan = list(cfg.chunks())
        assert [c for _, c in plan] == [8_192, 8_192, 3_617]
        assert [i for i, _ in plan] == [0, 1, 2]
        # the tests set the chunk size on the class, to cover many chunks cheaply
        monkeypatch.setattr(McConfig, "chunk_size", 7)
        assert list(McConfig(seed=1, samples=20).chunks()) == [(0, 7), (1, 7), (2, 6)]

    def test_the_contract_is_seed_and_samples(self):
        # the chunk size is a class constant, not a field
        assert [f.name for f in dataclasses.fields(McConfig)] == ["seed", "samples"]
        assert McConfig.chunk_size == McConfig(seed=1, samples=2).chunk_size == 8_192

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            McConfig(seed=1, samples=0)
        with pytest.raises(TypeError):
            McConfig(seed=1, samples=10, chunk_size=8)

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("samples", 2.5), ("samples", np.float64(3)), ("samples", True),
    ])
    def test_refuses_a_seed_or_sample_count_it_cannot_use(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McConfig(**{"seed": 1, "samples": 10, field: value})

    def test_numpy_integers_become_python_ints(self):
        cfg = McConfig(seed=np.int64(3), samples=np.uint32(10))
        assert (cfg, type(cfg.seed), type(cfg.samples)) == (McConfig(seed=3, samples=10), int, int)
        # the smallest config, whose chunk size the benchmark harness reads
        assert McConfig(seed=0, samples=1).chunk_size == 8_192

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


def whole_chunk_widths(p, rng, count):
    """The one-shot reference: draw the count x n normals at once and reduce."""
    n = p.n
    g = rng.standard_normal((count, n))
    if p.kind is PolytopeKind.CUBE:
        return np.abs(g).sum(axis=1) / np.linalg.norm(g, axis=1)
    if p.kind is PolytopeKind.CROSS:
        return 2.0 * np.abs(g).max(axis=1) / np.linalg.norm(g, axis=1)
    rng_vals = g.max(axis=1) - g.min(axis=1)
    if p.kind is PolytopeKind.SIMPLEX_S:
        return rng_vals / np.linalg.norm(g, axis=1)
    centered = g - g.mean(axis=1, keepdims=True)
    return math.sqrt(n / (n - 1)) * rng_vals / np.linalg.norm(centered, axis=1)


class TestRowBlocks:
    FAMILIES = [
        (PolytopeKind.CUBE, (1, 10, 129)),
        (PolytopeKind.CROSS, (1, 10, 129)),
        (PolytopeKind.SIMPLEX_S, (2, 10, 129)),
        (PolytopeKind.SIMPLEX_T, (2, 10, 129)),
    ]

    @pytest.mark.parametrize("rows", [3, 1])
    @pytest.mark.parametrize("kind,ns", FAMILIES)
    def test_blocks_match_the_whole_chunk_bit_for_bit(self, monkeypatch, kind, ns, rows):
        for n in ns:
            # rows = 1 puts the budget below one row, which still draws a row per block
            monkeypatch.setattr(sampling, "_BLOCK_BYTES", 3 * 8 * n if rows == 3 else 8 * n - 1)
            p = RegularPolytope(kind, n)
            for count in (2, 7, 3000):
                got = width_samples(p, chunk_rng(4, count), count)
                assert np.array_equal(got, whole_chunk_widths(p, chunk_rng(4, count), count)), (n, count)


class TestGoldenValues:
    # (value, error) for k = 1, 2, as the whole-chunk kernel printed them
    GOLDEN = {
        (PolytopeKind.CUBE, 1000): (
            (25.237192858155204, 0.0014938676864065781),
            (636.9605339413691, 0.07537399647296755),
        ),
        (PolytopeKind.CROSS, 10): (
            (1.2195131724165678, 0.0012786507529321844),
            (1.519909697709254, 0.003254036147646092),
        ),
        (PolytopeKind.SIMPLEX_S, 50): (
            (0.6396278276616949, 0.0004743176800361256),
            (0.41362307817385435, 0.0006245743896749551),
        ),
        (PolytopeKind.SIMPLEX_T, 2000): (
            (0.15367415789526337, 7.30316651200901e-05),
            (0.023722413953398486, 2.2921083105122423e-05),
        ),
    }

    @pytest.mark.parametrize("kind,n", list(GOLDEN))
    def test_seeded_moments_keep_their_bits(self, kind, n, monkeypatch):
        monkeypatch.setattr(McConfig, "chunk_size", 3_000)
        cfg = McConfig(seed=8, samples=20_000)
        est = estimate_moments(RegularPolytope(kind, n), (1, 2), cfg, threads=2)
        for k, (value, error) in zip((1, 2), self.GOLDEN[(kind, n)]):
            assert (est[k].value, est[k].error) == (value, error)


def _printed_ints(script: str) -> list[int]:
    """The integers a fresh interpreter prints, one a line, running script
    against this meanwidth with one BLAS thread."""
    src = os.path.dirname(os.path.dirname(meanwidth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return [int(line) for line in proc.stdout.split()]


class TestBoundedMemory:
    def test_wide_rows_keep_peak_rss_flat(self):
        # simplex-t n = 5000: a whole 8192-row chunk is 328 MB, plus its
        # centered copy, on each of the two threads
        script = textwrap.dedent(
            """
            import resource
            from meanwidth.polytopes import PolytopeKind, RegularPolytope
            from meanwidth.sampling import McConfig, estimate_moments

            p = RegularPolytope(PolytopeKind.SIMPLEX_T, 5000)
            estimate_moments(p, (1,), McConfig(seed=1, samples=2))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            estimate_moments(p, (1, 2), McConfig(seed=1, samples=16_384), threads=2)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        before, after = _printed_ints(script)
        assert (after - before) * 1024 < 64e6, (before, after)  # ru_maxrss is in KiB on Linux

    def test_repeated_threaded_draws_do_not_grow_the_process(self):
        # each threaded map starts and joins its own workers; after three
        # warm-up rounds, 40 more threaded calls must not raise peak RSS
        script = textwrap.dedent(
            """
            import resource
            from meanwidth.limits import standardized_sample
            from meanwidth.polytopes import PolytopeKind, RegularPolytope
            from meanwidth.sampling import McConfig, estimate_moments

            cube, simplex = RegularPolytope(PolytopeKind.CUBE, 100), RegularPolytope(PolytopeKind.SIMPLEX_S, 50)
            for seed in range(23):
                if seed == 3:
                    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                estimate_moments(cube, (1, 2), McConfig(seed=seed, samples=20_000), threads=2)
                standardized_sample(simplex, McConfig(seed=seed, samples=20_000), 2)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        before, after = _printed_ints(script)
        assert (after - before) * 1024 <= 4 * 2**20, (before, after)  # ru_maxrss is in KiB on Linux

    @pytest.mark.parametrize("kind,n", [(PolytopeKind.CUBE, 1000), (PolytopeKind.SIMPLEX_T, 2000),
                                        (PolytopeKind.CROSS, 10)])
    def test_one_row_block_is_the_working_set(self, kind, n):
        # the block, the widths returned and two vectors of one double per
        # block row; numpy's ufunc buffer (getbufsize() doubles) serves the
        # broadcast centering of T_{n-1}, and 4 KiB covers the small objects
        count = 8_192
        rows = min(count, sampling._BLOCK_BYTES // (8 * n))
        bound = sampling._BLOCK_BYTES + 8 * count + 2 * 8 * rows + 8 * np.getbufsize() + 4096
        p, rng = RegularPolytope(kind, n), chunk_rng(1, 0)
        tracemalloc.start()
        try:
            width_samples(p, rng, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


class TestDeterminism:
    def test_repeat_is_bit_identical(self):
        p = RegularPolytope(PolytopeKind.SIMPLEX_T, 5)
        cfg = McConfig(seed=99, samples=50_000)
        a = estimate_moments(p, (1, 2), cfg)
        b = estimate_moments(p, (1, 2), cfg)
        for k in (1, 2):
            assert a[k].value == b[k].value
            assert a[k].error == b[k].error

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        monkeypatch.setattr(McConfig, "chunk_size", 7_000)
        p = RegularPolytope(PolytopeKind.CUBE, 4)
        cfg = McConfig(seed=123, samples=60_000)
        serial = estimate_moments(p, (2,), cfg, threads=1)[2]
        threaded = estimate_moments(p, (2,), cfg, threads=8)[2]
        assert serial.value == threaded.value
        assert serial.error == threaded.error

    def test_correlated_max_thread_invariance(self, monkeypatch):
        monkeypatch.setattr(McConfig, "chunk_size", 6_000)
        gram = np.eye(3)
        cfg = McConfig(seed=5, samples=40_000)
        assert sample_correlated_max(gram, cfg, threads=1) == sample_correlated_max(
            gram, cfg, threads=4
        )


class TestMomentOverflow:
    @pytest.mark.parametrize("n,k,samples", [
        # E[W^120] ~ 3e168 fits a double, but its second moment does not
        (1000, 120, 1000),
        # the mean overflows as well
        (1000, 250, 1000),
        # every chunk's sum of W^326 fits a double, but their total does not
        (100, 163, 200_000),
    ])
    def test_out_of_range_moment_raises(self, n, k, samples):
        p = RegularPolytope(PolytopeKind.CUBE, n)
        with pytest.raises(ValueError, match="double-precision"):
            estimate_moments(p, (1, k), McConfig(seed=1, samples=samples), threads=2)


def _in_forked_child(report):
    """(bytes, exit code) of a forked child that writes report() to a pipe, or
    is killed by an alarm after 10 s: a child that would hang fails instead."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            signal.alarm(10)
            os.write(write_end, report())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return data, os.waitstatus_to_exitcode(status)


class TestWorkerPool:
    def test_thread_count_is_required(self):
        with pytest.raises(TypeError):
            sampling._map_chunks(lambda rng, count: count, McConfig(seed=1, samples=4))

    def test_no_worker_outlives_its_call(self, monkeypatch):
        monkeypatch.setattr(McConfig, "chunk_size", 1)
        cfg = McConfig(seed=1, samples=8)
        # chunks meet in pairs, so the call runs on two workers at once
        barrier = threading.Barrier(2, timeout=10)
        seen = set()

        def fn(rng, count):
            seen.add(threading.current_thread())
            barrier.wait()
            return count

        assert sampling._map_chunks(fn, cfg, 2) == [1] * 8
        assert len(seen) == 2
        assert threading.current_thread() not in seen
        assert not any(t.is_alive() for t in seen)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_bounded_window_of_tasks_in_flight(self, monkeypatch, threads):
        # a task is in flight from its submit until _pool_map asks for its
        # result; later tasks sleep less, so they often finish first
        window = max(sampling._IN_FLIGHT, 2 * threads)
        submitted, collected, most = [0], [0], [0]
        submit = sampling.ThreadPoolExecutor.submit

        class Counted:
            def __init__(self, future):
                self.future = future

            def result(self):
                collected[0] += 1
                return self.future.result()

        def counting_submit(pool, fn, *args):
            submitted[0] += 1
            most[0] = max(most[0], submitted[0] - collected[0])
            return Counted(submit(pool, fn, *args))

        def task(i):
            time.sleep((2 - i % 3) * 1e-4)
            return i * i

        monkeypatch.setattr(sampling.ThreadPoolExecutor, "submit", counting_submit)
        tasks = 5 * window + 1
        assert sampling._pool_map(task, [(i,) for i in range(tasks)], threads) == [i * i for i in range(tasks)]
        assert (submitted[0], collected[0], most[0]) == (tasks, tasks, window)

    def test_concurrent_callers_with_different_thread_counts(self, monkeypatch):
        # callers with 2 and 3 threads map at once, each on workers of its own
        monkeypatch.setattr(McConfig, "chunk_size", 7)
        cfg = McConfig(seed=3, samples=600)
        expected = sampling._map_chunks(lambda rng, c: rng.standard_normal(c).sum(), cfg, 1)
        failures = []

        def caller(threads):
            for _ in range(20):
                try:
                    got = sampling._map_chunks(lambda rng, c: rng.standard_normal(c).sum(), cfg, threads)
                except Exception as exc:  # a thread's exception would not fail the test
                    failures.append(exc)
                    return
                if got != expected:
                    failures.append(threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(2 + i % 2,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_on_a_pool_of_its_own(self, monkeypatch):
        monkeypatch.setattr(McConfig, "chunk_size", 6_000)
        gram = np.eye(3)
        cfg = McConfig(seed=5, samples=40_000)
        parent = sample_correlated_max(gram, cfg, threads=2)  # the parent has run workers before the fork
        data, code = _in_forked_child(lambda: struct.pack("dd", *sample_correlated_max(gram, cfg, threads=2)))
        assert code == 0
        assert struct.unpack("dd", data) == parent

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_task_may_map_on_workers_of_its_own(self):
        # both outer tasks hold a worker while their inner maps run; in a
        # forked child, so a deadlock ends in the alarm, not a hung test run
        barrier = threading.Barrier(2, timeout=10)

        def outer(i):
            barrier.wait()
            return sum(sampling._pool_map(lambda j: i + j, [(j,) for j in range(4)], 2))

        data, code = _in_forked_child(lambda: struct.pack("qq", *sampling._pool_map(outer, [(0,), (1,)], 2)))
        assert code == 0
        assert struct.unpack("qq", data) == (6, 10)

    def test_an_error_cancels_the_queued_tasks(self):
        ran = []

        def task(i):
            ran.append(threading.current_thread())
            if i == 0:
                raise RuntimeError("chunk 0")
            time.sleep(0.01)
            return i

        with pytest.raises(RuntimeError, match="chunk 0"):
            sampling._pool_map(task, [(i,) for i in range(200)], 2)
        count = len(ran)
        time.sleep(0.1)
        assert len(ran) == count
        assert not any(t.is_alive() for t in ran)


def _limits_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


class TestExtremeSampleCounts:
    """Every threaded draw gives the bytes of threads = 1, for sample counts
    below one chunk, on a ragged last chunk and across several chunks."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), chunk_size=st.integers(1, 40), threads=st.sampled_from([1, 2, 3]))
    def test_threads_keep_the_bits(self, data, chunk_size, threads):
        samples = data.draw(st.integers(2, 3 * chunk_size), label="samples")
        kind = data.draw(st.sampled_from(list(PolytopeKind)), label="kind")
        cfg = McConfig(seed=21, samples=samples)

        argv = ["limits", "--family", kind.value, "--n", "5", "--samples", str(samples), "--seed", "21"]
        # patching the class reaches the configs the CLI builds as well
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(McConfig, "chunk_size", chunk_size)
            serial = _limits_stdout(argv + ["--threads", "1"])
            assert _limits_stdout(argv + ["--threads", str(threads)]) == serial

            gram = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
            assert sample_correlated_max(gram, cfg, threads) == sample_correlated_max(gram, cfg, 1)


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
        target = math.sqrt(n / (n - 1)) * expected_max(n)[0]
        assert abs(mean - target) < 4.0 * stderr

    def test_iid_gram_matches_quadrature(self):
        n = 6
        mean, stderr = sample_correlated_max(np.eye(n), McConfig(seed=12, samples=500_000))
        assert abs(mean - expected_max(n)[0]) < 4.0 * stderr
