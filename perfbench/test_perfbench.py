"""Tests of the benchmark's own arithmetic and bookkeeping (no meanwidth run).

    python3 -m pytest -q perfbench
"""

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import summary  # noqa: E402
import workloads as wl  # noqa: E402


class TestTailPercentile:
    def test_hundred_values_give_p90(self):
        values = [float(v) for v in range(1, 101)]
        assert summary.tail_percentile(values) == (90.0, 90.0, 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1, 41)]
        assert summary.tail_percentile(values[::-1]) == (30.0, 75.0, 10)

    def test_eleven_values_leave_ten_beyond_the_smallest(self):
        assert summary.tail_percentile([5.0] + [9.0] * 10) == (5.0, 100.0 / 11, 10)

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_too_few_values(self, n):
        assert summary.tail_percentile([1.0] * n) is None


class TestSelfTime:
    def test_no_children(self):
        assert summary.self_time(0.0, 2.0, []) == 2.0

    def test_overlapping_children_from_two_threads_count_once(self):
        # two workers busy over [1, 4] and [2, 6]: covered 1..6
        assert summary.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0)]) == pytest.approx(5.0)

    def test_nested_and_disjoint_children(self):
        children = [(1.0, 2.0), (1.2, 1.5), (3.0, 4.0)]
        assert summary.self_time(0.0, 5.0, children) == pytest.approx(3.0)

    def test_children_are_clipped_to_the_span(self):
        assert summary.self_time(1.0, 3.0, [(0.0, 2.0), (2.5, 9.0)]) == pytest.approx(0.5)

    def test_union_length(self):
        assert summary.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)


class TestFailFrac:
    def test_counts(self):
        assert summary.fail_frac(8, 0) == 0.0
        assert summary.fail_frac(8, 2) == 0.25

    @pytest.mark.parametrize("attempted,failed", [(0, 0), (3, 4), (3, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            summary.fail_frac(attempted, failed)

    def test_search_exit_3_is_a_failure(self):
        argv = wl.op_argvs("search", 1, 1)[0]
        assert wl.check_output(argv, 3, "", {}) == "exit code 3"

    def test_extremes_row_with_a_false_flag_fails(self):
        argv = ["extremes", "--n", "1,10"]
        header = "n,a_n,b_2n,ratio,slepian_ok,upper_ok,gap_normalized\n"
        good = header + "1,1,1,1,true,true,\n10,2,2,1,true,true,1\n"
        bad = header + "1,1,1,1,true,true,\n10,2,2,1,true,false,1\n"
        assert wl.check_output(argv, 0, good, {}) is None
        assert "n=['10']" in wl.check_output(argv, 0, bad, {})

    def test_moment_row_outside_its_error_fails(self):
        argv = ["moments", "--family", "cross", "--n", "10", "--k", "1", "--route", "quadrature"]
        ref = {"moments": {"cross": {"10": [[1.0, 1e-12]]}}}
        header = "# command = \"moments\"\nfamily,n,k,value,route,error,v1\n"
        assert wl.check_output(argv, 0, header + "cross,10,1,1.0000000000005,quadrature,1e-12,\n", ref) is None
        assert wl.check_output(argv, 0, header + "cross,10,1,1.00001,quadrature,1e-12,\n", ref) is not None


class TestInputs:
    @pytest.mark.parametrize("workload", wl.WORKLOADS)
    def test_same_seed_same_argv_and_fresh_per_op(self, workload):
        assert wl.op_argvs(workload, 7, 3) == wl.op_argvs(workload, 7, 3)
        assert wl.op_argvs(workload, 7, 3) != wl.op_argvs(workload, 7, 4)

    def test_strata_stay_in_range(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(200):
            ns = wl.strata(rng, 3, 400, 3)
            assert len(ns) == 3 and 3 <= ns[0] < ns[1] < ns[2] <= 400
            logs = wl.log_strata(rng, 1, 100_000, 6)
            assert logs == sorted(logs) and 1 <= logs[0] and logs[-1] <= 100_000


class TestTracer:
    def test_worker_spans_take_the_blocked_main_span_as_parent(self):
        tracer = spans.Tracer()
        tracer.op = 4

        def leaf(x):
            time.sleep(0.01)
            return x

        traced_leaf = tracer.span_wrapper("t.leaf", leaf)

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return sum(pool.map(traced_leaf, range(4)))

        assert tracer.span_wrapper("t.outer", outer)() == 6
        (root,) = [s for s in tracer.spans if s["name"] == "t.outer"]
        leaves = [s for s in tracer.spans if s["name"] == "t.leaf"]
        assert len(leaves) == 4
        assert all(s["parent"] == root["id"] and s["op"] == 4 for s in leaves)
        idx = summary.SpanIndex(tracer.spans, {4})
        covered = summary.union_length([(s["t0"], s["t1"]) for s in leaves])
        assert idx.self_s("t.outer") == pytest.approx(root["t1"] - root["t0"] - covered)
        assert idx.busy("t.leaf") > covered  # two threads overlapped

    def test_recursion_is_counted_once_in_wall_time(self):
        tracer = spans.Tracer()

        def fact(n):
            return 1 if n <= 1 else n * traced(n - 1)

        traced = tracer.span_wrapper("t.fact", fact)
        assert traced(5) == 120
        idx = summary.SpanIndex(tracer.spans, {0})
        (top,) = [s for s in tracer.spans if s["parent"] == 0]
        assert idx.calls("t.fact") == 5
        assert idx.wall("t.fact") == pytest.approx(top["t1"] - top["t0"])

    def test_quad_timer_counts_and_keeps_the_plain_result(self):
        from scipy import integrate

        tracer = spans.Tracer()
        quad = tracer.quad_timer(integrate.quad)
        value, err = quad(lambda x: x * x, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0)
        counts = tracer.counters()
        assert counts["quad.calls"] == 1 and counts["quad.converged"] == 1
        assert counts["quad.limit_hits"] == 0 and counts["quad.s"] > 0
        assert "quad.evals" not in counts  # counted in the counting pass only

    def test_quad_timer_counts_a_limit_hit(self):
        from scipy import integrate

        tracer = spans.Tracer()
        quad = tracer.quad_timer(integrate.quad)
        with pytest.warns(integrate.IntegrationWarning):
            quad(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, limit=3)
        counts = tracer.counters()
        assert counts["quad.converged"] == 0 and counts["quad.limit_hits"] == 1

    def test_quad_eval_counter_counts_nested_integrands(self):
        from scipy import integrate

        tracer = spans.Tracer()
        quad = tracer.quad_eval_counter(integrate.quad)
        value, err = quad(lambda x: quad(lambda y: x * y, 0.0, 1.0)[0], 0.0, 1.0)
        assert value == pytest.approx(0.25)
        # one 21-point Gauss-Kronrod rule outside, and one inside per outer point
        assert tracer.counters() == {"quad.evals": 21 + 21 * 21}
