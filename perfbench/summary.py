"""The benchmark's arithmetic: percentiles, self time across threads, failure
fractions and the per-layer table built from spans and counters."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


TAIL_BEYOND = 10  # solve_s_tail: the highest percentile with this many ops beyond it


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least TAIL_BEYOND values above it.

    Returns (value, percentile, values above it), or None when there are too
    few values for any percentile to have TAIL_BEYOND values above it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    j = n - TAIL_BEYOND  # the j-th smallest value has n - j values after it
    return ordered[j - 1], 100.0 * j / n, n - j


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no op was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(t0: float, t1: float, children) -> float:
    """A span's duration minus the part of [t0, t1] its child spans cover.

    Children may come from several threads and overlap each other; the
    overlap is counted once.
    """
    clipped = [(max(a, t0), min(b, t1)) for a, b in children if b > t0 and a < t1]
    return (t1 - t0) - union_length(clipped)


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class SpanIndex:
    """Spans of the traced ops, grouped for the per-layer metrics.

    A span is a dict with op, id, parent, name, t0, t1 and, for some names,
    extra measured fields.
    """

    def __init__(self, spans: list[dict], ops: set[int]):
        self.spans = [s for s in spans if s["op"] in ops]
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            self.by_name[s["name"]].append(s)
            self.children[s["parent"]].append(s)
        self._by_id = by_id

    def _nested_in_same(self, span: dict) -> bool:
        parent = self._by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = self._by_id.get(parent["parent"])
        return False

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def wall(self, name: str) -> float:
        """Summed duration of the outermost spans of a name (recursion counted once)."""
        return sum(s["t1"] - s["t0"] for s in self.by_name[name] if not self._nested_in_same(s))

    def busy(self, name: str) -> float:
        """Summed duration of every span of a name, over all threads."""
        return sum(s["t1"] - s["t0"] for s in self.by_name[name])

    def field(self, name: str, key: str) -> float:
        return sum(s[key] for s in self.by_name[name])

    def max_field(self, name: str, key: str) -> float:
        return max((s[key] for s in self.by_name[name]), default=0)

    def self_s(self, name: str) -> float:
        return sum(
            self_time(s["t0"], s["t1"], [(c["t0"], c["t1"]) for c in self.children[s["id"]]])
            for s in self.by_name[name]
        )


def layer_metrics(spans: list[dict], counters: dict, ops: set[int]) -> dict[str, float]:
    """Per-op layer metrics of the traced ops (totals divided by the op count).

    `counters` holds the totals over those ops of the counters: quad calls,
    time and convergence from the timing pass, special calls and time and
    quad evaluations from the counting pass.
    """
    idx = SpanIndex(spans, ops)
    n_ops = len(ops)
    c = defaultdict(float, counters)

    def per_op(value):
        return value / n_ops

    draws = idx.by_name["sampling.width_samples"]
    normals = sum(s["n"] * s["count"] for s in draws)
    busy = idx.busy("sampling.width_samples")
    em_wall = idx.wall("sampling.estimate_moments")
    # thread utilisation: width_samples busy time inside estimate_moments over
    # the --threads budget times the estimate_moments wall time
    em = idx.by_name["sampling.estimate_moments"]
    capacity = sum(s["threads"] * (s["t1"] - s["t0"]) for s in em)
    em_busy = sum(
        ch["t1"] - ch["t0"] for s in em for ch in idx.children[s["id"]] if ch["name"] == "sampling.width_samples"
    )
    steps = idx.field("conjecture.optimize_configuration", "steps")
    opt_self = idx.self_s("conjecture.optimize_configuration")
    m = {
        "special.normal_tail.calls": per_op(c["special.normal_tail.calls"]),
        "special.normal_tail.s": per_op(c["special.normal_tail.s"]),
        "quad.calls": per_op(c["quad.calls"]),
        "quad.evals": per_op(c["quad.evals"]),
        "quad.s": per_op(c["quad.s"]),
        "quad.limit_hits": per_op(c["quad.limit_hits"]),
        "quad.converged_frac": c["quad.converged"] / c["quad.calls"] if c["quad.calls"] else 1.0,
    }
    for fn in ("expected_max_abs", "expected_max_gap", "expected_max"):
        m[f"extremes.{fn}.s"] = per_op(idx.wall(f"extremes.{fn}"))
    m["extremes.solve_t_n.calls"] = per_op(idx.calls("extremes.solve_t_n"))
    m["extremes.solve_t_n.s"] = per_op(idx.wall("extremes.solve_t_n"))
    for fn in ("width_moment", "max_abs_moment", "range_moment"):
        m[f"polytopes.{fn}.s"] = per_op(idx.wall(f"polytopes.{fn}"))
    m["polytopes.range_cdf.calls"] = per_op(idx.calls("polytopes.range_cdf"))
    m["polytopes.range_cdf.s"] = per_op(idx.wall("polytopes.range_cdf"))
    m.update({
        "sampling.estimate_moments.s": per_op(em_wall),
        "sampling.estimate_moments.self_s": per_op(idx.self_s("sampling.estimate_moments")),
        "sampling.width_samples.calls": per_op(idx.calls("sampling.width_samples")),
        "sampling.width_samples.busy_s": per_op(busy),
        "sampling.normals": per_op(normals),
        "sampling.width_samples.ns_per_normal": 1e9 * busy / normals if normals else 0.0,
        "sampling.thread_util": em_busy / capacity if capacity else 0.0,
        "sampling.chunk_rng.calls": per_op(idx.calls("sampling.chunk_rng")),
        "sampling.chunk_rng.s": per_op(idx.busy("sampling.chunk_rng")),
        "sampling.peak_block_bytes": max((8 * s["n"] * s["count"] for s in draws), default=0),
        "limits.limit_cdf.s": per_op(idx.wall("limits.limit_cdf")),
        "limits.limit_cdf.points": per_op(idx.field("limits.limit_cdf", "points")),
        "limits.ks_statistic.s": per_op(idx.wall("limits.ks_statistic")),
        "limits.standardize.s": per_op(sum(
            idx.wall(f"limits.standardize_{fam}") for fam in ("cube", "simplex", "cross"))),
        "conjecture.optimize_configuration.s": per_op(idx.wall("conjecture.optimize_configuration")),
        "conjecture.optimize_configuration.self_s": per_op(opt_self),
        "conjecture.step_us": 1e6 * opt_self / steps if steps else 0.0,
        "conjecture.crn_bytes": idx.max_field("conjecture.optimize_configuration", "crn_bytes"),
        "cli.main.self_s": per_op(idx.self_s("cli.main")),
        "cli.emit.s": per_op(idx.wall("cli.emit")),
    })
    return m
