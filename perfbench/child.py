"""The measured process of one benchmark run.

run.py starts it in a fresh interpreter with PYTHONPATH pointing at the
checkout's src and BLAS/OpenMP pinned to one thread.  It imports meanwidth,
runs a warm-up op, then calls meanwidth.cli.main(argv) in-process op after op
(a closed loop: each op starts when the previous one returns) until the time
is up, and prints one JSON object with every op's record as its last line.
Before and after each timed op it asks run.py for a host-speed kernel time
(see hostspeed.py) and waits, idle, for the answer.

With --trace 1 each op index runs three times with the same argv: untraced,
in the timing pass and in the counting pass (see spans.py).  The timing pass
minus the untraced run is the tracing overhead of the per-layer times.
Afterwards the first op's inputs run in the timing pass at --threads 1 and 2
(scaling and byte identity), and the draw floor is timed on the traced
width_samples shapes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np
import scipy

import spans
import summary
import workloads as wl


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def run_op(cli, workload: str, seed: int, index: int, ref: dict, threads: int = wl.THREADS) -> dict:
    """Run one op's commands in-process; outputs are checked after the clock stops."""
    argvs = wl.op_argvs(workload, seed, index, threads)
    results = []
    cpu0, flt0 = _rusage()
    t0 = perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        results.append((argv, rc, buf.getvalue(), error))
    wall = perf_counter() - t0
    cpu1, flt1 = _rusage()
    commands = []
    for argv, rc, text, error in results:
        problem = error or wl.check_output(argv, rc, text, ref)
        commands.append({
            "argv": argv, "exit": rc, "bytes": len(text.encode()),
            "sha256": hashlib.sha256(text.encode()).hexdigest(), "problem": problem,
        })
    return {
        "op": index, "threads": threads, "wall_s": wall, "cpu_s": cpu1 - cpu0, "minflt": flt1 - flt0,
        "failed": any(c["problem"] for c in commands), "commands": commands,
    }


def host_kernel_s() -> float:
    """Ask run.py to time the host-speed kernel; this process waits idle."""
    sys.stdout.write("kernel\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        raise RuntimeError("no host-speed kernel time from run.py")
    return float(line)


def timed_op(*args) -> dict:
    """run_op bracketed by host-speed kernel times."""
    before = host_kernel_s()
    record = run_op(*args)
    record["kernel_s"] = [before, host_kernel_s()]
    return record


def machine() -> dict:
    from meanwidth.sampling import McConfig

    cpu_model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    l3 = "unknown"
    with contextlib.suppress(OSError), open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
        l3 = fh.read().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    chunk = McConfig(seed=0, samples=1).chunk_size
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "l3": l3,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cli_threads": wl.THREADS,
        # computed working set per thread: one chunk of normals, chunk x n doubles
        "mc_chunk_bytes": {
            f"{fam} n={n}": 8 * n * min(samples, chunk) for fam, n, samples in wl.MC_SHAPES
        },
    }


def draw_floor_ns(shapes: dict) -> float:
    """Single-thread standard_normal ns per normal, weighted like the traced draws."""
    rng = np.random.default_rng(0)
    total_ns = total_normals = 0.0
    for (count, n), occurrences in shapes.items():
        t0 = perf_counter()
        rng.standard_normal((count, n))
        total_ns += 1e9 * (perf_counter() - t0) * occurrences
        total_normals += count * n * occurrences
    return total_ns / total_normals if total_normals else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    from meanwidth import cli

    ref = wl.load_reference()
    out = {"machine": machine()}
    out["warmup"] = timed_op(cli, args.workload, args.seed, 0, ref)
    ops, traced = [], []
    timing, counting = (spans.Tracer(), spans.Tracer()) if args.trace else (None, None)

    def traced_op(tracer, index, op_id=None, threads=wl.THREADS):
        tracer.op = index if op_id is None else op_id
        restore = spans.install(tracer, counting=tracer is counting)
        try:
            return run_op(cli, args.workload, args.seed, index, ref, threads)
        finally:
            restore()

    deadline = perf_counter() + args.seconds
    index = 1
    while perf_counter() < deadline:
        ops.append(timed_op(cli, args.workload, args.seed, index, ref))
        if args.trace:
            traced.append(traced_op(timing, index))
            traced.append(traced_op(counting, index))
        index += 1
    out["ops"] = ops
    if args.trace:
        out["traced_ops"] = traced
        out["overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for t, u in zip(traced[::2], ops))
        # the first op again at --threads 1 and 2, traced apart from the
        # measured ops: output bytes must match, and the estimate_moments
        # wall times give the sampling layer's scaling efficiency
        scale_tracer = spans.Tracer()
        pair = [traced_op(scale_tracer, 1, op_id=threads, threads=threads) for threads in (1, 2)]
        em = [summary.SpanIndex(scale_tracer.spans, {t}).wall("sampling.estimate_moments") for t in (1, 2)]
        out["scaling"] = {
            "op_wall_s": [op["wall_s"] for op in pair], "estimate_moments_s": em,
            "identical": [c["sha256"] for c in pair[0]["commands"]] == [c["sha256"] for c in pair[1]["commands"]],
            "failed": pair[0]["failed"] or pair[1]["failed"],
        }
        shapes = Counter((s["count"], s["n"]) for s in timing.spans if s["name"] == "sampling.width_samples")
        counters = {**timing.counters(), **counting.counters()}
        out["layers"] = summary.layer_metrics(timing.spans, counters, {op["op"] for op in ops})
        out["layers"]["sampling.draw_floor_ns_per_normal"] = draw_floor_ns(shapes)
        out["spans"] = len(timing.spans)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for s in timing.spans:
                    fh.write(json.dumps(s) + "\n")
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
