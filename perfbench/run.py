"""The meanwidth benchmark: time to solution per CLI op, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload quad-moments --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

--trace 0 prints the end-to-end metrics of the workload, --trace 1 the
per-layer table of a traced run; --workload all runs every workload in turn.
Each op's output is checked, and the run's record (machine, every op's argv,
exit code, output sha256 and wall time) goes to perfbench/out/.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.

The measured process is a child interpreter (child.py) with PYTHONPATH=src,
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1; the CLI commands pass
--threads 2, so at most two compute threads run at once.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import summary
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    ".calls": "count", ".evals": "count", ".points": "count", ".limit_hits": "count",
    "_frac": "ratio", ".thread_util": "ratio", ".scaling_eff": "ratio",
    "ns_per_normal": "ns", ".step_us": "us", "_bytes": "bytes", ".bytes": "bytes",
    ".normals": "count", "_per_op": "count",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


class BenchError(RuntimeError):
    """The run could not be completed; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _run(cmd: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd[:3]))
    try:
        # subprocess.run kills the child on timeout and waits for it
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[:3])}") from exc


_PROBE = "import time; import meanwidth.cli; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"


def setup_times(deadline: float) -> list[tuple[float, list[float]]]:
    """Fresh interpreter start to meanwidth.cli imported, SETUP_REPEATS times,
    each with the host-speed kernel medians before and after it.

    A first untimed start writes the bytecode cache and warms the file cache.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = _run([sys.executable, "-c", _PROBE], deadline, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"import meanwidth.cli failed: {proc.stderr.strip()[-500:]}")
        elapsed = float(proc.stdout.strip()) - start
        after = hostspeed.median_kernel_s()
        if i:
            times.append((elapsed, [before, after]))
        before = after
    return times


def import_times(deadline: float) -> dict[str, float]:
    """Self import time summed per top-level package, from python -X importtime."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import meanwidth.cli"], deadline,
                capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"import meanwidth.cli failed: {proc.stderr.strip()[-500:]}")
    totals = {"numpy": 0.0, "scipy": 0.0, "meanwidth": 0.0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            if top in totals:
                totals[top] += int(m.group(1)) / 1e6
    return {f"setup.{k}_s": v for k, v in totals.items()}


def run_child(workload: str, seed: int, seconds: float, trace: int, deadline: float, spans_out: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the measured process")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    last = ""
    try:
        # the child asks for each host-speed kernel time with a line
        # "kernel" and waits for the answer on its stdin
        while line := proc.stdout.readline():
            if line == "kernel\n":
                try:
                    proc.stdin.write(f"{hostspeed.median_kernel_s()!r}\n")
                    proc.stdin.flush()
                except BrokenPipeError:  # the child has ended; its exit code tells why
                    break
            else:
                last = line
    finally:
        watchdog.cancel()
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError("timed out: measured process")
    if proc.returncode != 0 or not last.strip():
        raise BenchError(f"measured process exited with {proc.returncode}")
    return json.loads(last)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: returns (contract result, full record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    setup = setup_times(deadline)
    child = run_child(workload, seed, seconds, trace, deadline, stem + ".spans.jsonl" if trace else None)
    ops = child["ops"]
    if not ops:
        raise BenchError("no op completed in the measured time")
    every_op = [child["warmup"]] + ops + child.get("traced_ops", [])
    attempted = len(every_op)
    failed = sum(op["failed"] for op in every_op)
    walls = [hostspeed.adjusted(op["wall_s"], *op["kernel_s"]) for op in ops]
    p50 = statistics.median(walls)
    tail = summary.tail_percentile(walls)
    e2e = {
        "setup_s": statistics.median(hostspeed.adjusted(t, *k) for t, k in setup),
        "solve_s_p50": p50,
        "cpu_s_per_op": statistics.median(hostspeed.adjusted(op["cpu_s"], *op["kernel_s"]) for op in ops),
        "peak_rss_mb": child["maxrss_kb"] / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "solve_s_p50": statistics.median(op["wall_s"] for op in ops),
        "cpu_s_per_op": statistics.median(op["cpu_s"] for op in ops),
        "kernel_s": statistics.median(k for op in ops for k in op["kernel_s"]),
    }
    correct = failed == 0
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": child["machine"], "setup_runs_s": setup, "end_to_end": e2e, "raw": raw,
        "fail_frac": summary.fail_frac(attempted, failed), "attempted": attempted, "failed": failed,
        "ops_measured": len(ops),
        "solve_s_tail": None if tail is None else {"value": tail[0], "percentile": tail[1], "beyond": tail[2]},
        "problems": [c["problem"] for op in every_op for c in op["commands"] if c["problem"]],
        "ops": every_op,
    }
    if trace:
        layers = dict(child["layers"])
        layers.update(import_times(deadline))
        warmup = child["warmup"]
        layers["setup.first_op_s"] = hostspeed.adjusted(warmup["wall_s"], *warmup["kernel_s"]) - p50
        layers["proc.minflt_per_op"] = statistics.mean(op["minflt"] for op in ops)
        layers["cli.emit.bytes"] = statistics.mean(sum(c["bytes"] for c in op["commands"]) for op in ops)
        scaling = child["scaling"]
        em_1, em_2 = scaling["estimate_moments_s"]
        layers["sampling.scaling_eff"] = em_1 / (wl.THREADS * em_2) if em_2 else 0.0
        layers["trace.overhead_s"] = child["overhead_s"]
        record.update(layers=layers, scaling=scaling, spans=child["spans"])
        if not scaling["identical"]:
            record["problems"].append("output bytes differ between --threads 1 and --threads 2")
        correct = correct and scaling["identical"] and not scaling["failed"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def print_table(result: dict, record: dict) -> None:
    m = record["machine"]
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  trace={record['trace']}")
    print(f"   machine: {m['nproc']} cpus, {m['cpu_model']}, L3 {m['l3']}; Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']} "
          f"(OPENBLAS_NUM_THREADS={m['OPENBLAS_NUM_THREADS']}, OMP_NUM_THREADS={m['OMP_NUM_THREADS']}); "
          f"--threads {m['cli_threads']}")
    print(f"   mc chunk bytes (computed, per thread): {m['mc_chunk_bytes']}")
    tail = record["solve_s_tail"]
    tail_text = ("n/a: needs more than 10 ops" if tail is None
                 else f"{tail['value']:.4f} s (p{tail['percentile']:.0f}, {tail['beyond']} ops beyond)")
    print(f"   ops measured {record['ops_measured']}, attempted {record['attempted']}, failed {record['failed']}, "
          f"fail_frac {record['fail_frac']:.4f}, solve_s_tail {tail_text}")
    raw = record["raw"]
    print(f"   raw (not speed-adjusted): setup_s {raw['setup_s']:.4f} s, solve_s_p50 {raw['solve_s_p50']:.4f} s, "
          f"cpu_s_per_op {raw['cpu_s_per_op']:.4f} s; host-speed kernel {raw['kernel_s'] * 1e3:.1f} ms "
          f"(reference {hostspeed.REFERENCE_S * 1e3:.0f} ms)")
    for problem in record["problems"][:10]:
        print(f"   FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"   {name:45s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "meanwidth", "cli.py")):
        print(f"error: no meanwidth sources under {SRC}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(result, record)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
