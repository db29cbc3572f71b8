"""The benchmark's workloads: CLI argv per op and the check of each output.

Every op gets fresh inputs derived from (workload seed, op index): new Monte
Carlo seeds and, for quad-moments, new n values drawn from fixed ranges.  A
CLI user pays every command cold, so an in-process memo keyed on repeated
inputs must not be able to pass for a speed-up.

Correctness oracles come from ``reference.json`` (values computed by the seed
version of the library, see make_reference.py), never from the program under
test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

THREADS = 2  # the CLI default is os.cpu_count(); pass it explicitly

# Fixed input ranges; make_reference.py tabulates the oracle over all of them.
EXTREMES_N = (1, 100_000)
CROSS_N, CROSS_K = (10, 2000), (1, 2, 3)
SIMPLEX_T_N, SIMPLEX_T_K = (3, 400), (1, 2, 3, 4)
CUBE_N, CUBE_K = (1, 1000), (1, 2, 3, 4)

# (family, n, samples): wide rows (65 MB chunks), the centered-copy path
# (131 MB chunks) and narrow rows (245 chunks, per-chunk overhead dominates).
MC_SHAPES = (("cube", 1000, 100_000), ("simplex-t", 2000, 50_000), ("cross", 10, 2_000_000))
MC_K = (1, 2)
MC_Z = 5.0  # an MC row passes within this many standard errors of the oracle

# (family, n, KS bound).  The KS distance at these sizes is dominated by the
# finite-n bias of the limit law (observed at the seed version: simplex-s
# 0.089-0.092, cross 0.039-0.040, cube 0.034-0.038 over five seeds); the
# sampling noise at 1e5 samples is about 0.002.
LIMITS_CASES = (("simplex-s", 50, 0.11), ("cross", 200, 0.05), ("cube", 200, 0.05))
LIMITS_SAMPLES = 100_000

SEARCH_ARGS = ("--n", "3", "--restarts", "2", "--samples", "50000")
# regular simplex value sqrt(2 pi) sqrt(n/(n-1)) E max(eta_1..eta_3) = 3 sqrt(3) / 2
SEARCH_REGULAR_VALUE = 1.5 * math.sqrt(3.0)

WORKLOADS = ("quad-moments", "mc-moments", "limits-fit", "search")

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(_REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def strata(rng: np.random.Generator, lo: int, hi: int, m: int) -> list[int]:
    """One uniform integer from each of m equal slices of [lo, hi], ascending.

    Stratifying keeps the per-op cost steady while the inputs stay fresh.
    """
    edges = np.linspace(lo, hi + 1, m + 1)
    return [int(rng.integers(math.ceil(a), max(math.ceil(b), math.ceil(a) + 1))) for a, b in zip(edges, edges[1:])]


def log_strata(rng: np.random.Generator, lo: int, hi: int, m: int) -> list[int]:
    """One log-uniform integer from each of m equal log-slices of [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), m + 1)
    out = [int(round(math.exp(rng.uniform(a, b)))) for a, b in zip(edges, edges[1:])]
    return sorted(set(min(max(v, lo), hi) for v in out))


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def _mc_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def op_argvs(workload: str, seed: int, op_index: int, threads: int = THREADS) -> list[list[str]]:
    """The CLI argv list of one op; the same (seed, op_index) gives the same argvs."""
    rng = np.random.default_rng((seed, op_index))
    t = ["--threads", str(threads)]
    if workload == "quad-moments":
        return [
            ["extremes", "--n", _csv_list(log_strata(rng, *EXTREMES_N, 6))] + t,
            ["moments", "--family", "cross", "--n", _csv_list(strata(rng, *CROSS_N, 3)),
             "--k", _csv_list(CROSS_K), "--route", "quadrature"] + t,
            ["moments", "--family", "simplex-t", "--n", _csv_list(strata(rng, *SIMPLEX_T_N, 3)),
             "--k", _csv_list(SIMPLEX_T_K), "--route", "quadrature"] + t,
            ["moments", "--family", "cube", "--n", _csv_list(strata(rng, *CUBE_N, 3)),
             "--k", _csv_list(CUBE_K), "--route", "closed"] + t,
        ]
    if workload == "mc-moments":
        return [
            ["moments", "--family", fam, "--n", str(n), "--k", _csv_list(MC_K), "--route", "mc",
             "--samples", str(samples), "--seed", _mc_seed(rng)] + t
            for fam, n, samples in MC_SHAPES
        ]
    if workload == "limits-fit":
        return [
            ["limits", "--family", fam, "--n", str(n), "--samples", str(LIMITS_SAMPLES),
             "--seed", _mc_seed(rng)] + t
            for fam, n, _ in LIMITS_CASES
        ]
    if workload == "search":
        return [["search", *SEARCH_ARGS, "--seed", _mc_seed(rng)] + t]
    raise ValueError(f"unknown workload {workload!r}")


def parse_csv(text: str) -> list[dict]:
    """Rows of a CLI CSV table (manifest lines start with '#')."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _expect_rows(rows: list[dict], keys: list[tuple]) -> str | None:
    got = [tuple(r[c] for c in ("family", "n", "k")) for r in rows]
    want = [tuple(str(v) for v in key) for key in keys]
    return None if got == want else f"rows {got} != expected {want}"


def check_output(argv: list[str], rc: int, text: str, ref: dict) -> str | None:
    """None when the command's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    rows = parse_csv(text)
    cmd = argv[0]
    if cmd == "extremes":
        if [int(r["n"]) for r in rows] != _ints(_arg(argv, "--n")):
            return "extremes rows do not match the requested n"
        bad = [r["n"] for r in rows if r["slepian_ok"] != "true" or r["upper_ok"] != "true"]
        return f"comparison inequality failed for n={bad}" if bad else None
    if cmd == "moments":
        family, route = _arg(argv, "--family"), _arg(argv, "--route")
        ns, ks = _ints(_arg(argv, "--n")), _ints(_arg(argv, "--k"))
        problem = _expect_rows(rows, [(family, n, k) for n in ns for k in ks])
        if problem:
            return problem
        table = ref["moments"][family]
        for r in rows:
            n, k = int(r["n"]), int(r["k"])
            oracle_value, oracle_error = table[str(n)][k - 1]
            value, error = float(r["value"]), float(r["error"])
            # both errors bound their own distance to the true value
            allowed = (MC_Z * error if route == "mc" else error) + oracle_error
            if not abs(value - oracle_value) <= allowed:
                return (f"{family} n={n} k={k}: {value!r} is {abs(value - oracle_value):.3g} from "
                        f"the oracle {oracle_value!r}, allowed {allowed:.3g}")
        return None
    if cmd == "limits":
        family, n = _arg(argv, "--family"), int(_arg(argv, "--n"))
        bound = {fam: b for fam, nn, b in LIMITS_CASES if nn == n}.get(family)
        if len(rows) != 1 or bound is None:
            return "unexpected limits table"
        ks = float(rows[0]["ks_distance"])
        return None if 0.0 <= ks < bound else f"KS distance {ks} not under {bound}"
    if cmd == "search":
        if len(rows) != 1:
            return "unexpected search table"
        regular = float(rows[0]["regular_value"])
        if not abs(regular - SEARCH_REGULAR_VALUE) <= 1e-9:
            return f"regular simplex value {regular} != {SEARCH_REGULAR_VALUE}"
        return None if math.isfinite(float(rows[0]["best_value"])) else "non-finite best value"
    return f"no check for command {cmd!r}"
