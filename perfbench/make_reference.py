"""Tabulate the oracle values the benchmark checks quadrature, closed-form and
MC rows against, over every n the workloads can draw.

Run from the repository root on the version whose values should become the
reference (it was run on meanwidth 0.1.0 as first imported):

    python3 perfbench/make_reference.py

It writes perfbench/reference.json: for each family, n -> [[value, error]
for k = 1, 2, ...].  The simplex-t table takes about seven minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import meanwidth  # noqa: E402
from meanwidth.polytopes import PolytopeKind, RegularPolytope, width_moment, width_moment_cube  # noqa: E402

import workloads as wl  # noqa: E402


def _rows(family: str, n: int, ks) -> list[list[float]]:
    if family == "cube":
        ests = [width_moment_cube(n, k) for k in ks]
    else:
        ests = [width_moment(RegularPolytope(PolytopeKind(family), n), k) for k in ks]
    return [[e.value, e.error] for e in ests]


def main() -> int:
    tasks = [("cube", n, wl.CUBE_K) for n in range(wl.CUBE_N[0], wl.CUBE_N[1] + 1)]
    tasks += [("cross", n, wl.CROSS_K) for n in range(wl.CROSS_N[0], wl.CROSS_N[1] + 1)]
    tasks += [("simplex-t", n, wl.SIMPLEX_T_K) for n in range(wl.SIMPLEX_T_N[0], wl.SIMPLEX_T_N[1] + 1)]
    # oracles for the MC shapes outside the tabulated ranges
    tasks += [(fam, n, wl.MC_K) for fam, n, _ in wl.MC_SHAPES if fam == "simplex-t"]
    table: dict = {"cube": {}, "cross": {}, "simplex-t": {}}
    for family, n, ks in tasks:
        table[family][str(n)] = _rows(family, n, ks)
    ref = {"library_version": meanwidth.__version__, "moments": table}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
