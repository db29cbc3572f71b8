"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 perfbench/repeat.py --workload search --seeds 1-10 [--out FILE]

Each run measures run_seconds of BENCHMARK.json with --trace 0.  For each
end-to-end metric it prints the median, the quartile spread (q3 - q1 over the
median, as statistics.quantiles(values, n=4) gives the quartiles) and the
bound from BENCHMARK.json; --out writes the per-run values and the summary as
JSON, which is how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = []
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if k in bounds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        row = {"median": median, "unit": runs[0]["metrics"][name]["unit"], "values": values}
        if len(values) >= 2 and median:
            row["spread"] = summary.spread(values)
        table[name] = row
        if name in bounds:
            print(f"{name:24s} median {median:10.5g} {row['unit']:3s} spread {row.get('spread', 0):.4f} "
                  f"bound {bounds[name]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": 0,
                       "all_correct": all(r["correct"] for r in runs), "metrics": table}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
