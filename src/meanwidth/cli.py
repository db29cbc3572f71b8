"""Command-line front end emitting reproducible CSV/JSON tables.

Exit codes: 0 success, 2 usage error, 3 conjecture-violation finding,
4 numerical failure (quadrature or factorization).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .conjecture import (
    gram_fingerprint_distance,
    optimize_configuration,
    regular_simplex_gram,
)
from .extremes import NumericalError, comparison_report
from .limits import (
    LimitLaw,
    ks_statistic,
    standardize_cross,
    standardize_cube,
    standardize_simplex,
)
from .polytopes import (
    PolytopeKind,
    RegularPolytope,
    v1_from_mean_width,
    width_moments,
)
from .sampling import McConfig, _map_chunks, estimate_moments, width_samples

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FINDING = 3
EXIT_NUMERICAL = 4

FAMILY_LAWS = {
    PolytopeKind.CUBE: LimitLaw.NORMAL_LIMIT_VAR,
    PolytopeKind.SIMPLEX_S: LimitLaw.GUMBEL_SUM,
    PolytopeKind.SIMPLEX_T: LimitLaw.GUMBEL_SUM,
    PolytopeKind.CROSS: LimitLaw.TWO_GUMBEL,
}


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".17g")
    return str(value)


def emit(manifest: dict, rows: list[dict], fmt: str, out_path: str | None) -> None:
    columns = list(rows[0])
    if fmt == "json":
        clean = [
            {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in row.items()}
            for row in rows
        ]
        payload = {"manifest": manifest, "columns": columns, "rows": clean}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {key} = {json.dumps(val, sort_keys=True)}" for key, val in sorted(manifest.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if out_path:
        out_dir = os.environ.get("MEANWIDTH_OUTPUT_DIR", "")
        if out_dir and not os.path.isabs(out_path):
            out_path = os.path.join(out_dir, out_path)
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def make_manifest(command: str, args: argparse.Namespace, seed: int | None) -> dict:
    # threads is an execution detail: results are bit-identical regardless,
    # so it must not show up in the reproducibility manifest
    skip = {"func", "format", "out", "threads"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    manifest = {
        "command": command,
        "parameters": {k: str(v) for k, v in params.items()},
        "seed": seed,
        "tool_version": __version__,
        # wall-clock timestamps are opt-in so seeded runs stay byte-identical
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if os.environ.get("MEANWIDTH_TIMESTAMP") == "1"
        else None,
    }
    return manifest


def cmd_moments(args) -> int:
    family = PolytopeKind(args.family)
    if args.route == "mc" and args.seed is None:
        print("error: --route mc requires an explicit --seed", file=sys.stderr)
        return EXIT_USAGE
    if args.route == "closed" and family is not PolytopeKind.CUBE:
        print("error: --route closed is only available for the cube", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in args.n:
        p = RegularPolytope(family, n)
        if args.route == "mc":
            cfg = McConfig(seed=args.seed, samples=args.samples)
            ests = estimate_moments(p, tuple(args.k), cfg, threads=args.threads)
        else:
            # the cube's width_moments is its closed form on either route
            ests = width_moments(p, args.k)
        rows.extend(_moment_row(p, ests[k]) for k in args.k)
    emit(make_manifest("moments", args, args.seed), rows, args.format, args.out)
    return EXIT_OK


def _moment_row(p: RegularPolytope, est) -> dict:
    v1 = v1_from_mean_width(p.ambient_dim, est.value) if est.k == 1 else math.nan
    return {
        "family": p.kind.value,
        "n": p.n,
        "k": est.k,
        "value": est.value,
        "route": est.route,
        "error": est.error,
        "v1": v1,
    }


def cmd_extremes(args) -> int:
    rows = []
    for n in args.n:
        rep = comparison_report(n)
        rows.append(
            {
                "n": rep.n,
                "a_n": rep.a_n,
                "b_2n": rep.b_2n,
                "ratio": rep.ratio,
                "slepian_ok": rep.slepian_ok,
                "upper_ok": rep.upper_ok,
                "gap_normalized": rep.gap_normalized,
            }
        )
    emit(make_manifest("extremes", args, None), rows, args.format, args.out)
    return EXIT_OK


def cmd_limits(args) -> int:
    family = PolytopeKind(args.family)
    p = RegularPolytope(family, args.n)
    cfg = McConfig(seed=args.seed, samples=args.samples)
    widths = np.concatenate(_map_chunks(lambda rng, c: width_samples(p, rng, c), cfg, args.threads))
    if family is PolytopeKind.CUBE:
        std = standardize_cube(widths, args.n)
    elif family is PolytopeKind.CROSS:
        std = standardize_cross(widths, args.n)
    else:
        std = standardize_simplex(widths, args.n)
    law = FAMILY_LAWS[family]
    std = np.sort(std)
    ks = ks_statistic(std, law)
    rows = [
        {
            "family": family.value,
            "n": args.n,
            "samples": args.samples,
            "law": law.value,
            "mean": float(std.mean()),
            "variance": float(std.var(ddof=1)),
            "ks_distance": ks,
        }
    ]
    emit(make_manifest("limits", args, args.seed), rows, args.format, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = McConfig(seed=args.seed, samples=args.samples)
    result = optimize_configuration(args.n, args.restarts, cfg)
    fingerprint = gram_fingerprint_distance(result.best_gram, regular_simplex_gram(args.n))
    rows = [
        {
            "n": args.n,
            "restarts": result.restarts_used,
            "best_value": result.best_value,
            "best_stderr": result.best_stderr,
            "regular_value": result.regular_value,
            "gap": result.gap,
            "fingerprint_distance": fingerprint,
        }
    ]
    emit(make_manifest("search", args, args.seed), rows, args.format, args.out)
    if result.gap > 5.0 * result.best_stderr:
        # a search value above the regular simplex would contradict the
        # conjecture: surface it through the exit code
        return EXIT_FINDING
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meanwidth", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)

    p = sub.add_parser("moments", help="width moments E[W^k] per family and route")
    p.add_argument("--family", choices=[k.value for k in PolytopeKind], required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--k", type=_int_list, required=True)
    p.add_argument("--route", choices=["closed", "quadrature", "mc"], required=True)
    p.add_argument("--samples", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("extremes", help="expected-maxima comparison table")
    p.add_argument("--n", type=_int_list, required=True)
    common(p)
    p.set_defaults(func=cmd_extremes)

    p = sub.add_parser("limits", help="standardized width sample vs its limit law")
    p.add_argument("--family", choices=[k.value for k in PolytopeKind], required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("search", help="optimize a sphere configuration against the regular simplex")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--restarts", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
