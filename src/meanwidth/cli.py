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
from .extremes import NumericalError, comparison_reports
from .limits import ks_statistic, standardized_sample
from .polytopes import (
    PolytopeKind,
    RegularPolytope,
    family_width_moments,
    v1_from_mean_width,
)
from .sampling import McConfig, estimate_moments

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FINDING = 3
EXIT_NUMERICAL = 4

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
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def make_manifest(args: argparse.Namespace) -> dict:
    # threads is an execution detail: results are bit-identical regardless,
    # so it must not show up in the reproducibility manifest; command is its own key
    skip = {"command", "func", "format", "out", "threads"}
    if args.command == "moments" and args.route != "mc":
        # the closed form and the quadrature read neither samples nor seed
        skip |= {"samples", "seed"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    return {
        "command": args.command,
        "parameters": {k: str(v) for k, v in params.items()},
        "seed": params.get("seed"),
        "tool_version": __version__,
        # wall-clock timestamps are opt-in so seeded runs stay byte-identical
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if os.environ.get("MEANWIDTH_TIMESTAMP") == "1"
        else None,
    }


def cmd_moments(args) -> tuple[list[dict], int]:
    family = PolytopeKind(args.family)
    if args.route == "mc" and args.seed is None:
        raise ValueError("--route mc requires an explicit --seed")
    if args.route == "closed" and family is not PolytopeKind.CUBE:
        raise ValueError("--route closed is only available for the cube")
    ps = [RegularPolytope(family, n) for n in args.n]
    if args.route == "mc":
        route, cfg = "monte_carlo", McConfig(seed=args.seed, samples=args.samples)
        each = [estimate_moments(p, tuple(args.k), cfg, threads=args.threads) for p in ps]
    else:
        # the cube's closed form on either route; every n of a quadrature in one batch
        route = "closed_form" if family is PolytopeKind.CUBE else "quadrature"
        each = family_width_moments(family, args.n, args.k)
    return [_moment_row(p, k, route, ests[k]) for p, ests in zip(ps, each) for k in args.k], EXIT_OK


def _moment_row(p: RegularPolytope, k: int, route: str, est) -> dict:
    v1 = v1_from_mean_width(p.ambient_dim, est.value) if k == 1 else math.nan
    return {
        "family": p.kind.value,
        "n": p.n,
        "k": k,
        "value": est.value,
        "route": route,
        "error": est.error,
        "v1": v1,
    }


def cmd_extremes(args) -> tuple[list[dict], int]:
    # the report's fields in order are the columns; slack is internal
    return [{k: v for k, v in vars(rep).items() if k != "slack"} for rep in comparison_reports(args.n)], EXIT_OK


def cmd_limits(args) -> tuple[list[dict], int]:
    family = PolytopeKind(args.family)
    p = RegularPolytope(family, args.n)
    law, std = standardized_sample(p, McConfig(seed=args.seed, samples=args.samples), args.threads)
    ks = ks_statistic(std, law)
    row = {
        "family": family.value,
        "n": args.n,
        "samples": args.samples,
        "law": law.value,
        "mean": float(std.mean()),
        "variance": float(std.var(ddof=1)),
        "ks_distance": ks,
    }
    return [row], EXIT_OK


def cmd_search(args) -> tuple[list[dict], int]:
    cfg = McConfig(seed=args.seed, samples=args.samples)
    result = optimize_configuration(args.n, args.restarts, cfg, threads=args.threads)
    fingerprint = gram_fingerprint_distance(result.best_gram, regular_simplex_gram(args.n))
    row = {
        "n": args.n,
        "restarts": args.restarts,
        "best_value": result.best_value,
        "best_stderr": result.best_stderr,
        "regular_value": result.regular_value,
        "gap": result.gap,
        "fingerprint_distance": fingerprint,
    }
    if result.gap > 5.0 * result.best_stderr:
        # a search value above the regular simplex would contradict the
        # conjecture: surface it through the exit code
        return [row], EXIT_FINDING
    return [row], EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give parser p the arguments and defaults of the command name: the one
    definition behind both the full parser's subcommand and main's parser of
    the named command alone."""
    if name == "moments":
        p.add_argument("--family", choices=[k.value for k in PolytopeKind], required=True)
        p.add_argument("--n", type=_int_list, required=True)
        p.add_argument("--k", type=_int_list, required=True)
        p.add_argument("--route", choices=["closed", "quadrature", "mc"], required=True)
        p.add_argument("--samples", type=_positive_int, default=1_000_000)
        p.add_argument("--seed", type=int, default=None)
    elif name == "extremes":
        p.add_argument("--n", type=_int_list, required=True)
    elif name == "limits":
        p.add_argument("--family", choices=[k.value for k in PolytopeKind], required=True)
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--samples", type=_positive_int, required=True)
        p.add_argument("--seed", type=int, required=True)
    else:
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--restarts", type=_positive_int, required=True)
        p.add_argument("--samples", type=_positive_int, default=100_000)
        p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker threads for moments --route mc, limits and search (default: the CPU count)")
    p.set_defaults(command=name, func=globals()[f"cmd_{name}"])  # looked up per parser, not at import
    return p


# each command's help line in the full parser's list
_COMMANDS = {
    "moments": "width moments E[W^k] per family and route",
    "extremes": "expected-maxima comparison table",
    "limits": "standardized width sample vs its limit law",
    "search": "optimize a sphere configuration against the regular simplex",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meanwidth", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the named command's parser alone costs a third of the full one, which takes
    # anything else: help, version, an unknown name, and arguments left unrecognized
    args, rest = None, None
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"meanwidth {argv[0]}")
        args, rest = _add_command(parser, argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        rows, code = args.func(args)
        emit(make_manifest(args), rows, args.format, args.out)
        return code
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
