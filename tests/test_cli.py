import argparse
import errno
import json
import math
import os
import re
import threading

import mpmath
import numpy as np
import pytest

from meanwidth import __version__, cli, conjecture, extremes, limits
from meanwidth.cli import EXIT_FINDING, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from meanwidth.conjecture import SearchResult, regular_simplex_gram
from meanwidth.extremes import IndefiniteMatrixError, NumericalError, QuadratureError, max_abs_moments
from meanwidth.polytopes import PolytopeKind, RegularPolytope, width_moment, width_moment_cube
from meanwidth.sampling import width_samples


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


CUBE_ARGV = ["moments", "--family", "cube", "--n", "4", "--k", "1", "--route", "closed"]
PARSER_CASES = [
    ["--help"], ["-h"], [], ["--version"], *[[name, "--help"] for name in ("moments", "extremes", "limits", "search")],
    ["bogus"], CUBE_ARGV[:-2], [*CUBE_ARGV[:2], "octagon", *CUBE_ARGV[3:]], ["extremes", "--n", "3,x"],
    [*CUBE_ARGV, "--fo", "json"], ["moments", "--s", "5"],
    ["moments", "--family", "cube", "--n=4", "--k", "1", "--route", "closed", "--format=json"],
    [*CUBE_ARGV, "--bogus", "1"], [*CUBE_ARGV, "extra"], [*CUBE_ARGV, "-x"], [*CUBE_ARGV, "--", "x"],
    [*CUBE_ARGV, "--"], ["extremes", "--n", "2"], ["extremes", "--n", "2", "--version"],
]


class TestParser:
    @staticmethod
    def outcome(capsys, call):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "empty")
    def test_main_parses_and_fails_as_the_full_parser(self, capsys, monkeypatch, argv, columns):
        # main parses a command with that command's parser alone; the full
        # parser, then its command, is the reference: the same bytes and exit
        # code at both terminal widths, and the same namespace wherever parsing succeeds
        monkeypatch.setenv("COLUMNS", columns)
        namespaces = []
        real = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            namespaces.append(real(self, *args, **kwargs))
            return namespaces[-1]

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)

        def reference():
            args = cli.build_parser().parse_args(argv)
            namespaces.append((args, []))
            rows, code = args.func(args)
            cli.emit(cli.make_manifest(args), rows, args.format, args.out)
            return code

        got = self.outcome(capsys, lambda: main(argv))
        parsed = namespaces[-1][0] if namespaces and got[0] == EXIT_OK else None
        assert got == self.outcome(capsys, reference)
        if parsed is not None:
            assert vars(parsed) == vars(namespaces[-1][0])


class TestUsageErrors:
    def test_mc_without_seed(self, capsys):
        code, _, err = run_cli(
            capsys, ["moments", "--family", "cube", "--n", "3", "--k", "1", "--route", "mc"]
        )
        assert code == EXIT_USAGE
        assert "--seed" in err

    def test_closed_route_for_non_cube(self, capsys):
        code, _, err = run_cli(
            capsys, ["moments", "--family", "cross", "--n", "3", "--k", "1", "--route", "closed"]
        )
        assert code == EXIT_USAGE
        assert "cube" in err

    def test_rejects_zero_restarts(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "3", "--restarts", "0", "--seed", "1"])
        assert exc.value.code == 2

    def test_search_needs_two_samples(self, capsys):
        # one draw has no standard error, so a gap could never be flagged
        code, out, err = run_cli(
            capsys, ["search", "--n", "3", "--restarts", "1", "--samples", "1", "--seed", "1"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "2 samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--family", "cube", "--n", "3", "--k", "1", "--route", "mc", "--samples", "1"],
            ["limits", "--family", "cube", "--n", "3", "--samples", "1"],
        ],
        ids=["moments", "limits"],
    )
    def test_monte_carlo_needs_two_samples(self, capsys, argv):
        code, out, err = run_cli(capsys, argv + ["--seed", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "2 samples" in err

    def test_cross_limits_reject_n1_before_any_draw(self, capsys, monkeypatch):
        # the standardization needs n >= 2; the draws alone would take seconds
        calls = []
        monkeypatch.setattr(limits, "width_samples", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, ["limits", "--family", "cross", "--n", "1", "--samples", "2000000", "--seed", "1"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "n >= 2" in err
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--family", "cube", "--n", ",", "--k", "1", "--route", "closed"],
            ["moments", "--family", "cube", "--n", "3", "--k", "", "--route", "closed"],
            ["extremes", "--n", ","],
        ],
        ids=["moments-n", "moments-k", "extremes-n"],
    )
    def test_rejects_empty_lists(self, capsys, argv):
        # every table has at least one row, which names its columns
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--family", "octahedron", "--n", "3", "--k", "1", "--route", "mc"])
        assert exc.value.code == 2

    def test_domain_error_maps_to_usage(self, capsys):
        # moment orders start at k = 1
        code, _, err = run_cli(
            capsys, ["moments", "--family", "cube", "--n", "3", "--k", "0", "--route", "closed"]
        )
        assert code == EXIT_USAGE

    def test_out_of_range_moment_maps_to_usage(self, capsys):
        code, out, err = run_cli(
            capsys, ["moments", "--family", "cube", "--n", "10000000", "--k", "60", "--route", "closed"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "double-precision" in err

    def test_out_of_range_quadrature_moment_maps_to_usage(self, capsys):
        # (max |eta_i|)^320 and its tail moment exceed double precision, also
        # in one batch with an order that fits
        for k in ["320", "1,320"]:
            code, out, err = run_cli(
                capsys, ["moments", "--family", "cross", "--n", "3", "--k", k, "--route", "quadrature"]
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert "double-precision" in err
            assert "320" in err

    @pytest.mark.parametrize("k", ["120", "250"])
    def test_out_of_range_monte_carlo_moment_maps_to_usage(self, capsys, k):
        # at k = 120 the mean fits a double but its square does not; at
        # k = 250 the mean overflows too
        code, out, err = run_cli(
            capsys,
            ["moments", "--family", "cube", "--n", "1000", "--k", k, "--route", "mc", "--samples", "1000",
             "--seed", "1"],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "double-precision" in err


class TestNumericalFailure:
    def test_quadrature_nonconvergence_exits_4(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["moments", "--family", "simplex-s", "--n", "1000000000", "--k", "1", "--route", "quadrature",
             "--threads", "1"],
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "did not converge" in err

    @pytest.mark.parametrize("exc, expected", [
        (NumericalError("no trustworthy number"), EXIT_NUMERICAL),
        (QuadratureError("quadrature did not converge"), EXIT_NUMERICAL),
        (IndefiniteMatrixError("not positive semidefinite"), EXIT_NUMERICAL),
        (np.linalg.LinAlgError("eigenvalues did not converge"), EXIT_NUMERICAL),
        # the exit code follows the type, not the message text
        (ValueError("matrix is not positive semidefinite and did not converge"), EXIT_USAGE),
    ])
    def test_exit_code_follows_the_exception_type(self, capsys, monkeypatch, exc, expected):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_search", handler)
        code, out, err = run_cli(capsys, ["search", "--n", "3", "--restarts", "1", "--seed", "1"])
        assert code == expected
        assert out == ""
        assert str(exc) in err


HUGE_NS = [2**52, 2**53, 2**53 + 1, 2**60, 2**64, 2**200, 2**1023]


def exact_width_moment(kind, n, k):
    """An oracle of E[W^k] past 2^53, or None, at enough digits to hold n/2
    and (n+1)/2 apart: E|g| = sqrt(2) rf(n/2, 1/2), whose loggamma form would
    need more than 64 digits at 2^200.  Cube: n sqrt(2/pi) / E|g| and
    1 + 2 (n - 1) / pi.  Crosspolytope: 2 A_n / E|g| and 4 E[max^2] / n, with
    the max |eta_i| moments and their bounds from max_abs_moments, so the
    reduction E[X^k] -> E[W^k] is what is checked.  Returns (exact, slack)."""
    with mpmath.workdps(n.bit_length() // 3 + 30):
        mean_norm = mpmath.sqrt(2) * mpmath.rf(mpmath.mpf(n) / 2, mpmath.mpf(1) / 2)
        if kind == "cube":
            exact = n * mpmath.sqrt(2 / mpmath.pi) / mean_norm if k == 1 else 1 + 2 * (n - 1) / mpmath.pi
            return exact, 0.0
        if kind == "cross":
            m, err = max_abs_moments([n], (k,))[0][k]
            scale = 2 / mean_norm if k == 1 else mpmath.mpf(4) / n
            return scale * m, scale * err
    return None


class TestEveryNHonestOrRefused:
    """Past 2^53 the ambient dimension d no longer holds d/2 and (d+1)/2
    apart in a double.  Every command either prints a value within its
    error, or exits 2 or 4 with nothing on stdout: never a traceback (exit 1)."""

    @pytest.mark.parametrize("n", HUGE_NS, ids=lambda n: f"2^{n.bit_length() - 1}" + ("+1" if n & 1 else ""))
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("family, route", [
        ("cube", "closed"), ("cube", "quadrature"), ("cross", "quadrature"),
        ("simplex-s", "quadrature"), ("simplex-t", "quadrature"),
    ])
    def test_grid(self, capsys, family, route, n, k):
        code, out, err = run_cli(capsys, ["moments", "--family", family, "--n", str(n), "--k", str(k),
                                          "--route", route])
        if code != EXIT_OK:
            assert code in (EXIT_USAGE, EXIT_NUMERICAL)
            assert out == ""
            assert len(err.splitlines()) == 1
            return
        oracle = exact_width_moment(family, n, k)
        # the range quadrature refuses every n past about 3e6, so no simplex
        # row reaches here; one that does needs an oracle first
        assert oracle is not None, f"{family} n={n} computes: add its oracle"
        (row,) = parse_csv(out)[1]
        exact, slack = oracle
        with mpmath.workdps(n.bit_length() // 3 + 30):
            assert abs(mpmath.mpf(row["value"]) - exact) <= float(row["error"]) + slack
        if family == "cross" and k == 1:
            # V1 = sqrt(2 pi) A_n, within the sum of both errors
            a_n, a_err = max_abs_moments([n], (1,))[0][1]
            v1, value = float(row["v1"]), float(row["value"])
            assert abs(v1 - math.sqrt(2 * math.pi) * a_n) <= v1 * float(row["error"]) / value + math.sqrt(2 * math.pi) * a_err

    def test_cube_at_2_53_reads_its_exact_mean_width(self, capsys):
        # the general two-float ratio read 5.08e15 here, and 1.128 at 2^53 + 1
        for n in (2**53, 2**53 + 1):
            code, out, _ = run_cli(capsys, ["moments", "--family", "cube", "--n", str(n), "--k", "1",
                                            "--route", "closed"])
            assert code == EXIT_OK
            assert float(parse_csv(out)[1][0]["value"]) == pytest.approx(75724244.065046, rel=1e-12)

    @pytest.mark.parametrize("command", ["extremes", "cross", "simplex-s", "simplex-t"])
    @pytest.mark.parametrize("n", [2**1021, 2**1023, 2**1024, 2**1100], ids=lambda n: f"2^{n.bit_length() - 1}")
    def test_n_past_double_range_is_refused_by_name(self, capsys, command, n):
        argv = ["extremes"] if command == "extremes" else ["moments", "--family", command, "--k", "1",
                                                           "--route", "quadrature"]
        code, out, err = run_cli(capsys, argv + ["--n", str(n)])
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"n={n}" in err

    def test_simplex_quadrature_refuses_where_its_powers_cannot_resolve(self, capsys):
        # 1 - exp(-760 / (n - 1)) rounds to 0 here, and S(t) used to read 0
        code, out, err = run_cli(capsys, ["moments", "--family", "simplex-t", "--n", str(2**64), "--k", "1",
                                          "--route", "quadrature"])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert f"n={2**64}" in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--family", "cube", "--k", "1", "--route", "mc", "--samples", "10"],
        ["limits", "--family", "cube", "--samples", "10"],
        ["limits", "--family", "cross", "--samples", "20000", "--threads", "2"],
    ], ids=["moments", "limits", "limits-threads"])
    def test_monte_carlo_row_past_memory_is_refused(self, capsys, argv):
        # one row of 2^53 doubles (64 PiB) fails to allocate at once; a size
        # that could really be allocated has no place in a test
        code, out, err = run_cli(capsys, argv + ["--n", str(2**53), "--seed", "1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "memory" in err


class TestMomentsOutput:
    @pytest.mark.parametrize(
        "family, route, label",
        [
            ("cube", "closed", "closed_form"),
            ("cube", "quadrature", "closed_form"),
            *[(family, "quadrature", "quadrature") for family in ("cross", "simplex-s", "simplex-t")],
            *[(kind.value, "mc", "monte_carlo") for kind in PolytopeKind],
        ],
    )
    def test_route_column(self, capsys, family, route, label):
        # the cube's closed form answers either deterministic route
        argv = ["moments", "--family", family, "--n", "3,4", "--k", "1,2", "--route", route]
        code, out, _ = run_cli(capsys, argv + (["--samples", "200", "--seed", "1"] if route == "mc" else []))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r["route"] for r in rows] == [label] * 4

    def test_closed_csv_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--family", "cube", "--n", "2,3", "--k", "1,2", "--route", "closed"],
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["family", "n", "k", "value", "route", "error", "v1"]
        assert len(rows) == 4
        lookup = {(int(r["n"]), int(r["k"])): r for r in rows}
        assert float(lookup[(2, 2)]["value"]) == pytest.approx(1.0 + 2.0 / math.pi, rel=1e-15)
        # v1 echo column only for k = 1
        assert lookup[(3, 1)]["v1"] != ""
        assert float(lookup[(3, 1)]["v1"]) == pytest.approx(3.0, rel=1e-12)
        assert lookup[(3, 2)]["v1"] == ""

    def test_closed_route_any_k(self, capsys):
        code, out, _ = run_cli(
            capsys, ["moments", "--family", "cube", "--n", "2", "--k", "5,8", "--route", "closed"]
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [int(r["k"]) for r in rows] == [5, 8]
        for row in rows:
            # the library value, checked against quadrature in test_polytopes
            assert float(row["value"]) == width_moment_cube(2, int(row["k"])).value

    @pytest.mark.parametrize("family", ["simplex-t", "cross", "cube"])
    def test_quadrature_rows_follow_k_order_with_duplicates(self, capsys, family):
        code, out, _ = run_cli(
            capsys, ["moments", "--family", family, "--n", "5,3", "--k", "3,1,3", "--route", "quadrature"]
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [(int(r["n"]), int(r["k"])) for r in rows] == [(5, 3), (5, 1), (5, 3), (3, 3), (3, 1), (3, 3)]
        for n in (5, 3):
            p = RegularPolytope(PolytopeKind(family), n)
            for row in (r for r in rows if int(r["n"]) == n):
                est = width_moment(p, int(row["k"]))
                assert row["value"] == format(est.value, ".17g")
                assert row["error"] == format(est.error, ".17g")

    @pytest.mark.parametrize("family", ["cross", "simplex-s", "simplex-t"])
    def test_one_quadrature_command_is_one_outer_batch(self, capsys, monkeypatch, family):
        # every n and k of the command in one outer _quad_batch, with the
        # range's inner batches nested in it
        outer, depth = [], [0]
        real = extremes._quad_batch

        def counting(f, edges, *args, **kwargs):
            depth[0] += 1
            try:
                if depth[0] == 1:
                    outer.append(len(edges))
                return real(f, edges, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(extremes, "_quad_batch", counting)
        argv = ["moments", "--family", family, "--n", "40,3,7", "--k", "2,1", "--route", "quadrature"]
        code, _, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert outer == [6]

    def test_json_matches_csv_numerically(self, capsys):
        argv = ["moments", "--family", "cube", "--n", "4", "--k", "1,3", "--route", "closed"]
        _, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
        _, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
        _, csv_rows = parse_csv(csv_out)
        payload = json.loads(json_out)
        assert payload["manifest"]["command"] == "moments"
        assert payload["manifest"]["started_at"] is None
        for c_row, j_row in zip(csv_rows, payload["rows"]):
            assert float(c_row["value"]) == j_row["value"]
            if c_row["v1"] == "":
                assert j_row["v1"] is None
            else:
                assert float(c_row["v1"]) == j_row["v1"]

    def test_mc_route_is_byte_identical(self, capsys):
        argv = [
            "moments", "--family", "simplex-t", "--n", "4", "--k", "1,2",
            "--route", "mc", "--samples", "20000", "--seed", "7",
        ]
        _, first, _ = run_cli(capsys, argv + ["--threads", "1"])
        _, second, _ = run_cli(capsys, argv + ["--threads", "8"])
        assert first == second

    def test_mc_agrees_with_closed(self, capsys):
        _, out, _ = run_cli(
            capsys,
            [
                "moments", "--family", "cube", "--n", "3", "--k", "2",
                "--route", "mc", "--samples", "200000", "--seed", "3",
            ],
        )
        _, rows = parse_csv(out)
        value, error = float(rows[0]["value"]), float(rows[0]["error"])
        assert abs(value - width_moment_cube(3, 2).value) < 4.0 * error


_MOMENTS = ["moments", "--family", "cube", "--n", "3", "--k", "1"]


class TestManifest:
    """The parameters line records what the command reads: command is the
    manifest's own key, and of moments' routes only mc reads samples and seed."""

    @pytest.mark.parametrize(
        "argv, parameters, seed",
        [
            ([*_MOMENTS, "--route", "closed", "--seed", "5"], {"route": "closed"}, None),
            ([*_MOMENTS, "--route", "quadrature", "--samples", "10", "--seed", "5"], {"route": "quadrature"}, None),
            ([*_MOMENTS, "--route", "mc", "--samples", "1000", "--seed", "5"],
             {"route": "mc", "samples": "1000", "seed": "5"}, 5),
        ],
        ids=["closed", "quadrature", "mc"],
    )
    def test_moments_routes(self, capsys, argv, parameters, seed):
        code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
        assert code == EXIT_OK
        manifest = json.loads(out)["manifest"]
        assert manifest["command"] == "moments"
        assert manifest["parameters"] == {"family": "cube", "k": "[1]", "n": "[3]", **parameters}
        assert manifest["seed"] == seed

    def test_the_csv_header_line(self, capsys):
        _, out, _ = run_cli(capsys, [*_MOMENTS, "--route", "closed"])
        assert '# parameters = {"family": "cube", "k": "[1]", "n": "[3]", "route": "closed"}' in out.splitlines()

    @pytest.mark.parametrize(
        "argv, parameters, seed",
        [
            (["extremes", "--n", "3"], {"n": "[3]"}, None),
            (["limits", "--family", "cross", "--n", "5", "--samples", "100", "--seed", "1"],
             {"family": "cross", "n": "5", "samples": "100", "seed": "1"}, 1),
            (["search", "--n", "3", "--restarts", "1", "--samples", "200", "--seed", "2"],
             {"n": "3", "restarts": "1", "samples": "200", "seed": "2"}, 2),
        ],
        ids=["extremes", "limits", "search"],
    )
    def test_other_commands(self, capsys, argv, parameters, seed):
        code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
        assert code == EXIT_OK
        manifest = json.loads(out)["manifest"]
        assert manifest["command"] == argv[0]
        assert manifest["parameters"] == parameters
        assert manifest["seed"] == seed


class TestExtremesOutput:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, ["extremes", "--n", "1,10,100"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r["slepian_ok"] for r in rows] == ["true"] * 3
        assert [r["upper_ok"] for r in rows] == ["true"] * 3
        assert rows[0]["gap_normalized"] == ""  # undefined at n = 1
        assert float(rows[2]["gap_normalized"]) > 1.0

    def test_opt_in_timestamp(self, capsys, monkeypatch):
        argv = ["extremes", "--n", "3", "--format", "json"]
        monkeypatch.delenv("MEANWIDTH_TIMESTAMP", raising=False)
        _, plain, _ = run_cli(capsys, argv)
        monkeypatch.setenv("MEANWIDTH_TIMESTAMP", "1")
        code, stamped, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        stamped, plain = json.loads(stamped), json.loads(plain)
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamped["manifest"]["started_at"])
        assert plain["manifest"]["started_at"] is None
        assert stamped["rows"] == plain["rows"]


class TestLimitsOutput:
    def test_cube_fit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["limits", "--family", "cube", "--n", "500", "--samples", "20000", "--seed", "42"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["law"] == "normal"
        assert float(row["ks_distance"]) < 0.1

    def test_threads_draw_the_widths_in_parallel(self, capsys, monkeypatch):
        argv = ["limits", "--family", "cross", "--n", "20", "--samples", "32768", "--seed", "3"]
        _, serial, _ = run_cli(capsys, argv + ["--threads", "1"])
        # four chunks meet in pairs at the barrier, which only two workers
        # drawing at once can pass
        barrier = threading.Barrier(2, timeout=10)
        idents = set()

        def recording(p, rng, count):
            idents.add(threading.get_ident())
            barrier.wait()
            return width_samples(p, rng, count)

        monkeypatch.setattr(limits, "width_samples", recording)
        code, threaded, _ = run_cli(capsys, argv + ["--threads", "2"])
        assert code == EXIT_OK
        assert len(idents) >= 2
        assert threading.get_ident() not in idents
        assert threaded == serial


class TestSearchOutput:
    def test_no_finding_at_n3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["search", "--n", "3", "--restarts", "2", "--samples", "20000", "--seed", "5"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["gap"]) <= 5.0 * float(row["best_stderr"])

    # gap > 5 best_stderr is a finding (exit 3); gap = 5 best_stderr exactly is not
    @pytest.mark.parametrize("best_stderr, gap, expected", [(0.03125, 0.25, EXIT_FINDING), (0.0625, 0.3125, EXIT_OK)])
    def test_a_finding_exits_3_after_the_full_table(self, capsys, monkeypatch, best_stderr, gap, expected):
        def fake(n, restarts, cfg, threads):
            return SearchResult(regular_simplex_gram(n), 2.5 + gap, best_stderr, 2.5, gap)

        monkeypatch.setattr(cli, "optimize_configuration", fake)
        monkeypatch.delenv("MEANWIDTH_TIMESTAMP", raising=False)
        argv = ["search", "--n", "3", "--restarts", "2", "--samples", "100", "--seed", "4"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (expected, "")
        assert out == (
            '# command = "search"\n'
            '# parameters = {"n": "3", "restarts": "2", "samples": "100", "seed": "4"}\n'
            "# seed = 4\n"
            "# started_at = null\n"
            f'# tool_version = "{__version__}"\n'
            "n,restarts,best_value,best_stderr,regular_value,gap,fingerprint_distance\n"
            f"3,2,{2.5 + gap!r},{best_stderr!r},2.5,{gap!r},0\n"
        )
        code, out, err = run_cli(capsys, [*argv, "--format", "json"])
        assert (code, err) == (expected, "")
        payload = json.loads(out)
        assert payload["manifest"]["command"] == "search"
        assert payload["manifest"]["seed"] == 4
        assert payload["columns"] == ["n", "restarts", "best_value", "best_stderr", "regular_value", "gap",
                                      "fingerprint_distance"]
        assert payload["rows"] == [{
            "n": 3, "restarts": 2, "best_value": 2.5 + gap, "best_stderr": best_stderr, "regular_value": 2.5,
            "gap": gap, "fingerprint_distance": 0.0,
        }]

    def test_threads_run_the_restarts_in_parallel(self, capsys, monkeypatch):
        argv = ["search", "--n", "3", "--restarts", "2", "--samples", "20000", "--seed", "5"]
        _, serial, _ = run_cli(capsys, argv + ["--threads", "1"])
        # each restart's first step waits at the barrier, which only the two
        # restarts running at once can pass
        barrier = threading.Barrier(2, timeout=10)
        idents = set()
        first_argmax = conjecture._first_argmax

        def recording(scores):
            ident = threading.get_ident()
            if ident not in idents:
                idents.add(ident)
                barrier.wait()
            return first_argmax(scores)

        monkeypatch.setattr(conjecture, "_first_argmax", recording)
        code, threaded, _ = run_cli(capsys, argv + ["--threads", "2"])
        assert code == EXIT_OK
        assert len(idents) == 2
        assert threading.get_ident() not in idents
        assert threaded == serial


class TestFileOutput:
    def test_out_relative_to_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEANWIDTH_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys,
            [
                "moments", "--family", "cube", "--n", "2", "--k", "1",
                "--route", "closed", "--out", "table.csv",
            ],
        )
        assert code == EXIT_OK
        assert out == ""
        text = (tmp_path / "table.csv").read_text()
        _, rows = parse_csv(text)
        assert rows[0]["family"] == "cube"

    @pytest.mark.parametrize("case", ["missing directory", "a directory", "missing output dir"])
    def test_an_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch, case):
        # an error line and exit 2, not a traceback; nothing reaches stdout
        if case == "missing directory":
            out_arg = path = str(tmp_path / "missing" / "x.csv")
            reason = errno.ENOENT
        elif case == "a directory":
            out_arg = path = str(tmp_path)
            reason = errno.EISDIR
        else:
            monkeypatch.setenv("MEANWIDTH_OUTPUT_DIR", str(tmp_path / "missing"))
            out_arg, path = "x.csv", str(tmp_path / "missing" / "x.csv")
            reason = errno.ENOENT
        code, out, err = run_cli(
            capsys, ["moments", "--family", "cube", "--n", "2", "--k", "1", "--route", "closed", "--out", out_arg]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: cannot write {path}: {os.strerror(reason)}\n"
        assert not (tmp_path / "missing").exists()
