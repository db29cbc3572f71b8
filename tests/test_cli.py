import json
import math
import threading

import numpy as np
import pytest

from meanwidth import cli
from meanwidth.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from meanwidth.extremes import IndefiniteMatrixError, NumericalError, QuadratureError
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
        # (max |eta_i|)^320 and its tail moment exceed double precision
        code, out, err = run_cli(
            capsys, ["moments", "--family", "cross", "--n", "3", "--k", "320", "--route", "quadrature"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "double-precision" in err

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


class TestMomentsOutput:
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


class TestExtremesOutput:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, ["extremes", "--n", "1,10,100"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r["slepian_ok"] for r in rows] == ["true"] * 3
        assert [r["upper_ok"] for r in rows] == ["true"] * 3
        assert rows[0]["gap_normalized"] == ""  # undefined at n = 1
        assert float(rows[2]["gap_normalized"]) > 1.0


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

        monkeypatch.setattr(cli, "width_samples", recording)
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
