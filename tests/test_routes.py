"""The two-route contract as one table.

Every column the CLI prints is one of: a number that two independent routes
compute (ROUTES), a formula of other printed columns (FORMULAS), a Monte
Carlo number that has no second route yet (OPEN), or an echo of the
command's inputs and of the route and bound it reports (LABELS).  Two routes
agree when

    |a - b| <= bound_a + bound_b + Z sqrt(se_a^2 + se_b^2),

each route giving (value, deterministic bound, standard error), on fixed
seeds.  One small run of each command must print exactly the columns that
the table names, so a new column needs a row here.
"""

import contextlib
import io
import json
import math

import pytest

from meanwidth.cli import EXIT_OK, main
from meanwidth.conjecture import interpolation_covariance
from meanwidth.extremes import comparison_reports, expected_max, expected_max_gap, max_abs_moments
from meanwidth.polytopes import PolytopeKind, RegularPolytope, sudakov_v1, v1_from_mean_width, width_moment
from meanwidth.sampling import McConfig, estimate_moment, sample_correlated_max

Z = 4.0
EPS = 2.0**-52


def agree(a, b) -> bool:
    (va, bound_a, se_a), (vb, bound_b, se_b) = a, b
    return abs(va - vb) <= bound_a + bound_b + Z * math.hypot(se_a, se_b)


# ---- routes: each returns (value, bound, stderr) --------------------------


def deterministic(kind, n, k):
    """The cube's closed form, or quadrature for the other families."""
    est = width_moment(RegularPolytope(kind, n), k)
    return est.value, est.error, 0.0


def monte_carlo(kind, n, k):
    est = estimate_moment(RegularPolytope(kind, n), k, McConfig(seed=1, samples=200_000))
    return est.value, 0.0, est.error


def v1_of_mean_width(kind, n):
    p = RegularPolytope(kind, n)
    est = width_moment(p, 1)
    # V1 is linear in E W, so the bound scales with it
    return v1_from_mean_width(p.ambient_dim, est.value), v1_from_mean_width(p.ambient_dim, est.error), 0.0


def sudakov(kind, n):
    """sudakov_v1 with the relative bound of the expected maximum it scales
    (max |eta_i| for the crosspolytope, max eta_i for the simplices), plus
    a few eps for the scaling; the cube's V1 = n is exact."""
    p = RegularPolytope(kind, n)
    v1 = sudakov_v1(p)
    if p.kind is PolytopeKind.CUBE:
        return v1, 0.0, 0.0
    value, err = max_abs_moments([n], (1,))[0][1] if p.kind is PolytopeKind.CROSS else expected_max(n)
    return v1, v1 * (err / value + 4.0 * EPS), 0.0


def report(n, column):
    rep = comparison_reports([n])[0]
    return getattr(rep, column), rep.slack, 0.0


def max_abs_by_sampling(n):
    # at t = 1 every pair of the interpolation family is (xi, -xi), so its max is max |eta_i|
    mean, stderr = sample_correlated_max(interpolation_covariance(n, 1.0), McConfig(seed=1, samples=200_000))
    return mean, 0.0, stderr


def max_of(m):
    return *expected_max(m), 0.0


def closed(value):
    return value, math.ulp(value), 0.0


def tetrahedron_edges():
    """V1 of the regular tetrahedron T_3 (unit circumradius) from its edges,
    sum of length (pi - dihedral angle) / (2 pi): six edges of length
    sqrt(8/3) at the dihedral angle arccos(1/3).  A route through geometry
    alone, independent of B_4; 8 eps covers the formula's rounding."""
    value = 6.0 * math.sqrt(8.0 / 3.0) * (math.pi - math.acos(1.0 / 3.0)) / (2.0 * math.pi)
    return value, 8.0 * EPS * value, 0.0


# ---- the table ------------------------------------------------------------

# (command, column, case, route a, route b); the routes run when the row's test does
ROUTES = [
    *[("moments", "value", f"{kind.value}-5-{k}", (deterministic, kind, 5, k), (monte_carlo, kind, 5, k))
      for kind in PolytopeKind for k in (1, 2)],
    *[("moments", "v1", f"{kind.value}-5", (v1_of_mean_width, kind, 5), (sudakov, kind, 5)) for kind in PolytopeKind],
    *[("extremes", "a_n", f"n{n}", (report, n, "a_n"), (max_abs_by_sampling, n)) for n in (1, 5, 40)],
    *[("extremes", "b_2n", f"n{n}", (report, n, "b_2n"), (max_of, 2 * n)) for n in (1, 5, 40)],
    ("search", "regular_value", "n2", (sudakov, PolytopeKind.SIMPLEX_T, 2), (closed, 2.0)),
    ("search", "regular_value", "n3", (sudakov, PolytopeKind.SIMPLEX_T, 3), (closed, 1.5 * math.sqrt(3.0))),
    ("search", "regular_value", "n4", (sudakov, PolytopeKind.SIMPLEX_T, 4), (tetrahedron_edges,)),
]


def _slack(n):
    # a_err + gap_err, the error bound of b_2n = a_n - gap
    return comparison_reports([n])[0].slack


def _gap(row):
    # the printed gap and its own error bound, which both flags test it against
    return row["a_n"] - row["b_2n"], expected_max_gap(row["n"])[1]


def _slepian_ok(row):
    gap, err = _gap(row)
    return gap >= -err


def _upper_ok(row):
    (gap, err), n = _gap(row), row["n"]
    return gap - err <= (math.sqrt(2 * n / (2 * n - 1)) - 1.0) * (row["b_2n"] + _slack(n))


def _gap_normalized(row):
    n, a_n, b_2n = row["n"], row["a_n"], row["b_2n"]
    return 8.0 * n * math.log(n) * (a_n - b_2n) / b_2n if n >= 2 else None


# (command, column): the formula of a printed row that the column matches, and
# the relative tolerance; gap_normalized's a_n - b_2n holds the rounding of b_2n
FORMULAS = {
    ("extremes", "ratio"): (lambda row: row["a_n"] / row["b_2n"], 0.0),
    ("extremes", "gap_normalized"): (_gap_normalized, 1e-12),
    ("extremes", "slepian_ok"): (_slepian_ok, 0.0),
    ("extremes", "upper_ok"): (_upper_ok, 0.0),
    ("search", "gap"): (lambda row: row["best_value"] - row["regular_value"], 0.0),
}

# Monte Carlo only: a second route moves its column out of this set
OPEN = {
    ("limits", "mean"),
    ("limits", "variance"),
    ("limits", "ks_distance"),
    ("search", "best_value"),
    ("search", "best_stderr"),
    ("search", "fingerprint_distance"),
}

LABELS = {
    *[("moments", c) for c in ("family", "n", "k", "route", "error")],
    ("extremes", "n"),
    *[("limits", c) for c in ("family", "n", "samples", "law")],
    *[("search", c) for c in ("n", "restarts")],
}

RUNS = {
    "moments": ["moments", "--family", "simplex-t", "--n", "3", "--k", "1,2", "--route", "quadrature"],
    "extremes": ["extremes", "--n", "1,5,40"],
    "limits": ["limits", "--family", "cross", "--n", "20", "--samples", "20000", "--seed", "1", "--threads", "1"],
    "search": ["search", "--n", "3", "--restarts", "1", "--samples", "20000", "--seed", "1", "--threads", "1"],
}


@pytest.fixture(scope="module")
def printed():
    """{command: (columns, rows)} of one small JSON run of each command."""
    out = {}
    for command, argv in RUNS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(buf.getvalue())
        out[command] = payload["columns"], payload["rows"]
    return out


@pytest.mark.parametrize("row", ROUTES, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_two_routes_agree(row):
    _, _, _, (fa, *args_a), (fb, *args_b) = row
    a, b = fa(*args_a), fb(*args_b)
    assert agree(a, b), (a, b)


@pytest.mark.parametrize("key", sorted(FORMULAS), ids="-".join)
def test_derived_column_matches_its_formula(printed, key):
    command, column = key
    _, rows = printed[command]
    formula, rel = FORMULAS[key]
    for row in rows:
        want = formula(row)
        if isinstance(want, float):
            assert row[column] == pytest.approx(want, rel=rel, abs=0.0), row
        else:
            assert row[column] is want, row


def test_each_column_has_one_kind():
    kinds = [{(c, col) for c, col, *_ in ROUTES}, set(FORMULAS), OPEN, LABELS]
    assert sum(len(k) for k in kinds) == len(set().union(*kinds))


@pytest.mark.parametrize("command", sorted(RUNS))
def test_a_run_prints_exactly_the_columns_of_the_table(printed, command):
    table = {(c, col) for c, col, *_ in ROUTES} | set(FORMULAS) | OPEN | LABELS
    columns, rows = printed[command]
    assert rows and set(columns) == {column for cmd, column in table if cmd == command}
    assert len(columns) == len(set(columns))
