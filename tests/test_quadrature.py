"""The package's adaptive Gauss-Kronrod rule against scipy's QUADPACK, which
the tests keep as the independent route, and the import path it frees: no
scipy on the CLI's import, and scipy.special only once a quadrature runs."""

import heapq
import inspect
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from meanwidth import cli, extremes
from meanwidth.extremes import (
    QuadratureError,
    _LIMIT,
    _gk21,
    _quad_batch,
    comparison_reports,
    expected_max,
    expected_max_gap,
    max_abs_moments,
    range_moments,
)
from meanwidth.special import _EPS, normal_tail

EPS = np.finfo(float).eps
# an absolute floor beside the default relative tolerance
TOL = {"epsrel": 1e-12, "epsabs": 1e-12}


def _one_integral(f, edges, **tolerances):
    return _quad_batch(lambda x, owners: f(x), [edges], **tolerances)[0]


def _gauss_kronrod(f, a, b):
    values, errors = _gk21(lambda x, owners: f(x), np.array([a]), np.array([b]), np.array([0]))
    return values[0], errors[0]


class TestRule:
    @pytest.mark.parametrize("j", range(0, 32))
    def test_kronrod_is_exact_to_degree_31(self, j):
        value, _ = _gauss_kronrod(lambda x: x**j, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (j + 1), rel=8 * EPS)

    @pytest.mark.parametrize("j", range(0, 20))
    def test_gauss_agrees_to_degree_19(self, j):
        # K21 - G10 vanishes, so the estimate sits on its 50 eps resabs floor
        value, err = _gauss_kronrod(lambda x: x**j, 0.0, 1.0)
        assert err == pytest.approx(50 * EPS * value, rel=1e-6)

    def test_gauss_misses_degree_20(self):
        value, err = _gauss_kronrod(lambda x: x**20, 0.0, 1.0)
        assert err > 10 * 50 * EPS * value

    def test_limit_one_raises(self, monkeypatch):
        monkeypatch.setattr(extremes, "_LIMIT", 1)
        with pytest.raises(QuadratureError, match="did not converge"):
            _one_integral(lambda x: np.exp(-x * x), [0.0, 10.0], **TOL)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_break_points_at_the_limit_raise(self, monkeypatch, limit):
        # refused before any evaluation: more starting intervals than the limit
        monkeypatch.setattr(extremes, "_LIMIT", limit)
        with pytest.raises(QuadratureError, match="starts from more than"):
            _one_integral(lambda x: np.exp(-x * x), [0.0, *[1.0, 2.0][:limit], 10.0], **TOL)

    def test_smooth_integral_matches_scipy(self):
        value, err = _one_integral(lambda x: np.exp(-x * x), [0.0, 10.0], **TOL)
        assert abs(value - math.sqrt(math.pi) / 2 * math.erf(10.0)) <= err
        assert err <= 1e-12

    def test_a_batch_equals_each_integral_on_its_own(self):
        def f(x, owners):
            return np.exp(-np.array([0.5, 3.0, 40.0])[owners][:, None] * x * x)

        edges = [[0.0, 5.0, 10.0], [0.0, 0.1, 10.0], [-5.0, 0.0, 5.0]]
        batch = _quad_batch(f, edges, **TOL)
        for i, e in enumerate(edges):
            alone = _quad_batch(lambda x, owners: f(x, np.full_like(owners, i)), [e], **TOL)[0]
            assert [v.hex() for v in batch[i]] == [v.hex() for v in alone]


def _heap_gk21(f, intervals, owners):
    """qk21 with its error estimate evaluated one interval at a time in Python
    floats: the reference of _gk21's vector arithmetic."""
    centers = np.array([0.5 * (a + b) for a, b in intervals])
    halves = [0.5 * (b - a) for a, b in intervals]
    fv = f(centers[:, None] + np.array(halves)[:, None] * extremes._X21, np.array(owners))
    resk = (fv * extremes._WK21).sum(axis=1)
    resg = (fv * extremes._WG21).sum(axis=1)
    resabs = (np.abs(fv) * extremes._WK21).sum(axis=1)
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * extremes._WK21).sum(axis=1)
    out = []
    for k, g, res_abs, res_asc, h in zip(resk.tolist(), resg.tolist(), resabs.tolist(), resasc.tolist(), halves):
        err, res_abs, res_asc = abs(k - g) * h, res_abs * h, res_asc * h
        if res_asc != 0.0 and err != 0.0:
            err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
        if res_abs > extremes._TINY / (50.0 * _EPS):
            err = max(50.0 * _EPS * res_abs, err)
        out.append((k * h, err))
    return out


class TestRuleAgainstTheScalarLoop:
    """_gk21's arrays against _heap_gk21 one interval at a time, bit for bit:
    the rescale's fmin and the floor's fmax keep the results of Python's
    min(1.0, r**1.5) and max(50 eps resabs, err), also where the rescale meets
    a NaN ratio (an infinite node value) or nothing to rescale (a zero integrand)."""

    @staticmethod
    def _both(f, intervals, owners):
        lo, hi = (np.array(side) for side in zip(*intervals))
        values, errors = _gk21(f, lo, hi, np.array(owners))
        alone = [_heap_gk21(f, [interval], [owner])[0] for interval, owner in zip(intervals, owners)]
        assert [(v.hex(), e.hex()) for v, e in zip(values.tolist(), errors.tolist())] == [
            (v.hex(), e.hex()) for v, e in alone
        ]
        return alone

    def test_ordinary_intervals(self):
        def f(x, owners):
            return np.exp(-np.array([0.5, 3.0, 1.0])[owners][:, None] * x * x) + (owners == 2)[:, None] * x**20

        self._both(f, [(0.0, 1.0), (0.5, 3.0), (-5.0, 5.0), (0.0, 1.0)], [0, 1, 1, 2])

    def test_an_infinite_node_value(self):
        # the middle node of (0, 2) is 1.0; inf - inf makes resasc and the ratio NaN
        def f(x, owners):
            return np.where(x == 1.0, np.inf, x * x)

        with np.errstate(invalid="ignore"):
            alone = self._both(f, [(0.0, 2.0), (2.0, 3.0)], [0, 0])
        assert alone[0] == (math.inf, math.inf)

    def test_a_zero_integrand(self):
        alone = self._both(lambda x, owners: np.zeros_like(x), [(0.0, 1.0), (-3.0, 7.0)], [0, 1])
        assert alone == [(0.0, 0.0), (0.0, 0.0)]


def _heap_quad_batch(f, edge_lists, epsrel=1e-12, epsabs=0.0):
    """QAG with a max-heap of (-error, a, b, value) per integral: the
    reference of _quad_batch's list bookkeeping, whose tie rule (the
    leftmost of equal estimates) is the heap's order.  epsabs is one floor
    or a sequence of one floor per integral."""
    limit = extremes._LIMIT
    if any(len(edges) - 1 > limit for edges in edge_lists):
        raise QuadratureError(f"an integral starts from more than limit={limit} intervals")
    floors = [float(e) for e in epsabs] if np.ndim(epsabs) else [epsabs] * len(edge_lists)
    heaps = [[] for _ in edge_lists]
    results = [None] * len(edge_lists)
    pending = [(i, a, b) for i, edges in enumerate(edge_lists) for a, b in zip(edges, edges[1:])]
    while pending:
        evaluated = _heap_gk21(f, [(a, b) for _, a, b in pending], [i for i, _, _ in pending])
        for (i, a, b), (v, e) in zip(pending, evaluated):
            heapq.heappush(heaps[i], (-e, a, b, v))
        active = dict.fromkeys(i for i, _, _ in pending)
        pending = []
        for i in active:
            heap = heaps[i]
            value = math.fsum([item[3] for item in heap])
            err = math.fsum([-item[0] for item in heap])
            if err <= max(floors[i], epsrel * abs(value)):
                results[i] = (value, err)
                continue
            if len(heap) >= limit:
                raise QuadratureError(
                    f"quadrature did not converge: error estimate {err:.3g} after limit={limit} subintervals"
                )
            _, a, b, _ = heapq.heappop(heap)
            mid = 0.5 * (a + b)
            pending += [(i, a, mid), (i, mid, b)]
    return results


def _bits(results):
    return [[v.hex() for v in result] for result in results]


class TestHeapOracle:
    """_quad_batch against the heap reference above, bit for bit."""

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda: max_abs_moments([7], (1, 2, 3, 4)), id="max-abs"),
            pytest.param(lambda: max_abs_moments([2000], (3,)), id="max-abs-n2000"),
            pytest.param(lambda: expected_max(50), id="B_m"),
            pytest.param(lambda: expected_max_gap(40), id="gap"),
            pytest.param(lambda: range_moments([2], (1, 5)), id="range-n2"),
            pytest.param(lambda: range_moments([57], (1, 2, 3, 4)), id="range-n57"),
        ],
    )
    def test_package_integrands(self, monkeypatch, run):
        # the outer range quadrature and the inner ones it runs alike
        recorded = _capture(monkeypatch, extremes, "_quad_batch")
        run()
        # the replays below call the spy again, so iterate over a copy
        calls = list(recorded)
        assert calls
        for args, kwargs, results in calls:
            assert _bits(results) == _bits(_heap_quad_batch(*args, **kwargs))

    def test_rule_integrands(self):
        def f(x, owners):
            return np.exp(-np.array([0.5, 3.0, 40.0, 1.0])[owners][:, None] * x * x) + (owners == 3)[:, None] * x**20

        edges = [[0.0, 5.0, 10.0], [0.0, 0.1, 10.0], [-5.0, 0.0, 5.0], [0.0, 0.5, 1.0]]
        assert _bits(_quad_batch(f, edges, **TOL)) == _bits(_heap_quad_batch(f, edges, **TOL))

    def test_a_floor_per_integral(self):
        # the same integrand under three floors: the loose one stops early
        def f(x, owners):
            return np.exp(-3.0 * x * x) + x**40

        edges, floors = [[0.0, 1.0]] * 3, [1e-3, 0.0, 1e-12]
        batch = _quad_batch(f, edges, epsabs=floors)
        assert _bits(batch) == _bits(_heap_quad_batch(f, edges, epsabs=floors))
        assert _bits(batch) == [_bits(_quad_batch(f, [e], epsabs=floor))[0] for e, floor in zip(edges, floors)]
        assert batch[0] != batch[1]

    def test_equal_estimates_bisect_the_leftmost(self):
        # [0, 1] and [2, 3] see the same oscillating row of values, so their
        # estimates are equal to the bit; every other interval sees its centre
        # (the middle node) as a constant.  Their estimates of about 1e-3 each
        # exceed the tolerance on a value of about 1.5; bisecting either one
        # meets it, [0, 1] with a value of about 2 and [2, 3] of about 4.
        row = 1e-3 * (-1.0) ** np.arange(21)

        def f(x, owners):
            centre = x[:, 10:11]
            return np.where((centre == 0.5) | (centre == 2.5), row, centre)

        edges, tolerances = [[0.0, 1.0, 2.0, 3.0]], {"epsrel": 1e-3, "epsabs": 0.0}
        first = _heap_gk21(f, [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], [0, 0, 0])
        assert first[0] == first[2]
        result = _quad_batch(f, edges, **tolerances)
        assert _bits(result) == _bits(_heap_quad_batch(f, edges, **tolerances))
        assert result[0][0] == pytest.approx(first[0][0] + 1.5 + 0.5, rel=1e-12)

    def test_the_limit_raises_the_same_error(self, monkeypatch):
        monkeypatch.setattr(extremes, "_LIMIT", 6)

        def f(x, owners):
            return np.sqrt(np.abs(x - np.array([0.3, 0.7])[owners][:, None]))

        errors = []
        for run in (_quad_batch, _heap_quad_batch):
            with pytest.raises(QuadratureError, match="did not converge") as info:
                run(f, [[0.0, 0.25, 1.0], [0.0, 0.5, 1.0]], **TOL)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def _capture(monkeypatch, module, name):
    """Record every call of module.name, passing it through."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls


def _capture_outermost(monkeypatch):
    """Record, like _capture, the calls of extremes._quad_batch that no other
    call's integrand makes: the range's outer quadrature, not the inner
    survival quadratures it runs."""
    calls, depth = [], [0]
    real = extremes._quad_batch

    def spy(*args, **kwargs):
        depth[0] += 1
        try:
            result = real(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(extremes, "_quad_batch", spy)
    return calls


def _call_parts(args, kwargs):
    """(f, edge_lists, {"epsrel": ..., "epsabs": ...}) of a recorded _quad_batch call."""
    bound = inspect.signature(_quad_batch).bind(*args, **kwargs)
    bound.apply_defaults()
    f, edge_lists, epsrel, epsabs = bound.arguments.values()
    return f, edge_lists, {"epsrel": epsrel, "epsabs": epsabs}


def _batch_integrals(calls):
    """(integrand of integral i alone, its edges, its tolerances, its result)
    for every integral of every recorded _quad_batch call."""
    for args, kwargs, results in calls:
        f, edge_lists, tolerances = _call_parts(args, kwargs)
        for i, (edges, result) in enumerate(zip(edge_lists, results)):
            yield (lambda x, f=f, i=i: f(x, np.full(len(x), i))), edges, tolerances, result


def _scipy(f, edges, tolerances):
    def scalar(t):
        return float(f(np.array([[t]]))[0, 0])

    lo, *points, hi = edges
    return integrate.quad(scalar, lo, hi, **tolerances, limit=_LIMIT, points=points or None)


class TestIntegrandsAgainstScipy:
    """Every integrand family through _quad_batch and through scipy.integrate.quad:
    the two values lie within the sum of both error estimates."""

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda: max_abs_moments([7], (3,)), id="max-abs-survival"),
            pytest.param(lambda: max_abs_moments([1], (2,)), id="max-abs-survival-n1"),
            pytest.param(lambda: max_abs_moments([7], (1, 4)), id="max-abs-survival-two-orders"),
            pytest.param(lambda: expected_max(50), id="B_m-one-survival-integral"),
            pytest.param(lambda: expected_max_gap(40), id="gap-one-survival-integral"),
        ],
    )
    def test_single_integrals(self, monkeypatch, run):
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        run()
        assert calls
        for f, edges, tolerances, (value, err) in _batch_integrals(calls):
            oracle, oracle_err = _scipy(f, edges, tolerances)
            assert abs(value - oracle) <= err + oracle_err

    def test_range_survival_integrands(self, monkeypatch):
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        range_moments([5], (1,))
        # the inner call of the first outer round, which ends before the outer
        # call: its nodes on both sides of the break point, each with its own floor
        args, kwargs, results = calls[0]
        f, edge_lists, tolerances = _call_parts(args, kwargs)
        floors = list(tolerances.pop("epsabs"))
        past = floors.index(0.0)
        assert set(floors[:past]) == {extremes._RANGE_EPSABS} and set(floors[past:]) == {0.0}
        for i in (0, past - 1, past, len(edge_lists) - 1):
            lo, *points, hi = edge_lists[i]
            oracle, oracle_err = integrate.quad(
                lambda x: float(f(np.array([[x]]), np.array([i]))[0, 0]),
                lo, hi, **tolerances, epsabs=floors[i], limit=_LIMIT, points=points,
            )
            value, err = results[i]
            assert abs(value - oracle) <= err + oracle_err

    def test_integrands_raise_no_warning_at_the_interval_ends(self, monkeypatch):
        # t = 0 makes 2 normal_tail(t) = 1 and the gap's 1 - 2r vanish
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        for n in (1, 4):
            max_abs_moments([n], (2,))
            # B_m's integral itself: expected_max takes the closed form at m <= 5
            extremes._survival_moments([extremes._max_integral(n)])
            expected_max_gap(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, (lo, *_, hi), _, _ in _batch_integrals(calls):
                assert np.all(np.isfinite(f(np.array([[lo, hi, 0.5 * (lo + hi)]]))))


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def _modules_after_cli(argv) -> set[str]:
    code = (
        "import contextlib, io, meanwidth.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    try: meanwidth.cli.main({argv!r})\n"
        "    except SystemExit: pass\n"
    )
    return _modules_after(code)


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.special is imported on first use, so the CLI's import loads no scipy at all
    loaded = sorted(m for m in _modules_after("import meanwidth.cli") if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded


_MC = ["--route", "mc", "--samples", "2000", "--seed", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        *(["moments", "--family", family, "--n", "5", "--k", "1,2", *_MC]
          for family in ("cube", "simplex-s", "simplex-t", "cross")),
        ["moments", "--family", "cube", "--n", "5", "--k", "1,3", "--route", "closed"],
        # the limit laws' CDFs take math.erfc and numpy
        *(["limits", "--family", family, "--n", "20", "--samples", "2000", "--seed", "1"]
          for family in ("cube", "simplex-s", "simplex-t", "cross")),
        # the regular simplex's E max has a closed form up to n = 5
        *(["search", "--n", str(n), "--restarts", "1", "--samples", "2000", "--seed", "1"] for n in range(2, 6)),
        ["--help"],
        ["moments", "--family", "bogus"],
    ],
    ids=" ".join,
)
def test_runs_without_quadrature_leave_out_scipy_special(argv):
    assert "scipy.special" not in _modules_after_cli(argv)


def test_quadrature_run_loads_scipy_special():
    assert "scipy.special" in _modules_after_cli(["extremes", "--n", "3"])


def test_search_past_the_closed_forms_loads_scipy_special():
    # n = 6 is the first regular simplex whose E max takes a quadrature
    argv = ["search", "--n", "6", "--restarts", "1", "--samples", "2000", "--seed", "1"]
    assert "scipy.special" in _modules_after_cli(argv)


def test_normal_tail_keeps_scipy_erfc_bits():
    from scipy import special as sp

    t = np.linspace(-40.0, 40.0, 80_001)
    assert normal_tail(t).tobytes() == (0.5 * sp.erfc(t / math.sqrt(2.0))).tobytes()


class TestOneBatchPerSurvivalMoment:
    """_survival_moments integrates every order k in one _quad_batch call and
    computes the survival values of each interval once."""

    def test_max_abs_moments_is_one_batch(self, monkeypatch):
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        max_abs_moments([7], (1, 2, 3, 4))
        assert len(calls) == 1
        assert len(calls[0][0][1]) == 4

    @pytest.mark.parametrize(
        "run",
        # B_m's integral itself: expected_max takes the closed form at m <= 5
        [lambda n: extremes._survival_moments([extremes._max_integral(n)]), expected_max_gap],
        ids=["B_m", "gap"],
    )
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_each_extreme_value_is_one_integral(self, monkeypatch, run, n):
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        run(n)
        assert len(calls) == 1
        assert len(calls[0][0][1]) == 1

    @pytest.mark.parametrize("m, batches", [(1, 0), (5, 0), (6, 1), (50, 1)])
    def test_expected_max_integrates_only_past_the_closed_forms(self, monkeypatch, m, batches):
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        expected_max(m)
        assert len(calls) == batches

    def test_an_extremes_command_is_one_batch(self, monkeypatch, capsys):
        # A_n and the gap of every n side by side
        calls = _capture(monkeypatch, extremes, "_quad_batch")
        assert cli.main(["extremes", "--n", "1,7,100000"]) == 0
        assert len(calls) == 1
        assert len(calls[0][0][1]) == 6
        assert capsys.readouterr().out.count("\n100000,") == 1

    def test_range_moments_outer_quadrature_is_one_batch(self, monkeypatch):
        # the inner range quadratures run inside the outer one's integrand
        calls = _capture_outermost(monkeypatch)
        range_moments([57], (1, 2, 3, 4))
        assert len(calls) == 1
        assert len(calls[0][0][1]) == 4

    def test_one_inner_batch_keeps_each_nodes_floor(self, monkeypatch):
        # a row of outer nodes straddling the break point 2 t_n, the middle one
        # on it: one _range_batch, and every value the bits of its t alone
        # under its own floor.  At this n the other floor moves the bits of
        # nodes on both sides and of the middle one, so a floor on the wrong
        # side shows
        n = 10**4
        surv, _, _, peak, _ = extremes._range_integral(n, (1,))
        t = peak + np.linspace(-3.0, 3.0, 21)[None, :]
        assert t[0, 10] == peak
        calls = _capture(monkeypatch, extremes, "_range_batch")
        values = surv(t)
        assert len(calls) == 1 and values.shape == t.shape
        moved = set()
        for node, value in zip(t.ravel().tolist(), values.ravel().tolist()):
            floor = extremes._RANGE_EPSABS if node <= peak else 0.0
            assert value.hex() == extremes._range_batch(n, [node], floor)[0].hex(), node
            if value != extremes._range_batch(n, [node], extremes._RANGE_EPSABS - floor)[0]:
                moved.add(float(np.sign(node - peak)))
        assert moved == {-1.0, 0.0, 1.0}

    def test_range_moments_passes_each_outer_row_once(self, monkeypatch):
        rows = []
        real = extremes._survival_moments

        def spy(integrals, *args, **kwargs):
            ((surv, *rest),) = integrals

            def recording(t):
                rows.extend(row.tobytes() for row in t)
                return surv(t)

            return real([(recording, *rest)], *args, **kwargs)

        monkeypatch.setattr(extremes, "_survival_moments", spy)
        range_moments([57], (1, 2, 3, 4))
        assert rows
        assert len(rows) == len(set(rows))


class TestRowBlocks:
    """_gk21 calls f on at most _GK21_ROWS intervals at a time, and the blocks
    change no bit."""

    def test_a_batch_past_one_block_equals_each_integral_on_its_own(self, monkeypatch):
        # rows like _survival_moments' past the peak: 0, p, p + 1, p + 3, T clamped
        # to T = 4, so p = 0 starts with the zero-length [0, 0] and p >= 3 ends with [T, T]
        t_hi, ps = 4.0, np.linspace(0.0, 3.9, 70)
        edges = [[0.0, p, min(p + 1.0, t_hi), min(p + 3.0, t_hi), t_hi] for p in ps]
        assert len(edges) * 4 > extremes._GK21_ROWS
        assert [0.0, 0.0] in [e[:2] for e in edges] and [t_hi, t_hi] in [e[-2:] for e in edges]
        widths, rows = 0.3 + ps, []

        def f(x, owners):
            rows.append(len(x))
            return x**3 * np.exp(-0.5 * (x / widths[owners][:, None]) ** 2)

        batch = _quad_batch(f, edges)
        assert max(rows) <= extremes._GK21_ROWS
        for i, e in enumerate(edges):
            alone = _quad_batch(lambda x, owners: f(x, np.full_like(owners, i)), [e])
            assert _bits(batch[i : i + 1]) == _bits(alone)
        monkeypatch.setattr(extremes, "_GK21_ROWS", 10**6)
        assert _bits(batch) == _bits(_quad_batch(f, edges))

    def test_an_empty_batch_calls_f_once(self):
        shapes = []

        def f(x, owners):
            shapes.append(x.shape)
            return x

        assert _quad_batch(f, np.empty((0, 5))) == []
        assert shapes == [(0, 21)]
        assert max_abs_moments([], (1, 2)) == [] and comparison_reports([]) == []


def _count_rounds(monkeypatch):
    """{depth: [GK21 rounds, intervals]} of the _gk21 calls that follow, depth 1
    for an outermost _quad_batch and 2 for the quadratures its integrand runs."""
    counts, depth = {}, [0]
    real_batch, real_rule = extremes._quad_batch, extremes._gk21

    def batch(*args, **kwargs):
        depth[0] += 1
        try:
            return real_batch(*args, **kwargs)
        finally:
            depth[0] -= 1

    def rule(f, lo, *args):
        count = counts.setdefault(depth[0], [0, 0])
        count[0] += 1
        count[1] += len(lo)
        return real_rule(f, lo, *args)

    monkeypatch.setattr(extremes, "_quad_batch", batch)
    monkeypatch.setattr(extremes, "_gk21", rule)
    return counts


class TestRoundCounts:
    """GK21 rounds and intervals of two commands' batches; deterministic
    counts.  Starting each survival integral from (0, peak, T) alone spent
    rounds bisecting [0, peak] and the tail; the break points peak / 2 and
    3 peak / 4 (_PEAK_FRACTIONS) and peak + 1 and peak + 3 scales
    (_OUTER_OFFSETS) save them."""

    def test_range_moments(self, monkeypatch):
        # simplex-t --n 119,191,356 --k 1,2,3,4: from (0, peak, T), 5 outer
        # rounds of 120 intervals and 25 inner rounds of 3820; with the break
        # points past the peak alone, 3 of 96 and 19 of 3064.  One inner batch
        # per outer call, with a floor per node, evaluates the same 2294 inner
        # intervals in 6 rounds where one batch per side of 2 t_n took 10
        counts = _count_rounds(monkeypatch)
        range_moments([119, 191, 356], (1, 2, 3, 4))
        assert counts == {1: [1, 72], 2: [6, 2294]}

    def test_comparison_reports(self, monkeypatch):
        # extremes --n 2,16,104,538,10429,16148: from (0, peak, T), 8 rounds
        # of 138 intervals; with the break points past the peak alone, 7 of 112
        counts = _count_rounds(monkeypatch)
        comparison_reports([2, 16, 104, 538, 10429, 16148])
        assert counts == {1: [5, 100]}
