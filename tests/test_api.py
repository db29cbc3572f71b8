import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import meanwidth
from meanwidth import cli, conjecture, extremes, limits, polytopes, sampling, special

MODULES = [special, extremes, polytopes, sampling, limits, conjecture]


def _own_functions_and_classes(module):
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_functions_and_classes(module):
    assert len(set(module.__all__)) == len(module.__all__)
    exported = {name: getattr(module, name) for name in module.__all__}
    listed = {name for name, obj in exported.items() if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert listed == _own_functions_and_classes(module)


def test_package_exports_both_quadrature_moment_entry_points():
    assert meanwidth.family_width_moments is polytopes.family_width_moments
    assert meanwidth.width_moment is polytopes.width_moment


def test_every_name_the_benchmark_imports_exists():
    # the benchmark's scripts import from the package; a deleted name would
    # break them unseen, since no test here runs them.  Each script is parsed,
    # never run: only its import statements from the package are executed
    root = pathlib.Path(__file__).resolve().parents[1]
    names = set()
    for path in sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "meanwidth":
                exec(compile(ast.Module(body=[node], type_ignores=[]), str(path), "exec"), {})
                names |= {alias.name for alias in node.names}
    assert {"width_moment", "width_moment_cube", "cli"} <= names
    # perfbench/child.py's machine() reads the chunk size off an instance
    assert sampling.McConfig(seed=0, samples=1).chunk_size == 8192


@pytest.mark.parametrize("module", [*MODULES, cli], ids=lambda m: m.__name__)
def test_no_public_function_takes_a_quadrature_config(module):
    # the quadrature tolerances are fixed per quantity inside the package
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        for param in inspect.signature(fn).parameters.values():
            assert param.name not in ("cfg", "quad") or param.annotation == "McConfig", (name, param)
            assert "Quadrature" not in str(param.annotation), (name, param)


def test_the_quadrature_config_type_is_not_exported():
    assert not any("QuadratureConfig" in name for m in [meanwidth, *MODULES] for name in getattr(m, "__all__", ()))
    assert not any("QuadratureConfig" in name for name in vars(meanwidth))


@pytest.mark.parametrize("module", [meanwidth, cli, *MODULES], ids=lambda m: m.__name__)
def test_only_extremes_binds_the_quadrature_internals(module):
    # one module holds the quadrature and the tolerances it runs to
    names = {"_quad_batch", "_survival_moments", "_range_batch"}
    bound = names & set(vars(module))
    assert bound == (names if module is extremes else set()), bound


@pytest.mark.parametrize("module", [meanwidth, cli, *MODULES], ids=lambda m: m.__name__)
def test_only_special_imports_scipy(module):
    # scipy.special serves the quadratures alone: the limit laws' CDFs take math and numpy
    imports = re.search(r"^\s*(from|import)\s+scipy\b", inspect.getsource(module), re.M)
    assert bool(imports) == (module is special)
    assert ("_scipy_special" in vars(module)) == (module is special)


def test_cli_binds_no_sampling_or_special_internals():
    # the CLI draws its standardized limits sample through limits, the one
    # place that pairs a family with its law
    assert not {"_map_chunks", "_scipy_special", "width_samples"} & set(vars(cli))


def test_the_readme_example_runs():
    # the README's python block, run as a user would, against this tree's source
    root = pathlib.Path(__file__).resolve().parents[1]
    (code,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(encoding="utf-8"), re.S)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 6
    assert [line.split()[0] for line in lines[3:]] == ["3", "50", "400"]
