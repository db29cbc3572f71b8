import inspect

import pytest

import meanwidth
from meanwidth import conjecture, extremes, limits, polytopes, sampling, special


def _own_functions_and_classes(module):
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("module", [special, extremes, polytopes, sampling, limits, conjecture],
                         ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_functions_and_classes(module):
    assert len(set(module.__all__)) == len(module.__all__)
    exported = {name: getattr(module, name) for name in module.__all__}
    listed = {name for name, obj in exported.items() if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert listed == _own_functions_and_classes(module)


def test_package_exports_both_quadrature_moment_entry_points():
    assert meanwidth.width_moment is polytopes.width_moment
    assert meanwidth.width_moments is polytopes.width_moments
