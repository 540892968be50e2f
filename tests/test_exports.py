import importlib
import inspect

import pytest

MODULES = ["fock", "bogoliubov", "packets", "symmetry", "constrained",
           "quadrature", "scenarios", "cli"]


def _public_definitions(module):
    """Public functions and classes defined in the module itself (cached
    functions count through their wrapped function)."""
    names = set()
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value) or inspect.isfunction(inspect.unwrap(value)):
            names.add(name)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"semiclab.{name}")
    listed = module.__all__
    assert len(listed) == len(set(listed))
    assert all(hasattr(module, entry) for entry in listed)
    assert set(listed) == _public_definitions(module)
