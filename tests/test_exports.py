import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # perfbench/tracer.py looks each traced name up by vars(owner)[attr], so
    # a renamed or deleted name fails here, not only in a traced benchmark
    # run; the tracer is imported as the benchmark imports it, and not edited
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    from semiclab import scenarios, symmetry

    bound = [(owner, attr, vars(owner)[attr])
             for owner, attr, _, _ in tracer._targets()]
    traced = tracer.Tracer()
    with tracer.installed(traced):
        symmetry.one_param_u(scenarios.su11_family(), [1.0, 0.0, 0.0], 0.5,
                             np.zeros(3))
    assert traced.calls["symmetry.one_param_u"] == 1
    assert traced.calls["fock.QuadraticGenerator"] >= 1
    for owner, attr, original in bound:
        assert vars(owner)[attr] is original, attr


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # importing is most of a benchmark workload's setup time, so of scipy's
    # public subpackages only scipy.linalg is loaded: only picard_flow
    # integrates, and no import path needs scipy.special or scipy.sparse
    code = ("import sys, semiclab.cli, semiclab.constrained, semiclab.scenarios; "
            "print(' '.join(sorted(name for name, mod in sys.modules.items() "
            "if name.count('.') == 1 and name.startswith('scipy.') "
            "and not name.startswith('scipy._') and hasattr(mod, '__path__'))))")
    src = str(Path(importlib.import_module("semiclab").__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["scipy.linalg"]
