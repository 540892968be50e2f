"""Workloads of the semiclab benchmark.

A workload turns a seed into scenario configs and library inputs, then runs
passes through the public entry points ``semiclab.cli.run_scenario`` and
``semiclab.cli.sweep`` and the public library functions.  Every check, sweep
and direct library call of a pass is one operation.  An operation fails when
it raises, returns a non-finite value or does not pass; a report that does
not serialize as strict JSON, or whose body differs from the first pass's,
is one more failed operation.

Program functions are always looked up through their module at call time,
so the traced run sees the wrapped bindings.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from semiclab import cli, constrained, scenarios
from semiclab.fock import FockVector, ModeBasis, vacuum_state

NAMES = ("group-words", "gaussian-flows", "fiber-integrals", "plane-families")

# Per-workload sizes.  "full" is the measured size; it is smaller than the
# shipped configs where a shipped pass would not fit the run budget (one
# su11-metaplectic-loop pass at the shipped dt = 1e-3 takes about 36 s on a
# 2-core x86 machine).  "smoke" is the smallest size that still passes.
SIZES = {
    "full": {
        "group-words": {
            "su11": {"run": {"dt": 1e-2}},
            "u2": {"run": {"dt": 8e-3, "n_pairs": 1}},
        },
        "gaussian-flows": {
            "rotation": {},
            "squeeze": {},
            "anomaly": {},
            "dt_grid": [4e-2, 2e-2, 1e-2],
            "n_grid": [8, 24, 64],
        },
        "fiber-integrals": {
            "constrained": {"run": {"n_random": 100}},
            "packet": {"run": {"lambda_sweep": [0.1, 0.01, 0.001]}},
        },
        "plane-families": {
            "cutoff": 4, "pad": 30, "order": 48, "planes": 3, "states": 2,
        },
    },
    "smoke": {
        "group-words": {
            "su11": {"model": {"cutoff": 8}, "run": {"dt": 2e-2}},
            "u2": {"model": {"cutoff": 6}, "run": {"dt": 2e-2, "n_pairs": 1}},
        },
        "gaussian-flows": {
            "rotation": {"model": {"cutoff": 6}, "run": {"t": 0.5}},
            "squeeze": {"model": {"cutoff": 12}, "run": {"t": 0.5}},
            "anomaly": {"model": {"cutoff": 8}},
            "dt_grid": [4e-2, 2e-2, 1e-2],
            "n_grid": [4, 8, 16],
        },
        "fiber-integrals": {
            "constrained": {"run": {"n_random": 3}},
            "packet": {"run": {"lambda_sweep": [0.1, 0.03, 0.01]}},
        },
        "plane-families": {
            "cutoff": 2, "pad": 30, "order": 48, "planes": 1, "states": 1,
        },
    },
}

# Operations whose inputs come from the seed, by name prefix.  They count in
# fail_ratio but not in margin_decades: their residuals move with the seed
# (a plane-family invariance residual spans 0.5-2.8 decades of margin), and
# margin_decades has to compare the program, not the seed.
SEEDED = {
    "group-words": ("u2/group-law-random-pairs",),
    "gaussian-flows": ("rotation/", "anomaly/"),
    "fiber-integrals": ("constrained/positivity", "constrained/decay-bound"),
    "plane-families": ("base/", "plane"),
}

# Left out of margin_decades as well: the first Picard term meets its
# factorial bound with equality, so this ratio is 1 = tolerance on every run
# and its margin is 0 by construction.
STRUCTURAL_EQUALITY = frozenset({"squeeze/picard-term-bound"})


@dataclass
class Op:
    """One operation of a pass and its verdict."""

    name: str
    ok: bool
    residual: Optional[float] = None
    tolerance: Optional[float] = None
    error: Optional[str] = None


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _override(base: dict, change: dict) -> dict:
    cfg = copy.deepcopy(base)
    for block in ("model", "run"):
        if change.get(block):
            cfg.setdefault(block, {}).update(change[block])
    return cfg


def make_configs(name: str, root: str, seed: int, size: str) -> dict:
    """Scenario configs of a workload: shipped configs, resized and seeded."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    sz = SIZES[size][name]
    rng = np.random.default_rng(seed)

    def shipped(scenario):
        return cli.load_config(os.path.join(root, "configs", f"{scenario}.yaml"))

    if name == "group-words":
        u2_run = {"seed": int(rng.integers(2**31))}
        return {
            "su11": _override(shipped("su11-metaplectic-loop"), sz["su11"]),
            "u2": _override(_override(shipped("u2-grouplaw"), sz["u2"]),
                            {"run": u2_run}),
        }
    if name == "gaussian-flows":
        rotation = {"model": {"omega": float(rng.uniform(0.7, 0.9)),
                              "hbar": float(rng.uniform(0.2, 0.4))}}
        anomaly = {"model": {"offset": float(rng.uniform(0.03, 0.07))}}
        return {
            "rotation": _override(_override(shipped("rotation"), sz["rotation"]),
                                  rotation),
            "squeeze": _override(shipped("squeeze"), sz["squeeze"]),
            "anomaly": _override(_override(shipped("anomaly-injection"),
                                           sz["anomaly"]), anomaly),
        }
    if name == "fiber-integrals":
        seeded = {"run": {"seed": int(rng.integers(2**31))}}
        return {
            "constrained": _override(_override(shipped("constrained-basics"),
                                               sz["constrained"]), seeded),
            "packet": _override(shipped("packet-harmonic"), sz["packet"]),
        }
    return {}


def write_configs(configs: dict, workdir: str) -> None:
    for label, cfg in configs.items():
        with open(os.path.join(workdir, f"{label}.yaml"), "w") as fh:
            yaml.safe_dump(cfg, fh)


def config_paths(name: str, workdir: str) -> dict:
    labels = {
        "group-words": ("su11", "u2"),
        "gaussian-flows": ("rotation", "squeeze", "anomaly"),
        "fiber-integrals": ("constrained", "packet"),
        "plane-families": (),
    }[name]
    return {label: os.path.join(workdir, f"{label}.yaml") for label in labels}


def _scenario_ops(label: str, cfg: dict):
    """Operations of one run_scenario call, and its deterministic body."""
    try:
        report = cli.run_scenario(copy.deepcopy(cfg))
    except Exception as exc:  # scored as a failed operation
        return [Op(f"{label}/run", False, error=_error(exc))], None
    ops = []
    for rec in report["checks"]:
        res = rec["residual"]
        ok = bool(rec["pass"]) and res is not None and math.isfinite(res)
        ops.append(Op(f"{label}/{rec['name']}", ok, res, rec["tolerance"],
                      rec.get("error")))
    try:
        json.dumps(report, allow_nan=False)
        ops.append(Op(f"{label}/strict-json", True))
    except ValueError as exc:
        ops.append(Op(f"{label}/strict-json", False, error=_error(exc)))
    return ops, cli.report_body(report)


def _sweep_op(label: str, cfg: dict, parameter: str, grid: list,
              expect: Callable[[float], bool], expectation: str) -> Op:
    try:
        result = cli.sweep(copy.deepcopy(cfg), parameter, grid)
        json.dumps(result, allow_nan=False)
    except Exception as exc:  # scored as a failed operation
        return Op(label, False, error=_error(exc))
    slope = result["slope"]
    finite = math.isfinite(slope) and all(math.isfinite(r)
                                          for _, r in result["rows"])
    if not finite:
        return Op(label, False, error="non-finite sweep residual or slope")
    if not expect(slope):
        return Op(label, False, error=f"slope {slope:.4g}, expected {expectation}")
    return Op(label, True)


class ScenarioWorkload:
    """Workloads made of scenario runs and sweeps on generated configs."""

    def __init__(self, name: str, seed: int, size: str, workdir: str):
        self.name = name
        self.seed = seed
        self.size = SIZES[size][name]
        self.paths = config_paths(name, workdir)
        self.cfgs = {}

    def setup(self) -> None:
        """What a user pays before the first check runs."""
        for label, path in self.paths.items():
            cfg = cli.load_config(path)
            errors = cli.validate_config(cfg)
            if errors:
                raise ValueError(f"{label}: " + "; ".join(errors))
            scenarios.build_checks(cfg["scenario"], cfg.get("model", {}),
                                   cfg.get("run", {}),
                                   cfg.get("run", {}).get("seed", 0))
            self.cfgs[label] = cfg

    def reference(self) -> list:
        return []

    def run_pass(self, index: int):
        ops, bodies = [], {}
        for label, cfg in self.cfgs.items():
            got, body = _scenario_ops(label, cfg)
            ops += got
            bodies[label] = body
        if self.name == "gaussian-flows":
            squeeze = self.cfgs["squeeze"]
            ops.append(_sweep_op("sweep-dt", squeeze, "dt", self.size["dt_grid"],
                                 lambda s: 3.5 <= s <= 4.5, "4 +- 0.5 (RK4 order)"))
            ops.append(_sweep_op("sweep-N", squeeze, "N", self.size["n_grid"],
                                 lambda s: s < 0, "< 0 (converges in N)"))
        return ops, bodies


class PlaneWorkload:
    """Two-axis constrained inner products on seeded 2-mode planes.

    Each pass draws a fresh base plane and fresh changed planes T (b1, b2),
    T a rotation times scalings near 1, so every plane builds a new
    displacement family whatever the program caches between passes.
    """

    def __init__(self, name: str, seed: int, size: str, workdir: str):
        self.name = name
        self.seed = seed
        sz = SIZES[size][name]
        self.size = sz
        self.basis = ModeBasis(2, sz["cutoff"])
        self.spec = constrained.QuadSpec(pad=sz["pad"], order=sz["order"],
                                         self_check=1e-7)

    def inputs(self, index: int):
        """Base vectors, plane transforms and grade-<=1 states of a pass."""
        rng = np.random.default_rng([self.seed, index])
        b1 = np.array([1.0, 0.3]) + 0.05 * rng.normal(size=2)
        b2 = np.array([-0.2, 0.9]) + 0.05 * rng.normal(size=2)
        transforms = [_rotation_scaling(rng.uniform(-math.pi, math.pi),
                                        rng.uniform(0.9, 1.1, size=2))
                      for _ in range(self.size["planes"])]
        states = []
        for _ in range((len(transforms) + 1) * self.size["states"]):
            c = rng.normal(size=self.basis.size) + 1j * rng.normal(
                size=self.basis.size)
            c[self.basis.totals > 1] = 0
            states.append(FockVector(self.basis, c / np.linalg.norm(c)))
        return b1, b2, transforms, states

    def setup(self) -> None:
        self.inputs(0)

    def reference(self) -> list:
        """The pair of tests/test_constrained.py's mixing test, whose inputs
        do not depend on the seed.  Run once per run, outside the timed
        passes: its families stay cached across passes, seeded ones do not."""
        return _plane_ops(self.basis, self.spec, np.array([1.0, 0.3]),
                          np.array([-0.2, 0.9]),
                          [_rotation_scaling(0.6, [1.1, 0.9])], [], "ref/")

    def run_pass(self, index: int):
        return _plane_ops(self.basis, self.spec, *self.inputs(index)), {}


def _rotation_scaling(theta, scales) -> np.ndarray:
    rot = np.array([[math.cos(theta), math.sin(theta)],
                    [-math.sin(theta), math.cos(theta)]])
    return rot @ np.diag(scales)


def _plane_ops(basis, spec, b1, b2, transforms, states, prefix=""):
    """Operations on the base plane (b1, b2) and the planes T (b1, b2).

    The base pairing is checked against its closed form 2 pi / sqrt(det G),
    each changed plane, carrying a = |det T|, against the base pairing, and
    every state's self pairing for positivity.
    """
    vac = vacuum_state(basis)
    planes = [constrained.make_plane([b1, b2])] + [
        constrained.make_plane([t[0, 0] * b1 + t[0, 1] * b2,
                                t[1, 0] * b1 + t[1, 1] * b2],
                               a=abs(np.linalg.det(t)))
        for t in transforms]
    exact = 2 * math.pi / math.sqrt(np.linalg.det(planes[0].gram().real))
    per_plane = len(states) // len(planes)
    ops = []
    base = exact
    for j, plane in enumerate(planes):
        if j == 0:
            op, value = _inner_op(f"{prefix}base/analytic", vac, plane, spec,
                                  exact)
            base = value if op.ok else exact
        else:
            op, _ = _inner_op(f"{prefix}plane{j}/invariance", vac, plane, spec,
                              base)
        ops.append(op)
        for s, y in enumerate(states[j * per_plane:(j + 1) * per_plane]):
            ops.append(_positivity_op(f"{prefix}plane{j}/positivity{s}", y,
                                      plane, spec))
    return ops


def _inner_op(name, vac, plane, spec, ref):
    """Vacuum pairing on a plane, compared with a reference value."""
    try:
        value = constrained.inner_constrained(vac, vac, plane, spec)
    except Exception as exc:  # scored as a failed operation
        return Op(name, False, error=_error(exc)), None
    tol = 1e-6 * max(1.0, abs(ref))
    residual = float(abs(value - ref))
    return Op(name, math.isfinite(residual) and residual <= tol, residual,
              tol), value


def _positivity_op(name, y, plane, spec) -> Op:
    try:
        value = constrained.inner_constrained(y, y, plane, spec)
    except Exception as exc:  # scored as a failed operation
        return Op(name, False, error=_error(exc))
    residual = max(0.0, -float(value.real))
    ok = math.isfinite(abs(value)) and residual <= 1e-10
    return Op(name, ok, residual, 1e-10)


def make(name: str, seed: int, size: str, workdir: str):
    if name == "plane-families":
        return PlaneWorkload(name, seed, size, workdir)
    return ScenarioWorkload(name, seed, size, workdir)


def margin_decades(name: str, ops):
    """Smallest log10(tolerance / residual) over the checks with a positive
    tolerance whose inputs do not depend on the seed, with the number of
    checks counted and the smallest one's name.  A residual of 0 or below
    has no finite margin and is skipped."""
    margins = [
        (math.log10(op.tolerance / op.residual), op.name)
        for op in ops
        if op.tolerance and op.tolerance > 0 and op.residual
        and op.residual > 0 and op.name not in STRUCTURAL_EQUALITY
        and not op.name.startswith(SEEDED[name])
    ]
    if not margins:
        return None, 0, None
    value, smallest = min(margins)
    return value, len(margins), smallest
