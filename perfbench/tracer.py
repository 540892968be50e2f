"""Per-layer spans and counts for the benchmark's traced run.

The tracer wraps public semiclab functions from outside the package.  A
span has a name, a start, an end and a parent (the span open when it
started); a layer's self time is its span minus the time of its child
spans.  Counts are derived from arguments and return values.  Every module
binding of a wrapped function is replaced, because ``symmetry`` and
``constrained`` import ``integrate_flow``, ``displacement_eig`` and
``integrate_box`` at module top; methods are wrapped on their class.  The
originals are restored when the traced pass ends.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Spans whose calls look a displacement family up; a family was built for
# the lookup when displacement_eig ran beneath it.
_LOOKUPS = ("constrained.inner_constrained_detailed",
            "constrained.regularized_inner")


class Tracer:
    """Spans of one traced pass, aggregated per name when they close."""

    def __init__(self):
        self._stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.keys = defaultdict(set)
        self.attributed_s = 0.0

    def open(self, name: str) -> list:
        # frame: name, child seconds, family built beneath, start
        frame = [name, 0.0, False, 0.0]
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        name, child, built, start = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if built:
            self.counts["constrained.family_builds"] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.attributed_s += duration

    def mark_family_build(self) -> None:
        for frame in reversed(self._stack):
            if frame[0] in _LOOKUPS:
                frame[2] = True
                return

    def wrap(self, name: str, fn, post=None):
        """``fn`` inside a span; ``post(tracer, args, kwargs, out)`` runs in
        a ``trace.bookkeeping`` span after it and returns the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if post is not None:
                frame = self.open("trace.bookkeeping")
                try:
                    out = post(self, args, kwargs, out)
                finally:
                    self.close(frame)
            return out

        return traced


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fixed_steps(t, dt):
    return max(1, int(math.ceil(t / dt - 1e-12))) if t > 0 else 0


def _count_quadratic_matrix(tr, args, kwargs, out):
    basis = _arg(args, kwargs, 1, "basis")
    dim = basis.size
    tr.maxima["fock.quadratic_matrix.dim_max"] = max(
        tr.maxima["fock.quadratic_matrix.dim_max"], dim)
    # _pair_product_stacks holds 3 d^2 dim^2 complex128 entries
    mb = 3 * basis.modes**2 * dim**2 * 16 / 1e6
    tr.maxima["fock.pair_stack_mb"] = max(tr.maxima["fock.pair_stack_mb"], mb)
    return out


def _count_displacement_eig(tr, args, kwargs, out):
    dim = _arg(args, kwargs, 1, "basis").size
    tr.maxima["fock.displacement_eig.dim_max"] = max(
        tr.maxima["fock.displacement_eig.dim_max"], dim)
    tr.mark_family_build()
    return out


def _count_integrate_flow(tr, args, kwargs, out):
    t = float(_arg(args, kwargs, 1, "t"))
    dt = float(_arg(args, kwargs, 2, "dt"))
    tr.counts["bogoliubov.integrate_flow.steps"] += len(out.times) - 1
    # a path is identified by the flow it produces
    tr.keys["bogoliubov.integrate_flow"].add(
        (t, dt, out.f.tobytes(), out.g.tobytes(), complex(out.c)))
    cond = float(np.max(np.linalg.cond(out.gs)))
    tr.maxima["bogoliubov.integrate_flow.max_cond_g"] = max(
        tr.maxima["bogoliubov.integrate_flow.max_cond_g"], cond)
    return out


def _count_propagator_from_flow(tr, args, kwargs, out):
    tr.counts["bogoliubov.propagator_from_flow.columns"] += \
        _arg(args, kwargs, 1, "basis").size
    return out


def _count_propagate_direct(tr, args, kwargs, out):
    tr.counts["bogoliubov.propagate_direct.steps"] += _fixed_steps(
        float(_arg(args, kwargs, 2, "t")), float(_arg(args, kwargs, 3, "dt")))
    return out


def _count_word_product(tr, args, kwargs, out):
    fam = _arg(args, kwargs, 0, "fam")
    word = _arg(args, kwargs, 1, "word")
    x = np.asarray(_arg(args, kwargs, 2, "x"), dtype=float)
    basis = _arg(args, kwargs, 3, "basis")
    dt = float(_arg(args, kwargs, 4, "dt", 1e-3))
    margin = _arg(args, kwargs, 5, "margin", 4)
    tr.keys["symmetry.word_product"].add(
        (fam.algebra.labels, word.factors, x.tobytes(), basis.modes,
         basis.cutoff, dt, margin))
    return out


def _count_integrate_box(tr, args, kwargs, out):
    # order-n rule, order-2n rule and 2k edge probes
    k = len(out.radius)
    tr.counts["quadrature.integrate_box.nodes"] += (
        (out.order // 2) ** k + out.order**k + 2 * k)
    return out


def _count_splitstep(tr, args, kwargs, out):
    t = float(_arg(args, kwargs, 2, "t"))
    dt = float(_arg(args, kwargs, 3, "dt"))
    tr.counts["packets.splitstep_evolve.steps"] += max(1, int(round(t / dt)))
    return out


def _count_shape_at(tr, args, kwargs, out):
    tr.counts["packets.ShapeFunction.at.points"] += np.size(
        _arg(args, kwargs, 1, "points"))
    return out


def _wrap_checks(tr, args, kwargs, out):
    return [dataclasses.replace(c, fn=tr.wrap("scenarios.check", c.fn))
            for c in out]


def _targets():
    from semiclab import (bogoliubov, cli, constrained, fock, packets,
                          quadrature, scenarios, symmetry)

    return [
        (fock.QuadraticGenerator, "__post_init__", "fock.QuadraticGenerator", None),
        (fock, "apply_ladder", "fock.apply_ladder", None),
        (fock, "quadratic_matrix", "fock.quadratic_matrix", _count_quadratic_matrix),
        (fock, "displacement_eig", "fock.displacement_eig", _count_displacement_eig),
        (bogoliubov, "integrate_flow", "bogoliubov.integrate_flow",
         _count_integrate_flow),
        (bogoliubov, "propagator_from_flow", "bogoliubov.propagator_from_flow",
         _count_propagator_from_flow),
        (bogoliubov, "propagate_direct", "bogoliubov.propagate_direct",
         _count_propagate_direct),
        (bogoliubov, "picard_flow", "bogoliubov.picard_flow", None),
        (bogoliubov, "compose_flows", "bogoliubov.compose_flows", None),
        (symmetry, "word_product", "symmetry.word_product", _count_word_product),
        (symmetry, "one_param_u", "symmetry.one_param_u", None),
        (symmetry, "second_kind_coords", "symmetry.second_kind_coords", None),
        (symmetry.ClassicalSystem, "trajectory",
         "symmetry.ClassicalSystem.trajectory", None),
        (symmetry, "check_group_law", "symmetry.check_group_law", None),
        (symmetry, "check_x6", "symmetry.check_x6", None),
        (symmetry, "omega_matrix", "symmetry.omega_matrix", None),
        (constrained, "inner_constrained_detailed",
         "constrained.inner_constrained_detailed", None),
        (constrained, "regularized_inner", "constrained.regularized_inner", None),
        (constrained, "invariance_check", "constrained.invariance_check", None),
        (quadrature, "integrate_box", "quadrature.integrate_box",
         _count_integrate_box),
        (packets, "splitstep_evolve", "packets.splitstep_evolve", _count_splitstep),
        (packets.ShapeFunction, "at", "packets.ShapeFunction.at", _count_shape_at),
        (packets, "k_lambda", "packets.k_lambda", None),
        (packets, "direct_inner", "packets.direct_inner", None),
        (packets, "asymptotic_inner", "packets.asymptotic_inner", None),
        (scenarios, "wkb_evolution_error", "scenarios.wkb_evolution_error", None),
        (scenarios, "build_checks", "scenarios.build_checks", _wrap_checks),
        (cli, "validate_config", "cli.validate_config", None),
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli, "sweep", "cli.sweep", None),
        (cli, "report_body", "cli.report_body", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of the traced functions; restore them on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "semiclab" or n.startswith("semiclab."))]
    restore = []
    try:
        for owner, attr, name, post in _targets():
            original = vars(owner)[attr]
            wrapped = tracer.wrap(name, original, post)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        restore.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


CALLS_AND_SELF = [
    "fock.QuadraticGenerator", "fock.apply_ladder", "fock.quadratic_matrix",
    "fock.displacement_eig", "bogoliubov.integrate_flow",
    "bogoliubov.propagator_from_flow", "bogoliubov.compose_flows",
    "bogoliubov.propagate_direct",
    "symmetry.word_product", "symmetry.second_kind_coords",
    "constrained.inner_constrained_detailed", "quadrature.integrate_box",
    "packets.splitstep_evolve", "packets.ShapeFunction.at",
]
SELF_ONLY = [
    "bogoliubov.picard_flow", "symmetry.one_param_u",
    "symmetry.ClassicalSystem.trajectory", "symmetry.check_group_law",
    "symmetry.check_x6", "symmetry.omega_matrix",
    "constrained.regularized_inner", "constrained.invariance_check",
    "packets.k_lambda", "packets.direct_inner", "packets.asymptotic_inner",
    "scenarios.wkb_evolution_error", "scenarios.build_checks", "scenarios.check",
    "cli.validate_config", "cli.run_scenario", "cli.sweep", "cli.report_body",
]
COUNTS = [
    ("bogoliubov.integrate_flow.steps", "count"),
    ("bogoliubov.propagator_from_flow.columns", "count"),
    ("bogoliubov.propagate_direct.steps", "count"),
    ("quadrature.integrate_box.nodes", "count"),
    ("packets.splitstep_evolve.steps", "count"),
    ("packets.ShapeFunction.at.points", "count"),
    ("fock.quadratic_matrix.dim_max", "count"),
    ("fock.displacement_eig.dim_max", "count"),
    ("fock.pair_stack_mb", "MB-computed"),
    ("bogoliubov.integrate_flow.max_cond_g", "1"),
]
RATIOS_HIGHER = [
    "bogoliubov.integrate_flow.unique_ratio",
    "symmetry.word_product.unique_ratio",
    "constrained.family_hit_ratio",
]
TRACE = [
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.bookkeeping_s", "s"),
]

# Counts that repeat exactly across runs with the same seed.
DETERMINISTIC = (
    [f"{n}.calls" for n in CALLS_AND_SELF]
    + [n for n, _ in COUNTS] + RATIOS_HIGHER
)


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better)."""
    spec = []
    for n in CALLS_AND_SELF:
        spec += [(f"{n}.calls", "count", "lower"), (f"{n}.self_s", "s", "lower")]
    spec += [(f"{n}.self_s", "s", "lower") for n in SELF_ONLY]
    spec += [(n, unit, "lower") for n, unit in COUNTS]
    spec += [(n, "ratio", "higher") for n in RATIOS_HIGHER]
    spec += [(n, unit, "lower") for n, unit in TRACE]
    return spec


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values of one traced pass.

    Idle layers read 0.  Self times of all spans (``trace.bookkeeping_s``
    included) plus ``trace.unattributed_s`` (the benchmark's own code between
    calls) add up to the traced wall time.
    """
    values = {}
    for n in CALLS_AND_SELF:
        values[f"{n}.calls"] = tr.calls[n]
        values[f"{n}.self_s"] = tr.self_s[n]
    for n in SELF_ONLY:
        values[f"{n}.self_s"] = tr.self_s[n]
    for n, _ in COUNTS:
        values[n] = tr.counts.get(n, tr.maxima.get(n, 0))
    for n in ("bogoliubov.integrate_flow", "symmetry.word_product"):
        calls = tr.calls[n]
        values[f"{n}.unique_ratio"] = len(tr.keys[n]) / calls if calls else 0.0
    lookups = sum(tr.calls[n] for n in _LOOKUPS)
    values["constrained.family_hit_ratio"] = (
        1.0 - tr.counts["constrained.family_builds"] / lookups if lookups else 0.0)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    values["trace.traced_wall_s"] = traced_wall
    values["trace.unattributed_s"] = traced_wall - tr.attributed_s
    values["trace.unattributed_share"] = (traced_wall - tr.attributed_s) / traced_wall
    values["trace.bookkeeping_s"] = tr.self_s["trace.bookkeeping"]
    return values
