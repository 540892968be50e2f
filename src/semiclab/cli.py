"""Scenario runner and report emitter.

Configurations are YAML documents with three blocks::

    scenario: squeeze
    model:
      cutoff: 24
      kappa: 0.2
      algebra: su11          # heisenberg | u2 | su11 | custom-matrices
      hpp: {rows: 1, data: [[0.0, 0.0]]}   # row-major [re, im] pairs
    run:
      dt: 1.0e-3
      h: 1.0e-4
      lambda_sweep: [0.1, 0.01, 0.001, 0.0001]
      seed: 0
    output:
      report: report.json

Reports are strict JSON with one record per executed check, each carrying
its anchor string, residual, tolerance and verdict (a check that raises or
returns a non-finite residual is recorded with a null residual, a failed
verdict and the error); the report body is
deterministic for a fixed config (timings live in a separate key that is
excluded from the determinism contract).  Exit codes: 0 all checks passed,
1 at least one check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import platform
import sys
import time
from typing import Optional, Sequence

import numpy as np
import yaml

from . import __version__
from .scenarios import SCENARIOS, build_checks

__all__ = ["load_config", "validate_config", "run_scenario", "sweep", "main"]

SCHEMA_VERSION = 1

_KNOWN_ALGEBRAS = ("heisenberg", "u2", "su11", "custom-matrices")


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("configuration root must be a mapping")
    return cfg


def _parse_matrix(spec, name: str, errors: list) -> Optional[np.ndarray]:
    if not isinstance(spec, dict) or "rows" not in spec or "data" not in spec:
        errors.append(f"{name}: matrix needs 'rows' and row-major 'data' pairs")
        return None
    rows = spec["rows"]
    data = spec["data"]
    if len(data) != rows * rows:
        errors.append(f"{name}: expected {rows * rows} entries, got {len(data)}")
        return None
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError):
        errors.append(f"{name}: entries must be [re, im] pairs")
        return None
    return flat.reshape(rows, rows)


def validate_config(cfg: dict) -> list:
    """Full list of schema violations; empty means valid."""
    errors = []
    scenario = cfg.get("scenario")
    if not scenario:
        errors.append("missing 'scenario'")
    elif scenario not in SCENARIOS:
        errors.append(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    model = cfg.get("model", {})
    run = cfg.get("run", {})
    for block, name in ((model, "model"), (run, "run")):
        if not isinstance(block, dict):
            errors.append(f"'{name}' must be a mapping")
            return errors
    algebra = model.get("algebra")
    if algebra is not None and algebra not in _KNOWN_ALGEBRAS:
        errors.append(
            f"model.algebra {algebra!r} not one of {_KNOWN_ALGEBRAS}")
    cutoff = model.get("cutoff")
    if cutoff is not None and (not isinstance(cutoff, int) or cutoff < 1):
        errors.append("model.cutoff must be a positive integer")
    for key in ("hpp", "hpm", "weight_t"):
        if key in model:
            mat = _parse_matrix(model[key], f"model.{key}", errors)
            if mat is None:
                continue
            if key == "hpp" and not np.allclose(mat, mat.T, atol=1e-12):
                errors.append("model.hpp must be symmetric")
            if key == "hpm" and not np.allclose(mat, mat.conj().T, atol=1e-12):
                errors.append("model.hpm must be Hermitian")
            if key == "weight_t":
                if not np.allclose(mat, mat.conj().T, atol=1e-12):
                    errors.append("model.weight_t must be Hermitian")
                elif np.linalg.eigvalsh(mat).min() < 1.0 - 1e-12:
                    errors.append("model.weight_t must have eigenvalues >= 1")
    for key in ("dt", "h", "t", "tolerance"):
        if key in run and not (isinstance(run[key], (int, float))
                               and run[key] > 0):
            errors.append(f"run.{key} must be a positive number")
    sweep_vals = run.get("lambda_sweep")
    if sweep_vals is not None:
        if (not isinstance(sweep_vals, list) or len(sweep_vals) < 2
                or any(not isinstance(v, (int, float)) or v <= 0
                       for v in sweep_vals)):
            errors.append("run.lambda_sweep must list at least two positive values")
    seed = run.get("seed")
    if seed is not None and not isinstance(seed, int):
        errors.append("run.seed must be an integer")
    out = cfg.get("output", {})
    if out and not isinstance(out, dict):
        errors.append("'output' must be a mapping")
    return errors


def _environment() -> dict:
    return {
        "semiclab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_scenario(cfg: dict, seed: Optional[int] = None,
                 workers: Optional[int] = None) -> dict:
    """Execute the scenario's checks and assemble the report."""
    errors = validate_config(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    scenario = cfg["scenario"]
    model = cfg.get("model", {})
    run = cfg.get("run", {})
    if seed is None:
        seed = run.get("seed", 0)
    if workers is None:
        workers = int(os.environ.get("SEMICLAB_WORKERS", "1"))
    checks = build_checks(scenario, model, run, seed)

    def execute(check):
        started = time.perf_counter()
        try:
            residual = float(check.fn())
            if not math.isfinite(residual):
                raise ValueError(f"check returned a non-finite residual ({residual})")
            record = {
                "name": check.name,
                "anchor": check.anchor,
                "residual": residual,
                "tolerance": check.tolerance,
                "pass": bool(residual <= check.tolerance),
            }
        except Exception as exc:  # recorded, never aborts the suite
            record = {
                "name": check.name,
                "anchor": check.anchor,
                "residual": None,
                "tolerance": check.tolerance,
                "pass": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return record, time.perf_counter() - started

    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(execute, checks))
    else:
        outcomes = [execute(c) for c in checks]
    records = sorted((r for r, _ in outcomes), key=lambda r: r["name"])
    timings = {rec["name"]: round(t, 6) for rec, t in outcomes}
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "seed": seed,
        "environment": _environment(),
        "checks": records,
        "passed": all(r["pass"] for r in records),
        "timings": timings,
    }
    return report


def report_body(report: dict) -> str:
    """Deterministic serialization: everything except timings."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(body, indent=2, sort_keys=True, allow_nan=False)


_SWEEPABLE = {
    ("squeeze", "dt"),
    ("rotation", "dt"),
    ("squeeze", "N"),
    ("u2-grouplaw", "h"),
    ("su11-metaplectic-loop", "h"),
    ("packet-harmonic", "lambda"),
}


def sweep(cfg: dict, parameter: str, grid: Sequence[float]) -> dict:
    """Run one residual across a parameter grid; fit the log-log slope."""
    errors = validate_config(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    scenario = cfg["scenario"]
    if (scenario, parameter) not in _SWEEPABLE:
        raise ValueError(
            f"scenario {scenario!r} has no sweep over {parameter!r}; "
            f"supported: {sorted(_SWEEPABLE)}")
    grid = [float(v) for v in grid]
    if len(grid) < 3:
        raise ValueError("need at least three grid points to fit a slope")
    model = dict(cfg.get("model", {}))
    run = dict(cfg.get("run", {}))
    rows = []
    for value in grid:
        if parameter == "dt":
            residual = _flow_invariant_residual(scenario, model, run, value)
        elif parameter == "N":
            residual = _equivalence_residual(model, run, int(value))
        elif parameter == "h":
            residual = _field_algebra_residual(scenario, value)
        elif parameter == "lambda":
            from .scenarios import wkb_evolution_error

            residual = wkb_evolution_error(value)
        rows.append((value, residual))
    xs = np.array([r[0] for r in rows])
    ys = np.maximum(np.array([r[1] for r in rows]), 1e-300)
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return {"parameter": parameter, "rows": rows, "slope": slope}


def _flow_invariant_residual(scenario, model, run, dt):
    # the dt sweep measures integrator order on the mixed reference path by
    # self-convergence against an 8x refined step (the canonical-relation
    # residuals themselves superconverge through drift cancellation)
    from .bogoliubov import integrate_flow
    from .scenarios import mixed_rotation_squeeze_path

    path = mixed_rotation_squeeze_path()
    t = run.get("t", 2.0)
    coarse = integrate_flow(path, t, dt, residual_tol=None)
    fine = integrate_flow(path, t, dt / 8, residual_tol=None)
    return float(np.linalg.norm(coarse.f - fine.f)
                 + np.linalg.norm(coarse.g - fine.g))


def _equivalence_residual(model, run, cutoff):
    from .bogoliubov import CreatedState, integrate_flow, propagate_direct, \
        propagate_gaussian
    from .fock import ModeBasis, vacuum_state
    from .scenarios import _flow_paths

    path = _flow_paths("squeeze", model)
    t = run.get("t", 1.0)
    dt = run.get("dt", 1e-3)
    basis = ModeBasis(1, cutoff)
    flow = integrate_flow(path, t, dt)
    gauss = propagate_gaussian(CreatedState(), flow, basis)
    direct = propagate_direct(vacuum_state(basis), path, t, dt)
    return float(np.linalg.norm(gauss.coeffs - direct.state.coeffs))


def _field_algebra_residual(scenario, h):
    from .scenarios import su11_family, u2_family
    from .symmetry import check_vector_field_algebra

    fam = su11_family() if scenario == "su11-metaplectic-loop" else u2_family()
    if scenario == "u2-grouplaw":
        # trivial classical action: use the su11 system for the h-sweep
        fam = su11_family()
    x = np.array([0.0, 0.8, -0.3])
    a = np.array([1.0, 0.2, 0.0])
    b = np.array([0.0, 0.4, 1.0])
    return check_vector_field_algebra(fam.system, fam.algebra, a, b, x, h=h)


def sweep_to_csv(result: dict, path_out):
    with open(path_out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([result["parameter"], "residual"])
        for value, residual in result["rows"]:
            w.writerow([f"{value:.12g}", f"{residual:.15g}"])
        w.writerow(["loglog_slope", f"{result['slope']:.6g}"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiclab",
        description="scenario runner for the semiclassical laboratory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario's checks")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="report path (JSON)")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         choices=["lambda", "dt", "h", "N"])
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--out", default=None, help="table path (CSV)")

    p_val = sub.add_parser("validate", help="validate a configuration")
    p_val.add_argument("config")

    sub.add_parser("list-scenarios", help="list builtin scenarios")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(name)
        return 0

    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: cannot load configuration: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        problems = validate_config(cfg)
        for p in problems:
            print(p)
        return 0 if not problems else 2

    problems = validate_config(cfg)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2

    if args.command == "run":
        report = run_scenario(cfg, seed=args.seed)
        out = args.out or cfg.get("output", {}).get("report")
        body = report_body(report)
        if out:
            with open(out, "w") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True,
                                    allow_nan=False))
        print(body)
        return 0 if report["passed"] else 1

    if args.command == "sweep":
        grid = [float(v) for v in args.grid.split(",") if v]
        try:
            result = sweep(cfg, args.param, grid)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = args.out or cfg.get("output", {}).get("table")
        if out:
            sweep_to_csv(result, out)
        for value, residual in result["rows"]:
            print(f"{value:.6g}, {residual:.9e}")
        print(f"loglog_slope, {result['slope']:.6g}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
