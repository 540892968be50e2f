"""Scenario runner and report emitter.

Configurations are YAML documents naming a scenario, with up to three
blocks::

    scenario: squeeze
    model:
      cutoff: 24
      kappa: 0.2
    run:
      t: 1.0
      dt: 1.0e-3
      seed: 0
    output:
      report: report.json     # `run` writes the full report here
      table: sweep.csv        # `sweep` writes its table here

Each scenario declares the ``model`` and ``run`` keys it reads, with their
defaults, in ``semiclab.scenarios.SCENARIOS``; ``run.seed`` (the seed of the
randomized checks, recorded in the report) is accepted by every scenario.
Any other key, or a value of the wrong kind, is a configuration error.

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
import csv
import json
import math
import platform
import sys
import time
from typing import Optional, Sequence

import numpy as np
import yaml

from . import __version__
from .scenarios import INTEGER, SCENARIOS, Kind, build_checks

__all__ = ["load_config", "validate_config", "run_scenario", "report_body",
           "sweep", "sweep_to_csv", "main"]

SCHEMA_VERSION = 1

# keys the runner reads for every scenario, besides the scenario's own
_PATH = Kind("be a file path", lambda v: isinstance(v, str) and v != "")
_RUNNER_KEYS = {
    "model": {},
    "run": {"seed": INTEGER},
    "output": {"report": _PATH, "table": _PATH},
}


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("configuration root must be a mapping")
    return cfg


def validate_config(cfg: dict) -> list:
    """Full list of schema violations; empty means valid."""
    errors = [f"unknown top-level key {key!r}" for key in cfg
              if key not in ("scenario", *_RUNNER_KEYS)]
    scenario = cfg.get("scenario")
    spec = None
    if not scenario:
        errors.append("missing 'scenario'")
    elif not isinstance(scenario, str) or scenario not in SCENARIOS:
        errors.append(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    else:
        spec = SCENARIOS[scenario]
    for name, runner_keys in _RUNNER_KEYS.items():
        block = cfg.get(name, {})
        if not isinstance(block, dict):
            errors.append(f"'{name}' must be a mapping")
            continue
        if spec is None:
            continue
        declared = {"model": spec.model, "run": spec.run}.get(name, {})
        kinds = {key: kind for key, (_, kind) in declared.items()}
        kinds.update(runner_keys)
        for key, value in block.items():
            if key not in kinds:
                errors.append(
                    f"{name}.{key} is not a key of scenario {scenario!r}; "
                    f"it takes {sorted(kinds) or 'none'}")
            elif not kinds[key].ok(value):
                errors.append(f"{name}.{key} must {kinds[key].must}")
    return errors


def _environment() -> dict:
    return {
        "semiclab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_scenario(cfg: dict, seed: Optional[int] = None) -> dict:
    """Execute the scenario's checks in order and assemble the report."""
    errors = validate_config(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    scenario = cfg["scenario"]
    model = cfg.get("model", {})
    run = cfg.get("run", {})
    if seed is None:
        seed = run.get("seed", 0)
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


def sweep(cfg: dict, parameter: str, grid: Sequence[float]) -> dict:
    """Run one residual across a parameter grid; fit the log-log slope."""
    from .packets import fit_loglog_slope

    errors = validate_config(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    scenario = cfg["scenario"]
    spec = SCENARIOS[scenario]
    if parameter not in spec.sweeps:
        supported = [f"{name} {p}" for name, s in SCENARIOS.items()
                     for p in s.sweeps]
        raise ValueError(
            f"scenario {scenario!r} has no sweep over {parameter!r}; "
            f"supported: {', '.join(supported)}")
    kind, prepare = spec.sweeps[parameter]
    grid = [float(v) for v in grid]
    if len(grid) < 3:
        raise ValueError("need at least three grid points to fit a slope")
    bad = [v for v in grid if not kind.ok(v)]
    if bad:
        raise ValueError(f"every {parameter} grid value must {kind.must}; "
                         f"got {bad}")
    model, run = spec.settings(cfg.get("model", {}), cfg.get("run", {}))
    residual = prepare(model, run)
    rows = [(value, residual(value)) for value in grid]
    slope = fit_loglog_slope(grid, [r for _, r in rows], floor=1e-300)
    return {"parameter": parameter, "rows": rows, "slope": slope}


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
    p_sweep.add_argument("--param", required=True, choices=sorted(
        {p for spec in SCENARIOS.values() for p in spec.sweeps}))
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
        try:
            report = run_scenario(cfg, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = args.out or cfg.get("output", {}).get("report")
        body = report_body(report)
        if out:
            with open(out, "w") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True,
                                    allow_nan=False))
        print(body)
        return 0 if report["passed"] else 1

    if args.command == "sweep":
        try:
            grid = [float(v) for v in args.grid.split(",") if v]
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
