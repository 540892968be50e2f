"""Benchmark of semiclab, run from outside the package.

One workload per process, single-threaded:

    python3 perfbench/run.py --workload group-words --seed 1 --seconds 22 --trace 0

prints a detail line (samples, quartiles, environment) and, as its last
line, the result: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
alternates untraced and traced passes and reports per-layer metrics.

    python3 perfbench/run.py --all [--size smoke] [--trace 1]

runs every workload in its own process, prints every metric by name with
its unit and sample count, and checks names and units against
BENCHMARK.json.  The package is imported from ``src/`` of the checkout that
holds this file; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One worker and one BLAS/OpenMP thread: on a 2-core machine a second BLAS
# thread made the same u2 group-law pair take 2.3-3.9 s instead of 1.8-3.2 s.
PINNED_ENV = {
    "SEMICLAB_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = {"full": 3, "smoke": 1}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "margin_decades": "decades"}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_package():
    """Import semiclab and the benchmark modules from this checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "semiclab", "__init__.py")):
        raise ImportError(f"no semiclab sources under {src}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        raise ImportError(f"no scenario configs under {ROOT}")
    sys.path.insert(0, src)
    import semiclab

    where = os.path.dirname(os.path.abspath(semiclab.__file__))
    if where != os.path.join(src, "semiclab"):
        raise ImportError(f"semiclab imported from {where}, not {src}")
    import workloads

    return workloads


def _quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(values):
    q1, q3 = _quartiles(values)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _probe_setup(args, workdir: str) -> float:
    """Seconds from process start to the workload's first check being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", workdir]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _passes(wl, seconds: float, trace: bool):
    """Run passes until the next one would end after ``seconds`` (at least
    two; with tracing, untraced and traced passes alternate)."""
    from tracer import Tracer, installed

    records = []
    started = time.perf_counter()
    while True:
        index = len(records)
        tracer = Tracer() if trace and index % 2 == 1 else None
        if tracer is None:
            t0 = time.perf_counter()
            ops, bodies = wl.run_pass(index)
            wall = time.perf_counter() - t0
        else:
            with installed(tracer):
                t0 = time.perf_counter()
                ops, bodies = wl.run_pass(index)
                wall = time.perf_counter() - t0
        records.append({"wall": wall, "ops": ops, "bodies": bodies,
                        "tracer": tracer})
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall"] for r in records)
        if len(records) >= 2 and elapsed + typical > seconds:
            return records


def _score(workloads, reference, records):
    """Failed and attempted operations, with determinism across passes."""
    attempted, failed, errors = 0, 0, []
    first = records[0]["bodies"]
    for k, rec in enumerate(records):
        ops = list(rec["ops"]) + (reference if k == 0 else [])
        if k > 0:
            for label, body in rec["bodies"].items():
                ops.append(workloads.Op(f"{label}/determinism",
                                        body is not None and body == first[label],
                                        error="report body differs from pass 0"))
        attempted += len(ops)
        for op in ops:
            if not op.ok:
                failed += 1
                if len(errors) < 10:
                    errors.append(f"pass {k} {op.name}: {op.error or 'did not pass'}")
    return attempted, failed, errors


def measure(args) -> int:
    os.environ.update(PINNED_ENV)
    try:
        workloads = _import_package()
    except ImportError as exc:
        return _fail(str(exc))
    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}")
    if args.probe:
        wl = workloads.make(args.workload, args.seed, args.size, args.workdir)
        wl.setup()
        print("ready", flush=True)
        return 0

    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as workdir:
        workloads.write_configs(
            workloads.make_configs(args.workload, ROOT, args.seed, args.size),
            workdir)
        setup = [] if args.trace else [
            _probe_setup(args, workdir) for _ in range(SETUP_PROBES[args.size])]
        wl = workloads.make(args.workload, args.seed, args.size, workdir)
        wl.setup()
        reference = wl.reference()
        records = _passes(wl, args.seconds, bool(args.trace))
    attempted, failed, errors = _score(workloads, reference, records)
    margin, margin_n, margin_op = workloads.margin_decades(
        args.workload, reference + records[0]["ops"])
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "environment": _environment(),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio",
                       "n": attempted},
        "errors": errors,
    }
    if args.trace:
        from tracer import layer_metrics, per_layer_spec

        untraced = [r["wall"] for r in records if r["tracer"] is None]
        traced = sorted((r for r in records if r["tracer"] is not None),
                        key=lambda r: r["wall"])
        chosen = traced[(len(traced) - 1) // 2]
        values = layer_metrics(chosen["tracer"], chosen["wall"],
                               statistics.median(untraced))
        units = {n: u for n, u, _ in per_layer_spec()}
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
        detail["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        walls = [r["wall"] for r in records]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["samples"] = {
            "setup_s": _summary(setup),
            "wall_s": _summary(walls),
            "peak_rss_mb": {"n": 1},
            "margin_decades": {"n": margin_n, "smallest": margin_op},
        }
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak,
            "margin_decades": 0.0 if margin is None else margin,
        }
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and margin is not None,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; names and units checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = True
    for trace in ((0, 1) if args.trace else (0,)):
        for wl in bench["workloads"]:
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", wl["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(f"{wl['name']} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != expected[trace]:
                print(f"{wl['name']} trace={trace}: metric names or units differ "
                      "from BENCHMARK.json")
                ok = False
            if not result["correct"]:
                print(f"{wl['name']} trace={trace}: incorrect: {detail['errors']}")
                ok = False
            fr = detail["fail_ratio"]
            print(f"{wl['name']} trace={trace}: fail_ratio {fr['value']:.6g} "
                  f"{fr['unit']} (n={fr['n']})")
            # per-layer values come from one traced pass
            samples = detail.get("samples", {})
            for name, m in result["metrics"].items():
                n = samples[name]["n"] if name in samples else 1
                print(f"{wl['name']} trace={trace}: {name} {m['value']:.6g} "
                      f"{m['unit']} (n={n})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required unless --all is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
