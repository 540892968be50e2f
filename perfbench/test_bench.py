"""Tests of the benchmark itself, at the smallest size of every workload.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from tracer import DETERMINISTIC  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def _smoke(workload, trace, seed=3):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_smoke_prints_every_metric_with_unit_and_samples():
    proc = _run("--all", "--size", "smoke", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for workload in WORKLOADS:
        for m in BENCH["end_to_end"]:
            prefix = f"{workload} trace=0: {m['name']} "
            line = next(x for x in lines if x.startswith(prefix))
            assert line.split()[-2] == m["unit"] and "(n=" in line
        assert any(x.startswith(f"{workload} trace=0: fail_ratio ")
                   for x in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat(workload):
    _, first = _smoke(workload, 1)
    _, second = _smoke(workload, 1)
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


def test_self_times_and_unattributed_add_up_to_traced_wall():
    _, result = _smoke("gaussian-flows", 1)
    values = {n: m["value"] for n, m in result["metrics"].items()}
    spans = sum(v for n, v in values.items() if n.endswith(".self_s"))
    total = spans + values["trace.bookkeeping_s"] + values["trace.unattributed_s"]
    assert math.isclose(total, values["trace.traced_wall_s"], rel_tol=1e-9)
    assert values["bogoliubov.integrate_flow.calls"] > 0


def test_same_seed_same_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    for name in WORKLOADS[:3]:
        first = workloads.make_configs(name, ROOT, 5, "full")
        assert first == workloads.make_configs(name, ROOT, 5, "full")
        assert first != workloads.make_configs(name, ROOT, 6, "full")
    planes = workloads.make("plane-families", 5, "smoke", None)
    first = planes.inputs(0)
    again = planes.inputs(0)
    assert all(np.array_equal(x, y) for x, y in zip(first[:2], again[:2]))
    assert all(np.array_equal(x, y) for x, y in zip(first[2], again[2]))
    assert not np.array_equal(first[0], planes.inputs(1)[0])


def test_result_line_and_pinned_environment():
    detail, result = _smoke("plane-families", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert detail["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
