import json
from pathlib import Path

import pytest
import yaml

from semiclab.cli import (
    build_checks,
    load_config,
    main,
    report_body,
    run_scenario,
    sweep,
    validate_config,
)
from semiclab.scenarios import SCENARIOS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_builtin_configs_validate():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(path)
        assert validate_config(cfg) == [], path.name


def test_validate_missing_scenario():
    assert any("scenario" in e for e in validate_config({}))


def test_validate_unknown_scenario():
    errs = validate_config({"scenario": "no-such-thing"})
    assert any("unknown scenario" in e for e in errs)


UNDECLARED = {
    "squeeze-model-hpp": ("squeeze.yaml", "model", "hpp",
                          {"rows": 1, "data": [[0.0, 0.0]]}),
    "u2-model-algebra": ("u2-grouplaw.yaml", "model", "algebra", "u2"),
    "run-tolerance": ("squeeze.yaml", "run", "tolerance", 1e-6),
    "run-misspelled-dt": ("rotation.yaml", "run", "dtt", 1e-3),
    "unknown-output": ("rotation.yaml", "output", "plot", "out.png"),
}


@pytest.mark.parametrize("case", sorted(UNDECLARED))
def test_undeclared_key_is_a_config_error(case, tmp_path):
    config, block, key, value = UNDECLARED[case]
    cfg = load_config(CONFIG_DIR / config)
    cfg.setdefault(block, {})[key] = value
    assert any(f"{block}.{key} is not a key" in e for e in validate_config(cfg))
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2


def test_unknown_top_level_key_is_a_config_error():
    cfg = load_config(CONFIG_DIR / "rotation.yaml")
    cfg["modle"] = {"cutoff": 8}
    assert any("'modle'" in e for e in validate_config(cfg))


@pytest.mark.parametrize("config, block, key, value", [
    ("rotation.yaml", "model", "cutoff", True),
    ("squeeze.yaml", "run", "dt", True),
    ("squeeze.yaml", "model", "kappa", False),
    ("u2-grouplaw.yaml", "run", "seed", True),
    ("packet-harmonic.yaml", "run", "lambda_sweep", [0.1, True, 0.001]),
    ("u2-grouplaw.yaml", "run", "n_pairs", -1),
    ("constrained-basics.yaml", "run", "n_random", -1),
    ("constrained-basics.yaml", "run", "n_random", 2.0),
    ("rotation.yaml", "run", "t", float("nan")),
    ("rotation.yaml", "output", "report", 5),
    # within the margin a restricted residual sees the vacuum alone, or nothing
    ("anomaly-injection.yaml", "model", "cutoff", 4),
    ("su11-metaplectic-loop.yaml", "model", "cutoff", 3),
    ("u2-grouplaw.yaml", "model", "cutoff", 4),
])
def test_values_of_the_wrong_kind_are_rejected(config, block, key, value,
                                               tmp_path):
    cfg = load_config(CONFIG_DIR / config)
    cfg.setdefault(block, {})[key] = value
    assert any(e.startswith(f"{block}.{key} must") for e in validate_config(cfg))
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("text", [
    "scenario: rotation\nmodel: {cutoff: true}\n",
    "scenario: squeeze\nrun: {dt: yes}\n",
])
def test_yaml_booleans_are_not_numbers(text, tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


def test_zero_counts_are_allowed():
    for config, key in (("u2-grouplaw.yaml", "n_pairs"),
                        ("constrained-basics.yaml", "n_random")):
        cfg = load_config(CONFIG_DIR / config)
        cfg["run"][key] = 0
        assert validate_config(cfg) == []


# rotation and squeeze checks share flows and propagations; the first
# constrained-basics run builds its displacement families, the second one
# reads them from the warm cache and builds none
@pytest.mark.parametrize("config", ["rotation", "squeeze", "constrained-basics"])
def test_run_scenario_deterministic_body(config, monkeypatch):
    from semiclab import constrained

    monkeypatch.setattr(constrained, "_FAMILY_CACHE", {})
    cfg = load_config(CONFIG_DIR / f"{config}.yaml")
    report = run_scenario(cfg)
    a = report_body(report)
    builds = []
    eig = constrained.displacement_eig
    monkeypatch.setattr(constrained, "displacement_eig",
                        lambda *args: builds.append(args) or eig(*args))
    b = report_body(run_scenario(cfg))
    assert a == b
    assert builds == []
    assert "timings" in report
    assert "timings" not in json.loads(a)


def test_report_records_have_anchors():
    cfg = load_config(CONFIG_DIR / "rotation.yaml")
    report = run_scenario(cfg)
    assert report["schema_version"] == 1
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for check in report["checks"]:
        assert check["anchor"]
        assert check["pass"] == (check["residual"] is not None
                                 and check["residual"] <= check["tolerance"])


def test_check_failure_recorded_not_raised():
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    cfg["run"]["dt"] = 0.5  # coarse step: residuals exceed tolerances
    report = run_scenario(cfg)
    assert not report["passed"]
    assert [c for c in report["checks"] if not c["pass"]]

    cfg2 = load_config(CONFIG_DIR / "squeeze.yaml")
    cfg2["run"]["t"] = 9.0  # outside the path domain: checks raise
    report2 = run_scenario(cfg2)
    assert not report2["passed"]
    errored = [c for c in report2["checks"] if "error" in c]
    assert errored
    # an exception in one check never aborts the others
    assert any(c["pass"] for c in report2["checks"])


def test_cli_exit_codes(tmp_path):
    good = CONFIG_DIR / "rotation.yaml"
    assert main(["run", str(good), "--out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r.json").exists()

    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: nope\n")
    assert main(["run", str(bad)]) == 2
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(good)]) == 0

    failing = tmp_path / "failing.yaml"
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    cfg["run"]["dt"] = 0.5
    failing.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(failing)]) == 1


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "squeeze" in out and "packet-harmonic" in out
    assert len(out) == 7


def test_sweep_dt_fourth_order(tmp_path):
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    result = sweep(cfg, "dt", [4e-2, 2e-2, 1e-2, 5e-3])
    assert result["slope"] == pytest.approx(4.0, abs=0.4)
    out = tmp_path / "sweep.csv"
    from semiclab.cli import sweep_to_csv

    sweep_to_csv(result, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dt,residual"
    assert lines[-1].startswith("loglog_slope")


def test_sweep_h_second_order():
    cfg = load_config(CONFIG_DIR / "su11-metaplectic-loop.yaml")
    result = sweep(cfg, "h", [4e-3, 2e-3, 1e-3])
    assert result["slope"] == pytest.approx(2.0, abs=0.3)


def test_sweep_needs_three_points():
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    with pytest.raises(ValueError):
        sweep(cfg, "dt", [1e-2])


def test_sweep_unsupported_combo():
    cfg = load_config(CONFIG_DIR / "rotation.yaml")
    with pytest.raises(ValueError):
        sweep(cfg, "lambda", [0.1, 0.01, 0.001])


def test_u2_has_no_h_sweep():
    # the h sweep probes su11's classical field algebra, and u2's checks
    # all sit at its fixed point X = 0, where no step h enters
    cfg = load_config(CONFIG_DIR / "u2-grouplaw.yaml")
    with pytest.raises(ValueError, match="supported: .*su11-metaplectic-loop h"):
        sweep(cfg, "h", [4e-3, 2e-3, 1e-3])


@pytest.mark.parametrize("parameter, grid", [
    ("dt", [1e-2, float("nan"), 5e-3]),
    ("dt", [1e-2, float("inf"), 5e-3]),
    ("dt", [1e-2, 0.0, 5e-3]),
    ("dt", [1e-2, -5e-3, 2.5e-3]),
    ("N", [8, 24.5, 64]),
])
def test_sweep_rejects_bad_grid_values(parameter, grid):
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    with pytest.raises(ValueError, match="grid value"):
        sweep(cfg, parameter, grid)


@pytest.mark.parametrize("parameter, grid", [
    ("dt", "1e-2,abc,5e-3"),
    ("N", "8,24.5,64"),
])
def test_cli_bad_sweep_grid_exits_2(parameter, grid):
    config = str(CONFIG_DIR / "squeeze.yaml")
    assert main(["sweep", config, "--param", parameter, "--grid", grid]) == 2


def test_sweep_n_takes_whole_floats():
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    cfg["run"]["t"] = 0.2
    result = sweep(cfg, "N", [4.0, 6.0, 8.0])
    assert [value for value, _ in result["rows"]] == [4.0, 6.0, 8.0]


def _strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_open_word_is_an_error_not_infinity(monkeypatch):
    from types import SimpleNamespace

    import semiclab.symmetry

    open_word = SimpleNamespace(classical_is_loop=False)
    monkeypatch.setattr(semiclab.symmetry, "word_product",
                        lambda *args, **kwargs: open_word)
    cfg = load_config(CONFIG_DIR / "u2-grouplaw.yaml")
    cfg["run"]["n_pairs"] = 0
    report = run_scenario(cfg)
    records = {c["name"]: c for c in _strict_loads(report_body(report))["checks"]}
    for name in ("contractible-loop", "commutator-word"):
        assert records[name]["residual"] is None
        assert records[name]["pass"] is False
        assert "does not close classically" in records[name]["error"]
    assert records["group-law-random-pairs"]["pass"] is True


def test_non_finite_residual_reported_as_null(monkeypatch, tmp_path):
    import semiclab.cli
    from semiclab.scenarios import Check

    monkeypatch.setattr(semiclab.cli, "build_checks", lambda *args: [
        Check("blows-up", "test.anchor", 1e-6, lambda: float("inf")),
        Check("undefined", "test.anchor", 1e-6, lambda: float("nan")),
    ])
    report = run_scenario(load_config(CONFIG_DIR / "rotation.yaml"))
    for record in _strict_loads(report_body(report))["checks"]:
        assert record["residual"] is None and record["pass"] is False
        assert "non-finite residual" in record["error"]
    out = tmp_path / "r.json"
    assert main(["run", str(CONFIG_DIR / "rotation.yaml"), "--out", str(out)]) == 1
    assert not _strict_loads(out.read_text())["passed"]


def test_semiclab_workers_is_ignored(monkeypatch, capsys):
    # checks run one after another; the variable selects nothing
    argv = ["run", str(CONFIG_DIR / "anomaly-injection.yaml")]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("SEMICLAB_WORKERS", "abc")
    assert main(argv) == 0
    assert capsys.readouterr().out == plain


class _RecordingDict(dict):
    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _keys_read(spec):
    """Model and run keys that building the checks reads; an undeclared
    key raises KeyError, as the settings hold only declared keys."""
    model, run = (_RecordingDict(s) for s in spec.settings({}, {}))
    spec.checks(model, run, 0)
    return model.read, run.read


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_checks_read_exactly_the_declared_keys(name):
    spec = SCENARIOS[name]
    assert _keys_read(spec) == (set(spec.model), set(spec.run))


def test_key_read_check_catches_unread_and_undeclared_keys():
    from semiclab.scenarios import CUTOFF, POSITIVE, Scenario

    unread = Scenario(model={"cutoff": (4, CUTOFF)}, run={"dt": (0.1, POSITIVE)},
                      checks=lambda model, run, seed: [model["cutoff"]])
    assert _keys_read(unread) != (set(unread.model), set(unread.run))
    undeclared = Scenario(model={"cutoff": (4, CUTOFF)}, run={},
                          checks=lambda model, run, seed: [run["dt"]])
    with pytest.raises(KeyError):
        _keys_read(undeclared)


def test_build_checks_computes_nothing(monkeypatch):
    from semiclab import bogoliubov, symmetry

    def refuse(*args, **kwargs):
        raise AssertionError("computed while building checks")

    for module, name in ((bogoliubov, "integrate_flow"),
                         (bogoliubov, "propagate_direct"),
                         (symmetry, "word_product")):
        monkeypatch.setattr(module, name, refuse)
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        cfg = load_config(path)
        checks = build_checks(cfg["scenario"], cfg.get("model", {}),
                              cfg.get("run", {}), 0)
        assert checks, path.name


_SHARED = ("integrate_flow", "propagate_direct", "word_product", "check_f3",
           "check_x6")


def _count_calls(monkeypatch, names=_SHARED):
    from collections import Counter

    from semiclab import bogoliubov, constrained, scenarios, symmetry

    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (bogoliubov, symmetry, constrained, scenarios):
        for name in names:
            if name in vars(module):
                monkeypatch.setattr(module, name,
                                    counted(name, vars(module)[name]))
    return counts


# quadratic_matrix: once per direct evolution on a constant path, and the
# three generators of check_x6, whose delta-terms are scalars; squeeze's two
# Picard checks read one series
@pytest.mark.parametrize("config, calls", [
    ("rotation.yaml", {"integrate_flow": 1, "propagate_direct": 1,
                       "quadratic_matrix": 1}),
    ("squeeze.yaml", {"integrate_flow": 1, "propagate_direct": 2,
                      "quadratic_matrix": 2, "picard_flow": 1}),
    ("su11-metaplectic-loop.yaml", {"word_product": 1}),
    ("anomaly-injection.yaml", {"check_f3": 1, "check_x6": 1,
                                "quadratic_matrix": 3}),
])
def test_shared_artifacts_are_computed_once(config, calls, monkeypatch):
    counts = _count_calls(monkeypatch,
                          _SHARED + ("quadratic_matrix", "picard_flow"))
    run_scenario(load_config(CONFIG_DIR / config))
    assert dict(counts) == calls


def test_picard_term_bound_reports_on_a_series_that_has_not_converged():
    # 25 terms of (kappa t)^n / n! at kappa t = 12 stay far above 1e-6: the
    # agreement check raises, the term bound still reports its ratio
    from semiclab.fock import ConvergenceError

    checks = {c.name: c for c in build_checks("squeeze", {"kappa": 12.0},
                                              {"t": 1.0}, 0)}
    with pytest.raises(ConvergenceError, match="not converged"):
        checks["picard-agreement"].fn()
    assert 0.0 < checks["picard-term-bound"].fn() <= 1.0


def test_shared_artifacts_are_computed_once_under_the_pool(monkeypatch):
    # the runner calls checks in order, but a caller may run a built check
    # list from its own threads; the lock in each shared artifact holds
    import concurrent.futures
    import sys

    counts = _count_calls(monkeypatch)
    cfg = load_config(CONFIG_DIR / "anomaly-injection.yaml")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(20):
                counts.clear()
                checks = build_checks(cfg["scenario"], cfg["model"],
                                      cfg["run"], 0)
                list(pool.map(lambda check: check.fn(), checks))
                assert dict(counts) == {"check_f3": 1, "check_x6": 1}
    finally:
        sys.setswitchinterval(interval)


def test_wkb_reference_is_built_once_per_check(monkeypatch):
    # one trajectory and one fiber evolution for the whole lambda sweep,
    # then one full evolution per lambda; the errors it fits are bitwise
    # those of wkb_evolution_error
    from collections import Counter

    from semiclab import bogoliubov, packets, scenarios

    counts, fitted = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fit = packets.fit_loglog_slope
    monkeypatch.setattr(packets, "splitstep_evolve",
                        counted("splitstep_evolve", packets.splitstep_evolve))
    monkeypatch.setattr(bogoliubov, "rk4_step",
                        counted("rk4_step", bogoliubov.rk4_step))
    monkeypatch.setattr(packets, "fit_loglog_slope",
                        lambda xs, ys: fitted.append(list(ys)) or fit(xs, ys))
    lams = [0.1, 0.01, 0.001]
    checks = scenarios.build_checks("packet-harmonic", {},
                                    {"lambda_sweep": lams}, 0)
    [wkb] = [c for c in checks if c.name == "wkb-form-slope"]
    wkb.fn()
    assert dict(counts) == {"splitstep_evolve": 4, "rk4_step": 4096}
    monkeypatch.undo()
    assert fitted == [[scenarios.wkb_evolution_error(lam) for lam in lams]]


def test_lambda_sweep_builds_one_wkb_reference(monkeypatch):
    from semiclab import scenarios

    lams = [0.1, 0.03, 0.01]
    counts = _count_calls(monkeypatch, ("rk4_step",))
    result = sweep(load_config(CONFIG_DIR / "packet-harmonic.yaml"), "lambda",
                   lams)
    assert dict(counts) == {"rk4_step": 4096}
    monkeypatch.undo()
    assert result["rows"] == [(lam, scenarios.wkb_evolution_error(lam))
                              for lam in lams]


def test_cutoff_sweep_integrates_one_flow(monkeypatch):
    from semiclab import scenarios

    cutoffs = [4.0, 6.0, 8.0]
    counts = _count_calls(monkeypatch, ("integrate_flow",))
    cfg = load_config(CONFIG_DIR / "squeeze.yaml")
    result = sweep(cfg, "N", cutoffs)
    assert dict(counts) == {"integrate_flow": 1}
    model, run = SCENARIOS["squeeze"].settings(cfg["model"], cfg["run"])
    per_value = []
    for n in cutoffs:
        checks = scenarios.build_checks("squeeze", {**model, "cutoff": int(n)},
                                        run, 0)
        [check] = [c for c in checks if c.name == "propagator-equivalence"]
        per_value.append((n, check.fn()))
    assert result["rows"] == per_value
