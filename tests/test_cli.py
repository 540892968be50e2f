import json
from pathlib import Path

import pytest
import yaml

from semiclab.cli import (
    load_config,
    main,
    report_body,
    run_scenario,
    sweep,
    validate_config,
)

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


def test_validate_nonsymmetric_hpp():
    cfg = {
        "scenario": "squeeze",
        "model": {"hpp": {"rows": 2,
                          "data": [[0, 0], [1, 0], [2, 0], [0, 0]]}},
    }
    errs = validate_config(cfg)
    assert any("symmetric" in e for e in errs)


def test_validate_weight_below_one():
    cfg = {
        "scenario": "squeeze",
        "model": {"weight_t": {"rows": 1, "data": [[0.5, 0.0]]}},
    }
    errs = validate_config(cfg)
    assert any("eigenvalues >= 1" in e for e in errs)


def test_run_scenario_deterministic_body():
    cfg = load_config(CONFIG_DIR / "rotation.yaml")
    a = report_body(run_scenario(cfg))
    b = report_body(run_scenario(cfg))
    assert a == b
    report = run_scenario(cfg)
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


def test_worker_pool_gives_identical_report_body(monkeypatch):
    from semiclab import constrained

    cfg = load_config(CONFIG_DIR / "constrained-basics.yaml")
    bodies = []
    for workers in (1, 2):
        # an empty family cache, so both runs build their families
        monkeypatch.setattr(constrained, "_FAMILY_CACHE", {})
        bodies.append(report_body(run_scenario(cfg, workers=workers)))
    assert bodies[0] == bodies[1]
