import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nudgelab
from nudgelab import dynamics, harness
from nudgelab.cli import main
from nudgelab.config import save_config
from nudgelab.field import load_trajectory


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    save_config(path, cfg)
    return path


def test_missing_config_file_exits_3(tmp_path):
    code = main(["twin", "--config", str(tmp_path / "nope.json")])
    assert code == 3


def test_bad_flags_exit_3():
    assert main(["sweep", "--axis", "nonsense", "--values", "1"]) == 3
    assert main(["twin", "--frobnicate"]) == 3
    assert main(["twin", "--format", "csv"]) == 3
    # the truth run and the solver validation read no sampler
    assert main(["observe", "--seed", "1"]) == 3
    assert main(["validate", "--seed", "1"]) == 3


def test_bad_values_list_exits_3(tmp_path, determinism_config):
    cfg_path = write_config(tmp_path, determinism_config)
    code = main(
        ["sweep", "--config", str(cfg_path), "--axis", "delta", "--values", "a,b"]
    )
    assert code == 3


def test_non_finite_sweep_value_exits_3_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("integrate called for a non-finite sweep value")

    monkeypatch.setattr(harness, "integrate", no_run)
    out = tmp_path / "sweep"
    code = main(["sweep", "--axis", "lambda_rho", "--values", "10,nan,inf", "--out", str(out)])
    assert code == 3
    assert "--values must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"n_cells": 4}}))
    assert main(["observe", "--config", str(path)]) == 3


@pytest.mark.parametrize(
    "mutation",
    [
        {"eos": {"gamma": 4, "a": 0.45}},
        {"grid": {"length": "1"}},
        {"sampler": {"cell_cap": 5_000_000}},  # no longer a key
        {"outputs": {"format": "csv"}},  # no longer a key
    ],
)
def test_invalid_config_exits_3_before_any_run(tmp_path, monkeypatch, capsys, mutation):
    def no_run(*args, **kwargs):
        raise AssertionError("integrate called for an invalid config")

    monkeypatch.setattr(harness, "integrate", no_run)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutation))
    assert main(["observe", "--config", str(path), "--out", str(tmp_path / "obs")]) == 3
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation",
    [
        {"eos": {"a": 0.4}}, {"forcing": {"kind": "none"}}, {"initial": {"kind": "uniform"}},
        {"solver": {"safety": 0.4}}, {"solver": {"rho_floor": 1e-8}},
        {"solver": {"max_steps": 100}}, {"sync_init": "truth_at_start"},
    ],
)
def test_removed_model_keys_exit_3_as_unknown(tmp_path, capsys, mutation):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(mutation))
    assert main(["validate", "--config", str(path)]) == 3
    assert "unknown keys" in capsys.readouterr().err


def test_observe_writes_trajectory(tmp_path, determinism_config):
    cfg_path = write_config(tmp_path, determinism_config)
    out = tmp_path / "obs"
    code = main(["observe", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    traj = load_trajectory(out / "trajectory.csv")
    assert traj.n_snapshots > 10
    meta = json.loads((out / "observed_meta.json").read_text())
    assert meta["t_first"] == determinism_config.timeline.t_minus
    assert meta["rho_max"] > 0


def test_failed_observe_writes_the_error_record(tmp_path, monkeypatch, determinism_config):
    # a truth run that fails leaves what a twin's failed truth leaves: the
    # config echo and error.json, not an empty directory
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    cfg_path = write_config(tmp_path, determinism_config)
    out = tmp_path / "obs"
    assert main(["observe", "--config", str(cfg_path), "--out", str(out)]) == 1
    error = json.loads((out / "error.json").read_text())
    assert (error["run"], error["error"]) == ("truth", "BlowUpError")
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "error.json"]


def test_twin_and_audit_exit_codes(tmp_path, determinism_config):
    cfg_path = write_config(tmp_path, determinism_config)
    out = tmp_path / "twin"
    assert main(["twin", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["audit", "--out", str(out)]) == 0
    # a tampered verdict does not reproduce: the audit's own mismatch code
    body = json.loads((out / "report.json").read_text())
    body["verdicts"]["synchronized"] = False
    (out / "report.json").write_text(json.dumps(body))
    assert main(["audit", "--out", str(out)]) == 4


def test_twin_acceptance_failure_exit_code(tmp_path, capsys, lite_config):
    # the lite config violates the delta-smallness condition
    cfg_path = write_config(tmp_path, lite_config)
    out = tmp_path / "twin"
    assert main(["twin", "--config", str(cfg_path), "--out", str(out)]) == 2
    # its audit reproduces every stored verdict, one of them false: the
    # acceptance code, not the mismatch code
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert "audit: stored verdicts reproduced" in printed
    assert "FAIL  delta_smallness" in printed
    assert not any(line.startswith("MISMATCH") for line in printed)


def test_audit_rejects_a_tampered_time_column(tmp_path, capsys, lite_twin):
    # a report time copied onto the next row is no series a run makes: the
    # audit rejects it as a run failure instead of replaying it
    out = harness.persist_twin(lite_twin, tmp_path / "twin")
    path = out / "energy_series.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    rows[300] = rows[299].split(",", 1)[0] + "," + rows[300].split(",", 1)[1]
    path.write_text("".join([header, *rows]))
    assert main(["audit", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "energy report times must be strictly increasing" in captured.err
    assert "stored verdicts reproduced" not in captured.out


def _cut_series(out):
    path = out / "energy_series.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-5]))


def _move_one_chi_time(out):
    path = out / "forecast_chi.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    t, rest = rows[10].split(",", 1)
    rows[10] = f"{float(t) + 1e-4!r},{rest}"
    path.write_text("".join([header, *rows]))


@pytest.mark.parametrize("damage", [_cut_series, _move_one_chi_time], ids=["cut", "moved"])
def test_audit_rejects_a_series_that_does_not_match_forecast_chi(
    tmp_path, capsys, lite_twin, damage
):
    # the forecast rows of the series are the times of forecast_chi.csv: a
    # series cut short, or a chi time moved off its row, is a run failure,
    # reported in one line instead of a traceback
    out = harness.persist_twin(lite_twin, tmp_path / "twin")
    damage(out)
    assert main(["audit", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failure: ValueError:") and "forecast_chi.csv" in err
    assert "Traceback" not in err


def test_audit_rejects_a_report_that_is_not_an_object(tmp_path, capsys, lite_twin):
    # a report.json that parses to no JSON object is a run failure naming
    # the file, reported in one line instead of a traceback
    out = harness.persist_twin(lite_twin, tmp_path / "twin")
    (out / "report.json").write_text("[]\n")
    assert main(["audit", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failure: ValueError:") and "report.json: expected a JSON object" in err
    assert "Traceback" not in err


def test_validation_json_is_strict(tmp_path, monkeypatch):
    # a nudged run exact at the finest resolution gives an infinite nudged
    # order, which validation.json stores as null
    real = harness._mms_error

    def exact_finest(cfg, case, n, t0, t_final):
        if case.nudging is not None and n == harness.MMS_N_VALUES[-1]:
            return 0.0
        return real(cfg, case, n, t0, t_final)

    monkeypatch.setattr(harness, "_mms_error", exact_finest)

    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    assert main(["validate", "--out", str(tmp_path)]) == 2
    body = json.loads((tmp_path / "validation.json").read_text(), parse_constant=reject)
    assert body["nudged_orders"][-1] is None and "splitting_order" not in body
    assert (body["nudged_ok"], body["passed"]) == (False, False)


def test_seed_flag_changes_jittered_samples(tmp_path, determinism_config):
    cfg_path = write_config(tmp_path, determinism_config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["twin", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(
        ["twin", "--config", str(cfg_path), "--out", str(out_b), "--seed", "99"]
    ) == 0
    series_a = (out_a / "energy_series.csv").read_bytes()
    series_b = (out_b / "energy_series.csv").read_bytes()
    assert series_a != series_b  # different jitter, different samples


def test_sweep_cli(tmp_path, determinism_config):
    cfg_path = write_config(tmp_path, determinism_config)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(cfg_path),
            "--axis",
            "delta",
            "--values",
            "0.04,0.02",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["axis"] == "delta"
    assert summary["interp_non_increasing"] is True
    assert (out / "point_000" / "energy_series.csv").exists()


def test_default_output_root_env(tmp_path, determinism_config, monkeypatch):
    cfg_path = write_config(tmp_path, determinism_config)
    monkeypatch.setenv("NUDGELAB_OUT", str(tmp_path / "root"))
    assert main(["observe", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "root" / "observe" / "trajectory.csv").exists()


def _twin_and_audit_modules(tmp_path, cfg, package):
    """Exit codes of a twin and its audit in a fresh interpreter, and the
    modules of ``package`` loaded after them, as the printed line."""
    cfg_path, out = write_config(tmp_path, cfg), tmp_path / "twin"
    script = (
        "import sys\n"
        "from nudgelab.cli import main\n"
        f"codes = [main(['twin', '--config', {str(cfg_path)!r}, '--out', {str(out)!r}]),\n"
        f"         main(['audit', '--out', {str(out)!r}])]\n"
        f"print(codes, sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))\n"
    )
    src = str(Path(nudgelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_twin_loads_no_scipy(tmp_path, determinism_config):
    # the runtime depends on numpy alone: a twin and its audit, in a fresh
    # interpreter, import no scipy module
    assert _twin_and_audit_modules(tmp_path, determinism_config, "scipy") == "[0, 0] []"


def test_twin_loads_no_numpy_ma(tmp_path, lite_config):
    # np.quantile imports numpy.ma; no step of a twin or its audit needs it.
    # The lite twin fails a verdict (exit 2), which its audit reproduces
    assert _twin_and_audit_modules(tmp_path, lite_config, "numpy.ma") == "[2, 2] []"


@pytest.mark.parametrize(
    "mutation",
    [{"sampler": {"seed": -1}}, {"sampler": {"seed": -1}, "timeline": {"t_minus": 0.1}}],
)
def test_negative_seed_exits_3(tmp_path, capsys, mutation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutation))
    assert main(["twin", "--config", str(path), "--out", str(tmp_path / "twin")]) == 3
    assert "config error:" in capsys.readouterr().err
    assert main(["twin", "--seed", "-1", "--out", str(tmp_path / "twin")]) == 3
    assert not (tmp_path / "twin").exists()
