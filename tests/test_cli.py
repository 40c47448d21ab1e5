import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nudgelab
from nudgelab import cli, dynamics, harness
from nudgelab.cli import main
from nudgelab.config import build_forcing, build_tiling, save_config
from nudgelab.field import MAX_GRID_CELLS, Grid1D, load_trajectory
from nudgelab.sampler import sample


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    save_config(path, cfg)
    return path


def test_missing_config_file_exits_3(tmp_path):
    code = main(["twin", "--config", str(tmp_path / "nope.json")])
    assert code == 3


def _config_directory(tmp_path):
    path = tmp_path / "config_dir"
    path.mkdir()
    return path


def _non_utf8_config(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"grid": {"n_cells": 64}} é'.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "unreadable", [_config_directory, _non_utf8_config], ids=["directory", "not_utf8"]
)
def test_unreadable_config_exits_3_before_any_run(tmp_path, capsys, unreadable):
    out = tmp_path / "twin"
    code = main(["twin", "--config", str(unreadable(tmp_path)), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_audit_of_an_unreadable_config_echo_exits_3(tmp_path, capsys):
    (tmp_path / "config.json").write_bytes(b"\xff\xfe{}")
    assert main(["audit", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("config error:")


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
        # the measurements file and its switch are gone with the section
        {"outputs": {"write_measurements": False}},
    ],
)
def test_removed_model_keys_exit_3_as_unknown(tmp_path, capsys, mutation):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(mutation))
    assert main(["validate", "--config", str(path)]) == 3
    assert "unknown keys" in capsys.readouterr().err


def test_negative_gain_exits_3_naming_the_nudging_section(tmp_path, capsys):
    # the nudging section is the run's NudgingConfig: its constructor
    # rejects the gain as the file form is read, before any run
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nudging": {"lambda_rho": -1}}))
    out = tmp_path / "twin"
    assert main(["twin", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "config error: nudging: gains must be nonnegative\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "delta, placement",
    [(0.02, "center"), (0.02, "jittered"), (0.3, "jittered")],
    ids=["center", "jittered", "slab_wider_than_a_block"],
)
def test_twin_samples_are_the_observed_files_samples(tmp_path, monkeypatch, lite_config, delta, placement):
    # a twin writes no samples: each slab window that its nudged blocks
    # read is, bit for bit, those slabs of the truth that observe writes,
    # sampled on the config's tiling.  Each block that starts before T
    # samples its window afresh, from the slab of its start (0.0 for the
    # first block, which starts at t_minus) through that of its end; later
    # blocks sample nothing.  At delta 0.3 a slab spans several blocks,
    # and each of them reads it
    cfg = dataclasses.replace(lite_config, sampler=dataclasses.replace(
        lite_config.sampler, delta=delta, placement=placement, seed=5
    ))
    obs = tmp_path / "obs"
    assert main(["observe", "--config", str(write_config(tmp_path, cfg)), "--out", str(obs)]) == 0
    whole = sample(load_trajectory(obs / "trajectory.csv"), build_tiling(cfg))
    dec, T = whole.decomposition, cfg.timeline.t_assim_end
    read, sampled = [], []
    real_integrate, real_sample = harness.integrate, harness.sample

    def recording_integrate(grid, initial, t_end, eos, visc, forcing, ms=None, nudging=None, **kw):
        if nudging is not None:  # a nudged block, not a truth block
            read.append((max(initial.time, 0.0), t_end, ms))
        return real_integrate(grid, initial, t_end, eos, visc, forcing, ms, nudging, **kw)

    def recording_sample(traj, dec, slabs=slice(None)):
        sampled.append(real_sample(traj, dec, slabs))
        return sampled[-1]

    monkeypatch.setattr(harness, "integrate", recording_integrate)
    monkeypatch.setattr(harness, "sample", recording_sample)
    harness.run_twin(cfg)
    starts = [start for start, _, _ in read]
    assert len(sampled) == sum(start < T for start in starts) < len(read)
    slabs = set()
    for i, (start, t_end, ms) in enumerate(read):
        rows = slice(ms.first_slab, ms.first_slab + len(ms.r_sample))
        assert ms.blocks.tolist() == whole.blocks.tolist()
        assert ms.r_sample.tobytes() == whole.r_sample[rows].tobytes()
        assert ms.U_sample.tobytes() == whole.U_sample[rows].tobytes()
        if start < T:
            assert ms is sampled[i]
            assert (rows.start, rows.stop) == (
                dec.time_slab_index(start), dec.time_slab_index(min(t_end, T)) + 1
            )
        slabs.update(range(rows.start, rows.stop))
    assert len(read) > 2 and slabs == set(range(dec.n_time_slabs))
    if delta == 0.3:
        # (first slab, slabs) of each block's window: slabs 0 and 1 are
        # each read by two blocks, and the forecast blocks read the last set
        windows = [(ms.first_slab, len(ms.r_sample)) for _, _, ms in read]
        assert windows == [(0, 1), (0, 2), (1, 2), *[(2, 1)] * 4]


def test_observe_writes_the_runs_bounds_once(tmp_path, determinism_config):
    # the sup bounds are the truth run's statistics, written to
    # observed_meta.json alone; the trajectory's comment line keeps the length
    cfg_path = write_config(tmp_path, determinism_config)
    out = tmp_path / "obs"
    assert main(["observe", "--config", str(cfg_path), "--out", str(out)]) == 0
    stats = harness.run_observed(determinism_config)[1]
    meta = json.loads((out / "observed_meta.json").read_text())
    assert (meta["rho_max"], meta["speed_max"]) == (stats.rho_max, stats.speed_max)
    assert meta["forcing_max"] == build_forcing(determinism_config).bound > 0
    with open(out / "trajectory.csv") as fh:
        assert fh.readline() == "# length=1\n"


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


# the vacuum config of CI's "Invalid and failed runs": its truth fails
VACUUM_CONFIG = {"grid": {"n_cells": 32}, "forcing": {"amplitude": 1e4},
                 "timeline": {"t_minus": -0.1, "t_assim_end": 0.1, "t_plus": 0.2}}


@pytest.mark.parametrize(
    "first, then",
    [
        (("twin", "vacuum"), ("twin", "passing")),
        (("twin", "passing"), ("twin", "vacuum")),
        (("observe", "passing"), ("observe", "vacuum")),
        (("observe", "vacuum"), ("observe", "passing")),
    ],
    ids=["twin_after_failed_twin", "failed_twin_after_twin",
         "failed_observe_after_observe", "observe_after_failed_observe"],
)
def test_a_runs_output_directory_describes_that_run(tmp_path, determinism_config, first, then):
    # each writer removes the run files that it does not write: a run into
    # the directory of an earlier one leaves the files that it leaves in an
    # empty directory, whichever of the two failed
    configs = {"passing": write_config(tmp_path, determinism_config),
               "vacuum": tmp_path / "vacuum.json"}
    configs["vacuum"].write_text(json.dumps(VACUUM_CONFIG))

    def run(step, out):
        command, config = step
        return main([command, "--config", str(configs[config]), "--out", str(out)])

    out, alone = tmp_path / "out", tmp_path / "alone"
    codes = [run(first, out), run(then, out)]
    assert codes == [1 if step[1] == "vacuum" else 0 for step in (first, then)]
    assert run(then, alone) == codes[1]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in alone.iterdir())
    if then == ("twin", "vacuum"):
        # the failed run has no report to replay: a run failure, not a mismatch
        assert not (out / "report.json").exists()
        assert main(["audit", "--out", str(out)]) == 1


def test_an_unallocatable_grid_is_a_config_error(tmp_path, capsys):
    # the cell bound is checked before any array of the grid exists, so a
    # grid of 1e12 cells (7.28 TiB of centers) allocates nothing
    assert Grid1D(MAX_GRID_CELLS, 1.0).n_cells == MAX_GRID_CELLS
    with pytest.raises(ValueError, match=f"MAX_GRID_CELLS={MAX_GRID_CELLS}"):
        Grid1D(MAX_GRID_CELLS + 1, 1.0)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"grid": {"n_cells": 10**12}}))
    out = tmp_path / "twin"
    assert main(["twin", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"config error: grid: n_cells must be at most MAX_GRID_CELLS={MAX_GRID_CELLS}\n"
    )
    assert not out.exists()


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


def test_audit_of_a_report_with_a_removed_key_is_a_mismatch(tmp_path, capsys, lite_twin):
    # a report.json written before values.data_norm was removed replays as
    # a mismatch on that key, not as a pass
    out = harness.persist_twin(lite_twin, tmp_path / "twin")
    body = json.loads((out / "report.json").read_text())
    body["values"]["data_norm"] = 7.738485798820634
    (out / "report.json").write_text(json.dumps(body))
    assert main(["audit", "--out", str(out)]) == 4
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("MISMATCH")] == [
        "MISMATCH  value 'data_norm': stored 7.738485798820634 recomputed missing"
    ]


def _cut_series(out):
    path = out / "energy_series.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-5]))


def _move_one_chi_time(out):
    path = out / "forecast_chi.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    t, rest = rows[10].split(",", 1)
    rows[10] = f"{float(t) + 1e-4!r},{rest}"
    path.write_text("".join([header, *rows]))


@pytest.mark.parametrize("name", ["energy_series.csv", "forecast_chi.csv"])
def test_audit_of_a_table_with_no_rows_exits_1(tmp_path, capsys, lite_twin, name):
    # a table cut to its header is no series a run writes: one line naming
    # the file, with no numpy warning and no traceback
    out = harness.persist_twin(lite_twin, tmp_path / "twin")
    path = out / name
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["audit", "--out", str(out)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"run failure: ValueError: {path}: no rows\n"


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


@pytest.mark.parametrize(
    "errors, floor, rate, code",
    [
        ([None, None], True, True, 0),
        ([None, None], True, False, 2),
        ([None, None], False, True, 2),
        ([None, "BlowUpError: x"], False, False, 1),
    ],
)
def test_sweep_exit_code_follows_its_verdicts(tmp_path, monkeypatch, errors, floor, rate, code):
    # a failed point exits 1, else a false monotone verdict exits 2
    none = [None, None]
    report = harness.SweepReport(
        axis="lambda_rho", values=[10.0, 20.0], points=none, errors=errors, floors=none,
        rates=none, interp_errors=none, floor_non_increasing=floor,
        rate_non_decreasing=rate, interp_non_increasing=True,
    )
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: report)
    argv = ["sweep", "--axis", "lambda_rho", "--values", "10,20", "--out", str(tmp_path)]
    assert main(argv) == code


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


def test_jittered_twin_and_its_measurements_load_no_numpy_random(tmp_path, determinism_config):
    # the jitter is counter-based: a jittered twin, which draws the control
    # points of every slab it samples, and its audit never import numpy.random
    assert determinism_config.sampler.placement == "jittered"
    assert _twin_and_audit_modules(tmp_path, determinism_config, "numpy.random") == "[0, 0] []"


def test_seed_beyond_64_bits_exits_3(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"sampler": {"placement": "jittered", "seed": 2**64}}))
    assert main(["twin", "--config", str(path), "--out", str(tmp_path / "twin")]) == 3
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert main(["twin", "--seed", str(2**64), "--out", str(tmp_path / "twin")]) == 3
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "twin").exists()


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
