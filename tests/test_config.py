import dataclasses
import json
import re

import numpy as np
import pytest

from nudgelab.config import (
    ExperimentConfig,
    build_forcing,
    build_grid,
    NudgingGains,
    SamplerConfig,
    SolverConfig,
    TimelineConfig,
    load_config,
    report_times,
    save_config,
)
from nudgelab.dynamics import MAX_STEPS
from nudgelab.errors import ConfigError
from nudgelab.sampler import build_decomposition, sampled_blocks

NAN = float("nan")
INF = float("inf")


def test_round_trip_is_bit_exact(tmp_path):
    cfg = ExperimentConfig(
        sampler=SamplerConfig(delta=0.1 + 1e-17, placement="jittered", seed=123),
        nudging=NudgingGains(lambda_rho=1.0 / 3.0, lambda_u=2.0 / 7.0 * 7.0),
    )
    path = tmp_path / "config.json"
    save_config(path, cfg)
    loaded = load_config(path)
    assert loaded == cfg
    # and a second pass through the file form is byte-identical
    save_config(tmp_path / "config2.json", loaded)
    assert (tmp_path / "config.json").read_bytes() == (tmp_path / "config2.json").read_bytes()


def test_partial_config_uses_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n_cells": 64}}))
    cfg = load_config(path)
    assert cfg.grid.n_cells == 64
    assert cfg.grid.length == 1.0
    assert cfg.nudging.lambda_rho == 50.0


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n_cells": 64, "cells": 3}}))
    with pytest.raises(ConfigError, match="cells"):
        load_config(path)
    path.write_text(json.dumps({"grids": {}}))
    with pytest.raises(ConfigError, match="grids"):
        load_config(path)


def test_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "mutation",
    [
        {"grid": {"n_cells": 4}},
        {"eos": {"gamma": 1.0}},
        {"eos": {"a": 0.7}},
        {"viscosity": {"mu": 0.0}},
        {"timeline": {"t_minus": 0.5}},
        {"timeline": {"t_plus": 0.5}},
        {"forcing": {"kind": "gusts"}},
        {"initial": {"amplitude": 2.0}},
        {"sampler": {"delta": -1.0}},
        {"sampler": {"placement": "grid"}},
        {"nudging": {"lambda_rho": -1.0}},
        {"solver": {"safety": 1.5}},  # no longer a key
        {"outputs": {"format": "xml"}},
        {"sync_init": "random"},
        # constraints only a domain constructor knew about
        {"eos": {"gamma": 4, "a": 0.45}},
        # non-finite numbers
        {"grid": {"length": NAN}},
        {"eos": {"gamma": NAN}},
        {"viscosity": {"mu": NAN}},
        {"viscosity": {"lambda_bulk": NAN}},
        {"nudging": {"lambda_rho": NAN}},
        {"sampler": {"delta": NAN}},
        {"calibration": {"epsilon_target": NAN}},
        {"timeline": {"t_plus": INF}},
        {"solver": {"report_interval": INF}},
        # counts and sizes
        {"solver": {"max_steps": 0}},  # no longer a key
        {"sampler": {"cell_cap": 0}},  # no longer a key
        {"solver": {"snapshot_budget": -5}},
        {"sampler": {"delta": 1e-5}},  # stores more cells than the memory guard
        {"sampler": {"placement": "jittered", "seed": -1}},
        # leaf types
        {"grid": {"length": "1"}},
        {"eos": {"gamma": "1.4"}},
        {"sampler": {"delta": [1]}},
        {"viscosity": {"mu": None}},
        {"sampler": {"delta": True}},
        {"outputs": {"write_measurements": "yes"}},
        # timeline ordering
        {"timeline": {"t_minus": 0.1}},
        {"timeline": {"t_assim_end": 2.0, "t_plus": 1.0}},
        {"timeline": {"t_assim_end": 2.0}},  # equal to the default t_plus
        # within 4 ulps of t_plus, which then gives way: a one-row forecast
        {"timeline": {"t_assim_end": 1.9999999999999998}},
        # a report interval that is not positive
        {"solver": {"report_interval": 0.0}},
        # a delta whose slab count overflows a float
        {"sampler": {"delta": 5e-324}},
        {"calibration": {"gamma_cal": 0.5}},
    ],
)
def test_semantic_validation(tmp_path, mutation):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(mutation))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "mutation, expected",
    [
        ({"eos": {"gamma": 4, "a": 0.45}}, "eos: unknown keys ['a']"),
        ({"grid": {"length": "1"}}, "grid.length: expected a finite number"),
        ({"sampler": {"cell_cap": 1000}}, "sampler: unknown keys ['cell_cap']"),
        ({"forcing": {"kind": "gusts"}}, "forcing: unknown keys ['kind']"),
        ({"outputs": {"format": "csv"}}, "outputs: unknown keys ['format']"),
        ({"initial": {"kind": "sine"}}, "initial: unknown keys ['kind']"),
        # the acceptance gate is not config (it lives in nudgelab.harness)
        ({"calibration": {"sync_ratio_max": 1.0}}, "calibration: unknown keys ['sync_ratio_max']"),
        ({"calibration": {"forecast_growth_max": 1e3}},
         "calibration: unknown keys ['forecast_growth_max']"),
        ({"calibration": {"envelope_gamma_max": 1e3}},
         "calibration: unknown keys ['envelope_gamma_max']"),
        ({"outputs": {"directory": "out"}}, "outputs: unknown keys ['directory']"),
        # the tiling owns the seed rule
        ({"sampler": {"seed": -1}}, "sampler: seed must be >= 0, got -1"),
    ],
)
def test_validation_names_the_section(tmp_path, mutation, expected):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(mutation))
    with pytest.raises(ConfigError, match=re.escape(expected)):
        load_config(path)


def test_ints_widen_to_floats_and_null_is_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"length": 2}}))
    cfg = load_config(path)
    assert cfg.grid.length == 2.0 and isinstance(cfg.grid.length, float)
    assert '"length": 2.0' in cfg.to_json()
    # no leaf is optional: null fails like any other wrong type, everywhere
    leaves = [(section, key) for section, block in cfg.to_dict().items() for key in block]
    assert len(leaves) == 22
    for section, key in leaves:
        path.write_text(json.dumps({section: {key: None}}))
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}: expected")):
            load_config(path)


def test_report_interval_bounded_by_max_steps():
    # each report time is a landing, and each landing costs a step; the
    # check is arithmetic, so a 2e12-point grid is refused without building it
    for interval in (1e-12, 5e-324):  # the second overflows t_plus / interval
        cfg = ExperimentConfig(solver=SolverConfig(report_interval=interval))
        with pytest.raises(ConfigError, match="solver.report_interval: more report times"):
            cfg.validate()
    # the bound is dynamics.MAX_STEPS: t_plus / interval = MAX_STEPS passes,
    # one report time more fails
    t_plus = ExperimentConfig().timeline.t_plus
    ExperimentConfig(solver=SolverConfig(report_interval=t_plus / MAX_STEPS)).validate()
    with pytest.raises(ConfigError, match=f"than MAX_STEPS={MAX_STEPS}"):
        ExperimentConfig(solver=SolverConfig(report_interval=t_plus / (MAX_STEPS + 1))).validate()


def test_report_times_land_once_at_the_window_end():
    # the acceptance-7 timeline: linspace(0, 0.08, 401)[300] is an ulp above
    # t_assim_end = 0.06, and the window end takes its place
    cfg = ExperimentConfig(
        timeline=TimelineConfig(t_minus=-0.5, t_assim_end=0.06, t_plus=0.08),
        solver=SolverConfig(report_interval=2e-4),
    )
    grid = np.linspace(0.0, 0.08, 401)[1:]
    assert 0 < grid[299] - 0.06 < 1e-17
    times = report_times(cfg)
    assert len(times) == 400 and times[299] == 0.06
    assert times[:299] + times[300:] == tuple(np.delete(grid, 299).tolist())
    assert np.min(np.diff(times)) > 0.5 * 2e-4
    # a grid that holds t_assim_end exactly is the report grid itself
    base = ExperimentConfig()
    assert report_times(base) == tuple(np.linspace(0.0, 2.0, 2001)[1:].tolist())


def test_integer_fields_rejected_on_floats(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n_cells": 64.5}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_high_gain_config_is_valid():
    # the gain condition delta * lambda_u * gamma_cal <= 1 at lambda_u = 2000:
    # 128,006,596 cells, of which the 256 grid cells read 2,896,384
    cfg = ExperimentConfig(
        sampler=SamplerConfig(delta=1.25e-4),
        nudging=NudgingGains(lambda_rho=500.0, lambda_u=2000.0),
    )
    cfg.validate()
    dec = build_decomposition(1.25e-4, 1.0, 1.0)
    assert dec.n_cells == 128_006_596
    assert dec.n_time_slabs * sampled_blocks(dec, build_grid(cfg)).size == 2_896_384


def test_replace_keeps_validity():
    cfg = ExperimentConfig()
    cfg2 = dataclasses.replace(cfg, timeline=TimelineConfig(-0.1, 0.5, 1.0))
    cfg2.validate()
    assert cfg2.timeline.t_assim_end == 0.5


def test_forcing_rows_are_the_scalar_calls():
    # the sine forcing broadcasts over a column of times, bit for bit
    cfg = ExperimentConfig()
    x = build_grid(cfg).cell_centers()
    ts = np.concatenate([
        np.linspace(cfg.timeline.t_minus, cfg.timeline.t_plus, 301),
        np.random.default_rng(4).uniform(-1.0, 3.0, 200),
    ])
    row = build_forcing(cfg).at(x)
    rows = row(ts[:, None])
    assert rows.shape == (ts.size, x.size)
    assert np.array_equal(rows, np.stack([row(t) for t in ts.tolist()]))
