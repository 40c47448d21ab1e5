import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from nudgelab import dynamics, harness
from nudgelab.config import (
    ExperimentConfig, InitialConfig, ForcingConfig, NudgingGains, build_forcing,
    build_nudging, build_tiling, report_times,
)
from nudgelab.diagnostics import (
    load_energy_series, make_energy_report, save_energy_series,
)
from nudgelab.dynamics import IntegrationStats, make_synchronized_initial
from nudgelab.errors import BlowUpError, ConfigError, VacuumError
from nudgelab.field import ROW_BLOCK, FluidState, Trajectory
from nudgelab.harness import (
    audit_twin,
    build_initial_state,
    manufactured_case,
    observed_signature,
    persist_twin,
    run_observed,
    run_sweep,
    run_twin,
    validate_solver,
    _mms_error,
)
from nudgelab.sampler import build_decomposition, sample


def test_run_observed_rest_state_is_constant(lite_config):
    cfg = dataclasses.replace(
        lite_config,
        forcing=ForcingConfig(amplitude=0.0),
        initial=InitialConfig(amplitude=0.0),
    )
    traj, _ = run_observed(cfg)
    assert np.all(traj.rho == 1.0)
    assert np.all(traj.mom == 0.0)


def test_run_observed_baseline_lite(lite_observed, lite_config):
    traj = lite_observed
    assert traj.times[0] == lite_config.timeline.t_minus
    assert traj.times[-1] == lite_config.timeline.t_plus
    assert 0.0 in traj.times  # forced landing for the twin restart
    assert np.min(traj.rho) > 0.0
    b = traj.sup_bounds
    assert np.isfinite(b.rho_max) and np.isfinite(b.speed_max)
    masses = traj.grid.dx * traj.rho.sum(axis=1)
    assert np.max(np.abs(masses - masses[0])) <= 1e-10 * masses[0]


def test_run_observed_memo(lite_config):
    truths = {}
    a, a_stats = run_observed(lite_config, truths)
    b, b_stats = run_observed(lite_config, truths)
    assert b is a and truths == {observed_signature(lite_config): a}
    # a hit integrated nothing, and says so
    assert a_stats.n_steps > 0
    assert b_stats == IntegrationStats(0, 0.0, 0.0, 0.0)
    # the signature tracks only observed-relevant fields
    changed = dataclasses.replace(lite_config, nudging=NudgingGains(1.0, 2.0))
    assert observed_signature(changed) == observed_signature(lite_config)
    regrid = dataclasses.replace(
        lite_config, grid=dataclasses.replace(lite_config.grid, n_cells=72)
    )
    assert observed_signature(regrid) != observed_signature(lite_config)
    # the truth lands on the report grid and the window end, not on a
    # snapshot budget, which no run reads
    for section, key, value in (("solver", "report_interval", 1e-3),
                                ("timeline", "t_assim_end", 0.4),
                                ("solver", "snapshot_budget", 1)):
        other = dataclasses.replace(getattr(lite_config, section), **{key: value})
        other = dataclasses.replace(lite_config, **{section: other})
        assert (observed_signature(other) == observed_signature(lite_config)) == (
            key == "snapshot_budget"
        )
    # a miss replaces the memo's content, and the new truth hits
    c, _ = run_observed(regrid, truths)
    assert truths == {observed_signature(regrid): c}
    assert run_observed(regrid, truths)[0] is c


def test_truth_records_t_minus_then_the_nudged_runs_times(lite_twin, lite_config):
    # the nudged run's times are the energy report's
    truth, _ = run_observed(lite_config)
    nudged = lite_twin.energy.time
    assert truth.times.tolist() == [lite_config.timeline.t_minus] + nudged.tolist()
    assert lite_twin.stats["observed_snapshots"] == nudged.size + 1


def test_twin_reports_truth_run_statistics(lite_twin, lite_config):
    stats = lite_twin.stats
    assert stats["observed_steps"] > 0
    assert 0.0 < stats["observed_dt_min"] <= stats["observed_dt_max"]
    # a twin that reuses the memo's truth reports the 0 steps it made
    truths = {}
    _, filled = run_observed(lite_config, truths)
    assert (filled.n_steps, filled.dt_min, filled.dt_max) == (
        stats["observed_steps"], stats["observed_dt_min"], stats["observed_dt_max"]
    )
    reused = run_twin(lite_config, truths=truths).stats
    assert (reused["observed_steps"], reused["observed_dt_min"], reused["observed_dt_max"]) == (
        0, 0.0, 0.0
    )
    assert reused["observed_snapshots"] == stats["observed_snapshots"]


def test_twin_reports_each_runs_wall_time(lite_config):
    truths = {}
    first = run_twin(lite_config, truths=truths).stats
    second = run_twin(lite_config, truths=truths).stats
    # the first twin integrated the truth, the second reused it
    assert 0.0 < first["observed_wall_time"] < first["wall_time"]
    assert second["observed_wall_time"] == 0.0
    for stats in (first, second):
        assert 0.0 < stats["nudged_wall_time"] < stats["wall_time"]


def test_two_twins_without_a_memo_integrate_two_truths(monkeypatch, lite_config):
    steps = []
    real_integrate = harness.integrate

    def counting_integrate(*args, **kwargs):
        result = real_integrate(*args, **kwargs)
        steps.append(result[1].n_steps)
        return result

    monkeypatch.setattr(harness, "integrate", counting_integrate)
    truth_steps = []
    for _ in range(2):
        steps.clear()
        stats = run_twin(lite_config).stats
        # each twin integrates its own truth, then its nudged run in blocks
        truth, *nudged = steps
        assert truth == stats["observed_steps"]
        assert len(nudged) > 1 and sum(nudged) == stats["nudged_steps"]
        truth_steps.append(truth)
    assert truth_steps[0] == truth_steps[1] > 0


def test_twin_integrates_the_nudged_run_in_row_blocks(monkeypatch, lite_config):
    rows = []
    real_integrate = harness.integrate

    def recording_integrate(*args, **kwargs):
        result = real_integrate(*args, **kwargs)
        rows.append(result[0].n_snapshots)
        return result

    monkeypatch.setattr(harness, "integrate", recording_integrate)
    report = run_twin(lite_config)
    truth, *nudged = rows
    # the truth call records all of its rows, each nudged call one row block
    # of landings after its start row, the last row of the block before
    assert truth == report.stats["observed_snapshots"]
    n_landings = len(report_times(lite_config))
    assert len(nudged) == -(-n_landings // ROW_BLOCK) > 2
    assert max(nudged) <= ROW_BLOCK + 1
    assert 1 + sum(n - 1 for n in nudged) == report.energy.time.size == n_landings + 1


def test_blocked_nudged_run_is_the_single_call_bit_for_bit(lite_config, lite_observed):
    # every block ends on a landing, so the blocks take the single call's
    # steps, and the joined report and residual are the single call's
    cfg = lite_config
    truths = {observed_signature(cfg): lite_observed}
    report = run_twin(cfg, truths=truths)
    eos, visc, forcing, nudging = (
        cfg.eos, cfg.viscosity, build_forcing(cfg), build_nudging(cfg)
    )
    ms = sample(lite_observed, build_tiling(cfg))
    traj, stats = dynamics.integrate(
        cfg.grid, make_synchronized_initial(lite_observed), cfg.timeline.t_plus,
        eos, visc, forcing, ms, nudging, landings=report_times(cfg),
    )
    single, residual = make_energy_report(eos, visc, forcing, traj, lite_observed, ms, nudging)
    for f in dataclasses.fields(single):
        assert np.array_equal(getattr(report.energy, f.name), getattr(single, f.name)), f.name
    assert report.budget_residual_max == float(np.max(residual))
    assert (report.stats["nudged_steps"], report.stats["nudged_dt_min"],
            report.stats["nudged_dt_max"]) == (stats.n_steps, stats.dt_min, stats.dt_max)


def test_twin_reports_phase_wall_times(lite_twin):
    stats = lite_twin.stats
    for phase in ("sample_wall_time", "diagnostics_wall_time"):
        assert 0.0 < stats[phase] < stats["wall_time"]


def test_twin_records_the_budget_residual_outside_the_verdicts(tmp_path, lite_twin):
    out = persist_twin(lite_twin, tmp_path / "twin")
    body = json.loads((out / "report.json").read_text())
    assert body["budget_residual_max"] == lite_twin.budget_residual_max
    assert np.isfinite(lite_twin.budget_residual_max)
    assert "budget_residual_max" not in body["values"]
    assert "budget_residual_max" not in body["verdicts"]


def test_twin_diagnostics_build_no_state_per_row(monkeypatch, lite_config):
    # count the FluidStates built after the last integrate call returns:
    # the energy series, chi, decay fit and verdicts of the twin
    built = []
    post_init = FluidState.__post_init__
    real_integrate = harness.integrate

    def counting_post_init(self):
        built.append(self.time)
        post_init(self)

    def integrate_then_reset(*args, **kwargs):
        result = real_integrate(*args, **kwargs)
        built.clear()
        return result

    monkeypatch.setattr(FluidState, "__post_init__", counting_post_init)
    monkeypatch.setattr(harness, "integrate", integrate_then_reset)
    report = run_twin(lite_config)
    assert report.energy.time.size == 401
    assert built == []


def test_truth_run_peak_memory_is_bounded_by_its_trajectory(lite_config):
    # the recorded rows plus the one stacked copy, with room for temporaries
    tracemalloc.start()
    try:
        traj, _ = run_observed(lite_config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    traj_bytes = traj.times.nbytes + traj.rho.nbytes + traj.mom.nbytes
    assert peak <= 2.5 * traj_bytes


def test_twin_identical_initial_data_stays_synchronized(lite_config, monkeypatch):
    # a zero-gain twin restarted from the truth itself
    monkeypatch.setattr(harness, "make_synchronized_initial", lambda obs: obs.state_at(0.0))
    cfg = dataclasses.replace(
        lite_config, nudging=NudgingGains(lambda_rho=0.0, lambda_u=0.0)
    )
    rep = run_twin(cfg)
    # the truth lands on the restarted run's own times, so from t = 0 the
    # two runs take the same steps and agree bit for bit
    assert np.all(rep.energy.rel_energy == 0.0)
    assert rep.values["re_initial"] == rep.values["re_assim_end"] == 0.0


def test_twin_uninformed_control_fails_without_nudging(lite_config):
    cfg = dataclasses.replace(
        lite_config, nudging=NudgingGains(lambda_rho=0.0, lambda_u=0.0)
    )
    rep = run_twin(cfg)
    assert rep.values["re_initial"] > 0.0
    assert rep.values["sync_ratio"] > 1e-3  # no synchronization without nudging


def test_twin_nudged_synchronizes(lite_twin):
    rep = lite_twin
    assert rep.values["sync_ratio"] <= 1e-4
    assert rep.verdicts["synchronized"]
    assert rep.decay is not None and rep.decay.rate > 0.0


def test_observed_data_firewall(lite_config):
    """The nudged path depends on the trajectory only through the samples:
    corrupting unsampled regions leaves the measurement set, and hence the
    nudged run, unchanged."""
    from nudgelab.dynamics import NudgingConfig, integrate
    from nudgelab.harness import build_forcing

    traj, _ = run_observed(lite_config)
    dec = build_decomposition(0.3, lite_config.timeline.t_assim_end, 1.0)
    ms = sample(traj, dec)

    grid = traj.grid
    used_cells = set(
        np.clip(
            np.round(dec.x_star.ravel() / grid.dx - 0.5).astype(int), 0, grid.n_cells - 1
        ).tolist()
    )
    untouched = next(j for j in range(grid.n_cells) if j not in used_cells)
    rho = traj.rho.copy()
    rho[:, untouched] += 0.5  # corrupt an unsampled cell at every time
    corrupted = Trajectory(
        grid, traj.times.copy(), rho, traj.mom.copy(), traj.sup_bounds
    )
    ms2 = sample(corrupted, dec)
    assert not np.array_equal(corrupted.rho, traj.rho)
    assert np.array_equal(ms2.r_sample, ms.r_sample)
    assert np.array_equal(ms2.U_sample, ms.U_sample)

    # and the nudged integration sees no difference end to end
    from nudgelab.dynamics import make_synchronized_initial

    nudging = NudgingConfig(20.0, 80.0, (0.0, lite_config.timeline.t_assim_end))
    landings = (0.1, 0.2, 0.3, 0.4)
    args = (
        grid,
        make_synchronized_initial(traj),
        lite_config.timeline.t_assim_end,
        lite_config.eos,
        lite_config.viscosity,
        build_forcing(lite_config),
    )
    run_a, _ = integrate(*args, ms, nudging, landings=landings)
    run_b, _ = integrate(*args, ms2, nudging, landings=landings)
    assert np.array_equal(run_a.rho, run_b.rho)
    assert np.array_equal(run_a.mom, run_b.mom)


def test_sweep_single_value_matches_run_twin(lite_config):
    sweep = run_sweep(lite_config, "lambda_rho", [lite_config.nudging.lambda_rho])
    direct = run_twin(lite_config)
    assert sweep.errors == [None]
    point = sweep.points[0]
    assert point.values["sync_ratio"] == direct.values["sync_ratio"]
    assert point.values["re_assim_end"] == direct.values["re_assim_end"]


def test_sweep_preserves_gain_ratio(lite_config):
    sweep = run_sweep(lite_config, "lambda_rho", [10.0, 20.0])
    for value, point in zip(sweep.values, sweep.points):
        assert point.config.nudging.lambda_rho == value
        assert point.config.nudging.lambda_u == pytest.approx(4.0 * value)


def test_sweep_delta_interpolation_error_non_increasing(lite_config):
    sweep = run_sweep(lite_config, "delta", [0.04, 0.02])
    assert sweep.errors == [None, None]
    assert sweep.interp_non_increasing
    assert sweep.interp_errors[1] < sweep.interp_errors[0]


def test_sweep_records_per_point_failures(lite_config):
    sweep = run_sweep(lite_config, "n_cells", [4, 64])
    assert sweep.errors[0] is not None and "ConfigError" in sweep.errors[0]
    assert sweep.errors[1] is None
    assert sweep.points[0] is None and sweep.points[1] is not None


def test_sweep_records_over_cap_delta_and_continues(lite_config):
    # delta 1e-6 would store 707,107 slabs x 64 read blocks (~45M cells) on
    # the lite cylinder, over the memory guard
    sweep = run_sweep(lite_config, "delta", [1e-6, lite_config.sampler.delta])
    assert sweep.errors[0].startswith("ConfigError: sampler: sampling stores 45254848 cells")
    assert sweep.errors[1] is None
    assert sweep.points[0] is None and sweep.points[1] is not None


def test_sweep_n_cells_follows_the_config_file_rule(lite_config):
    # an integral float becomes an int; any other value, or one that the
    # grid rejects, is a per-point error, and the sweep goes on to its next
    # point
    for value in (32.0, np.int64(32), np.float64(32.0)):
        cfg = harness._apply_axis(lite_config, "n_cells", value)
        assert cfg.grid.n_cells == 32 and type(cfg.grid.n_cells) is int
    sweep = run_sweep(lite_config, "n_cells", [4, 64.5])
    assert sweep.points == [None, None]
    assert sweep.errors == [
        "ConfigError: grid: n_cells must be an integer >= 8",
        "ConfigError: grid.n_cells: expected an integer, got 64.5",
    ]


def test_sweep_summary_is_strict_json(tmp_path, lite_config):
    # a non-finite value is written as null, like every other non-finite
    # number of the outputs: a strict parser reads the summary
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    run_sweep(lite_config, "lambda_rho", [np.nan], tmp_path)
    summary = json.loads((tmp_path / "sweep_summary.json").read_text(), parse_constant=reject)
    assert summary["values"] == [None]


def test_sweep_rejects_unknown_axis(lite_config):
    with pytest.raises(ConfigError):
        run_sweep(lite_config, "viscosity", [0.1])


def test_manufactured_zero_perturbation_is_exact():
    cfg = ExperimentConfig()
    eos = cfg.eos
    visc = cfg.viscosity
    case = manufactured_case(eos, visc, 1.0, rho_amplitude=0.0)
    err = _mms_error(cfg, case, 64, 0.0, 0.05)
    assert err <= 1e-13


def test_manufactured_fields_match_a_symbolic_derivation():
    import sympy as sp

    cfg = ExperimentConfig()
    eos = cfg.eos
    visc = cfg.viscosity
    case = manufactured_case(eos, visc, 1.0)
    t, x = sp.symbols("t x", real=True)
    a, k = sp.Rational(1, 5), 2 * sp.pi
    r = 1 + a * sp.cos(k * x) * sp.cos(t)
    m = a / k * sp.sin(k * x) * sp.sin(t)
    U = m / r
    p = eos.kappa * r**eos.gamma
    # continuity holds exactly: the case needs no mass source
    assert sp.simplify(sp.diff(r, t) + sp.diff(m, x)) == 0
    g = (sp.diff(m, t) + sp.diff(m * U + p, x) - visc.nu_eff * sp.diff(U, x, 2)) / r
    exprs = [r, m, sp.diff(r, t), sp.diff(m, t), g]
    xs = np.linspace(0.0, 1.0, 257)
    for tv in (0.0, 0.37, 1.3):
        got = [
            case.rho(tv, xs), case.momentum(tv, xs),
            case.d_rho_dt(tv, xs), case.d_mom_dt(tv, xs), case.forcing.at(xs)(tv),
        ]
        for value, expr in zip(got, exprs):
            ref = np.broadcast_to(sp.lambdify((t, x), expr, "numpy")(tv, xs), xs.shape)
            # the two forms group the terms differently: a few ulps apart
            tol = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(value - ref)) <= tol, (tv, expr)
        assert np.max(np.abs(got[-1])) <= case.forcing.bound


def test_nudged_manufactured_case_solves_the_stated_nudged_system():
    # the case of validate's nudged check, against a symbolic derivation of
    # the README's nudged equations: the density equation holds with the
    # relaxation toward I[r] as its only source, and g closes the momentum
    # equation with the relaxation -lambda_u (1 + r) (U - I[U])
    import sympy as sp

    cfg = ExperimentConfig()
    eos, visc, nudging = cfg.eos, cfg.viscosity, harness.MMS_NUDGING
    case = manufactured_case(eos, visc, 1.0, nudging=nudging)
    t, x = sp.symbols("t x", real=True)
    a, c, b, k = sp.Rational(1, 5), sp.Rational(3, 10), sp.Rational(1, 10), 2 * sp.pi
    lam_rho, lam_u = sp.nsimplify(nudging.lambda_rho), sp.nsimplify(nudging.lambda_u)
    r = 1 + a * sp.cos(k * x) * sp.cos(t)
    m = c * sp.sin(k * x) * sp.sin(t)
    U = m / r
    r_obs = r + (sp.diff(r, t) + sp.diff(m, x)) / lam_rho
    u_obs = U + b * sp.sin(k * x) * sp.cos(3 * t)
    assert sp.simplify(sp.diff(r, t) + sp.diff(m, x) + lam_rho * (r - r_obs)) == 0
    p = eos.kappa * r**eos.gamma
    g = (
        sp.diff(m, t) + sp.diff(m * U + p, x) - visc.nu_eff * sp.diff(U, x, 2)
        + lam_u * (1 + r) * (U - u_obs)
    ) / r
    grid = dataclasses.replace(cfg.grid, n_cells=257)
    xs = grid.cell_centers()
    for tv in (1.0, 1.05, 1.1):
        r_got, u_got = case.observations.values_at_time(tv, grid)
        rows = case.observations.values_at_time(np.array([tv, 2.0 * tv]), grid)
        assert np.array_equal(rows[0][0], r_got) and np.array_equal(rows[1][0], u_got)
        got = [case.rho(tv, xs), case.momentum(tv, xs), r_got, u_got, case.forcing.at(xs)(tv)]
        for value, expr in zip(got, [r, m, r_obs, u_obs, g]):
            ref = np.broadcast_to(sp.lambdify((t, x), expr, "numpy")(tv, xs), xs.shape)
            tol = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(value - ref)) <= tol, (tv, expr)
        assert np.max(np.abs(got[-1])) <= case.forcing.bound
        assert np.min(r_got) > 0.0


def test_manufactured_forcing_rows_are_the_scalar_calls():
    cfg = ExperimentConfig()
    case = manufactured_case(cfg.eos, cfg.viscosity, 1.0)
    x = cfg.grid.cell_centers()
    ts = np.concatenate([np.linspace(0.0, 0.1, 101), np.random.default_rng(6).uniform(0.0, 2.0, 100)])
    row = case.forcing.at(x)
    rows = row(ts[:, None])
    assert rows.shape == (ts.size, x.size)
    assert np.array_equal(rows, np.stack([row(t) for t in ts.tolist()]))


def test_validate_solver_passes():
    rep = validate_solver()
    assert all(1.8 <= o <= 2.2 for o in rep.orders)
    assert rep.mass_drift <= 1e-10
    assert all(1.8 <= o <= 2.2 for o in rep.nudged_orders)
    assert rep.passed


def test_persist_and_audit_round_trip(tmp_path, determinism_config):
    out = tmp_path / "twin"
    rep = run_twin(determinism_config, out_dir=out)
    assert (out / "config.json").exists()
    assert (out / "energy_series.csv").exists()
    assert (out / "forecast_chi.csv").exists()
    result = audit_twin(out)
    assert result.ok, result.mismatches
    assert result.passed == rep.passed
    assert result.verdicts == rep.verdicts


def test_audit_detects_tampered_verdicts(tmp_path, determinism_config):
    out = tmp_path / "twin"
    run_twin(determinism_config, out_dir=out)
    body = json.loads((out / "report.json").read_text())
    body["verdicts"]["synchronized"] = not body["verdicts"]["synchronized"]
    (out / "report.json").write_text(json.dumps(body))
    result = audit_twin(out)
    assert not result.ok
    assert any("synchronized" in m for m in result.mismatches)


def test_twin_writes_the_stored_measurements(tmp_path, lite_config):
    cfg = dataclasses.replace(
        lite_config, outputs=dataclasses.replace(lite_config.outputs, write_measurements=True)
    )
    out = tmp_path / "twin"
    run_twin(cfg, out_dir=out)
    with open(out / "measurements.csv") as fh:
        assert fh.readline().startswith("# delta=")
        assert fh.readline() == "t_lo,t_hi,x_lo,x_hi,t_star,x_star,r_sample,U_sample\n"
        rows = fh.read().splitlines()
    dec = build_decomposition(cfg.sampler.delta, cfg.timeline.t_assim_end, cfg.grid.length)
    n_ref = np.unique(dec.space_block_index(cfg.grid.cell_centers())).size
    assert n_ref == 64 < dec.n_space_blocks
    assert len(rows) == dec.n_time_slabs * n_ref


def test_audit_accepts_non_finite_values(tmp_path, lite_twin):
    # zero relative energy at t_assim_end makes growth_ratio infinite, which
    # report.json stores as null
    out = persist_twin(lite_twin, tmp_path / "twin")
    cfg = lite_twin.config
    energy = load_energy_series(out / "energy_series.csv")
    times = energy.time
    i = int(np.argmin(np.abs(times - cfg.timeline.t_assim_end)))
    re_series = energy.rel_energy.copy()
    re_series[i] = 0.0
    save_energy_series(
        out / "energy_series.csv", dataclasses.replace(energy, rel_energy=re_series)
    )
    derived = harness._derive_diagnostics(cfg, times, re_series, lite_twin.chi_base)
    assert derived["values"]["growth_ratio"] == np.inf
    # the audit replays every derived block, so the edited report carries
    # all of them as the edited series gives them
    body = json.loads((out / "report.json").read_text())
    body["values"].update(harness._jsonable(derived["values"]))
    body.update({k: harness._jsonable(v) for k, v in derived.items() if k != "values"})
    (out / "report.json").write_text(json.dumps(body))
    result = audit_twin(out)
    assert result.ok, result.mismatches


def test_audit_reports_a_value_one_ulp_off(tmp_path, lite_twin):
    out = persist_twin(lite_twin, tmp_path / "twin")
    body = json.loads((out / "report.json").read_text())
    body["values"]["re_assim_end"] = float(np.nextafter(body["values"]["re_assim_end"], np.inf))
    (out / "report.json").write_text(json.dumps(body))
    result = audit_twin(out)
    assert not result.ok
    assert [m.split(":")[0] for m in result.mismatches] == ["value 're_assim_end'"]


def _ulp_up(v):
    return float(np.nextafter(v, np.inf))


@pytest.mark.parametrize(
    "block, key, tamper",
    [
        ("decay", "window_used", lambda w: [w[0], _ulp_up(w[1])]),
        ("envelope", "max_ratio", _ulp_up),
        ("gains", "floor_estimate", _ulp_up),
        ("passed", None, lambda passed: not passed),
    ],
    ids=["decay", "envelope", "gains", "passed"],
)
def test_audit_replays_every_derived_block(tmp_path, lite_twin, block, key, tamper):
    out = persist_twin(lite_twin, tmp_path / "twin")
    body = json.loads((out / "report.json").read_text())
    if key is None:
        body[block] = tamper(body[block])
    else:
        body[block][key] = tamper(body[block][key])
    (out / "report.json").write_text(json.dumps(body))
    result = audit_twin(out)
    assert not result.ok
    label = block if key is None else f"{block} {key!r}"
    assert [m.split(":")[0] for m in result.mismatches] == [label]
    # what needs the trajectories is named, not silently passed over
    assert "interp_error" in result.unchecked
    assert "values.data_norm" in result.unchecked


def test_partial_series_persisted_on_nudged_failure(tmp_path, lite_config, monkeypatch):
    import nudgelab.harness as H

    real_integrate = H.integrate
    calls = {"n": 0}

    def failing_integrate(grid, initial, t_end, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:  # observed run proceeds normally
            return real_integrate(grid, initial, t_end, *args, **kwargs)
        traj, _ = real_integrate(grid, initial, 0.01, *args, **kwargs)
        err = VacuumError("synthetic failure", cell=3, time=0.01)
        err.partial = traj
        raise err

    monkeypatch.setattr(H, "integrate", failing_integrate)
    out = tmp_path / "failed"
    with pytest.raises(VacuumError):
        run_twin(lite_config, out_dir=out)
    assert (out / "error.json").exists()
    assert (out / "energy_series.csv").exists()
    info = json.loads((out / "error.json").read_text())
    assert info["run"] == "nudged"
    assert info["error"] == "VacuumError"
    assert info["cell"] == 3


def test_truth_run_failure_leaves_config_and_error(tmp_path, lite_config, monkeypatch):
    # 80 report times fit in 100 steps; the lead-in from t_minus = -1, about
    # 200 acoustic steps, alone takes more
    monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
    cfg = dataclasses.replace(
        lite_config,
        timeline=dataclasses.replace(lite_config.timeline, t_minus=-1.0),
        solver=dataclasses.replace(lite_config.solver, report_interval=0.01),
    )
    out = tmp_path / "failed"
    with pytest.raises(BlowUpError, match="MAX_STEPS=100"):
        run_twin(cfg, out_dir=out)
    assert harness.load_config(out / "config.json") == cfg
    info = json.loads((out / "error.json").read_text())
    assert info["run"] == "truth"
    assert info["error"] == "BlowUpError"
    assert info["time"] < 0.0  # inside the truth run's lead-in
    assert not (out / "energy_series.csv").exists()


def test_mean_rest_initial_matches_observed_mass(lite_observed):
    from nudgelab.dynamics import make_synchronized_initial

    s = make_synchronized_initial(lite_observed)
    g = lite_observed.grid
    assert g.dx * s.rho.sum() == pytest.approx(
        g.dx * lite_observed.rho[0].sum(), rel=1e-13
    )


def test_build_initial_state_kinds():
    cfg = ExperimentConfig()
    grid = cfg.grid
    s = build_initial_state(cfg, grid)
    assert s.time == cfg.timeline.t_minus
    assert np.min(s.rho) >= 0.7 - 1e-12
    uni = dataclasses.replace(cfg, initial=InitialConfig(amplitude=0.0))
    assert np.all(build_initial_state(uni, grid).rho == 1.0)
