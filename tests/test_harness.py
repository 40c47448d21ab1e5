import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nudgelab import dynamics, harness
from nudgelab.config import (
    ExperimentConfig, InitialConfig, ForcingConfig, build_forcing, build_tiling,
    report_times,
)
from nudgelab.diagnostics import (
    CHI_SERIES_COLUMNS, load_energy_series, make_energy_report, save_energy_series,
)
from nudgelab.dynamics import IntegrationStats, NudgingConfig, make_synchronized_initial
from nudgelab.errors import BlowUpError, ConfigError, VacuumError
from nudgelab.field import ROW_BLOCK, FluidState, Trajectory, load_series, row_blocks
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
    masses = traj.grid.dx * traj.rho.sum(axis=1)
    assert np.max(np.abs(masses - masses[0])) <= 1e-10 * masses[0]


def test_run_observed_memo(lite_config):
    truths = {}
    a, a_stats = run_observed(lite_config, truths)
    b, b_stats = run_observed(lite_config, truths)
    assert b is a and truths == {observed_signature(lite_config): a}
    # the run's sup bounds cover every step, the recorded rows among them
    assert a_stats.rho_max >= a.rho.max() and a_stats.speed_max >= np.abs(a.mom / a.rho).max()
    # a hit integrated nothing, and says so
    assert a_stats.n_steps > 0
    assert b_stats == IntegrationStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # the signature tracks only observed-relevant fields
    changed = dataclasses.replace(lite_config, nudging=NudgingConfig(1.0, 2.0))
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


def _recording(calls, real_integrate):
    """An ``integrate`` that records (truth call, start time, end time,
    rows, steps) per call; the truth's calls carry no samples."""

    def recording_integrate(grid, initial, t_end, *args, **kwargs):
        traj, stats = real_integrate(grid, initial, t_end, *args, **kwargs)
        calls.append((len(args) < 4, initial.time, t_end, traj.n_snapshots, stats.n_steps))
        return traj, stats

    return recording_integrate


def test_two_twins_without_a_memo_integrate_two_truths(monkeypatch, lite_config):
    calls = []
    monkeypatch.setattr(harness, "integrate", _recording(calls, harness.integrate))
    timeline = lite_config.timeline
    truth_steps = []
    for _ in range(2):
        calls.clear()
        stats = run_twin(lite_config).stats
        # each twin integrates its own truth once, one chain of calls from
        # t_minus to t_plus between its nudged run's blocks, and the step
        # sums of both runs are their stats
        truth = [c for c in calls if c[0]]
        nudged = [c for c in calls if not c[0]]
        starts, ends = [c[1] for c in truth], [c[2] for c in truth]
        assert starts[0] == timeline.t_minus and ends[-1] == timeline.t_plus
        assert starts[1:] == ends[:-1]
        assert sum(c[4] for c in truth) == stats["observed_steps"]
        assert len(nudged) > 1 and sum(c[4] for c in nudged) == stats["nudged_steps"]
        truth_steps.append(stats["observed_steps"])
    assert truth_steps[0] == truth_steps[1] > 0


def test_twin_integrates_the_nudged_run_in_row_blocks(monkeypatch, lite_config):
    calls = []
    monkeypatch.setattr(harness, "integrate", _recording(calls, harness.integrate))
    report = run_twin(lite_config)
    truth = [c[3] for c in calls if c[0]]
    nudged = [c[3] for c in calls if not c[0]]
    # each nudged call records one row block of landings after its start
    # row, the last row of the block before; the truth's calls record the
    # spin-up [t_minus, 0], then the same blocks
    n_landings = len(report_times(lite_config))
    assert len(nudged) == -(-n_landings // ROW_BLOCK) > 2
    assert truth == [2, *nudged]
    assert max(nudged) <= ROW_BLOCK + 1
    assert 1 + sum(n - 1 for n in nudged) == report.energy.time.size == n_landings + 1
    assert 1 + sum(n - 1 for n in truth) == report.stats["observed_snapshots"] == n_landings + 2
    # the truth reaches each nudged block's end before the block runs
    for i, (is_truth, _, t_end, _, _) in enumerate(calls):
        assert is_truth or max(c[2] for c in calls[:i] if c[0]) >= t_end


def _tree(out):
    """Every file under ``out`` by relative path, report.json without its
    stats."""
    files = {}
    for path in sorted(out.rglob("*")):
        text = path.read_text()
        if path.name == "report.json":
            body = json.loads(text)
            body.pop("stats")
            text = body
        files[str(path.relative_to(out))] = text
    return files


@pytest.mark.parametrize(
    "delta, placement",
    [(4e-3 * np.sqrt(2.0) * (1.0 + 1e-9), "center"), (0.3, "jittered")],
    ids=["midpoints_on_rows", "slab_wider_than_a_block"],
)
def test_streamed_twin_is_the_whole_truths_twin(tmp_path, lite_config, delta, placement):
    # the twin without a memo reads its truth in blocks; with a memo it
    # reads the whole truth, as one integrate call records it.  Slabs two
    # report intervals wide put most slab midpoints on truth rows; slabs
    # wider than a row block need the truth more than one block ahead.
    # Every output file is the same
    cfg = dataclasses.replace(
        lite_config,
        sampler=dataclasses.replace(lite_config.sampler, delta=delta, placement=placement),
    )
    dec = build_tiling(cfg)
    if placement == "center":
        tb = dec.time_breaks
        hits = np.isin(0.5 * (tb[:-1] + tb[1:]), report_times(cfg))
        assert hits.sum() > 0.8 * dec.n_time_slabs
    else:
        block_span = ROW_BLOCK * cfg.solver.report_interval
        assert dec.time_breaks[1] > block_span
    whole = {observed_signature(cfg): run_observed(cfg)[0]}
    streamed = run_twin(cfg, out_dir=tmp_path / "streamed")
    memo = run_twin(cfg, out_dir=tmp_path / "memo", truths=whole)
    assert _tree(tmp_path / "streamed") == _tree(tmp_path / "memo")
    assert streamed.budget_residual_max == memo.budget_residual_max
    assert streamed.stats["observed_snapshots"] == memo.stats["observed_snapshots"]


def test_truth_window_reads_row_times_through_the_whole_truths_bracket(monkeypatch, lite_config):
    # a read at a row's time takes w = 1 on the row before it, and signed
    # zeros tell it apart from w = 0 on the row after: 0 * (-1) + -0 is -0,
    # -0 + 0 * 1 is +0.  Momentum rows drawn from {-1, -0, +0, 1} on a truth
    # of unit rows, in blocks of three rows after the spin-up
    grid = lite_config.grid
    times = np.arange(-1.0, 14.0)
    mom = np.random.default_rng(4).choice([-1.0, -0.0, 0.0, 1.0], size=(times.size, grid.n_cells))
    rho = np.ones_like(mom)
    whole = Trajectory(grid, times, rho, mom)
    edges = [0, 1, 4, 7, 10, 13, 14]
    blocks = [
        (Trajectory(grid, times[a:b + 1], rho[a:b + 1], mom[a:b + 1]),
         IntegrationStats(b - a, 1.0, 1.0, 0.0, 1.0, 1.0))
        for a, b in zip(edges, edges[1:])
    ]
    monkeypatch.setattr(harness._TruthWindow, "blocks", staticmethod(lambda cfg: iter(blocks)))
    window = harness._TruthWindow(lite_config, None)
    for keep_from in (0.0, 2.0, 5.0, 8.0, 11.0):
        window.cover(keep_from + 2.0, keep_from)
        kept = window.traj.times
        assert kept[0] <= keep_from - 1.0 and kept[-1] >= keep_from + 2.0
        ts = kept[kept >= keep_from]
        _, got = window.traj.fields_at(ts)
        _, want = whole.fields_at(ts)
        assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)
    # joins drop the rows behind the row before keep_from
    assert window.traj.times[0] >= 7.0 and window.n_rows == times.size


@pytest.mark.parametrize("memo", [False, True], ids=["streamed", "memo"])
def test_truth_window_alone_measures_the_twins_truth_side(determinism_config, memo):
    # the truth side is a function of the config alone: a window advanced
    # over the nudged run's row blocks, with no nudged run, reads the
    # twin's chi_base and interpolation error bit for bit, streamed or
    # from the whole truth of a memo
    cfg = determinism_config
    twin = run_twin(cfg)
    truths = {observed_signature(cfg): run_observed(cfg)[0]} if memo else None
    window = harness._TruthWindow(cfg, truths)
    landings = report_times(cfg)
    chi = np.concatenate([window.advance(landings[rows]) for rows in row_blocks(len(landings))])
    assert chi.tobytes() == twin.chi_base.tobytes()
    assert window.interp_error == twin.interp_error
    assert window.n_rows == twin.stats["observed_snapshots"]


def test_blocked_nudged_run_is_the_single_call_bit_for_bit(lite_config, lite_observed):
    # every block ends on a landing, so the blocks take the single call's
    # steps, and the joined report and residual are the single call's
    cfg = lite_config
    truths = {observed_signature(cfg): lite_observed}
    report = run_twin(cfg, truths=truths)
    eos, visc, forcing, nudging = cfg.eos, cfg.viscosity, build_forcing(cfg), cfg.nudging
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
        lite_config, nudging=NudgingConfig(lambda_rho=0.0, lambda_u=0.0)
    )
    rep = run_twin(cfg)
    # the truth lands on the restarted run's own times, so from t = 0 the
    # two runs take the same steps and agree bit for bit
    assert np.all(rep.energy.rel_energy == 0.0)
    assert rep.values["re_initial"] == rep.values["re_assim_end"] == 0.0


def test_twin_uninformed_control_fails_without_nudging(lite_config):
    cfg = dataclasses.replace(
        lite_config, nudging=NudgingConfig(lambda_rho=0.0, lambda_u=0.0)
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
    from nudgelab.dynamics import integrate
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
    corrupted = Trajectory(grid, traj.times.copy(), rho, traj.mom.copy())
    ms2 = sample(corrupted, dec)
    assert not np.array_equal(corrupted.rho, traj.rho)
    assert np.array_equal(ms2.r_sample, ms.r_sample)
    assert np.array_equal(ms2.U_sample, ms.U_sample)

    # and the nudged integration sees no difference end to end
    from nudgelab.dynamics import make_synchronized_initial

    nudging = NudgingConfig(20.0, 80.0)
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


def _leaves(node, path=()):
    """The key path of every leaf under ``node``; a list's entries are
    leaves."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _leaves(child, (*path, key))]
    return [path]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _lite_derived_leaves():
    """Every leaf of the ``DERIVED`` blocks of the lite twin's report.json,
    recomputed from the committed lite series as the audit recomputes
    them."""
    from conftest import lite_experiment

    data = Path(__file__).parent / "data"
    energy = load_energy_series(data / "lite_energy_series.csv")
    _, (_, chi_base) = load_series(data / "lite_forecast_chi.csv", CHI_SERIES_COLUMNS)
    derived = harness._derive_diagnostics(
        lite_experiment(), energy.time, energy.rel_energy, chi_base
    )
    return _leaves(harness._jsonable(derived))


LITE_DERIVED_LEAVES = _lite_derived_leaves()


def test_report_states_each_number_once(tmp_path, lite_twin):
    # values holds the readings that no block owns, and the envelope does
    # not repeat RE(T) and RE(t_plus)
    body = json.loads((persist_twin(lite_twin, tmp_path / "twin") / "report.json").read_text())
    assert set(body) == {*harness.DERIVED, "budget_residual_max", "interp_error", "stats"}
    assert set(body["values"]) == {
        "re_initial", "re_assim_end", "re_forecast_end", "sync_ratio", "growth_ratio",
    }
    assert set(body["envelope"]) == {"calibration_required", "holds", "max_ratio", "chi_integral"}
    # the audit test below is parametrized over exactly these leaves
    derived = {name: body[name] for name in harness.DERIVED}
    assert set(_leaves(derived)) == set(LITE_DERIVED_LEAVES)


@pytest.mark.parametrize("path", LITE_DERIVED_LEAVES, ids=lambda p: ".".join(map(str, p)))
def test_audit_replays_every_derived_block(tmp_path, lite_twin, path):
    # one leaf bumped one ulp, or flipped: the audit names its entry alone
    out = persist_twin(lite_twin, tmp_path / "twin")
    body = json.loads((out / "report.json").read_text())
    *parent, key = path
    node = _at(body, parent)
    value = node[key]
    node[key] = (not value) if isinstance(value, bool) else float(np.nextafter(value, np.inf))
    (out / "report.json").write_text(json.dumps(body))
    result = audit_twin(out)
    assert not result.ok
    block = path[0]
    noun = {"verdicts": "verdict", "values": "value"}.get(block, block)
    label = block if len(path) == 1 else f"{noun} {path[1]!r}"
    assert [m.split(":")[0] for m in result.mismatches] == [label]
    # what needs the trajectories is named, not silently passed over, and
    # each name is a key of report.json: a stale one raises KeyError here
    assert result.unchecked == harness.AUDIT_UNCHECKED
    for name in result.unchecked:
        _at(body, name.split("."))


def test_partial_series_persisted_on_nudged_failure(tmp_path, lite_config, monkeypatch):
    import nudgelab.harness as H

    real_integrate = H.integrate

    def failing_integrate(grid, initial, t_end, *args, **kwargs):
        if len(args) < 4:  # the truth's calls carry no samples and proceed normally
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


def test_truth_failure_after_nudged_blocks_leaves_config_and_error(
    tmp_path, lite_config, monkeypatch
):
    # the truth's third block of landings fails once the nudged run has
    # integrated its first block: no series, no trajectory, no report
    calls = []
    recording = _recording(calls, harness.integrate)

    def failing_integrate(grid, initial, t_end, *args, **kwargs):
        if len(args) < 4 and sum(c[0] for c in calls) == 3:
            raise VacuumError("synthetic truth failure", cell=5, time=initial.time)
        return recording(grid, initial, t_end, *args, **kwargs)

    monkeypatch.setattr(harness, "integrate", failing_integrate)
    out = tmp_path / "failed"
    with pytest.raises(VacuumError, match="synthetic truth failure"):
        run_twin(lite_config, out_dir=out)
    assert any(not c[0] for c in calls)  # a nudged block ran before the failure
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "error.json"]
    info = json.loads((out / "error.json").read_text())
    assert (info["run"], info["error"], info["cell"]) == ("truth", "VacuumError", 5)
    assert info["time"] > 0.0


@pytest.mark.parametrize("placement, delta", [("center", 0.02), ("jittered", 5e-3)])
def test_twin_memory_does_not_grow_with_the_windows(lite_config, placement, delta):
    # traced peak of a twin over windows twice as long: the truth, its
    # samples and the nudged run are held a few row blocks at a time, and
    # jittered control points are drawn per row block of slabs, so only the
    # energy series (8 floats a row) grows with them, whatever the placement
    def traced_peak(cfg):
        tracemalloc.start()
        try:
            run_twin(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cfg = dataclasses.replace(
        lite_config,
        sampler=dataclasses.replace(lite_config.sampler, delta=delta, placement=placement),
    )
    longer = dataclasses.replace(
        cfg, timeline=dataclasses.replace(cfg.timeline, t_assim_end=1.0, t_plus=1.6)
    )
    run_twin(cfg)  # first-call allocations outside the measurement
    base = traced_peak(cfg)
    assert traced_peak(longer) <= 1.1 * base


@pytest.mark.parametrize("placement, delta", [("center", 0.02), ("jittered", 5e-3)])
def test_twin_slab_window_holds_one_block(monkeypatch, lite_config, placement, delta):
    # each nudged block reads the slabs from its start's through its end's,
    # and the twin samples no further: the window holds the slabs that one
    # ROW_BLOCK of report intervals spans, plus one where an end lands on a
    # break (sampling every slab the truth covers held about two blocks)
    cfg = dataclasses.replace(
        lite_config,
        sampler=dataclasses.replace(lite_config.sampler, delta=delta, placement=placement),
    )
    held = []

    def recording_report(*args):
        held.append(len(args[5].r_sample))
        return make_energy_report(*args)

    monkeypatch.setattr(harness, "make_energy_report", recording_report)
    run_twin(cfg)
    tb = build_tiling(cfg).time_breaks
    spanned = math.ceil(ROW_BLOCK * cfg.solver.report_interval / (tb[1] - tb[0]))
    assert len(held) == -(-len(report_times(cfg)) // ROW_BLOCK)
    assert max(held) <= spanned + 1


def test_jittered_default_twins_share_one_truth_and_synchronize(baseline_config):
    # three seeds of jittered control points over one memo: the first twin
    # integrates the truth, the next two read it, and each synchronizes
    truths = {}
    for i, seed in enumerate((11, 12, 13)):
        sampler = dataclasses.replace(baseline_config.sampler, placement="jittered", seed=seed)
        report = run_twin(dataclasses.replace(baseline_config, sampler=sampler), truths=truths)
        assert report.values["sync_ratio"] <= harness.SYNC_RATIO_MAX
        assert report.verdicts["synchronized"]
        assert (report.stats["observed_steps"] == 0) == (i > 0)
        assert report.stats["observed_snapshots"] == 2002
    assert len(truths) == 1


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
