from dataclasses import fields

import numpy as np
import pytest

from nudgelab import harness
from nudgelab.config import build_eos, build_nudging, build_viscosity
from nudgelab.diagnostics import (
    EnergyReport,
    check_gain_conditions,
    energy_balance_residual,
    fit_decay,
    forecast_envelope,
    load_energy_series,
    make_energy_report,
    relative_energy,
    save_energy_series,
    total_energy,
    total_energy_density,
)
from nudgelab.dynamics import (
    Forcing,
    NudgingConfig,
    SolverOptions,
    Viscosity,
    integrate,
    stable_dt,
)
from nudgelab.eos import EquationOfState
from nudgelab.errors import VacuumError
from nudgelab.field import FluidState, Grid1D, SupBounds, Trajectory, noslip_seminorm_sq
from nudgelab.sampler import build_decomposition, sample

EOS = EquationOfState(1.4, 1.0)
KEOS = EquationOfState(2.0, 1.0)
VISC = Viscosity(0.05)


def test_total_energy_density_cases():
    assert total_energy_density(KEOS, 1.0, 2.0) == pytest.approx(3.0)
    vals = total_energy_density(KEOS, np.array([0.5, 1.0]), np.array([0.0, 2.0]))
    assert vals[0] == pytest.approx(0.25) and vals[1] == pytest.approx(3.0)


def test_relative_energy_zero_and_single_cell():
    g = Grid1D(8, 8.0)  # dx = 1
    s = FluidState(0.0, np.ones(8), np.zeros(8))
    assert relative_energy(KEOS, g, s, s) == 0.0
    # per-cell value (rho,u)=(2,1) against (1,0): kinetic 1 + bregman 1 = 2
    a = FluidState(0.0, np.full(8, 2.0), np.full(8, 2.0))
    b = FluidState(0.0, np.ones(8), np.zeros(8))
    assert relative_energy(KEOS, g, a, b) == pytest.approx(2.0 * 8)


def bregman_of_total_energy(eos, rho, mom, r, mr):
    """Independent evaluator: Bregman divergence of the energy density."""
    grad_rho = -0.5 * mr**2 / r**2 + eos.dpotential(r)
    grad_mom = mr / r
    return (
        total_energy_density(eos, rho, mom)
        - total_energy_density(eos, r, mr)
        - grad_rho * (rho - r)
        - grad_mom * (mom - mr)
    )


def test_relative_energy_is_energy_bregman():
    rng = np.random.default_rng(9)
    g = Grid1D(32, 1.0)
    for _ in range(50):
        rho = rng.uniform(0.5, 2.0, 32)
        mom = rng.uniform(-1.0, 1.0, 32)
        r = rng.uniform(0.5, 2.0, 32)
        mr = rng.uniform(-1.0, 1.0, 32)
        a = FluidState(0.0, rho, mom)
        b = FluidState(0.0, r, mr)
        direct = relative_energy(EOS, g, a, b)
        ref = g.dx * np.sum(bregman_of_total_energy(EOS, rho, mom, r, mr))
        assert direct == pytest.approx(ref, rel=1e-10)


def test_relative_energy_positive_definite():
    # zero exactly at coincidence; density separations of 1e-6 are detected
    rng = np.random.default_rng(10)
    g = Grid1D(32, 1.0)
    base_rho = rng.uniform(0.5, 2.0, 32)
    base_mom = rng.uniform(-1.0, 1.0, 32)
    b = FluidState(0.0, base_rho, base_mom)
    assert relative_energy(EOS, g, b, b) == 0.0
    a = FluidState(0.0, base_rho + 1e-6, base_mom)
    assert relative_energy(EOS, g, a, b) > 0.0


def rest_trajectory(g, times):
    n_t = len(times)
    return Trajectory(
        g, times, np.ones((n_t, g.n_cells)), np.zeros((n_t, g.n_cells)), SupBounds(1.0, 0.0, 0.0)
    )


def decaying_run(n=48, t_end=0.2, fixed_dt=None):
    g = Grid1D(n, 1.0)
    x = g.cell_centers()
    initial = FluidState(0.0, 1.0 + 0.3 * np.cos(2 * np.pi * x), np.zeros(n))
    options = SolverOptions(fixed_dt=fixed_dt)
    traj, _ = integrate(g, initial, t_end, EOS, VISC, Forcing.zero(), options=options)
    report = make_energy_report(EOS, VISC, traj, rest_trajectory(g, traj.times))
    return g, report, traj


def test_energy_balance_residual_rest_state():
    g = Grid1D(16, 1.0)
    rest = rest_trajectory(g, [0.0, 0.1, 0.2])
    report = make_energy_report(EOS, VISC, rest, rest)
    res = energy_balance_residual(report, rest, EOS, VISC, Forcing.zero())
    assert np.all(res == 0.0)


def test_energy_balance_residual_refines():
    # per-step budget residual shrinks at least 3x under (dx, dt) halving
    g_fine = Grid1D(96, 1.0)
    x = g_fine.cell_centers()
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * x)
    dt = stable_dt(g_fine, rho, np.zeros(96), EOS, safety=0.8)

    def max_step_residual(n, dt):
        g, report, traj = decaying_run(n=n, fixed_dt=dt)
        res = energy_balance_residual(report, traj, EOS, VISC, Forcing.zero())
        return np.max(np.abs(res * np.diff(traj.times)))

    coarse = max_step_residual(48, dt)
    fine = max_step_residual(96, dt / 2)
    assert coarse / fine >= 3.0


def test_fenchel_young_slack_nonnegative_along_run():
    g, _, traj = decaying_run(n=32, t_end=0.05)
    r_obs = np.full(32, 1.1)
    for rho in traj.rho[:: max(1, traj.n_snapshots // 20)]:
        gap = g.dx * np.sum(EOS.fenchel_young_gap(rho, r_obs))
        assert gap >= -1e-12


def test_energy_budget_inequality_on_nudged_run():
    # with relaxation active the full budget residual (dissipation, nudging
    # sinks, potential-difference sink, sources) must stay nonpositive: the
    # Fenchel-Young slack provides the margin
    g = Grid1D(48, 1.0)
    x = g.cell_centers()
    obs_rho = 1.0 + 0.25 * np.cos(2 * np.pi * x)
    obs = Trajectory(
        g, [0.0, 1.0], np.stack([obs_rho] * 2), np.zeros((2, 48)),
        SupBounds(1.25, 0.0, 0.0),
    )
    ms = sample(obs, build_decomposition(0.2, 1.0, 1.0))
    cfg = NudgingConfig(15.0, 60.0, (0.0, 1.0))
    initial = FluidState(0.0, np.full(48, float(np.mean(obs_rho))), np.zeros(48))
    traj, _ = integrate(
        g, initial, 0.2, EOS, VISC, Forcing.zero(), ms, cfg,
        SolverOptions(),
    )
    report = make_energy_report(EOS, VISC, traj, obs, ms, cfg)
    res = energy_balance_residual(report, traj, EOS, VISC, Forcing.zero(), ms, cfg)
    assert np.max(res) <= 0.0


def seven_term_budget_rate(eos, visc, grid, ts, rho, mom, forcing, ms, nudging):
    """The budget rate with its nudging part expanded by hand into seven
    terms: the reference for energy_balance_residual's form, which reads the
    nudging powers from the report and adds the Fenchel-Young slack."""
    dx = grid.dx
    u = mom / rho
    rate = visc.nu_eff * noslip_seminorm_sq(grid, u)
    if forcing.at is not None:
        rate -= dx * np.sum(rho * forcing.at(grid.cell_centers())(ts[:, None]) * u, axis=-1)
    on = nudging.active(ts)
    if on.any():
        lr, lu = nudging.lambda_rho, nudging.lambda_u
        r_obs, u_obs = ms.values_at_time(ts[on], grid)
        rho, u, part = rho[on], u[on], rate[on]
        part += lu * dx * np.sum(u**2, axis=-1)
        part += (lu - lr) * dx * np.sum(rho * u**2, axis=-1)
        part += 0.5 * lr * dx * np.sum(r_obs * u**2, axis=-1)
        part += 0.5 * lr * dx * np.sum(rho * u**2, axis=-1)
        part += lr * dx * np.sum(
            eos.pressure_potential(rho) - eos.pressure_potential(r_obs), axis=-1
        )
        part -= lu * dx * np.sum((1.0 + rho) * u_obs * u, axis=-1)
        rate[on] = part
    return rate


def test_budget_residual_matches_the_seven_term_form():
    # a moving truth, so the velocity observations enter, and a nudging
    # window that closes inside the run
    g = Grid1D(48, 1.0)
    x = g.cell_centers()
    obs_rho = 1.0 + 0.25 * np.cos(2 * np.pi * x)
    obs_mom = 0.2 * np.sin(2 * np.pi * x)
    obs = Trajectory(
        g, [0.0, 1.0], np.stack([obs_rho] * 2), np.stack([obs_mom] * 2),
        SupBounds(1.25, float(np.max(np.abs(obs_mom / obs_rho))), 0.0),
    )
    ms = sample(obs, build_decomposition(0.2, 1.0, 1.0))
    cfg = NudgingConfig(15.0, 60.0, (0.0, 0.1))
    initial = FluidState(0.0, np.full(48, float(np.mean(obs_rho))), np.zeros(48))
    options = SolverOptions(landings=np.linspace(0.0, 0.2, 41))
    traj, _ = integrate(g, initial, 0.2, EOS, VISC, Forcing.zero(), ms, cfg, options)
    report = make_energy_report(EOS, VISC, traj, obs, ms, cfg)
    assert np.any(report.nudge_power_u != 0.0) and np.any(report.nudge_power_u == 0.0)
    res = energy_balance_residual(report, traj, EOS, VISC, Forcing.zero(), ms, cfg)
    rate = seven_term_budget_rate(
        EOS, VISC, g, traj.times, traj.rho, traj.mom, Forcing.zero(), ms, cfg
    )
    reference = np.diff(report.total_energy) / np.diff(traj.times) + 0.5 * (rate[:-1] + rate[1:])
    assert np.max(np.abs(res - reference)) <= 1e-12 * np.max(np.abs(rate))


def test_fit_decay_oracles():
    t = np.linspace(0.0, 2.0, 200)
    pure = fit_decay(t, np.exp(-5.0 * t))
    assert pure.rate == pytest.approx(5.0, rel=0.02)
    assert pure.floor <= 1e-4
    assert pure.r_squared > 0.999

    offset = fit_decay(t, 0.01 + np.exp(-5.0 * t))
    assert offset.rate == pytest.approx(5.0, rel=0.02)
    assert offset.floor == pytest.approx(0.01, rel=0.10)
    assert offset.r_squared > 0.999

    const = fit_decay(t, np.full_like(t, 0.3))
    assert abs(const.rate) <= 1e-10


def test_fit_decay_is_stable_under_last_bit_perturbations():
    # a fast decay onto a wavy plateau, like a twin that reaches its solver
    # floor early: the fitted floor sits where the kept set of samples
    # changes, and perturbing the series by 1e-14 relative (the spread of
    # numpy's float64 kernels between SIMD extensions) must not move the rate
    t = np.linspace(0.0, 1.0, 1001)
    re = 0.02 * np.exp(-50.0 * t) + 3.7e-9 * (1.0 + 0.3 * np.sin(40.0 * t))
    base = fit_decay(t, re)
    for seed in range(20):
        noise = 1e-14 * np.random.default_rng(seed).standard_normal(t.size)
        fit = fit_decay(t, re * (1.0 + noise))
        assert fit.rate == pytest.approx(base.rate, rel=1e-9)
        assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-9)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 199, 200, 399])
def test_tail_median_is_numpys_linear_quantile(size):
    # fit_decay's tail cap: np.quantile(values, 0.5) bit for bit, on odd and
    # even sizes, without np.quantile (which imports numpy.ma)
    from nudgelab.diagnostics import _median

    rng = np.random.default_rng(size)
    for scale in (1e-9, 1.0, 1e3):
        values = scale * rng.lognormal(size=size)
        assert _median(values) == float(np.quantile(values, 0.5))


def test_fit_decay_preconditions():
    with pytest.raises(ValueError):
        fit_decay([0.0, 1.0], [1.0, 0.5])
    t = np.linspace(0, 1, 20)
    with pytest.raises(ValueError):
        fit_decay(t, np.concatenate([np.ones(19), [0.0]]))


def test_fit_decay_non_decaying_series_reports_quality():
    t = np.linspace(0.0, 1.0, 50)
    fit = fit_decay(t, 1.0 + 0.5 * t)
    assert abs(fit.rate) <= 1e-10  # no spurious decay on a growing series


def test_check_gain_conditions_examples():
    rep = check_gain_conditions(NudgingConfig(1.0, 1.0, (0.0, 1.0)), 0.1, 2.0, 0.1)
    assert not rep.gain_ratio_ok
    rep = check_gain_conditions(NudgingConfig(50.0, 200.0, (0.0, 1.0)), 1e-3, 4.0, 0.1)
    assert rep.gain_ratio_ok and rep.gain_ordering_ok
    assert rep.delta_smallness_ok  # 1e-3 * 200 * 4 = 0.8 <= 1
    assert rep.floor_estimate == pytest.approx(4.0 * (0.02 + np.exp(-50.0)), rel=1e-12)
    # exact boundary of the gain-ratio condition passes
    rep = check_gain_conditions(NudgingConfig(10.0, 20.0, (0.0, 1.0)), 1e-3, 1.0, 0.1)
    assert rep.gain_ratio_ok
    with pytest.raises(ValueError):
        check_gain_conditions(NudgingConfig(1.0, 2.0, (0.0, 1.0)), 0.1, 0.5, 0.1)


def test_forecast_envelope_constant_series():
    t = np.linspace(1.0, 2.0, 50)
    re = np.full_like(t, 0.3)
    chi = np.ones_like(t)
    rep = forecast_envelope(t, re, chi, calibration=1.0)
    assert rep.calibration_required == 0.0
    assert rep.holds is True


def test_forecast_envelope_exponential_equality():
    t = np.linspace(1.0, 2.0, 400)
    re = 0.1 * np.exp(t - 1.0)
    chi = np.full_like(t, 0.5)
    rep = forecast_envelope(t, re, chi, calibration=1.0)
    assert rep.calibration_required == pytest.approx(1.0, rel=1e-6)


def test_forecast_envelope_decaying_series():
    t = np.linspace(1.0, 2.0, 50)
    re = 0.1 * np.exp(-(t - 1.0))
    rep = forecast_envelope(t, re, np.ones_like(t), calibration=0.5)
    assert rep.calibration_required == 0.0
    assert rep.holds is True


def test_forecast_envelope_zero_start_trivial():
    t = np.linspace(1.0, 2.0, 10)
    rep = forecast_envelope(t, np.zeros_like(t), np.ones_like(t), calibration=1.0)
    assert rep.holds is True


def test_energy_series_round_trip(tmp_path):
    g, report, _ = decaying_run(n=32, t_end=0.02)
    path = tmp_path / "series.csv"
    save_energy_series(path, report)
    loaded = load_energy_series(path)
    for f in fields(EnergyReport):
        # float round trip is exact at 17 significant digits
        assert np.array_equal(getattr(loaded, f.name), getattr(report, f.name)), f.name
    save_energy_series(tmp_path / "again.csv", loaded)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_forecast_chi_base_rest_state():
    from nudgelab.diagnostics import forecast_chi_base

    g = Grid1D(16, 1.0)
    traj = Trajectory(
        g, [0.0, 1.0], np.ones((2, 16)), np.zeros((2, 16)), SupBounds(1.0, 0.0, 0.0)
    )
    chi = forecast_chi_base(VISC, traj, Forcing.zero(), [0.0, 0.5, 1.0])
    assert np.allclose(chi, 1.0)  # no gradients, no drive: only the constant


def test_total_energy_matches_density_sum():
    g = Grid1D(16, 2.0)
    rng = np.random.default_rng(12)
    s = FluidState(0.0, rng.uniform(0.5, 2.0, 16), rng.normal(0, 1, 16))
    direct = g.dx * np.sum(total_energy_density(EOS, s.rho, s.mom))
    assert total_energy(EOS, g, s) == pytest.approx(direct, rel=1e-14)


def one_snapshot(g, rho, mom, t=0.0):
    return Trajectory(g, [t], np.array([rho]), np.array([mom]), SupBounds(1.0, 0.0, 0.0))


def test_series_norms_zero_and_mass():
    g = Grid1D(16, 1.0)
    s = one_snapshot(g, np.full(16, 2.5), np.zeros(16))
    report = make_energy_report(EOS, VISC, s, s)
    assert report.l2_u_diff[0] == 0.0
    assert report.mass[0] == pytest.approx(2.5 * 1.0, rel=1e-14)


def test_series_norms_constant_velocity_difference():
    g = Grid1D(32, 2.0)
    c = 0.7
    a = one_snapshot(g, np.ones(32), np.full(32, c))
    b = one_snapshot(g, np.ones(32), np.zeros(32))
    report = make_energy_report(EOS, VISC, a, b)
    assert report.l2_u_diff[0] == pytest.approx(c * np.sqrt(g.length), rel=1e-14)


def test_energy_report_checks_its_columns():
    cols = [np.zeros(3) for _ in fields(EnergyReport)]
    report = EnergyReport(*cols)
    with pytest.raises(ValueError):
        report.mass[0] = 1.0
    cols[3] = np.array([0.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="energy report entries must be finite"):
        EnergyReport(*cols)
    cols[3], cols[2] = np.zeros(3), np.array([0.0, -1e-300, 0.0])
    with pytest.raises(ValueError, match="energies must be nonnegative"):
        EnergyReport(*cols)
    cols[2] = np.zeros(2)
    with pytest.raises(ValueError, match="of one length"):
        EnergyReport(*cols)


def assert_series_is_per_snapshot(report, traj, observed, eos, visc, ms=None, nudging=None):
    """Every column of ``report`` equals the single-state functions applied
    to each snapshot of ``traj`` and the truth at its time, bit for bit."""
    g = traj.grid
    assert np.array_equal(report.time, traj.times)
    for i, t in enumerate(traj.times):
        s, o = traj.snapshot(i), observed.state_at(float(t))
        du = s.velocity() - o.velocity()
        assert report.total_energy[i] == total_energy(eos, g, s)
        assert report.rel_energy[i] == relative_energy(eos, g, s, o)
        assert report.dissipation[i] == visc.nu_eff * noslip_seminorm_sq(g, du)
        assert report.l2_u_diff[i] == np.sqrt(g.dx * np.sum(du**2))
        assert report.mass[i] == g.dx * np.sum(s.rho)
        npr = npu = 0.0
        if ms is not None and nudging.active(float(t)):
            r_obs, u_obs = ms.values_at_time(float(t), g)
            u = s.velocity()
            npr = -nudging.lambda_rho * g.dx * float(
                np.sum((eos.dpotential(s.rho) - 0.5 * u**2) * (s.rho - r_obs))
            )
            npu = -nudging.lambda_u * g.dx * float(np.sum((1.0 + s.rho) * u * (u - u_obs)))
        assert report.nudge_power_rho[i] == npr and report.nudge_power_u[i] == npu


def random_trajectory(rng, g, times):
    shape = (len(times), g.n_cells)
    return Trajectory(
        g, times, rng.uniform(0.5, 2.0, shape), rng.normal(0.0, 1.0, shape),
        SupBounds(2.0, 1.0, 0.0),
    )


def test_series_columns_equal_the_per_snapshot_functions():
    # 300 rows span several row blocks; the relaxation is on for part of them
    rng = np.random.default_rng(21)
    g = Grid1D(32, 1.0)
    traj = random_trajectory(rng, g, np.sort(rng.uniform(0.0, 1.0, 300)))
    observed = random_trajectory(rng, g, np.linspace(-0.1, 1.0, 57))
    ms = sample(observed, build_decomposition(0.1, 0.7, 1.0))
    nudging = NudgingConfig(15.0, 60.0, (0.2, 0.7))
    report = make_energy_report(EOS, VISC, traj, observed, ms, nudging)
    assert 0 < np.count_nonzero(report.nudge_power_u) < 300
    assert_series_is_per_snapshot(report, traj, observed, EOS, VISC, ms, nudging)


def test_series_of_one_snapshot_trajectories():
    rng = np.random.default_rng(22)
    g = Grid1D(16, 1.0)
    traj = random_trajectory(rng, g, [0.3])
    observed = random_trajectory(rng, g, [0.3])
    report = make_energy_report(EOS, VISC, traj, observed)
    assert report.time.shape == (1,)
    assert_series_is_per_snapshot(report, traj, observed, EOS, VISC)
    with pytest.raises(ValueError, match="do not share a grid"):
        make_energy_report(EOS, VISC, traj, random_trajectory(rng, Grid1D(8, 1.0), [0.3]))


def test_partial_series_equals_the_per_snapshot_functions(tmp_path, lite_config, monkeypatch):
    # with the truth in the memo, run_twin's only integrate call is the nudged run
    truths = {}
    observed, _ = harness.run_observed(lite_config, truths)
    real_integrate = harness.integrate
    failed = {}

    def failing_integrate(grid, initial, t_end, *args, **kwargs):
        traj, _ = real_integrate(grid, initial, 0.01, *args, **kwargs)
        err = VacuumError("synthetic failure", cell=3, time=0.01)
        err.partial = failed["partial"] = traj
        raise err

    monkeypatch.setattr(harness, "integrate", failing_integrate)
    with pytest.raises(VacuumError):
        harness.run_twin(lite_config, out_dir=tmp_path, truths=truths)
    partial = failed["partial"]
    assert partial.n_snapshots > 1
    cfg = lite_config
    dec = build_decomposition(
        cfg.sampler.delta, cfg.timeline.t_assim_end, cfg.grid.length,
        placement=cfg.sampler.placement, seed=cfg.sampler.seed,
    )
    ms = sample(observed, dec)
    report = load_energy_series(tmp_path / "energy_series.csv")
    assert_series_is_per_snapshot(
        report, partial, observed, build_eos(cfg), build_viscosity(cfg), ms, build_nudging(cfg)
    )
