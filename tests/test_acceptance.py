"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with -s to see them inline).

The thresholds were frozen from baseline runs of this implementation.
Each test asserts the frozen literal and that the gate the program applies
(the constants in ``nudgelab.harness``) still equals it, so a change that
loosens the gate fails here; see the README for how to regenerate the
measurements behind them.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import BUILD_TIMES, equal_steps

from nudgelab.cli import main as cli_main
from nudgelab.config import (
    ExperimentConfig,
    SolverConfig,
    TimelineConfig,
    save_config,
)
from nudgelab.diagnostics import (
    check_gain_conditions,
    relative_energy,
    total_energy,
    total_energy_density,
)
from nudgelab.dynamics import (
    Forcing,
    NudgingConfig,
    Viscosity,
    integrate,
    stable_dt,
)
from nudgelab.eos import EquationOfState
from nudgelab.field import FluidState, Grid1D, noslip_seminorm_sq
from nudgelab import harness
from nudgelab.harness import run_sweep, validate_solver
from nudgelab.sampler import MeasurementSet, build_decomposition


def report(number, description, start, budget):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.1f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_acceptance_1_eos_identities():
    start = time.perf_counter()
    eos = EquationOfState(1.4, 1.0)
    rho = np.geomspace(1e-6, 1e3, 200)
    p = eos.pressure(rho)
    resid = np.abs(eos.dpotential(rho) * rho - eos.pressure_potential(rho) - p)
    assert np.all(resid <= 1e-12 * np.maximum(1.0, p))

    rng = np.random.default_rng(101)
    a = rng.uniform(1e-3, 1e3, 10_000)
    s = rng.uniform(0.0, 1e3, 10_000)
    assert np.min(eos.fenchel_young_gap(a, s)) >= -1e-12
    report(1, "pressure-potential identity and Fenchel-Young gap", start, 1.0)


def test_acceptance_2_bregman_equivalence():
    start = time.perf_counter()
    eos = EquationOfState(1.4, 1.0)
    grid = Grid1D(100, 1.0)
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(10):  # 10 states x 100 cells = 1e3 state pairs
        rho = rng.uniform(0.3, 3.0, 100)
        mom = rng.uniform(-2.0, 2.0, 100)
        r = rng.uniform(0.3, 3.0, 100)
        mr = rng.uniform(-2.0, 2.0, 100)
        direct = relative_energy(
            eos, grid, FluidState(0.0, rho, mom), FluidState(0.0, r, mr)
        )
        grad_rho = -0.5 * mr**2 / r**2 + eos.dpotential(r)
        grad_mom = mr / r
        reference = grid.dx * np.sum(
            total_energy_density(eos, rho, mom)
            - total_energy_density(eos, r, mr)
            - grad_rho * (rho - r)
            - grad_mom * (mom - mr)
        )
        assert abs(direct - reference) <= 1e-10 * max(abs(direct), abs(reference))
        checked += 100
    assert checked == 1000
    report(2, "relative energy equals the energy Bregman divergence", start, 5.0)


def test_acceptance_3_sampler_partition():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for i in range(100):
        delta = float(rng.uniform(0.02, 2.0))
        duration = float(rng.uniform(0.1, 3.0))
        length = float(rng.uniform(0.1, 3.0))
        placement = "jittered" if i % 2 else "center"
        dec = build_decomposition(
            delta, duration, length, placement=placement, seed=i
        )
        # exact cover on breakpoint arithmetic
        assert dec.time_breaks[0] == 0.0 and dec.time_breaks[-1] == duration
        assert dec.space_breaks[0] == 0.0 and dec.space_breaks[-1] == length
        diam = math.hypot(
            float(np.max(np.diff(dec.time_breaks))),
            float(np.max(np.diff(dec.space_breaks))),
        )
        assert diam <= delta
        # constant-field reproduction is exact
        shape = (dec.n_time_slabs, dec.n_space_blocks)
        const = MeasurementSet(dec, np.full(shape, 2.5), np.full(shape, -0.75))
        for t, x in [(0.0, 0.0), (duration, length), (0.31 * duration, 0.77 * length)]:
            val = const.interpolant_value(t, x)
            assert val.r == 2.5 and val.U == -0.75
        # Lipschitz field: sup error bounded by L * delta
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        lipschitz = math.hypot(a, b)
        linear = MeasurementSet(
            dec, np.full(shape, 10.0), a * dec.t_star + b * dec.x_star
        )
        ts = rng.uniform(0.0, duration, 20)
        xs = rng.uniform(0.0, length, 20)
        for t, x in zip(ts, xs):
            err = abs(linear.interpolant_value(float(t), float(x)).U - (a * t + b * x))
            assert err <= lipschitz * delta * (1.0 + 1e-12)
    report(3, "partition exactness, reproduction, Lipschitz error bound", start, 5.0)


def test_acceptance_4_solver_verification():
    start = time.perf_counter()
    assert harness.MMS_ORDER_RANGE == (1.8, 2.2)  # frozen
    assert harness.MASS_DRIFT_MAX == 1e-10  # frozen
    rep = validate_solver()
    assert all(1.8 <= o <= 2.2 for o in rep.orders), rep.orders
    assert rep.mass_drift <= 1e-10
    assert all(1.8 <= o <= 2.2 for o in rep.nudged_orders), rep.nudged_orders
    assert rep.passed
    report(4, f"manufactured orders {tuple(round(o, 3) for o in rep.orders)}, "
              f"nudged {tuple(round(o, 3) for o in rep.nudged_orders)}, "
              f"mass drift {rep.mass_drift:.2e} over 1e4 steps", start, 60.0)


def test_acceptance_5_energy_budget():
    start = time.perf_counter()
    eos = EquationOfState(1.4, 1.0)
    visc = Viscosity(0.05)

    def per_step_violation(n, dt):
        grid = Grid1D(n, 1.0)
        x = grid.cell_centers()
        initial = FluidState(0.0, 1.0 + 0.3 * np.cos(2 * np.pi * x), np.zeros(n))
        traj, _ = integrate(
            grid, initial, 0.25, eos, visc, Forcing.zero(),
            landings=equal_steps(0.0, 0.25, dt), fixed_dt=dt,
        )
        E = np.array([total_energy(eos, grid, traj.snapshot(i)) for i in range(traj.n_snapshots)])
        D = np.array([
            visc.nu_eff * noslip_seminorm_sq(grid, traj.mom[i] / traj.rho[i])
            for i in range(traj.n_snapshots)
        ])
        dts = np.diff(traj.times)
        budget = np.diff(E) + dts * 0.5 * (D[:-1] + D[1:])
        raw_increase = float(np.max(np.maximum(np.diff(E), 0.0)))
        return float(np.max(np.maximum(budget, 0.0))), raw_increase, E[0]

    grid_f = Grid1D(128, 1.0)
    rho_f = 1.0 + 0.3 * np.cos(2 * np.pi * grid_f.cell_centers())
    dt = stable_dt(grid_f, rho_f, np.zeros(128), eos, safety=0.8)
    viol_coarse, raw_coarse, e0 = per_step_violation(64, dt)
    viol_fine, raw_fine, _ = per_step_violation(128, dt / 2.0)
    # the energy itself never increases on the smooth dissipative run, and
    # the per-step budget violation shrinks at least 3x under refinement
    assert raw_coarse <= 1e-15 * e0 and raw_fine <= 1e-15 * e0
    assert viol_coarse / viol_fine >= 3.0
    report(5, f"budget violation refinement ratio {viol_coarse / viol_fine:.2f}",
           start, 60.0)


def test_acceptance_6_synchronization(baseline_twin, control_twin):
    start = time.perf_counter()
    sync_max = 1e-4  # frozen
    assert harness.SYNC_RATIO_MAX == sync_max  # the gate the verdicts apply
    assert baseline_twin.gains.delta_smallness_ok  # delta chosen for the gate
    ratio = baseline_twin.values["sync_ratio"]
    assert ratio <= sync_max, f"baseline sync ratio {ratio:g}"
    assert baseline_twin.verdicts["synchronized"]
    assert not control_twin.verdicts["synchronized"]
    control_ratio = control_twin.values["sync_ratio"]
    assert control_ratio >= 100.0 * sync_max, (
        f"control run must miss the threshold by two orders, got {control_ratio:g}"
    )
    elapsed_fixtures = BUILD_TIMES.get("baseline_twin", 0.0) + BUILD_TIMES.get(
        "control_twin", 0.0
    )
    print(f"ACCEPTANCE 6: PASS - sync ratio {ratio:.2e} (threshold {sync_max:g}), "
          f"control {control_ratio:.2e} [{time.perf_counter() - start + elapsed_fixtures:.1f}s]")
    assert time.perf_counter() - start + elapsed_fixtures < 120.0


def test_acceptance_7_floor_rate_monotonicity():
    start = time.perf_counter()
    # short assimilation window keeps every point in the decay-dominated
    # regime of the two-term bound; gains sweep with the velocity gain at
    # four times the density gain
    cfg = ExperimentConfig(
        timeline=TimelineConfig(t_minus=-0.5, t_assim_end=0.06, t_plus=0.08),
        solver=SolverConfig(report_interval=2e-4),
    )
    assert harness.MONOTONE_BAND == 0.10  # frozen
    sweep = run_sweep(cfg, "lambda_rho", [10.0, 25.0, 50.0, 100.0])
    assert sweep.errors == [None] * 4
    for point in sweep.points:
        assert point.config.nudging.lambda_u == 4.0 * point.config.nudging.lambda_rho
        assert point.decay is not None and point.decay.r_squared > 0.99
    assert sweep.floor_non_increasing, sweep.floors
    assert sweep.rate_non_decreasing, sweep.rates
    report(7, f"floors {['%.1e' % f for f in sweep.floors]} non-increasing, "
              f"rates {['%.0f' % r for r in sweep.rates]} non-decreasing", start, 600.0)


def test_acceptance_8_forecast_control(baseline_twin):
    start = time.perf_counter()
    env = baseline_twin.envelope
    gamma_max, growth_max = 1.0, 10.0  # frozen
    assert harness.ENVELOPE_GAMMA_MAX == gamma_max  # the gate the verdicts apply
    assert harness.FORECAST_GROWTH_MAX == growth_max
    assert env.calibration_required <= gamma_max
    assert env.holds
    re_T = baseline_twin.values["re_assim_end"]
    re_plus = baseline_twin.values["re_forecast_end"]
    assert re_plus <= growth_max * re_T
    assert baseline_twin.verdicts["forecast_envelope"]
    assert baseline_twin.verdicts["forecast_growth"]
    elapsed = time.perf_counter() - start + BUILD_TIMES.get("baseline_twin", 0.0)
    print(f"ACCEPTANCE 8: PASS - envelope calibration {env.calibration_required:.3g} "
          f"<= {gamma_max}, growth {re_plus / re_T:.3g} <= {growth_max} [{elapsed:.1f}s]")
    assert elapsed < 120.0


def test_acceptance_9_gain_condition_gate():
    start = time.perf_counter()
    # (lambda_rho, lambda_u, delta, gamma_cal) -> expected
    # (ratio_ok, ordering_ok, delta_ok); floor estimates checked separately
    cases = [
        ((1.0, 1.0, 0.1, 2.0), (False, False, True)),
        ((10.0, 20.0, 1e-3, 1.0), (True, True, True)),  # exact gain-ratio boundary
        ((50.0, 200.0, 1e-3, 4.0), (True, True, True)),
        ((50.0, 200.0, 1e-2, 4.0), (True, True, False)),
        ((50.0, 100.0, 1e-3, 4.0), (True, False, True)),
        ((0.0, 0.0, 1e-3, 1.0), (True, True, True)),
        ((100.0, 150.0, 1e-3, 1.5), (False, True, True)),
        ((25.0, 100.0, 2e-3, 4.0), (True, True, True)),
        ((50.0, 256.0, 1.0 / 1024.0, 4.0), (True, True, True)),  # delta boundary: product exactly 1
        ((4.0, 8.0, 1e-3, 3.0), (True, False, True)),
    ]
    for (lr, lu, delta, gamma), expected in cases:
        rep = check_gain_conditions(NudgingConfig(lr, lu, (0.0, 1.0)), delta, gamma, epsilon=0.1)
        got = (rep.gain_ratio_ok, rep.gain_ordering_ok, rep.delta_smallness_ok)
        assert got == expected, f"case {(lr, lu, delta, gamma)}: {got} != {expected}"
    # floor estimate arithmetic at the baseline gains
    rep = check_gain_conditions(NudgingConfig(50.0, 200.0, (0.0, 1.0)), 1e-3, 4.0, epsilon=0.1)
    assert rep.floor_estimate == pytest.approx(4.0 * (0.02 + math.exp(-50.0)), rel=1e-12)
    assert rep.floor_ok is True
    rep = check_gain_conditions(NudgingConfig(0.0, 0.0, (0.0, 1.0)), 1e-3, 1.0, epsilon=0.1)
    assert rep.floor_estimate == math.inf and rep.floor_ok is False
    report(9, "gain-condition verdicts match hand arithmetic on 10 cases", start, 1.0)


def test_acceptance_10_determinism_and_replay(tmp_path, determinism_config):
    start = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    save_config(cfg_path, determinism_config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["twin", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["twin", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for name in ("energy_series.csv", "forecast_chi.csv", "config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # reports agree except for wall-clock statistics
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    rep_a.pop("stats"), rep_b.pop("stats")
    assert rep_a == rep_b
    # the audit recomputes every verdict from the persisted series
    assert cli_main(["audit", "--out", str(out_a)]) == 0
    report(10, "bit-identical CSV outputs and audit replay", start, 120.0)
