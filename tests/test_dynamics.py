import numpy as np
import pytest

from nudgelab.diagnostics import total_energy
from nudgelab.dynamics import (
    Forcing,
    NudgingConfig,
    SolverOptions,
    Viscosity,
    integrate,
    make_synchronized_initial,
    rhs,
    stable_dt,
    step,
)
from nudgelab.eos import EquationOfState
from nudgelab.errors import BlowUpError, VacuumError
from nudgelab.field import FluidState, Grid1D, SupBounds, Trajectory
from nudgelab.harness import manufactured_case
from nudgelab.sampler import MeasurementSet, build_decomposition, sample

EOS = EquationOfState(1.4, 1.0)
VISC = Viscosity(0.05)


def uniform_state(n=64, rho=1.0, u=0.0, t=0.0):
    return FluidState(t, np.full(n, rho), np.full(n, rho * u))


def constant_measurements(r=1.0, u=0.0, duration=1.0, length=1.0):
    dec = build_decomposition(np.hypot(duration, length), duration, length)
    return MeasurementSet(dec, np.full((1, 1), r), np.full((1, 1), u))


def test_viscosity_invariants():
    v = Viscosity(0.05, 0.01)
    assert v.nu_eff == pytest.approx(4 * 0.05 / 3 + 0.01)
    with pytest.raises(ValueError):
        Viscosity(0.0)
    with pytest.raises(ValueError):
        Viscosity(0.05, -0.1)


def test_nudging_config():
    cfg = NudgingConfig(1.0, 2.0, (0.0, 1.0))
    assert cfg.active(0.0) and cfg.active(0.999)
    assert not cfg.active(1.0) and not cfg.active(-0.1)
    with pytest.raises(ValueError):
        NudgingConfig(-1.0, 0.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        NudgingConfig(1.0, 1.0, (1.0, 0.0))


def test_rest_state_zero_tendency():
    g = Grid1D(32, 1.0)
    s = uniform_state(32, rho=1.3)
    d_rho, d_mom = rhs(g, s.rho, s.mom, EOS, VISC, Forcing.zero(), 0.0)
    assert np.all(d_rho == 0.0)
    assert np.all(d_mom == 0.0)


def test_rhs_manufactured_residual_second_order():
    case = manufactured_case(EOS, VISC, 1.0)
    t = 0.5  # a time at which the momentum is not zero

    def resid(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        d_rho, d_mom = rhs(
            g, case.rho(t, x), case.momentum(t, x), EOS, VISC, case.forcing, t
        )
        return max(
            np.max(np.abs(d_rho - case.d_rho_dt(t, x))),
            np.max(np.abs(d_mom - case.d_mom_dt(t, x))),
        )

    assert resid(64) / resid(128) >= 3.5


def test_hydrostatic_balance_second_order():
    # force balancing the pressure gradient of a wavy density at rest
    def resid(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        rho = 1.0 + 0.3 * np.cos(2 * np.pi * x)

        def force(t, xx):
            r = 1.0 + 0.3 * np.cos(2 * np.pi * xx)
            return EOS.sound_speed(r) ** 2 * (-0.3 * 2 * np.pi * np.sin(2 * np.pi * xx)) / r

        _, d_mom = rhs(g, rho, np.zeros(n), EOS, VISC, Forcing(force, 10.0), 0.0)
        return np.max(np.abs(d_mom))

    assert resid(64) / resid(128) >= 3.5


def test_step_relaxes_only_inside_the_window():
    # the relaxation pulls (rho, u) = (2, 0.5) toward the samples (1, 0) on
    # [0, 1) and leaves the step bit for bit un-nudged from the window end on
    g = Grid1D(8, 1.0)
    s = uniform_state(8, rho=2.0, u=0.5)
    ms = constant_measurements(r=1.0, u=0.0)
    cfg = NudgingConfig(10.0, 40.0, (0.0, 1.0))
    for t in (0.5, 1.0, 1.5):
        free = step(g, (t, s.rho, s.mom), 1e-3, EOS, VISC, Forcing.zero())
        nudged = step(g, (t, s.rho, s.mom), 1e-3, EOS, VISC, Forcing.zero(), ms, cfg)
        if t < 1.0:
            assert np.all(nudged[0] < free[0]) and np.all(nudged[1] < free[1])
        else:
            assert np.array_equal(nudged[0], free[0]) and np.array_equal(nudged[1], free[1])


def test_step_rest_state_unchanged():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.2)
    rho, mom = step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, Forcing.zero())
    assert np.array_equal(rho, s.rho)
    assert np.array_equal(mom, s.mom)


def test_step_relaxation_halfway_example():
    # dt * lambda_rho = 1 pulls the density halfway toward the sample
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=2.0)
    ms = constant_measurements(r=1.0, u=0.0)
    cfg = NudgingConfig(10.0, 0.0, (0.0, 1.0))
    rho, _ = step(g, (s.time, s.rho, s.mom), 0.1, EOS, VISC, Forcing.zero(), ms, cfg)
    assert np.allclose(rho, 1.5, rtol=1e-14)


@pytest.mark.parametrize("dt_lambda", [0.1, 1.0, 10.0, 1000.0])
def test_step_relaxation_contraction_factor(dt_lambda):
    # the density gap to the sample shrinks by exactly 1/(1 + dt*lambda)
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=2.0)
    lam = 10.0
    dt = dt_lambda / lam
    ms = constant_measurements(r=1.0, u=0.0, duration=2.0 * dt + 1.0)
    cfg = NudgingConfig(lam, 0.0, (0.0, 2 * dt + 1.0))
    rho, _ = step(g, (s.time, s.rho, s.mom), dt, EOS, VISC, Forcing.zero(), ms, cfg)
    gap_before, gap_after = 1.0, rho[0] - 1.0
    assert gap_after == pytest.approx(gap_before / (1.0 + dt_lambda), rel=1e-12)


def test_step_synchronized_fixed_point():
    # constant observed field and matching state reproduce exactly
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.0)
    ms = constant_measurements(r=1.0, u=0.0)
    cfg = NudgingConfig(50.0, 200.0, (0.0, 1.0))
    rho, mom = step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, Forcing.zero(), ms, cfg)
    assert np.array_equal(rho, s.rho)
    assert np.array_equal(mom, s.mom)


def test_step_vacuum_error_carries_cell():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.0)
    with pytest.raises(VacuumError) as exc:
        step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, Forcing.zero(), rho_floor=2.0)
    assert exc.value.cell is not None
    assert exc.value.time is not None


def test_step_blowup_detection():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.0)
    bad = Forcing(lambda t, x: np.full_like(x, np.nan), 0.0)
    with pytest.raises(BlowUpError) as exc:
        step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, bad)
    assert exc.value.time is not None

    # a NaN density is a blow-up even when another cell falls below the
    # floor: a NaN momentum cell beside a steep momentum jump gives both
    mom = np.zeros(16)
    mom[0], mom[3] = np.nan, 1e6
    with pytest.raises(BlowUpError):
        step(g, (s.time, s.rho, mom), 1e-3, EOS, VISC, Forcing.zero())


def test_stable_dt_formula():
    g = Grid1D(64, 1.0)
    rho = np.full(64, 2.0)
    mom = np.full(64, 2.0 * 0.3)
    dt = stable_dt(g, rho, mom, EOS, VISC, safety=0.4)
    cs = float(EOS.sound_speed(2.0))
    hyper = g.dx / (0.3 + cs)
    diff = g.dx**2 * 2.0 / (2.0 * VISC.nu_eff)
    assert dt == pytest.approx(0.4 * min(hyper, diff), rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fixed_dt": 0.0},
        {"fixed_dt": -1e-3},
        {"fixed_dt": np.nan},
        {"fixed_dt": np.inf},
        {"landings": (np.nan,)},
        {"landings": (0.1, np.inf)},
        {"landings": [-np.inf]},
        {"landings": np.array([0.1, np.nan])},
        {"max_steps": 0},
        {"max_steps": -1},
        {"rho_floor": np.nan},
        {"rho_floor": np.inf},
        {"rho_floor": 0.0},
        {"safety": 0.0},
    ],
)
def test_solver_options_reject_out_of_range(kwargs):
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)


def test_integrate_calls_step_once_per_step(monkeypatch):
    import nudgelab.dynamics as dynamics

    calls = []
    real_step = dynamics.step

    def counting_step(*args, **kwargs):
        calls.append(kwargs)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counting_step)
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(64))
    options = SolverOptions(landings=(0.005, 0.01, 0.0123, 0.015))
    traj, stats = integrate(g, s, 0.02, EOS, VISC, Forcing.zero(), options=options)
    assert len(calls) == stats.n_steps > traj.n_snapshots
    landings = [kw["end_time"] for kw in calls if kw["end_time"] is not None]
    assert landings == list(traj.times[1:])


def test_integrate_builds_no_state_per_step(monkeypatch):
    g = Grid1D(16, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(16))
    built = []
    real_post_init = FluidState.__post_init__

    def counting_post_init(self):
        built.append(self.time)
        real_post_init(self)

    monkeypatch.setattr(FluidState, "__post_init__", counting_post_init)
    options = SolverOptions(fixed_dt=1e-4)
    traj, stats = integrate(g, s, 0.0125, EOS, VISC, Forcing.zero(), options=options)
    assert stats.n_steps >= 100
    assert traj.n_snapshots == stats.n_steps + 1
    assert built == []


def test_integrate_landing_step_ends_on_its_target():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.2)
    traj, stats = integrate(
        g, s, 1e-3, EOS, VISC, Forcing.zero(), options=SolverOptions(fixed_dt=1e-3)
    )
    assert stats.n_steps == 1
    assert list(traj.times) == [0.0, 1e-3]
    assert np.array_equal(traj.rho[1], s.rho)
    assert np.array_equal(traj.mom[1], s.mom)


def test_vacuum_partial_holds_the_landings_before_the_failure():
    # a forcing switched on after t = 0.03 drives the momentum so hard that
    # the wall cell empties on the second step after the landing at 0.03:
    # the density follows the momentum a step later, so the grid is fine
    # enough (dt about 2.6e-3) that the next landing is further away
    g = Grid1D(32, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(32))
    options = SolverOptions(landings=np.linspace(0.0, 0.1, 11))
    gust = Forcing(lambda t, x: np.full_like(x, 1e6 if t > 0.03 else 0.0), 1e6)

    with pytest.raises(VacuumError) as exc:
        integrate(g, s, 0.1, EOS, VISC, gust, options=options)
    partial = exc.value.partial
    assert exc.value.time > 0.03
    clean, _ = integrate(g, s, 0.1, EOS, VISC, Forcing.zero(), options=options)
    assert list(partial.times) == list(clean.times[:4])
    assert partial.times[-1] == pytest.approx(0.03, abs=1e-15)
    assert np.array_equal(partial.rho, clean.rho[:4])
    assert np.array_equal(partial.mom, clean.mom[:4])


def test_integrate_zero_span():
    g = Grid1D(16, 1.0)
    s = uniform_state(16)
    traj, stats = integrate(g, s, 0.0, EOS, VISC, Forcing.zero())
    assert stats.n_steps == 0
    assert traj.n_snapshots == 1


def test_integrate_rest_trajectory_constant():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.5)
    traj, stats = integrate(
        g, s, 0.05, EOS, VISC, Forcing.zero(), options=SolverOptions(landings=(0.01, 0.03))
    )
    assert stats.n_steps > 0
    assert np.all(traj.rho == 1.5)
    assert np.all(traj.mom == 0.0)


def test_integrate_lands_exactly_on_forced_times():
    # the landings inside (t0, t_end] and the end are recorded, in order,
    # and nothing else; the ones outside are ignored
    g = Grid1D(16, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(16))
    options = SolverOptions(landings=(0.077, -0.5, 0.0, 0.0123, 0.25))
    traj, stats = integrate(g, s, 0.1, EOS, VISC, Forcing.zero(), options=options)
    assert list(traj.times) == [0.0, 0.0123, 0.077, 0.1]
    assert stats.n_steps > 3


def test_integrate_mass_conservation_unnudged():
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.3 * np.cos(2 * np.pi * x), np.zeros(64))
    traj, stats = integrate(
        g, s, 0.2, EOS, VISC, Forcing.zero(), options=SolverOptions(landings=np.linspace(0.0, 0.2, 11))
    )
    masses = g.dx * traj.rho.sum(axis=1)
    assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]


def test_integrate_nudged_mass_relaxation_identity():
    # per step, the total-mass change equals the relaxation algebra exactly
    g = Grid1D(32, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.2 * np.cos(2 * np.pi * x), np.zeros(32))
    lam = 25.0
    cfg = NudgingConfig(lam, 4 * lam, (0.0, 1.0))
    dec = build_decomposition(0.3, 1.0, 1.0)
    obs = Trajectory(
        g,
        [0.0, 1.0],
        np.stack([np.full(32, 1.1)] * 2),
        np.zeros((2, 32)),
        SupBounds(1.1, 0.0, 0.0),
    )
    ms = sample(obs, dec)
    block = dec.space_block_index(x)
    traj, _ = integrate(
        g, s, 0.01, EOS, VISC, Forcing.zero(), ms, cfg, SolverOptions()
    )
    for k in range(traj.n_snapshots - 1):
        dt = traj.times[k + 1] - traj.times[k]
        t_mid = traj.times[k] + 0.5 * dt
        r_obs, _ = ms.values_at_time(t_mid, block)
        dm = g.dx * (traj.rho[k + 1].sum() - traj.rho[k].sum())
        expected = -dt * lam * g.dx * np.sum(traj.rho[k + 1] - r_obs)
        assert dm == pytest.approx(expected, abs=1e-13)


def test_integrate_refinement_of_final_state():
    def final(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        s = FluidState(0.0, 1.0 + 0.3 * np.cos(2 * np.pi * x), np.zeros(n))
        traj, _ = integrate(
            g, s, 0.25, EOS, VISC, Forcing.zero(), options=SolverOptions(landings=())
        )
        return traj.snapshot(traj.n_snapshots - 1)

    def coarsen(a):
        return 0.5 * (a[0::2] + a[1::2])

    s64, s128, s256 = final(64), final(128), final(256)
    d1 = np.sqrt(
        np.mean((s64.rho - coarsen(s128.rho)) ** 2)
        + np.mean((s64.mom - coarsen(s128.mom)) ** 2)
    )
    d2 = np.sqrt(
        np.mean((s128.rho - coarsen(s256.rho)) ** 2)
        + np.mean((s128.mom - coarsen(s256.mom)) ** 2)
    )
    assert d1 / d2 >= 3.5


def test_energy_decay_and_dt_order():
    # unforced, un-nudged: energy decreases, and the time-integration error
    # of the final energy shrinks at least 3x when dt halves
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    rho0 = 1.0 + 0.3 * np.cos(2 * np.pi * x)
    initial = FluidState(0.0, rho0, np.zeros(64))
    dt0 = stable_dt(g, rho0, np.zeros(64), EOS, VISC, safety=0.5)

    def efinal(dt):
        traj, _ = integrate(
            g, initial, 0.2, EOS, VISC, Forcing.zero(),
            options=SolverOptions(fixed_dt=dt, landings=()),
        )
        return total_energy(EOS, g, traj.snapshot(traj.n_snapshots - 1))

    e0 = total_energy(EOS, g, initial)
    e1, e2, e4 = efinal(dt0), efinal(dt0 / 2), efinal(dt0 / 4)
    assert e1 < e0 and e2 < e0
    assert abs(e1 - e4) / abs(e2 - e4) >= 3.0


def test_integrate_max_steps_guard():
    g = Grid1D(16, 1.0)
    s = uniform_state(16)
    with pytest.raises(BlowUpError) as exc:
        integrate(
            g, s, 1.0, EOS, VISC, Forcing.zero(),
            options=SolverOptions(fixed_dt=1e-4, max_steps=10),
        )
    assert exc.value.partial is not None
    assert exc.value.partial.n_snapshots >= 1


def test_make_synchronized_initial():
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    uniform = Trajectory(
        g, [0.0], np.ones((1, 64)), np.zeros((1, 64)), SupBounds(1.0, 0.0, 0.0)
    )
    s = make_synchronized_initial(uniform)
    assert np.all(s.rho == 1.0) and np.all(s.mom == 0.0) and s.time == 0.0

    wavy = 1.0 + 0.5 * np.sin(2 * np.pi * x)  # zero discrete mean perturbation
    traj = Trajectory(
        g, [0.0], wavy[None, :], np.zeros((1, 64)), SupBounds(1.5, 0.0, 0.0)
    )
    s2 = make_synchronized_initial(traj)
    assert np.all(np.abs(s2.rho - 1.0) <= 1e-14)
    # total mass matches the observed snapshot
    assert g.dx * s2.rho.sum() == pytest.approx(g.dx * wavy.sum(), rel=1e-14)
