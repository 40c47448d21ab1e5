import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import equal_steps
import nudgelab.dynamics as dynamics
from nudgelab import harness
from nudgelab.config import ExperimentConfig, build_forcing
from nudgelab.diagnostics import total_energy
from nudgelab.dynamics import (
    Forcing,
    NudgingConfig,
    Viscosity,
    active,
    integrate,
    make_synchronized_initial,
    _viscous_solve,
    rhs,
    stable_dt,
    step,
)
from nudgelab.eos import EquationOfState
from nudgelab.errors import BlowUpError, VacuumError
from nudgelab.field import FluidState, Grid1D, Trajectory, ghost_pad
from nudgelab.harness import manufactured_case
from nudgelab.sampler import MeasurementSet, SpaceTimeDecomposition, build_decomposition, sample

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
    # the gains act on the window of the samples, the tiling's [0, T)
    ms = constant_measurements(duration=1.0)
    assert ms.window == (0.0, 1.0)
    assert active(ms, 0.0) and active(ms, math.nextafter(1.0, 0.0))
    assert not active(ms, 1.0) and not active(ms, -0.1)
    assert NudgingConfig(1.0, 2.0) == NudgingConfig(lambda_rho=1.0, lambda_u=2.0)
    for gains in ((-1.0, 0.0), (0.0, -1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="gains must be nonnegative"):
            NudgingConfig(*gains)


def test_rest_state_zero_tendency():
    g = Grid1D(32, 1.0)
    s = uniform_state(32, rho=1.3)
    d_rho, d_mom = rhs(g, s.rho, s.mom, EOS, None, 0.0)
    assert np.all(d_rho == 0.0)
    assert np.all(d_mom == 0.0)


def _manufactured_u_xx():
    """U_xx(t, x) of the manufactured case (amplitude 0.2, length 1), from
    a symbolic derivation independent of the case's hand-written forcing."""
    import sympy as sp

    t, x = sp.symbols("t x", real=True)
    a, k = sp.Rational(1, 5), 2 * sp.pi
    U = (a / k * sp.sin(k * x) * sp.sin(t)) / (1 + a * sp.cos(k * x) * sp.cos(t))
    return sp.lambdify((t, x), sp.diff(U, x, 2), "numpy")


def test_rhs_manufactured_residual_second_order():
    # rhs is the explicit part alone: the exact tendencies less the viscous
    # term nu_eff U_xx, which the step treats implicitly
    case = manufactured_case(EOS, VISC, 1.0)
    u_xx = _manufactured_u_xx()
    t = 0.5  # a time at which the momentum is not zero

    def resid(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        d_rho, d_mom = rhs(g, case.rho(t, x), case.momentum(t, x), EOS, case.forcing.on_grid(g), t)
        return max(
            np.max(np.abs(d_rho - case.d_rho_dt(t, x))),
            np.max(np.abs(d_mom - (case.d_mom_dt(t, x) - VISC.nu_eff * u_xx(t, x)))),
        )

    assert resid(64) / resid(128) >= 3.5


def test_viscous_operator_manufactured_residual_second_order():
    # the implicit solve with k = nu_eff / dx^2, fed rho U - nu_eff U_xx,
    # returns U up to the discrete Laplacian's truncation error (the wall
    # rows included: U is odd about both walls)
    case = manufactured_case(EOS, VISC, 1.0)
    u_xx = _manufactured_u_xx()
    t = 0.5

    def resid(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        rho, u = case.rho(t, x), case.momentum(t, x) / case.rho(t, x)
        k = VISC.nu_eff / g.dx**2
        got = _viscous_solve(rho, rho * u - VISC.nu_eff * u_xx(t, x), k)
        return np.max(np.abs(got - u))

    assert resid(64) / resid(128) >= 3.5


@pytest.mark.parametrize("n", [2, 3, 64, 256])
def test_viscous_solve_matches_a_dense_solve(n):
    # (rho_i + 2k) u_i - k (u_{i-1} + u_{i+1}) with odd wall ghosts: the
    # wall rows carry another k on the diagonal
    rng = np.random.default_rng(n)
    rho = 0.5 + rng.random(n)
    b = rng.standard_normal(n)
    k = 3.7
    diag = rho + 2.0 * k
    diag[[0, -1]] += k
    dense = np.diag(diag) - k * (np.eye(n, k=1) + np.eye(n, k=-1))
    want = np.linalg.solve(dense, b)
    got = _viscous_solve(rho, b, k)
    assert isinstance(got, np.ndarray) and got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


def test_viscous_solve_zero_pivot_gives_nan():
    # a density of -3k in a wall cell zeroes the first pivot: the sweep
    # returns NaN for the stage check to report, not a ZeroDivisionError
    k = 0.5
    got = _viscous_solve(np.array([-3.0 * k, 1.0, 1.0]), np.ones(3), k)
    assert np.isnan(got).all()


def test_hydrostatic_balance_second_order():
    # force balancing the pressure gradient of a wavy density at rest
    def resid(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        rho = 1.0 + 0.3 * np.cos(2 * np.pi * x)

        def force(xx):
            r = 1.0 + 0.3 * np.cos(2 * np.pi * xx)
            return lambda t: EOS.sound_speed(r) ** 2 * (-0.3 * 2 * np.pi * np.sin(2 * np.pi * xx)) / r

        _, d_mom = rhs(g, rho, np.zeros(n), EOS, Forcing(force, 10.0).on_grid(g), 0.0)
        return np.max(np.abs(d_mom))

    assert resid(64) / resid(128) >= 3.5


def test_step_relaxes_only_inside_the_window():
    # the relaxation pulls (rho, u) = (2, 0.5) toward the samples (1, 0) on
    # [0, 1) and leaves the step bit for bit un-nudged from the window end on
    g = Grid1D(8, 1.0)
    s = uniform_state(8, rho=2.0, u=0.5)
    ms = constant_measurements(r=1.0, u=0.0)
    cfg = NudgingConfig(10.0, 40.0)
    for t in (0.5, 1.0, 1.5):
        free = step(g, (t, s.rho, s.mom), 1e-3, EOS, VISC, None)
        nudged = step(g, (t, s.rho, s.mom), 1e-3, EOS, VISC, None, ms, cfg)
        if t < 1.0:
            assert np.all(nudged[0] < free[0]) and np.all(nudged[1] < free[1])
        else:
            assert np.array_equal(nudged[0], free[0]) and np.array_equal(nudged[1], free[1])


def test_step_rest_state_unchanged():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.2)
    rho, mom = step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, None)
    assert np.array_equal(rho, s.rho)
    assert np.array_equal(mom, s.mom)


def test_step_relaxation_halfway_example():
    # dt * lambda_rho = ln 2 pulls the density halfway toward the sample,
    # a factor 1/sqrt(2) of the gap in each half step
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=2.0)
    ms = constant_measurements(r=1.0, u=0.0)
    cfg = NudgingConfig(10.0, 0.0)
    rho, _ = step(g, (s.time, s.rho, s.mom), math.log(2.0) / 10.0, EOS, VISC, None, ms, cfg)
    assert np.allclose(rho, 1.5, rtol=1e-14)


def test_step_density_relaxation_leaves_the_momentum():
    # the stated sources alone: with lambda_u = 0 the momentum takes no
    # relaxation source, however far the density relaxes.  Away from the
    # walls the nudged step keeps the free step's momentum (1), where a
    # relaxed velocity rebuilt as rho+ u+ ended at 0.952
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=2.0, u=0.5)
    ms = constant_measurements(r=1.0, u=0.5)
    cfg = NudgingConfig(10.0, 0.0)
    free = step(g, (s.time, s.rho, s.mom), 1e-2, EOS, VISC, None)
    rho, mom = step(g, (s.time, s.rho, s.mom), 1e-2, EOS, VISC, None, ms, cfg)
    assert np.allclose(rho[6:10], 1.0 + math.exp(-0.1), rtol=1e-12)
    assert np.allclose(mom[6:10], free[1][6:10], rtol=1e-12)


@pytest.mark.parametrize("dt_lambda", [0.1, 1.0, 10.0, 1000.0])
def test_step_relaxation_contraction_factor(dt_lambda):
    # the density gap to the sample shrinks by exactly exp(-dt*lambda/2)
    # per half step, so by exp(-dt*lambda) over the step: the solution of
    # the relaxation ODE, at any dt
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=2.0)
    lam = 10.0
    dt = dt_lambda / lam
    ms = constant_measurements(r=1.0, u=0.0, duration=2.0 * dt + 1.0)
    cfg = NudgingConfig(lam, 0.0)
    rho, _ = step(g, (s.time, s.rho, s.mom), dt, EOS, VISC, None, ms, cfg)
    # checked on the density, to a few of its ulps: the gap left can be far
    # smaller than the density
    assert np.allclose(rho, 1.0 + math.exp(-dt_lambda), rtol=0.0, atol=1e-15)


def test_step_synchronized_fixed_point():
    # constant observed field and matching state reproduce exactly
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.0)
    ms = constant_measurements(r=1.0, u=0.0)
    cfg = NudgingConfig(50.0, 200.0)
    rho, mom = step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, None, ms, cfg)
    assert np.array_equal(rho, s.rho)
    assert np.array_equal(mom, s.mom)


def test_step_vacuum_error_carries_cell(monkeypatch):
    monkeypatch.setattr(dynamics, "RHO_FLOOR", 2.0)
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.0)
    with pytest.raises(VacuumError) as exc:
        step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, None)
    assert exc.value.cell is not None
    assert exc.value.time is not None


def test_step_blowup_detection():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.0)
    bad = Forcing(lambda x: lambda t: np.full_like(x, np.nan), 0.0)
    with pytest.raises(BlowUpError) as exc:
        step(g, (s.time, s.rho, s.mom), 1e-3, EOS, VISC, bad.on_grid(g))
    assert exc.value.time is not None

    # a NaN density is a blow-up even when another cell falls below the
    # floor: a NaN momentum cell beside a steep momentum jump gives both
    mom = np.zeros(16)
    mom[0], mom[3] = np.nan, 1e6
    with pytest.raises(BlowUpError):
        step(g, (s.time, s.rho, mom), 1e-3, EOS, VISC, None)


def test_stable_dt_formula():
    # the acoustic limit alone: the viscous term is implicit
    g = Grid1D(64, 1.0)
    rho = np.full(64, 2.0)
    dt = stable_dt(g, rho, np.full(64, 0.3), EOS, safety=0.4)
    cs = float(EOS.sound_speed(2.0))
    assert dt == pytest.approx(0.4 * g.dx / (0.3 + cs), rel=1e-12)


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
        # the checks run before the zero-span return: no call skips them
        {"landings": (np.nan,), "t_end": 0.0},
    ],
)
def test_solver_options_reject_out_of_range(kwargs):
    # integrate's two solver options, checked before any step
    if "fixed_dt" in kwargs:
        message = "fixed_dt must be finite and positive"
    else:
        message = "landings must be finite"
    kwargs = {"landings": (), "t_end": 0.01, **kwargs}
    with pytest.raises(ValueError, match=message):
        integrate(
            Grid1D(16, 1.0), uniform_state(16), eos=EOS, visc=VISC, forcing=Forcing.zero(), **kwargs
        )


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
    landings = (0.005, 0.01, 0.0123, 0.015)
    # the acoustic dt (about 5e-3) takes many steps from 0.015 to 0.1
    traj, stats = integrate(g, s, 0.1, EOS, VISC, Forcing.zero(), landings=landings)
    assert len(calls) == stats.n_steps > traj.n_snapshots
    landings = [kw["end_time"] for kw in calls if kw["end_time"] is not None]
    assert landings == list(traj.times[1:])


def test_integrate_stats_bound_every_accepted_state(monkeypatch):
    # landings=() records the initial and the end state alone; the stats'
    # bounds are the maxima over every state the run accepted, which the
    # wrapped step records, and the recorded rows fall short of them
    states = []
    real_step = dynamics.step

    def recording_step(*args, **kwargs):
        states.append(real_step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(dynamics, "step", recording_step)
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(64))
    traj, stats = integrate(g, s, 0.3, EOS, VISC, Forcing.zero(), landings=())
    assert traj.n_snapshots == 2 and len(states) == stats.n_steps > 10
    states.append((s.rho, s.mom))
    assert stats.rho_max == max(float(rho.max()) for rho, _ in states)
    assert stats.speed_max == max(float(np.abs(mom / rho).max()) for rho, mom in states)
    rows_speed = float(np.abs(traj.mom / traj.rho).max())
    assert stats.rho_max >= traj.rho.max() and stats.speed_max > rows_speed
    # a call of zero span reports the initial state's bounds
    _, idle = integrate(g, s, 0.0, EOS, VISC, Forcing.zero(), landings=())
    assert (idle.n_steps, idle.rho_max, idle.speed_max) == (0, float(s.rho.max()), 0.0)


@pytest.mark.parametrize("fixed_dt", [None, 1e-3])
def test_integrate_takes_no_sliver_step(monkeypatch, fixed_dt):
    # landings at least a dt apart (the acoustic dt is about 5e-3) and no
    # multiple of it: the steps to each one are equal, so none is below half
    # the largest (fixed 1e-3 steps would leave a remainder of 1e-4 before
    # 0.0061 and of 2e-4 before 0.0391)
    import nudgelab.dynamics as dynamics

    dts = []
    real_step = dynamics.step

    def recording_step(*args, **kwargs):
        dts.append(args[2])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", recording_step)
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(64))
    landings = (0.0061, 0.0172, 0.0233, 0.0391)
    traj, stats = integrate(
        g, s, 0.05, EOS, VISC, Forcing.zero(), landings=landings, fixed_dt=fixed_dt
    )
    assert list(traj.times) == [0.0, *landings, 0.05]
    assert len(dts) == stats.n_steps > len(landings) + 1
    assert min(dts) >= 0.5 * max(dts)


def test_integrate_lands_in_equal_steps_despite_rounding():
    # a gap an ulp above two steps takes two steps, not a third sliver
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.2, t=0.1)
    t_end = np.nextafter(0.1 + 1e-3, 1.0)
    traj, stats = integrate(g, s, t_end, EOS, VISC, Forcing.zero(), landings=(), fixed_dt=5e-4)
    assert stats.n_steps == 2
    assert traj.times[-1] == t_end


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
    landings = equal_steps(0.0, 0.0125, 1e-4)
    traj, stats = integrate(
        g, s, 0.0125, EOS, VISC, Forcing.zero(), landings=landings, fixed_dt=1e-4
    )
    assert stats.n_steps >= 100
    assert traj.n_snapshots == stats.n_steps + 1
    assert built == []


def test_integrate_landing_step_ends_on_its_target():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.2)
    traj, stats = integrate(g, s, 1e-3, EOS, VISC, Forcing.zero(), landings=(), fixed_dt=1e-3)
    assert stats.n_steps == 1
    assert list(traj.times) == [0.0, 1e-3]
    assert np.array_equal(traj.rho[1], s.rho)
    assert np.array_equal(traj.mom[1], s.mom)


def test_vacuum_partial_holds_the_landings_before_the_failure():
    # a forcing switched on after t = 0.03 drives the momentum so hard that
    # the wall cell empties on the second step after the landing at 0.03:
    # the density follows the momentum a step later, so the grid is fine
    # enough (128 cells, acoustic dt about 2.6e-3) that the next landing is
    # further away
    g = Grid1D(128, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(128))
    landings = np.linspace(0.0, 0.1, 11)
    gust = Forcing(lambda x: lambda t: np.full_like(x, 1e6 if t > 0.03 else 0.0), 1e6)

    with pytest.raises(VacuumError) as exc:
        integrate(g, s, 0.1, EOS, VISC, gust, landings=landings)
    partial = exc.value.partial
    assert exc.value.time > 0.03
    clean, _ = integrate(g, s, 0.1, EOS, VISC, Forcing.zero(), landings=landings)
    assert list(partial.times) == list(clean.times[:4])
    assert partial.times[-1] == pytest.approx(0.03, abs=1e-15)
    assert np.array_equal(partial.rho, clean.rho[:4])
    assert np.array_equal(partial.mom, clean.mom[:4])


def test_recorded_rows_are_the_trajectory_arrays():
    # every landing is written in place into arrays allocated once: the
    # traced peak of the run holds the trajectory and no second copy of it
    g = Grid1D(1024, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.2 * np.cos(2 * np.pi * x), np.zeros(1024))
    landings = np.linspace(0.0, 0.0128, 129)
    tracemalloc.start()
    try:
        traj, stats = integrate(g, s, 0.0128, EOS, VISC, Forcing.zero(), landings=landings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_steps == 128 and traj.n_snapshots == 129
    nbytes = traj.times.nbytes + traj.rho.nbytes + traj.mom.nbytes
    assert nbytes > 2 * 2**20
    assert peak <= nbytes + 2**20
    assert not (traj.rho.flags.writeable or traj.mom.flags.writeable)


def test_integrate_zero_span():
    g = Grid1D(16, 1.0)
    s = uniform_state(16)
    traj, stats = integrate(g, s, 0.0, EOS, VISC, Forcing.zero(), landings=())
    assert stats.n_steps == 0
    assert traj.n_snapshots == 1


def test_integrate_rest_trajectory_constant():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, rho=1.5)
    traj, stats = integrate(g, s, 0.05, EOS, VISC, Forcing.zero(), landings=(0.01, 0.03))
    assert stats.n_steps > 0
    assert np.all(traj.rho == 1.5)
    assert np.all(traj.mom == 0.0)


def test_integrate_lands_exactly_on_forced_times():
    # the landings inside (t0, t_end] and the end are recorded, in order,
    # and nothing else; the ones outside are ignored
    g = Grid1D(16, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(16))
    landings = (0.077, -0.5, 0.0, 0.0123, 0.25)
    traj, stats = integrate(g, s, 0.1, EOS, VISC, Forcing.zero(), landings=landings)
    assert list(traj.times) == [0.0, 0.0123, 0.077, 0.1]
    assert stats.n_steps > 3


def test_integrate_mass_conservation_unnudged():
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.3 * np.cos(2 * np.pi * x), np.zeros(64))
    traj, stats = integrate(
        g, s, 0.2, EOS, VISC, Forcing.zero(), landings=np.linspace(0.0, 0.2, 11)
    )
    masses = g.dx * traj.rho.sum(axis=1)
    assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]


def test_integrate_nudged_mass_relaxation_identity():
    # per step, the total mass after the step is the two half relaxations
    # applied to the total mass before it: the IMEX step between them
    # conserves mass
    g = Grid1D(32, 1.0)
    x = g.cell_centers()
    s = FluidState(0.0, 1.0 + 0.2 * np.cos(2 * np.pi * x), np.zeros(32))
    lam = 25.0
    cfg = NudgingConfig(lam, 4 * lam)
    dec = build_decomposition(0.3, 1.0, 1.0)
    obs = Trajectory(
        g,
        [0.0, 1.0],
        np.stack([np.full(32, 1.1)] * 2),
        np.zeros((2, 32)),
    )
    ms = sample(obs, dec)
    # each equal step of the initial acoustic dt is landed on and recorded
    dt = stable_dt(g, s.rho, s.velocity(), EOS)
    traj, _ = integrate(
        g, s, 0.05, EOS, VISC, Forcing.zero(), ms, cfg,
        landings=equal_steps(0.0, 0.05, dt), fixed_dt=dt,
    )
    assert traj.n_snapshots > 4  # several acoustic steps
    for k in range(traj.n_snapshots - 1):
        t, dt = traj.times[k], traj.times[k + 1] - traj.times[k]
        (r_lead, r_trail), _ = ms.values_at_time(np.array([t + 0.25 * dt, t + 0.75 * dt]), g)
        q = math.exp(-0.5 * dt * lam)
        mass = g.dx * traj.rho[k].sum()
        for r_obs in (r_lead, r_trail):
            r_mass = g.dx * r_obs.sum()
            mass = r_mass + q * (mass - r_mass)
        assert g.dx * traj.rho[k + 1].sum() == pytest.approx(mass, abs=1e-13)


def test_integrate_refinement_of_final_state():
    def final(n):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        s = FluidState(0.0, 1.0 + 0.3 * np.cos(2 * np.pi * x), np.zeros(n))
        traj, _ = integrate(g, s, 0.25, EOS, VISC, Forcing.zero(), landings=())
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
    dt0 = stable_dt(g, rho0, np.zeros(64), EOS, safety=0.5)

    def efinal(dt):
        traj, _ = integrate(
            g, initial, 0.2, EOS, VISC, Forcing.zero(),
            landings=(), fixed_dt=dt,
        )
        return total_energy(EOS, g, traj.snapshot(traj.n_snapshots - 1))

    e0 = total_energy(EOS, g, initial)
    e1, e2, e4 = efinal(dt0), efinal(dt0 / 2), efinal(dt0 / 4)
    assert e1 < e0 and e2 < e0
    assert abs(e1 - e4) / abs(e2 - e4) >= 3.0


def test_integrate_max_steps_guard(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    g = Grid1D(16, 1.0)
    s = uniform_state(16)
    with pytest.raises(BlowUpError, match="MAX_STEPS=10") as exc:
        integrate(g, s, 1.0, EOS, VISC, Forcing.zero(), landings=(), fixed_dt=1e-4)
    assert exc.value.partial is not None
    assert exc.value.partial.n_snapshots >= 1


def test_make_synchronized_initial():
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    uniform = Trajectory(g, [0.0], np.ones((1, 64)), np.zeros((1, 64)))
    s = make_synchronized_initial(uniform)
    assert np.all(s.rho == 1.0) and np.all(s.mom == 0.0) and s.time == 0.0

    wavy = 1.0 + 0.5 * np.sin(2 * np.pi * x)  # zero discrete mean perturbation
    traj = Trajectory(g, [0.0], wavy[None, :], np.zeros((1, 64)))
    s2 = make_synchronized_initial(traj)
    assert np.all(np.abs(s2.rho - 1.0) <= 1e-14)
    # total mass matches the observed snapshot
    assert g.dx * s2.rho.sum() == pytest.approx(g.dx * wavy.sum(), rel=1e-14)


# -- the lean kernel against the kernel it replaced ----------------------------
# The reference below keeps the earlier formulas: rhs through ghost_pad, the
# forcing evaluated on every rhs call, a stage check of five numpy calls, and
# one scalar read of the samples for each half relaxation of the Strang step.
# Its IMEX step is ARS(1,2,2) written from its two tableaux, and its
# relaxation is the momentum form written out field by field.  Both sides run
# on the same host, so they must agree bit for bit anywhere, not only on the
# golden record's host class.


def _reference_rhs(grid, rho, mom, eos, forcing, t):
    dx = grid.dx
    rp, mp = ghost_pad(rho, mom)
    u = mp / rp
    flux = mp * u + eos.pressure(rp)
    d_rho = -(mp[2:] - mp[:-2]) / (2.0 * dx)
    d_mom = -(flux[2:] - flux[:-2]) / (2.0 * dx)
    if forcing.at is not None:
        d_mom += rho * forcing.at(grid.cell_centers())(t)
    return d_rho, d_mom


def _reference_check_stage(rho, mom, t):
    if not (np.isfinite(rho).all() and np.isfinite(mom).all()):
        raise BlowUpError(f"non-finite value at t={t:g}", time=t)
    if rho.min() < 1e-8:
        cell = int(rho.argmin())
        raise VacuumError(
            f"density {rho[cell]:g} below floor 1e-08 in cell {cell} at t={t:g}",
            cell=cell,
            time=t,
        )


def _reference_relax(rho, mom, h, r_obs, u_obs, nudging):
    # rho' = -lambda_rho (rho - Ir) exactly; m' = -lambda_u (1 + rho) (m / rho - IU)
    # with rho held at the exact midpoint density
    q = math.exp(-h * nudging.lambda_rho)
    rho_mid = r_obs + math.sqrt(q) * (rho - r_obs)
    decay = np.exp(-h * nudging.lambda_u / rho_mid - h * nudging.lambda_u)
    target = rho_mid * u_obs
    return r_obs + q * (rho - r_obs), target + decay * (mom - target)


# ARS(1,2,2): the explicit tableau has a_21 = 1/2 and weights (0, 1), the
# implicit one a_22 = 1/2 and weights (0, 1), so the step is the stage's
# tendencies over the whole dt
_A = 0.5


def _reference_step(grid, state, dt, eos, visc, forcing, ms=None, nudging=None, *, end_time=None):
    t, rho0, mom0 = state
    nudge = ms is not None and ms.window[0] <= t < ms.window[1]
    if nudge:
        r_obs, u_obs = ms.values_at_time(t + 0.25 * dt, grid)
        rho0, mom0 = _reference_relax(rho0, mom0, 0.5 * dt, r_obs, u_obs, nudging)
    k = float(_A * dt * visc.nu_eff / grid.dx**2)
    d_rho0, d_mom0 = _reference_rhs(grid, rho0, mom0, eos, forcing, t)
    rho1 = rho0 + _A * dt * d_rho0
    mom_e1 = mom0 + _A * dt * d_mom0
    mom1 = rho1 * _viscous_solve(rho1, mom_e1, k)
    _reference_check_stage(rho1, mom1, t)
    d_rho1, d_mom1 = _reference_rhs(grid, rho1, mom1, eos, forcing, t + _A * dt)
    # the stage's viscous increment is _A dt times the implicit tendency
    rho_s = rho0 + dt * d_rho1
    mom_s = mom0 + dt * d_mom1 + (mom1 - mom_e1) / _A
    t_new = (t + dt) if end_time is None else end_time
    _reference_check_stage(rho_s, mom_s, t_new)
    if nudge:
        r_obs, u_obs = ms.values_at_time(t + 0.75 * dt, grid)
        rho_s, mom_s = _reference_relax(rho_s, mom_s, 0.5 * dt, r_obs, u_obs, nudging)
        _reference_check_stage(rho_s, mom_s, t_new)
    return rho_s, mom_s


def _same_bits(a, b):
    """Equal bit for bit: signed zeros and NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _forcings(length):
    return {
        "off": Forcing.zero(),
        "config": build_forcing(ExperimentConfig(grid=Grid1D(64, length))),
        "manufactured": manufactured_case(EOS, VISC, length).forcing,
    }


def _wavy_state(g, seed):
    # a smooth profile plus noise, with the wall values and a zero momentum
    # pair chosen so that wall differences cancel to a signed zero
    n, rng = g.n_cells, np.random.default_rng(seed)
    x = g.cell_centers() / g.length
    rho = 1.0 + 0.3 * np.cos(2 * np.pi * x) + 0.01 * rng.standard_normal(n)
    mom = 0.2 * np.sin(2 * np.pi * x) + 0.01 * rng.standard_normal(n)
    mom[0], mom[1] = 0.0, -0.0
    mom[-1], mom[-2] = 0.125, -0.125
    return rho, mom


# a length of 1.3 makes dx no power of two, so a multiply by the reciprocal
# of 2 dx would differ from the division in the last bit
@pytest.mark.parametrize("length", [1.0, 1.3])
@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("kind", ["off", "config", "manufactured"])
def test_rhs_matches_the_ghost_padded_reference(length, n, kind):
    g = Grid1D(n, length)
    forcing = _forcings(length)[kind]
    bound = forcing.on_grid(g)
    for seed in range(5):
        rho, mom = _wavy_state(g, seed)
        for t in (0.0, 0.3, 2.5):
            got = rhs(g, rho, mom, EOS, bound, t)
            want = _reference_rhs(g, rho, mom, EOS, forcing, t)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    rest = np.full(n, 1.3)  # every difference is a signed zero
    got = rhs(g, rest, np.zeros(n), EOS, bound, 0.0)
    want = _reference_rhs(g, rest, np.zeros(n), EOS, forcing, 0.0)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("kind", ["off", "config"])
@pytest.mark.parametrize("nudged", [False, True])
def test_steps_match_the_reference_kernel(n, kind, nudged):
    # a sequence of whole steps, each side carrying its own state, with a
    # landing step (end_time set) every fifth step
    g = Grid1D(n, 1.3)
    forcing = _forcings(1.3)[kind]
    bound = forcing.on_grid(g)
    rho, mom = _wavy_state(g, 7)
    ms = nudging = None
    if nudged:
        x = g.cell_centers() / g.length
        obs = Trajectory(
            g, [0.0, 1.0],
            np.stack([1.0 + 0.2 * np.sin(2 * np.pi * x), 1.0 - 0.1 * np.cos(2 * np.pi * x)]),
            np.stack([0.1 * np.sin(np.pi * x), np.zeros(n)]),
        )
        ms = sample(obs, build_decomposition(0.05, 1.0, g.length, "jittered", 3))
        nudging = NudgingConfig(20.0, 80.0)
    new = ref = (rho, mom)
    t = 0.0
    for i in range(40):
        dt = min(stable_dt(g, new[0], new[1] / new[0], EOS), 2e-3)
        end_time = t + dt if i % 5 == 4 else None
        new = step(g, (t, *new), dt, EOS, VISC, bound, ms, nudging, end_time=end_time)
        ref = _reference_step(g, (t, *ref), dt, EOS, VISC, forcing, ms, nudging, end_time=end_time)
        assert _same_bits(new[0], ref[0]) and _same_bits(new[1], ref[1]), f"step {i}"
        t += dt
    assert not np.array_equal(new[0], rho)  # the run moved


def _lie_step(grid, state, dt, eos, visc, forcing_at, ms=None, nudging=None, *, end_time=None):
    # the Lie splitting the Strang step replaced: the IMEX step, then the
    # relaxation over the whole dt toward the samples at t + dt/2
    t = state[0]
    rho, mom = step(grid, state, dt, eos, visc, forcing_at, end_time=end_time)
    if ms is not None and active(ms, t):
        r_obs, u_obs = ms.values_at_time(t + 0.5 * dt, grid)
        rho, mom = _reference_relax(rho, mom, dt, r_obs, u_obs, nudging)
    return rho, mom


def _velocity_relax(rho, mom, h, r_obs, u_obs, nudging):
    # the relaxation the momentum form replaced: the velocity relaxed as
    # u' = -lambda_u (1 + rho) / rho (u - IU) and the momentum rebuilt as
    # rho+ u+, which adds -lambda_rho u (rho - Ir) to the momentum equation
    q = math.exp(-h * nudging.lambda_rho)
    rho_mid = r_obs + math.sqrt(q) * (rho - r_obs)
    decay = np.exp(-h * nudging.lambda_u / rho_mid - h * nudging.lambda_u)
    rho_n = r_obs + q * (rho - r_obs)
    return rho_n, rho_n * (u_obs + decay * (mom / rho - u_obs))


@pytest.mark.parametrize(
    "name, lo, hi", [("velocity_relaxation", 0.0, 0.3), ("lie", 0.8, 1.2)]
)
def test_nudged_manufactured_gate_rejects_a_wrong_relaxation(monkeypatch, name, lo, hi):
    # validate's nudged manufactured solution reads the step against the
    # stated nudged equations: a relaxation with an extra momentum source
    # converges to another system and levels off (about 0.08 at 128 -> 256
    # cells), and a Lie split reads first order (about 1.0).  Both fail the
    # gate, while the free manufactured solution and the mass check pass
    if name == "lie":
        monkeypatch.setattr(dynamics, "step", _lie_step)
    else:
        monkeypatch.setattr(dynamics, "_relax", _velocity_relax)
    rep = harness.validate_solver()
    assert lo <= rep.nudged_orders[-1] <= hi, rep.nudged_orders
    assert (rep.spatial_ok, rep.mass_ok, rep.nudged_ok, rep.passed) == (True, True, False, False)


@pytest.mark.parametrize("nudged", [False, True])
def test_one_viscous_solve_per_step(monkeypatch, nudged):
    calls = []
    real_solve = dynamics._viscous_solve

    def counting_solve(*args):
        calls.append(args[0].size)
        return real_solve(*args)

    monkeypatch.setattr(dynamics, "_viscous_solve", counting_solve)
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    ms = nudging = None
    if nudged:
        ms = constant_measurements(r=1.0, u=0.0, duration=0.2)
        nudging = NudgingConfig(20.0, 80.0)
    s = FluidState(0.0, 1.0 + 0.1 * np.cos(2 * np.pi * x), np.zeros(64))
    _, stats = integrate(g, s, 0.1, EOS, VISC, Forcing.zero(), ms, nudging, landings=(0.05,))
    assert stats.n_steps > 10 and calls == [64] * stats.n_steps


def test_density_step_keeps_the_stiffest_viscous_mode_small():
    # the trade of the implicit midpoint rule: it is A-stable but not
    # L-stable, so the stiffest viscous mode, (-1)^i (the eigenvector of the
    # discrete Laplacian with odd wall ghosts of the largest eigenvalue),
    # keeps a factor near -1 per step instead of being damped.  A density
    # jump excites it; it must stay negligible against the flow it drives
    g = Grid1D(1024, 1.0)
    x = g.cell_centers()
    initial = FluidState(0.0, np.where(x < 0.5, 1.0, 1.5), np.zeros(g.n_cells))
    traj, _ = integrate(g, initial, 0.05, EOS, Viscosity(0.05), Forcing.zero(), landings=())
    rho, mom = traj.rho[-1], traj.mom[-1]
    assert np.isfinite(rho).all() and np.isfinite(mom).all() and rho.min() > 0.0
    u = mom / rho
    odd_even = abs(np.dot((-1.0) ** np.arange(g.n_cells), u)) / g.n_cells
    assert odd_even < 1e-6 * np.abs(u).max()


@pytest.mark.parametrize("kernel, lo, hi", [(step, 1.8, 2.2), (_lie_step, 0.5, 1.2)], ids=["strang", "lie"])
def test_nudged_self_convergence_order_in_dt(monkeypatch, kernel, lo, hi):
    # one time slab holds the samples still, so no jump of the interpolant
    # in time limits the order: the Strang step reads second order, the
    # Lie splitting first
    g = Grid1D(64, 1.0)
    x = g.cell_centers()
    t_end = 0.25
    dec = SpaceTimeDecomposition(np.hypot(t_end, g.dx), t_end, g.length, 1, g.n_cells)
    ms = MeasurementSet(dec, (1.0 + 0.1 * np.sin(2 * np.pi * x))[None], (0.1 * np.sin(np.pi * x))[None])
    nudging = NudgingConfig(20.0, 80.0)
    initial = FluidState(0.0, 1.0 + 0.2 * np.cos(2 * np.pi * x), np.zeros(g.n_cells))
    dt0 = stable_dt(g, initial.rho, initial.velocity(), EOS)
    monkeypatch.setattr(dynamics, "step", kernel)
    finals = []
    for dt in (dt0, dt0 / 2, dt0 / 4):
        traj, _ = integrate(
            g, initial, t_end, EOS, VISC, Forcing.zero(), ms, nudging,
            landings=(), fixed_dt=dt,
        )
        finals.append(np.concatenate([traj.rho[-1], traj.mom[-1]]))
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    assert lo <= np.log2(d1 / d2) <= hi


def _raised(check, rho, mom):
    try:
        check(rho, mom, 0.25)
    except (BlowUpError, VacuumError) as err:
        return type(err), str(err), getattr(err, "cell", None), err.time
    return None


def _stage(n=16):
    x = Grid1D(n, 1.0).cell_centers()
    return 1.0 + 0.3 * np.cos(2 * np.pi * x), 0.1 * np.sin(2 * np.pi * x)


@pytest.mark.parametrize("field", ["rho", "mom"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_stage_non_finite_is_a_blowup(field, bad):
    rho, mom = _stage()
    (rho if field == "rho" else mom)[5] = bad
    raised = _raised(dynamics._check_stage, rho, mom)
    assert raised[:2] == (BlowUpError, "non-finite value at t=0.25") and raised[3] == 0.25
    assert raised == _raised(_reference_check_stage, rho, mom)


@pytest.mark.parametrize("low", [0.0, -0.5, 5e-9, -np.nextafter(0.0, 1.0)])
def test_check_stage_density_below_the_floor_is_a_vacuum(low):
    rho, mom = _stage()
    rho[3] = rho[11] = low  # the first cell of the minimum is reported
    raised = _raised(dynamics._check_stage, rho, mom)
    assert raised[0] is VacuumError and raised[2] == 3 and raised[3] == 0.25
    assert raised[1] == f"density {low:g} below floor 1e-08 in cell 3 at t=0.25"
    assert raised == _raised(_reference_check_stage, rho, mom)


@pytest.mark.parametrize("field", ["rho", "mom"])
def test_check_stage_blowup_comes_before_vacuum(field):
    rho, mom = _stage()
    rho[2] = -1.0
    (rho if field == "rho" else mom)[9] = np.nan
    assert _raised(dynamics._check_stage, rho, mom)[0] is BlowUpError
    assert _raised(dynamics._check_stage, rho, mom) == _raised(_reference_check_stage, rho, mom)


def test_check_stage_passes_huge_finite_values_without_warning():
    # a reduction by a sum would overflow here; the check must neither raise
    # nor warn, whatever the warning filters of the caller
    rho, mom = _stage()
    mom[:] = 1e200
    mom[::2] = -np.finfo(float).max
    rho[4] = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _raised(dynamics._check_stage, rho, mom) is None
        assert _raised(dynamics._check_stage, rho, mom.copy()[::-1]) is None
    assert _raised(_reference_check_stage, rho, mom) is None


def test_forcing_bound_to_a_grid_is_the_call_on_its_centers():
    ts = np.concatenate([np.linspace(-0.5, 1.0, 41), [0.0, np.pi / 2, 1e3]])
    for n in (64, 256):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        for kind in ("config", "manufactured"):
            forcing = _forcings(1.0)[kind]
            row = forcing.on_grid(g)
            for t in ts.tolist():
                got = row(t)
                assert got.shape == (n,) and _same_bits(got, forcing.at(x.copy())(t))
        zero = Forcing.zero()
        assert zero.at is None and zero.on_grid(g) is None


def test_config_forcing_binds_each_grid_to_its_own_row():
    # one forcing bound on two grids: each row is the sine forcing on its
    # own centers, so a profile bound once per config fails on one of them
    cfg = ExperimentConfig()
    amp, length = cfg.forcing.amplitude, cfg.grid.length
    forcing = build_forcing(cfg)
    grids = (Grid1D(64, length), Grid1D(256, length))
    rows = [forcing.on_grid(g) for g in grids]
    for t in (0.0, 0.7):
        for g, row in zip(grids, rows):
            x = g.cell_centers()
            assert _same_bits(row(t), amp * np.sin(2.0 * np.pi * x / length) * np.cos(t))
