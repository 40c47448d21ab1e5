"""Semi-discrete compressible barotropic flow in 1D with no-slip walls,
relaxation (nudging) source terms, and the IMEX time integrator.

Spatial discretization is second-order central differencing of the
conservative fluxes with ghost-cell wall treatment (density even, momentum
odd).  Time stepping is the IMEX midpoint scheme ARS(1,2,2) of Ascher,
Ruuth & Spiteri (1997): transport, pressure and forcing are explicit, and
the viscous term nu_eff u_xx is implicit, one tridiagonal solve in u per
step at its single implicit stage (second order, A-stable).  So dt is
bounded by the acoustic limit alone, nudged or not.  The implicit midpoint
rule is not L-stable: the stiffest viscous mode is not damped to zero in
one step but keeps a factor (1 - z/2) / (1 + z/2), z = 4 dt nu_eff /
(rho dx^2), whose magnitude nears 1 as the grid refines at acoustic dt.
The run lands exactly on its breakpoints in equal steps: the steps to the
next one are (target - t) / n with n = ceil((target - t) / dt), so no
sliver step is left before a landing.

Inside the observations' window the IMEX step is wrapped in a Strang
splitting (Strang 1968) with the pointwise relaxation for the nudging sources
-lambda_rho (rho - Ir) on the density and -lambda_u (1 + rho) (u - IU) on
the momentum, m' = -lambda_u (1 + rho) (m / rho - IU): a half step h = dt/2
of relaxation toward the samples at t + dt/4, the IMEX step, and a second
half step toward the samples at t + 3dt/4.  Each half step holds its
samples fixed and is closed form and unconditionally stable:

    rho+ = Ir + q (rho - Ir),                 q = exp(-lam_rho h)
    m+   = rho_mid IU + e (m - rho_mid IU),   e = exp(-h lam_u (1 + rho_mid) / rho_mid)

with rho_mid = Ir + sqrt(q) (rho - Ir) the exact density at h/2, at which
the momentum's rate and target are held (the exponential midpoint rule).
The density is the exact solution and the momentum's midpoint rule is
second order, so while the samples hold still the split step is second
order in dt; it is stable at any dt, so no gain limits the step size.
Each update is a convex combination of the field and its target, and the
density's target is the (positive) sampled density, so relaxation can
never create vacuum.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, VacuumError
from .eos import EquationOfState
from .field import FluidState, Grid1D, Trajectory
from .sampler import MeasurementSet

__all__ = [
    "Viscosity",
    "NudgingConfig",
    "active",
    "Forcing",
    "IntegrationStats",
    "RHO_FLOOR",
    "MAX_STEPS",
    "rhs",
    "stable_dt",
    "step",
    "integrate",
    "make_synchronized_initial",
]

# the least density a step accepts: a stage below it raises VacuumError
RHO_FLOOR = 1e-8
# the most steps one ``integrate`` call takes before it raises BlowUpError
MAX_STEPS = 5_000_000
# a gap to a landing at most this fraction of a step above n steps of dt
# takes n steps: the rounding of the time, accumulated over the steps to a
# landing, stays far below it (a few ulps of the time per step)
_LANDING_SLACK = 1e-6


@dataclass(frozen=True)
class Viscosity:
    """Shear and bulk viscosity; the 1D stress reduces the full tensor form
    to an effective coefficient 4*mu/3 + lambda acting on du/dx."""

    mu: float
    lambda_bulk: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError("mu must be finite and > 0")
        if not np.isfinite(self.lambda_bulk) or self.mu + self.lambda_bulk < 0.0:
            raise ValueError("mu + lambda_bulk must be >= 0")
        if self.nu_eff <= 0.0:
            raise ValueError("effective viscosity must be positive")

    @property
    def nu_eff(self) -> float:
        return 4.0 * self.mu / 3.0 + self.lambda_bulk


@dataclass(frozen=True)
class NudgingConfig:
    """Relaxation gains of the nudged run: the config's ``nudging`` section.

    Gains are nonnegative; the synchronization guarantees additionally need
    lambda_u >= 2 * lambda_rho, which is reported by the gain-condition
    check rather than enforced here (control runs legitimately violate it).
    The gains act where the observations they pull toward hold data, on
    the observations' window (``active``).
    """

    lambda_rho: float
    lambda_u: float

    def __post_init__(self):
        if not (self.lambda_rho >= 0.0 and self.lambda_u >= 0.0):
            raise ValueError("gains must be nonnegative")


def active(obs, t):
    """Whether the relaxation toward the observations ``obs`` acts at t:
    t in their window [w0, w1) (elementwise for an array)."""
    w0, w1 = obs.window
    return (w0 <= t) & (t < w1)


@dataclass(frozen=True)
class Forcing:
    """Driving acceleration g(t, x) with a declared sup bound.

    ``at`` takes the cell centers x and returns the row function
    t -> g(t, x); a separable forcing computes its spatial profile there,
    once per grid.  The row function broadcasts over t: a column of times
    ``ts[:, None]`` gives one row per time, each equal bit for bit to the
    call at that scalar time.  ``at=None`` is the zero forcing."""

    at: Callable[[np.ndarray], Callable[[float], np.ndarray]] | None
    bound: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.bound) and self.bound >= 0.0):
            raise ValueError("forcing bound must be finite and >= 0")

    def on_grid(self, grid: Grid1D) -> Callable[[float], np.ndarray] | None:
        """The forcing on ``grid``'s cell centers as a function of t alone,
        bound once per run; None for the zero forcing."""
        return None if self.at is None else self.at(grid.cell_centers())

    @classmethod
    def zero(cls) -> "Forcing":
        return cls(at=None, bound=0.0)


def rhs(
    grid: Grid1D,
    rho: np.ndarray,
    mom: np.ndarray,
    eos: EquationOfState,
    forcing_at: Callable[[float], np.ndarray] | None,
    t: float,
):
    """Tendencies (d_rho, d_mom) of the explicit transport/pressure/forcing
    part on cell centers, using 3-point centered stencils.  The viscous
    term is implicit, in ``step``.

    The wall rows read the ghost cells of ``ghost_pad`` (density even,
    momentum odd) without building them: the mass flux of a ghost is minus
    its wall cell's momentum, and the momentum flux of a ghost, m u + p(rho),
    is its wall cell's own flux bit for bit.  Each difference is divided by
    -2 dx, which equals the negated quotient by 2 dx exactly (signed zeros
    included).  ``forcing_at`` is the forcing bound to the grid
    (``Forcing.on_grid``), None for no forcing."""
    h = -2.0 * grid.dx
    flux = mom * (mom / rho) + eos.pressure(rho)
    d_rho = np.empty_like(mom)
    d_mom = np.empty_like(mom)
    np.subtract(mom[2:], mom[:-2], out=d_rho[1:-1])
    np.subtract(flux[2:], flux[:-2], out=d_mom[1:-1])
    # the ghost momenta are -mom[0] and -mom[-1], the ghost fluxes the wall
    # cells' own
    d_rho[0] = mom[1] - -mom[0]
    d_rho[-1] = -mom[-1] - mom[-2]
    d_mom[0] = flux[1] - flux[0]
    d_mom[-1] = flux[-1] - flux[-2]
    d_rho /= h
    d_mom /= h
    if forcing_at is not None:
        d_mom += rho * forcing_at(t)
    return d_rho, d_mom


def stable_dt(
    grid: Grid1D,
    rho: np.ndarray,
    u: np.ndarray,
    eos: EquationOfState,
    safety: float = 0.4,
) -> float:
    """Acoustic stability bound safety * dx / max(|u| + c) for the density
    rho and the velocity u, with sound speed c = sqrt(p'(rho)); the
    implicit viscous term sets no limit."""
    speed = float((np.abs(u) + eos.sound_speed(rho)).max())
    return safety * (grid.dx / speed) if speed > 0.0 else np.inf


def _viscous_solve(rho: np.ndarray, rhs_m: np.ndarray, k: float) -> np.ndarray:
    """Solve (rho_i + 2k) u_i - k (u_{i-1} + u_{i+1}) = rhs_m_i for u with
    odd wall ghosts (u_{-1} = -u_0, u_n = -u_{n-1}), so the wall rows carry
    another k on the diagonal.  A Thomas sweep over Python floats: for
    rho >= 0 the matrix is diagonally dominant and needs no pivoting, and a
    NaN or inf input propagates to the result (a zero pivot, possible only
    at a density <= 0, gives NaN).  ``k`` must be a Python float, or every
    operation of the loop becomes numpy scalar arithmetic."""
    diag = (rho + 2.0 * k).tolist()
    diag[0] += k
    diag[-1] += k
    ys, ws = [], []
    y = w = 0.0
    try:
        for d, b in zip(diag, rhs_m.tolist()):
            pivot = d - k * w
            y = (b + k * y) / pivot
            w = k / pivot
            ys.append(y)
            ws.append(w)
    except ZeroDivisionError:
        return np.full(len(diag), np.nan)
    u = y
    for i in range(len(ys) - 2, -1, -1):
        u = ys[i] = ys[i] + ws[i] * u
    return np.array(ys, dtype=float)


def _check_stage(rho, mom, t):
    """Raise BlowUpError on a non-finite value, and otherwise VacuumError
    on a density below ``RHO_FLOOR``, naming the (first) cell of the least
    density.
    One fused elementwise test passes a sound stage; only a failing stage
    takes the exact checks, which order and word the errors.  No step of
    the test reduces by a sum, so a finite but huge value cannot overflow."""
    ok = np.isfinite(rho) & (rho >= RHO_FLOOR) & np.isfinite(mom)
    if np.count_nonzero(ok) == ok.size:
        return
    if not (np.isfinite(rho).all() and np.isfinite(mom).all()):
        raise BlowUpError(f"non-finite value at t={t:g}", time=t)
    if rho.min() < RHO_FLOOR:
        cell = int(rho.argmin())
        raise VacuumError(
            f"density {rho[cell]:g} below floor {RHO_FLOOR:g} in cell {cell} at t={t:g}",
            cell=cell,
            time=t,
        )


def _relax(rho, mom, h, r_obs, u_obs, nudging):
    """Relax (rho, mom) toward the samples over a time h; returns (rho+, mom+).

    The density takes the exact solution of rho' = -lambda_rho (rho - Ir),
    the momentum the solution of m' = -lambda_u (1 + rho) (m / rho - IU)
    with the rate and the target rho IU held at the exact midpoint density
    (the exponential midpoint rule, second order).  Each moves its field a
    fraction in [0, 1] of the way to its target, and the momentum takes no
    source other than the stated one: with lambda_u = 0 it keeps its value
    up to rounding, however far the density moves."""
    q = math.exp(-h * nudging.lambda_rho)
    gap = rho - r_obs
    rho_n = q * gap + r_obs
    # gap becomes the midpoint density, then the momentum's target, and
    # mid_rate the decay factor exp(rate / rho_mid + rate)
    gap *= math.sqrt(q)
    gap += r_obs
    rate = -h * nudging.lambda_u
    mid_rate = np.divide(rate, gap)
    mid_rate += rate
    decay = np.exp(mid_rate, out=mid_rate)
    target = np.multiply(gap, u_obs, out=gap)
    mom_n = mom - target
    mom_n *= decay
    mom_n += target
    return rho_n, mom_n


def step(
    grid: Grid1D,
    state: tuple[float, np.ndarray, np.ndarray],
    dt: float,
    eos: EquationOfState,
    visc: Viscosity,
    forcing_at: Callable[[float], np.ndarray] | None,
    ms: MeasurementSet | None = None,
    nudging: NudgingConfig | None = None,
    *,
    end_time: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``state = (t, rho, mom)`` by dt and return the new (rho, mom):
    one IMEX midpoint step ARS(1,2,2), explicit in transport, pressure and
    forcing and implicit in the viscous term.  When a gain of ``nudging``
    is positive and the step starts inside the window of the observations
    ``ms`` (``active``), it is Strang split with the closed-form relaxation
    of the module docstring: half a step of relaxation toward the samples
    at t + dt/4 before it, and half a step toward the samples at t + 3dt/4
    after it.

    The stage at t + dt/2 updates the density explicitly,
    rho1 = rho0 + (dt/2) D rho0, and solves
    (rho1 - (dt/2) nu_eff D) u1 = m_e1 with m_e1 = m0 + (dt/2) D m0 for the
    velocity (D the discrete Laplacian with odd wall ghosts in the solve,
    the explicit tendencies in the updates), then m1 = rho1 u1.  The step
    ends with rho+ = rho0 + dt D rho1 and
    m+ = m0 + dt D m1 + 2 (m1 - m_e1), the last term the stage's viscous
    increment over the whole step.  So a step makes one tridiagonal solve
    and two ``rhs`` calls.

    The caller is responsible for dt satisfying the acoustic stability
    contract, for steps not straddling the window boundary (the integrator
    lands on it exactly) and for the time bookkeeping.  ``end_time`` is the
    time stamp the checks of the new state report; it defaults to t + dt.

    ``forcing_at`` is the forcing bound to the grid once per run
    (``Forcing.on_grid``): a function of t alone, or None for no forcing.
    The explicit part, ``rhs``, writes its two wall rows from the wall
    cells' values, as the ghost cells would give them.

    The stage, the end state and the relaxed end state when nudging acts
    are each checked once: a non-finite value raises BlowUpError, and
    otherwise a density below ``RHO_FLOOR`` raises VacuumError.  The
    leading half relaxation is not checked apart: its density is a convex
    combination of the step's density and the positive samples, and a
    non-finite value in it reaches the stage's check.  These are the only
    checks of a step: no FluidState is built, and the equation of state
    does not re-check the densities it is given.  The grid's cell centers
    and the stored observation column of each (looked up once per grid by
    each ``MeasurementSet``'s ``values_at_time``) do not change during a
    run.
    """
    t, rho0, mom0 = state
    half = 0.5 * dt
    k = float(half * visc.nu_eff / grid.dx**2)

    nudge = (
        nudging is not None
        and ms is not None
        and active(ms, t)
        and (nudging.lambda_rho > 0.0 or nudging.lambda_u > 0.0)
    )
    if nudge:
        r_obs, u_obs = ms.values_at_time(np.array([t + 0.25 * dt, t + 0.75 * dt]), grid)
        rho0, mom0 = _relax(rho0, mom0, half, r_obs[0], u_obs[0], nudging)

    d_rho0, d_mom0 = rhs(grid, rho0, mom0, eos, forcing_at, t)
    rho1 = rho0 + half * d_rho0
    mom_e1 = mom0 + half * d_mom0
    mom1 = rho1 * _viscous_solve(rho1, mom_e1, k)
    _check_stage(rho1, mom1, t)

    d_rho1, d_mom1 = rhs(grid, rho1, mom1, eos, forcing_at, t + half)
    rho_s = rho0 + dt * d_rho1
    mom_s = mom0 + dt * d_mom1 + 2.0 * (mom1 - mom_e1)
    t_new = (t + dt) if end_time is None else end_time
    _check_stage(rho_s, mom_s, t_new)

    if nudge:
        rho_s, mom_s = _relax(rho_s, mom_s, half, r_obs[1], u_obs[1], nudging)
        _check_stage(rho_s, mom_s, t_new)

    return rho_s, mom_s


@dataclass(frozen=True)
class IntegrationStats:
    """Step counts and timing of one run, and its running sup bounds: the
    largest density and speed over the initial state and every accepted
    step, recorded or not."""

    n_steps: int
    dt_min: float
    dt_max: float
    wall_time: float
    rho_max: float
    speed_max: float


def _breakpoints(t0: float, t_end: float, landings: np.ndarray, ms, nudging):
    """The times a run from t0 lands on, in order: t_end, the landings in
    (t0, t_end] and, for a nudged run, the ends of its observations'
    window inside (t0, t_end)."""
    points = {t_end}
    points.update(landings[(t0 < landings) & (landings <= t_end)].tolist())
    if ms is not None and nudging is not None:
        points.update(w for w in ms.window if t0 < w < t_end)
    return sorted(points)


def integrate(
    grid: Grid1D,
    initial: FluidState,
    t_end: float,
    eos: EquationOfState,
    visc: Viscosity,
    forcing: Forcing,
    ms: MeasurementSet | None = None,
    nudging: NudgingConfig | None = None,
    *,
    landings: Sequence[float],
    fixed_dt: float | None = None,
):
    """Integrate from ``initial`` to ``t_end``; returns (Trajectory, stats).

    The run lands exactly on its breakpoints, the end time, the ends of
    the window of ``ms`` when it is nudged (the gains act on that window,
    ``active``) and the ``landings`` inside (t0, t_end], and records the
    initial state and one row per breakpoint, nothing else.  ``landings``
    may be empty.  A non-finite landing, or a ``fixed_dt`` that is not
    finite and positive, raises ValueError before anything else, on a call
    of zero span too.

    Steps use the acoustic dt of ``stable_dt``, inside the window too: the
    Strang split relaxation of ``step`` is stable at any dt and second
    order in it, so no gain sets a step size.  ``fixed_dt`` replaces the
    acoustic dt.  Each step to the next
    breakpoint is ``(target - t) / n`` with ``n = ceil((target - t) / dt)``,
    the ceiling forgiving a gap a millionth of a step above a multiple of
    dt (rounding of the time), so the steps before a landing are equal and
    none is a sliver.  The loop carries plain (t, rho, mom) arrays: each
    step is one call of ``step``, which makes the only per-step checks,
    with ``end_time`` set only on the step that lands on a breakpoint.  The
    velocity mom / rho of each accepted state is divided out once and
    serves the running sup bound and the next ``stable_dt``.  The recorded
    rows are written in place into (rows, n_cells) arrays allocated once,
    which the Trajectory holds, not a copy.  The stats carry the running
    sup bounds over the initial state and every accepted step; a call of
    zero span reports the initial state's.
    The density floor and the step limit are the constants ``RHO_FLOOR``
    and ``MAX_STEPS``; a run that needs more than ``MAX_STEPS`` steps
    raises BlowUpError.  On a vacuum or blow-up failure the trajectory of
    the filled rows is attached to the raised error as ``.partial``.  The
    forcing is bound to the grid once per call (``Forcing.on_grid``).
    """
    if fixed_dt is not None and not (np.isfinite(fixed_dt) and fixed_dt > 0.0):
        raise ValueError("fixed_dt must be finite and positive")
    landings = np.asarray(landings, dtype=float)
    if not np.isfinite(landings).all():
        raise ValueError("landings must be finite")
    t = initial.time
    if t_end < t:
        raise ValueError("t_end must not precede the initial time")
    rho, mom = initial.rho, initial.mom
    targets = _breakpoints(t, t_end, landings, ms, nudging) if t_end > t else []
    rows = 1 + len(targets)
    times = np.empty(rows)
    rhos = np.empty((rows, grid.n_cells))
    moms = np.empty((rows, grid.n_cells))
    times[0], rhos[0], moms[0] = t, rho, mom
    filled = 1
    rho_max = float(rho.max())
    u = mom / rho
    speed_max = float(np.abs(u).max())

    def trajectory():
        return Trajectory(grid, times[:filled], rhos[:filled], moms[:filled])

    if not targets:
        return trajectory(), IntegrationStats(0, 0.0, 0.0, 0.0, rho_max, speed_max)

    forcing_at = forcing.on_grid(grid)

    start = _time.perf_counter()
    n_steps = 0
    dt_min, dt_max = np.inf, 0.0
    try:
        for target in targets:
            while t < target:
                dt = fixed_dt if fixed_dt is not None else stable_dt(grid, rho, u, eos)
                gap = target - t
                n = max(1, math.ceil(gap / dt - _LANDING_SLACK))
                landing = n == 1
                dt = gap / n
                n_steps += 1
                if n_steps > MAX_STEPS:
                    raise BlowUpError(f"exceeded MAX_STEPS={MAX_STEPS} at t={t:g}", time=t)
                rho, mom = step(
                    grid,
                    (t, rho, mom),
                    dt,
                    eos,
                    visc,
                    forcing_at,
                    ms,
                    nudging,
                    end_time=target if landing else None,
                )
                t = target if landing else t + dt
                dt_min = min(dt_min, dt)
                dt_max = max(dt_max, dt)
                rho_max = max(rho_max, float(rho.max()))
                u = mom / rho
                speed_max = max(speed_max, float(np.abs(u).max()))
            times[filled], rhos[filled], moms[filled] = t, rho, mom
            filled += 1
    except (VacuumError, BlowUpError) as err:
        err.partial = trajectory()
        raise
    wall = _time.perf_counter() - start
    stats = IntegrationStats(n_steps, float(dt_min), float(dt_max), wall, rho_max, speed_max)
    return trajectory(), stats


def make_synchronized_initial(traj: Trajectory) -> FluidState:
    """Initial state of the assimilation run at t = 0: uniform density equal
    to the spatial mean of the first observed snapshot, zero momentum.  The
    uniform grid makes the total mass match the observed run exactly."""
    rho0 = float(np.mean(traj.rho[0]))
    n = traj.grid.n_cells
    return FluidState(0.0, np.full(n, rho0), np.zeros(n))
