"""Semi-discrete compressible barotropic flow in 1D with no-slip walls,
relaxation (nudging) source terms, and the explicit time integrator.

Spatial discretization is second-order central differencing of the
conservative fluxes with ghost-cell wall treatment (density even, momentum
odd).  Time stepping is two-stage strong-stability-preserving RK2 for the
transport/pressure/viscous/forcing part, followed by a pointwise implicit
relaxation for the nudging sources -lambda_rho (rho - Ir) on the density
and -lambda_u (1 + rho) (u - IU) on the momentum, which act only inside the
nudging window.  The relaxation solve is closed form and unconditionally
stable, so gains far above the explicit CFL scale are fine:

    rho+ = (rho* + dt * lam_rho * Ir) / (1 + dt * lam_rho)
    u+   = (u*   + dt * c * IU)       / (1 + dt * c),   c = lam_u (1 + rho+) / rho+

with the momentum reassembled as rho+ * u+.  The density update is a convex
combination of rho* and the (positive) sampled density, so relaxation can
never create vacuum.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, VacuumError
from .eos import EquationOfState
from .field import FluidState, Grid1D, SupBounds, Trajectory, ghost_pad
from .sampler import MeasurementSet

__all__ = [
    "Viscosity",
    "NudgingConfig",
    "Forcing",
    "SolverOptions",
    "IntegrationStats",
    "rhs",
    "stable_dt",
    "step",
    "integrate",
    "make_synchronized_initial",
]


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
    """Relaxation gains and the window on which they act.

    Gains are nonnegative; the synchronization guarantees additionally need
    lambda_u >= 2 * lambda_rho, which is reported by the gain-condition
    check rather than enforced here (control runs legitimately violate it).
    """

    lambda_rho: float
    lambda_u: float
    window: tuple[float, float]

    def __post_init__(self):
        if not (self.lambda_rho >= 0.0 and self.lambda_u >= 0.0):
            raise ValueError("gains must be nonnegative")
        w0, w1 = self.window
        if not (np.isfinite(w0) and np.isfinite(w1) and w0 < w1):
            raise ValueError("window must be an increasing pair")
        object.__setattr__(self, "window", (float(w0), float(w1)))

    def active(self, t):
        """Whether the relaxation acts at t (elementwise for an array)."""
        w0, w1 = self.window
        return (w0 <= t) & (t < w1)


@dataclass(frozen=True)
class Forcing:
    """Driving acceleration g(t, x) with a declared sup bound."""

    fn: Callable[[float, np.ndarray], np.ndarray] | None
    bound: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.bound) and self.bound >= 0.0):
            raise ValueError("forcing bound must be finite and >= 0")

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.fn is None:
            return np.zeros_like(x)
        return np.asarray(self.fn(t, x), dtype=float)

    @classmethod
    def zero(cls) -> "Forcing":
        return cls(fn=None, bound=0.0)


def rhs(
    grid: Grid1D,
    rho: np.ndarray,
    mom: np.ndarray,
    eos: EquationOfState,
    visc: Viscosity,
    forcing: Forcing,
    t: float,
):
    """Tendencies (d_rho, d_mom) of the transport/pressure/viscous/forcing
    part on cell centers, using 3-point centered stencils with wall ghosts."""
    dx = grid.dx
    rp, mp = ghost_pad(rho, mom)
    u = mp / rp
    flux = mp * u + eos.pressure(rp)
    d_rho = -(mp[2:] - mp[:-2]) / (2.0 * dx)
    d_mom = -(flux[2:] - flux[:-2]) / (2.0 * dx)
    d_mom += visc.nu_eff * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    if forcing.fn is not None:
        d_mom += rho * forcing(t, grid.cell_centers())
    return d_rho, d_mom


def stable_dt(
    grid: Grid1D,
    rho: np.ndarray,
    mom: np.ndarray,
    eos: EquationOfState,
    visc: Viscosity,
    safety: float = 0.4,
) -> float:
    """Explicit stability bound: safety * min(acoustic, viscous) limits with
    sound speed sqrt(p'(rho))."""
    dx = grid.dx
    speed = np.max(np.abs(mom / rho) + eos.sound_speed(rho))
    hyper = dx / speed if speed > 0.0 else np.inf
    diff = dx * dx * float(np.min(rho)) / (2.0 * visc.nu_eff)
    return safety * min(hyper, diff)


def _check_stage(rho, mom, t, rho_floor):
    if not (np.isfinite(rho).all() and np.isfinite(mom).all()):
        raise BlowUpError(f"non-finite value at t={t:g}", time=t)
    if rho.min() < rho_floor:
        cell = int(rho.argmin())
        raise VacuumError(
            f"density {rho[cell]:g} below floor {rho_floor:g} in cell {cell} at t={t:g}",
            cell=cell,
            time=t,
        )


def step(
    grid: Grid1D,
    state: tuple[float, np.ndarray, np.ndarray],
    dt: float,
    eos: EquationOfState,
    visc: Viscosity,
    forcing: Forcing,
    ms: MeasurementSet | None = None,
    nudging: NudgingConfig | None = None,
    *,
    rho_floor: float = 1e-8,
    end_time: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``state = (t, rho, mom)`` by dt and return the new (rho, mom):
    an SSP-RK2 transport stage followed by the exact implicit relaxation
    when the step lies inside the nudging window.

    The caller is responsible for dt satisfying the stability contract, for
    steps not straddling the window boundary (the integrator lands on it
    exactly) and for the time bookkeeping.  ``end_time`` is the time stamp
    the checks of the new state report; it defaults to t + dt.

    Each of the two RK stages, and the relaxed state when nudging acts, is
    checked once: a non-finite value raises BlowUpError, and otherwise a
    density below ``rho_floor`` raises VacuumError.  These are the only
    checks of a step: no FluidState is built, and the equation of state
    does not re-check the densities it is given.  What does not change during
    a run is computed once and reused: the grid's cell centers, the
    space-block index of the observations on the grid (in
    ``MeasurementSet.values_on_grid``) and, for the configured sine forcing,
    its spatial profile.
    """
    t, rho0, mom0 = state

    d_rho, d_mom = rhs(grid, rho0, mom0, eos, visc, forcing, t)
    rho1 = rho0 + dt * d_rho
    mom1 = mom0 + dt * d_mom
    _check_stage(rho1, mom1, t, rho_floor)

    d_rho, d_mom = rhs(grid, rho1, mom1, eos, visc, forcing, t + dt)
    rho_s = 0.5 * (rho0 + rho1 + dt * d_rho)
    mom_s = 0.5 * (mom0 + mom1 + dt * d_mom)
    t_new = (t + dt) if end_time is None else end_time
    _check_stage(rho_s, mom_s, t_new, rho_floor)

    nudge = (
        nudging is not None
        and ms is not None
        and nudging.active(t)
        and (nudging.lambda_rho > 0.0 or nudging.lambda_u > 0.0)
    )
    if nudge:
        r_obs, u_obs = ms.values_on_grid(t + 0.5 * dt, grid)
        rho_n = (rho_s + dt * nudging.lambda_rho * r_obs) / (1.0 + dt * nudging.lambda_rho)
        c = nudging.lambda_u * (1.0 + rho_n) / rho_n
        u_n = (mom_s / rho_s + dt * c * u_obs) / (1.0 + dt * c)
        rho_s = rho_n
        mom_s = rho_n * u_n
        _check_stage(rho_s, mom_s, t_new, rho_floor)

    return rho_s, mom_s


@dataclass(frozen=True)
class SolverOptions:
    """Time-stepping controls.

    landings are the times the run lands on exactly and records, besides
    its end time and the ends of the nudging window; None lands on those
    alone and records every accepted step.  fixed_dt bypasses the CFL
    estimate.
    """

    safety: float = 0.4
    rho_floor: float = 1e-8
    max_steps: int = 5_000_000
    fixed_dt: float | None = None
    landings: Sequence[float] | None = None

    def __post_init__(self):
        if not (0.0 < self.safety <= 1.0):
            raise ValueError("safety must lie in (0, 1]")
        if not (np.isfinite(self.rho_floor) and self.rho_floor > 0.0):
            raise ValueError("rho_floor must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.fixed_dt is not None and not (np.isfinite(self.fixed_dt) and self.fixed_dt > 0.0):
            raise ValueError("fixed_dt must be finite and positive")
        if self.landings is not None:
            landings = tuple(float(t) for t in self.landings)
            if not np.isfinite(landings).all():
                raise ValueError("landings must be finite")
            object.__setattr__(self, "landings", landings)


@dataclass(frozen=True)
class IntegrationStats:
    n_steps: int
    dt_min: float
    dt_max: float
    wall_time: float


def _breakpoints(t0: float, t_end: float, options: SolverOptions, nudging):
    points = {t_end}
    if options.landings is not None:
        points.update(t for t in options.landings if t0 < t <= t_end)
    if nudging is not None:
        points.update(w for w in nudging.window if t0 < w < t_end)
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
    options: SolverOptions | None = None,
):
    """Integrate from ``initial`` to ``t_end``; returns (Trajectory, stats).

    Steps use the stability-bounded dt, capped so the run lands exactly on
    the end time, the nudging window boundary, and ``options.landings``.  The
    loop carries plain (t, rho, mom) arrays: each step is one call of
    ``step``, which makes the only per-step checks, with ``end_time`` set
    only on the step that lands on a breakpoint.  Recorded snapshots are
    stacked once, by the Trajectory.  The trajectory carries the running
    sup bounds over every accepted step.  On a vacuum or blow-up failure
    the trajectory recorded so far is attached to the raised error as
    ``.partial``.
    """
    options = options or SolverOptions()
    t = initial.time
    if t_end < t:
        raise ValueError("t_end must not precede the initial time")
    rho, mom = initial.rho, initial.mom
    times, rhos, moms = [t], [rho], [mom]
    rho_max = float(rho.max())
    speed_max = float(np.abs(mom / rho).max())

    def trajectory():
        return Trajectory(
            grid, times, rhos, moms, SupBounds(rho_max, speed_max, forcing.bound)
        )

    if t_end == t:
        return trajectory(), IntegrationStats(0, 0.0, 0.0, 0.0)

    start = _time.perf_counter()
    every_step = options.landings is None
    targets = _breakpoints(t, t_end, options, nudging)
    n_steps = 0
    dt_min, dt_max = np.inf, 0.0
    try:
        for target in targets:
            while t < target:
                if options.fixed_dt is not None:
                    dt = options.fixed_dt
                else:
                    dt = stable_dt(grid, rho, mom, eos, visc, options.safety)
                landing = t + dt >= target
                if landing:
                    dt = target - t
                n_steps += 1
                if n_steps > options.max_steps:
                    raise BlowUpError(
                        f"exceeded max_steps={options.max_steps} at t={t:g}", time=t
                    )
                rho, mom = step(
                    grid,
                    (t, rho, mom),
                    dt,
                    eos,
                    visc,
                    forcing,
                    ms,
                    nudging,
                    rho_floor=options.rho_floor,
                    end_time=target if landing else None,
                )
                t = target if landing else t + dt
                dt_min = min(dt_min, dt)
                dt_max = max(dt_max, dt)
                rho_max = max(rho_max, float(rho.max()))
                speed_max = max(speed_max, float(np.abs(mom / rho).max()))
                if every_step or landing:
                    times.append(t)
                    rhos.append(rho)
                    moms.append(mom)
    except (VacuumError, BlowUpError) as err:
        err.partial = trajectory()
        raise
    wall = _time.perf_counter() - start
    return trajectory(), IntegrationStats(n_steps, float(dt_min), float(dt_max), wall)


def make_synchronized_initial(traj: Trajectory) -> FluidState:
    """Initial state of the assimilation run at t = 0: uniform density equal
    to the spatial mean of the first observed snapshot, zero momentum.  The
    uniform grid makes the total mass match the observed run exactly."""
    rho0 = float(np.mean(traj.rho[0]))
    n = traj.grid.n_cells
    return FluidState(0.0, np.full(n, rho0), np.zeros(n))
