"""Energy functionals, the energy report of a run with its budget residual
(one pass over the run's rows), decay fitting, gain-condition checks, and
the forecast growth envelope.

The central object is the relative energy

    E(rho, u | r, U) = 1/2 rho |u - U|^2
                       + P(rho) - P'(r) (rho - r) - P(r),

the Bregman divergence of the total energy density at the observed state.
It is the distance in which synchronization claims are stated: exponential
decay toward a gain-limited floor while nudging is active, and controlled
Gronwall growth afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import Forcing, NudgingConfig, Viscosity, active
from .eos import EquationOfState
from .field import (
    FluidState, Grid1D, Trajectory, ghost_pad, noslip_seminorm_sq,
    load_series, row_blocks, row_chunks, save_series,
)
from .sampler import MeasurementSet

__all__ = [
    "EnergyReport",
    "DecayFit",
    "GainConditionReport",
    "EnvelopeReport",
    "total_energy_density",
    "total_energy",
    "relative_energy",
    "make_energy_report",
    "fit_decay",
    "check_gain_conditions",
    "forecast_envelope",
    "forecast_chi_base",
    "save_energy_series",
    "load_energy_series",
    "ENERGY_SERIES_COLUMNS",
    "CHI_SERIES_COLUMNS",
]


def _integral(grid: Grid1D, density):
    """dx * sum over the cells (the last axis)."""
    return grid.dx * np.sum(density, axis=-1)


def _relative_energy_density(eos: EquationOfState, rho, du, r):
    """Pointwise relative energy 1/2 rho |u - U|^2 + P(rho) - P'(r)(rho - r)
    - P(r), given the velocity mismatch du = u - U."""
    return 0.5 * rho * du**2 + eos.potential_bregman(rho, r)


def total_energy_density(eos: EquationOfState, rho, mom):
    """Pointwise total energy 1/2 m^2/rho + P(rho), for rho > 0 (the
    densities of a FluidState or a Trajectory)."""
    return 0.5 * mom**2 / rho + eos.pressure_potential(rho)


def total_energy(eos: EquationOfState, grid: Grid1D, state: FluidState) -> float:
    """dx * sum of the total energy density over the grid."""
    return float(_integral(grid, total_energy_density(eos, state.rho, state.mom)))


def relative_energy(
    eos: EquationOfState,
    grid: Grid1D,
    state: FluidState,
    observed: FluidState,
) -> float:
    """Integrated relative energy of ``state`` against ``observed``.

    Nonnegative, zero exactly when the states coincide; the observed
    density must be strictly positive (guaranteed by FluidState).
    """
    if state.n_cells != grid.n_cells or observed.n_cells != grid.n_cells:
        raise ValueError("states do not match the grid")
    du = state.velocity() - observed.velocity()
    return float(_integral(grid, _relative_energy_density(eos, state.rho, du, observed.rho)))


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Diagnostics of a synchronized run against the truth: one read-only
    column per quantity, one row per report time.  The entries are finite
    and the times strictly increasing, as a Trajectory's are: a series read
    back from a file is checked like one the run made."""

    time: np.ndarray
    total_energy: np.ndarray
    rel_energy: np.ndarray
    dissipation: np.ndarray
    l2_u_diff: np.ndarray
    mass: np.ndarray
    nudge_power_rho: np.ndarray
    nudge_power_u: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, f.name), dtype=float) for f in fields(self)]
        if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
            raise ValueError("energy report columns must be 1D and of one length")
        if not all(np.isfinite(c).all() for c in columns):
            raise ValueError("energy report entries must be finite")
        if np.any(np.diff(columns[0]) <= 0.0):
            raise ValueError("energy report times must be strictly increasing")
        for f, c in zip(fields(self), columns):
            c.setflags(write=False)
            object.__setattr__(self, f.name, c)
        if (self.rel_energy < 0.0).any() or (self.total_energy < 0.0).any():
            raise ValueError("energies must be nonnegative")


def make_energy_report(
    eos: EquationOfState,
    visc: Viscosity,
    forcing: Forcing,
    traj: Trajectory,
    observed: Trajectory,
    ms: MeasurementSet | None = None,
    nudging: NudgingConfig | None = None,
) -> tuple[EnergyReport, np.ndarray]:
    """Diagnostics of ``traj`` at each of its snapshots against the truth
    ``observed`` interpolated to the same times, and the residual rates of
    its energy budget, one per interval between snapshots.

    Dissipation is nu_eff times the squared no-slip seminorm of the velocity
    mismatch; the nudging powers are the energy sources of the relaxation
    terms (negative values are sinks), zero outside the window of the
    observations ``ms`` (``active``), where the relaxation is off.  The budget
    rate is nu_eff |u|^2_H1, minus the forcing work, minus lambda_rho times
    the Fenchel-Young slack of the density mismatch, minus the nudging
    powers, and residual_k = (E_{k+1} - E_k) / dt + the trapezoidal average
    of the rate.  The budget inequality predicts residual <= tol(dx, dt),
    vanishing under refinement on smooth runs.  When ``report_interval *
    lambda_u`` is not small, the first intervals do not resolve the
    relaxation transient and dominate the maximum: 1.399 on the lite twin,
    on [0, 0.002], against a relaxation time 1/lambda_u = 0.005.  So the
    maximum over a run's report grid is a diagnostic, not a test of the
    inequality, which ``test_energy_budget_inequality_on_nudged_run`` checks
    at step resolution.

    One pass, a chunk of rows at a time (``row_chunks`` over the grid's
    cells), so no temporary spans more than ``CHUNK_CELLS`` cells: each
    chunk fills its rows of the eight per-row columns (the seven report
    quantities and the budget rate), reading u and its active rows'
    observations (one ``values_at_time`` call) once for both results.  The
    forcing is bound once per call, and the residual is formed once from
    the full columns.  Every quantity is a reduction over each row alone,
    so the chunks give the bits of one pass over all rows.  ``run_twin``,
    the one run caller, hands it one nudged block of at most
    ``ROW_BLOCK + 1`` rows and the truth rows around it.
    """
    grid = traj.grid
    if observed.grid != grid:
        raise ValueError("trajectories do not share a grid")
    dx = grid.dx
    t = traj.times
    energy, rel, dissipation, l2, mass, power_rho, power_u, rate = np.zeros((8, t.size))
    forcing_at = forcing.on_grid(grid)
    if ms is not None and nudging is not None:
        on = active(ms, t)
    else:
        on = np.zeros(t.size, dtype=bool)
    for rows in row_chunks(t.size, grid.n_cells):
        ts, rho, mom = t[rows], traj.rho[rows], traj.mom[rows]
        r, m = observed.fields_at(ts)
        u = mom / rho
        du = u - m / r
        energy[rows] = _integral(grid, total_energy_density(eos, rho, mom))
        rel[rows] = _integral(grid, _relative_energy_density(eos, rho, du, r))
        dissipation[rows] = visc.nu_eff * noslip_seminorm_sq(grid, du)
        l2[rows] = np.sqrt(_integral(grid, du**2))
        mass[rows] = _integral(grid, rho)
        rate[rows] = visc.nu_eff * noslip_seminorm_sq(grid, u)
        if forcing_at is not None:
            rate[rows] -= dx * np.sum(rho * forcing_at(ts[:, None]) * u, axis=-1)
        k = np.flatnonzero(on[rows])
        if k.size:
            r_obs, u_obs = ms.values_at_time(ts[k], grid)
            rho_on, u_on = rho[k], u[k]
            at = rows.start + k
            power_rho[at] = -nudging.lambda_rho * dx * np.sum(
                (eos.dpotential(rho_on) - 0.5 * u_on**2) * (rho_on - r_obs), axis=-1
            )
            power_u[at] = -nudging.lambda_u * dx * np.sum(
                (1.0 + rho_on) * u_on * (u_on - u_obs), axis=-1
            )
            rate[at] -= nudging.lambda_rho * dx * np.sum(
                eos.fenchel_young_gap(rho_on, r_obs), axis=-1
            )
    rate -= power_rho + power_u
    report = EnergyReport(t, energy, rel, dissipation, l2, mass, power_rho, power_u)
    residual = np.diff(energy) / np.diff(t) + 0.5 * (rate[:-1] + rate[1:])
    return report, residual


@dataclass(frozen=True)
class DecayFit:
    """Exponential-plus-floor fit RE(t) ~ floor + A * exp(-rate * t)."""

    rate: float
    floor: float
    r_squared: float
    window_used: tuple[float, float]

    def __post_init__(self):
        if not np.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.floor < 0.0:
            raise ValueError("floor must be nonnegative")


def _log_linear_fit(t: np.ndarray, y: np.ndarray, floor: float, min_keep: int):
    """Mean squared log-residual of the line fit above a candidate floor.

    Samples at or below twice the floor are excluded: they carry plateau
    noise (real series dip arbitrarily close to the truth), which would
    otherwise swamp the residual and bias the rate low.  Candidates
    retaining fewer than min_keep samples, or samples at one time only, are
    rejected with an infinite error.

    The line is the least-squares fit in closed form about the means,
    slope = sum(dt dz) / sum(dt^2), from ufunc products and sums, so no
    run calls LAPACK or BLAS: a first line fit through LAPACK raises the
    peak RSS by 1.2 MiB, its workspace.
    """
    excess = y - floor
    keep = (excess > 0.0) & (excess >= floor)
    if int(np.sum(keep)) < min_keep:
        return math.inf, 0.0, None, None
    tk, zk = t[keep], np.log(excess[keep])
    # the centered sum of squares of equal times need not be 0 after the
    # rounding of their mean, so equal times are caught here
    if np.ptp(tk) == 0.0:
        return math.inf, 0.0, None, None
    dt, dz = tk - np.mean(tk), zk - np.mean(zk)
    slope = np.sum(dt * dz) / np.sum(dt * dt)
    resid = dz - slope * dt
    return float(np.mean(resid**2)), slope, tk, zk


def _median(values: np.ndarray) -> float:
    """``np.quantile(values, 0.5)`` bit for bit, by numpy's own linear rule
    on the sorted values; np.quantile itself imports numpy.ma."""
    ordered = np.sort(values)
    g, i = math.modf(0.5 * (ordered.size - 1))
    a = float(ordered[int(i)])
    b = float(ordered[min(int(i) + 1, ordered.size - 1)])
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def fit_decay(times, rel_energy) -> DecayFit:
    """Fit log(RE - floor) linear in t, the floor found by golden-section
    search on the fit error.

    The decay claim being checked is an upper-envelope bound, so the fit
    acts on the non-increasing suffix-max envelope of the series; for
    monotone series (all the synthetic oracles) that is the series itself,
    while real plateaus that dip arbitrarily close to the truth keep a
    well-defined level.  Needs at least 10 strictly positive samples; a
    non-decaying series still returns a fit, with r_squared reporting how
    poor it is.
    """
    t = np.asarray(times, dtype=float)
    raw = np.asarray(rel_energy, dtype=float)
    if t.size < 10:
        raise ValueError("need at least 10 samples")
    if np.any(raw <= 0.0):
        raise ValueError("relative energy samples must be positive")
    y = np.maximum.accumulate(raw[::-1])[::-1]

    min_keep = max(8, int(0.05 * t.size))
    largest = np.sort(y)[::-1]
    # the floor cannot exceed the bulk of the late samples (the model says
    # every sample sits above it), and must leave enough samples to fit
    tail_cap = _median(y[t >= 0.5 * (t[0] + t[-1])])
    upper = min(0.5 * float(largest[min_keep - 1]), tail_cap) * (1.0 - 1e-9)

    def sse(floor):
        return _log_linear_fit(t, y, floor, min_keep)[0]

    floor = 0.0
    if upper > 0.0:
        # coarse scan (the error landscape need not be unimodal in the
        # floor), then golden-section refinement inside the best bracket
        candidates = np.concatenate(
            [[0.0], np.geomspace(upper * 1e-8, upper, 140)]
        )
        errs = np.array([sse(f) for f in candidates])
        best = int(np.argmin(errs))
        lo = candidates[max(best - 1, 0)]
        hi = candidates[min(best + 1, candidates.size - 1)]
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - inv_phi * (hi - lo)
        d = lo + inv_phi * (hi - lo)
        fc, fd = sse(c), sse(d)
        for _ in range(60):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - inv_phi * (hi - lo)
                fc = sse(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + inv_phi * (hi - lo)
                fd = sse(d)
        # the better end of the final bracket, not its midpoint: the error
        # jumps where a sample crosses twice the floor, and when the bracket
        # closes on such a jump, its midpoint falls on either side of it with
        # the last bits of the series
        floor = lo if sse(lo) <= sse(hi) else hi
        if not np.isfinite(sse(floor)) or sse(0.0) <= sse(floor):
            floor = 0.0

    mse, slope, tk, zk = _log_linear_fit(t, y, floor, min_keep)
    ss_tot = float(np.mean((zk - np.mean(zk)) ** 2))
    # log-residuals at roundoff scale mean a perfect fit regardless of ss_tot
    r_sq = 1.0 if (ss_tot <= 1e-300 or mse <= 1e-28) else 1.0 - mse / ss_tot
    return DecayFit(
        rate=float(-slope),
        floor=float(floor),
        r_squared=float(r_sq),
        window_used=(float(tk[0]), float(tk[-1])),
    )


@dataclass(frozen=True)
class GainConditionReport:
    """Checkable parameter conditions behind the synchronization theorem,
    evaluated against the calibrated data constant."""

    gain_ratio_ok: bool  # lambda_u >= 2 * lambda_rho
    gain_ordering_ok: bool  # lambda_u >= gamma_cal * lambda_rho
    delta_smallness_ok: bool  # delta * lambda_u * gamma_cal <= 1
    floor_estimate: float  # (1/lambda_rho + exp(-lambda_rho*T)) * gamma_cal
    floor_ok: bool  # floor_estimate < epsilon
    lambda_rho: float
    lambda_u: float
    delta: float
    gamma_cal: float


def check_gain_conditions(
    nudging: NudgingConfig,
    horizon: float,
    delta: float,
    gamma_cal: float,
    epsilon: float,
) -> GainConditionReport:
    """Evaluate the gain/resolution conditions for the gains ``nudging``
    acting over a window of length ``horizon`` (the assimilation window's
    T, which the caller passes).

    gamma_cal plays the role of the data-dependent constant (calibrated
    once from baseline runs, at least 1); the floor estimate uses the
    window length T.
    """
    if gamma_cal < 1.0:
        raise ValueError("gamma_cal must be at least 1")
    lr, lu = nudging.lambda_rho, nudging.lambda_u
    floor = (
        (1.0 / lr + math.exp(-lr * horizon)) * gamma_cal if lr > 0.0 else math.inf
    )
    return GainConditionReport(
        gain_ratio_ok=lu >= 2.0 * lr,
        gain_ordering_ok=lu >= gamma_cal * lr,
        delta_smallness_ok=delta * lu * gamma_cal <= 1.0,
        floor_estimate=floor,
        floor_ok=floor < epsilon,
        lambda_rho=lr,
        lambda_u=lu,
        delta=delta,
        gamma_cal=gamma_cal,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Forecast-window growth check RE(tau) <= exp(2 c int chi) * RE(start).

    calibration_required is the smallest multiplier c making the envelope
    hold for the whole window (0 when RE never exceeds its starting value);
    ``holds`` compares it against the calibration supplied by the caller.
    """

    calibration_required: float
    holds: bool
    max_ratio: float
    chi_integral: float


def forecast_envelope(
    times,
    rel_energy,
    chi,
    calibration: float,
) -> EnvelopeReport:
    """Check the Gronwall envelope on a forecast-window series.

    ``chi`` is the measured integrable bound sampled at ``times`` (the
    first entry is the window start).  A zero starting value makes the
    envelope trivially satisfied.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(rel_energy, dtype=float)
    chi_arr = np.asarray(chi, dtype=float)
    if t.size < 2 or t.shape != y.shape or t.shape != chi_arr.shape:
        raise ValueError("times, series, and chi must share a length >= 2")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be increasing")
    if np.any(chi_arr < 0.0):
        raise ValueError("chi must be nonnegative")
    start = float(y[0])
    dts = np.diff(t)
    chi_int = np.concatenate([[0.0], np.cumsum(0.5 * (chi_arr[:-1] + chi_arr[1:]) * dts)])
    if start <= 0.0:
        return EnvelopeReport(
            calibration_required=0.0,
            holds=True,
            max_ratio=math.inf if np.any(y[1:] > 0.0) else 1.0,
            chi_integral=float(chi_int[-1]),
        )
    ratio = y / start
    with np.errstate(divide="ignore", invalid="ignore"):
        needed = np.log(ratio[1:]) / (2.0 * chi_int[1:])
    needed = needed[np.isfinite(needed)]
    required = float(max(0.0, np.max(needed))) if needed.size else 0.0
    return EnvelopeReport(
        calibration_required=required,
        holds=required <= calibration,
        max_ratio=float(np.max(ratio)),
        chi_integral=float(chi_int[-1]),
    )


def forecast_chi_base(
    visc: Viscosity,
    traj: Trajectory,
    forcing: Forcing,
    times,
) -> np.ndarray:
    """Uncalibrated growth-rate surrogate assembled from observed fields:

        1 + sup |dU/dx| + (discrete L3 norm of div(S)/r + g) squared.

    The envelope multiplies this by a calibration constant.  As in
    ``make_energy_report``, the rows are read a chunk at a time
    (``row_chunks`` over the ghost-padded rows), so no temporary spans
    more than ``CHUNK_CELLS`` cells, and the forcing is bound once.  Each
    row is computed on its own, so any split of the rows gives the same
    bits.  ``run_twin``, the one run caller, hands it at most
    ``ROW_BLOCK + 1`` forecast rows at a time.
    """
    grid = traj.grid
    dx = grid.dx
    forcing_at = forcing.on_grid(grid)
    times = np.asarray(times, dtype=float)
    chi = np.empty(times.size)
    for rows in row_chunks(times.size, grid.n_cells + 2):
        ts = times[rows]
        rho, mom = traj.fields_at(ts)
        rp, mp = ghost_pad(rho, mom)
        up = mp / rp
        # the odd ghosts make the wall differences 2u, as in noslip_seminorm_sq
        sup_grad = np.max(np.abs(np.diff(up)), axis=-1) / dx
        div_stress = visc.nu_eff * (up[:, 2:] - 2.0 * up[:, 1:-1] + up[:, :-2]) / dx**2
        drive = div_stress / rho
        if forcing_at is not None:
            drive += forcing_at(ts[:, None])
        cube = _integral(grid, np.abs(drive) ** 3)
        # the cube root and the square stay scalar: their array forms can
        # differ from the scalar ones in the last bit
        chi[rows] = [1.0 + g + (c ** (1.0 / 3.0)) ** 2 for g, c in zip(sup_grad, cube)]
    return chi


# -- series persistence ------------------------------------------------------

# the header of energy_series.csv: EnergyReport's fields, with its time as t
ENERGY_SERIES_COLUMNS = ("t", *(f.name for f in fields(EnergyReport)[1:]))
CHI_SERIES_COLUMNS = ("t", "chi_base")


def save_energy_series(path, report: EnergyReport) -> None:
    """CSV of the report's columns, written ROW_BLOCK rows at a time."""
    columns = [getattr(report, f.name) for f in fields(report)]
    blocks = (
        np.column_stack([c[rows] for c in columns]) for rows in row_blocks(report.time.size)
    )
    save_series(path, ENERGY_SERIES_COLUMNS, blocks)


def load_energy_series(path) -> EnergyReport:
    return EnergyReport(*load_series(path, ENERGY_SERIES_COLUMNS)[1])
