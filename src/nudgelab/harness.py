"""Twin-experiment orchestration: observed (truth) runs, synchronized runs,
parameter sweeps, manufactured-solution validation, and report persistence.

A twin experiment generates a truth trajectory, samples it through the
space-time decomposition, restarts a second run from uninformed initial data
with the relaxation terms active on the assimilation window, and measures
how fast and how far the second run locks onto the first.  Everything the
verdicts depend on is persisted as plain CSV/JSON so they can be recomputed
offline (the ``audit`` entry point does exactly that).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    SWEEP_AXES,
    build_forcing,
    build_initial_state,
    build_tiling,
    load_config,
    report_times,
    save_config,
)
from .diagnostics import (
    CHI_SERIES_COLUMNS,
    DecayFit,
    EnergyReport,
    EnvelopeReport,
    GainConditionReport,
    check_gain_conditions,
    fit_decay,
    forecast_chi_base,
    forecast_envelope,
    load_energy_series,
    make_energy_report,
    save_energy_series,
)
from .dynamics import (
    Forcing,
    IntegrationStats,
    NudgingConfig,
    Viscosity,
    integrate,
    make_synchronized_initial,
    stable_dt,
)
from .eos import EquationOfState
from .errors import BlowUpError, ConfigError, VacuumError
from .field import FluidState, Grid1D, Trajectory, load_series, row_blocks, save_series
from .sampler import (
    InterpolationError,
    MeasurementSet,
    build_decomposition,  # unused here: perfbench/spans.py wraps harness.build_decomposition
    interpolation_error,
    sample,
)

__all__ = [
    "run_observed",
    "run_twin",
    "run_sweep",
    "validate_solver",
    "TwinReport",
    "SweepReport",
    "ValidationReport",
    "AuditResult",
    "persist_twin",
    "audit_twin",
    "manufactured_case",
]


# -- observed (truth) runs ----------------------------------------------------


def observed_signature(cfg: ExperimentConfig) -> tuple:
    """Key over exactly the config subset the observed run depends on: its
    frozen sections, whose leaves compare as numbers (so +0.0 and -0.0,
    which give the same truth bit for bit, are one key)."""
    return (cfg.grid, cfg.eos, cfg.viscosity, cfg.timeline, cfg.forcing, cfg.initial,
            cfg.solver.report_interval)


def run_observed(
    cfg: ExperimentConfig,
    truths: dict | None = None,
    *,
    start: FluidState | None = None,
    landings: tuple | None = None,
) -> tuple[Trajectory, IntegrationStats]:
    """Integrate the truth run over the whole observation window with the
    relaxation terms off; returns the trajectory and the run's statistics,
    its sup bounds among them.

    The truth starts from ``build_initial_state`` at t_minus and lands on,
    and records, t = 0 and the nudged run's own landings
    (``report_times``: the report grid and the window end, the last of
    them t_plus), so its snapshot times are t_minus followed by the nudged
    run's.  Every read of the truth falls on these times or between them:
    the report grid, t = 0 and the first snapshot exactly, the slab
    control times by linear interpolation.

    ``truths`` is a memo that the caller owns, keyed by
    ``observed_signature``.  A hit returns the stored trajectory with the
    statistics of the call, which integrated nothing: 0 steps in 0 s, and
    0.0 for its dt range and its sup bounds.  A
    miss replaces the memo's content, so a sweep that varies the observed
    run holds one trajectory at a time.  Without a memo every call
    integrates.

    With ``start`` and ``landings`` the call integrates one block of that
    truth instead: from ``start`` to the last of ``landings``, landing on
    each, without reading or filling the memo.  A twin without a memo
    integrates its truth so, in row blocks (``_TruthWindow.blocks``), and
    holds a few of them.
    """
    memo = truths if start is None else None
    if memo is not None:
        key = observed_signature(cfg)
        if key in memo:
            return memo[key], IntegrationStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if start is None:
        start, landings = build_initial_state(cfg, cfg.grid), (0.0, *report_times(cfg))
    traj, stats = integrate(
        cfg.grid, start, landings[-1], cfg.eos, cfg.viscosity, build_forcing(cfg),
        landings=landings,
    )
    if memo is not None:
        memo.clear()
        memo[key] = traj
    return traj, stats


class _TruthWindow:
    """The truth side of a twin, its one reader, a function of the config
    alone: the rows of the truth that the twin still reads (``traj``), the
    slab window of their samples that the nudged run reads (``ms``), the
    running ``interp_error``, and the wall times of sampling and of the
    truth's diagnostics.  Its blocks come from ``blocks``, or, with a
    memo, from ``run_observed`` as one block holding the whole truth.
    Before the first ``advance``, ``traj`` is the first block, from
    t_minus, and ``ms`` is None.

    ``advance(block)`` takes a nudged block of landings ending at t_e,
    starting on the previous block's last landing (0.0 for the first).  It

    1. covers t_e and, inside the tiling, the end break of t_e's slab
       (``cover``, keeping the rows from the block's start);
    2. samples the slabs through t_e's that are not yet sampled (``sample``
       over a slab range draws the jittered control points of those slabs
       only) into ``ms``, which keeps the slabs from that of the block's
       start on, so it holds the slabs of one block;
    3. folds those slabs' ``interpolation_error`` into ``interp_error``;
    4. returns ``forecast_chi_base`` at the block's landings at or after
       T, the nudged block's forecast rows.

    ``stats`` holds the blocks' statistics and ``n_rows`` counts the
    truth's rows so far."""

    def __init__(self, cfg: ExperimentConfig, truths: dict | None):
        self.cfg, self.dec, self.forcing = cfg, build_tiling(cfg), build_forcing(cfg)
        self._blocks = self.blocks(cfg) if truths is None else iter([run_observed(cfg, truths)])
        self.traj, stats = next(self._blocks)
        self.stats, self.n_rows = [stats], self.traj.n_snapshots
        self.ms, self.start, self.interp_error = None, 0.0, InterpolationError(0.0, 0.0)
        self.sample_wall_time = self.diagnostics_wall_time = 0.0

    @staticmethod
    def blocks(cfg: ExperimentConfig):
        """The truth of ``run_observed`` in the nudged run's row blocks, each
        with its step statistics: the spin-up over [t_minus, 0], then
        ``ROW_BLOCK`` of ``report_times`` at a time, each block a
        ``run_observed`` call from the last row of the one before.  Every
        block ends on a landing of the single call, so the blocks take its
        steps bit for bit.  ``MAX_STEPS`` bounds each block's call."""
        landings = report_times(cfg)
        start = build_initial_state(cfg, cfg.grid)
        for block in ((0.0,), *(landings[rows] for rows in row_blocks(len(landings)))):
            traj, stats = run_observed(cfg, start=start, landings=block)
            yield traj, stats
            start = traj.snapshot(-1)

    def cover(self, t: float, keep_from: float) -> None:
        """Join blocks until ``traj`` reaches t, each join keeping the rows
        from the one before the first row at or after ``keep_from``: a read
        at a row's time then takes the bracket that ``Trajectory._weights``
        takes on the whole truth, so it is bit for bit the same, signed
        zeros included."""
        while self.traj.times[-1] < t:
            block, stats = next(self._blocks)
            old = self.traj
            keep = max(int(np.searchsorted(old.times, keep_from)) - 1, 0)
            self.traj = Trajectory(old.grid, *(
                np.concatenate((getattr(old, f)[keep:], getattr(block, f)[1:]))
                for f in ("times", "rho", "mom")
            ))
            self.stats.append(stats)
            self.n_rows += block.n_snapshots - 1

    def advance(self, block) -> np.ndarray:
        """Steps 1 to 4 above for the nudged block of landings ``block``."""
        cfg, dec, ms, t_e = self.cfg, self.dec, self.ms, block[-1]
        covered = int(dec.time_slab_index(min(t_e, cfg.timeline.t_assim_end))) + 1
        n_sampled = 0 if ms is None else ms.first_slab + len(ms.r_sample)
        self.cover(max(t_e, dec.time_breaks[covered]), keep_from=self.start)
        clock = _time.perf_counter()
        if covered > n_sampled:
            new = sample(self.traj, dec, slice(n_sampled, covered))
            self.sample_wall_time += _time.perf_counter() - clock
            clock = _time.perf_counter()
            gap, prior = interpolation_error(new, self.traj), self.interp_error
            self.interp_error = InterpolationError(
                max(prior.sup_err_r, gap.sup_err_r), max(prior.sup_err_U, gap.sup_err_U)
            )
            if ms is not None:
                keep = int(dec.time_slab_index(self.start))
                new = MeasurementSet(dec, *(
                    np.concatenate((getattr(ms, f)[keep - ms.first_slab:], getattr(new, f)))
                    for f in ("r_sample", "U_sample")
                ), new.blocks, keep)
            self.ms = new
        times = np.asarray(block)[_forecast_rows(cfg, block)]
        chi = forecast_chi_base(cfg.viscosity, self.traj, self.forcing, times)
        self.diagnostics_wall_time += _time.perf_counter() - clock
        self.start = t_e
        return chi


# -- the acceptance gate ------------------------------------------------------

# Frozen thresholds, calibrated on baseline runs (scripts/calibrate_thresholds.py
# prints the margins); every verdict, the audit's included, reads them here.
SYNC_RATIO_MAX = 1e-4  # RE(T) / RE(0) of a synchronized twin
FORECAST_GROWTH_MAX = 10.0  # RE(t_plus) / RE(T)
ENVELOPE_GAMMA_MAX = 1.0  # largest admissible forecast envelope calibration
MMS_ORDER_RANGE = (1.8, 2.2)  # manufactured-solution orders, free and nudged
MASS_DRIFT_MAX = 1e-10  # relative mass drift over 1e4 fixed steps
MONOTONE_BAND = 0.10  # acceptance 7: tolerance of the floor/rate monotonicity
# the manufactured-solution studies of validate_solver: their resolutions,
# the free run's end time, and the nudged run's gains and span (it starts
# at t = 1, where sin t is not small, and runs as long as the free one)
MMS_N_VALUES = (64, 128, 256)
MMS_T_FINAL = 0.1
MMS_NUDGING = NudgingConfig(20.0, 80.0)
MMS_NUDGED_WINDOW = (1.0, 1.0 + MMS_T_FINAL)


# -- twin experiment ----------------------------------------------------------


# the blocks of the derived report, which ``_derive_diagnostics`` returns:
# TwinReport's fields and report.json's keys, each one recomputed by the audit
DERIVED = ("decay", "gains", "envelope", "values", "verdicts", "passed")


@dataclass(frozen=True)
class TwinReport:
    """Everything a twin run produced; verdicts are derivable from the
    persisted series plus the config echo.  ``chi_base`` holds one entry
    per forecast row of ``energy`` (``_forecast_rows``), which give its
    times."""

    config: ExperimentConfig
    energy: EnergyReport
    budget_residual_max: float
    chi_base: np.ndarray
    interp_error: InterpolationError
    stats: dict
    decay: DecayFit | None
    gains: GainConditionReport
    envelope: EnvelopeReport
    values: dict
    verdicts: dict
    passed: bool


def _forecast_rows(cfg: ExperimentConfig, times) -> np.ndarray:
    """Indices of a series' forecast rows: its times at or after the window
    end T.  T is a landing of every run, so the first of them is T's row."""
    return np.flatnonzero(np.asarray(times) >= cfg.timeline.t_assim_end)


def _derive_diagnostics(cfg: ExperimentConfig, times, re_series, chi_base) -> dict:
    """The derived report of a relative-energy series, keyed by ``DERIVED``:
    the decay fit over [0, T], the gain report, the forecast envelope over
    the forecast rows (``_forecast_rows``, which ``chi_base`` is sampled
    at), the values, the verdicts and whether they all pass.

    Used identically by run_twin and audit so recomputation is bit-stable.
    A series with fewer than two forecast rows, or with another number of
    them than ``chi_base`` has entries, raises ValueError
    (``forecast_envelope``'s length rule).
    """
    times = np.asarray(times, dtype=float)
    re_series = np.asarray(re_series, dtype=float)
    rows = _forecast_rows(cfg, times)
    envelope = forecast_envelope(times[rows], re_series[rows], chi_base, ENVELOPE_GAMMA_MAX)

    idx_T = int(rows[0])
    re0 = float(re_series[0])
    re_T = float(re_series[idx_T])
    re_plus = float(re_series[-1])

    mask = (times <= times[idx_T]) & (re_series > 0.0)
    decay = None
    if int(np.sum(mask)) >= 10:
        decay = fit_decay(times[mask], re_series[mask])

    gains = check_gain_conditions(
        cfg.nudging,
        cfg.timeline.t_assim_end,
        cfg.sampler.delta,
        cfg.calibration.gamma_cal,
        cfg.calibration.epsilon_target,
    )

    sync_ratio = re_T / re0 if re0 > 0.0 else 0.0
    growth_ratio = re_plus / re_T if re_T > 0.0 else (0.0 if re_plus == 0.0 else np.inf)
    values = {
        "re_initial": re0,
        "re_assim_end": re_T,
        "re_forecast_end": re_plus,
        "sync_ratio": sync_ratio,
        "growth_ratio": growth_ratio,
    }
    verdicts = {
        "gain_ratio": gains.gain_ratio_ok,
        "gain_ordering": gains.gain_ordering_ok,
        "delta_smallness": gains.delta_smallness_ok,
        "floor_estimate": gains.floor_ok,
        "synchronized": sync_ratio <= SYNC_RATIO_MAX,
        "forecast_growth": re_plus <= FORECAST_GROWTH_MAX * re_T + 1e-300,
        "forecast_envelope": envelope.holds,
    }
    return dict(zip(DERIVED, (decay, gains, envelope, values, verdicts, all(verdicts.values()))))


def run_twin(cfg: ExperimentConfig, out_dir=None, truths: dict | None = None) -> TwinReport:
    """Full twin experiment: the truth run, sampled on the tiling of the
    assimilation window, and a run restarted from the mean-density rest
    state (``make_synchronized_initial`` of the truth's first row, at
    t_minus), nudged to the window end T and free to the forecast end;
    then diagnostics, verdicts and optional persistence.

    The twin is one pass over time.  The nudged run is integrated one
    ``ROW_BLOCK`` of ``report_times`` at a time, each ``integrate`` call
    starting from the previous one's last row and ending on a landing, so
    its steps are those of a single call; ``MAX_STEPS`` bounds each call.
    Before each block, ``_TruthWindow.advance`` does the truth side of it.
    The block reads the window's slabs, whose gains act on the tiling's
    [0, T) (``MeasurementSet.window``), and one ``make_energy_report``
    pass over its rows gives its report columns and budget residual.  The
    twin so holds a few blocks of each run and one block of slabs,
    whatever the window lengths and the placement.  The samples are not
    written: ``sample`` recomputes them, bit for bit, from the truth that
    ``observe`` writes and the config's tiling (``build_tiling``).  In
    ``stats`` each run's step count and integration wall time are the sums
    over its blocks and its dt range the extremes over them;
    ``diagnostics_wall_time`` includes the window's.

    When either run fails, ``_recording_failure`` writes ``config.json`` and
    ``error.json`` (naming the failed run) before the error propagates, and
    for the nudged run also the energy series of every row it reached: the
    finished blocks, then the failed block's partial rows.  A truth that fails
    after nudged blocks have run writes nothing more.  The ``.partial`` of
    an error holds the failing block only, from its start row.

    ``truths`` is handed to ``run_observed``: the twin reads the memo's
    whole truth, and a twin that reuses it reports 0 truth steps and 0 s in
    its ``stats``.  Without a memo the twin integrates its own truth.
    """
    cfg.validate()
    wall_start = _time.perf_counter()
    eos, visc, forcing, nudging = cfg.eos, cfg.viscosity, build_forcing(cfg), cfg.nudging
    with _recording_failure(cfg, "truth", out_dir):
        truth = _TruthWindow(cfg, truths)
    start = make_synchronized_initial(truth.traj)
    landings = report_times(cfg)
    parts, chi, nudged_stats = [], [], []
    budget_max, diagnostics_wall_time = -np.inf, 0.0

    def reached(partial):
        # the finished blocks, then the failed block's rows up to the failure
        part = make_energy_report(eos, visc, forcing, partial, truth.traj, truth.ms, nudging)[0]
        return _joined_report([*parts, part])

    for rows in row_blocks(len(landings)):
        block = landings[rows]
        with _recording_failure(cfg, "truth", out_dir):
            chi.append(truth.advance(block))
        with _recording_failure(cfg, "nudged", out_dir, reached):
            traj, block_stats = integrate(
                cfg.grid, start, block[-1], eos, visc, forcing, truth.ms, nudging, landings=block
            )
        nudged_stats.append(block_stats)
        diagnostics_start = _time.perf_counter()
        part, residual = make_energy_report(eos, visc, forcing, traj, truth.traj, truth.ms, nudging)
        parts.append(part)
        budget_max = max(budget_max, float(np.max(residual)))
        diagnostics_wall_time += _time.perf_counter() - diagnostics_start
        if rows.stop < len(landings):
            start = traj.snapshot(-1)

    diagnostics_start = _time.perf_counter()
    energy = _joined_report(parts)
    chi_base = np.concatenate(chi)
    derived = _derive_diagnostics(cfg, energy.time, energy.rel_energy, chi_base)
    diagnostics_wall_time += _time.perf_counter() - diagnostics_start

    observed_stats, nudged = _summed(truth.stats), _summed(nudged_stats)
    stats = {
        "nudged_steps": nudged.n_steps,
        "nudged_dt_min": nudged.dt_min,
        "nudged_dt_max": nudged.dt_max,
        "observed_steps": observed_stats.n_steps,
        "observed_dt_min": observed_stats.dt_min,
        "observed_dt_max": observed_stats.dt_max,
        "observed_wall_time": observed_stats.wall_time,
        "nudged_wall_time": nudged.wall_time,
        "sample_wall_time": truth.sample_wall_time,
        "diagnostics_wall_time": diagnostics_wall_time + truth.diagnostics_wall_time,
        "observed_snapshots": truth.n_rows,
        "wall_time": _time.perf_counter() - wall_start,
    }
    report = TwinReport(
        config=cfg,
        energy=energy,
        budget_residual_max=budget_max,
        chi_base=chi_base,
        interp_error=truth.interp_error,
        stats=stats,
        **derived,
    )
    if out_dir is not None:
        persist_twin(report, out_dir)
    return report


def _summed(stats: list) -> IntegrationStats:
    """One run's statistics from those of its consecutive calls."""
    return IntegrationStats(
        sum(s.n_steps for s in stats),
        min(s.dt_min for s in stats),
        max(s.dt_max for s in stats),
        sum(s.wall_time for s in stats),
        max(s.rho_max for s in stats),
        max(s.speed_max for s in stats),
    )


def _joined_report(parts: list) -> EnergyReport:
    """The energy report of consecutive blocks of one run, each block after
    the first starting on the previous block's last row, which is kept
    once."""
    return EnergyReport(*(
        np.concatenate([getattr(parts[0], f.name)] + [getattr(p, f.name)[1:] for p in parts[1:]])
        for f in dataclasses.fields(EnergyReport)
    ))


@contextlib.contextmanager
def _recording_failure(cfg, run: str, out_dir, series=None):
    """Let a VacuumError or BlowUpError of ``run`` propagate after writing,
    when there is an ``out_dir``, the config echo and ``error.json`` naming
    ``run``, and given ``series`` the energy series ``series(err.partial)``
    of the rows the run reached."""
    try:
        yield
    except (VacuumError, BlowUpError) as err:
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            save_config(out / "config.json", cfg)
            info = {"run": run, "error": type(err).__name__, "message": str(err),
                    "time": err.time, "cell": getattr(err, "cell", None)}
            (out / "error.json").write_text(json.dumps(info, indent=2) + "\n")
            if series is not None:
                save_energy_series(out / "energy_series.csv", series(err.partial))
        raise


# -- persistence and audit ----------------------------------------------------


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return None if not np.isfinite(obj) else obj
    if isinstance(obj, np.floating):
        return _jsonable(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def persist_twin(report: TwinReport, out_dir) -> Path:
    """Write the config echo, the energy and forecast chi series as CSV and
    ``report.json``, which holds the ``DERIVED`` blocks with
    ``budget_residual_max``, ``interp_error`` and ``stats``, sorted by key."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(out / "config.json", report.config)
    keys = (*DERIVED, "budget_residual_max", "interp_error", "stats")
    body = _jsonable({k: getattr(report, k) for k in keys})
    save_energy_series(out / "energy_series.csv", report.energy)
    times = report.energy.time
    chi = np.column_stack((times[_forecast_rows(report.config, times)], report.chi_base))
    save_series(out / "forecast_chi.csv", CHI_SERIES_COLUMNS, [chi])
    (out / "report.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return out


# stored entries the audit does not recompute: they need the truth or the
# nudged trajectory, which an output directory does not hold
AUDIT_UNCHECKED = ("interp_error", "budget_residual_max")


@dataclass(frozen=True)
class AuditResult:
    ok: bool  # every recomputed block matches the stored one
    passed: bool  # recomputed verdicts all hold
    verdicts: dict
    mismatches: list
    unchecked: tuple = AUDIT_UNCHECKED


def audit_twin(out_dir) -> AuditResult:
    """Recompute every ``DERIVED`` block from the persisted series and
    config echo, and compare each with the stored report.  The series read
    back bit for bit, so every entry must match exactly (non-finite values
    are stored as null).  The entries of ``AUDIT_UNCHECKED`` are not
    recomputed.

    ``report.json`` must hold a JSON object, and ``forecast_chi.csv`` must
    be sampled at the energy series' forecast rows (``_forecast_rows``); a
    report of another form, or a ``t`` column that is not those times, as
    after a cut series, raises ValueError naming the file."""
    out = Path(out_dir)
    cfg = load_config(out / "config.json")
    report_path = out / "report.json"
    stored = json.loads(report_path.read_text())
    if not isinstance(stored, dict):
        raise ValueError(f"{report_path}: expected a JSON object")
    energy = load_energy_series(out / "energy_series.csv")
    chi_path = out / "forecast_chi.csv"
    _, (chi_times, chi_base) = load_series(chi_path, CHI_SERIES_COLUMNS)
    if not np.array_equal(chi_times, energy.time[_forecast_rows(cfg, energy.time)]):
        raise ValueError(f"{chi_path}: t column is not the forecast rows of energy_series.csv")

    recomputed = _derive_diagnostics(cfg, energy.time, energy.rel_energy, chi_base)
    mismatches = []
    for name, block in recomputed.items():
        want, got = _jsonable(block), stored.get(name)
        if isinstance(want, dict) and isinstance(got, dict):
            noun = {"verdicts": "verdict", "values": "value"}.get(name, name)
            keys = list(want) + [k for k in got if k not in want]
            mismatches += [
                f"{noun} {k!r}: stored {got.get(k, 'missing')} recomputed {want.get(k, 'missing')}"
                for k in keys
                if got.get(k, "missing") != want.get(k, "missing")
            ]
        elif got != want:
            mismatches.append(f"{name}: stored {got} recomputed {want}")
    return AuditResult(not mismatches, recomputed["passed"], recomputed["verdicts"], mismatches)


# -- parameter sweeps ----------------------------------------------------------


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """The sweep point with ``value`` at the axis's config key, built by the
    config file's rule: an integer becomes a float where a float is due, an
    integral float an int where an int is due, and a value of any other type,
    or one its section's constructor rejects, raises this point's
    ConfigError."""
    value = value.item() if isinstance(value, np.generic) else value
    section, key = SWEEP_AXES[axis]
    data = cfg.to_dict()
    data[section][key] = value
    if axis == "lambda_rho" and isinstance(value, (int, float)):
        # preserve the template's gain ratio so the velocity gain keeps pace
        # (the synchronization conditions couple the two gains); a value
        # that is no number fails the type check as lambda_rho
        gains = cfg.nudging
        ratio = gains.lambda_u / gains.lambda_rho if gains.lambda_rho > 0.0 else 4.0
        data["nudging"]["lambda_u"] = ratio * value
    return ExperimentConfig.from_dict(data)


def _band_monotone(values, direction: str, band: float = MONOTONE_BAND) -> bool:
    """Monotonicity within a multiplicative tolerance band."""
    vals = [v for v in values if v is not None]
    if len(vals) < 2:
        return True
    for a, b in zip(vals, vals[1:]):
        if direction == "non_increasing" and b > a * (1.0 + band):
            return False
        if direction == "non_decreasing" and b < a * (1.0 - band):
            return False
    return True


@dataclass(frozen=True)
class SweepReport:
    axis: str
    values: list  # floats
    points: list  # TwinReport or None per value
    errors: list  # error string or None per value
    floors: list
    rates: list
    interp_errors: list
    floor_non_increasing: bool
    rate_non_decreasing: bool
    interp_non_increasing: bool


def run_sweep(cfg: ExperimentConfig, axis: str, values, out_dir=None) -> SweepReport:
    """Independent twin runs along one parameter axis.

    The sweep owns one truth memo and hands it to every point, so the truth
    is integrated once while the axis does not touch it (``lambda_rho``,
    ``lambda_u``, ``delta``) and once per point when it does (``T``,
    ``n_cells``).  The memo holds that truth whole (``run_observed``) and
    each point reads it so: a sweep holds one truth, where a twin without a
    memo holds a few row blocks of it.  Each point samples its slabs one
    block at a time, as a twin does.  Per-point failures are recorded and
    the sweep continues.
    With ``out_dir``, point i writes its twin output to ``point_{i:03d}``
    and ``sweep_summary.json`` holds the report's fields but ``points``,
    plus each point's ``sync_ratio``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid axes: {tuple(SWEEP_AXES)}")
    points, errors, truths = [], [], {}
    for i, value in enumerate(values):
        sub_out = None
        if out_dir is not None:
            sub_out = Path(out_dir) / f"point_{i:03d}"
        try:
            points.append(run_twin(_apply_axis(cfg, axis, value), out_dir=sub_out, truths=truths))
            errors.append(None)
        except (VacuumError, BlowUpError, ConfigError) as err:
            points.append(None)
            errors.append(f"{type(err).__name__}: {err}")
    floors = [p.decay.floor if p and p.decay else None for p in points]
    rates = [p.decay.rate if p and p.decay else None for p in points]
    interp = [p.interp_error.sup_err_r if p else None for p in points]
    report = SweepReport(
        axis=axis,
        values=[float(v) for v in values],
        points=points,
        errors=errors,
        floors=floors,
        rates=rates,
        interp_errors=interp,
        floor_non_increasing=_band_monotone(floors, "non_increasing"),
        rate_non_decreasing=_band_monotone(rates, "non_decreasing"),
        interp_non_increasing=_band_monotone(interp, "non_increasing", band=1e-9),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        fields = [f.name for f in dataclasses.fields(report) if f.name != "points"]
        summary = {name: getattr(report, name) for name in fields}
        summary["sync_ratios"] = [p.values["sync_ratio"] if p else None for p in points]
        (out / "sweep_summary.json").write_text(json.dumps(_jsonable(summary), indent=2) + "\n")
    return report


# -- manufactured-solution validation ------------------------------------------


@dataclass(frozen=True)
class ClosedFormObservations:
    """Observation fields I[r](t, x) and I[U](t, x) in closed form, read as
    ``step`` reads samples: ``values_at_time(t, grid)`` gives their values
    on ``grid``'s cell centers, one row for a scalar time t and one row per
    time for an array.  They have no time slabs and hold at every time, so
    their window is the whole line: the gains act over the whole of any
    run toward them."""

    r_obs: callable
    u_obs: callable
    window = (-np.inf, np.inf)

    def values_at_time(self, t, grid: Grid1D):
        t, x = np.asarray(t, dtype=float)[..., None], grid.cell_centers()
        return self.r_obs(t, x), self.u_obs(t, x)


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form fields and the forcing that makes them an exact solution;
    a nudged case also carries its gains and its observations."""

    rho: callable
    momentum: callable
    forcing: Forcing
    d_rho_dt: callable
    d_mom_dt: callable
    nudging: NudgingConfig | None = None
    observations: ClosedFormObservations | None = None


def manufactured_case(
    eos: EquationOfState,
    visc: Viscosity,
    length: float,
    rho_amplitude: float = 0.2,
    nudging: NudgingConfig | None = None,
) -> ManufacturedCase:
    """Smooth space-time fields compatible with the wall treatment (even
    density, odd momentum at both walls) and the model forcing g that makes
    them an exact solution:

        r = 1 + a cos(k x) cos t,   m = c sin(k x) sin t,   U = m / r,
        g = (m_t + (m U + p(r))_x - nu_eff U_xx) / r,

    with k = 2 pi / length.  Without ``nudging``, c = a / k: r_t + m_x = 0
    holds exactly, so no mass source is needed, and rho g equals the
    momentum source at rho = r.

    With ``nudging`` (lambda_rho > 0), the case is a solution of the nudged
    system as the README states it, with c = 0.3, so r_t + m_x is not zero
    and the density relaxation acts.  Its observations are

        I[r] = r + (r_t + m_x) / lambda_rho,   I[U] = U + b sin(k x) cos 3t,

    with b = 0.1 (I[U] is odd at the walls): the density equation holds with
    no mass source, and g gains the relaxation term
    lambda_u (1 + r) (U - I[U]) / r.  At the gains (20, 80) and a = 0.2,
    |r - I[r]| <= 0.085, so I[r] stays positive.

    The derivatives are written out by hand; the forcing's bound follows from
    the triangle inequality with 1 - a <= r <= 1 + a, for 0 <= a < 1."""
    a = rho_amplitude
    k = 2.0 * np.pi / length
    c = a / k if nudging is None else 0.3
    b = 0.1
    kappa, gamma, nu = eos.kappa, eos.gamma, visc.nu_eff

    def rho(t, x):
        return 1.0 + a * np.cos(k * x) * np.cos(t)

    def momentum(t, x):
        return c * np.sin(k * x) * np.sin(t)

    def d_rho_dt(t, x):
        return -a * np.cos(k * x) * np.sin(t)

    def d_mom_dt(t, x):
        return c * np.sin(k * x) * np.cos(t)

    def g(t, x):
        r, m = rho(t, x), momentum(t, x)
        U = m / r
        m_x = c * k * np.cos(k * x) * np.sin(t)
        r_x = -a * k * np.sin(k * x) * np.cos(t)
        U_x = (m_x - U * r_x) / r
        U_xx = (-k * k * m - 2.0 * U_x * r_x + k * k * (r - 1.0) * U) / r
        # (m U + p)_x = 2 U m_x - U^2 r_x + p'(r) r_x
        flux_x = U * (2.0 * m_x - U * r_x) + kappa * gamma * r ** (gamma - 1.0) * r_x
        source = d_mom_dt(t, x) + flux_x - nu * U_xx
        if nudging is not None:
            # lambda_u (1 + r) (U - I[U])
            source -= nudging.lambda_u * (1.0 + r) * b * np.sin(k * x) * np.cos(3.0 * t)
        return source / r

    lo = 1.0 - a  # |U| <= c / lo and |U_x| <= c k / lo^2
    u_max = c / lo
    flux_x_max = u_max * k * (2.0 * c + u_max * a) + kappa * gamma * (1.0 + a) ** (gamma - 1.0) * a * k
    uxx_max = c * k * k * (1.0 + 2.0 * a / lo**2 + a / lo) / lo
    relax_max = 0.0 if nudging is None else nudging.lambda_u * (2.0 + a) * b
    bound = (c + flux_x_max + nu * uxx_max + relax_max) / lo
    forcing = Forcing(lambda x: lambda t: g(t, x), bound)
    if nudging is None:
        return ManufacturedCase(rho, momentum, forcing, d_rho_dt, d_mom_dt)

    mass_gap = (c * k - a) / nudging.lambda_rho  # (r_t + m_x) / lambda_rho over cos(k x) sin t

    def r_obs(t, x):
        return rho(t, x) + mass_gap * np.cos(k * x) * np.sin(t)

    def u_obs(t, x):
        return momentum(t, x) / rho(t, x) + b * np.sin(k * x) * np.cos(3.0 * t)

    observations = ClosedFormObservations(r_obs, u_obs)
    return ManufacturedCase(rho, momentum, forcing, d_rho_dt, d_mom_dt, nudging, observations)


@dataclass(frozen=True)
class ValidationReport:
    n_values: tuple
    errors: tuple  # combined L2 error per resolution
    orders: tuple  # log2 ratios between consecutive resolutions
    mass_drift: float
    nudged_errors: tuple  # the same, for the nudged manufactured solution
    nudged_orders: tuple
    spatial_ok: bool
    mass_ok: bool
    nudged_ok: bool

    @property
    def passed(self) -> bool:
        return self.spatial_ok and self.mass_ok and self.nudged_ok


def _mms_error(cfg, case, n, t0, t_final):
    """The combined L2 error of (rho, m) at t_final of the run of ``case``
    on n cells from its exact state at t0, nudged when the case is."""
    grid = Grid1D(n, cfg.grid.length)
    x = grid.cell_centers()
    initial = FluidState(t0, case.rho(t0, x), case.momentum(t0, x))
    traj, _ = integrate(
        grid, initial, t_final, cfg.eos, cfg.viscosity, case.forcing,
        case.observations, case.nudging, landings=(),
    )
    final = traj.snapshot(traj.n_snapshots - 1)
    dx = grid.dx
    e_rho = np.sqrt(dx * np.sum((final.rho - case.rho(t_final, x)) ** 2))
    e_mom = np.sqrt(dx * np.sum((final.mom - case.momentum(t_final, x)) ** 2))
    return float(np.sqrt(e_rho**2 + e_mom**2))


def _mms_study(cfg, case, t0, t_final):
    """The errors of ``case`` at each of MMS_N_VALUES and the orders read
    from consecutive pairs (infinite where the finer error is 0)."""
    errors = tuple(_mms_error(cfg, case, n, t0, t_final) for n in MMS_N_VALUES)
    orders = tuple(
        float(np.log2(coarse / fine)) if fine > 0.0 else np.inf
        for coarse, fine in zip(errors, errors[1:])
    )
    return errors, orders


def _in_mms_range(orders) -> bool:
    return all(MMS_ORDER_RANGE[0] <= o <= MMS_ORDER_RANGE[1] for o in orders)


def validate_solver(cfg: ExperimentConfig | None = None) -> ValidationReport:
    """Manufactured-solution convergence studies at the resolutions
    MMS_N_VALUES, free (from 0 to MMS_T_FINAL) and nudged (the case of
    ``manufactured_case`` with MMS_NUDGING, over MMS_NUDGED_WINDOW), plus a
    mass-conservation check, each against its frozen range
    (MMS_ORDER_RANGE for both studies, MASS_DRIFT_MAX).

    The nudged study reads the step against the nudged equations as the
    README states them, at the acoustic dt, so it sees a wrong relaxation
    source (which converges to another system and levels off) and a
    first-order splitting of the relaxation alike."""
    cfg = cfg or ExperimentConfig()
    eos, visc = cfg.eos, cfg.viscosity
    errors, orders = _mms_study(cfg, manufactured_case(eos, visc, cfg.grid.length), 0.0, MMS_T_FINAL)
    nudged = manufactured_case(eos, visc, cfg.grid.length, nudging=MMS_NUDGING)
    nudged_errors, nudged_orders = _mms_study(cfg, nudged, *MMS_NUDGED_WINDOW)

    # mass conservation over 1e4 fixed steps on a forced smooth run
    grid = Grid1D(64, cfg.grid.length)
    forcing = build_forcing(cfg)
    initial = build_initial_state(cfg, grid)
    dt = stable_dt(grid, initial.rho, initial.velocity(), eos, safety=0.15)
    n_steps = 10_000
    span = n_steps * dt
    landings = np.linspace(initial.time, initial.time + span, 101)
    traj, stats = integrate(
        grid, initial, initial.time + span, eos, visc, forcing, landings=landings, fixed_dt=dt
    )
    masses = grid.dx * np.sum(traj.rho, axis=1)
    mass_drift = float(np.max(np.abs(masses - masses[0])) / masses[0])

    return ValidationReport(
        n_values=MMS_N_VALUES,
        errors=errors,
        orders=orders,
        mass_drift=mass_drift,
        nudged_errors=nudged_errors,
        nudged_orders=nudged_orders,
        spatial_ok=_in_mms_range(orders),
        mass_ok=mass_drift <= MASS_DRIFT_MAX,
        nudged_ok=_in_mms_range(nudged_orders),
    )
