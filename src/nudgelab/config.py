"""Experiment configuration: nested dataclasses with a strict JSON file form,
and the ``build_*`` constructors that turn a config into the run's objects.

The ``grid``, ``eos``, ``viscosity`` and ``nudging`` sections are the run's
own ``Grid1D``, ``EquationOfState``, ``Viscosity`` and ``NudgingConfig``, so
their constructors are their rules.  The gains act on the window of the
observations they pull toward, the tiling's [0, t_assim_end)
(``build_tiling``), which no section restates.

The file form is plain JSON mirroring the dataclass tree.  Unknown keys are
rejected, every leaf's type is checked as the file form is read, every float
round-trips bit-exactly through the file (json emits repr-precision floats),
and validation happens eagerly on load so that a bad file fails before any
run starts.  Validation runs the same constructors the run uses, so a config
is valid exactly when the run would accept it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import check_gain_conditions
from .dynamics import MAX_STEPS, Forcing, NudgingConfig, Viscosity
from .eos import EquationOfState
from .errors import ConfigError, VacuumError
from .field import FluidState, Grid1D
from .sampler import SpaceTimeDecomposition, build_decomposition, sampled_blocks

__all__ = [
    "TimelineConfig",
    "ForcingConfig",
    "InitialConfig",
    "SamplerConfig",
    "SolverConfig",
    "CalibrationConfig",
    "ExperimentConfig",
    "load_config",
    "save_config",
    "build_forcing",
    "build_initial_state",
    "build_tiling",
    "report_times",
    "SWEEP_AXES",
]

# sweep axis -> the (section, key) of the config it sets
SWEEP_AXES = {
    "lambda_rho": ("nudging", "lambda_rho"),
    "lambda_u": ("nudging", "lambda_u"),
    "delta": ("sampler", "delta"),
    "T": ("timeline", "t_assim_end"),
    "n_cells": ("grid", "n_cells"),
}


@dataclass(frozen=True)
class TimelineConfig:
    t_minus: float = -0.5
    t_assim_end: float = 1.0
    t_plus: float = 2.0


@dataclass(frozen=True)
class ForcingConfig:
    amplitude: float = 0.5  # g = amplitude * sin(2 pi x / L) * cos(t)


@dataclass(frozen=True)
class InitialConfig:
    """Observed initial profile at the start of the observation window."""

    amplitude: float = 0.3  # r = base + amplitude * cos(2 pi x / L), U = 0
    base_density: float = 1.0


@dataclass(frozen=True)
class SamplerConfig:
    delta: float = 1e-3
    placement: str = "center"
    seed: int = 0


@dataclass(frozen=True)
class SolverConfig:
    report_interval: float = 1e-3
    # inert: validated (>= 1) but read by no run, which records the report
    # grid; kept while the benchmark's lite configs still set it
    snapshot_budget: int = 2_000_000


@dataclass(frozen=True)
class CalibrationConfig:
    """Gain-condition inputs: gamma_cal stands in for the non-constructive
    data constant.  The acceptance thresholds live in ``harness``."""

    gamma_cal: float = 4.0
    epsilon_target: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Grid1D = Grid1D(256, 1.0)
    eos: EquationOfState = EquationOfState(1.4)
    viscosity: Viscosity = Viscosity(0.05)
    timeline: TimelineConfig = field(default_factory=TimelineConfig)
    forcing: ForcingConfig = field(default_factory=ForcingConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    nudging: NudgingConfig = NudgingConfig(50.0, 200.0)
    solver: SolverConfig = field(default_factory=SolverConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _build(data)

    def validate(self) -> None:
        """Raise ConfigError unless every phase of a run accepts this config.

        Only the rules that no constructor owns are spelled out here.  The
        grid, equation of state, viscosity and gains are the run's own
        objects, checked by their constructors when the config was made.
        Leaf types are checked where a config enters from outside the
        program, in ``from_dict``; a config built in Python is checked by
        its constructors, as every other API object is.
        """
        problems = []

        def attempt(section, build):
            try:
                return build()
            except (ValueError, VacuumError) as err:
                problems.append(f"{section}: {err}")
                return None

        tl, sampler, solver, cal = self.timeline, self.sampler, self.solver, self.calibration
        if solver.report_interval <= 0.0:
            problems.append("solver.report_interval must be positive")
        elif not math.isfinite(n := tl.t_plus / solver.report_interval) or round(n) > MAX_STEPS:
            # each report time is a landing, and each landing costs a step
            problems.append(f"solver.report_interval: more report times than MAX_STEPS={MAX_STEPS}")
        if self.initial.base_density - abs(self.initial.amplitude) <= 0.0:
            problems.append("initial profile must stay strictly positive")
        else:
            attempt("initial", lambda: build_initial_state(self, self.grid))
        if not (tl.t_minus < 0.0 < tl.t_assim_end < tl.t_plus):
            problems.append("timeline must satisfy t_minus < 0 < t_assim_end < t_plus")
        elif tl.t_plus - tl.t_assim_end <= 4 * math.ulp(tl.t_assim_end):
            # report_times lets t_plus give way to the window end, which
            # leaves the forecast window a single row
            problems.append("timeline: t_assim_end must lie more than 4 ulps below t_plus")
        else:
            attempt("calibration", lambda: check_gain_conditions(
                self.nudging, tl.t_assim_end, sampler.delta, cal.gamma_cal, cal.epsilon_target
            ))
            attempt("sampler", lambda: sampled_blocks(build_tiling(self), self.grid))
        if solver.snapshot_budget < 1:
            problems.append("solver.snapshot_budget must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))


# -- the file form -----------------------------------------------------------------

_EXPECTED = {float: "a finite number", int: "an integer", str: "a string"}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _section(data, cls, where: str) -> dict:
    """The annotations of ``cls``, once ``data`` is an object that holds no
    other key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = _hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return hints


def _leaf(value, hint, where: str, problems: list):
    """``value`` read by the file rule: an integer becomes a float where a
    float is due, an integral float an int where an int is due.  A value of
    any other type is named in ``problems``."""
    if hint is float and type(value) is int:  # bool stays a type error
        try:
            value = float(value)  # the config echo then prints 1.0, not 1
        except OverflowError:
            problems.append(f"{where}: expected {_EXPECTED[float]}")
            return value
    elif hint is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool):  # no leaf is a bool, and a bool is no number
        ok = False
    elif hint is float:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    elif hint is int:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, hint)
    if not ok:
        problems.append(f"{where}: expected {_EXPECTED[hint]}, got {value!r}")
    return value


def _build(data) -> ExperimentConfig:
    """ExperimentConfig from its JSON form: the path of every config that
    enters from outside the program (``load_config``, the audit's config
    echo, each sweep point).

    An unknown key fails at once.  Then every leaf's type is checked against
    its annotation, and each wrong leaf of the file is named in one
    ConfigError.  Only then is each given section built, as its default with
    the given keys replaced, and the constructors' range errors of all
    sections are named in one ConfigError.  The rules that no constructor
    owns are left to ``validate()``.  A config built in Python does not pass
    here: its constructors check it, as they check every other API object.
    """
    sections = _section(data, ExperimentConfig, "config")
    hints = {name: _section(block, sections[name], name) for name, block in data.items()}
    # an unknown key is named in the file's order, every other error in the tree's
    problems, given = [], {}
    for name in (name for name in sections if name in data):
        given[name] = {
            key: _leaf(data[name][key], hint, f"{name}.{key}", problems)
            for key, hint in hints[name].items()
            if key in data[name]
        }
    if problems:
        raise ConfigError("; ".join(problems))
    default, built = ExperimentConfig(), {}
    for name, leaves in given.items():
        try:
            built[name] = dataclasses.replace(getattr(default, name), **leaves)
        except ValueError as err:
            problems.append(f"{name}: {err}")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**built)


# -- run objects from config ------------------------------------------------------


def build_forcing(cfg: ExperimentConfig) -> Forcing:
    amp = cfg.forcing.amplitude
    if amp == 0.0:
        return Forcing.zero()
    length = cfg.grid.length

    def at(x):
        # the spatial profile once per set of centers, then cos t per row
        profile = amp * np.sin(2.0 * np.pi * x / length)
        return lambda t: profile * np.cos(t)

    return Forcing(at=at, bound=abs(amp))


def build_initial_state(cfg: ExperimentConfig, grid: Grid1D) -> FluidState:
    """Observed initial profile at the start of the observation window."""
    ic = cfg.initial
    x = grid.cell_centers()
    rho = ic.base_density + ic.amplitude * np.cos(2.0 * np.pi * x / grid.length)
    return FluidState(cfg.timeline.t_minus, rho, np.zeros(grid.n_cells))


def build_tiling(cfg: ExperimentConfig) -> SpaceTimeDecomposition:
    """Space-time decomposition of the assimilation window [0, t_assim_end]:
    the one tiling, which ``validate()`` sizes and ``run_twin`` samples.
    Its span is the window of the samples, on which the gains act."""
    s = cfg.sampler
    return build_decomposition(
        s.delta, cfg.timeline.t_assim_end, cfg.grid.length, s.placement, s.seed
    )


def report_times(cfg: ExperimentConfig) -> tuple:
    """The nudged run's landings after t = 0: the report grid
    ``linspace(0, t_plus, n + 1)[1:]``, n = round(t_plus / report_interval),
    with the window end t_assim_end, which replaces a grid point within 4
    ulps of it (no sliver landing), in increasing order.  The truth lands
    on 0 and on these, so both runs record the same float times."""
    t_plus, t_end = cfg.timeline.t_plus, cfg.timeline.t_assim_end
    n = max(1, round(t_plus / cfg.solver.report_interval))
    grid = np.linspace(0.0, t_plus, n + 1)[1:].tolist()
    return tuple(sorted({*(t for t in grid if abs(t - t_end) > 4 * math.ulp(t_end)), t_end}))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read ({type(err).__name__}: {err})") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    cfg = ExperimentConfig.from_dict(data)
    cfg.validate()
    return cfg


def save_config(path, cfg: ExperimentConfig) -> None:
    Path(path).write_text(cfg.to_json() + "\n")
