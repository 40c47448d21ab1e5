"""nudgelab: a desk-scale twin-experiment laboratory for nudging-based data
assimilation of 1D compressible barotropic flow.

The package generates a smooth truth run, samples it at one control point
per space-time cell, drives a second run toward the samples with relaxation
terms, and measures synchronization through the relative energy (the Bregman
divergence of the total energy).

A few public names are called by no run: they are the references the test
suite checks the run's code against.  They are ``relative_energy`` and
``total_energy`` (the single-state forms of the energy series),
``MeasurementSet.interpolant_value`` with ``Sample``,
``SpaceTimeDecomposition.t_star``, ``x_star`` and ``n_cells``,
``field.load_trajectory``, and the ``d_rho_dt`` and ``d_mom_dt`` fields of
``harness.ManufacturedCase``."""

from .config import ExperimentConfig, load_config, save_config
from .diagnostics import (
    DecayFit,
    EnergyReport,
    check_gain_conditions,
    fit_decay,
    forecast_envelope,
    make_energy_report,
    relative_energy,
    total_energy,
    total_energy_density,
)
from .dynamics import (
    Forcing,
    NudgingConfig,
    Viscosity,
    integrate,
    make_synchronized_initial,
    rhs,
    stable_dt,
    step,
)
from .eos import EquationOfState
from .errors import BlowUpError, ConfigError, VacuumError
from .field import FluidState, Grid1D, Trajectory, data_norm
from .harness import (
    run_observed,
    run_sweep,
    run_twin,
    validate_solver,
    audit_twin,
)
from .sampler import (
    MeasurementSet,
    SpaceTimeDecomposition,
    build_decomposition,
    interpolation_error,
    sample,
)

__version__ = "0.1.0"
