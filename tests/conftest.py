import dataclasses
import time

import pytest

from nudgelab import harness

BUILD_TIMES = {}


def _timed(name, fn):
    start = time.perf_counter()
    result = fn()
    BUILD_TIMES[name] = time.perf_counter() - start
    return result
from nudgelab.config import (
    CalibrationConfig,
    ExperimentConfig,
    GridConfig,
    NudgingGains,
    SamplerConfig,
    SolverConfig,
    TimelineConfig,
)


@pytest.fixture(scope="session")
def baseline_config():
    """The default experiment: 256 cells, gains (50, 200), delta 1e-3."""
    return ExperimentConfig()


def lite_experiment():
    """Coarse, short, cheap configuration for functional tests."""
    return ExperimentConfig(
        grid=GridConfig(n_cells=64),
        timeline=TimelineConfig(t_minus=-0.2, t_assim_end=0.5, t_plus=0.8),
        sampler=SamplerConfig(delta=0.02),
        solver=SolverConfig(report_interval=2e-3),
    )


@pytest.fixture(scope="session")
def lite_config():
    return lite_experiment()


@pytest.fixture(scope="session")
def determinism_config():
    """Cheap config whose gain conditions all pass; used by CLI round trips."""
    return ExperimentConfig(
        grid=GridConfig(n_cells=64),
        timeline=TimelineConfig(t_minus=-0.2, t_assim_end=0.5, t_plus=0.8),
        sampler=SamplerConfig(delta=3e-3, placement="jittered", seed=7),
        nudging=NudgingGains(lambda_rho=20.0, lambda_u=80.0),
        solver=SolverConfig(report_interval=2e-3),
        calibration=CalibrationConfig(epsilon_target=0.25),
    )


@pytest.fixture(scope="session")
def lite_observed(lite_config):
    return harness.run_observed(lite_config)[0]


@pytest.fixture(scope="session")
def lite_twin(lite_config):
    return harness.run_twin(lite_config)


@pytest.fixture(scope="session")
def baseline_twin(baseline_config):
    return _timed("baseline_twin", lambda: harness.run_twin(baseline_config))


@pytest.fixture(scope="session")
def control_twin(baseline_config):
    cfg = dataclasses.replace(
        baseline_config, nudging=NudgingGains(lambda_rho=0.0, lambda_u=0.0)
    )
    return _timed("control_twin", lambda: harness.run_twin(cfg))
