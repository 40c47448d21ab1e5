#!/usr/bin/env python3
"""Regenerate the measurements behind the frozen acceptance thresholds.

Prints, next to each frozen constant of the acceptance gate (the block of
thresholds in nudgelab.harness), the value this build actually measures:

  * baseline synchronization ratio  (SYNC_RATIO_MAX)
  * zero-gain control ratio         (must exceed 100 * SYNC_RATIO_MAX)
  * forecast envelope calibration   (ENVELOPE_GAMMA_MAX)
  * forecast growth ratio           (FORECAST_GROWTH_MAX)
  * manufactured-solution orders, free and nudged, and mass drift
    (MMS_ORDER_RANGE, MASS_DRIFT_MAX)

Run after any solver change and report the margins; the constants are
frozen, so a solver that misses them is what needs work.
"""

import dataclasses

from nudgelab.config import ExperimentConfig, NudgingGains
from nudgelab.harness import (
    ENVELOPE_GAMMA_MAX,
    FORECAST_GROWTH_MAX,
    MASS_DRIFT_MAX,
    MMS_ORDER_RANGE,
    SYNC_RATIO_MAX,
    run_twin,
    validate_solver,
)


def main():
    cfg = ExperimentConfig()
    baseline = run_twin(cfg)
    control = run_twin(
        dataclasses.replace(cfg, nudging=NudgingGains(lambda_rho=0.0, lambda_u=0.0))
    )
    print("baseline sync ratio   : %.3e  (frozen threshold %.0e)" % (
        baseline.values["sync_ratio"], SYNC_RATIO_MAX))
    print("control sync ratio    : %.3e  (must be >= %.0e)" % (
        control.values["sync_ratio"], 100.0 * SYNC_RATIO_MAX))
    print("envelope calibration  : %.3e  (frozen max %.1f)" % (
        baseline.envelope.calibration_required, ENVELOPE_GAMMA_MAX))
    print("forecast growth ratio : %.3e  (frozen max %.1f)" % (
        baseline.values["growth_ratio"], FORECAST_GROWTH_MAX))
    print("gain-condition floor  : %.3e  (target epsilon %.2f)" % (
        baseline.gains.floor_estimate, cfg.calibration.epsilon_target))

    val = validate_solver()
    print("manufactured orders   :", tuple(round(o, 4) for o in val.orders),
          " (frozen range %s)" % (MMS_ORDER_RANGE,))
    print("mass drift            : %.3e  (frozen max %.0e)" % (val.mass_drift, MASS_DRIFT_MAX))
    print("nudged orders         :", tuple(round(o, 4) for o in val.nudged_orders),
          " (frozen range %s)" % (MMS_ORDER_RANGE,))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
