"""Command-line interface.

Subcommands: observe (truth run + trajectory persistence), twin (full twin
experiment), sweep (one-axis parameter sweep), validate (manufactured-
solution verification), audit (recompute verdicts from a persisted twin).

Exit codes: 0 pass, 1 run failure, 2 acceptance failure, 3 config error,
4 audit mismatch (the stored report does not reproduce).
The default output root is $NUDGELAB_OUT (falling back to ./out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, SWEEP_AXES, build_forcing, load_config, save_config
from .errors import BlowUpError, ConfigError, VacuumError
from .field import save_trajectory
from .harness import MASS_DRIFT_MAX, MMS_ORDER_RANGE
from .harness import _jsonable, _recording_failure, _run_dir
from .harness import audit_twin, run_observed, run_sweep, run_twin, validate_solver

EXIT_PASS = 0
EXIT_RUN_FAILURE = 1
EXIT_ACCEPTANCE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_AUDIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nudgelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="experiment config (JSON)")
        p.add_argument("--out", type=Path, help="output directory")
        return p

    def sampled(p):
        # observe and validate read no sampler, so only these take --seed
        common(p).add_argument("--seed", type=int, help="override the sampler seed")
        return p

    common(sub.add_parser("observe", help="run and persist the truth trajectory"))
    sampled(sub.add_parser("twin", help="run the full twin experiment"))
    p_sweep = sampled(sub.add_parser("sweep", help="twin runs along one parameter axis"))
    p_sweep.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of axis values"
    )
    common(sub.add_parser("validate", help="manufactured-solution verification"))
    p_audit = sub.add_parser("audit", help="recompute verdicts from persisted output")
    p_audit.add_argument("--out", type=Path, required=True, help="twin output directory")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(
            cfg, sampler=dataclasses.replace(cfg.sampler, seed=args.seed)
        )
    cfg.validate()
    return cfg


def _out_dir(args, sub: str) -> Path:
    if args.out is not None:
        return args.out
    return Path(os.environ.get("NUDGELAB_OUT", "out")) / sub


def _cmd_observe(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, "observe")
    with _recording_failure(cfg, "truth", out):
        traj, stats = run_observed(cfg)
    out = _run_dir(out, ("trajectory.csv", "observed_meta.json", "config.json"))
    save_trajectory(out / "trajectory.csv", traj)
    meta = {
        "n_snapshots": traj.n_snapshots,
        "t_first": float(traj.times[0]),
        "t_last": float(traj.times[-1]),
        "rho_max": stats.rho_max,
        "speed_max": stats.speed_max,
        "forcing_max": build_forcing(cfg).bound,
        "mass": float(traj.grid.dx * traj.rho[0].sum()),
    }
    (out / "observed_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    save_config(out / "config.json", cfg)
    print(f"observed run complete: {traj.n_snapshots} snapshots -> {out}")
    return EXIT_PASS


def _cmd_twin(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, "twin")
    report = run_twin(cfg, out_dir=out)
    for name, ok in report.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"report written to {out}")
    return EXIT_PASS if report.passed else EXIT_ACCEPTANCE_FAILURE


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --values list: {err}") from err
    if not values:
        raise ConfigError("--values must name at least one value")
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"--values must be finite, got {value}")
    out = _out_dir(args, "sweep")
    report = run_sweep(cfg, args.axis, values, out_dir=out)
    for value, err in zip(report.values, report.errors):
        print(f"{args.axis}={value:g}: {'ok' if err is None else err}")
    print(
        f"floor non-increasing: {report.floor_non_increasing}; "
        f"rate non-decreasing: {report.rate_non_decreasing}"
    )
    if any(err is not None for err in report.errors):
        return EXIT_RUN_FAILURE
    monotone = report.floor_non_increasing and report.rate_non_decreasing
    return EXIT_PASS if monotone else EXIT_ACCEPTANCE_FAILURE


def _cmd_validate(args) -> int:
    cfg = _load(args)
    report = validate_solver(cfg)
    print(f"spatial errors: {['%.3e' % e for e in report.errors]}")
    print(f"spatial orders: {['%.3f' % o for o in report.orders]} (need {list(MMS_ORDER_RANGE)})")
    print(f"mass drift: {report.mass_drift:.3e} (need <= {MASS_DRIFT_MAX:g})")
    print(f"nudged errors: {['%.3e' % e for e in report.nudged_errors]}")
    print(f"nudged orders: {['%.3f' % o for o in report.nudged_orders]} (need {list(MMS_ORDER_RANGE)})")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        body = _jsonable(report) | {"passed": report.passed}
        (args.out / "validation.json").write_text(json.dumps(body, indent=2) + "\n")
    print("validation PASSED" if report.passed else "validation FAILED")
    return EXIT_PASS if report.passed else EXIT_ACCEPTANCE_FAILURE


def _cmd_audit(args) -> int:
    result = audit_twin(args.out)
    for name, ok in result.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"audit: not recomputed (need the trajectories): {', '.join(result.unchecked)}")
    if not result.ok:
        for m in result.mismatches:
            print(f"MISMATCH  {m}")
        return EXIT_AUDIT_MISMATCH
    print("audit: stored verdicts reproduced")
    return EXIT_PASS if result.passed else EXIT_ACCEPTANCE_FAILURE


_COMMANDS = {
    "observe": _cmd_observe,
    "twin": _cmd_twin,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (VacuumError, BlowUpError, OSError, ValueError) as err:
        print(f"run failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
