"""The benchmark's workloads: generated config, CLI calls and output check.

Each workload is one user-level operation through ``nudgelab.cli.main``.
Configs are written as partial JSON files (unnamed keys keep the program's
defaults), so the program receives nothing but the generated file.  The
seed is written into ``sampler.seed``; only fine_sampling's jittered
placement reads it.
"""

from __future__ import annotations

import json
from pathlib import Path

# Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("twin_baseline", "gain_sweep", "fine_sampling")

SWEEP_VALUES = "10,25,50,100"

_CONFIGS = {
    "twin_baseline": {},
    "gain_sweep": {
        "timeline": {"t_minus": -0.5, "t_assim_end": 0.06, "t_plus": 0.08},
        "solver": {"report_interval": 2e-4},
    },
    "fine_sampling": {
        "grid": {"n_cells": 64},
        "sampler": {"delta": 6.5e-4, "placement": "jittered"},
    },
}

# Shrunken variants for the benchmark's own test: same calls and checks,
# well under a second of work each.
_LITE = {
    "twin_baseline": {
        "grid": {"n_cells": 64},
        "timeline": {"t_minus": -0.2, "t_assim_end": 0.5, "t_plus": 0.8},
        "solver": {"report_interval": 2e-3, "snapshot_budget": 500_000},
    },
    "gain_sweep": {
        "grid": {"n_cells": 64},
        "solver": {"snapshot_budget": 200_000},
    },
    "fine_sampling": {
        "timeline": {"t_minus": -0.2, "t_assim_end": 0.5, "t_plus": 0.8},
        "sampler": {"delta": 1e-3},
        "solver": {"report_interval": 2e-3, "snapshot_budget": 500_000},
    },
}


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for section, values in extra.items():
        out.setdefault(section, {}).update(values)
    return out


def config(workload: str, seed: int, lite: bool = False) -> dict:
    cfg = _merge(_CONFIGS[workload], {"sampler": {"seed": seed}})
    return _merge(cfg, _LITE[workload]) if lite else cfg


def calls(workload: str, config_path: str, out_dir: str) -> list[list[str]]:
    common = ["--config", config_path, "--out", out_dir]
    if workload == "gain_sweep":
        return [["sweep", *common, "--axis", "lambda_rho", "--values", SWEEP_VALUES]]
    return [["twin", *common], ["audit", "--out", out_dir]]


def check(workload: str, out_dir: Path, expected_calls: list, records: list) -> list[str]:
    """Problems with one operation's outcome; an empty list means it passed.

    An operation fails when a call raises or exits non-zero, when a twin
    verdict is false, when the audit reports a mismatch, and for the sweep
    when a point fails or the floor/rate monotonicity (acceptance 7) breaks.
    """
    problems = []
    for record in records:
        if record["error"] is not None:
            problems.append(f"{record['argv'][0]} raised: {record['error'].strip().splitlines()[-1]}")
        elif record["exit_code"] != 0:
            problems.append(f"{record['argv'][0]} exited {record['exit_code']}")
    if len(records) < len(expected_calls):
        problems.append(f"{len(expected_calls) - len(records)} call(s) not run")
    if records[0]["error"] is not None:
        return problems
    try:
        if workload == "gain_sweep":
            problems += _check_sweep(out_dir)
        else:
            problems += _check_twin(out_dir, records[1:])
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"unreadable output: {type(err).__name__}: {err}")
    return problems


def _check_twin(out_dir: Path, audit_records: list) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text())
    problems = [f"verdict {k} is false" for k, v in report["verdicts"].items() if not v]
    for record in audit_records:
        stdout = record["stdout"]
        if "MISMATCH" in stdout or "stored verdicts reproduced" not in stdout:
            problems.append("audit did not reproduce the stored verdicts")
    return problems


def _check_sweep(out_dir: Path) -> list[str]:
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    problems = [f"point {i} failed: {e}" for i, e in enumerate(summary["errors"]) if e]
    for flag in ("floor_non_increasing", "rate_non_decreasing"):
        if not summary[flag]:
            problems.append(f"{flag} is false")
    for i in range(len(summary["values"])):
        decay = json.loads((out_dir / f"point_{i:03d}" / "report.json").read_text())["decay"]
        if decay is None or decay["r_squared"] <= 0.99:
            problems.append(f"point {i}: no decay fit with r^2 > 0.99")
    return problems
