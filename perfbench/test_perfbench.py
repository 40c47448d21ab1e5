"""The benchmark's own test, on shrunken configs.

Run from the root of a checkout with:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_emits_every_metric_with_its_unit(workload, traced):
    summary = run.run_workload(workload, seed=3, seconds=0, traced=traced, lite=True)
    assert summary["failed"] == 0, summary["problems"]
    assert summary["correct"] and summary["attempted"] == (2 if traced else 1)
    section = "per_layer" if traced else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for metric in summary["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if traced:
        values = {k: v["value"] for k, v in summary["metrics"].items()}
        assert values["dynamics.truth_steps"] > 0 and values["dynamics.nudged_steps"] > 0
        assert values["harness.observed_cache_hit_ratio"] == (
            0.75 if workload == "gain_sweep" else 0.0
        )


def test_zero_gain_twin_is_a_failed_operation(tmp_path):
    cfg = workloads.config("twin_baseline", seed=0, lite=True)
    cfg["nudging"] = {"lambda_rho": 0.0, "lambda_u": 0.0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    op = run.run_operation("twin_baseline", config_path, tmp_path, 0, traced=False)
    assert "crash" not in op
    assert op["calls"][0]["exit_code"] == 2
    assert "verdict synchronized is false" in op["problems"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gain_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
