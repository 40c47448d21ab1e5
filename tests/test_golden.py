"""Golden behaviour lock.

``data/golden.json`` freezes the twin ``values`` of the baseline and lite
configs and the SHA-256 of both runs' persisted ``energy_series.csv`` and
``forecast_chi.csv`` (no golden value reads chi: ``envelope_required`` is 0 on
both configs, so only the hash locks it).
A pure refactor must reproduce them bit for bit; a numerics change must
regenerate the file and declare its tolerance.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nudgelab.harness import persist_twin

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


@pytest.mark.parametrize("name", ["baseline", "lite"])
def test_twin_values_match_golden(request, name):
    report = request.getfixturevalue(f"{name}_twin")
    assert report.values == GOLDEN[name]["values"]


def _digest(tmp_path, report, name):
    persist_twin(report, tmp_path)
    return hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()


def test_lite_energy_series_matches_golden(tmp_path, lite_twin):
    digest = _digest(tmp_path, lite_twin, "energy_series")
    assert digest == GOLDEN["lite"]["energy_series_sha256"]


def test_lite_forecast_chi_matches_golden(tmp_path, lite_twin):
    digest = _digest(tmp_path, lite_twin, "forecast_chi")
    assert digest == GOLDEN["lite"]["forecast_chi_sha256"]


@pytest.mark.parametrize("name", ["energy_series", "forecast_chi"])
def test_baseline_series_match_golden(tmp_path, baseline_twin, name):
    digest = _digest(tmp_path, baseline_twin, name)
    assert digest == GOLDEN["baseline"][f"{name}_sha256"]
