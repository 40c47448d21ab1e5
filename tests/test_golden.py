"""Golden behaviour lock.

``data/golden.json`` freezes eleven numbers of the baseline and lite twins,
each under its home block of ``report.json`` (``FROZEN``), the SHA-256 of
the baseline run's persisted ``energy_series.csv`` and ``forecast_chi.csv``,
and the host class that produced them: the numpy version and the SIMD
extensions numpy found (the "found" list of ``np.show_runtime()``).  float64
``power``, ``exp`` and ``log`` run on different kernels on different
extensions, so the last bits depend on the class.  The lite run's two series
are committed whole, as ``data/lite_energy_series.csv`` and
``data/lite_forecast_chi.csv`` (no frozen number reads chi:
``envelope.calibration_required`` is 0 on both configs, so only the series
locks it).

On the recording class every check is bit for bit: a pure refactor must
reproduce the record exactly.  On any other class each value is compared to
CROSS_HOST_RTOL relative, and each entry of a lite series to CROSS_HOST_RTOL
times the largest magnitude of its column (a zero value or column must stay
zero); the baseline series, recorded as hashes only, are not compared there.
A numerics change regenerates the record and declares its tolerance:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nudgelab.diagnostics import CHI_SERIES_COLUMNS, ENERGY_SERIES_COLUMNS
from nudgelab.field import load_series
from nudgelab.harness import _jsonable, persist_twin

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
# well above the spread measured between AVX-512 and AVX2 kernels: 8.6e-14
# relative on the lite values and 2.4e-11 on the baseline values, 2.0e-13
# of a column's largest magnitude on the lite series
CROSS_HOST_RTOL = 1e-9
SERIES = {"energy_series": ENERGY_SERIES_COLUMNS, "forecast_chi": CHI_SERIES_COLUMNS}
# the frozen numbers, by their block of report.json
FROZEN = {
    "values": ("re_initial", "re_assim_end", "re_forecast_end", "sync_ratio", "growth_ratio"),
    "decay": ("rate", "floor", "r_squared"),
    "envelope": ("calibration_required",),
    "interp_error": ("sup_err_r", "sup_err_U"),
}


def host_class() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
    return {"numpy": np.__version__, "simd_found": found}


RECORDING_HOST = GOLDEN.get("host") == host_class()


def _assert_close(got, want, what):
    """Every entry within CROSS_HOST_RTOL of the largest magnitude of its
    column (of the value, for a scalar).  A nudging power near zero is the
    remainder of a cancelling sum, so its own size is no scale for it."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    off = np.abs(got - want) > CROSS_HOST_RTOL * np.abs(want).max()
    assert not off.any(), f"{what}: {got[off][:3]} against {want[off][:3]}"


def frozen_numbers(report) -> dict:
    """The FROZEN numbers of a twin, as its ``report.json`` holds them."""
    body = _jsonable({block: getattr(report, block) for block in FROZEN})
    return {block: {k: body[block][k] for k in keys} for block, keys in FROZEN.items()}


@pytest.mark.parametrize("name", ["baseline", "lite"])
def test_twin_values_match_golden(request, name):
    got = frozen_numbers(request.getfixturevalue(f"{name}_twin"))
    want = {block: GOLDEN[name][block] for block in FROZEN}
    if RECORDING_HOST:
        assert got == want
        return
    for block, numbers in want.items():
        assert got[block].keys() == numbers.keys(), block
        for key, value in numbers.items():
            if value is None:
                assert got[block][key] is None, f"{block}.{key}"
            else:
                _assert_close(got[block][key], value, f"{block}.{key}")


def _persisted(tmp_path, report, name) -> Path:
    persist_twin(report, tmp_path)
    return tmp_path / f"{name}.csv"


def _assert_lite_series(tmp_path, lite_twin, name):
    path, frozen = _persisted(tmp_path, lite_twin, name), DATA / f"lite_{name}.csv"
    if RECORDING_HOST:
        assert path.read_bytes() == frozen.read_bytes()
        return
    got, want = load_series(path, SERIES[name])[1], load_series(frozen, SERIES[name])[1]
    for column, g, w in zip(SERIES[name], got, want):
        _assert_close(g, w, column)


def test_lite_energy_series_matches_golden(tmp_path, lite_twin):
    _assert_lite_series(tmp_path, lite_twin, "energy_series")


def test_lite_forecast_chi_matches_golden(tmp_path, lite_twin):
    _assert_lite_series(tmp_path, lite_twin, "forecast_chi")


@pytest.mark.parametrize("name", ["energy_series", "forecast_chi"])
def test_baseline_series_match_golden(tmp_path, baseline_twin, name):
    if not RECORDING_HOST:
        pytest.skip(f"baseline series are hashes of {GOLDEN.get('host')}, not this host class")
    digest = hashlib.sha256(_persisted(tmp_path, baseline_twin, name).read_bytes()).hexdigest()
    assert digest == GOLDEN["baseline"][f"{name}_sha256"]


def freeze() -> None:
    """Rewrite the record from this host's baseline and lite twins."""
    from conftest import lite_experiment
    from nudgelab.config import ExperimentConfig
    from nudgelab.harness import run_twin

    record = {"host": host_class()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in (("baseline", ExperimentConfig()), ("lite", lite_experiment())):
            report = run_twin(cfg)
            out = persist_twin(report, Path(tmp) / name)
            record[name] = frozen_numbers(report)
            for series in SERIES:
                if name == "lite":
                    shutil.copyfile(out / f"{series}.csv", DATA / f"lite_{series}.csv")
                else:
                    digest = hashlib.sha256((out / f"{series}.csv").read_bytes()).hexdigest()
                    record[name][f"{series}_sha256"] = digest
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    freeze()
