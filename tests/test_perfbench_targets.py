"""The benchmark's instrumentation (perfbench/spans.py) wraps nudgelab's
functions by attribute path from outside the package.  This guards those
paths: renaming or moving a wrapped function fails here, in the package's
own suite, instead of only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", [path for path, _, _ in _load_spans().TARGETS])
def test_span_target_resolves(path):
    module_name, *attrs = path.split(".")
    owner = importlib.import_module(f"nudgelab.{module_name}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
