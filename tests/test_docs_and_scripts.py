"""The README's config examples and the scripts stay loadable: a removed
config key or API name that one of them still uses fails here.  The
figures the README states for the defaults, the leaf count and the named
constants are the code's."""

import json
import re
import runpy
from pathlib import Path

import pytest

from nudgelab import dynamics, field, harness, sampler
from nudgelab.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
README_JSON = re.findall(r"```json\n(.*?)```", README, re.S)
# every constant the README states as `NAME` (value), and its module
STATED_CONSTANTS = {
    **{name: harness for name in (
        "SYNC_RATIO_MAX", "FORECAST_GROWTH_MAX", "ENVELOPE_GAMMA_MAX", "MMS_ORDER_RANGE",
        "MASS_DRIFT_MAX", "MONOTONE_BAND",
    )},
    "MAX_STORED_CELLS": sampler,
    "CHUNK_CELLS": field,
    "MAX_GRID_CELLS": field,
    "MAX_STEPS": dynamics,
    "RHO_FLOOR": dynamics,
}


def test_readme_has_json_examples():
    assert README_JSON


@pytest.mark.parametrize("block", README_JSON, ids=lambda b: f"block{README_JSON.index(b)}")
def test_readme_json_examples_are_valid_configs(block):
    ExperimentConfig.from_dict(json.loads(block)).validate()


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_load(path):
    runpy.run_path(str(path), run_name="not_main")


def _leaves(tree):
    return sum(_leaves(v) if isinstance(v, dict) else 1 for v in tree.values())


def test_readme_states_the_config_leaf_count():
    stated = re.findall(r"A config has (\d+) leaves", README)
    assert stated == [str(_leaves(ExperimentConfig().to_dict()))]


def test_readme_states_the_defaults():
    assert ExperimentConfig().to_dict() in [json.loads(block) for block in README_JSON]


def test_readme_constants_are_the_code_constants():
    # `NAME` (value) or `module.NAME` (value); thousands separators allowed
    stated = re.findall(r"`(?:\w+\.)*([A-Z][A-Z_]+)` \(([-+\d.e,\[\] ]+)\)", README)
    assert {name for name, _ in stated} == set(STATED_CONSTANTS)
    for name, text in stated:
        value = json.loads(text if text.startswith("[") else text.replace(",", ""))
        code = getattr(STATED_CONSTANTS[name], name)
        assert value == (list(code) if isinstance(code, tuple) else code), name
