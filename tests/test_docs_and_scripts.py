"""The README's config examples and the scripts stay loadable: a removed
config key or API name that one of them still uses fails here."""

import json
import re
import runpy
from pathlib import Path

import pytest

from nudgelab.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README_JSON = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


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
    stated = re.findall(r"A config has (\d+) leaves", (ROOT / "README.md").read_text())
    assert stated == [str(_leaves(ExperimentConfig().to_dict()))]
