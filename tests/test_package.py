import importlib
from pathlib import Path

import pytest

import wassersurf as ws

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_single_sourced():
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    module, name = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"].rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == ws.__version__
