"""The package namespace: each layer's `__all__` is its one export list."""

from __future__ import annotations

import importlib
import re
import types
from pathlib import Path

import tevdeg

LAYERS = ["arith", "certify", "closed_forms", "errors", "quantum", "schubert", "targets"]


def _layer(name):
    # `tevdeg.certify` is the function, so the module comes by its path
    return importlib.import_module(f"tevdeg.{name}")


def test_package_exports_each_layers_all():
    declared = set()
    for name in LAYERS:
        layer = _layer(name)
        for export in layer.__all__:
            assert getattr(tevdeg, export) is getattr(layer, export), (name, export)
        declared.update(layer.__all__)
    exported = {
        name
        for name, obj in vars(tevdeg).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == declared


def test_version_matches_pyproject():
    # read as text: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert version is not None
    assert tevdeg.__version__ == version.group(1)
