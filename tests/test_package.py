"""The package namespace: each layer's `__all__` is its one export list,
and the package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import importlib
import re
import runpy
import sys
import types
from pathlib import Path

import pytest

import tevdeg
import tevdeg.cli

ROOT = Path(__file__).resolve().parents[1]
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
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert version is not None
    assert tevdeg.__version__ == version.group(1)


def test_console_script_and_main_module_run_cli_main(monkeypatch):
    # read as text, as the version is; `python -m tevdeg` must run the
    # same function as the `tevdeg` script
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'tevdeg = "tevdeg.cli:main"'
    module, name = scripts.split('"')[1].split(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is tevdeg.cli.main
    monkeypatch.setattr(tevdeg.cli, "main", lambda: 7)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("tevdeg", run_name="__main__")
    assert exit_info.value.code == 7


def test_readme_library_block_runs_as_documented():
    # each expression line of the block shows its value in its comment
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            value = eval(code, namespace)
            comment = lines[node.lineno - 1].split("#", 1)[1].strip()
            assert comment.startswith(repr(value)), (comment, value)
            shown.append(value)
        else:
            module = ast.Module(body=[node], type_ignores=[])
            exec(compile(module, "README.md", "exec"), namespace)
    assert shown == [10368, ((2, 6), (6, 1), (3, 3)), 6, 27, 81, 8, 8, "NotEnumerative"]


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_sources_import_no_private_name_of_another_layer():
    # a layer's private names stay its own, whether imported (`from
    # .arith import _integer`) or reached as an attribute of a name
    # imported from that layer (`TargetSpec._new`); dunders are
    # public. `arith._integer` is the one integer check every public
    # door shares
    allowed = {("arith", "_integer")}
    for path in sorted((ROOT / "src" / "tevdeg").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # local name -> (layer, dotted prefix of its attributes)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    name = alias.name
                    if _is_private(name) and (node.module, name) not in allowed:
                        raise AssertionError((path.name, node.lineno, node.module, name))
                    if node.module is None:  # `from . import errors`
                        imported[alias.asname or name] = (name, "")
                    else:
                        imported[alias.asname or name] = (node.module, f"{name}.")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
                and _is_private(node.attr)
            ):
                layer, prefix = imported[node.value.id]
                if (layer, prefix + node.attr) not in allowed:
                    raise AssertionError((path.name, node.lineno, layer, prefix + node.attr))


def test_sources_import_only_the_standard_library():
    # every import, also one inside a function, is relative or stdlib
    sources = sorted((ROOT / "src" / "tevdeg").glob("*.py"))
    assert len(sources) >= len(LAYERS) + 3  # the layers, cli, __init__, __main__
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".", 1)[0]
                assert top in sys.stdlib_module_names, (path.name, node.lineno, module)


def _name_of(node):
    """The class name an expression spells, as in `X` or `errors.X`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_leaf_error_class_is_raised_somewhere():
    # an error class with no subclass is dead unless some source raises
    # it or passes it on as the class to raise, as
    # `_integer(r, "dimension r", InvalidTarget)` does
    errors = tevdeg.errors
    leaves = {
        name for name in errors.__all__
        if not getattr(errors, name).__subclasses__()
    }
    used = set()
    for path in sorted((ROOT / "src" / "tevdeg").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name_of(node.exc))
            elif isinstance(node, ast.Call):
                arguments = node.args + [keyword.value for keyword in node.keywords]
                used.update(_name_of(arg) for arg in arguments if not isinstance(arg, ast.Call))
    assert len(leaves) >= 10
    assert sorted(leaves - used) == []
