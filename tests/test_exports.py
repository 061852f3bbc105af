"""Every exported name exists, every function the benchmark traces is there,
and every matconc name that README.md writes in backticks resolves.

``perfbench/layertrace.py`` wraps the functions of ``LAYER_FUNCTIONS``
through ``vars(owner)[attr]``: a function deleted or moved out of its
module (or class) makes ``perfbench/run.py --trace 1`` raise ``KeyError``.
The file is read with ``runpy``, which neither imports it as a module nor
writes its bytecode, so nothing under ``perfbench/`` changes.
"""

import importlib
import os
import pkgutil
import re
import runpy

import pytest

import matconc

LAYERTRACE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layertrace.py")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
MODULES = sorted(m.name for m in pkgutil.iter_modules(matconc.__path__))


def _layer_functions():
    return runpy.run_path(LAYERTRACE)["LAYER_FUNCTIONS"]


@pytest.mark.parametrize("module,owner,attr", [row[:3] for row in _layer_functions()])
def test_every_traced_function_resolves(module, owner, attr):
    mod = importlib.import_module(module)
    target = getattr(mod, owner) if owner else mod
    assert callable(vars(target)[attr]) or isinstance(vars(target)[attr], classmethod)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    mod = importlib.import_module(f"matconc.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_the_package_lists_the_processes_module():
    assert "processes" in MODULES
    for name in importlib.import_module("matconc.processes").__all__:
        assert getattr(matconc, name) is getattr(matconc.processes, name)


def _readme_names():
    """The backticked dotted names of README.md that name matconc:
    ``matconc.module``, ``module.attr`` for a module of matconc, and
    ``Class.attr`` (a capitalized head); ``np.mean`` and the like are not
    matconc's."""
    with open(README, encoding="utf-8") as f:
        names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", f.read()))
    return sorted(n for n in names if n.split(".")[0] in ("matconc", *MODULES) or n[0].isupper())


def _resolves(name):
    head, *attrs = name.split(".")
    if head == "matconc":
        head, *attrs = attrs
    if head in MODULES:
        obj = importlib.import_module(f"matconc.{head}")
    else:
        owners = [vars(importlib.import_module(f"matconc.{m}")) for m in MODULES]
        found = [o[head] for o in owners if head in o]
        if not found:
            return False
        obj = found[0]
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("name", _readme_names())
def test_every_name_the_readme_gives_resolves(name):
    assert _resolves(name)


def test_the_readme_check_reads_its_names():
    names = _readme_names()
    assert "matconc.processes" in names and "Draws.entries" in names
    assert "np.mean" not in names
    assert not _resolves("Draws.transposed") and not _resolves("NoSuchClass.attr")
