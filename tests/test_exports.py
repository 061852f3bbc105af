"""Every exported name exists, and every function the benchmark traces is there.

``perfbench/layertrace.py`` wraps the functions of ``LAYER_FUNCTIONS``
through ``vars(owner)[attr]``: a function deleted or moved out of its
module (or class) makes ``perfbench/run.py --trace 1`` raise ``KeyError``.
The file is read with ``runpy``, which neither imports it as a module nor
writes its bytecode, so nothing under ``perfbench/`` changes.
"""

import importlib
import os
import pkgutil
import runpy

import pytest

import matconc

LAYERTRACE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layertrace.py")
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
