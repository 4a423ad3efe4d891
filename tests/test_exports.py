"""Public names: every exported name exists, so no deletion leaves one behind."""

import importlib
import pkgutil

import pytest

import privopt

MODULES = ["privopt"] + [f"privopt.{m.name}" for m in pkgutil.iter_modules(privopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    ns = {}
    exec("from privopt import *", ns)
    assert set(privopt.__all__) <= set(ns)
