"""Public names: every exported name exists, so no deletion leaves one
behind, and each concept has one public home."""

import importlib
import inspect
import pkgutil

import pytest

import privopt
from privopt import channels

MODULES = ["privopt"] + [f"privopt.{m.name}" for m in pkgutil.iter_modules(privopt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("name", MODULES[1:])  # the package root re-exports on purpose
def test_submodules_export_only_what_they_define(name):
    # a function or class in a submodule's __all__ is defined in that
    # submodule, so no second module offers it under the same name
    mod = importlib.import_module(name)
    objs = {n: getattr(mod, n) for n in mod.__all__}
    assert [n for n, obj in objs.items() if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ != name] == []


def test_each_channel_kind_has_its_own_row():
    # no kind is an alias of another: one kind, one row of the kind table
    kinds_of = {}
    for kind in channels.CHANNEL_KINDS:
        kinds_of.setdefault(channels._KINDS[kind], []).append(kind)
    assert [kinds for kinds in kinds_of.values() if len(kinds) > 1] == []


# each removed second name, and the module that offered it: the one
# remaining name is channels.worst_case_mi or channels.binary_entropy
_SECOND_NAMES = [
    ("privopt", "mi_closed_form"),
    ("privopt.information", "mi_closed_form"),
    ("privopt.information", "MiClosedForm"),
    ("privopt.information", "binary_entropy"),
]


@pytest.mark.parametrize("name,second", _SECOND_NAMES, ids=[f"{m}.{n}" for m, n in _SECOND_NAMES])
def test_no_second_public_name(name, second):
    mod = importlib.import_module(name)
    assert second not in mod.__all__
    if second != "binary_entropy":  # information still calls it, from channels
        assert not hasattr(mod, second)


def test_star_import():
    ns = {}
    exec("from privopt import *", ns)
    assert set(privopt.__all__) <= set(ns)
