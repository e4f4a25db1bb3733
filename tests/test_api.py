"""Public API: every exported name exists."""

import importlib
import pkgutil

import pytest

import mehler

MODULES = ["mehler"] + [f"mehler.{m.name}"
                        for m in pkgutil.iter_modules(mehler.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
