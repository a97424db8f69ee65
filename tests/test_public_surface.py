"""The public surface: each module's ``__all__`` and the package namespace.

A name deleted from a module but left in its ``__all__`` breaks only
``from module import *``, and a helper that the package imports without
listing it is public by accident; neither fails anywhere else."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import sbpkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(sbpkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sbpkit.{name}")
    assert [s for s in module.__all__ if not hasattr(module, s)] == []


def test_the_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(sbpkit.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    unlisted = [
        (module, name) for module, name in imported
        if name not in importlib.import_module(f"sbpkit.{module}").__all__
    ]
    assert unlisted == []
