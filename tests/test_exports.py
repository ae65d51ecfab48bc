"""Every public name of the package resolves: each module's ``__all__`` and every name
that ``slrestore/__init__.py`` imports (a stale export fails here, not at a user's import)."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import slrestore


def test_every_module_all_resolves():
    missing = []
    for info in pkgutil.iter_modules(slrestore.__path__):
        module = importlib.import_module(f"slrestore.{info.name}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(slrestore.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    assert names and [name for name in names if not hasattr(slrestore, name)] == []
