"""The package bindings that the benchmark tracer patches must all exist.

``perfbench/tracer.py`` wraps each function at every module namespace that
binds it, listed in ``SPEC``.  A refactor that drops or moves one of those
bindings would only fail a traced benchmark run; this test fails first.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_spec():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPEC


def test_tracer_bindings_resolve():
    spec = _tracer_spec()
    assert spec
    missing = [f"slrestore.{mod}.{attr}" for mod, attr, _ in spec
               if not callable(getattr(importlib.import_module(f"slrestore.{mod}"),
                                       attr, None))]
    assert missing == []
