"""The traced benchmark's probes name functions that exist.

``perfbench/tracing.py`` wraps a fixed list of library functions by
``(module, attribute path)``.  A rename in the library would only surface
as a crash of a traced benchmark run; resolving every probe here turns it
into a unit-test failure instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = load_probes()


@pytest.mark.parametrize("module,path,span", PROBES,
                         ids=[f"{m}:{p}" for m, p, _s in PROBES])
def test_probe_resolves_to_a_callable(module, path, span):
    target = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(target, name), f"{module}.{path} ({span}) is gone"
        target = getattr(target, name)
    assert callable(target), f"{module}.{path} ({span}) is not callable"
