"""The traced benchmark's probes name functions that exist.

``perfbench/tracing.py`` wraps a fixed list of library functions by
``(module, attribute path)``.  A rename in the library would only surface
as a crash of a traced benchmark run; resolving every probe here turns it
into a unit-test failure instead.  The probe is resolved the way
``tracing.instrument`` resolves it: the owner is reached by attribute
lookup, and the wrapped function must sit in the owner's own
``__dict__`` (an inherited method would make ``instrument`` raise
``KeyError``).
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
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        assert hasattr(owner, name), f"{module}.{path} ({span}) is gone"
        owner = getattr(owner, name)
    assert attr in owner.__dict__, \
        f"{module}.{path} ({span}) is not defined on its owner itself"
    target = owner.__dict__[attr]
    assert callable(target), f"{module}.{path} ({span}) is not callable"
