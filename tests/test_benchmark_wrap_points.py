"""The benchmark's tracer wraps vconlab by name from outside the package; a
renamed function or method would leave its spans, and the per-layer metrics
built on them, silently empty. This reads the tracer's tables without
instrumenting anything and checks that every name still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS


FUNCTIONS, METHODS = _tables()


@pytest.mark.parametrize("module, attr, span", FUNCTIONS, ids=[f"{m}.{a}" for m, a, _ in FUNCTIONS])
def test_wrapped_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"vconlab.{module}"), attr, None)), span


@pytest.mark.parametrize("module, cls, method, span", METHODS, ids=[f"{c}.{m}" for _, c, m, _ in METHODS])
def test_wrapped_method_is_defined_on_its_class(module, cls, method, span):
    owner = getattr(importlib.import_module(f"vconlab.{module}"), cls)
    assert callable(owner.__dict__.get(method)), span
