"""The benchmark's tracer wraps vconlab by name from outside the package; a
renamed function or method would leave its spans, and the per-layer metrics
built on them, silently empty. This reads the tracer's tables without
instrumenting anything and checks that every name still resolves, and that
the arguments its counting hooks read by position are still there."""

import importlib
import importlib.util
import inspect
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


# (module, function or Class.method, position, parameter name): what the
# tracer's counting hooks read from a wrapped call's positional arguments; a
# reorder would feed the wrong value into the per-mode and per-step metrics
HOOK_ARGUMENTS = [
    ("cli", "run_single", 3, "mode"),
    ("training", "Optimizer.step", 1, "named_params"),
    ("cli", "save_network", 1, "path"),
    ("checkpoint", "load_network", 0, "path"),
]


@pytest.mark.parametrize("module, qualname, position, name", HOOK_ARGUMENTS,
                         ids=[f"{m}.{q}[{p}]" for m, q, p, _ in HOOK_ARGUMENTS])
def test_hooked_argument_keeps_its_position(module, qualname, position, name):
    fn = importlib.import_module(f"vconlab.{module}")
    for attr in qualname.split("."):
        fn = getattr(fn, attr)
    wrapped = [(m, a) for m, a, _ in FUNCTIONS] + [(m, f"{c}.{f}") for m, c, f, _ in METHODS]
    assert (module, qualname) in wrapped
    assert list(inspect.signature(fn).parameters)[position] == name
