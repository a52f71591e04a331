"""The benchmark tracer's view of the program: every name it wraps resolves.

``perfbench/tracer.py`` wraps functions, methods and properties of the
jacdecomp modules by name, from outside the program.  A rename, or a method
turned into another kind of descriptor, would break traced runs without
failing any other test.  These checks only read the tracer's tables; they
never call ``Tracer.install()``, which rebinds module attributes for the rest
of the process.  The package's export list is held to the same rule: every
name in ``jacdecomp.__all__`` resolves.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import jacdecomp
from jacdecomp import covering
from jacdecomp.decomposition import ActionAnalysis

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TRACED = list(tracer.SPANS) + [(module, attr) for module, attr, _ in tracer.COUNTS]


def _owner_namespace(module_name: str, attr: str) -> tuple[dict, str]:
    """The __dict__ the tracer rebinds in, and the key it rebinds."""
    module = importlib.import_module(f"jacdecomp.{module_name}")
    if "." in attr:
        cls_name, leaf = attr.split(".")
        return vars(vars(module)[cls_name]), leaf
    return vars(module), attr


@pytest.mark.parametrize(
    "module_name,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED]
)
def test_traced_name_resolves_in_its_owner(module_name, attr):
    namespace, leaf = _owner_namespace(module_name, attr)
    assert leaf in namespace
    # the tracer wraps a property's getter and calls anything else directly
    value = namespace[leaf]
    assert isinstance(value, property) or callable(value)


def test_factors_stays_a_property():
    # a cached_property would be wrapped as a plain function under tracing,
    # so analysis.factors would then return a bound method
    assert isinstance(inspect.getattr_static(ActionAnalysis, "factors"), property)


def test_validate_action_keeps_cache_clear():
    # the action_sweep set-up empties this cache before its timed ops
    assert callable(covering.validate_action.cache_clear)


def test_every_exported_name_resolves():
    # the package trims public names over time; __all__ must follow
    assert [name for name in jacdecomp.__all__ if not hasattr(jacdecomp, name)] == []
    namespace = {}
    exec("from jacdecomp import *", namespace)
    assert set(jacdecomp.__all__) <= namespace.keys()
