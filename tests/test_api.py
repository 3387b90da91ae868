"""The public surface: every exported name resolves, so a deletion that leaves
a stale ``__all__`` entry fails here; and so does every name the benchmark's
tracer wraps."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import volswap

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_package_exports_resolve():
    missing = [name for name in volswap.__all__ if not hasattr(volswap, name)]
    assert not missing


@pytest.mark.parametrize("module", ["model", "specfun", "rvdist", "swaps", "options", "mc"])
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"volswap.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _layer_functions():
    """``LAYER_FUNCTIONS`` of perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYER_FUNCTIONS")


def test_traced_names_resolve_with_the_kind_the_tracer_wraps():
    # The tracer replaces a module function in every volswap module that
    # holds it, and a "Class.attr" through the class __dict__: a property by
    # its getter, anything else as a plain function.  A renamed or deleted
    # name, or a property turned cached_property, breaks the benchmark run.
    kinds = {}
    for span, mod_name, attr in _layer_functions():
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, name = attr.split(".")
            obj = vars(getattr(module, cls_name)).get(name)
            assert type(obj) is property or inspect.isfunction(obj), (span, obj)
            kinds[attr] = type(obj).__name__
        else:
            assert inspect.isfunction(getattr(module, attr, None)), span
    # delta_bar is read as an attribute, the others are called
    assert kinds == {"ReturnMoments.mean_forms": "function", "ReturnMoments.delta_bar": "property",
                     "LaguerreMoments.moment_hp": "function"}
