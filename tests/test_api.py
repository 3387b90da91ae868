"""The public surface: every exported name resolves, so a deletion that leaves
a stale ``__all__`` entry fails here."""

import importlib

import pytest

import volswap


def test_package_exports_resolve():
    missing = [name for name in volswap.__all__ if not hasattr(volswap, name)]
    assert not missing


@pytest.mark.parametrize("module", ["model", "specfun", "rvdist", "swaps", "options", "mc"])
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"volswap.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
