"""Every name a module exports is defined, so a deletion cannot leave a
dangling ``__all__`` entry behind."""

import importlib

import pytest

MODULES = ["graphs", "patterns", "percolation", "spectral", "lifshits", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"percospec.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
