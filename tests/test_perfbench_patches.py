"""The traced benchmark wraps engine entry points by name
(``perfbench/trace.py`` ``PATCHES``); ``trace.install()`` raises on a name
that is gone. Resolving every entry here makes a rename of an engine layer
fail tier-1 instead of breaking only the traced benchmark run."""

import importlib

import pytest

from perfbench.trace import PATCHES


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _n, _k in PATCHES])
def test_trace_patch_resolves(mod_name, attr):
    # the same lookup install() does: a method through the class __dict__,
    # a module-level name through the module
    owner = importlib.import_module(mod_name)
    *path, leaf = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    assert callable(fn)

