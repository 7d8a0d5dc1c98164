"""Shared pytest fixtures."""

import gc

import pytest


@pytest.fixture
def no_gc():
    """Turns the cyclic garbage collector off for one test, so that only
    reference counting frees objects, and restores it after."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *modules) wraps the function bound to name in the
    first module, binds the wrapper in every given module for the test, and
    returns the list that collects the arguments of each call."""

    def install(name, *modules):
        calls = []
        original = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    return install
