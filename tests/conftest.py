"""Fixtures for the float stacks' LLL: the compiled stack LLL itself, `_lll`
lane by lane in its place, and both in turn, for the properties that hold
either way."""

import pytest

from danilab import lattice


@pytest.fixture(scope="session")
def compiled_lll():
    """The compiled stack LLL (`lattice._compiled_lll`). Where it cannot be
    used the test is skipped, with the reason recorded for the process."""
    reduce_stack = lattice._compiled_lll()
    if reduce_stack is None:
        pytest.skip(lattice.float_lll_backend())
    return reduce_stack


@pytest.fixture
def python_lll(monkeypatch):
    """Every lane of a float stack reduced by `_lll`, as on a machine where
    the compiled stack LLL cannot be used."""
    monkeypatch.setattr(lattice, "_COMPILED", (None, "python: switched off by a test"))


@pytest.fixture(params=["compiled", "python"])
def float_lll(request):
    """Run the test once with `compiled_lll` and once with `python_lll`."""
    request.getfixturevalue(f"{request.param}_lll")
    return request.param
