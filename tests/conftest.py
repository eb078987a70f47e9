"""Fixtures for the float stacks' LLL and walk: the compiled library's stack
LLL itself, `_lll` and `_walk_lane` lane by lane in the library's place, and
both in turn, for the properties that hold either way."""

import pytest

from danilab import lattice


@pytest.fixture(scope="session")
def compiled_lll():
    """The compiled stack LLL (of `lattice._compiled()`). Where the library
    cannot be used the test is skipped, with the reason recorded for the
    process."""
    library = lattice._compiled()
    if library is None:
        pytest.skip(lattice.float_lll_backend())
    return library.lll


@pytest.fixture
def python_lll(monkeypatch):
    """Every lane of a float stack reduced by `_lll` and walked by
    `_walk_lane`, as on a machine where the compiled library cannot be
    used."""
    monkeypatch.setattr(lattice, "_COMPILED", (None, "python: switched off by a test"))


@pytest.fixture(params=["compiled", "python"])
def float_lll(request):
    """Run the test once with `compiled_lll` and once with `python_lll`."""
    request.getfixturevalue(f"{request.param}_lll")
    return request.param
