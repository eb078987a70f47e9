"""The compiled library's build and load (`danilab._clll`) and the fallback
of `lattice` to `_lll` and `_walk_lane` per lane.

A fresh cache directory gets the library compiled once, with mode 0700, and
a second load reuses the file without running the compiler; wherever a C
compiler is found, that library must pass its check against `_lll`, whose
lanes reach every status and a transform made by size reductions and swaps.
A missing compiler, a group-writable cache, a library that returns one
wrong transform entry and one whose walk returns one wrong box count each
leave the process on `_lll` and `_walk_lane`, with the reason recorded in
`lattice.float_lll_backend()`, and every answer equal to the library's; so does a platform whose doubles keep excess precision, where
the source refuses to compile. A compile removes the cache's libraries of
other sources, and nothing else.
"""

import os
import shlex
import shutil
import stat
import subprocess
import sysconfig

import numpy as np
import pytest

from danilab import MatrixPolyCurve, _clll, count_in_box, in_kmu, in_mahler_compact, lattice
from danilab import orbit_points
from danilab.lattice import LatticeBasis


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh $XDG_CACHE_HOME's danilab folder (not made yet), with the
    compiler runs counted."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    runs = []
    run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *args, **kw: runs.append(args) or run(*args, **kw))
    return tmp_path / "cache" / "danilab", runs


def first_reduction(monkeypatch):
    """`lattice` back to its state before the process's first float stack
    reduction."""
    monkeypatch.setattr(lattice, "_COMPILED", None)


def answers():
    """Box counts and ball tests of n = 1 and n = 2 orbit stacks."""
    out = []
    for n in (1, 2):
        curve = MatrixPolyCurve.from_coeffs([np.eye(n) * 0.25, np.eye(n) + 0.125], (1.0, 2.0))
        bases = LatticeBasis.batch(orbit_points(curve, np.linspace(1.0, 2.0, 9), 4.0))
        out.append([(count_in_box(b, (0.9,) * 2 * n), in_kmu(b, 0.5), in_mahler_compact(b, 0.2))
                    for b in bases])
    return out


def have_compiler():
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    return shutil.which(cc) is not None


# Skipped only without a compiler: a library that compiles but fails its
# check against `_lll` fails here, where elsewhere the fallback hides it.
@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_fresh_cache_compiles_once_and_reuses_the_library(cache, monkeypatch):
    folder, runs = cache
    want = answers()  # by the backend this process chose first
    library, path = _clll.load()
    assert len(runs) == 1 and os.path.dirname(path) == str(folder)
    assert stat.S_IMODE(os.stat(folder).st_mode) == 0o700
    assert os.listdir(folder) == [os.path.basename(path)]  # no temporary file left
    assert lattice._matches_lll(library.lll) and lattice._matches_walk(library.walk)
    again, same = _clll.load()
    assert same == path and len(runs) == 1  # the second load compiles nothing
    assert lattice._matches_lll(again.lll) and lattice._matches_walk(again.walk)
    first_reduction(monkeypatch)
    assert answers() == want
    assert lattice.float_lll_backend() == path and len(runs) == 1


def test_missing_compiler_falls_back_to_lll(compiled_lll, cache, tmp_path, monkeypatch):
    folder, runs = cache
    want = answers()
    config = sysconfig.get_config_var
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: missing if name == "CC" else config(name))
    first_reduction(monkeypatch)
    assert answers() == want
    assert lattice.float_lll_backend().startswith(f"python: no C compiler ({missing}: ")
    assert len(runs) == 1 and os.listdir(folder) == []  # refused once per process


def test_group_writable_cache_falls_back_to_lll(compiled_lll, cache, monkeypatch):
    folder, runs = cache
    want = answers()
    folder.mkdir(parents=True)
    folder.chmod(0o770)
    first_reduction(monkeypatch)
    assert answers() == want
    assert lattice.float_lll_backend() == f"python: cache {folder} is group- or world-writable"
    assert runs == [] and os.listdir(folder) == []


def test_library_with_a_wrong_transform_falls_back_to_lll(compiled_lll, monkeypatch):
    # the check lanes reach status 2 (a zero norm) and 4 (a quotient 2^70
    # and an m = 3 U entry 2^80 leave int64); one wrong U entry, of the
    # flowed check lane, leaves the process on `_lll`
    assert [compiled_lll(stack, lattice._DELTA, lattice._MAX_LLL_STEPS)[4].tolist()
            for stack in lattice._check_lanes()] == [[0] * 8 + [2, 0, 4], [4], [0]]
    want = answers()
    load = _clll.load

    def load_wrong():
        library, path = load()

        def reduce_wrong(cols, delta, max_steps):
            b, u, mu, norms, status, first = library.lll(cols, delta, max_steps)
            u[0, 0, 0] += cols.shape[1] == 4
            return b, u, mu, norms, status, first
        return library._replace(lll=reduce_wrong), path

    monkeypatch.setattr(_clll, "load", load_wrong)
    first_reduction(monkeypatch)
    assert answers() == want
    assert lattice.float_lll_backend() == (
        f"python: {_clll.library_path()} does not reduce the check lanes as _lll does")


def test_library_with_a_wrong_walk_falls_back(compiled_lll, monkeypatch):
    # one wrong box count, on the first check lane, leaves the process on
    # `_lll` and `_walk_lane` for every float stack
    want = answers()
    load = _clll.load

    def load_wrong():
        library, path = load()

        def walk_wrong(b, mu, norms, limit, query, bound, max_nodes):
            found, dropped = library.walk(b, mu, norms, limit, query, bound, max_nodes)
            if query == "box":
                found[0] += 1
            return found, dropped
        return library._replace(walk=walk_wrong), path

    monkeypatch.setattr(_clll, "load", load_wrong)
    first_reduction(monkeypatch)
    assert lattice._compiled() is None
    assert lattice.float_lll_backend() == (
        f"python: {_clll.library_path()} does not walk the check lanes as _walk_lane does")
    calls = {"_lll": 0, "_walk_lane": 0}
    for name in calls:
        def counted(*args, _fn=getattr(lattice, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(lattice, name, counted)
    assert answers() == want
    assert calls["_lll"] == 2 * 9 and calls["_walk_lane"] > 0


@pytest.mark.parametrize("shapes, query", [
    (((2, 9, 9), (2, 9, 9), (2, 9), (2,), (9,)), "box"),
    (((2, 2, 2), (2, 2, 3), (2, 2), (2,), (2,)), "box"),
    (((2, 2, 2), (2, 2, 2), (2, 2), (1,), (2,)), "box"),
    (((2, 2, 2), (2, 2, 2), (2, 2), (2,), (2,)), "ball"),
    (((2, 2, 2), (2, 2, 2), (2, 2), (2,), (1,)), "shortest"),
])
def test_library_walk_refuses_arrays_it_cannot_read(compiled_lll, shapes, query):
    b, mu, norms, limit, bound = map(np.ones, shapes)
    with pytest.raises(ValueError, match="needs"):
        lattice._compiled().walk(b, mu, norms, limit, query, bound, lattice._MAX_NODES)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_compile_removes_the_libraries_of_other_sources(cache, monkeypatch):
    folder, runs = cache
    folder.mkdir(parents=True, mode=0o700)
    stale = "0" * 64 + ".so"
    for name in (stale, "tmpabc123.so", "notes.txt"):  # a library; another process's temporary
        (folder / name).write_text("")
    _, path = _clll.load()
    assert sorted(os.listdir(folder)) == sorted([os.path.basename(path), "tmpabc123.so",
                                                 "notes.txt"])


@pytest.mark.skipif(not have_compiler(), reason="no C compiler")
def test_excess_precision_refuses_to_compile_and_falls_back(compiled_lll, cache, monkeypatch):
    folder, runs = cache
    want = answers()
    # the platform test as it reads where doubles keep excess precision
    monkeypatch.setattr(_clll, "SOURCE",
                        _clll.SOURCE.replace("#if FLT_EVAL_METHOD != 0", "#if 1"))
    first_reduction(monkeypatch)
    assert answers() == want
    backend = lattice.float_lll_backend()
    assert backend.startswith("python: ") and " failed: " in backend
    assert backend.endswith('error: #error "double arithmetic with excess precision"')
    assert len(runs) == 1 and os.listdir(folder) == []


def test_library_name_is_the_digest_of_source_flags_and_platform(cache, monkeypatch):
    path = _clll.library_path()
    assert os.path.basename(path)[:-3].isalnum() and len(os.path.basename(path)) == 64 + 3
    monkeypatch.setattr(_clll, "FLAGS", _clll.FLAGS + ("-g",))
    assert _clll.library_path() != path
    assert "-ffast-math" not in _clll.FLAGS and "-ffp-contract=off" in _clll.FLAGS


@pytest.mark.parametrize("shape", [(2, 9, 9), (2, 2, 3), (2, 0, 0)])
def test_library_refuses_a_stack_it_cannot_read(compiled_lll, shape):
    with pytest.raises(ValueError, match="needs"):
        compiled_lll(np.ones(shape), lattice._DELTA, lattice._MAX_LLL_STEPS)


def test_integer_stack_is_reduced_as_its_float64_copy(float_lll):
    ints = np.array([[[2, 3], [1, 2]], [[1, 5], [0, 1]], [[-7, 2], [4, -1]]])
    got = lattice._checked_stack(ints).reduced()
    want = lattice._checked_stack(ints.astype(np.float64)).reduced()
    assert [x.dtype for x in got] == [np.float64] * 3
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
