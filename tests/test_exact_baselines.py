"""Regression lock of the committed outputs: `configs/correspondence.json` and
`configs/dirichlet-scan.json`, and the float-literal configs kept next to
their baselines (`float-correspondence.json`, `float-scan.json`: float curve
coefficients, s values and mu, each read as the dyadic rational it stores),
run through `cli.run` from a scratch working directory (so `output` and
`config_hash` are those of the committed configs), must reproduce the
committed records in `tests/baselines/` (witnesses included) up to
timestamps, and the scan's CSV table byte for byte. So must the Monte Carlo
configs `configs/equidist.json`, `configs/nondiv.json` and
`configs/w-invariance.json`, whose float means and standard errors are
locked to the last bit, and `configs/genericity.json` and
`configs/rep-verify.json`, so that every committed config is locked. The
written JSONL text itself, timestamps blanked, must equal the committed
text, so key order, separators and escaping are locked too.

The n = 1 configs whose records rest on 2 x 2 ball tests (the correspondence
cells' K_mu, the nondivergence and K_mu indicators) reproduce their
baselines with the exact and the float walk refusing 2 x 2 input: those
tests read the reduced pair and walk nothing. 2 x 2 box counts still walk.
The exact 2 x 2 ball tests reduce their pair by Lagrange-Gauss, so the n = 1
correspondence baseline reproduces, and exact `in_kmu` / `in_mahler_compact`
of n = 1 cells answer as the reference walk does, with the integral LLL
refusing 2 x 2 input too."""

import os
import re
from fractions import Fraction

import pytest

import numpy as np

import exact_walk_reference
from danilab import (DirichletQuery, LatticeBasis, cli, correspondence_basis, count_in_box,
                     in_kmu, in_mahler_compact, lattice)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def blank_timestamps(text):
    return re.sub(r'"timestamp":"[^"]*"', '"timestamp":""', text)


def config_path(name):
    """A committed config, or a lock-only one kept next to its baseline."""
    path = os.path.join(ROOT, "configs", name)
    return path if os.path.exists(path) else os.path.join(BASELINES, name)


def assert_reproduces(config, baseline, table, tmp_path, monkeypatch):
    parsed = cli.parse_config(read(config_path(config)))
    monkeypatch.chdir(tmp_path)
    records = cli.run(parsed)
    assert cli.compare_to_baseline(records, read(os.path.join(BASELINES, baseline))) is None
    written = read(parsed.output + ".jsonl")
    assert written.count("\n") == len(records)
    assert blank_timestamps(written) == blank_timestamps(read(os.path.join(BASELINES, baseline)))
    if table is not None:
        with open(parsed.output + ".csv", "rb") as got, \
                open(os.path.join(BASELINES, table), "rb") as want:
            assert got.read() == want.read()


@pytest.mark.parametrize("config, baseline, table", [
    ("correspondence.json", "correspondence.jsonl", None),
    ("dirichlet-scan.json", "scan.jsonl", "scan.csv"),
    ("float-correspondence.json", "float-correspondence.jsonl", None),
    ("float-scan.json", "float-scan.jsonl", "float-scan.csv"),
])
def test_exact_config_reproduces_committed_baseline(config, baseline, table, tmp_path,
                                                    monkeypatch):
    assert_reproduces(config, baseline, table, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", ["equidist", "nondiv", "w-invariance"])
def test_orbit_config_reproduces_committed_baseline(name, tmp_path, monkeypatch):
    assert_reproduces(name + ".json", name + ".jsonl", None, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", ["genericity", "rep-verify"])
def test_genericity_and_rep_config_reproduce_committed_baseline(name, tmp_path, monkeypatch):
    assert_reproduces(name + ".json", name + ".jsonl", None, tmp_path, monkeypatch)


def refuse_pair_walks(monkeypatch):
    """Make the exact walk (`lattice._ball_walk`, on a list of columns) and
    the float walk (`lattice._walk`, on an (M, m, m) array, the entry of the
    compiled walk and of `_walk_lane` alike) raise on 2 x 2 input and walk
    any other as before."""
    def guard(walk, m_of):
        def guarded(b, *args):
            if m_of(b) == 2:
                raise AssertionError(f"{walk.__name__} walked a 2 x 2 basis")
            return walk(b, *args)
        return guarded

    monkeypatch.setattr(lattice, "_ball_walk", guard(lattice._ball_walk, len))
    monkeypatch.setattr(lattice, "_walk", guard(lattice._walk, lambda b: b.shape[1]))


@pytest.mark.parametrize("name", ["correspondence", "nondiv", "w-invariance"])
def test_n1_ball_tests_reproduce_their_baselines_without_a_walk(name, tmp_path, monkeypatch):
    refuse_pair_walks(monkeypatch)
    assert_reproduces(name + ".json", name + ".jsonl", None, tmp_path, monkeypatch)


def test_pair_box_counts_still_walk(monkeypatch):
    refuse_pair_walks(monkeypatch)
    for basis in (LatticeBasis(np.eye(2)), LatticeBasis.from_integral([(1, 0), (0, 1)], 1)):
        with pytest.raises(AssertionError, match="walked a 2 x 2 basis"):
            count_in_box(basis, (1.5, 1.5))
    assert count_in_box(LatticeBasis(np.eye(4)), (1.5,) * 4) == 80  # m = 4 walks as before


def refuse_pair_reductions(monkeypatch):
    """Make the integral LLL (`lattice._lll_integral`) and the exact walk
    (`lattice._ball_walk`) raise on 2 x 2 input and run any other as before."""
    for name in ("_lll_integral", "_ball_walk"):
        def guarded(c, *args, _fn=getattr(lattice, name), _name=name):
            if len(c) == 2:
                raise AssertionError(f"{_name} ran on a 2 x 2 basis")
            return _fn(c, *args)
        monkeypatch.setattr(lattice, name, guarded)


def test_n1_cells_decide_without_the_integral_lll(tmp_path, monkeypatch):
    refuse_pair_reductions(monkeypatch)
    assert_reproduces("correspondence.json", "correspondence.jsonl", None, tmp_path, monkeypatch)
    for k in range(0, 38, 3):
        for N in (2, 3, 10, 50):
            cell = correspondence_basis(DirichletQuery(
                phi=np.array([[Fraction(k, 37)]], dtype=object), N=N, mu=Fraction(1, 2)))
            for mu in (Fraction(1, 2), Fraction(9, 10), Fraction(37, 50)):
                want, _ = exact_walk_reference.in_kmu(cell, mu)
                assert in_kmu(cell, mu) is want
                assert in_mahler_compact(cell, mu) is want
    # the guard holds: a box count of the same cell still runs the integral LLL
    with pytest.raises(AssertionError, match="_lll_integral ran on a 2 x 2 basis"):
        count_in_box(cell, (Fraction(1, 2),) * 2)
    assert count_in_box(LatticeBasis.from_integral([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1),
                        (Fraction(3, 2),) * 3) == 26  # m = 3 reduces and walks as before
