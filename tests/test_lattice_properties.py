"""Property tests of the lattice core against naive references.

Bases are random unimodular matrices, built exactly as a rational
unit-lower-triangular matrix times a rational diagonal of determinant 1
times integer column operations, and used in both scalar modes. The
references are deliberately naive: LLL that recomputes Gram-Schmidt in full
after every step, and a walk of the whole coefficient box that the inverse
of the reduced basis bounds.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from danilab import (LatticeBasis, count_in_box, in_kmu, reduce,
                     shortest_supnorm)
from danilab import _linalg, lattice

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
DIAGONAL = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=4)
HALFWIDTH = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(5, 4), max_denominator=16)
MU = st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16)
MAX_BOX = 40_000


@st.composite
def unimodular_rows(draw):
    m = draw(st.sampled_from((2, 4, 6)))
    diag = [draw(st.sampled_from(DIAGONAL)) for _ in range(m - 1)]
    diag.append(1 / math.prod(diag))
    rows = [[(draw(ENTRY) if j < i else Fraction(int(i == j))) * diag[j] for j in range(m)]
            for i in range(m)]
    for _ in range(draw(st.integers(0, 2 * m))):
        src, dst = draw(st.permutations(range(m)))[:2]
        q = draw(st.integers(-2, 2))
        for row in rows:
            row[dst] += q * row[src]
    return rows


def as_basis(rows, exact: bool) -> LatticeBasis:
    if exact:
        return LatticeBasis.from_rational(rows)
    return LatticeBasis(np.array(rows, dtype=float))


def columns(basis: LatticeBasis):
    m = basis.m
    scalar = Fraction if basis.exact else float
    return [[scalar(basis.cols[i, j]) for i in range(m)] for j in range(m)]


def full_gram_schmidt(b):
    mu = [[0] * len(b) for _ in b]
    bstar, norms = [], []
    for i, col in enumerate(b):
        v = list(col)
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(col, bstar[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def reference_lll(b, delta=Fraction(99, 100)):
    """Textbook LLL on columns with Gram-Schmidt recomputed after every
    change; returns (reduced columns, transform columns)."""
    m = len(b)
    b = [list(col) for col in b]
    u = [[int(i == j) for i in range(m)] for j in range(m)]
    mu, norms = full_gram_schmidt(b)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mu, norms = full_gram_schmidt(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            mu, norms = full_gram_schmidt(b)
            k = max(k - 1, 1)
    return b, u


def box_walk(basis: LatticeBasis, weights):
    """(reduced coefficients, vector) for every lattice vector whose
    coefficients c = B^-1 v satisfy |c_i| <= sum_j |B^-1_ij| w_j, one per
    +-v pair, B the reduced basis; covers every v with |v_j| <= w_j."""
    red, transform = reduce(basis)
    exact = basis.exact
    inv = _linalg.inv(red.cols)
    bounds = []
    for row in inv:
        s = sum(abs(x) * w for x, w in zip(row, weights))
        bounds.append(int(s) if exact else int(math.floor(s * (1 + 1e-12) + 1e-12)))
    assume(math.prod(2 * k + 1 for k in bounds) <= MAX_BOX)
    cols = columns(red)
    for c in itertools.product(*(range(-k, k + 1) for k in bounds)):
        lead = next((x for x in c if x), 0)
        if lead <= 0:
            continue
        v = [0] * basis.m
        for cj, col in zip(c, cols):
            if cj:
                for i in range(basis.m):
                    v[i] += cj * col[i]
        yield c, v


def oracle_count(basis, w):
    return 2 * sum(all(abs(x) <= wx for x, wx in zip(v, w)) for _, v in box_walk(basis, w))


def oracle_shortest(basis):
    """(length, sign-normalized input coefficients of the minimizer that
    is lexicographically smallest)."""
    red, transform = reduce(basis)
    bound = min(max(abs(x) for x in col) for col in columns(red))
    found = [(max(abs(x) for x in v), c) for c, v in box_walk(basis, [bound] * basis.m)]
    length = min(f[0] for f in found)
    originals = []
    for f_len, c in found:
        if f_len == length:
            oc = [sum(int(transform[i, j]) * c[j] for j in range(basis.m)) for i in range(basis.m)]
            if next(x for x in oc if x) < 0:
                oc = [-x for x in oc]
            originals.append(tuple(oc))
    return length, min(originals)


def oracle_in_kmu(basis, mu):
    return not any(max(abs(x) for x in v) < mu for _, v in box_walk(basis, [mu] * basis.m))


@SETTINGS
@given(unimodular_rows(), st.booleans())
def test_reduce_is_lll_reduced_and_audited(rows, exact):
    basis = as_basis(rows, exact)
    red, transform = reduce(basis)
    assert transform.dtype == (object if exact else np.int64)
    assert abs(round(np.linalg.det(transform.astype(float)))) == 1
    mu, norms = full_gram_schmidt(columns(red))
    tol = 0 if exact else 1e-9
    for k in range(1, basis.m):
        assert all(abs(x) <= Fraction(1, 2) + tol for x in mu[k][:k])
        assert norms[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1] - tol
    if exact:
        assert all(isinstance(x, int) for x in transform.ravel())
        assert np.array_equal(basis.cols @ transform, red.cols)
    else:
        assert np.allclose(basis.cols @ transform, red.cols, atol=1e-9)


@SETTINGS
@given(unimodular_rows())
def test_exact_reduce_matches_full_recompute_reference(rows):
    basis = as_basis(rows, exact=True)
    red, transform = reduce(basis)
    ref_cols, ref_u = reference_lll(columns(basis))
    assert columns(red) == ref_cols
    assert [[transform[i, j] for i in range(basis.m)] for j in range(basis.m)] == ref_u


@SETTINGS
@given(unimodular_rows())
def test_exact_reduce_at_other_delta_matches_reference(rows):
    basis = as_basis(rows, exact=True)
    red, transform = reduce(basis, delta=0.75)
    ref_cols, ref_u = reference_lll(columns(basis), Fraction(3, 4))
    assert columns(red) == ref_cols
    assert [[transform[i, j] for i in range(basis.m)] for j in range(basis.m)] == ref_u


@SETTINGS
@given(unimodular_rows())
def test_exact_lll_gram_data_is_that_of_the_reduced_columns(rows):
    # The exact ball walk prunes on these values: a stale row would
    # mis-prune without raising.
    b, _, mu, norms = lattice._lll(columns(as_basis(rows, exact=True)), True)
    ref_mu, ref_norms = full_gram_schmidt(b)
    assert all(isinstance(x, Fraction) for col in b for x in col)
    assert [row[:i] for i, row in enumerate(mu)] == [row[:i] for i, row in enumerate(ref_mu)]
    assert norms == ref_norms


@SETTINGS
@given(unimodular_rows(), st.booleans(), st.data())
def test_queries_match_box_oracle(rows, exact, data):
    basis = as_basis(rows, exact)
    scalar = Fraction if exact else float
    w = [scalar(data.draw(HALFWIDTH)) for _ in range(basis.m)]
    mu = scalar(data.draw(MU))
    assert count_in_box(basis, w) == oracle_count(basis, w)
    assert in_kmu(basis, mu) == oracle_in_kmu(basis, mu)
    res = shortest_supnorm(basis)
    length, coeffs = oracle_shortest(basis)
    assert tuple(res.coeffs) == coeffs
    assert res.length == (length if exact else pytest.approx(length, rel=1e-12))


@SETTINGS
@given(unimodular_rows(), st.data())
def test_counts_invariant_under_recombination(rows, data):
    m = len(rows)
    w = [data.draw(HALFWIDTH) for _ in range(m)]
    recombined = [row[:] for row in rows]
    for _ in range(data.draw(st.integers(1, 2 * m))):
        src, dst = data.draw(st.permutations(range(m)))[:2]
        q = data.draw(st.integers(-3, 3))
        for row in recombined:
            row[dst] += q * row[src]
    count = count_in_box(as_basis(rows, True), w)
    assert count_in_box(as_basis(recombined, True), w) == count
    # The float mode must give the exact count wherever no lattice vector sits
    # within a relative 1e-9 of the box boundary.
    near = [[x * (1 + s * Fraction(1, 10**9)) for x in w] for s in (-1, 1)]
    assume(count_in_box(as_basis(rows, True), near[0])
           == count_in_box(as_basis(rows, True), near[1]))
    fw = [float(x) for x in w]
    assert count_in_box(as_basis(rows, False), fw) == count
    assert count_in_box(as_basis(recombined, False), fw) == count
