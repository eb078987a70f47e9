"""Property tests of the lattice core against naive references.

Bases are random unimodular matrices, built exactly as a rational
unit-lower-triangular matrix times a rational diagonal of determinant 1
times integer column operations, and used in both scalar modes, plus exact
correspondence bases a_log N u(k/37) whose lattices have vectors on the
boundary of the mu-box. The references are deliberately naive: LLL that
recomputes Gram-Schmidt in full after every step, and a walk of the whole
coefficient box that the inverse of the reduced basis bounds. The compiled
stack LLL is held to the scalar float LLL bit for bit, and the integral
LLL, which updates its Gram rows on a swap, to the same loop
recomputing them. The float walk, the one float enumerator, is held to the
depth-first float walk each basis ran alone before (`ball_walk_reference`):
the Python walk of one lane `_walk_lane` leaf for leaf, and both it and
the compiled walk with equal box counts, ball tests, shortest vectors and
dropped lanes on every lane, bit for bit. At n = 1 the shortest vector is
also held to continued fractions (`cf_reference`), which use no LLL and no
walk. At n = 2 and 3, the orbit lattices of the rank-1 curve s I, direct
sums of the n = 1 line's lattice, are held to that line plane by plane.
The exact 2 x 2 ball test, which reduces its pair by Lagrange-Gauss, is
held to the walk on pairs that the LLL returns with ||b1|| < ||b0|| and on
skewed pairs with entries near 10^40.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from danilab import (DirichletQuery, LatticeBasis, MatrixPolyCurve, Sampler,
                     correspondence_basis, correspondence_row, count_in_box, in_kmu,
                     in_mahler_compact, orbit_points, reduce, shortest_supnorm,
                     siegel_average, u_embed)
import ball_walk_reference
import cf_reference
import exact_walk_reference
import integral_lll_reference
from danilab import _linalg, lattice
from danilab.errors import DegenerateInputError, InternalIdentityError
from integral_lll_reference import reference_lll_integral

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
    assert red.exact and red.cols.dtype == object and not red.cols.flags.writeable
    assert all(type(x) is Fraction for x in red.cols.ravel())
    assert all(type(x) is int for x in transform.ravel())


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
    # mis-prune without raising. lam[i][j] = d[j+1] mu[i][j] and
    # norms[i] = d[i+1] / d[i] on the integer columns, den times the lattice.
    basis = as_basis(rows, exact=True)
    c, _, lam, d = lattice._lll_integral(list(basis.int_cols), Fraction(99, 100))
    assert all(type(x) is int for col in c for x in col)
    assert all(type(x) is int for row in lam for x in row) and all(type(x) is int for x in d)
    m, den = basis.m, basis.den
    ref_mu, ref_norms = full_gram_schmidt([[Fraction(x, den) for x in col] for col in c])
    assert ([[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(m)]
            == [row[:i] for i, row in enumerate(ref_mu)])
    assert [Fraction(d[i + 1], d[i] * den * den) for i in range(m)] == ref_norms


def assert_integral_lll_matches_recompute_reference(int_cols, delta=Fraction(99, 100)):
    got = lattice._lll_integral(list(int_cols), delta)
    c, u, lam, d = reference_lll_integral(list(int_cols), delta)
    assert got == ([tuple(col) for col in c], u, lam, d)  # the kernel's columns are tuples
    c, u, lam, d = got
    assert all(type(x) is int for part in (c, u, lam, [d]) for row in part for x in row)


@settings(SETTINGS, max_examples=300)
@given(unimodular_rows(), st.sampled_from((Fraction(99, 100), Fraction(3, 4))))
def test_integral_lll_swap_update_matches_recompute_reference(rows, delta):
    # Columns, transforms, lam and d, entry for entry: the exact swap update
    # gives the Gram data a recomputation gives, so every step is the same.
    assert_integral_lll_matches_recompute_reference(as_basis(rows, exact=True).int_cols, delta)


def test_integral_lll_swap_update_matches_reference_on_correspondence_bases():
    for k in range(38):
        for N in range(2, 51):
            basis = correspondence_lattice([k], 1, N, Fraction(1, 2))
            assert_integral_lll_matches_recompute_reference(basis.int_cols)
    rng = np.random.default_rng(7)
    for n, N_max in ((2, 21), (3, 5)):
        for _ in range(40):
            k = rng.integers(-37, 38, size=n * n).tolist()
            basis = correspondence_lattice(k, n, int(rng.integers(2, N_max + 1)), Fraction(9, 10))
            assert_integral_lll_matches_recompute_reference(basis.int_cols)


def test_integral_lll_computes_each_gram_row_once(monkeypatch):
    # The generic loop (`integral_lll_reference.lll_integral`) computes each
    # Gram row once, where the recompute reference recomputes rows after its
    # swaps. The kernel takes the loop's steps, and its text computes row k
    # in branch k alone, the first time the stage index reaches k.
    rows = []
    gram_row = integral_lll_reference._gram_row
    monkeypatch.setattr(integral_lll_reference, "_gram_row", lambda c, lam, d, i:
                        rows.append(i) or gram_row(c, lam, d, i))
    bases = [correspondence_lattice([k], 1, 50, Fraction(1, 2)) for k in range(38)]
    bases += [correspondence_lattice(k, 2, 21, Fraction(9, 10))
              for k in ([5, -3, 11, 2], [36, 1, -17, 8], [0, 0, 0, 0])]
    bases.append(correspondence_lattice([3, 1, 4, 1, 5, 9, 2, 6, 5], 3, 4, Fraction(9, 10)))
    swapped = 0
    for basis in bases:
        rows.clear()
        c, u, lam, d = integral_lll_reference.lll_integral(list(basis.int_cols), Fraction(99, 100))
        assert rows == list(range(basis.m))
        assert lattice._lll_integral(list(basis.int_cols), Fraction(99, 100)) == (
            [tuple(col) for col in c], u, lam, d)
        rows.clear()
        reference_lll_integral(list(basis.int_cols), Fraction(99, 100))
        swapped += len(rows) > basis.m
    assert swapped >= len(bases) // 2  # the reference recomputes rows after its swaps
    for m in (2, 3, 6):
        text = lattice._lll_integral_source(m)
        assert [line.strip() for line in text.splitlines()
                if line.split()[:2] == ["fresh", "="]] == [
            "fresh = 1", *(f"fresh = {k + 1}" for k in range(1, m))]
        assert all(text.count(f"if fresh == {k}:") == 1 for k in range(1, m))


@SETTINGS
@given(unimodular_rows(), st.booleans(), st.data())
def test_queries_match_box_oracle(rows, exact, data):
    basis = as_basis(rows, exact)
    scalar = Fraction if exact else float
    w = [scalar(data.draw(HALFWIDTH)) for _ in range(basis.m)]
    mu = scalar(data.draw(MU))
    assert count_in_box(basis, w) == oracle_count(basis, w)
    assert in_kmu(basis, mu) == oracle_in_kmu(basis, mu)
    assert in_mahler_compact(basis, mu) == oracle_in_kmu(basis, mu)
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


def k_phi(k, n):
    """phi[i][j] = k_ij / 37, exactly."""
    phi = np.empty((n, n), dtype=object)
    for idx, x in enumerate(k):
        phi[idx // n, idx % n] = Fraction(x, 37)
    return phi


def correspondence_lattice(k, n, N, mu):
    """The exact correspondence basis at phi = k / 37 (phi[i][j] = k_ij / 37)."""
    return correspondence_basis(DirichletQuery(phi=k_phi(k, n), N=N, mu=mu))


@st.composite
def boundary_rows(draw):
    """(phi, Ns, mu) with mu N an integer at every scale N, so p = mu N puts
    the vector (N (phi p - q), p / N) on the sup-norm sphere of radius mu
    whenever its top block is no larger."""
    n = draw(st.sampled_from((1, 1, 2)))
    mu = draw(st.sampled_from((Fraction(1, 2), Fraction(9, 10), Fraction(3, 4), Fraction(2, 3))))
    Ns = draw(st.lists(st.integers(1, 8 if n == 1 else 2).map(lambda j: mu.denominator * j),
                       min_size=1, max_size=3))
    k = [draw(st.integers(0, 37)) for _ in range(n * n)]
    return k_phi(k, n), Ns, mu


@SETTINGS
@given(boundary_rows())
def test_exact_queries_on_correspondence_bases_match_box_oracle(row):
    phi, Ns, mu = row
    bases = [correspondence_basis(DirichletQuery(phi=phi, N=N, mu=mu)) for N in Ns]
    # every cell of the row decides K_mu on its own integer columns
    for cell, basis in zip(correspondence_row(phi, Ns, mu), bases):
        assert cell["in_kmu"] == oracle_in_kmu(basis, mu)
    basis = bases[0]
    w = [mu] * basis.m
    assert in_kmu(basis, mu) == oracle_in_kmu(basis, mu)
    assert in_mahler_compact(basis, mu) == oracle_in_kmu(basis, mu)
    assert count_in_box(basis, w) == oracle_count(basis, w)
    res = shortest_supnorm(basis)
    length, coeffs = oracle_shortest(basis)
    assert tuple(res.coeffs) == coeffs and res.length == length
    assert type(res.length) is Fraction and all(type(x) is Fraction for x in res.vector)


def test_boundary_cells_put_vectors_on_the_mu_sphere():
    # phi = 0, N = 2, mu = 1/2: (p, q) = (e_i, 0) gives the vector (0, e_i / 2),
    # on the closed box of radius 1/2 but outside the open ball.
    half = Fraction(1, 2)
    for n in (1, 2):
        basis = correspondence_lattice([0] * n * n, n, 2, half)
        assert shortest_supnorm(basis).length == half
        assert in_kmu(basis, half) and not in_kmu(basis, Fraction(51, 100))
        assert count_in_box(basis, [half] * 2 * n) == 3 ** n - 1
    # phi = 5/37, N = 20: (p, q) = (15, 2) gives (20/37, 3/4), inside the 9/10-ball.
    assert not in_kmu(correspondence_lattice([5], 1, 20, Fraction(9, 10)), Fraction(9, 10))


@SETTINGS
@given(unimodular_rows(), st.data())
def test_exact_queries_accept_float_bounds_exactly(rows, data):
    basis = as_basis(rows, exact=True)
    mu = data.draw(MU)
    w = [data.draw(HALFWIDTH) for _ in range(basis.m)]
    assert in_kmu(basis, float(mu)) == oracle_in_kmu(basis, Fraction(float(mu)))
    assert (count_in_box(basis, [float(x) for x in w])
            == oracle_count(basis, [Fraction(float(x)) for x in w]))


def test_exact_in_kmu_never_builds_the_fraction_columns(monkeypatch):
    bases = [correspondence_lattice([k], 1, N, Fraction(9, 10)) for k in (0, 5, 36)
             for N in (10, 20, 50)]
    bases.append(correspondence_lattice([3, 7, 11, 30], 2, 10, Fraction(1, 2)))

    def refuse(self):
        raise AssertionError("the Fraction view of an exact basis was built")

    monkeypatch.setattr(LatticeBasis, "cols", property(refuse))
    for basis in bases:
        assert basis.exact and all(type(x) is int for col in basis.int_cols for x in col)
        in_kmu(basis, Fraction(9, 10))
        in_mahler_compact(basis, Fraction(1, 3))
        count_in_box(basis, [Fraction(1, 2)] * basis.m)
        shortest_supnorm(basis)


def test_exact_basis_derives_its_fraction_columns_once():
    basis = LatticeBasis.from_integral([(4, 0), (2, 1)], 2)
    assert basis.den == 2 and basis.int_cols == ((4, 0), (2, 1))
    cols = basis.cols
    assert cols is basis.cols and not cols.flags.writeable
    assert cols.tolist() == [[2, 1], [0, Fraction(1, 2)]]
    assert all(type(x) is Fraction for x in cols.ravel())
    with pytest.raises(AttributeError):
        basis.den = 1
    same = LatticeBasis.from_rational([[2, 1], [0, "1/2"]])
    assert same.int_cols == basis.int_cols and same.den == basis.den
    with pytest.raises(lattice.InvariantError):
        LatticeBasis.from_integral([(4, 0), (2, 2)], 2)


def lane_bytes(b, mu, norms):
    """One lane's reduction (columns, the whole mu matrix, norms) as bytes,
    so that equal reductions are bit-identical (signed zeros included)."""
    return [np.array(x, dtype=float).tobytes() for x in (b, mu, norms)]


def scalar_lll_bytes(cols, delta=lattice._DELTA):
    """`lane_bytes` of `_lll`'s reduction of the m x m float basis cols."""
    b, _, mu, norms = lattice._lll(lattice._float_columns(cols), delta)
    return lane_bytes(b, mu, norms)


def compiled_lanes(reduce_stack, stack, delta=lattice._DELTA):
    """Per lane of the compiled stack LLL's reduction of the stack: its
    `lane_bytes`, or None where its status is nonzero; with the lowest lane
    it reports."""
    b, _, mu, norms, status, first = reduce_stack(np.asarray(stack, dtype=float), delta,
                                                  lattice._MAX_LLL_STEPS)
    return [None if status[i] else lane_bytes(b[i], mu[i], norms[i])
            for i in range(len(status))], first


def assert_lanes_match_scalar_lll(reduce_stack, stack):
    got, first = compiled_lanes(reduce_stack, stack)
    assert first == -1
    assert got == [scalar_lll_bytes(cols) for cols in stack]


@st.composite
def orbit_stacks(draw):
    """Orbit bases a_t [z(s)] u(phi(s)) at n = 1, t in [0, 16], for a
    quadratic phi with phi' > 0 on [1, 2], raw or normalized, optionally
    translated by u(1)."""
    coeffs = [[[draw(st.floats(-1, 1))]], [[draw(st.floats(0.5, 1.5))]],
              [[draw(st.floats(0, 0.25))]]]
    curve = MatrixPolyCurve.from_coeffs(coeffs, (1.0, 2.0))
    s = draw(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=24))
    stack = orbit_points(curve, s, draw(st.floats(0.0, 16.0)), normalize=draw(st.booleans()))
    return u_embed(np.eye(1)).entries @ stack if draw(st.booleans()) else stack


@st.composite
def unimodular_float_pairs(draw):
    """Float 2 x 2 matrices of det +-1 (up to rounding), from a random
    matrix scaled by sqrt|det| and sheared by diag(e^x, e^-x)."""
    entry = st.floats(-4, 4)
    mats = []
    for _ in range(draw(st.integers(1, 12))):
        a = np.array([[draw(entry), draw(entry)], [draw(entry), draw(entry)]])
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assume(abs(d) > 1e-3)
        x = draw(st.floats(-8, 8))
        mats.append(a / math.sqrt(abs(d)) @ np.diag([math.exp(x), math.exp(-x)]))
    return np.array(mats)


@SETTINGS
@given(orbit_stacks())
def test_batched_lll_matches_scalar_lll_on_orbit_stacks(compiled_lll, stack):
    assert_lanes_match_scalar_lll(compiled_lll, stack)


@SETTINGS
@given(unimodular_float_pairs())
def test_batched_lll_matches_scalar_lll_on_random_pairs(compiled_lll, stack):
    assert_lanes_match_scalar_lll(compiled_lll, stack)


# Columns b0, b1 as the columns of each matrix. -I puts -0.0 into both
# products of <b1, b0>; the others keep a -0.0 entry of b1 (or b0) where a
# size-reduction step with q = 0 would meet a negative entry of b0.
SIGNED_ZERO_LANES = [
    [[-1.0, 0.0], [0.0, -1.0]],
    [[-1.0, -0.0], [-0.0, -1.0]],
    [[-1.0, -0.0], [0.25, 1.0]],
    [[-1.0, -0.0], [-0.25, -1.0]],
    [[-0.0, -1.0], [1.0, -0.25]],
    [[2.0, -0.0], [-0.5, 0.5]],
]


# mu = <b1, b0> / <b0, b0> = +-0.5 and +-2.5: round() goes half to even.
TIE_LANES = [[[2.0, x], [0.0, 0.5]] for x in (1.0, -1.0, 5.0, -5.0)]


def test_batched_lll_keeps_signed_zeros_and_ties_as_scalar_lll(compiled_lll):
    assert_lanes_match_scalar_lll(compiled_lll, SIGNED_ZERO_LANES + TIE_LANES)


def fibonacci_lane(k):
    """Columns (F_{k+1}, F_k) and (F_k, F_{k-1}), det +-1 (Cassini): a pair
    whose reduction takes k / 2 swaps, k / 2 + 1 stages, at even k."""
    f = [0, 1]
    while len(f) < k + 2:
        f.append(f[-1] + f[-2])
    return [[float(f[k + 1]), float(f[k])], [float(f[k]), float(f[k - 1])]]


def test_batched_lll_on_a_stack_mixing_short_and_long_reductions(compiled_lll, monkeypatch):
    stack = np.array([np.eye(2), fibonacci_lane(20), [[1.0, 0.25], [0.0, 1.0]],
                      fibonacci_lane(18), [[0.0, 1.0], [-1.0, 0.0]], fibonacci_lane(14)])
    assert_lanes_match_scalar_lll(compiled_lll, stack)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 8)  # 7 swaps pass, 8 or more fail
    fails = []
    for i, cols in enumerate(stack):
        try:
            lattice._lll(lattice._float_columns(cols))
        except InternalIdentityError:
            fails.append(i)
    assert fails == [1, 3]
    got, first = compiled_lanes(compiled_lll, stack)
    assert [i for i, lane in enumerate(got) if lane is None] == [1, 3] and first == 1
    with pytest.raises(InternalIdentityError, match="terminate") as info:
        lattice._checked_stack(stack).reduced()
    assert info.value.sample_index == 1
    assert_lanes_match_scalar_lll(compiled_lll, stack[[0, 2, 4, 5]])


def test_batched_lll_reduces_wide_transform_lanes_without_scalar_lll(compiled_lll,
                                                                    monkeypatch):
    # mu = 2^60 at the first stage: the transform leaves the range where
    # doubles hold integers exactly, but the reduced pair never reads it.
    lane = [[2.0 ** -40, 2.0 ** 20], [0.0, 2.0 ** 40]]
    want = [scalar_lll_bytes(lane), scalar_lll_bytes(np.eye(2))]

    def refuse(*args):
        raise AssertionError("the batched LLL ran the scalar LLL")

    monkeypatch.setattr(lattice, "_lll", refuse)
    basis, _ = LatticeBasis.batch(np.array([lane, np.eye(2)]))
    assert not in_kmu(basis, 0.5)  # the first ball query reduces the stack
    assert stack_rows(basis._stack) == want


def stack_rows(stack):
    """A stack's reductions, lane by lane, as `lane_bytes`."""
    return [lane_bytes(*lane) for lane in zip(*stack.reduced())]


# Hand lanes for the stack walk at m = 2: a column exactly on the face of the
# box (0.9, 0.9), a column exactly on the sphere of sup-norm 0.7, a lane whose
# boxes hold hundreds of nodes of its ball, and a lane with a size-reduction
# quotient of 2^60, past the range
# where doubles hold every integer, which the stack walk decides on its
# reduced pair like any other. Then a vector on the corner of the box (0.9, 0.6), whose float
# length exceeds the squared radius 0.9^2 + 0.6^2 so that only the slack
# keeps it, and a reduced pair with mu = 1/2 exactly: under c1 = 1 its center
# -1/2 is a tie, and in the box (3.9, 1.3) its leaf x = -4 lies one step past
# the naive window |x - round(ctr)| <= floor(sqrt(limit / n0)) = 3.
BOX_FACE_LANE = [[0.9, 0.0], [0.0, 1 / 0.9]]
MU_SPHERE_LANE = [[0.7, 0.0], [0.0, 1 / 0.7]]
MANY_NODES_LANE = [[0.0039, 0.0], [0.0, 1 / 0.0039]]
WIDE_LANE = [[1.0, 2.0 ** 60], [0.0, 1.0]]  # Z^2, with a size-reduction quotient 2^60
BOX_CORNER_LANE = [[0.9, 0.0], [0.6, 1 / 0.9]]
HALF_MU_LANE = [[1 / math.sqrt(0.9), 0.5 / math.sqrt(0.9)], [0.0, math.sqrt(0.9)]]
HAND_LANES = ([BOX_FACE_LANE, MU_SPHERE_LANE, MANY_NODES_LANE, WIDE_LANE, BOX_CORNER_LANE,
               HALF_MU_LANE] + SIGNED_ZERO_LANES + TIE_LANES)
GRID_BOXES = ((0.9, 0.9), (0.3, 2.5), (2.0, 2.0), (3.9, 1.3), (0.9, 0.6))
GRID_BOUNDS = (0.05, 0.5, 0.7)


def grouped_and_unbatched_answers(stack):
    """Per lane: the box counts, K_mu tests and Mahler-compact tests on the
    stack's bases (decided for the whole stack at once), then the shortest
    vector (its bytes, length and coefficient bytes), and the same on an
    unbatched basis of the lane's columns, the one lane of its own stack."""
    grouped = LatticeBasis.batch(np.array(stack, dtype=float))
    unbatched = [LatticeBasis(np.array(cols, dtype=float)) for cols in stack]

    def answers(basis):
        short = shortest_supnorm(basis)
        return ([count_in_box(basis, box) for box in GRID_BOXES]
                + [in_kmu(basis, mu) for mu in GRID_BOUNDS]
                + [in_mahler_compact(basis, eps) for eps in GRID_BOUNDS]
                + [short.vector.tobytes(), short.length, short.coeffs.tobytes()])

    return [answers(b) for b in grouped], [answers(b) for b in unbatched], grouped


def test_grouped_queries_on_hand_lanes():
    got, want, grouped = grouped_and_unbatched_answers(HAND_LANES)
    assert got == want
    face, sphere, many, wide, corner, half_mu = range(6)
    assert got[face][0] == 2  # +-(0.9, 0) on the face of the box (0.9, 0.9)
    assert got[sphere][len(GRID_BOXES) + GRID_BOUNDS.index(0.7)] is True  # not below 0.7
    assert got[corner][GRID_BOXES.index((0.9, 0.6))] == 4  # +-(0.9, 0) and +-(0.9, 0.6)
    assert grouped[half_mu]._stack.reduced()[1][half_mu, 1, 0] == 0.5  # mu[1][0]
    # the stack walk answered every lane of every query, the lane with many
    # nodes included, as the depth-first walk of the lane alone does
    answers = grouped[0]._stack._answers
    assert set(answers) == {*(("box", *box) for box in GRID_BOXES),
                            *(("ball", r) for r in GRID_BOUNDS), "shortest"}
    assert not any(isinstance(x, Exception) for lane in answers.values() for x in lane)
    alone = LatticeBasis(np.array(MANY_NODES_LANE))
    assert [got[many][k] for k in range(len(GRID_BOXES))] == [
        ball_walk_reference.count_in_box(alone, box) for box in GRID_BOXES]
    assert got[many][GRID_BOXES.index((2.0, 2.0))] > 256


# The stack walk at m = 4 and 6: every box count and ball test on a stack
# basis equals the walk of an unbatched basis of the same columns.
WIDE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])
WIDE_BOUNDS = (0.05, 0.5, 0.7)


def wide_boxes(m):
    return ((0.9,) * m, (0.5,) * (m - 1) + (1.4,), tuple(0.3 + 0.15 * i for i in range(m)))


def assert_stack_answers_match_unbatched(stack, boxes, bounds=WIDE_BOUNDS):
    stack = np.array(stack, dtype=float)
    batched = LatticeBasis.batch(stack)
    unbatched = [LatticeBasis(cols) for cols in stack]

    def answers(basis):
        return ([count_in_box(basis, box) for box in boxes]
                + [in_kmu(basis, mu) for mu in bounds]
                + [in_mahler_compact(basis, eps) for eps in bounds])

    got = [[(type(x), x) for x in answers(b)] for b in batched]
    assert got == [[(type(x), x) for x in answers(b)] for b in unbatched]


@st.composite
def wide_orbit_stacks(draw):
    """Orbit bases a_t [z(s)] u(phi(s)) at n = 2 or 3, t in [0, 8], for a
    linear phi whose derivative is diagonally dominant, raw or normalized,
    optionally translated by u(1)."""
    n = draw(st.integers(2, 3))
    entry = st.floats(-1, 1)
    coeffs = [[[draw(entry) for _ in range(n)] for _ in range(n)],
              [[(1.0 if i == j else 0.0) + draw(entry) / (2 * n) for j in range(n)]
               for i in range(n)]]
    curve = MatrixPolyCurve.from_coeffs(coeffs, (1.0, 2.0))
    s = draw(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=6))
    stack = orbit_points(curve, s, draw(st.floats(0.0, 8.0)), normalize=draw(st.booleans()))
    return u_embed(np.eye(n)).entries @ stack if draw(st.booleans()) else stack


@st.composite
def unimodular_float_stacks(draw):
    """Float m x m matrices (m = 4 or 6) of det +-1 up to rounding: a random
    matrix scaled by |det|^(1/m) and sheared by a diagonal of det 1."""
    m = draw(st.sampled_from((4, 6)))
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        a = np.array([[draw(st.floats(-4, 4)) for _ in range(m)] for _ in range(m)])
        d = np.linalg.det(a)
        assume(abs(d) > 1e-2)
        x = np.array([draw(st.floats(-2, 2)) for _ in range(m)])
        mats.append(a / abs(d) ** (1 / m) @ np.diag(np.exp(x - x.mean())))
    stack = np.array(mats)
    assume(np.all(np.abs(np.abs(np.linalg.det(stack)) - 1) <= lattice.UNIMODULAR_TOL))
    return stack


@WIDE_SETTINGS
@given(wide_orbit_stacks(), st.floats(0.05, 0.99))
def test_stack_walk_matches_unbatched_on_wide_orbit_stacks(stack, mu):
    assert_stack_answers_match_unbatched(stack, wide_boxes(stack.shape[1]),
                                         WIDE_BOUNDS + (mu,))


@WIDE_SETTINGS
@given(unimodular_float_stacks(), st.floats(0.05, 0.99))
def test_stack_walk_matches_unbatched_on_random_wide_stacks(stack, mu):
    assert_stack_answers_match_unbatched(stack, wide_boxes(stack.shape[1]),
                                         WIDE_BOUNDS + (mu,))


def block_lanes(m):
    """m x m lanes built from the m = 2 hand lanes: block diagonals of two of
    them, with +0.0 or -0.0 off the blocks, so that the walk meets signed
    zeros, ties and faces at every level."""
    lanes = SIGNED_ZERO_LANES + TIE_LANES + [BOX_FACE_LANE, MU_SPHERE_LANE, HALF_MU_LANE]
    out = []
    for k, lane in enumerate(lanes):
        mat = np.full((m, m), -0.0 if k % 2 else 0.0)
        for i in range(0, m, 2):
            mat[i:i + 2, i:i + 2] = lanes[(k + i // 2) % len(lanes)]
        out.append(mat)
    return out


@pytest.mark.parametrize("m", [4, 6])
def test_stack_walk_on_signed_zero_tie_and_face_lanes(m, monkeypatch):
    lanes = block_lanes(m)
    boxes = wide_boxes(m) + ((0.9,) * (m - 2) + (0.6, 0.9),)
    assert_stack_answers_match_unbatched(lanes, boxes)
    # the box (0.9, ...) holds +-(0.9, 0, ...) of the box-face lane on its face
    face = next(k for k, x in enumerate(lanes) if x[0, 0] == 0.9 and x[1, 1] == 1 / 0.9)
    assert count_in_box(LatticeBasis.batch(np.array(lanes))[face], (0.9,) * m) >= 2
    # the compiled library, where it is in use, answers every query as
    # `_lll` and `_walk_lane` do
    def answers():
        return [query_answers(basis, boxes, WIDE_BOUNDS, STACK_QUERIES)
                for basis in LatticeBasis.batch(np.array(lanes))]

    want = answers()
    monkeypatch.setattr(lattice, "_COMPILED", (None, "python: switched off by a test"))
    assert answers() == want


def generic_curve(n):
    """phi(s) = A + (I + A^T / 4) s on [1, 2], with the entries of A spread
    by the golden ratio: no rational relation makes its orbit lattices
    degenerate."""
    a = np.array([[((3 * i + 5 * j + 1) * 0.618034) % 1 - 0.5 for j in range(n)]
                  for i in range(n)])
    return MatrixPolyCurve.from_coeffs([a, np.eye(n) + 0.25 * a.T], (1.0, 2.0))


def walk_leaves(b, mu, norms, r2):
    """Per lane of the reductions (b, mu, norms): the sorted (coefficients,
    vector bytes) of the leaves that `lattice._walk_lane` yields for the
    squared radius r2 (one float or one per lane), none for a lane it drops,
    with the mask of the lanes it drops."""
    limit = np.broadcast_to(r2 * (1 + lattice._FLOAT_SLACK), len(b)).tolist()
    leaves, dropped = [], []
    for lane in range(len(b)):
        walk = lattice._walk_lane(b[lane].tolist(), mu[lane].tolist(), norms[lane].tolist(),
                                  limit[lane])
        try:
            leaves.append(sorted((tuple(map(int, c)), np.array(v, dtype=float).tobytes())
                                 for c, v in walk))
            dropped.append(False)
        except DegenerateInputError:
            leaves.append([])
            dropped.append(True)
    return leaves, np.array(dropped)


def stack_leaves(stack, r2):
    """`walk_leaves` of a `_Stack`'s reductions."""
    return walk_leaves(*stack.reduced(), r2)


def lane_leaves(b, mu, norms, r2):
    """The sorted (coefficients, vector bytes) of the depth-first float walk
    of one reduction (columns b, Gram data mu and norms) alone."""
    walk = ball_walk_reference._BallWalk(b, (mu, norms), r2)
    return sorted((c, np.array(v, dtype=float).tobytes()) for c, v in walk)


def reference_leaves(cols, r2):
    """`lane_leaves` of the basis's scalar float LLL reduction."""
    b, _, (mu, norms) = ball_walk_reference._prepare(LatticeBasis(np.array(cols, dtype=float)))
    return lane_leaves(b, mu, norms, r2)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_stack_walk_leaves_are_the_walks_bit_for_bit(m):
    # the skipped zero terms of the walk's sums are no-ops on signed zeros
    lanes = SIGNED_ZERO_LANES + TIE_LANES if m == 2 else block_lanes(m)
    stack = LatticeBasis.batch(np.array(lanes, dtype=float))[0]._stack
    radii = np.linspace(0.3, 2.0, len(lanes))  # one squared radius per lane
    for r2 in (0.3, 1.0, 2.0, radii):
        got, dropped = stack_leaves(stack, r2)
        assert not dropped.any()
        assert got == [reference_leaves(cols, float(np.broadcast_to(r2, len(lanes))[i]))
                       for i, cols in enumerate(lanes)]


def test_walk_window_reaches_a_leaf_past_the_rounded_radius():
    # at level 0 under c_1 = 1 the center is -0.5, whose round is 0, and
    # (limit - partial) / norm = 4.1 - 1.85 = 2.2499999999999996 in floats,
    # just under 1.5^2, so floor(sqrt(.) + 0.5) = 1; yet c_0 = -2 passes
    # the node test, 1.85 + 1.5^2 = 4.1 <= 4.1, and only the window's + 1
    # reaches it
    b, mu, norms = [[1.0, 0.0], [0.5, math.sqrt(1.85)]], [[0.0, 0.0], [0.5, 0.0]], [1.0, 1.85]
    r2 = 4.1 / (1 + lattice._FLOAT_SLACK)
    assert r2 * (1 + lattice._FLOAT_SLACK) == 4.1
    lane = [np.array([x]) for x in (b, mu, norms)]
    got, dropped = walk_leaves(*lane, r2)
    assert not dropped.any() and got == [lane_leaves(b, mu, norms, r2)]
    assert (-2, 1) in [c for c, _ in got[0]]
    library = lattice._compiled()
    for walk in {None, None if library is None else library.walk}:  # the box holds the ball
        assert lattice._walk_lanes(walk, *lane, r2, "box", np.array([2.1, 2.1])) == [len(got[0])]


# Factors of a lane's least norm: a squared radius below it skips the lane,
# one at or above it enters the lane (the walk's slack widens it further).
# None enters a lane by moving its least norm onto the limit itself.
SKIP_FACTORS, ENTER_FACTORS = (0.25, 0.9), (None, 1.0, 1.5, 3.0)


@st.composite
def skip_walks(draw, skip):
    """Reductions (b, mu, norms) of 1 to 6 float lanes at m = 2, 4 or 6, a
    squared radius (one float or one per lane) that skips every lane, some
    lanes or no lane, as `skip` says, with the mask of the lanes it skips;
    and the mask of the lanes given a zero or a nan norm afterwards (lanes
    the walk must enter and drop)."""
    m = draw(st.sampled_from((2, 4, 6)))
    lanes = draw(st.integers(2 if skip == "some" else 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = rng.standard_normal((lanes, m, m)) @ np.diag(np.exp(rng.uniform(-1.5, 1.5, m)))
    mats /= np.abs(np.linalg.det(mats))[:, None, None] ** (1 / m)
    assume(np.all(np.abs(np.abs(np.linalg.det(mats)) - 1) <= lattice.UNIMODULAR_TOL))
    b, mu, norms = (x.copy() for x in LatticeBasis.batch(mats)[0]._stack.reduced())
    least = norms.min(axis=1)
    if draw(st.booleans()):  # one radius per lane
        factors = {"every": [SKIP_FACTORS] * lanes, "none": [ENTER_FACTORS] * lanes,
                   "some": [SKIP_FACTORS, ENTER_FACTORS] + [SKIP_FACTORS + ENTER_FACTORS]
                   * (lanes - 2)}[skip]
        picks = [draw(st.sampled_from(f)) for f in factors]
        r2 = least * np.array([1.0 if f is None else f for f in picks])
        for lane in (i for i, f in enumerate(picks) if f is None):
            norms[lane, norms[lane].argmin()] = r2[lane] * (1 + lattice._FLOAT_SLACK)
    elif skip == "some":  # one radius between the least norms of two lanes
        lo, hi = sorted(draw(st.permutations(least.tolist()))[:2])
        assume(hi > 1.01 * lo)
        r2 = (lo + hi) / 2
    else:
        r2 = (least.min() * draw(st.sampled_from(SKIP_FACTORS)) if skip == "every"
              else least.max() * draw(st.sampled_from(ENTER_FACTORS[1:])))
    planned = np.all(norms > np.reshape(r2 * (1 + lattice._FLOAT_SLACK), (-1, 1)), axis=1)
    broken = np.zeros(lanes, dtype=bool)
    for lane in range(lanes):
        value = draw(st.sampled_from((None, None, 0.0, math.nan)))
        if value is not None:
            norms[lane, draw(st.integers(0, m - 1))] = value
            broken[lane] = True
    return b, mu, norms, r2, planned, broken


@pytest.mark.parametrize("skip", ["every", "some", "none"])
@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_stack_walk_skips_only_lanes_it_cannot_enter(skip, data):
    """The Python walk yields the leaves of the depth-first walk of each lane
    alone, drops the lanes with a zero or nan norm, which it enters, and
    enters no lane whose every norm exceeds its limit: such a lane's mu is
    nan here, which would drop it at level m - 2. The compiled walk, where
    the library is in use, and `_walk_lane` answer a box count, a ball test
    and the shortest vectors from those leaves, and drop the same lanes."""
    b, mu, norms, r2, planned, broken = data.draw(skip_walks(skip))
    assert {"every": planned.all(), "none": not planned.any(),
            "some": 0 < planned.sum() < len(b)}[skip]
    unread = mu.copy()
    unread[planned & ~broken] = math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        got, dropped = walk_leaves(b, unread, norms, r2)
    assert dropped.tolist() == broken.tolist()
    for i in range(len(b)):
        if broken[i]:
            assert got[i] == []
        else:
            assert got[i] == lane_leaves(b[i].tolist(), mu[i].tolist(), norms[i].tolist(),
                                         float(np.broadcast_to(r2, len(b))[i]))
            assert (got[i] == []) >= planned[i]
    m = b.shape[1]
    box, short = np.full(m, 0.6), np.sqrt(np.broadcast_to(r2, len(b)) / m)
    queries = (("box", box), ("ball", np.array([0.6])), ("shortest", short))
    want = {query: [None if broken[i] else leaf_answer(got[i], query, bound, i)
                    for i in range(len(b))] for query, bound in queries}
    library = lattice._compiled()
    for walk in {None, None if library is None else library.walk}:
        for query, bound in queries:
            with np.errstate(divide="ignore", invalid="ignore"):
                answers = lattice._walk_lanes(walk, b, unread, norms, r2, query, bound)
            assert [x if query != "shortest" or x is None else sorted(x)
                    for x in answers] == want[query]


def leaf_answer(leaves, query, bound, lane):
    """The answer of `lattice._walk` to the query from a lane's sorted
    leaves (coefficients, vector bytes), as `walk_leaves` gives them; the
    shortest vectors' coefficients sorted."""
    sups = [(np.abs(np.frombuffer(v)), list(c)) for c, v in leaves]
    if query == "box":
        return sum(bool(np.all(v <= bound)) for v, _ in sups)
    if query == "ball":
        return sum(bool(np.all(v < bound[0])) for v, _ in sups)
    sups = [(v.max(), c) for v, c in sups if v.max() <= bound[lane]]
    best = min(sups)[0] if sups else None
    return sorted(c for x, c in sups if x == best)


def stack_queries(bases, m):
    return ([count_in_box(b, (0.5,) * m) for b in bases] + [in_kmu(b, 0.5) for b in bases]
            + [in_mahler_compact(b, 0.05) for b in bases])


def count_reductions(monkeypatch) -> dict:
    """The calls of `_lll` and of the compiled stack LLL, where it is in
    use, counted from now on."""
    calls = {"_lll": 0, "library": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(lattice, "_lll", counted("_lll", lattice._lll))
    library = lattice._compiled()
    if library is not None:
        library = library._replace(lll=counted("library", library.lll))
        monkeypatch.setattr(lattice, "_COMPILED", (library, lattice.float_lll_backend()))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_queries_build_no_ball_walk_and_reduce_each_lane_once(monkeypatch, n):
    stack = orbit_points(generic_curve(n), np.linspace(1.0, 2.0, 12), 3.0)
    want = stack_queries([LatticeBasis(cols) for cols in stack], 2 * n)
    calls = count_reductions(monkeypatch)

    def refuse(*args):
        raise AssertionError("a stack box or ball query ran the exact ball walk")

    monkeypatch.setattr(lattice, "_ball_walk", refuse)
    bases = LatticeBasis.batch(stack)
    assert calls == {"_lll": 0, "library": 0}  # nothing reduces before a query
    assert stack_queries(bases, 2 * n) == want
    # one library call for the whole stack; `_lll` per lane only without it
    assert calls == ({"_lll": 0, "library": 1} if lattice._compiled() is not None
                     else {"_lll": len(stack), "library": 0})


def test_one_reduction_per_lane_serves_box_ball_and_shortest_vector(float_lll, monkeypatch):
    # a box count, a ball test and the shortest vector of one stack read one
    # reduction of each lane, made by one library call or by `_lll` per
    # lane; each answer is that of a fresh stack asked only that query
    def shortest(basis):
        x = shortest_supnorm(basis)
        return x.vector.tobytes(), x.length, x.coeffs.tobytes()

    stack = orbit_points(generic_curve(2), np.linspace(1.0, 2.0, 5), 3.0)
    queries = (lambda b: count_in_box(b, (0.9,) * 4), lambda b: in_kmu(b, 0.7), shortest)
    want = [[query(b) for b in LatticeBasis.batch(stack)] for query in queries]
    calls = count_reductions(monkeypatch)
    bases = LatticeBasis.batch(stack)
    assert [[query(b) for b in bases] for query in queries] == want
    assert calls == ({"_lll": 0, "library": 1} if float_lll == "compiled"
                     else {"_lll": len(stack), "library": 0})


def test_lane_past_the_node_cap_walks_and_raises_per_sample(monkeypatch):
    # the skew lane's ball holds +-k (0.05, 0, 0, 0) for k up to 36: 278
    # nodes in the box (0.95, ...), where Z^4 and its permutation hold 53
    skew = np.diag([0.05, 20.0, 1.0, 1.0])
    stack = np.array([np.eye(4), skew, np.eye(4)[[1, 0, 2, 3]]])
    box = (0.9,) * 4

    def refuse(*args):
        raise AssertionError("a float query ran the exact ball walk")

    monkeypatch.setattr(lattice, "_ball_walk", refuse)
    bases = LatticeBasis.batch(stack)
    assert count_in_box(bases[1], box) == count_in_box(LatticeBasis(skew), box) == 36
    assert [count_in_box(b, box) for b in bases[::2]] == [0, 0]
    assert bases[0]._stack._answers[("box", *box)] == [0, 36, 0]
    monkeypatch.setattr(lattice, "_MAX_NODES", 277)
    for basis, index in ((bases[1], 1), (LatticeBasis(skew), None)):
        for _ in range(2):  # a dropped lane raises on every query
            with pytest.raises(DegenerateInputError, match="node budget") as info:
                count_in_box(basis, (0.95,) * 4)
            assert getattr(info.value, "sample_index", None) == index
    assert [count_in_box(b, (0.95,) * 4) for b in bases[::2]] == [0, 0]
    monkeypatch.setattr(lattice, "_MAX_NODES", 278)  # the budget itself still answers
    assert (count_in_box(LatticeBasis(skew), (0.95,) * 4)
            == ball_walk_reference.count_in_box(LatticeBasis(skew), (0.95,) * 4) == 36)


def test_walk_drops_lanes_past_the_budget_or_at_a_zero_or_nan_norm(float_lll, monkeypatch):
    # lane 0 is the reduced skew lane of the test above: 278 nodes in the
    # ball around the box (0.95, ...), whose leaves hit every query; lanes 1
    # and 2 are Z^4 with a zero and with a nan norm. Past a budget of 277
    # nodes, lane 0 answers None (the budget error) to every query, the ball
    # test that has hits included, as the reference walk raises.
    skew = np.diag([0.05, 20.0, 1.0, 1.0])
    b, mu, norms = (x[[0, 1, 1]] for x in
                    LatticeBasis.batch(np.array([skew, np.eye(4)]))[0]._stack.reduced())
    norms[1, 2], norms[2, 0] = 0.0, math.nan
    r2 = sum(x * x for x in (0.95,) * 4)
    queries = (("box", np.full(4, 0.95)), ("ball", np.array([0.95])),
               ("shortest", np.full(3, 0.95)))

    def walk():
        with np.errstate(divide="ignore", invalid="ignore"):
            return [lattice._walk(b, mu, norms, r2, query, bound) for query, bound in queries]

    leaves = lane_leaves(b[0].tolist(), mu[0].tolist(), norms[0].tolist(), r2)
    want = [leaf_answer(leaves, query, bound, 0) for query, bound in queries]
    got = walk()
    assert [x[1:] for x in got] == [[None, None]] * 3
    assert [got[0][0], got[1][0], sorted(got[2][0])] == want
    assert want[:2] == [18, 18] and len(want[2]) == 1  # +-k (0.05, 0, 0, 0) for k <= 18
    monkeypatch.setattr(lattice, "_MAX_NODES", 277)
    with pytest.raises(DegenerateInputError, match="node budget"):
        lane_leaves(b[0].tolist(), mu[0].tolist(), norms[0].tolist(), r2)
    assert walk() == [[None] * 3] * 3


def test_z6_shortest_vector_is_read_from_its_364_ties(float_lll):
    # the ball 6 of Z^6 holds 364 leaves of sup-norm 1, one of each +-v
    # pair of {-1, 0, 1}^6, more than the library first has room for
    eye = np.eye(6)
    ties = lattice._walk(eye[None], np.zeros((1, 6, 6)), np.ones((1, 6)), 6.0, "shortest",
                         np.ones(1))[0]
    leaves = lane_leaves(eye.tolist(), np.zeros((6, 6)).tolist(), [1.0] * 6, 6.0)
    assert len(ties) == 364 and sorted(ties) == leaf_answer(leaves, "shortest", [1.0], 0)
    for basis in (LatticeBasis(eye), *LatticeBasis.batch(np.array([eye, -eye]))):
        want = ball_walk_reference.shortest_supnorm(LatticeBasis(basis.cols))
        got = shortest_supnorm(basis)
        assert (got.vector.tobytes(), got.length, got.coeffs.tobytes()) == (
            want.vector.tobytes(), want.length, want.coeffs.tobytes())


def test_lane_past_the_node_budget_is_named_by_its_sample(monkeypatch):
    monkeypatch.setattr(lattice, "_MAX_NODES", 40)
    with pytest.raises(DegenerateInputError, match="node budget") as info:
        siegel_average(generic_curve(2), [6.0], (0.9,) * 4, Sampler(seed=2, count=12))
    assert str(info.value).startswith("sample (seed, index, s) = (2, ")
    stack = orbit_points(generic_curve(2), np.linspace(1.0, 2.0, 12), 6.0)
    for max_nodes, query in ((40, lambda b: count_in_box(b, (0.9,) * 4)),
                             (10, lambda b: in_kmu(b, 0.7))):  # the box, then the ball walk
        monkeypatch.setattr(lattice, "_MAX_NODES", max_nodes)
        failed = []
        for i, basis in enumerate(LatticeBasis.batch(stack)):
            try:
                query(basis)
            except DegenerateInputError as exc:
                failed.append((i, exc.sample_index))
        assert failed and all(i == index for i, index in failed)
        with pytest.raises(DegenerateInputError) as info:
            query(LatticeBasis(stack[failed[0][0]]))
        assert getattr(info.value, "sample_index", None) is None


def test_wide_stack_walk_memory_is_bounded():
    # 2,000 lanes at n = 2, t = 8: the queries peak near 0.3 MB of the 4 MB
    # bound with the compiled walk and with `_walk_lane`, which holds one
    # lane's lists and leaves at a time
    bases = LatticeBasis.batch(orbit_points(generic_curve(2), np.linspace(1.0, 2.0, 2_000),
                                            8.0))
    bases[0]._stack.reduced()  # the reduction's arrays: 2,000 x 21 floats
    tracemalloc.start()
    try:
        for basis in bases:
            count_in_box(basis, (0.9,) * 4)
            in_kmu(basis, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


# The four float queries, through the public API and as `ball_walk_reference`
# ran them on one basis alone: box count, K_mu test, Mahler-compact test,
# shortest vector.
STACK_QUERIES = (count_in_box, in_kmu, in_mahler_compact, shortest_supnorm)
REFERENCE_QUERIES = (ball_walk_reference.count_in_box,
                     lambda basis, mu: not ball_walk_reference.exists_shorter(basis, mu),
                     lambda basis, eps: not ball_walk_reference.exists_shorter(basis, eps),
                     ball_walk_reference.shortest_supnorm)


def query_answers(basis, boxes, bounds, queries):
    """Every box count, K_mu test and Mahler-compact test, then the shortest
    vector (bytes, length, coefficient bytes); an error stands as its type
    and message."""
    count, kmu, compact, shortest = queries

    def short():
        res = shortest(basis)
        return res.vector.tobytes(), res.length, res.coeffs.tobytes()

    return [outcome(q) for q in [lambda box=box: count(basis, box) for box in boxes]
            + [lambda mu=mu: kmu(basis, mu) for mu in bounds]
            + [lambda eps=eps: compact(basis, eps) for eps in bounds] + [short]]


def outcome(query):
    try:
        got = query()
    except (ArithmeticError, ValueError, InternalIdentityError) as exc:
        return type(exc), str(exc)
    return type(got), got


def assert_stack_matches_reference(stack, boxes, bounds):
    """Each lane of a `batch` of the stack, and an unbatched basis of its
    columns (the one lane of its own stack), answers as the reference walk
    of the lane alone."""
    stack = np.array(stack, dtype=float)
    for basis, cols in zip(LatticeBasis.batch(stack), stack):
        want = query_answers(LatticeBasis(cols), boxes, bounds, REFERENCE_QUERIES)
        assert query_answers(basis, boxes, bounds, STACK_QUERIES) == want
        assert query_answers(LatticeBasis(cols), boxes, bounds, STACK_QUERIES) == want


@st.composite
def reference_orbit_stacks(draw):
    """Orbit bases a_t [z(s)] u(phi(s)) at n = 1, 2 or 3 and t in [0, 8],
    for a quadratic phi whose derivative is diagonally dominant on [1, 2],
    raw or normalized, optionally translated by u(1)."""
    n = draw(st.integers(1, 3))
    entry = st.floats(-1, 1)
    coeffs = [[[draw(entry) for _ in range(n)] for _ in range(n)],
              [[(1.0 if i == j else 0.0) + draw(entry) / (2 * n) for j in range(n)]
               for i in range(n)],
              [[draw(entry) / (8 * n) for _ in range(n)] for _ in range(n)]]
    curve = MatrixPolyCurve.from_coeffs(coeffs, (1.0, 2.0))
    s = draw(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=8 if n == 1 else 3))
    stack = orbit_points(curve, s, draw(st.floats(0.0, 8.0)), normalize=draw(st.booleans()))
    return u_embed(np.eye(n)).entries @ stack if draw(st.booleans()) else stack


@st.composite
def wide_reference_cases(draw):
    """(stack, boxes, bounds): a `reference_orbit_stacks` stack at m = 2, 4
    or 6, the box 0.9 and a drawn box, the bound 0.5 and a drawn one."""
    stack = draw(reference_orbit_stacks())
    m = stack.shape[1]
    w, mu = draw(st.floats(0.3, 1.5)), draw(st.floats(0.05, 0.99))
    return stack, ((0.9,) * m, (w,) * (m - 1) + (0.9,)), (0.5, mu)


@st.composite
def pair_reference_cases(draw):
    """(stack, boxes, bounds): n = 1 orbit bases up to t = 16 or random
    unimodular pairs, with one to four HAND_LANES inserted among them at
    drawn places, on GRID_BOXES and GRID_BOUNDS with one drawn box and one
    drawn bound. The hand lanes' own answers are held to the reference by
    `test_stack_queries_on_hand_lanes_are_the_reference_walks`; here they
    share a stack with drawn lanes."""
    lanes = list(draw(st.one_of(orbit_stacks(), unimodular_float_pairs())))
    box = draw(st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)))
    bound = draw(st.floats(0.01, 0.99))
    hand = st.sampled_from(range(len(HAND_LANES)))
    for i in draw(st.lists(hand, min_size=1, max_size=4, unique=True)):
        lanes.insert(draw(st.integers(0, len(lanes))), np.array(HAND_LANES[i]))
    return np.array(lanes), GRID_BOXES + (box,), GRID_BOUNDS + (bound,)


# one pair stack with every hand lane appended, as the drawn stacks once had
ALL_HAND_LANES_CASE = (np.concatenate([[[[1.0, 0.3], [0.0, 1.0]], [[0.5, 1.0], [-1.0, 0.0]]],
                                       HAND_LANES]),
                       GRID_BOXES + ((0.4, 2.2),), GRID_BOUNDS + (0.3,))


@settings(SETTINGS, max_examples=120)
@given(st.one_of(pair_reference_cases(), wide_reference_cases()))
@example(ALL_HAND_LANES_CASE)
def test_stack_queries_are_the_reference_walks_bit_for_bit(case):
    assert_stack_matches_reference(*case)


# The same, with every lane reduced by `_lll` (`python_lll`), as on a
# machine where the compiled stack LLL cannot be used; the fixture's state
# stays fixed across hypothesis examples.
@settings(SETTINGS, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.one_of(pair_reference_cases(), wide_reference_cases()))
@example(ALL_HAND_LANES_CASE)
def test_stack_queries_are_the_reference_walks_bit_for_bit_without_the_library(python_lll,
                                                                              case):
    assert_stack_matches_reference(*case)


def assert_hand_lanes_match_reference(m):
    if m == 2:
        assert_stack_matches_reference(HAND_LANES, GRID_BOXES, GRID_BOUNDS)
    else:
        assert_stack_matches_reference(block_lanes(m), wide_boxes(m), WIDE_BOUNDS)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_stack_queries_on_hand_lanes_are_the_reference_walks(m):
    assert_hand_lanes_match_reference(m)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_stack_queries_on_hand_lanes_are_the_reference_walks_without_the_library(python_lll, m):
    assert_hand_lanes_match_reference(m)


# The box corner (4, 4, 4, 4) / 6 of this lattice is its sup-norm minimum,
# and every reduced column is longer in sup-norm: only the walk finds it.
CORNER_COLS = np.array([(4, 4, 4, 4), (-1, 5, -1, 1), (-2, 1, 7, 2), (1, -2, -2, 5)]).T / 6


@pytest.mark.parametrize("cols", [np.diag([0.5, 2.0]), CORNER_COLS], ids=["column", "corner"])
def test_float_bases_compare_fraction_bounds_exactly(cols):
    # r is the sup-norm minimum as the float walk computes it; a Fraction q
    # with float(q) == r is strictly above or below it
    b, _, gram = ball_walk_reference._prepare(LatticeBasis(cols))
    r = min(max(map(abs, v)) for _, v in ball_walk_reference._BallWalk(b, gram, len(b) * 1.0))
    assert (min(max(map(abs, col)) for col in b) == r) == (cols.shape[0] == 2)
    tiny = Fraction(1, 2 ** 80)
    for q, clear in ((Fraction(r) + tiny, False), (Fraction(r) - tiny, True)):
        assert float(q) == r
        for basis in (LatticeBasis(cols), LatticeBasis.batch(cols[None])[0]):
            assert in_kmu(basis, q) is clear and in_mahler_compact(basis, q) is clear
    assert in_kmu(LatticeBasis(cols), r) is True  # nothing strictly below r


# lambda_1 at n = 1 against the continued-fraction oracle (`cf_reference`),
# which uses no LLL and no walk. phi(s) = s, so the stack holds a_t u(s).
PHI_IS_S = MatrixPolyCurve.from_coeffs([[[0.0]], [[1.0]]], (-2.0, 2.0))


@SETTINGS
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
       st.sampled_from((2.0, 4.0, 6.0, 8.0)))
def test_n1_lambda1_is_the_continued_fraction_oracles(s, t):
    """The float shortest vector, of each basis alone (a one-lane stack)
    and of each lane of a `batch` stack, is
    within the rounding of its recombination from the input columns: terms
    near E q |phi| <= E^2 lambda_1 |phi| cancel, so the relative error is a
    few e^2t (1 + |phi|) ulp (up to 1.6e-9 measured at t = 8, and 6e-15 at
    t = 2). The exact shortest vector of the dyadic twin [[E, E phi], [0,
    1/E]], E = Fraction(e^t), equals the oracle's."""
    stack = orbit_points(PHI_IS_S, s, t)
    e = math.exp(t)
    for phi, alone, lane in zip(PHI_IS_S.eval_many(np.array(s))[:, 0, 0].tolist(),
                                map(LatticeBasis, stack), LatticeBasis.batch(stack)):
        want = cf_reference.lambda1(phi, e)
        rel = 4 * e * e * (1 + abs(phi)) * 2.0 ** -53
        assert shortest_supnorm(alone).length == pytest.approx(float(want), rel=rel, abs=0)
        assert shortest_supnorm(lane).length == pytest.approx(float(want), rel=rel, abs=0)
        twin = LatticeBasis.from_rational([[Fraction(e), Fraction(e) * Fraction(phi)],
                                           [0, 1 / Fraction(e)]])
        assert shortest_supnorm(twin).length == want


def test_continued_fraction_oracle_on_hand_cases():
    # the golden ratio's convergents are ratios of Fibonacci numbers
    golden = Fraction((1 + math.sqrt(5)) / 2)
    assert list(itertools.islice(cf_reference.convergents(golden), 6)) == [
        (1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8)]
    # -7/3 = [-3; 1, 2]
    assert list(cf_reference.convergents(Fraction(-7, 3))) == [(-3, 1), (-2, 1), (-7, 3)]
    # phi = 0: the shortest vectors are (0, +-1/E) when E > 1 and (+-E, 0) below
    assert cf_reference.lambda1(0, 4) == Fraction(1, 4)
    assert cf_reference.lambda1(0, Fraction(1, 4)) == Fraction(1, 4)
    # phi = 1/2, E = 2: (E (phi - 0), 1/E) = (1, 1/2) against (E (2 phi - 1), 2/E) = (0, 1)
    assert cf_reference.lambda1(Fraction(1, 2), 2) == 1


# The rank-1 curve phi(s) = s I is a direct sum: u(s I) preserves each plane
# (x_i, y_i), so a_t u(s I) Z^2n = L + ... + L, L = a_t u(s) Z^2 the lattice
# of the n = 1 line at the same s. Its float entries are those of L (a sum
# with zeros is exact), so the n = 2 and 3 stacks (LLL at m = 4 and m = 6,
# and the stack walk) answer what the n = 1 stack (LLL at m = 2, and the
# four-vector ball test) answers.
# Near s = 1 the planes hold ~2 e^t vectors each, and their product can pass
# the walk's node budget, which refuses the count; such boxes are not counted.
RANK_ONE_MAX_COUNT = 2_000


@SETTINGS
@given(st.integers(2, 3), st.lists(st.floats(1.0, 2.0), min_size=1, max_size=6),
       st.floats(0.5, 8.0), st.data())
def test_rank_one_curve_answers_as_the_n1_line_plane_by_plane(n, s, t, data):
    """A box count of the sum is prod(c_i + 1) - 1, c_i the count of L in
    plane i's box; K_mu and nondivergence indicators, which read lambda_1,
    are L's; lambda_1 agrees within the recombination rounding of
    `test_n1_lambda1_is_the_continued_fraction_oracles`, 4 e^2t (1 + |phi|)
    ulp."""
    box = data.draw(st.lists(st.floats(0.25, 1.5), min_size=2 * n, max_size=2 * n))
    mu, eps = data.draw(st.floats(0.05, 0.99)), data.draw(st.floats(0.05, 0.99))
    rank_one = MatrixPolyCurve.from_coeffs([np.zeros((n, n)), np.eye(n)], (1.0, 2.0))
    sums = LatticeBasis.batch(orbit_points(rank_one, s, t))
    lines = LatticeBasis.batch(orbit_points(PHI_IS_S, s, t))
    e = math.exp(t)
    for phi, big, line in zip(s, sums, lines):
        want = math.prod(count_in_box(line, (box[i], box[n + i])) + 1 for i in range(n)) - 1
        if want <= RANK_ONE_MAX_COUNT:
            assert count_in_box(big, box) == want
        assert in_kmu(big, mu) is in_kmu(line, mu)
        assert in_mahler_compact(big, eps) is in_mahler_compact(line, eps)
        rel = 4 * e * e * (1 + abs(phi)) * 2.0 ** -53
        assert shortest_supnorm(big).length == pytest.approx(shortest_supnorm(line).length,
                                                            rel=rel, abs=0)


# The 2 x 2 ball test reads four vectors of the reduced pair (b0, b1): b0,
# b1, b1 + b0 and b1 - b0 (the module's lemma). SUM_PAIR and DIFF_PAIR are
# reduced integer pairs of det +-256 whose least sup-norm only b1 + b0,
# respectively b1 - b0, attains (13 against 16, 17 and 21); over 16 they are
# the dyadic float lanes SUM_LANE and DIFF_LANE. SUM_CELL and DIFF_CELL are
# the two n = 1 correspondence cells at N = 3, mu = 9/10 (phi = 13/37 and
# 24/37) that only b1 + b0, respectively b1 - b0, puts in the box.
SUM_PAIR, DIFF_PAIR = ((16, 4), (-4, -17)), ((16, 4), (4, 17))
SUM_LANE, DIFF_LANE = ([[x / 16 for x in row] for row in zip(*pair)]
                       for pair in (SUM_PAIR, DIFF_PAIR))
SUM_CELL, DIFF_CELL = ([13], 1, 3, Fraction(9, 10)), ([24], 1, 3, Fraction(9, 10))


def pair_sups(b) -> dict:
    """The sup-norms of b0, b1, b1 + b0 and b1 - b0 of a pair of integer or
    float columns, each sum computed as the float walk computes its leaf."""
    b0, b1 = b
    vecs = (b0, b1, [y + x for x, y in zip(b0, b1)], [y - x for x, y in zip(b0, b1)])
    return dict(zip(("b0", "b1", "sum", "diff"), (max(map(abs, v)) for v in vecs)))


def shear(cols, ops):
    """The integer columns after the column operations (dst += q src)."""
    cols = [list(col) for col in cols]
    for src, dst, q in ops:
        cols[dst] = [x + q * y for x, y in zip(cols[dst], cols[src])]
    return tuple(map(tuple, cols))


def least_sup(cols) -> int:
    """The least sup-norm of a nonzero integer combination of two integer
    columns, by brute force: every coefficient pair that Cramer's rule
    allows for a vector no longer than the shortest column, over the generic
    integral LLL's reduced pair (a basis of the same lattice)."""
    ((a, c), (b, d)), _, _, _ = integral_lll_reference.lll_integral(list(cols),
                                                                    lattice._EXACT_DELTA, False)
    det = abs(a * d - b * c)
    top = min(max(abs(a), abs(c)), max(abs(b), abs(d)))
    k0, k1 = ((abs(d) + abs(b)) * top // det, (abs(c) + abs(a)) * top // det)
    return min(max(abs(x0 * a + x1 * b), abs(x0 * c + x1 * d))
               for x0 in range(-k0, k0 + 1) for x1 in range(-k1, k1 + 1) if x0 or x1)


@st.composite
def integer_pairs(draw):
    """Two integer columns of nonzero determinant: drawn entries, an exact
    unimodular basis times its denominator, a correspondence cell, SUM_PAIR
    or DIFF_PAIR, then sheared by up to four drawn column operations."""
    kind = draw(st.sampled_from(("entries", "unimodular", "cell", "hand")))
    if kind == "entries":
        cols = [[draw(st.integers(-60, 60)) for _ in range(2)] for _ in range(2)]
        assume(cols[0][0] * cols[1][1] != cols[0][1] * cols[1][0])
    elif kind == "unimodular":
        rows = draw(unimodular_rows().filter(lambda rows: len(rows) == 2))
        cols = LatticeBasis.from_rational(rows).int_cols
    elif kind == "cell":
        mu = draw(st.sampled_from((Fraction(1, 2), Fraction(9, 10))))
        cols = correspondence_lattice([draw(st.integers(0, 37))], 1, draw(st.integers(2, 50)),
                                      mu).int_cols
    else:
        cols = draw(st.sampled_from((SUM_PAIR, DIFF_PAIR)))
    ops = draw(st.lists(st.tuples(st.sampled_from(((0, 1), (1, 0))), st.integers(-3, 3)),
                        max_size=4))
    return shear(cols, [(src, dst, q) for (src, dst), q in ops])


@settings(SETTINGS, max_examples=200)
@given(integer_pairs())
@example(SUM_PAIR)
@example(DIFF_PAIR)
@example(correspondence_lattice(*SUM_CELL).int_cols)
@example(correspondence_lattice(*DIFF_CELL).int_cols)
def test_exact_pair_ball_test_is_the_walks_at_every_candidate_norm(cols):
    """At m = 2 `_exists_below` answers as the walk (`exact_walk_reference`)
    at B = s and B = s + 1 for the sup-norm s of each of the four vectors
    of the reduced pair, and so as the least sup-norm found by brute force,
    which one of the four attains."""
    least = least_sup(cols)
    sups = pair_sups(lattice._lll_integral(cols, lattice._EXACT_DELTA, False)[0])
    assert min(sups.values()) == least
    for s in sups.values():
        for bound in (s, s + 1):
            want, _ = exact_walk_reference.exists_below(cols, bound)
            assert lattice._exists_below(cols, bound) is want is (least < bound)


@st.composite
def pair_stacks_with_sum_and_diff_lanes(draw):
    """n = 1 orbit bases or random unimodular pairs, with SUM_LANE,
    DIFF_LANE, their sheared copies and HAND_LANES inserted at drawn places."""
    lanes = list(draw(st.one_of(orbit_stacks(), unimodular_float_pairs())))
    extra = [SUM_LANE, DIFF_LANE] + [np.array(lane) @ np.array([[1, q], [0, 1]])
                                     for lane in (SUM_LANE, DIFF_LANE) for q in (-2, 3)]
    for lane in draw(st.lists(st.sampled_from(extra + HAND_LANES), min_size=1, max_size=4)):
        lanes.insert(draw(st.integers(0, len(lanes))), np.array(lane, dtype=float))
    return np.array(lanes)


@settings(SETTINGS, max_examples=60)
@given(pair_stacks_with_sum_and_diff_lanes())
@example(np.array([SUM_LANE, DIFF_LANE] + HAND_LANES, dtype=float))
def test_stack_pair_ball_test_is_the_walks_at_every_candidate_norm(stack):
    """Every lane of a 2 x 2 stack answers `below(r)` as the depth-first
    float walk of the lane alone (`ball_walk_reference`), at r = s and at
    the float after s, for the sup-norm s of each of the four vectors of
    every lane's reduced pair."""
    checked = lattice._checked_stack(stack)
    bases = [LatticeBasis(cols) for cols in stack]
    radii = set()
    for b in checked.reduced()[0]:
        for s in pair_sups(b).values():
            radii.update((s, math.nextafter(s, math.inf)))
    for r in sorted(radii):
        assert checked.below(r) == [ball_walk_reference.exists_shorter(basis, r)
                                    for basis in bases]


@pytest.mark.parametrize("key", ["sum", "diff"])
def test_sum_and_difference_cases_are_decided_by_that_vector_alone(key):
    # the cases that hold the property tests to b1 + b0 and to b1 - b0: that
    # vector is below a bound that no other of the four is below
    cols, lane, cell = {"sum": (SUM_PAIR, SUM_LANE, SUM_CELL),
                        "diff": (DIFF_PAIR, DIFF_LANE, DIFF_CELL)}[key]
    sups = pair_sups(lattice._lll_integral(cols, lattice._EXACT_DELTA, False)[0])
    s = sups.pop(key)
    assert s < min(sups.values())
    assert not lattice._exists_below(cols, s) and lattice._exists_below(cols, s + 1)
    stack = lattice._checked_stack(np.array([lane]))
    sups = pair_sups(stack.reduced()[0][0])
    s = sups.pop(key)
    assert s < min(sups.values())
    assert stack.below(s) == [False] and stack.below(math.nextafter(s, math.inf)) == [True]
    *_, mu = cell
    basis = correspondence_lattice(*cell)
    bound = -(-mu.numerator * basis.den // mu.denominator)
    sups = pair_sups(lattice._lll_integral(basis.int_cols, lattice._EXACT_DELTA, False)[0])
    assert [k for k, s in sups.items() if s < bound] == [key]
    assert not in_kmu(basis, mu)


def test_pair_lane_with_a_non_finite_reduction_walks_as_before():
    # a nan norm drops the lane in the walk, as it did before the four-vector
    # test; the finite lane beside it is decided by b1 - b0 without a walk
    stack = lattice._checked_stack(np.array([DIFF_LANE, DIFF_LANE]))
    b, mu, norms = (x.copy() for x in stack.reduced())
    norms[1, 1] = math.nan
    stack._reduced = b, mu, norms
    r = math.nextafter(13 / 16, math.inf)
    found, dropped = stack.shorter(r)
    assert found is True
    assert isinstance(dropped, DegenerateInputError) and "node budget" in str(dropped)


def lagrange_and_lll_sups(cols) -> set:
    """The sup-norms of the four vectors of the Lagrange-reduced pair and of
    the pair that the generic integral LLL (delta = 99/100) reduces."""
    lll, _, _, _ = integral_lll_reference.lll_integral(list(cols), lattice._EXACT_DELTA, False)
    return {*pair_sups(lattice._lagrange(cols)).values(), *pair_sups(lll).values()}


def assert_pair_ball_test_is_the_walks(cols):
    for s in lagrange_and_lll_sups(cols):
        for bound in (s, s + 1):
            want, _ = exact_walk_reference.exists_below(cols, bound)
            assert lattice._exists_below(cols, bound) is want


def norm2(v) -> int:
    return sum(x * x for x in v)


@st.composite
def lovasz_short_pairs(draw):
    """Integer pairs (b0, b1) that the delta = 99/100 LLL returns as they
    are although ||b1|| < ||b0||: b1 is b0 turned a quarter turn and nudged
    shorter, so |mu| is far below 1/2 and the Lovasz test passes."""
    scale = 10 ** draw(st.integers(4, 40))
    a = draw(st.integers(scale // 10, scale)) * draw(st.sampled_from((1, -1)))
    b = draw(st.integers(-scale, scale))
    b0, b1 = (a, b), (-b + draw(st.integers(-3, 3)), a + draw(st.integers(-3, 3)))
    assume(norm2(b1) < norm2(b0))
    return b0, b1


@settings(SETTINGS, max_examples=100)
@given(lovasz_short_pairs())
@example(((1000, 0), (0, 996)))
def test_pair_ball_test_after_a_swap_the_lll_skips_is_the_walks(cols):
    """Lagrange-Gauss swaps a pair that the LLL leaves with ||b1|| < ||b0||,
    and the ball test on its reduction answers as the walk at B = s and
    s + 1 for every candidate sup-norm s of either reduction."""
    lll, _, _, _ = integral_lll_reference.lll_integral(list(cols), lattice._EXACT_DELTA, False)
    assert tuple(map(tuple, lll)) == cols
    b0, _ = lattice._lagrange(cols)
    assert b0 in (cols[1], tuple(-x for x in cols[1]))
    assert_pair_ball_test_is_the_walks(cols)


@st.composite
def skewed_pairs(draw):
    """Integer pairs with entries near 10^40 whose lattice has short vectors:
    either b0 of entries near 10^40 and b1 = b0 + r for a drawn r, or a small
    integer matrix times a unimodular one built from drawn shears of at
    least 10^6 until an entry reaches 10^39, which Lagrange-Gauss undoes
    round by round."""
    if not draw(st.booleans()):
        b0 = tuple(draw(st.integers(10 ** 39, 10 ** 40)) * draw(st.sampled_from((1, -1)))
                   for _ in range(2))
        r = 10 ** draw(st.integers(0, 39))
        b1 = tuple(x + draw(st.integers(-r, r)) for x in b0)
        assume(b0[0] * b1[1] != b0[1] * b1[0])
        return b0, b1
    (p, q), (r, s) = u = [[1, 0], [0, 1]]
    while max(map(abs, (p, q, r, s))) < 10 ** 39:
        k = draw(st.integers(10 ** 6, 10 ** 12)) * draw(st.sampled_from((1, -1)))
        if draw(st.booleans()):
            p, q = p + k * r, q + k * s
        else:
            r, s = r + k * p, s + k * q
    m = [[draw(st.integers(-60, 60)) for _ in range(2)] for _ in range(2)]
    assume(m[0][0] * m[1][1] != m[0][1] * m[1][0])
    return tuple(tuple(m[i][0] * x + m[i][1] * y for i in range(2)) for x, y in ((p, q), (r, s)))


@settings(SETTINGS, max_examples=100)
@given(skewed_pairs())
def test_skewed_pair_ball_test_is_the_walks(cols):
    """On pairs with entries near 10^40 the ball test on the Lagrange-Gauss
    reduction answers as the walk at B = s and s + 1 for every candidate
    sup-norm s of either reduction."""
    assert_pair_ball_test_is_the_walks(cols)
