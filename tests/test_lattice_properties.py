"""Property tests of the lattice core against naive references.

Bases are random unimodular matrices, built exactly as a rational
unit-lower-triangular matrix times a rational diagonal of determinant 1
times integer column operations, and used in both scalar modes, plus exact
correspondence bases a_log N u(k/37) whose lattices have vectors on the
boundary of the mu-box. The references are deliberately naive: LLL that
recomputes Gram-Schmidt in full after every step, and a walk of the whole
coefficient box that the inverse of the reduced basis bounds. The batched
float LLL of 2 x 2 stacks is held to the scalar float LLL bit for bit, and
the integral LLL, which updates its Gram rows on a swap, to the same loop
recomputing them. The breadth-first stack walk, the one float enumerator,
is held to the depth-first float walk each basis ran alone before
(`ball_walk_reference`): equal leaves, and equal box counts, ball tests and
shortest vectors on every lane, bit for bit. At n = 1 the shortest vector is
also held to continued fractions (`cf_reference`), which use no LLL and no
walk. At n = 2 and 3, the orbit lattices of the rank-1 curve s I, direct
sums of the n = 1 line's lattice, are held to that line plane by plane.
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
                     correspondence_basis, count_in_box, in_kmu, in_mahler_compact,
                     orbit_points, reduce, shortest_supnorm, siegel_average, u_embed)
import ball_walk_reference
import cf_reference
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


def correspondence_lattice(k, n, N, mu):
    """The exact correspondence basis at phi = k / 37 (phi[i][j] = k_ij / 37)."""
    phi = np.empty((n, n), dtype=object)
    for idx, x in enumerate(k):
        phi[idx // n, idx % n] = Fraction(x, 37)
    return correspondence_basis(DirichletQuery(phi=phi, N=N, mu=mu))


@st.composite
def boundary_cells(draw):
    """(basis, mu) with mu N an integer, so p = mu N puts the vector
    (N (phi p - q), p / N) on the sup-norm sphere of radius mu whenever its
    top block is no larger."""
    n = draw(st.sampled_from((1, 1, 2)))
    mu = draw(st.sampled_from((Fraction(1, 2), Fraction(9, 10), Fraction(3, 4), Fraction(2, 3))))
    N = mu.denominator * draw(st.integers(1, 8 if n == 1 else 2))
    k = [draw(st.integers(0, 37)) for _ in range(n * n)]
    return correspondence_lattice(k, n, N, mu), mu


@SETTINGS
@given(boundary_cells())
def test_exact_queries_on_correspondence_bases_match_box_oracle(cell):
    basis, mu = cell
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


def pair_row(cols):
    """`_lll`'s reduction of a 2 x 2 float basis laid out as a row of
    `_lll_pair_arrays`: b0, b1, mu[1][0], norms[0], norms[1], as bytes, so
    that equal rows are bit-identical (signed zeros included)."""
    b, _, mu, norms = lattice._lll(lattice._float_columns(cols))
    return np.array([*b[0], *b[1], mu[1][0], *norms], dtype=float).tobytes()


def assert_lanes_match_scalar_lll(stack):
    stack = np.asarray(stack, dtype=float)
    got = lattice._lll_pair_arrays(stack)
    assert got.shape == (len(stack), 7) and got.dtype == float
    assert [row.tobytes() for row in got] == [pair_row(cols) for cols in stack]


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
def test_batched_lll_matches_scalar_lll_on_orbit_stacks(stack):
    assert_lanes_match_scalar_lll(stack)


@SETTINGS
@given(unimodular_float_pairs())
def test_batched_lll_matches_scalar_lll_on_random_pairs(stack):
    assert_lanes_match_scalar_lll(stack)


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


def test_batched_lll_keeps_signed_zeros_and_ties_as_scalar_lll():
    assert_lanes_match_scalar_lll(SIGNED_ZERO_LANES + TIE_LANES)


def fibonacci_lane(k):
    """Columns (F_{k+1}, F_k) and (F_k, F_{k-1}), det +-1 (Cassini): a pair
    whose reduction takes k / 2 swaps, k / 2 + 1 stages, at even k."""
    f = [0, 1]
    while len(f) < k + 2:
        f.append(f[-1] + f[-2])
    return [[float(f[k + 1]), float(f[k])], [float(f[k]), float(f[k - 1])]]


def test_batched_lll_on_a_stack_mixing_short_and_long_reductions(monkeypatch):
    stack = np.array([np.eye(2), fibonacci_lane(20), [[1.0, 0.25], [0.0, 1.0]],
                      fibonacci_lane(18), [[0.0, 1.0], [-1.0, 0.0]], fibonacci_lane(14)])
    assert_lanes_match_scalar_lll(stack)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 8)  # 7 swaps pass, 8 or more fail
    fails = []
    for i, cols in enumerate(stack):
        try:
            lattice._lll(lattice._float_columns(cols))
        except InternalIdentityError:
            fails.append(i)
    assert fails == [1, 3]
    with pytest.raises(InternalIdentityError, match="terminate") as info:
        lattice._lll_pair_arrays(stack)
    assert info.value.sample_index == 1
    assert_lanes_match_scalar_lll(stack[[0, 2, 4, 5]])


def test_batched_lll_reduces_wide_transform_lanes_without_scalar_lll(monkeypatch):
    # mu = 2^60 at the first stage: the transform leaves the range where
    # doubles hold integers exactly, but the reduced pair never reads it.
    lane = [[2.0 ** -40, 2.0 ** 20], [0.0, 2.0 ** 40]]
    want = [pair_row(lane), pair_row(np.eye(2))]

    def refuse(*args):
        raise AssertionError("the batched LLL ran the scalar LLL")

    monkeypatch.setattr(lattice, "_lll", refuse)
    basis, _ = LatticeBasis.batch(np.array([lane, np.eye(2)]))
    assert not in_kmu(basis, 0.5)  # the first ball query reduces the stack
    assert stack_rows(basis._stack) == want


def stack_rows(stack):
    """A 2 x 2 stack's reductions laid out as `_lll_pair_arrays` rows, as bytes."""
    b, mu, norms = stack.reduced()
    rows = np.column_stack((b.reshape(len(b), 4), mu[:, 1, 0], norms))
    return [row.tobytes() for row in rows]


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
def test_stack_walk_on_signed_zero_tie_and_face_lanes(m):
    lanes = block_lanes(m)
    boxes = wide_boxes(m) + ((0.9,) * (m - 2) + (0.6, 0.9),)
    assert_stack_answers_match_unbatched(lanes, boxes)
    # the box (0.9, ...) holds +-(0.9, 0, ...) of the box-face lane on its face
    face = next(k for k, x in enumerate(lanes) if x[0, 0] == 0.9 and x[1, 1] == 1 / 0.9)
    assert count_in_box(LatticeBasis.batch(np.array(lanes))[face], (0.9,) * m) >= 2


def generic_curve(n):
    """phi(s) = A + (I + A^T / 4) s on [1, 2], with the entries of A spread
    by the golden ratio: no rational relation makes its orbit lattices
    degenerate."""
    a = np.array([[((3 * i + 5 * j + 1) * 0.618034) % 1 - 0.5 for j in range(n)]
                  for i in range(n)])
    return MatrixPolyCurve.from_coeffs([a, np.eye(n) + 0.25 * a.T], (1.0, 2.0))


def stack_leaves(stack, r2):
    """Per lane of a `_Stack`: the sorted (coefficients, vector bytes) of
    the leaves of its walk of the squared radius r2 (one float or one per
    lane), with the mask of lanes it drops."""
    b, mu, norms = stack.reduced()
    leaves = [[] for _ in b]

    def visit(lane, v, coef):
        rows = coef(np.ones(len(lane), dtype=bool)).astype(np.int64).tolist()
        for i, c, x in zip(lane.tolist(), rows, v):
            leaves[i].append((tuple(c), x.tobytes()))

    dropped = lattice._stack_walk(b, mu, norms, r2, visit)
    return [sorted(lane) for lane in leaves], dropped


def reference_leaves(cols, r2):
    """The sorted (coefficients, vector bytes) of the depth-first float walk
    of the basis alone."""
    b, _, gram = ball_walk_reference._prepare(LatticeBasis(np.array(cols, dtype=float)))
    return sorted((c, np.array(v, dtype=float).tobytes())
                  for c, v in ball_walk_reference._BallWalk(b, gram, r2))


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


def stack_queries(bases, m):
    return ([count_in_box(b, (0.5,) * m) for b in bases] + [in_kmu(b, 0.5) for b in bases]
            + [in_mahler_compact(b, 0.05) for b in bases])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_queries_build_no_ball_walk_and_reduce_each_lane_once(monkeypatch, n):
    stack = orbit_points(generic_curve(n), np.linspace(1.0, 2.0, 12), 3.0)
    want = stack_queries([LatticeBasis(cols) for cols in stack], 2 * n)
    calls = {"_lll": 0, "_lll_pair_arrays": 0}
    for name in calls:
        def counted(*args, _fn=getattr(lattice, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(lattice, name, counted)

    def refuse(*args):
        raise AssertionError("a stack box or ball query ran the exact ball walk")

    monkeypatch.setattr(lattice, "_ball_walk", refuse)
    bases = LatticeBasis.batch(stack)
    assert calls == {"_lll": 0, "_lll_pair_arrays": 0}  # nothing reduces before a query
    assert stack_queries(bases, 2 * n) == want
    assert calls == ({"_lll": 0, "_lll_pair_arrays": 1} if n == 1
                     else {"_lll": len(stack), "_lll_pair_arrays": 0})


def test_lambda1_stacks_reduce_each_sample_alone(monkeypatch):
    curve = MatrixPolyCurve.from_coeffs([np.eye(2) * 0.25, np.eye(2) + 0.125], (1.0, 2.0))
    bases = LatticeBasis.batch(orbit_points(curve, np.linspace(1.0, 2.0, 5), 3.0))
    calls = []
    scalar = lattice._lll
    monkeypatch.setattr(lattice, "_lll", lambda *args: calls.append(args[2:]) or scalar(*args))
    want = [shortest_supnorm(LatticeBasis(np.array(b.cols))).length for b in bases]
    calls.clear()
    assert [shortest_supnorm(b).length for b in bases] == want
    assert calls == [(True,)] * 5  # one `_lll` per sample, transform tracked
    assert bases[0]._stack._reduced is None


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
    # 2,000 lanes at n = 2, t = 8: with each level of the stack walk
    # expanded in chunks of at most _STACK_CHUNK candidate nodes, the
    # queries peak near 2.3 MB of the 4 MB bound (12 MB unchunked)
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


@pytest.mark.parametrize("m", [2, 4, 6])
def test_stack_queries_on_hand_lanes_are_the_reference_walks(m):
    if m == 2:
        assert_stack_matches_reference(HAND_LANES, GRID_BOXES, GRID_BOUNDS)
    else:
        assert_stack_matches_reference(block_lanes(m), wide_boxes(m), WIDE_BOUNDS)


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
    """The float shortest vector, of each basis alone (the generated m = 2
    LLL kernel with the transform) and of each lane of a `batch` stack, is
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
# with zeros is exact), so the n = 2 and 3 stacks (the m = 4 and m = 6 `_lll`
# kernels and the stack walk) answer what the n = 1 stack (the pair kernel
# `_lll_pair_arrays`) answers; the two routes share no LLL code.
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
