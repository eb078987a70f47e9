import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from solvable_reference import reference_solvable

from danilab import (DirichletQuery, MatrixPolyCurve, a_scale, correspondence_basis,
                     correspondence_check, correspondence_row, first_witnesses,
                     improvability_scan, shortest_supnorm, solvable, u_embed)
from danilab import _linalg, dirichlet, lattice
from danilab.errors import DomainError, InvariantError

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
# a / b with 0 < a <= b <= 20, so mu = 1 (as the int 1 or a Fraction) included
# (st.integers draws its low end far more often than sampled_from.)
MU = st.one_of(st.just(1), st.sampled_from(range(1, 21)).flatmap(
    lambda b: st.builds(Fraction, st.sampled_from(range(1, b + 1)), st.just(b))))
MU_BELOW_ONE = st.sampled_from(range(2, 21)).flatmap(
    lambda b: st.builds(Fraction, st.sampled_from(range(1, b)), st.just(b)))


@st.composite
def rational_phi(draw, n):
    """n x n object array: plain ints, or Fractions of denominator <= 12."""
    integral = draw(st.booleans())
    den = 1 if integral else draw(st.integers(1, 12))
    entries = [Fraction(draw(st.integers(-3 * den, 3 * den)), den) for _ in range(n * n)]
    if integral:
        entries = [int(x) for x in entries]
    phi = np.empty((n, n), dtype=object)
    for k, x in enumerate(entries):
        phi[k // n, k % n] = x
    return phi


def frac_phi(rng, n, denom=12):
    rows = [[Fraction(int(rng.integers(-denom, denom + 1)), denom)
             for _ in range(n)] for _ in range(n)]
    return np.array(rows, dtype=object)


def test_solvable_examples():
    q = DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object), N=10,
                       mu=Fraction(1, 2))
    assert solvable(q) == ((2,), (1,))

    zero = DirichletQuery(phi=np.array([[Fraction(0)]], dtype=object), N=5,
                          mu=Fraction(1, 2))
    assert solvable(zero, convention="paper_both_nonzero") is None
    assert solvable(zero) == ((1,), (0,))

    golden = DirichletQuery(phi=np.array([[(1 + 5 ** 0.5) / 2]]), N=3, mu=0.5)
    assert solvable(golden) is None


def test_solvable_witness_is_valid():
    rng = np.random.default_rng(14)
    for n in (1, 2):
        for _ in range(30):
            q = DirichletQuery(phi=frac_phi(rng, n), N=int(rng.integers(2, 8)),
                               mu=Fraction(int(rng.integers(2, 10)), 10))
            w = solvable(q)
            if w is None:
                continue
            p, qq = (np.array(v, dtype=object) for v in w)
            err = q.phi @ p - qq
            assert max(abs(x) for x in err) < q.mu / q.N
            assert 0 < max(abs(x) for x in p) < q.mu * q.N


@st.composite
def float_phi(draw, n):
    """n x n float64 array of doubles in [-3, 3]."""
    entries = draw(st.lists(st.floats(-3, 3), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=float).reshape(n, n)


# (phi, N, mu): a rational query, or a float phi with N <= 20 and a float mu,
# each float read by the reference as the dyadic rational it stores.
RATIONAL_QUERY = st.tuples(st.sampled_from((1, 2)).flatmap(rational_phi),
                           st.sampled_from(range(1, 41)), MU)
FLOAT_QUERY = st.tuples(st.sampled_from((1, 2)).flatmap(float_phi),
                        st.sampled_from(range(1, 21)),
                        st.one_of(st.just(1.0), st.floats(0.05, 1.0)))


@SETTINGS
@given(st.one_of(RATIONAL_QUERY, FLOAT_QUERY))
def test_exact_solvable_matches_fraction_reference(cell):
    phi, N, mu = cell
    query = DirichletQuery(phi=phi, N=N, mu=mu)
    for convention in ("lattice_p_nonzero", "paper_both_nonzero"):
        assert solvable(query, convention) == reference_solvable(phi.tolist(), N, mu, convention)


# The largest N per n at which the Fraction reference stays quick.
ROW_N_MAX = {1: 60, 2: 16, 3: 5}


@st.composite
def witness_rows(draw):
    """(phi, Ns, mu): a rational phi of size 1-3, an unsorted list of scales
    with repeats, and mu in (0, 1]."""
    n = draw(st.sampled_from((1, 2, 3)))
    Ns = draw(st.lists(st.integers(1, ROW_N_MAX[n]), min_size=1, max_size=6))
    Ns = draw(st.permutations(Ns + Ns[:draw(st.integers(0, len(Ns)))]))
    return draw(rational_phi(n)), Ns, draw(MU)


def assert_row_matches_reference(phi, Ns, mu):
    integral = DirichletQuery(phi=phi, N=1, mu=mu).integral_phi
    for convention in ("lattice_p_nonzero", "paper_both_nonzero"):
        got = first_witnesses(integral, Ns, mu, convention)
        assert got == [reference_solvable(phi.tolist(), N, mu, convention) for N in Ns]
        assert all(type(x) is int for w in got if w is not None for v in w for x in v)


@contextlib.contextmanager
def search_constants(block, int64_limit=None):
    """Set the block size (and the int64 bound) of `first_witnesses`."""
    saved = dirichlet._BLOCK, dirichlet._INT64_LIMIT
    dirichlet._BLOCK = block
    if int64_limit is not None:
        dirichlet._INT64_LIMIT = int64_limit
    try:
        yield
    finally:
        dirichlet._BLOCK, dirichlet._INT64_LIMIT = saved


@SETTINGS
@given(witness_rows())
def test_first_witnesses_match_reference_scale_by_scale(row):
    assert_row_matches_reference(*row)


@settings(SETTINGS, max_examples=60)
@given(witness_rows(), st.sampled_from((1, 2, 3, 7)))
def test_first_witnesses_across_block_boundaries(row, block):
    with search_constants(block):
        assert_row_matches_reference(*row)


@settings(SETTINGS, max_examples=60)
@given(witness_rows())
def test_first_witnesses_in_python_int_arrays(row):
    # Every array holds Python ints, as it does past the int64 bound.
    with search_constants(dirichlet._BLOCK, int64_limit=0):
        assert_row_matches_reference(*row)


@settings(SETTINGS, max_examples=40)
@given(st.sampled_from((1, 2)), st.data())
def test_first_witnesses_with_entries_beyond_int64(n, data):
    # x = (A p)_i b N and the denominators pass 2^62, so int64 would wrap.
    den = data.draw(st.sampled_from((2 ** 61 + 1, 3 ** 41, 1)))
    big = 2 ** 64 if den == 1 else 3 * den
    phi = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            phi[i, j] = Fraction(data.draw(st.integers(-big, big)), den)
    Ns = data.draw(st.lists(st.integers(1, 12 if n == 1 else 6), min_size=1, max_size=4))
    assert_row_matches_reference(phi, Ns, data.draw(MU))


def test_first_witnesses_examples_and_validation():
    third = DirichletQuery(phi=np.array([[Fraction(1, 3)]], dtype=object), N=5,
                           mu=Fraction(9, 10)).integral_phi
    assert first_witnesses(third, [5, 1, 5, np.int64(2)], Fraction(9, 10)) == [
        ((3,), (1,)), None, ((3,), (1,)), ((1,), (0,))]
    zero = (((0,),), 1)
    assert first_witnesses(zero, [5, 2], Fraction(1, 2), "paper_both_nonzero") == [None, None]
    assert first_witnesses(zero, [5, 2], Fraction(1, 2)) == [((1,), (0,)), None]
    assert first_witnesses(zero, [], 1) == []
    with pytest.raises(DomainError):
        first_witnesses(zero, [2], Fraction(1, 2), convention="none_such")
    for bad in (0.5, Fraction(3, 2), 0, True):
        with pytest.raises(InvariantError, match="mu"):
            first_witnesses(zero, [2], bad)
    for bad in (2.7, True, 0):
        with pytest.raises(InvariantError, match="N must be an integer"):
            first_witnesses(zero, [2, bad], Fraction(1, 2))


def test_solvable_is_the_one_scale_search(monkeypatch):
    seen = []
    search = dirichlet.first_witnesses
    monkeypatch.setattr(dirichlet, "first_witnesses",
                        lambda *args: seen.append(args) or search(*args))
    query = DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object), N=10,
                           mu=Fraction(1, 2))
    assert solvable(query, "paper_both_nonzero") == ((2,), (1,))
    assert seen == [((((1,),), 2), [10], Fraction(1, 2), "paper_both_nonzero")]


def test_solvable_monotone_in_mu():
    rng = np.random.default_rng(23)
    for _ in range(25):
        phi = frac_phi(rng, 1)
        N = int(rng.integers(2, 10))
        small = solvable(DirichletQuery(phi=phi, N=N, mu=Fraction(1, 3)))
        if small is not None:
            assert solvable(DirichletQuery(phi=phi, N=N, mu=Fraction(2, 3))) is not None


def test_query_validation():
    phi = np.array([[0.5]])
    with pytest.raises(InvariantError):
        DirichletQuery(phi=phi, N=0, mu=0.5)
    with pytest.raises(InvariantError):
        DirichletQuery(phi=phi, N=2, mu=0.0)
    with pytest.raises(InvariantError):
        DirichletQuery(phi=phi, N=2, mu=1.5)
    with pytest.raises(InvariantError):
        DirichletQuery(phi=np.zeros((1, 2)), N=2, mu=0.5)
    for bad in (True, np.bool_(True)):
        with pytest.raises(InvariantError, match="mu"):
            DirichletQuery(phi=phi, N=2, mu=bad)
    with pytest.raises(DomainError):
        solvable(DirichletQuery(phi=phi, N=2, mu=0.5), convention="none_such")


def test_query_reads_float_mu_exactly():
    query = DirichletQuery(phi=np.array([[0.5]]), N=2, mu=0.7)
    assert type(query.mu) is Fraction and query.mu == Fraction(0.7) != Fraction(7, 10)
    assert DirichletQuery(phi=np.array([[0.5]]), N=2, mu=1).mu == Fraction(1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_query_refuses_non_finite_phi_by_entry(bad):
    phi = np.array([[0.25, 0.5], [bad, 1.0]])
    with pytest.raises(InvariantError, match=r"phi\[1, 0\] must be finite"):
        DirichletQuery(phi=phi, N=2, mu=0.5)
    mixed = np.array([[Fraction(1, 3), 2], [float(bad), Fraction(1, 2)]], dtype=object)
    with pytest.raises(InvariantError, match=r"phi\[1, 0\] must be finite"):
        DirichletQuery(phi=mixed, N=2, mu=Fraction(1, 2))


def test_query_n_accepts_integer_types_and_refuses_bools():
    phi = np.array([[Fraction(1, 3)]], dtype=object)
    for N in (True, False, np.bool_(True), 5.0, Fraction(5), "5", np.int64(0)):
        with pytest.raises(InvariantError, match="N must be an integer"):
            DirichletQuery(phi=phi, N=N, mu=Fraction(1, 2))
    query = DirichletQuery(phi=phi, N=np.int64(5), mu=Fraction(1, 2))
    assert type(query.N) is int and query.N == 5
    assert type(DirichletQuery(phi=phi, N=np.uint8(5), mu=Fraction(1, 2)).N) is int
    plain = DirichletQuery(phi=phi, N=5, mu=Fraction(1, 2))
    assert solvable(query) == solvable(plain) == reference_solvable([[Fraction(1, 3)]], 5,
                                                                    Fraction(1, 2))
    assert correspondence_check(query) == correspondence_check(plain)
    assert all(type(x) is int for col in correspondence_basis(query).int_cols for x in col)


def test_integral_phi_is_derived_once_per_query(monkeypatch):
    phi = np.array([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]], dtype=object)
    query = DirichletQuery(phi=phi, N=7, mu=Fraction(2, 3))
    assert query.integral_phi == (((6, 36), (-8, 15)), 12)
    fresh = DirichletQuery(phi=phi, N=7, mu=Fraction(2, 3))
    seen = []
    integral = _linalg.integral
    monkeypatch.setattr(_linalg, "integral", lambda xs: seen.append(len(xs)) or integral(xs))
    correspondence_check(fresh)
    assert seen.count(4) == 1  # phi's entries, once; the det clears its own 16
    assert correspondence_check(fresh) == correspondence_check(query)


def test_mu_one_solvable_but_not_checkable():
    # the classical theorem guarantees a witness at mu = 1 for every phi
    q = DirichletQuery(phi=np.array([[0.3]]), N=7, mu=1.0)
    assert solvable(q) is not None
    with pytest.raises(DomainError, match=r"^mu must lie in \(0, 1\), got 1$"):
        correspondence_check(q)
    for mu in (1.0, 1, Fraction(1)):
        with pytest.raises(DomainError, match=r"^mu must lie in \(0, 1\), got 1$"):
            correspondence_row(np.array([[0.3]]), [7, 2], mu)


def test_correspondence_examples():
    soluble = correspondence_check(
        DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object), N=10,
                       mu=Fraction(1, 2)))
    assert soluble == {"insoluble": False, "in_kmu": False, "agree": True,
                       "witness": ((2,), (1,))}

    third = correspondence_check(
        DirichletQuery(phi=np.array([[Fraction(1, 3)]], dtype=object), N=5,
                       mu=Fraction(9, 10)))
    assert not third["insoluble"] and third["witness"] == ((3,), (1,))

    edge = correspondence_check(
        DirichletQuery(phi=np.array([[Fraction(0)]], dtype=object), N=2,
                       mu=Fraction(1, 2)))
    assert edge["insoluble"] and edge["in_kmu"] and edge["agree"]


def test_correspondence_agrees_on_random_rational_cells():
    rng = np.random.default_rng(51)
    for n in (1, 2):
        for _ in range(15):
            q = DirichletQuery(phi=frac_phi(rng, n, denom=9),
                               N=int(rng.integers(1, 7)),
                               mu=Fraction(int(rng.integers(1, 10)), 10))
            assert correspondence_check(q)["agree"]


@SETTINGS
@given(rational_phi(2), st.sampled_from(range(1, 21)), MU_BELOW_ONE)
def test_correspondence_check_agrees_at_n2(phi, N, mu):
    res = correspondence_check(DirichletQuery(phi=phi, N=N, mu=mu))
    assert res["agree"]
    if res["witness"] is not None:
        p, q = res["witness"]
        assert 0 < max(abs(x) for x in p) < mu * N
        assert max(abs(sum(phi[i, j] * p[j] for j in range(2)) - q[i]) for i in range(2)) < mu / N


@settings(SETTINGS, max_examples=60)
@given(st.sampled_from((1, 2)).flatmap(rational_phi), st.lists(st.integers(1, 12), min_size=1,
                                                                 max_size=5), MU_BELOW_ONE)
def test_correspondence_row_is_correspondence_check_cell_by_cell(phi, Ns, mu):
    assert correspondence_row(phi, Ns, mu) == [
        correspondence_check(DirichletQuery(phi=phi, N=N, mu=mu)) for N in Ns]


def test_correspondence_row_writes_phi_once_and_builds_every_basis(monkeypatch):
    phi = np.array([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]], dtype=object)
    seen, bases = [], []
    integral = _linalg.integral
    monkeypatch.setattr(_linalg, "integral", lambda xs: seen.append(len(xs)) or integral(xs))
    closed_form = dirichlet._closed_form_cols
    monkeypatch.setattr(dirichlet, "_closed_form_cols",
                        lambda A, D, N: bases.append(N) or closed_form(A, D, N))
    cells = correspondence_row(phi, [7, 2, 7, 5], Fraction(2, 3))
    assert seen.count(4) == 1 and bases == [7, 2, 7, 5]
    assert cells[0] == cells[2] and all(cell["agree"] for cell in cells)
    assert correspondence_row(phi, [], Fraction(2, 3)) == []
    floats = correspondence_row(np.array([[0.3]]), [3, 7], 0.5)
    assert floats == [correspondence_check(DirichletQuery(phi=np.array([[0.3]]), N=N, mu=0.5))
                      for N in (3, 7)]


def test_float_row_takes_the_integral_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("float LLL reached")
    monkeypatch.setattr(lattice, "_lll", refuse)
    monkeypatch.setattr(lattice, "_COMPILED", (refuse, "refused by the test"))
    phi = np.array([[0.1, 0.25], [-0.3, 0.05]])
    cells = correspondence_row(phi, [2, 5, 13], 0.65)
    assert all(cell["agree"] for cell in cells)
    assert [cell["witness"] for cell in cells] == [
        reference_solvable(phi.tolist(), N, 0.65) for N in (2, 5, 13)]
    assert cells[2]["witness"] == ((7, 1), (1, -2))  # floats round this one away


def test_insolubility_matches_shortest_vector_threshold():
    rng = np.random.default_rng(63)
    for _ in range(15):
        q = DirichletQuery(phi=frac_phi(rng, 1, denom=7),
                           N=int(rng.integers(1, 8)),
                           mu=Fraction(int(rng.integers(1, 10)), 10))
        lam1 = shortest_supnorm(correspondence_basis(q)).length
        assert (solvable(q) is None) == (lam1 >= q.mu)


def test_correspondence_basis_shape():
    q = DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object), N=4,
                       mu=Fraction(1, 2))
    b = correspondence_basis(q)
    assert b.exact
    assert b.cols[0, 0] == 4 and b.cols[0, 1] == 2 and b.cols[1, 1] == Fraction(1, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_correspondence_basis_equals_group_product(n):
    rng = np.random.default_rng(80 + n)
    for N in (1, 2, 7, 50):
        phi = frac_phi(rng, n)
        basis = correspondence_basis(DirichletQuery(phi=phi, N=N, mu=Fraction(1, 2)))
        ref = (a_scale(Fraction(N), n) @ u_embed(phi)).entries
        assert basis.exact and not basis.cols.flags.writeable
        assert basis.cols.shape == ref.shape
        assert all(type(x) is type(y) and x == y
                   for x, y in zip(basis.cols.ravel(), ref.ravel()))


def test_exact_correspondence_basis_checks_det_from_its_closed_form(monkeypatch):
    def refuse(a):
        raise AssertionError("the closed-form basis ran a general determinant")

    monkeypatch.setattr(_linalg, "det", refuse)
    phi = np.array([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 4)]], dtype=object)
    basis = correspondence_basis(DirichletQuery(phi=phi, N=4, mu=Fraction(1, 2)))
    cols, den = basis.int_cols, basis.den
    A, D = DirichletQuery(phi=phi, N=4, mu=Fraction(1, 2)).integral_phi
    assert cols == dirichlet._closed_form_cols(A, D, 4) and den == 4 * D
    dirichlet._check_triangular(cols, den)
    assert correspondence_row(phi, [4], Fraction(1, 2))[0]["agree"]
    # (column, row, value): below the diagonal in the lower-left block, in
    # the top-left and in the bottom-right block; then a diagonal entry
    # doubled and negated, which keeps the matrix triangular
    for j, i, value in ((0, 2, 1), (0, 1, 1), (2, 3, -1), (3, 3, 2 * cols[3][3]),
                        (3, 3, -cols[3][3])):
        bad = [list(col) for col in cols]
        bad[j][i] = value
        bad = tuple(map(tuple, bad))
        with pytest.raises(InvariantError, match="det"):
            dirichlet._check_triangular(bad, den)
        # the row checks every cell's columns the same way
        monkeypatch.setattr(dirichlet, "_closed_form_cols", lambda A, D, N, bad=bad: bad)
        with pytest.raises(InvariantError, match="det"):
            correspondence_row(phi, [4], Fraction(1, 2))
        with pytest.raises(InvariantError, match="det"):
            correspondence_basis(DirichletQuery(phi=phi, N=4, mu=Fraction(1, 2)))


def test_scan_smoke_and_fraction_monotone():
    line = MatrixPolyCurve.from_coeffs([[[Fraction(0)]], [[Fraction(1)]]],
                                       (Fraction(0), Fraction(1)))
    s_grid = [Fraction(k, 8) for k in range(9)]
    table = improvability_scan(line, Fraction(1, 2), s_grid, range(2, 12))
    assert table.insoluble.shape == (9, 10)
    fr = [table.fraction_with_at_least(k) for k in (1, 2, 3, 5)]
    assert fr == sorted(fr, reverse=True)
    assert table.summary()["grid_points"] == 9
    with pytest.raises(DomainError):
        table.fraction_with_at_least(0)


def test_scan_on_constant_curve():
    flat = MatrixPolyCurve.from_coeffs([[[Fraction(1, 2)]]], (Fraction(0), Fraction(1)))
    table = improvability_scan(flat, Fraction(1, 2), [Fraction(0), Fraction(1, 2)], [10])
    assert np.array_equal(table.insoluble, [[0], [0]])


def test_scan_csv_golden():
    flat = MatrixPolyCurve.from_coeffs([[[Fraction(0)]]], (Fraction(0), Fraction(1)))
    table = improvability_scan(flat, Fraction(1, 2), [Fraction(0)], [2, 3])
    assert table.to_csv_text() == "s,N,insoluble\n0.0,2,1\n0.0,3,0\n"


def test_scan_reads_n_by_the_query_rule():
    line = MatrixPolyCurve.from_coeffs([[[Fraction(0)]], [[Fraction(1)]]],
                                       (Fraction(0), Fraction(1)))
    for bad in (2.7, True, np.bool_(True), "5", 0, np.int64(-3)):
        with pytest.raises(InvariantError, match="N must be an integer"):
            improvability_scan(line, Fraction(1, 2), [Fraction(1, 3)], [2, bad, 5])
    table = improvability_scan(line, Fraction(1, 2), [Fraction(1, 3)], [np.int64(5), 2])
    assert table.N_set == (5, 2) and all(type(N) is int for N in table.N_set)


def test_scan_rows_match_the_reference_cell_by_cell():
    quad = MatrixPolyCurve.from_coeffs([[[Fraction(-1, 8)]], [[Fraction(5, 4)]],
                                        [[Fraction(3, 16)]]], (Fraction(0), Fraction(1)))
    s_grid = [Fraction(k, 11) for k in range(12)]
    Ns = [9, 2, 30, 9, 17, 1]
    for mu, convention in ((Fraction(1, 2), "lattice_p_nonzero"),
                           (1, "paper_both_nonzero")):
        table = improvability_scan(quad, mu, s_grid, Ns, convention=convention)
        want = [[int(reference_solvable(quad.eval(s).tolist(), N, mu, convention) is None)
                 for N in Ns] for s in s_grid]
        assert table.insoluble.tolist() == want


def test_scan_rejects_empty_inputs():
    flat = MatrixPolyCurve.from_coeffs([[[Fraction(0)]]], (Fraction(0), Fraction(1)))
    with pytest.raises(DomainError):
        improvability_scan(flat, Fraction(1, 2), [], [2])
    with pytest.raises(DomainError):
        improvability_scan(flat, Fraction(1, 2), [Fraction(0)], [])
