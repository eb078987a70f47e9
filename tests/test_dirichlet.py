from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from solvable_reference import reference_solvable

from danilab import (DirichletQuery, MatrixPolyCurve, a_scale, correspondence_basis,
                     correspondence_check, improvability_scan, shortest_supnorm,
                     solvable, u_embed)
from danilab import _linalg
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


@SETTINGS
@given(st.sampled_from((1, 2)).flatmap(rational_phi), st.sampled_from(range(1, 41)), MU)
def test_exact_solvable_matches_fraction_reference(phi, N, mu):
    query = DirichletQuery(phi=phi, N=N, mu=mu)
    for convention in ("lattice_p_nonzero", "paper_both_nonzero"):
        assert solvable(query, convention) == reference_solvable(phi.tolist(), N, mu, convention)


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
    with pytest.raises(DomainError):
        solvable(DirichletQuery(phi=phi, N=2, mu=0.5), convention="none_such")


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
    with pytest.raises(DomainError):
        correspondence_check(q)


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


def test_exact_correspondence_basis_runs_one_det_check(monkeypatch):
    query = DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object), N=4,
                           mu=Fraction(1, 2))
    seen = []
    exact_det = _linalg.det
    monkeypatch.setattr(_linalg, "det", lambda a: seen.append(a) or exact_det(a))
    correspondence_basis(query)
    assert len(seen) == 1
    monkeypatch.setattr(_linalg, "det", lambda a: Fraction(-1))
    with pytest.raises(InvariantError, match="det"):
        correspondence_basis(query)


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


def test_scan_rejects_empty_inputs():
    flat = MatrixPolyCurve.from_coeffs([[[Fraction(0)]]], (Fraction(0), Fraction(1)))
    with pytest.raises(DomainError):
        improvability_scan(flat, Fraction(1, 2), [], [2])
    with pytest.raises(DomainError):
        improvability_scan(flat, Fraction(1, 2), [Fraction(0)], [])
