import math
from fractions import Fraction

import numpy as np
import pytest
from det_reference import reference_det_exact
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from danilab import _linalg
from danilab.errors import InvariantError, SingularMatrixError

# zero-heavy entries: ints, Fractions with denominators <= 12, and exact floats
ENTRY = st.one_of(st.just(0), st.integers(-9, 9),
                  st.fractions(min_value=-9, max_value=9, max_denominator=12),
                  st.sampled_from((0.5, -0.25, 3.0)))


def test_det_float_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.uniform(-2, 2, (3, 3))
        assert abs(_linalg.det(a) - np.linalg.det(a)) < 1e-10


def test_det_exact_fraction():
    a = _linalg.frac_matrix([[Fraction(1, 2), 1], [3, Fraction(4, 5)]])
    assert _linalg.det(a) == Fraction(1, 2) * Fraction(4, 5) - 3
    b = _linalg.frac_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert _linalg.det(b) == -3


def test_inv_exact_round_trip():
    a = _linalg.frac_matrix([[2, 1], [1, 1]])
    ainv = _linalg.inv(a)
    prod = a @ ainv
    assert prod[0, 0] == 1 and prod[0, 1] == 0 and prod[1, 1] == 1


def test_inv_float_round_trip():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
    assert np.allclose(a @ _linalg.inv(a), np.eye(4), atol=1e-10)


def test_inv_singular_raises():
    with pytest.raises(SingularMatrixError):
        _linalg.inv(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        _linalg.inv(_linalg.frac_matrix([[1, 2], [2, 4]]))


def test_nullspace_float():
    dim, basis = _linalg.nullspace(np.array([[1.0, 1.0]]))
    assert dim == 1 and len(basis) == 1
    v = basis[0]
    assert abs(v[0] + v[1]) < 1e-12 and abs(np.linalg.norm(v) - 1) < 1e-12


def test_nullspace_exact_certifies_dimension():
    a = _linalg.frac_matrix([[1, 2, 3], [2, 4, 6]])  # rank 1
    dim, basis = _linalg.nullspace(a)
    assert dim == 2 and len(basis) == 2
    for v in basis:
        assert abs(v[0] + 2 * v[1] + 3 * v[2]) < 1e-12


def test_nullspace_zero_rows_full_space():
    dim, basis = _linalg.nullspace(np.zeros((0, 3)))
    assert dim == 3 and len(basis) == 3


def test_orthonormal_span_rank_and_orthogonality():
    vecs = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]),
            np.array([2.0, 1.0, 0.0])]  # dependent triple spanning a plane
    rank, basis = _linalg.orthonormal_span(vecs)
    assert rank == 2
    G = np.array([[float(u @ v) for v in basis] for u in basis])
    assert np.allclose(G, np.eye(2), atol=1e-12)


def test_is_exact_flags_object_dtype():
    assert _linalg.is_exact(_linalg.frac_matrix([[1]]))
    assert not _linalg.is_exact(np.array([[1.0]]))


def test_mode_rule_takes_ints_and_fractions_but_never_bools():
    assert all(_linalg.is_exact_scalar(x) for x in (0, -3, 10 ** 30, Fraction(1, 2)))
    assert not any(_linalg.is_exact_scalar(x) for x in (True, False, 0.5, np.int64(1), "1/2"))


@pytest.mark.parametrize("value, message", [
    # a Fraction is compared exactly, even within tol of its target
    (1 + Fraction(1, 10 ** 12), "exact det = 1000000000001/1000000000000 != 1"),
    (1.5, "det = 1.5 deviates from 1 beyond 1e-08"),
    (np.float64(1.5), "det = 1.5 deviates from 1 beyond 1e-08"),
    (math.nan, "det = nan deviates from 1 beyond 1e-08"),
    (math.inf, "det = inf deviates from 1 beyond 1e-08"),
], ids=["exact", "float", "float64", "nan", "inf"])
def test_check_equals_refusals(value, message):
    with pytest.raises(InvariantError) as info:
        _linalg.check_equals(value, 1, 1e-8, InvariantError, "det")
    assert str(info.value) == message


def test_check_equals_accepts_its_target():
    for value in (Fraction(1), 1, 1.0, 1 + 1e-9, np.float64(1 - 1e-9)):
        _linalg.check_equals(value, 1, 1e-8, InvariantError, "det")
    _linalg.check_equals(Fraction(0), 0, 1e-10, InvariantError, "trace")


@st.composite
def exact_square(draw):
    """An m x m object matrix, m = 1..6; its leading column may be zeroed
    above a nonzero entry (a row swap at the first pivot), and one row may be
    made a rational multiple of another (singular)."""
    m = draw(st.integers(1, 6))
    a = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            a[i, j] = draw(ENTRY)
    if m >= 2 and draw(st.booleans()):
        a[0, 0] = 0
        a[m - 1, 0] = draw(st.integers(1, 9))
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        a[i] = [c * x for x in a[j]]
    return a


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(exact_square())
def test_det_exact_equals_fraction_elimination(a):
    got = _linalg.det(a)
    want = reference_det_exact(a)
    assert type(got) is Fraction and got == want


def test_det_exact_swaps_and_singular_cases():
    swap = _linalg.frac_matrix([[0, 1, 2], [0, 3, 4], [5, 6, 7]])
    assert _linalg.det(swap) == reference_det_exact(swap) == -10
    half = _linalg.frac_matrix([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]])
    assert _linalg.det(half) == 0 and type(_linalg.det(half)) is Fraction
    assert _linalg.det(np.empty((0, 0), dtype=object)) == 1


def test_integral_takes_all_int_entries_as_they_are():
    ints = [3, -4, 0, 7]
    flat, den = _linalg.integral(ints)
    assert (flat, den) == (ints, 1) and flat is not ints
    assert all(type(x) is int for x in flat)
    assert _linalg.integral([Fraction(1, 2), 3]) == ([1, 6], 2)
    assert _linalg.integral([True, 2]) == ([1, 2], 1)  # a bool is read as a Fraction
    a = np.array([[2, 3], [1, 2]], dtype=object)
    assert _linalg.det(a) == reference_det_exact(a) == 1 and type(_linalg.det(a)) is Fraction
