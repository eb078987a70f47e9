"""The per-cell kernels of a correspondence cell against the generic loops
of `closed_form_reference`.

`dirichlet._closed_form_cols` writes the integer columns of [[N^2 D I,
N^2 A], [0, D I]] and `dirichlet._check_triangular` checks det == 1 from
their triangular form, each by one kernel generated per dimension m = 2n.
For n = 1, 2 and 3 the columns must equal the reference columns, and every
single-entry corruption of them (each position below the diagonal, and each
diagonal entry doubled or negated) must be refused by both checks with the
same InvariantError text. The kernels have no size bound of their own:
`correspondence_basis` writes and checks bases past the walk's MAX_DIM, and
an empty phi is refused where the query is made.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form_reference
from danilab import dirichlet, lattice
from danilab.errors import InvariantError, UnsupportedSizeError

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# small and large integers: the columns hold Python ints of any size
INTS = st.integers(-40, 40) | st.integers(-2 ** 70, 2 ** 70)


@st.composite
def cells(draw):
    """(A, D, N) of one cell at n = 1, 2 or 3: phi = A / D at scale N."""
    n = draw(st.integers(1, 3))
    A = tuple(tuple(draw(INTS) for _ in range(n)) for _ in range(n))
    return A, draw(st.integers(1, 50) | st.integers(1, 2 ** 70)), draw(st.integers(1, 10 ** 6))


def refusal(check, cols, den):
    """The text of the InvariantError check(cols, den) raises, or None."""
    try:
        check(cols, den)
    except InvariantError as exc:
        return str(exc)
    return None


@SETTINGS
@given(cells())
def test_generated_columns_are_the_reference_columns(cell):
    A, D, N = cell
    cols = dirichlet._closed_form_cols(A, D, N)
    assert cols == closed_form_reference.closed_form_cols(A, D, N)
    assert type(cols) is tuple and all(type(col) is tuple for col in cols)
    assert all(type(x) is int for col in cols for x in col)
    assert refusal(dirichlet._check_triangular, cols, N * D) is None
    assert refusal(closed_form_reference.check_triangular, cols, N * D) is None


@SETTINGS
@given(cells(), INTS.filter(bool))
def test_every_single_entry_corruption_is_refused_with_the_reference_text(cell, value):
    A, D, N = cell
    cols, den = closed_form_reference.closed_form_cols(A, D, N), N * D
    m = len(cols)
    # (column, row, new value): each position below the diagonal, then each
    # diagonal entry doubled and negated, which keeps the matrix triangular
    corruptions = [(j, i, value) for j in range(m) for i in range(j + 1, m)]
    corruptions += [(j, j, x * cols[j][j]) for j in range(m) for x in (2, -1)]
    for j, i, x in corruptions:
        bad = [list(col) for col in cols]
        bad[j][i] = x
        bad = tuple(map(tuple, bad))
        want = refusal(closed_form_reference.check_triangular, bad, den)
        assert want is not None and refusal(dirichlet._check_triangular, bad, den) == want
        assert ("below the diagonal" in want) == (i > j)


@pytest.mark.parametrize("source, name", [
    (dirichlet._closed_form_cols_source, "dirichlet._closed_form_cols"),
    (dirichlet._check_triangular_source, "dirichlet._check_triangular")])
def test_cell_kernels_are_straight_line_and_compiled_once_per_m(source, name):
    for m in (2, 4, 6):
        text = source(m)
        assert "for " not in text and "range(" not in text and "any(" not in text
        kernel = dirichlet._cell_kernel(source, m)
        assert kernel is dirichlet._cell_kernel(source, m)
        assert kernel.__code__.co_filename == f"<{name} m={m}>"


@pytest.mark.parametrize("n", [1, 4, 5, 8])
def test_correspondence_basis_has_no_size_bound(n):
    """The walk's MAX_DIM bounds queries, not the basis: at 2n > MAX_DIM
    `correspondence_basis` still writes and checks the closed-form columns."""
    phi = np.array([[Fraction(3 * i - j, 7 + i + j) for j in range(n)] for i in range(n)],
                   dtype=object)
    query = dirichlet.DirichletQuery(phi, 5, Fraction(1, 2))
    A, D = query.integral_phi
    basis = dirichlet.correspondence_basis(query)
    assert basis.int_cols == closed_form_reference.closed_form_cols(A, D, 5)
    assert basis.den == 5 * D
    if 2 * n > lattice.MAX_DIM:
        with pytest.raises(UnsupportedSizeError):
            lattice.in_kmu(basis, Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda phi: dirichlet.DirichletQuery(phi, 3, Fraction(1, 2)),
    lambda phi: dirichlet.correspondence_row(phi, [3], Fraction(1, 2))])
def test_an_empty_phi_is_refused_before_any_search(call):
    with pytest.raises(InvariantError, match=r"phi must be n x n with n >= 1, got shape \(0, 0\)"):
        call(np.zeros((0, 0), dtype=object))


def test_cell_kernel_sources_spell_out_every_entry():
    cols = dirichlet._closed_form_cols_source(4)
    assert "(a0_0, a0_1), (a1_0, a1_1) = A" in cols
    assert ("return ((top, 0, 0, 0), (0, top, 0, 0), (N2 * a0_0, N2 * a1_0, D, 0), "
            "(N2 * a0_1, N2 * a1_1, 0, D))") in cols
    check = dirichlet._check_triangular_source(4)
    assert "if c0_1 or c0_2 or c0_3 or c1_2 or c1_3 or c2_3:" in check
    assert "d = c0_0 * c1_1 * c2_2 * c3_3" in check and "if d != den ** 4:" in check
