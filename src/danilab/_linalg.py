"""Dual-mode linear algebra helpers.

Matrices travel as numpy arrays in one of two modes:

* float64 arrays take numpy's floating-point routines; every float rank
  and span (`nullspace`, `orthonormal_span`) comes from numpy's SVD;
* object-dtype arrays whose entries are ``Fraction``/``int`` take exact
  rational routines implemented here.

The exact routines are plain Gaussian elimination (fraction-free, in
integers, for the determinant); everything in this package is desk scale
(dimension <= ~30), so asymptotics do not matter but exactness does.

Two rules are written here once for the whole package:

* the mode rule, `is_exact_scalar`: an int or Fraction (never a bool)
  selects exact arithmetic, anything else is read in floats;
* the unit check, `check_equals`: a computed invariant (a determinant, a
  trace) must equal its target exactly when it is a Fraction, and within a
  tolerance otherwise, nan failing; `unit_failures` is the same check over a
  float stack, in the form `errors.raise_first` reads.
"""

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import InternalIdentityError, SingularMatrixError

RANK_TOL = 1e-9  # relative rank threshold; a singular value that is 0 rounds to ~1e-15


def is_exact(a: np.ndarray) -> bool:
    """True if the array is in exact-rational (object dtype) mode."""
    return a.dtype == object


def is_exact_scalar(x) -> bool:
    """The mode rule: True for an int or Fraction, never for a bool."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def check_equals(value, target, tol: float, error, name: str) -> None:
    """Raise error(message) unless value equals target: exactly when value
    is a Fraction, within tol otherwise (nan fails). The message names the
    value as `name`."""
    if isinstance(value, Fraction):
        if value != target:
            raise error(f"exact {name} = {value} != {target}")
    elif not abs(value - target) <= tol:
        raise _deviation(value, target, tol, error, name)


def unit_failures(values: np.ndarray, target, tol: float, error, name: str) -> tuple:
    """`check_equals` over a float array: (mask of the entries it refuses,
    the error it raises for entry i), the pair `errors.raise_first` takes."""
    bad = ~(np.abs(values - target) <= tol)
    return bad, lambda i: _deviation(values[i], target, tol, error, name)


def _deviation(value, target, tol: float, error, name: str):
    return error(f"{name} = {float(value)!r} deviates from {target} beyond {tol}")


def frac_matrix(rows) -> np.ndarray:
    """Build an exact matrix: every entry coerced to a Fraction of Python
    ints. An integer of any type (numpy's included), and the numerator and
    denominator of a Fraction that holds one, is read through
    operator.index, as in `integral`."""
    data = [[Fraction(*_ratio(x)) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def frac_vector(entries) -> np.ndarray:
    """`frac_matrix` for a vector."""
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = Fraction(*_ratio(x))
    return out


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float)


def eye(m: int, exact: bool = False) -> np.ndarray:
    if not exact:
        return np.eye(m)
    out = np.full((m, m), Fraction(0), dtype=object)
    for i in range(m):
        out[i, i] = Fraction(1)
    return out


def zeros(shape, exact: bool = False) -> np.ndarray:
    if not exact:
        return np.zeros(shape)
    return np.full(shape, Fraction(0), dtype=object)


def det(a: np.ndarray):
    """Determinant; Fraction in exact mode, float otherwise."""
    if is_exact(a):
        return _det_exact(a)
    return float(np.linalg.det(a))


def integral(entries) -> tuple:
    """(ints, den): exact entries written as ints[k] / den over their least
    common denominator den, every one a Python int. Entries that are all
    ints come back at once, over den 1. Any other integer type (numpy's
    included), and the numerator and denominator of a Fraction that holds
    one, is read through operator.index, so no fixed-width integer reaches
    the exact arithmetic, where it would overflow silently."""
    if all(type(x) is int for x in entries):
        return list(entries), 1
    pairs = [(x, 1) if type(x) is int else _ratio(x) for x in entries]
    den = math.lcm(*(d for _, d in pairs))
    return [p * (den // d) for p, d in pairs], den


def _ratio(x) -> tuple:
    """(numerator, denominator) of the exact value of x, as Python ints."""
    if isinstance(x, Fraction):
        return operator.index(x.numerator), operator.index(x.denominator)
    if hasattr(x, "__index__"):
        return operator.index(x), 1
    return Fraction(x).as_integer_ratio()


def _det_exact(a: np.ndarray) -> Fraction:
    """The determinant of the exact matrix a: `int_det` of the integer
    matrix D a, with D the common denominator, over D^m."""
    m = a.shape[0]
    flat, den = integral(a.ravel().tolist())
    return Fraction(int_det([flat[i * m:(i + 1) * m] for i in range(m)]), den ** m)


def int_det(rows) -> int:
    """Determinant of the square integer matrix with the given rows, by
    fraction-free (Bareiss) elimination: every quotient is exact, and the
    pivot search and row-swap sign are those of Gaussian elimination (an
    entry of step k is the Gaussian one times the product of the earlier
    pivots, so the two agree on which entries vanish)."""
    rows = [list(row) for row in rows]
    m = len(rows)
    sign = 1
    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col]
        pivot = top[col]
        for r in range(col + 1, m):
            row = rows[r]
            lead = row[col]
            # entries left of col + 1 are no longer read
            row[col + 1:] = [(x * pivot - lead * y) // prev
                             for x, y in zip(row[col + 1:], top[col + 1:])]
        prev = pivot
    return sign * prev


def inv(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Inverse with an explicit singularity guard (|det| > tol in float mode).
    A float (..., m, m) stack is inverted matrix by matrix; the first
    singular one raises."""
    if is_exact(a):
        return _inv_exact(a)
    d = np.linalg.det(a)
    if d.ndim:  # a stack stands or falls with its first singular matrix
        d = d.flat[np.argmax(np.abs(d) <= tol)]
    d = float(d)
    if abs(d) <= tol:
        raise SingularMatrixError(f"matrix is numerically singular, |det| = {abs(d):.3e}", det=d)
    return np.linalg.inv(a)


def _rref(rows: list, ncols: int) -> list:
    """Gauss-Jordan elimination of the Fraction rows (lists, replaced in
    place) on their first ncols columns: each pivot row is scaled to a
    leading 1 and its column cleared in every other row. Returns the pivot
    columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                factor = row[col]
                rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots


def _inv_exact(a: np.ndarray) -> np.ndarray:
    """The right block of RREF([a | I]); a is singular unless its first m
    columns are all pivots."""
    m = a.shape[0]
    rows = [[Fraction(a[i, j]) for j in range(m)] + [Fraction(int(i == j)) for j in range(m)]
            for i in range(m)]
    if len(_rref(rows, m)) < m:
        raise SingularMatrixError("exact matrix is singular", det=Fraction(0))
    out = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            out[i, j] = rows[i][m + j]
    return out


def nullspace(a: np.ndarray, tol: float = RANK_TOL):
    """Nullspace of a (rows x cols) matrix.

    Returns (dim, basis) where basis is a list of float vectors, orthonormal.
    In exact mode the dimension is computed over the rationals (RREF), so it
    cannot flicker with conditioning; the returned basis is the exact one
    re-orthonormalized in floats. In float mode this is the one-matrix case
    of `nullspaces`.
    """
    nrows, ncols = a.shape
    if nrows and ncols and is_exact(a):
        exact_basis = _nullspace_exact(a)
        rank, ortho = orthonormal_span(exact_basis, tol=1e-12)
        if rank != len(exact_basis):
            raise InternalIdentityError("exact nullspace basis lost rank in float conversion")
        return len(exact_basis), ortho
    (rank,), (vh,) = nullspaces(a[None], tol)
    return ncols - rank, list(vh[rank:])


def nullspaces(a: np.ndarray, tol: float = RANK_TOL):
    """(ranks, vh) for a float (R, rows, cols) stack, from one stacked SVD:
    matrix j has rank ranks[j], the number of its singular values above
    tol * max(s_max, 1) (none when s_max = 0), and its nullspace has the
    orthonormal basis vh[j, ranks[j]:]. A matrix without rows has the unit
    vectors as its basis."""
    count, nrows, ncols = a.shape
    if not (nrows and ncols):
        return [0] * count, np.repeat(np.eye(ncols)[None], count, axis=0)
    _, s, vh = np.linalg.svd(a)
    ranks = np.sum(s > tol * np.maximum(s[:, :1], 1.0), axis=1)
    return ranks.tolist(), vh


def _nullspace_exact(a: np.ndarray):
    nrows, ncols = a.shape
    rows = [[Fraction(a[i, j]) for j in range(ncols)] for i in range(nrows)]
    pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(frac_vector(v))
    return basis


def orthonormal_span(vectors, tol: float = RANK_TOL):
    """Rank and orthonormal basis of span(vectors), from one SVD of the
    vectors stacked as rows: the rank counts the singular values above
    tol * s[0], and the basis is the first rank right singular vectors.

    The threshold is relative to the family's largest singular value, so the
    rank is invariant under rescaling the whole family; an empty or all-zero
    family has rank 0.
    """
    stack = np.asarray(vectors, dtype=float)
    if stack.size == 0:
        return 0, []
    _, s, vh = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return rank, list(vh[:rank])


def sup_norm(a) -> float:
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0
