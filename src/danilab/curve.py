"""Matrix polynomial curves s -> phi(s) and their local invertibility geometry.

A curve is a polynomial with n x n matrix coefficients on an interval.
The operations here answer one question in several forms: how does the
family of shifted inverses s -> (phi(s) - phi(s0))^-1 sit inside matrix
space near s0? Full affine span (rank n^2) is the generic case; anything
lower is a witness of degeneracy.

A curve holds one coefficient stack, whose entries `from_coeffs` reads once
each. phi(s) and phi'(s) come from one Horner kernel, `_horner`, over the
stacks of a mode, built on the mode's first use, so an exact curve evaluated
only exactly makes no float. `_at` picks the mode of one point by the
package's rule (`_linalg.is_exact_scalar`): Fractions when the curve is exact
and s is an int or Fraction, floats otherwise. No caller picks a mode of its
own: `reptheory.obstruction_subspace` works in the mode of the matrices
`eval` returns, and `genericity_test` reads its nodes and s0 in floats
through `eval_many`.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _linalg
from .errors import (DegenerateInputError, DomainError, InvariantError,
                     OrientationError, SingularMatrixError)

INVERTIBILITY_TOL = 1e-9
CENTRALIZER_DET_TOL = 1e-10  # det(B) det(C) of a float element rounds to 1 within ~1e-15


def _horner(coeffs: np.ndarray, s, shape) -> np.ndarray:
    """sum_k coeffs[k] s^k by Horner's rule as a new array of the given shape;
    s is a float or an (M, 1, 1) array of floats over a float stack, or an
    int or Fraction over a Fraction stack."""
    if len(coeffs) == 1:
        return np.array(np.broadcast_to(coeffs[0], shape))
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * s + c
    return out


def _horner_stacks(cs: np.ndarray) -> tuple:
    """(cs, the stack of phi'), read-only: phi' has coefficients k cs[k], k an int."""
    ds = (np.array([c * k for k, c in enumerate(cs[1:], 1)]) if len(cs) > 1
          else _linalg.zeros(cs.shape, _linalg.is_exact(cs)))
    cs.flags.writeable = ds.flags.writeable = False
    return cs, ds


def _number(x, where: str):
    """A curve entry or end: a "p/q" string as a Fraction, another real (no bool) as is."""
    if isinstance(x, bool) or not isinstance(x, (str, numbers.Real)):
        raise DomainError(f"{where}: expected int/float/str, got {type(x).__name__}")
    try:
        return Fraction(x) if isinstance(x, str) else x
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{where}: cannot parse rational {x!r}") from exc


@dataclass(frozen=True)
class MatrixPolyCurve:
    """Polynomial curve phi(s) = sum_k coeffs[k] s^k on [a, b].

    coeffs is one read-only (degree + 1, n, n) stack, coeffs[k] the
    coefficient of s^k: Fractions (object dtype) for an exact curve, float64
    otherwise. A refusal names its field (`coeffs[k]`, `interval`) first.
    """

    n: int
    degree: int
    coeffs: np.ndarray
    interval: tuple

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise DomainError(f"interval: expected a < b, got [{a}, {b}]")
        c = self.coeffs
        if not (isinstance(c, np.ndarray) and c.dtype in (np.float64, object)
                and c.shape == (self.degree + 1, self.n, self.n)):
            raise InvariantError(f"coeffs: expected a float64 or Fraction array of shape "
                                 f"({self.degree + 1}, {self.n}, {self.n})")
        c.flags.writeable = False

    @classmethod
    def from_coeffs(cls, coeffs, interval) -> "MatrixPolyCurve":
        """Build a curve from per-power n x n matrices (outer index = power),
        each a list, tuple or array of rows, n the row count of the first.
        Entries and ends are read by `_number`. Ints and Fractions alone give
        an exact curve; any float gives a float one, which refuses an entry
        beyond the doubles by its `coeffs[k]`."""
        vals, n, exact, seq = [], None, True, (list, tuple, np.ndarray)
        for k, c in enumerate(coeffs):
            rows = list(c) if isinstance(c, seq) else []
            n = n or len(rows) or 1
            if len(rows) != n or any(not isinstance(r, seq) or len(r) != n for r in rows):
                raise InvariantError(f"coeffs[{k}]: coefficient of s^{k} is not {n} x {n}")
            rows = [[_number(x, f"coeffs[{k}]") for x in row] for row in rows]
            exact = exact and all(isinstance(x, (int, Fraction)) for row in rows for x in row)
            vals.append(rows)
        if not vals:
            raise InvariantError("coeffs: a curve needs at least one coefficient")
        if len(interval) != 2:
            raise DomainError("interval: expected [a, b]")
        a, b = (_number(x, "interval") for x in interval)
        mats = []
        for k, rows in enumerate(vals):
            if exact:
                rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
            try:
                mats.append(np.array(rows, dtype=object if exact else float))
            except OverflowError as exc:
                raise DomainError(f"coeffs[{k}]: number too large for a float") from exc
        return cls(n=n, degree=len(vals) - 1, coeffs=np.array(mats), interval=(a, b))

    @property
    def exact(self) -> bool:
        return _linalg.is_exact(self.coeffs)

    @cached_property
    def _exact_stacks(self) -> tuple:
        return _horner_stacks(self.coeffs)

    @cached_property
    def _float_stacks(self) -> tuple:
        return _horner_stacks(np.array(self.coeffs, dtype=float) if self.exact else self.coeffs)

    def in_float_domain(self, s):
        """Whether the float point(s) s lie in the interval, widened by a
        relative 1e-12 because float samplers may land one ulp outside."""
        lo, hi = float(self.interval[0]), float(self.interval[1])
        slack = (hi - lo) * 1e-12
        return (lo - slack <= s) & (s <= hi + slack)

    def _at(self, s, order: int) -> np.ndarray:
        """phi(s) (order 0) or phi'(s) (order 1), after the domain check in
        the mode of s."""
        exact = self.exact and _linalg.is_exact_scalar(s)
        a, b = self.interval
        if not (a <= Fraction(s) <= b if exact else self.in_float_domain(float(s))):
            raise DomainError(f"s = {s} outside the curve interval [{a}, {b}]")
        stacks = self._exact_stacks if exact else self._float_stacks
        return _horner(stacks[order], s if exact else float(s), (self.n, self.n))

    def eval(self, s) -> np.ndarray:
        """phi(s) by Horner evaluation."""
        return self._at(s, 0)

    def derivative(self, s) -> np.ndarray:
        """phi'(s) by Horner evaluation of the derivative polynomial."""
        return self._at(s, 1)

    def eval_many(self, s: np.ndarray) -> np.ndarray:
        """(M, n, n) stack of phi at the float points s (no domain check)."""
        return _horner(self._float_stacks[0], s[:, None, None], (len(s), self.n, self.n))

    def derivative_many(self, s: np.ndarray) -> np.ndarray:
        """(M, n, n) stack of phi' at the float points s (no domain check)."""
        return _horner(self._float_stacks[1], s[:, None, None], (len(s), self.n, self.n))

    def __eq__(self, other):
        if not isinstance(other, MatrixPolyCurve):
            return NotImplemented
        # the stack's shape is (degree + 1, n, n)
        return self.interval == other.interval and np.array_equal(self.coeffs, other.coeffs)


@dataclass(frozen=True)
class CentralizerElement:
    """Block-diagonal pair (B, C) acting on matrices by phi -> B phi C^-1."""

    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        if self.B.shape != self.C.shape or self.B.shape[0] != self.B.shape[1]:
            raise InvariantError("B and C must be square of equal size")
        _linalg.check_equals(_linalg.det(self.B) * _linalg.det(self.C), 1, CENTRALIZER_DET_TOL,
                             InvariantError, "det(B) det(C)")

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def act(self, phi: np.ndarray) -> np.ndarray:
        """The centralizer action B phi C^-1."""
        return self.B @ phi @ _linalg.inv(self.C)


@dataclass(frozen=True)
class GenericityVerdict:
    generic: bool
    affine_rank: int
    witness_subspace: Optional[list]
    samples_used: int


def inverse_shift(curve: MatrixPolyCurve, s, s0) -> np.ndarray:
    """(phi(s) - phi(s0))^-1, with a singularity error carrying |det|."""
    diff = curve.eval(s) - curve.eval(s0)
    d = _linalg.det(diff)
    if isinstance(d, Fraction):
        if d == 0:
            raise SingularMatrixError(f"phi(s) - phi(s0) singular at s = {s}", det=Fraction(0))
    elif abs(d) <= INVERTIBILITY_TOL:
        raise SingularMatrixError(
            f"phi(s) - phi(s0) numerically singular at s = {s}, |det| = {abs(d):.3e}", det=abs(d))
    return _linalg.inv(diff, tol=INVERTIBILITY_TOL)


def affine_rank(points, tol: float = INVERTIBILITY_TOL):
    """Rank of the affine hull of the points, plus an orthonormal basis of
    the linear part: `_linalg.orthonormal_span` of the differences to the
    first point (an SVD, threshold tol relative to the largest singular
    value). A point with a nan or inf entry, then a point whose size
    differs from point 0's, is refused, by its index."""
    pts = [np.asarray(p, dtype=float).ravel() for p in points]
    if not pts:
        raise DomainError("affine_rank needs at least one point")
    bad = next((i for i, p in enumerate(pts) if not np.isfinite(p).all()), None)
    if bad is not None:
        raise DomainError(f"affine_rank point {bad} is not finite")
    bad = next((i for i, p in enumerate(pts) if p.size != pts[0].size), None)
    if bad is not None:
        raise DomainError(f"affine_rank point {bad} has {pts[bad].size} entries, "
                          f"point 0 has {pts[0].size}")
    diffs = [p - pts[0] for p in pts[1:]]
    return _linalg.orthonormal_span(diffs, tol=tol)


def _chebyshev_nodes(s0: float, r: float, m: int, left_room: float, right_room: float):
    # Chebyshev angles cluster samples away from the puncture at s0 without
    # the bias of a uniform grid; an even node count keeps cos != 0 exactly.
    if left_room > 0 and right_room > 0:
        count = m if m % 2 == 0 else m + 1
        angles = [(2 * j + 1) * math.pi / (2 * count) for j in range(count)]
        return [s0 + r * math.cos(t) for t in angles][:m]
    angles = [(2 * j + 1) * math.pi / (2 * m) for j in range(m)]
    offsets = [r * (1 + math.cos(t)) / 2 for t in angles]
    if right_room > 0:
        return [s0 + max(o, r * 1e-12) for o in offsets]
    return [s0 - max(o, r * 1e-12) for o in offsets]


def genericity_test(curve: MatrixPolyCurve, s0, m: Optional[int] = None,
                    tol: float = INVERTIBILITY_TOL) -> GenericityVerdict:
    """Classify the curve at s0 by the affine rank of the inverse-shift family.

    Samples s -> (phi(s) - phi(s0))^-1 at Chebyshev-distributed nodes in a
    punctured neighborhood of s0 inside the curve interval. The neighborhood
    radius is found by bisection: halve until every node has
    |det(phi(s) - phi(s0))| > tol. The nodes are evaluated as one float stack
    (`eval_many`), whose determinants and inverses are each taken by one
    stacked numpy call. Generic means affine rank exactly n^2.
    """
    n2 = curve.n * curve.n
    if m is None:
        m = 2 * n2 + 1
    if m < n2 + 1:
        raise DomainError(f"need at least n^2 + 1 = {n2 + 1} samples, got {m}")
    a, b = float(curve.interval[0]), float(curve.interval[1])
    s0f = float(s0)
    if not a <= s0f <= b:
        raise DomainError(f"s0 = {s0} outside curve interval [{a}, {b}]")
    left_room, right_room = s0f - a, b - s0f
    rooms = (left_room, right_room)
    r = min(rooms) if min(rooms) > 0 else max(rooms)
    if r <= 0:
        raise DomainError("curve interval has no room around s0")

    base = curve.eval_many(np.array([s0f]))
    for _ in range(80):
        nodes = np.array(_chebyshev_nodes(s0f, r, m, left_room, right_room))
        diffs = curve.eval_many(nodes) - base
        if np.all(np.abs(np.linalg.det(diffs)) > tol):
            break
        r *= 0.5
    else:
        raise DegenerateInputError(
            "no invertible punctured neighborhood found: |det(phi(s) - phi(s0))| "
            f"stayed <= {tol} down to radius {r:.3e}")

    rank, basis = affine_rank(np.linalg.inv(diffs), tol=tol)
    generic = rank == n2
    return GenericityVerdict(generic=generic, affine_rank=rank,
                             witness_subspace=None if generic else basis,
                             samples_used=m)


def normalizer(curve: MatrixPolyCurve, s) -> CentralizerElement:
    """Centralizer element z = (B, C) with B phi'(s) C^-1 = I.

    Construction: B = lambda I, C = B phi'(s), lambda = det(phi'(s))^(-1/(2n)).
    det(B) det(C) = lambda^(2n) det(phi'(s)) forces det(phi'(s)) > 0; a
    negative determinant is an orientation obstruction with no real solution
    (for any n), reported as an error rather than silently patched.
    """
    d_mat = _linalg.to_float(curve.derivative(s))
    d = float(np.linalg.det(d_mat))
    err = normalizer_error(d, s)
    if err is not None:
        raise err
    n = curve.n
    lam = d ** (-1.0 / (2 * n))
    B = lam * np.eye(n)
    C = B @ d_mat
    return CentralizerElement(B=B, C=C)


def normalizer_error(d: float, s):
    """The error `normalizer` raises at s when det(phi'(s)) = d, or None."""
    if abs(d) <= INVERTIBILITY_TOL:
        return SingularMatrixError(f"phi'(s) singular at s = {s}, |det| = {abs(d):.3e}",
                                   det=abs(d))
    if d < 0:
        return OrientationError(
            f"det(phi'(s)) = {d:.6g} < 0 at s = {s}: no real centralizer element "
            "satisfies both B phi' C^-1 = I and det(B) det(C) = 1")
    return None
