"""Unimodular lattices: reduction, exact sup-norm minima, box counts.

Bases are square matrices whose columns generate the lattice. Everything
runs in one of two scalar modes, python floats or Fractions, chosen by the
basis dtype. The modes make the same decisions in the same order; only the
exact LLL differs in its arithmetic: it clears the common denominator of the
columns once and runs on integer Gram data (Cohen, Alg. 2.6.7), converting
the reduced columns and their Gram-Schmidt data back to Fractions at the end.

Every query LLL-reduces the basis once and hands the reduced basis with its
Gram-Schmidt data to one depth-first enumerator of the Euclidean ball
||v||_2 <= R (Fincke-Pohst; each level is tried outward from its projected
center, as in Schnorr-Euchner). A box of halfwidths w lies inside the ball
of radius ||w||_2, so walking that ball and testing each vector exactly
against the box gives exact minima and counts. Pruning compares squared
lengths, so it needs no square roots: in the Fraction mode every decision
is exact, and in the float mode the radius is widened by a small relative
slack so that rounding never drops a lattice vector.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import _linalg
from .errors import (DegenerateInputError, DomainError, InternalIdentityError,
                     InvariantError, UnsupportedSizeError)

UNIMODULAR_TOL = 1e-8
MAX_DIM = 8
_MAX_NODES = 4_000_000
_MAX_LLL_STEPS = 20_000
# Relative widening of the squared search radius in the float mode. It covers
# the rounding in the Gram-Schmidt data, which stays near 1e-12 on flowed
# lattices up to t = 14.
_FLOAT_SLACK = 1e-9
# Minkowski: a unimodular lattice has a nonzero vector of sup-norm <= 1.
_MINKOWSKI_FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class LatticeBasis:
    """Columns of a unimodular matrix (|det| = 1 within 1e-8; exactly 1 in
    Fraction mode)."""

    cols: np.ndarray

    def __post_init__(self):
        c = self.cols
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InvariantError(f"basis must be square, got shape {c.shape}")
        d = _linalg.det(c)
        if isinstance(d, Fraction):
            if abs(d) != 1:
                raise InvariantError(f"exact |det| = {abs(d)} != 1")
        elif abs(abs(d) - 1.0) > UNIMODULAR_TOL:
            raise _det_error(d)
        c.flags.writeable = False

    @classmethod
    def from_rational(cls, rows) -> "LatticeBasis":
        return cls(_linalg.frac_matrix(rows))

    @classmethod
    def check_stack(cls, cols: np.ndarray) -> np.ndarray:
        """Check an (M, m, m) float stack of bases with one np.linalg.det:
        every |det| must be 1 within UNIMODULAR_TOL. Returns the stack, made
        read-only. The first failing basis raises the InvariantError its own
        constructor would, with its stack index as `sample_index`."""
        d = np.linalg.det(cols)
        bad = np.abs(np.abs(d) - 1.0) > UNIMODULAR_TOL
        if bad.any():
            i = int(np.argmax(bad))
            exc = _det_error(float(d[i]))
            exc.sample_index = i
            raise exc
        cols.flags.writeable = False
        return cols

    @classmethod
    def of_checked(cls, cols: np.ndarray) -> "LatticeBasis":
        """The basis of read-only columns whose determinant has already been
        checked (a row of a stack that `check_stack` has passed, or an exact
        matrix checked to det == 1), without recomputing it."""
        if cols.flags.writeable:
            raise InvariantError("of_checked needs checked, read-only columns")
        basis = object.__new__(cls)
        object.__setattr__(basis, "cols", cols)
        return basis

    @classmethod
    def batch(cls, cols: np.ndarray) -> tuple:
        """Frozen bases of an (M, m, m) float stack, checked once by
        `check_stack`; each basis is a read-only view of the stack."""
        return tuple(map(cls.of_checked, cls.check_stack(cols)))

    @property
    def m(self) -> int:
        return self.cols.shape[0]

    @property
    def exact(self) -> bool:
        return _linalg.is_exact(self.cols)


def _det_error(d: float) -> InvariantError:
    return InvariantError(f"|det| = {abs(d)!r} deviates from 1 beyond {UNIMODULAR_TOL}")


@dataclass(frozen=True)
class ShortVectorResult:
    vector: np.ndarray
    length: object  # float or Fraction
    coeffs: np.ndarray  # int64 in float mode, Python ints in Fraction mode


def _columns_as_lists(cols: np.ndarray):
    exact = _linalg.is_exact(cols)
    m = cols.shape[0]
    if exact:
        out = [[Fraction(cols[i, j]) for i in range(m)] for j in range(m)]
    else:
        out = [[float(cols[i, j]) for i in range(m)] for j in range(m)]
    return out, exact


def _dot(x, y):
    return sum(map(mul, x, y))


def _gs_row(b, bstar, mu, norms, i):
    """Gram-Schmidt row i of the current columns: mu[i][j] (j < i), b*_i and
    norms[i] = ||b*_i||^2, from b[i] and the rows below it."""
    bi = b[i]
    v = list(bi)
    mu_i = mu[i]
    for j in range(i):
        bs = bstar[j]
        mu_ij = mu_i[j] = _dot(bi, bs) / norms[j]
        v = [x - mu_ij * y for x, y in zip(v, bs)]
    bstar[i] = v
    norms[i] = _dot(v, v)


def _lll(cols, exact: bool, delta=None):
    """LLL reduction of the column list; returns (reduced columns, U columns,
    mu, norms) with reduced[j] = sum_i original[i] * U[j][i], and mu[i][j]
    (j < i) and norms[i] = ||b*_i||^2 the Gram-Schmidt data of the reduced
    columns. delta defaults to 0.99 (99/100 in the Fraction mode).

    A size-reduction step updates row k of mu in place. A swap invalidates
    the Gram-Schmidt rows from k-1 up, and a row is recomputed from the
    current columns only when the stage index reaches it again. The two-row
    swap update (Cohen, Alg. 2.6.3) would avoid those recomputations, but in
    floats it drifts away from the columns: on flowed lattices a_t u(phi) at
    n = 2, t = 8 its ||b*||^2 are off by several percent. The Fraction mode
    runs the same steps on integer Gram data (`_lll_integral`).
    """
    if exact:
        return _lll_integral(cols, Fraction(99, 100) if delta is None else Fraction(delta))
    if delta is None:
        delta = 0.99
    m = len(cols)
    b = [list(c) for c in cols]
    u = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    mu = [[0] * m for _ in range(m)]
    bstar = [None] * m
    norms = [0] * m
    _gs_row(b, bstar, mu, norms, 0)
    fresh = 1  # Gram-Schmidt rows below `fresh` match the current columns
    k = 1
    steps = 0
    while k < m:
        steps += 1
        if steps > _MAX_LLL_STEPS:
            raise InternalIdentityError("LLL failed to terminate at desk scale")
        while fresh <= k:
            _gs_row(b, bstar, mu, norms, fresh)
            fresh += 1
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mu_k[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mu_j = mu[j]
                for i in range(j):
                    mu_k[i] -= q * mu_j[i]
                mu_k[j] -= q
        if norms[k] >= (delta - mu_k[k - 1] * mu_k[k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            fresh = k - 1
            k = max(k - 1, 1)
    return b, u, mu, norms


def _gram_row(c, lam, d, i):
    """Integral Gram-Schmidt row i (Cohen, Alg. 2.6.7, step 2) of the integer
    columns c: lam[i][j] = d[j+1] mu[i][j] for j < i and d[i+1], where d[j]
    is the Gram determinant of the first j columns. Every division is exact."""
    ci, lam_i = c[i], lam[i]
    for j in range(i + 1):
        x = _dot(ci, c[j])
        lam_j = lam[j]
        for h in range(j):
            x = (d[h + 1] * x - lam_i[h] * lam_j[h]) // d[h]
        if j < i:
            lam_i[j] = x
        else:
            d[i + 1] = x


def _lll_integral(cols, delta: Fraction):
    """`_lll` in the Fraction mode, run on the columns times their common
    denominator D, which leaves mu unchanged and scales every norm by D^2.
    mu[k][j] = lam[k][j] / d[j+1] and norms[k] = d[k+1] / d[k], so the size
    reduction quotient round(mu[k][j]) (half to even, as round(Fraction)) and
    the Lovasz test norms[k] >= (delta - mu[k][k-1]^2) norms[k-1] are decided
    in integers, in `_lll`'s order: the same steps give the same columns,
    transform and Gram-Schmidt data, returned as Fractions."""
    m = len(cols)
    den = math.lcm(*(int(x.denominator) for col in cols for x in col))
    c = [[int(x.numerator) * (den // int(x.denominator)) for x in col] for col in cols]
    u = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    lam = [[0] * m for _ in range(m)]
    d = [1] * (m + 1)
    delta_num, delta_den = delta.numerator, delta.denominator
    _gram_row(c, lam, d, 0)
    fresh = 1
    k = 1
    steps = 0
    while k < m:
        steps += 1
        if steps > _MAX_LLL_STEPS:
            raise InternalIdentityError("LLL failed to terminate at desk scale")
        while fresh <= k:
            _gram_row(c, lam, d, fresh)
            fresh += 1
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            lam_kj = lam_k[j]
            if 2 * abs(lam_kj) <= dj:  # |mu| <= 1/2 rounds to 0, ties to even
                continue
            q, r = divmod(lam_kj, dj)
            if 2 * r > dj or (2 * r == dj and q & 1):
                q += 1
            c[k] = [x - q * y for x, y in zip(c[k], c[j])]
            u[k] = [x - q * y for x, y in zip(u[k], u[j])]
            lam_j = lam[j]
            for i in range(j):
                lam_k[i] -= q * lam_j[i]
            lam_k[j] -= q * dj
        lam_kj = lam_k[k - 1]
        if delta_den * (d[k + 1] * d[k - 1] + lam_kj * lam_kj) >= delta_num * d[k] * d[k]:
            k += 1
        else:
            c[k], c[k - 1] = c[k - 1], c[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            fresh = k - 1
            k = max(k - 1, 1)
    b = [[Fraction(x, den) for x in col] for col in c]
    mu = [[Fraction(lam[i][j], d[j + 1]) if j < i else 0 for j in range(m)] for i in range(m)]
    den2 = den * den
    norms = [Fraction(d[i + 1], d[i] * den2) for i in range(m)]
    return b, u, mu, norms


def _sup(v):
    return max(abs(x) for x in v)


class _BallWalk:
    """Depth-first walk over the lattice vectors v = sum_j c_j b_j, c != 0,
    with ||v||_2^2 <= r2, one of each +-v pair; yields (c, v).

    mu and norms are the Gram-Schmidt data of the columns b. Level j fixes
    c_j given c_{j+1..m-1}; it adds (c_j - center_j)^2 * norms[j] to
    ||v||^2, so each level sweeps up and then down from the integer nearest
    its center and stops a direction at the first value outside the ball.
    While every coefficient above a level is zero, that level sweeps up from
    0 only, which keeps one of each +-v pair. `shrink` may lower r2 between
    yields. More than _MAX_NODES nodes inside the ball raise
    DegenerateInputError.
    """

    def __init__(self, b, mu, norms, r2, exact: bool):
        self.b, self.mu, self.norms, self.exact = b, mu, norms, exact
        self.shrink(r2)

    def shrink(self, r2):
        self.limit = r2 if self.exact else r2 * (1 + _FLOAT_SLACK)

    def _count_node(self):
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise DegenerateInputError(
                "enumeration exceeds the desk-scale node budget; "
                "basis is too ill-conditioned after reduction")

    def __iter__(self):
        b, mu, norms = self.b, self.mu, self.norms
        m = len(norms)
        self.nodes = 0
        c = [0] * m
        center = [0] * m
        start = [0] * m
        step = [1] * m
        partial = [0] * (m + 1)  # partial[j]: ||v||^2 contributed by levels j..m-1
        vec = [None] * m + [[0] * m]  # vec[j] = sum of c_i b_i over i >= j
        top = [True] * m  # top[j]: every coefficient above level j is zero
        j = m - 1
        while True:
            if j == 0:
                yield from self._leaves(c, center[0], partial[1], vec[1], top[0])
                if m == 1:
                    return
                j = 1
                c[1] += step[1]
                continue
            d = c[j] - center[j]
            length = partial[j + 1] + d * d * norms[j]
            if length <= self.limit:
                self._count_node()
                partial[j] = length
                cj = c[j]
                vec[j] = [p + cj * x for p, x in zip(vec[j + 1], b[j])] if cj else vec[j + 1]
                top[j - 1] = top[j] and not cj
                j -= 1
                ctr = -sum(c[i] * mu[i][j] for i in range(j + 1, m) if c[i])
                center[j] = ctr
                start[j] = c[j] = round(ctr)
                step[j] = 1
                continue
            if step[j] == 1 and not top[j]:
                step[j] = -1
                c[j] = start[j] - 1
                continue
            j += 1
            if j == m:
                return
            c[j] += step[j]

    def _leaves(self, c, ctr, above, p, top):
        """Level 0: every c_0 with (c_0 - ctr)^2 * norms[0] + above in the ball."""
        n0, b0 = self.norms[0], self.b[0]
        x0 = round(ctr)
        for x, direction in ((1, 1),) if top else ((x0, 1), (x0 - 1, -1)):
            while True:
                d = x - ctr
                if above + d * d * n0 > self.limit:
                    break
                self._count_node()
                c[0] = x
                yield tuple(c), [q + x * y for q, y in zip(p, b0)]
                x += direction


def reduce(basis: LatticeBasis, delta: float = None):
    """LLL-reduce the basis (delta defaults to 0.99); returns the reduced
    basis together with the unimodular integer transform for audit:
    reduced.cols = basis.cols @ transform. The transform is int64 in the
    float mode and holds Python ints in the Fraction mode."""
    cols, exact = _columns_as_lists(basis.cols)
    if exact and delta is not None:
        delta = Fraction(delta).limit_denominator(10**6)
    bred, ucols, _, _ = _lll(cols, exact, delta)
    m = basis.m
    if exact:
        out = _linalg.frac_matrix([[bred[j][i] for j in range(m)] for i in range(m)])
    else:
        out = np.array(bred, dtype=float).T
    transform = np.array([[ucols[j][i] for j in range(m)] for i in range(m)],
                         dtype=object if exact else np.int64)
    return LatticeBasis(out), transform


def _prepare(basis: LatticeBasis):
    if basis.m > MAX_DIM:
        raise UnsupportedSizeError(f"dimension {basis.m} exceeds the supported bound {MAX_DIM}")
    cols, exact = _columns_as_lists(basis.cols)
    bred, ucols, mu, norms = _lll(cols, exact)
    return bred, ucols, mu, norms, exact


def _scalar(x, exact: bool):
    """A radius or halfwidth in the basis's scalar mode (Fractions are exact,
    so float inputs convert without rounding)."""
    return Fraction(x) if exact else float(x)


def shortest_supnorm(basis: LatticeBasis) -> ShortVectorResult:
    """Exact shortest nonzero vector in sup-norm.

    The minimum-norm reduced column gives an upper bound L. Every v with
    ||v||_inf <= L has ||v||_2^2 <= m L^2, so walking that Euclidean ball
    and comparing sup-norms exactly is a proof of minimality; the ball
    shrinks to m L'^2 whenever a shorter vector L' turns up. Ties are broken
    by the lexicographically smallest sign-normalized coefficient vector in
    the input basis. A result above Minkowski's bound 1 (beyond a relative
    1e-9 in the float mode) means the float arithmetic has broken down and
    raises InvariantError.
    """
    bred, ucols, mu, norms, exact = _prepare(basis)
    m = basis.m
    best = min(_sup(col) for col in bred)
    if best == 0:
        raise InvariantError("reduced basis contains the zero vector")
    walk = _BallWalk(bred, mu, norms, m * best * best, exact)
    best_cands = []
    for c, v in walk:
        length = _sup(v)
        if length < best:
            best = length
            best_cands = [c]
            walk.shrink(m * best * best)
        elif length == best:
            best_cands.append(c)
    if not best_cands:
        raise InternalIdentityError("enumeration missed the shortest reduced column")

    originals = []
    for c in best_cands:
        oc = tuple(sum(ucols[j][i] * c[j] for j in range(m)) for i in range(m))
        lead = next((x for x in oc if x != 0), 0)
        if lead < 0:
            oc = tuple(-x for x in oc)
        originals.append(oc)
    coeffs = np.array(min(originals), dtype=object if exact else np.int64)
    vector = basis.cols @ coeffs if not exact else basis.cols @ _linalg.frac_vector(coeffs)
    length = max(abs(x) for x in vector)
    if not exact:
        length = float(length)
        vector = np.asarray(vector, dtype=float)
    if length > (1 if exact else 1 + _MINKOWSKI_FLOAT_TOL):
        raise InvariantError(
            f"sup-norm minimum {length} exceeds Minkowski's bound 1 for a unimodular "
            "lattice; the float arithmetic has lost precision")
    return ShortVectorResult(vector=vector, length=length, coeffs=coeffs)


def count_in_box(basis: LatticeBasis, halfwidths) -> int:
    """Number of nonzero lattice vectors v with |v_i| <= halfwidths_i."""
    w = list(halfwidths)
    if len(w) != basis.m:
        raise DomainError("halfwidths length must match basis dimension")
    if any(x <= 0 for x in w):
        raise DomainError("halfwidths must be positive")
    bred, _, mu, norms, exact = _prepare(basis)
    w = [_scalar(x, exact) for x in w]
    count = 0
    for _, v in _BallWalk(bred, mu, norms, sum(x * x for x in w), exact):
        if all(abs(x) <= wx for x, wx in zip(v, w)):
            count += 1
    return 2 * count


def _exists_shorter(basis: LatticeBasis, bound) -> bool:
    """Is there a nonzero lattice vector with ||v||_inf strictly below bound?"""
    if bound <= 0:
        return False
    bred, _, mu, norms, exact = _prepare(basis)
    if any(_sup(col) < bound for col in bred):
        return True
    r = _scalar(bound, exact)
    return any(_sup(v) < bound for _, v in _BallWalk(bred, mu, norms, basis.m * r * r, exact))


def in_kmu(basis: LatticeBasis, mu) -> bool:
    """True iff the lattice misses the open sup-norm ball of radius mu, i.e.
    the shortest nonzero vector has length >= mu. Requires 0 < mu < 1."""
    if not 0 < mu < 1:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    return not _exists_shorter(basis, mu)


def in_mahler_compact(basis: LatticeBasis, eps) -> bool:
    """True iff the shortest nonzero vector has sup-norm >= eps (eps > 0)."""
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    return not _exists_shorter(basis, eps)
