"""Unimodular lattices: reduction, exact sup-norm minima, box counts.

Bases are square matrices whose columns generate the lattice, in one of two
scalar modes. A float basis holds float64 columns. An exact basis holds
integer columns and one common denominator den (column j is int_cols[j] /
den); its Fraction matrix `cols` is a read-only view, built only when a
caller reads it. The modes make the same decisions in the same order. The
exact mode stays in integers from the basis to the answer: LLL runs on the
integral Gram data of the integer columns (Cohen, Alg. 2.6.7), each row
computed once and updated exactly on a swap, and the enumerator and the box
tests run on the same integer lattice, den times the original, with every
bound scaled by den once.

A query that walks LLL-reduces the basis once and hands the reduced basis
with its Gram-Schmidt data to one depth-first enumerator of the Euclidean
ball ||v||_2 <= R (Fincke-Pohst; each level is tried outward from its
projected center, as in Schnorr-Euchner). LLL tracks its transform only for
the callers that read it (`reduce`, `shortest_supnorm`). A float stack
becomes bases only through `LatticeBasis.batch`, which checks every
determinant at once; its bases share one `_Stack`. The first box count or
ball test of one box or bound on any of them reduces the stack, once per
lane (a 2 x 2 stack all at once, by a lane-masked LLL that takes the scalar
LLL's float steps), and decides the query for every lane in one
breadth-first walk over numpy arrays, which expands the enumerator's levels
from the top down with the enumerator's own float operations in its order,
so every answer is the enumerator's. A lane with too many candidates walks
depth-first on the stack's reduction of it, and `shortest_supnorm` reduces
its own basis, as an unbatched basis does.

A box of halfwidths w lies inside the ball of radius ||w||_2, so walking
that ball and testing each vector exactly against the box gives exact minima
and counts. Pruning compares squared lengths, so it needs no square roots:
in the exact mode every decision is an integer comparison, and in the float
mode the radius is widened by a small relative slack so that rounding never
drops a lattice vector.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import _linalg
from .errors import (DegenerateInputError, DomainError, InternalIdentityError,
                     InvariantError, UnsupportedSizeError, raise_first)

UNIMODULAR_TOL = 1e-8
MAX_DIM = 8
_MAX_NODES = 4_000_000
_MAX_LLL_STEPS = 20_000
# Relative widening of the squared search radius in the float mode. It covers
# the rounding in the Gram-Schmidt data, which stays near 1e-12 on flowed
# lattices up to t = 14.
_FLOAT_SLACK = 1e-9
# The stack walk (`_stack_walk`): a lane that would try more than
# _STACK_NODES candidate nodes is left to the scalar walk, and lanes run
# _STACK_LANES at a time, so one chunk holds at most 65,536 candidates (a few
# MB of numpy temporaries) however many lanes the stack has.
_STACK_NODES = 256
_STACK_LANES = 256
# Minkowski: a unimodular lattice has a nonzero vector of sup-norm <= 1.
_MINKOWSKI_FLOAT_TOL = 1e-9
# LLL's delta for `_lll`, `reduce` and the pair kernel `_lll_pair_arrays`,
# which is bit-identical to `_lll` only at the same delta.
_DELTA = 0.99
_EXACT_DELTA = Fraction(99, 100)
_SET = object.__setattr__


class LatticeBasis:
    """Columns of a unimodular matrix (|det| = 1 within 1e-8; exactly 1 in
    the exact mode). A float basis holds its float64 columns. An exact basis
    holds `int_cols`, m tuples of ints, and one common denominator `den`:
    column j is int_cols[j] / den. Its Fraction matrix `cols` is derived,
    read-only, and built on first read. A float basis from a stack (a
    `_StackLane`) also holds its stack's `_Stack` and its lane in it: the
    reductions of the whole stack, as arrays, and the answers of its box and
    ball queries for the whole stack. Bases are immutable. One basis comes
    from `LatticeBasis(cols)`, `from_rational` or `from_integral`, each with
    its det check; a float stack of bases comes only from `batch`."""

    __slots__ = ("_cols", "int_cols", "den")
    _stack = _lane = None

    def __init__(self, cols: np.ndarray):
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise InvariantError(f"basis must be square, got shape {cols.shape}")
        int_cols = den = None
        if _linalg.is_exact(cols):
            m = cols.shape[0]
            flat, den = _linalg.integral(cols.T.ravel().tolist())
            int_cols = tuple(tuple(flat[j * m:(j + 1) * m]) for j in range(m))
            _check_integral_det(int_cols, den)
        else:
            d = _linalg.det(cols)
            if not abs(abs(d) - 1.0) <= UNIMODULAR_TOL:
                raise _det_error(d)
        cols.flags.writeable = False
        _SET(self, "_cols", cols)
        _SET(self, "int_cols", int_cols)
        _SET(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"LatticeBasis is immutable; cannot set {name!r}")

    def __repr__(self):
        return f"LatticeBasis(cols={self.cols!r})"

    @classmethod
    def from_rational(cls, rows) -> "LatticeBasis":
        return cls(_linalg.frac_matrix(rows))

    @classmethod
    def from_integral(cls, int_cols, den: int) -> "LatticeBasis":
        """The exact basis with columns int_cols[j] / den (den >= 1), checked
        to |det| == 1 by one determinant of the integer matrix."""
        ints = tuple(tuple(col) for col in int_cols)
        m = len(ints)
        if den < 1 or any(len(col) != m for col in ints):
            raise InvariantError(f"need m integer columns of length m over den >= 1, got "
                                 f"{[len(col) for col in ints]} over {den}")
        _check_integral_det(ints, den)
        return cls.of_checked_integral(ints, den)

    @classmethod
    def of_checked_integral(cls, int_cols: tuple, den: int) -> "LatticeBasis":
        """The exact basis int_cols / den (a tuple of int tuples) whose
        determinant the caller has just checked, without recomputing it."""
        basis = object.__new__(cls)
        _SET(basis, "_cols", None)
        _SET(basis, "int_cols", int_cols)
        _SET(basis, "den", den)
        return basis

    @classmethod
    def batch(cls, cols: np.ndarray) -> tuple:
        """The bases of an (M, m, m) float stack, frozen, each a view of it.
        One np.linalg.det checks every |det| to 1 within UNIMODULAR_TOL; the
        lowest failing lane raises its constructor's error, with its index as
        `sample_index`. Every basis holds the stack's one `_Stack` with its
        lane: the first box count or ball test of one box or bound on any of
        them reduces the stack (the lowest lane that fails to reduce raises
        likewise) and decides that query for every lane. An exact stack is
        refused: exact bases are built one by one."""
        if cols.ndim != 3 or cols.shape[1] != cols.shape[2] or _linalg.is_exact(cols):
            raise InvariantError(f"batch needs an (M, m, m) float stack, got {cols.dtype} "
                                 f"of shape {cols.shape}")
        d = np.linalg.det(cols)
        raise_first([(~(np.abs(np.abs(d) - 1.0) <= UNIMODULAR_TOL),
                      lambda i: _det_error(float(d[i])))], "sample_index")
        cols.flags.writeable = False
        stack = _Stack(cols)
        bases = []
        for lane, view in enumerate(cols):
            basis = object.__new__(_StackLane)
            _SET(basis, "_cols", view)
            _SET(basis, "_stack", stack)
            _SET(basis, "_lane", lane)
            bases.append(basis)
        return tuple(bases)

    @property
    def cols(self) -> np.ndarray:
        cols = self._cols
        if cols is None:
            den = self.den
            cols = np.empty((len(self.int_cols),) * 2, dtype=object)
            for j, col in enumerate(self.int_cols):
                for i, x in enumerate(col):
                    cols[i, j] = Fraction(x, den)
            cols.flags.writeable = False
            _SET(self, "_cols", cols)
        return cols

    @property
    def m(self) -> int:
        return self._cols.shape[0] if self.int_cols is None else len(self.int_cols)

    @property
    def exact(self) -> bool:
        return self.int_cols is not None


class _StackLane(LatticeBasis):
    """A float basis of a `batch` stack: its columns (a view of the stack),
    the stack's `_Stack` and its lane. It is never exact."""

    __slots__ = ("_stack", "_lane")
    int_cols = den = None


def _det_error(d: float) -> InvariantError:
    return InvariantError(f"|det| = {abs(d)!r} deviates from 1 beyond {UNIMODULAR_TOL}")


def _check_integral_det(int_cols: tuple, den: int) -> None:
    """Refuse the exact basis int_cols / den unless |det| == 1: one
    determinant of the integer matrix (its transpose: same det) against
    den^m."""
    d = abs(_linalg.int_det(int_cols))
    if d != den ** len(int_cols):
        raise InvariantError(f"exact |det| = {Fraction(d, den ** len(int_cols))} != 1")


@dataclass(frozen=True)
class ShortVectorResult:
    vector: np.ndarray
    length: object  # float or Fraction
    coeffs: np.ndarray  # int64 in the float mode, Python ints in the exact mode


def _float_columns(cols: np.ndarray) -> list:
    return np.asarray(cols, dtype=float).T.tolist()


def _dot(x, y):
    return sum(map(mul, x, y))


def _gs_row(b, bstar, mu, norms, i):
    """Gram-Schmidt row i of the current columns: mu[i][j] (j < i), b*_i and
    norms[i] = ||b*_i||^2, from b[i] and the rows below it. Dot products sum
    from 0 in index order (`_dot`, inlined)."""
    bi = v = b[i]
    mu_i = mu[i]
    for j in range(i):
        bs = bstar[j]
        mu_ij = mu_i[j] = sum(map(mul, bi, bs)) / norms[j]
        v = [x - mu_ij * y for x, y in zip(v, bs)]
    bstar[i] = v
    norms[i] = sum(map(mul, v, v))


def _lll(cols, delta: float = _DELTA, transform: bool = True):
    """LLL reduction of the float column list; returns (reduced columns, U
    columns, mu, norms) with reduced[j] = sum_i original[i] * U[j][i], and
    mu[i][j] (j < i) and norms[i] = ||b*_i||^2 the Gram-Schmidt data of the
    reduced columns. With transform false U is not tracked and None comes
    back in its place; the other three are the same.

    A size-reduction step updates row k of mu in place. A swap invalidates
    the Gram-Schmidt rows from k-1 up, and a row is recomputed from the
    current columns only when the stage index reaches it again. The two-row
    swap update (Cohen, Alg. 2.6.3) would avoid those recomputations, but in
    floats it drifts away from the columns: on flowed lattices a_t u(phi) at
    n = 2, t = 8 its ||b*||^2 are off by several percent. The exact mode
    runs the same steps on integer Gram data (`_lll_integral`), where the
    swap update is exact.
    """
    m = len(cols)
    b = [list(c) for c in cols]
    u = [[1 if i == j else 0 for i in range(m)] for j in range(m)] if transform else None
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
                if transform:
                    u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mu_j = mu[j]
                for i in range(j):
                    mu_k[i] -= q * mu_j[i]
                mu_k[j] -= q
        if norms[k] >= (delta - mu_k[k - 1] * mu_k[k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            if transform:
                u[k], u[k - 1] = u[k - 1], u[k]
            fresh = k - 1
            k = max(k - 1, 1)
    return b, u, mu, norms


def _lll_pair_arrays(stack: np.ndarray) -> np.ndarray:
    """`_lll` on every basis of an (M, 2, 2) float stack at once, as one
    (M, 7) array: row i holds lane i's reduced columns b0, b1, then
    mu[1][0] and norms[0], norms[1], bit for bit as `_lll` returns them.

    A stage is one pass of `_lll`'s loop. Every lane still in the loop
    recomputes both Gram-Schmidt rows from its current columns (the first
    pass computes row 1; after a swap `_lll` recomputes both), size-reduces
    its second column where round(mu) != 0, and either passes the Lovasz
    test with the stale norms[1] and leaves the loop, or swaps. The float
    operations are `_lll`'s, in its order: dot products summed from 0,
    np.rint rounding half to even as round does, and updates masked to the
    lanes with q != 0, so that -0.0 entries survive as `_lll` leaves them.
    Past _MAX_LLL_STEPS stages the lowest lane still in the loop raises,
    with its index as `sample_index`.
    """
    b0, b1 = stack[:, :, 0], stack[:, :, 1]
    lane = np.arange(len(stack))
    out = np.empty((len(stack), 7))
    steps = 0
    while lane.size:
        steps += 1
        if steps > _MAX_LLL_STEPS:
            exc = InternalIdentityError("LLL failed to terminate at desk scale")
            exc.sample_index = int(lane[0])
            raise exc
        n0 = b0[:, 0] * b0[:, 0] + b0[:, 1] * b0[:, 1]
        mu = (0.0 + b1[:, 0] * b0[:, 0] + b1[:, 1] * b0[:, 1]) / n0
        bs = b1 - mu[:, None] * b0
        n1 = bs[:, 0] * bs[:, 0] + bs[:, 1] * bs[:, 1]
        q = np.rint(mu)
        move = q != 0
        if move.any():
            b1 = np.where(move[:, None], b1 - q[:, None] * b0, b1)
            mu = np.where(move, mu - q, mu)
        done = n1 >= (_DELTA - mu * mu) * n0
        if done.any():
            out[lane[done]] = np.column_stack((b0[done], b1[done], mu[done], n0[done], n1[done]))
            stay = ~done
            lane, b0, b1 = lane[stay], b0[stay], b1[stay]
        b0, b1 = b1, b0
    return out


class _Stack:
    """The lanes of one float `LatticeBasis.batch` stack: its (M, m, m)
    columns, their LLL reductions once a box or ball query needs them, and
    the answers of those queries for every lane.

    The reductions are the arrays `_lll` would hand a lane's walk: reduced
    columns b[lane, j] (column j), mu[lane, i, j] (j < i) and norms[lane, j].
    At m = 2 `_lll_pair_arrays` makes them for every lane at once; at larger
    m the scalar `_lll` runs once per lane, without its transform. Either
    way the stack reduces on its first box or ball query, so a stack that
    only answers `shortest_supnorm` (which reduces its own lane, transform
    included) reduces nothing here. The lowest lane that fails to reduce
    raises, with its index as `sample_index`.

    The first `count` of a box, or `exists_shorter` of a bound, decides it
    for every lane in one breadth-first walk (`_stack_walk`) and keeps the
    answers, which are the scalar walk's. A lane that walk gives up on gets
    None; its own query then runs `_BallWalk` on the stack's reduction of
    that lane (`lane`), so each lane is reduced once.
    """

    __slots__ = ("cols", "_reduced", "_answers")

    def __init__(self, cols: np.ndarray):
        self.cols = cols
        self._reduced = None
        self._answers = {}

    def reduced(self) -> tuple:
        """(b, mu, norms), the reductions of every lane, made on first call."""
        if self._reduced is None:
            cols = self.cols
            size, m, _ = cols.shape
            if m > MAX_DIM:
                raise UnsupportedSizeError(
                    f"dimension {m} exceeds the supported bound {MAX_DIM}")
            if m == 2:
                out = _lll_pair_arrays(cols)
                mu = np.zeros((size, 2, 2))
                mu[:, 1, 0] = out[:, 4]
                self._reduced = out[:, :4].reshape(size, 2, 2), mu, out[:, 5:]
            else:
                lanes = []
                for lane, lane_cols in enumerate(cols.transpose(0, 2, 1).tolist()):
                    try:
                        lanes.append(_lll(lane_cols, _DELTA, False))
                    except InternalIdentityError as exc:
                        exc.sample_index = lane
                        raise
                b, _, mu, norms = zip(*lanes)
                self._reduced = np.array(b), np.array(mu, dtype=float), np.array(norms)
        return self._reduced

    def lane(self, i: int) -> tuple:
        """Lane i's reduced columns and Gram data (mu, norms), as the lists
        `_lll` returns them."""
        b, mu, norms = self.reduced()
        return b[i].tolist(), (mu[i].tolist(), norms[i].tolist())

    def count(self, i: int, w: list):
        """`count_in_box` of lane i for the float halfwidths w; None when the
        scalar walk must decide."""
        key = ("box", *w)
        counts = self._answers.get(key)
        if counts is None:
            b, mu, norms = self.reduced()
            box = np.array(w)
            hits = _stack_walk(b, mu, norms, sum(x * x for x in w),
                               lambda v: np.all(np.abs(v) <= box, axis=1))
            counts = self._answers[key] = [None if h < 0 else 2 * h for h in hits.tolist()]
        return counts[i]

    def exists_shorter(self, i: int, r: float):
        """`_exists_shorter` of lane i for the float bound r; None when the
        scalar walk must decide. As in the walk, a lane with a reduced column
        of sup-norm below r is decided by it without walking."""
        key = ("ball", r)
        found = self._answers.get(key)
        if found is None:
            b, mu, norms = self.reduced()
            short = np.any(np.all(np.abs(b) < r, axis=2), axis=1)
            walk = np.flatnonzero(~short)
            hits = np.ones(len(b), dtype=np.int64)
            hits[walk] = _stack_walk(b[walk], mu[walk], norms[walk], b.shape[1] * r * r,
                                     lambda v: np.all(np.abs(v) < r, axis=1))
            found = self._answers[key] = [None if h < 0 else h > 0 for h in hits.tolist()]
        return found[i]


def _stack_walk(b: np.ndarray, mu: np.ndarray, norms: np.ndarray, r2: float,
                inside) -> np.ndarray:
    """Per lane of the reductions (b, mu, norms): the number of `_BallWalk`
    leaves for the squared radius r2 whose vector v (an (m,) row) passes
    `inside`, or -1 for a lane left to the scalar walk. Lanes run
    _STACK_LANES at a time (`_walk_chunk`)."""
    limit = r2 * (1 + _FLOAT_SLACK)
    hits = np.empty(len(b), dtype=np.int64)
    for start in range(0, len(b), _STACK_LANES):
        part = slice(start, start + _STACK_LANES)
        hits[part] = _walk_chunk(b[part], mu[part], norms[part], limit, inside)
    return hits


def _walk_chunk(b: np.ndarray, mu: np.ndarray, norms: np.ndarray, limit: float,
                inside) -> np.ndarray:
    """`_stack_walk` on one chunk of lanes, breadth first: level j = m-1
    down to 0 expands every node of every lane at once.

    `_BallWalk` sweeps each level outward from the integer nearest its
    center and stops a direction at the first failure of a float expression
    that grows monotonically along it, so its nodes at level j are exactly
    the c_j, under a node of the level above, with
      partial + (c_j - ctr)^2 norms[j] <= limit,
      c_j >= 0 while every coefficient above is zero, and c_0 >= 1 there,
    where partial is the parent's length and ctr = -(0.0 + sum_{i>j} c_i
    mu[i][j]), summed upward in i. These are computed here with the walk's
    float operations in its order, and a leaf's vector is 0.0 + c_{m-1}
    b_{m-1} + ... + c_0 b_0, summed from the top column down, as the walk
    builds it. The walk skips the zero terms of both sums; adding +-0.0 to a
    partial sum changes its bits only when that sum is -0.0, which a sum
    starting at +0.0 never is, so every value is the walk's, bit for bit.
    Each node tries the window |c_j - round(ctr)| <= floor(sqrt((limit -
    partial) / norms[j]) + 1/2) + 1 (from 0 or 1 at the top), which holds
    every c_j passing the test despite the rounding. A lane that would try
    more than _STACK_NODES candidates in all leaves the walk (-1): the walk
    never holds more than _STACK_NODES candidates per lane.
    """
    lanes, m = norms.shape
    node = np.arange(lanes)  # the lane of each node
    coef = np.zeros((lanes, m))  # column i: the node's c_i, for the levels above
    partial = np.zeros(lanes)
    top = np.ones(lanes, dtype=bool)  # every coefficient above is zero
    tried = np.zeros(lanes)
    for j in range(m - 1, -1, -1):
        s = np.zeros(len(node))
        for i in range(j + 1, m):
            s = s + coef[:, i] * mu[node, i, j]
        ctr = -s
        mid = np.rint(ctr)
        norm = norms[node, j]
        half = np.floor(np.sqrt((limit - partial) / norm) + 0.5) + 1
        lo = np.where(top, float(j == 0), mid - half)
        size = np.maximum(mid + half - lo + 1, 0)
        tried += np.bincount(node, size, minlength=lanes)
        if not (tried <= _STACK_NODES).all():  # nan (a zero norm) fails too
            keep = tried[node] <= _STACK_NODES
            node, coef, partial, top, ctr, lo, size, norm = (
                x[keep] for x in (node, coef, partial, top, ctr, lo, size, norm))
        size = size.astype(np.int64)
        pick = np.repeat(np.arange(len(node)), size)
        c = np.repeat(lo - (np.cumsum(size) - size), size) + np.arange(pick.size)
        d = c - ctr[pick]
        length = partial[pick] + d * d * norm[pick]
        ok = length <= limit
        pick, c = pick[ok], c[ok]
        if j:
            node, partial, coef = node[pick], length[ok], coef[pick]
            coef[:, j] = c
            top = top[pick] & (c == 0)
    v = np.zeros((len(node), m))  # each parent's sum of c_i b_i from the top column down
    for i in range(m - 1, 0, -1):
        v = v + coef[:, i, None] * b[node, i]
    node = node[pick]
    hits = np.bincount(node[inside(v[pick] + c[:, None] * b[node, 0])], minlength=lanes)
    hits[~(tried <= _STACK_NODES)] = -1
    return hits


def _round_div(a: int, b: int) -> int:
    """The integer nearest a / b (b > 0), ties to even, as round(Fraction)."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
    return q


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


def _lll_integral(c: list, delta: Fraction, transform: bool = True):
    """`_lll` on the list c of integer columns (its entries are replaced,
    never mutated) on their integral Gram data: lam[i][j] = d[j+1] mu[i][j]
    (j < i) and the Gram determinants d[0..m], so norms[k] = d[k+1] / d[k].
    The size-reduction quotient round(mu[k][j]) (half to even, as
    round(Fraction)) and the Lovasz test norms[k] >= (delta - mu[k][k-1]^2)
    norms[k-1] are decided in integers, in `_lll`'s order. A common scale of
    the columns changes no decision, so the columns of an exact basis times
    its denominator take the steps its Fraction columns would. Returns the
    reduced integer columns, the transform columns (None when transform is
    false: U is then not tracked), lam and d.

    Each Gram row is computed from the columns once, when the stage index
    first reaches it. A size reduction changes row k only, and a swap at
    stage k updates the rows already computed exactly (Cohen, Alg. 2.6.7,
    SWAPI): rows k-1 and k exchange their entries left of k-1, d[k] becomes
    (d[k-1] d[k+1] + lam[k][k-1]^2) / d[k], and every computed row i > k
    gets its entries k-1 and k from two exact divisions. Unlike the float
    update, these are the values a recomputation gives, so the steps are
    those of recomputing rows after every swap."""
    m = len(c)
    u = [[1 if i == j else 0 for i in range(m)] for j in range(m)] if transform else None
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
            if 2 * abs(lam_k[j]) <= dj:  # |mu| <= 1/2 rounds to 0, ties to even
                continue
            q = _round_div(lam_k[j], dj)
            c[k] = [x - q * y for x, y in zip(c[k], c[j])]
            if transform:
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
            if transform:
                u[k], u[k - 1] = u[k - 1], u[k]
            lam_k1 = lam[k - 1]
            for j in range(k - 1):
                lam_k[j], lam_k1[j] = lam_k1[j], lam_k[j]
            dk, dk1 = d[k], d[k + 1]
            swapped = (d[k - 1] * dk1 + lam_kj * lam_kj) // dk
            for i in range(k + 1, fresh):
                lam_i = lam[i]
                t = lam_i[k]
                lam_i[k] = x = (dk1 * lam_i[k - 1] - lam_kj * t) // dk
                lam_i[k - 1] = (swapped * t + lam_kj * x) // dk1
            d[k] = swapped
            k = max(k - 1, 1)
    return c, u, lam, d


def _sup(v):
    return max(abs(x) for x in v)


class _BallWalk:
    """Depth-first walk over the lattice vectors v = sum_j c_j b_j, c != 0,
    with ||v||_2^2 <= r2, one of each +-v pair; yields (c, v).

    Level j fixes c_j given c_{j+1..m-1}; it adds (c_j - center_j)^2 *
    ||b*_j||^2 to ||v||^2, with center_j = -sum_{i>j} c_i mu[i][j], so each
    level sweeps up and then down from the integer nearest its center and
    stops a direction at the first value outside the ball. While every
    coefficient above a level is zero, that level sweeps up from 0 only,
    which keeps one of each +-v pair. `shrink` may lower r2 between yields.
    The squared radius is r2 / r2_den; r2_den is an int, and above 1 only in
    the exact mode.
    More than _MAX_NODES nodes inside the ball raise DegenerateInputError.

    In the float mode b holds float columns and gram is (mu, norms). In the
    exact mode b holds integer columns and gram is their integral data
    (lam, d) from `_lll_integral`; with s_j = sum_{i>j} c_i lam[i][j] the
    center is -s_j / d[j+1] and level j adds y_j^2 / (d[j] d[j+1]) for
    y_j = c_j d[j+1] + s_j. Every level is scaled by the one integer
    L = lcm_j d[j] d[j+1], so lengths are integers, compared with
    floor(r2 L): the nodes of the Fraction arithmetic, decided in integers.
    """

    def __init__(self, b, gram, r2, exact: bool, r2_den: int = 1):
        self.b, self.exact = b, exact
        if exact:
            self.coef, d = gram
            self.unit = d[1:]  # y_j steps by d[j+1] per unit of c_j
            dd = [d[j] * d[j + 1] for j in range(len(b))]
            self.scale = math.lcm(*dd)
            self.weight = [self.scale // x for x in dd]
        else:
            self.coef, self.weight = gram
            self.unit = None
        self.shrink(r2, r2_den)

    def shrink(self, r2, r2_den: int = 1):
        if self.exact:  # r2 is an int or a Fraction
            self.limit = r2.numerator * self.scale // (r2.denominator * r2_den)
        else:
            self.limit = r2 * (1 + _FLOAT_SLACK)

    def _count_node(self):
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise DegenerateInputError(
                "enumeration exceeds the desk-scale node budget; "
                "basis is too ill-conditioned after reduction")

    def __iter__(self):
        b, coef, weight, unit, exact = self.b, self.coef, self.weight, self.unit, self.exact
        m = len(weight)
        self.nodes = 0
        c = [0] * m
        center = [0] * m  # exact mode: -s_j, the center times d[j+1]
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
            d = c[j] * unit[j] - center[j] if exact else c[j] - center[j]
            length = partial[j + 1] + d * d * weight[j]
            if length <= self.limit:
                self._count_node()
                partial[j] = length
                cj = c[j]
                vec[j] = [p + cj * x for p, x in zip(vec[j + 1], b[j])] if cj else vec[j + 1]
                top[j - 1] = top[j] and not cj
                j -= 1
                ctr = -sum(c[i] * coef[i][j] for i in range(j + 1, m) if c[i])
                center[j] = ctr
                start[j] = c[j] = _round_div(ctr, unit[j]) if exact else round(ctr)
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
        """Level 0: every c_0 with its level-0 term plus `above` in the ball."""
        w0, b0, exact = self.weight[0], self.b[0], self.exact
        u0 = self.unit[0] if exact else None
        x0 = _round_div(ctr, u0) if exact else round(ctr)
        for x, direction in ((1, 1),) if top else ((x0, 1), (x0 - 1, -1)):
            while True:
                d = x * u0 - ctr if exact else x - ctr
                if above + d * d * w0 > self.limit:
                    break
                self._count_node()
                c[0] = x
                yield tuple(c), [q + x * y for q, y in zip(p, b0)]
                x += direction


def _prepare(basis: LatticeBasis, transform: bool = False):
    """(reduced columns, transform columns, Gram data) of the basis's LLL
    reduction: float columns with (mu, norms), or in the exact mode integer
    columns (the lattice times basis.den) with their integral data (lam, d).
    The transform is tracked only when asked for, and is None otherwise; a
    basis of a stack then reads its lane of the stack's reduction."""
    if basis.m > MAX_DIM:
        raise UnsupportedSizeError(f"dimension {basis.m} exceeds the supported bound {MAX_DIM}")
    if basis.exact:
        b, u, lam, d = _lll_integral(list(basis.int_cols), _EXACT_DELTA, transform)
        return b, u, (lam, d)
    if basis._stack is not None and not transform:
        b, gram = basis._stack.lane(basis._lane)
        return b, None, gram
    b, u, mu, norms = _lll(_float_columns(basis.cols), _DELTA, transform)
    return b, u, (mu, norms)


def reduce(basis: LatticeBasis, delta: float = None):
    """LLL-reduce the basis (delta defaults to 0.99); returns the reduced
    basis together with the unimodular integer transform for audit:
    reduced.cols = basis.cols @ transform. The transform is int64 in the
    float mode and holds Python ints in the exact mode, whose reduced basis
    has the integer columns over the input's denominator."""
    exact = basis.exact
    if exact:
        delta = _EXACT_DELTA if delta is None else Fraction(delta).limit_denominator(10**6)
        b, u, _, _ = _lll_integral(list(basis.int_cols), delta)
        reduced = LatticeBasis.from_integral(b, basis.den)
    else:
        b, u, _, _ = _lll(_float_columns(basis.cols), _DELTA if delta is None else delta)
        reduced = LatticeBasis(np.array(b, dtype=float).T)
    m = basis.m
    transform = np.array([[u[j][i] for j in range(m)] for i in range(m)],
                         dtype=object if exact else np.int64)
    return reduced, transform


def _scalar(x, exact: bool):
    """A radius or halfwidth in the basis's scalar mode: in the exact mode
    ints and Fractions pass through and floats convert without rounding."""
    if exact:
        return x if _linalg.is_exact_scalar(x) else Fraction(x)
    return float(x)


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
    bred, ucols, gram = _prepare(basis, True)
    exact = basis.exact
    m = basis.m
    best = min(_sup(col) for col in bred)
    if best == 0:
        raise InvariantError("reduced basis contains the zero vector")
    walk = _BallWalk(bred, gram, m * best * best, exact)
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
    oc = min(originals)
    coeffs = np.array(oc, dtype=object if exact else np.int64)
    if exact:
        den = basis.den
        vector = np.empty(m, dtype=object)
        for i in range(m):
            vector[i] = Fraction(sum(x * col[i] for x, col in zip(oc, basis.int_cols)), den)
        length = max(abs(x) for x in vector)
    else:
        vector = np.asarray(basis.cols @ coeffs, dtype=float)
        length = float(max(abs(x) for x in vector))
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
    if any(not 0 < x < math.inf for x in w):  # nan fails too; ints and Fractions compare exactly
        raise DomainError("halfwidths must be positive and finite")
    exact = basis.exact
    if exact:  # the box in units of 1/den; integers x have |x| <= r iff |x| <= floor(r)
        w = [_scalar(x, True) * basis.den for x in w]
        r2 = sum(x * x for x in w)
        w = [math.floor(x) for x in w]
    else:
        w = [_scalar(x, False) for x in w]
        if basis._stack is not None:
            count = basis._stack.count(basis._lane, w)
            if count is not None:
                return count
        r2 = sum(x * x for x in w)
    bred, _, gram = _prepare(basis)
    count = 0
    try:
        for _, v in _BallWalk(bred, gram, r2, exact):
            if all(abs(x) <= wx for x, wx in zip(v, w)):
                count += 1
    except DegenerateInputError as exc:  # past the node budget: name a stack's lane
        exc.sample_index = basis._lane
        raise
    return 2 * count


def _exists_shorter(basis: LatticeBasis, bound) -> bool:
    """Is there a nonzero lattice vector with ||v||_inf strictly below bound?
    The callers have checked bound > 0. On a basis of a float stack a bound
    that is a float (or equals one) is decided for the whole stack at once."""
    exact = basis.exact
    if exact:  # bound * den = p / q; integers x have |x| < p / q iff |x| < ceil(p / q)
        bound = _scalar(bound, True)
        p, q = bound.numerator * basis.den, bound.denominator
        bound = -(-p // q)
        r2, r2_den = basis.m * p * p, q * q
    else:
        r = _scalar(bound, False)
        if basis._stack is not None and r == bound:
            found = basis._stack.exists_shorter(basis._lane, r)
            if found is not None:
                return found
        r2, r2_den = basis.m * r * r, 1
    bred, _, gram = _prepare(basis)
    if any(_sup(col) < bound for col in bred):
        return True
    try:
        return any(_sup(v) < bound for _, v in _BallWalk(bred, gram, r2, exact, r2_den))
    except DegenerateInputError as exc:
        exc.sample_index = basis._lane
        raise


def in_kmu(basis: LatticeBasis, mu) -> bool:
    """True iff the lattice misses the open sup-norm ball of radius mu, i.e.
    the shortest nonzero vector has length >= mu. Requires 0 < mu < 1."""
    if not 0 < mu < 1:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    return not _exists_shorter(basis, mu)


def in_mahler_compact(basis: LatticeBasis, eps) -> bool:
    """True iff the shortest nonzero vector has sup-norm >= eps (eps > 0)."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    return not _exists_shorter(basis, eps)
