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

A query that walks LLL-reduces the basis once and enumerates the Euclidean
ball ||v||_2 <= R (Fincke-Pohst; each level is tried outward from its
projected center, as in Schnorr-Euchner). The float LLL always tracks its
transform U; the integral LLL tracks it only for the callers that read it
(`reduce`, `shortest_supnorm`), and is one kernel per dimension m,
generated with one branch per stage index, its Gram data in locals and
every coordinate loop written out, and compiled once per m. The exact mode
walks depth first in integers, by one generated kernel per m
too (`_ball_walk`): one nested sweep per level, with no generator and no
call per node.

Every float basis is a lane of a `_Stack`: the bases of one
`LatticeBasis.batch` share one, and a basis made alone has its own. A
caller that reads whole answer lists (`stats.Observable.evaluate_stack`)
takes the checked stack itself (`_checked_stack`, which `batch` wraps) and
builds no bases. The first query on any lane reduces every lane once, with
U, and each query of one box or bound, or of the shortest vector, is
decided for every lane by one float walk (`_walk`, the one float
enumerator), depth first. The float LLL and the float walk each exist
twice, written the same way: as one Python loop over one lane, `_lll` (dot
products summed left to right from 0.0) and `_walk_lane`, and in a compiled
C library (`_clll`) whose one call reduces a whole stack (U in int64;
`_lll` gives the U of a lane past int64) or walks it, with their
IEEE-double operations in their order, so both give the same bits on every
Python. The library is compiled once per machine into the user's cache and
used only after it reproduces `_lll` and `_walk_lane` on a few fixed lanes;
without a C compiler, with an unusable cache or after a failed check, every
lane is reduced by `_lll` and walked by `_walk_lane`, and
`float_lll_backend()` says which runs.

A box of halfwidths w lies inside the ball of radius ||w||_2, so walking
that ball and testing each vector exactly against the box gives exact minima
and counts. Pruning compares squared lengths, so it needs no square roots:
in the exact mode every decision is an integer comparison, and in the float
mode the radius is widened by a small relative slack so that rounding never
drops a lattice vector.

In dimension 2 the ball test ("is there a nonzero v with every |v_i| < r")
never walks, in either mode: it reads four vectors of the reduced pair.
Lemma: let (b0, b1) be LLL-reduced with delta >= 3/4, so |mu| <= 1/2 and
||b1*||^2 >= (delta - mu^2) ||b0||^2. Every nonzero lattice vector v =
c0 b0 + c1 b1 outside +-b0, +-b1, +-(b1 + b0), +-(b1 - b0) has ||v||_inf >=
||b0||_inf. Proof: c1 = 0 gives a multiple of b0. For |c1| >= 2, ||v||_2^2
>= c1^2 ||b1*||^2 >= 4 (delta - 1/4) ||b0||_2^2 >= 2 ||b0||_2^2. For |c1| =
1 and |c0| >= 2, v = (c0 + c1 mu) b0 + c1 b1* with |c0 + c1 mu| >= 3/2, so
||v||_2^2 >= 2.25 ||b0||_2^2. In both cases ||v||_inf^2 >= ||v||_2^2 / 2 >=
||b0||_2^2 >= ||b0||_inf^2. So if any nonzero vector lies in the open box,
one of the four does: b0 itself when v is none of them. A Lagrange-Gauss
reduced pair (|mu| <= 1/2 and ||b1|| >= ||b0||, so ||b1*||^2 >= (1 -
mu^2) ||b0||^2) is LLL-reduced for every delta <= 1, so the lemma applies
to it: the exact test reduces its pair that way (`_lagrange`), in integers
and with no Gram determinants, while exact box counts and shortest vectors
keep the integral LLL, whose Gram data their walk reads. The float walk of
such a pair, once neither column is inside, visits only b1 + b0 and
b1 - b0 as leaves besides the columns, computed as 0.0 + b1 +- b0, which is
how the float test computes them too.
"""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

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
# Minkowski: a unimodular lattice has a nonzero vector of sup-norm <= 1.
_MINKOWSKI_FLOAT_TOL = 1e-9
# LLL's delta for `_lll`, `reduce` and the float stacks' reductions.
_DELTA = 0.99
_EXACT_DELTA = Fraction(99, 100)
_EXACT_DELTA_RATIO = _EXACT_DELTA.as_integer_ratio()  # read once, for every exact query
_SET = object.__setattr__


class LatticeBasis:
    """Columns of a unimodular matrix (|det| = 1 within 1e-8; exactly 1 in
    the exact mode). A float basis holds its float64 columns and its lane of
    a `_Stack`. An exact basis holds `int_cols`, m tuples of ints, and one
    common denominator `den`: column j is int_cols[j] / den. Its Fraction
    matrix `cols` is derived, read-only, and built on first read. Bases are
    immutable. One basis comes from `LatticeBasis(cols)` (a float one is the
    one lane of its own stack), `from_rational` or `from_integral`, each
    with its det check; a float stack of bases comes only from `batch`."""

    __slots__ = ("_cols", "int_cols", "den", "_stack", "_lane")

    def __init__(self, cols: np.ndarray):
        if cols.ndim != 2 or not cols.shape[0] == cols.shape[1] >= 1:
            raise InvariantError(f"basis must be m x m with m >= 1, got shape {cols.shape}")
        int_cols = den = None
        if _linalg.is_exact(cols):
            m = cols.shape[0]
            flat, den = _linalg.integral(cols.T.ravel().tolist())
            int_cols = tuple(tuple(flat[j * m:(j + 1) * m]) for j in range(m))
            _check_integral_det(int_cols, den)
        else:
            _linalg.check_equals(abs(_linalg.det(cols)), 1, UNIMODULAR_TOL, InvariantError,
                                 "|det|")
        cols.flags.writeable = False
        _SET(self, "_cols", cols)
        _SET(self, "int_cols", int_cols)
        _SET(self, "den", den)
        if int_cols is None:
            _SET(self, "_stack", _Stack(cols[None], named=False))
            _SET(self, "_lane", 0)

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
        to |det| == 1 by one determinant of the integer matrix. Entries and
        den of any integer type (numpy's included) are read as Python ints
        through operator.index."""
        ints = tuple(tuple(map(operator.index, col)) for col in int_cols)
        den = operator.index(den)
        m = len(ints)
        if den < 1 or m == 0 or any(len(col) != m for col in ints):
            raise InvariantError(f"need m >= 1 integer columns of length m over den >= 1, got "
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
        """The bases of an (M, m, m) float stack, frozen, each a view of it
        and a lane of its `_checked_stack`, which decides each query for
        every lane at once."""
        stack = _checked_stack(cols)
        # the slots' own setters, which cost less per basis than _SET
        set_cols, set_int_cols, set_den, set_stack, set_lane = (
            getattr(cls, name).__set__ for name in cls.__slots__)
        bases = []
        for lane, view in enumerate(stack.cols):
            basis = object.__new__(cls)
            set_cols(basis, view)
            set_int_cols(basis, None)
            set_den(basis, None)
            set_stack(basis, stack)
            set_lane(basis, lane)
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


def _checked_stack(cols: np.ndarray) -> "_Stack":
    """The named `_Stack` of an (M, m, m) float stack, its columns frozen.
    One np.linalg.det checks every |det| to 1 within UNIMODULAR_TOL; the
    lowest failing lane raises the error of `LatticeBasis(cols[lane])`, with
    its index as `sample_index`. An exact stack is refused: exact bases are
    built one by one."""
    if cols.ndim != 3 or not cols.shape[1] == cols.shape[2] >= 1 or _linalg.is_exact(cols):
        raise InvariantError(f"a stack needs an (M, m, m) float stack with m >= 1, got "
                             f"{cols.dtype} of shape {cols.shape}")
    raise_first([_linalg.unit_failures(np.abs(np.linalg.det(cols)), 1, UNIMODULAR_TOL,
                                       InvariantError, "|det|")], "sample_index")
    cols.flags.writeable = False
    return _Stack(cols, named=True)


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


# Text helpers of the kernel generators, for coordinates c = 0, ..., m - 1.
def _vec(x, m: int) -> str:
    """x0, x1, ..., a tuple display or target."""
    return ", ".join(f"{x}{c}" for c in range(m)) + ("," if m == 1 else "")


def _dot(x, y, m: int) -> str:
    return " + ".join(f"{x}{c} * {y}{c}" for c in range(m))


def _each(fmt, m: int, sep="; ") -> str:
    """fmt for every coordinate c, joined by sep (one line of statements)."""
    return sep.join(fmt.format(c=c) for c in range(m))


def _compile(source, m: int):
    """The function `kernel` that the text source(m) defines, compiled, with
    its code named after the module and function of source, as in
    <lattice._lll m=3>."""
    namespace = {"InternalIdentityError": InternalIdentityError, "InvariantError": InvariantError,
                 "Fraction": Fraction, "lcm": math.lcm, "budget_error": _budget_error}
    module = source.__module__.rpartition(".")[2]
    name = source.__name__.removesuffix("_source")
    exec(compile(source(m), f"<{module}.{name} m={m}>", "exec"), namespace)
    return namespace["kernel"]


def _check_size(m: int) -> None:
    """The module's one size rule: m < 1 and m > MAX_DIM are refused, for
    every reduction and query (by `_kernel`, and by `_reduce_lanes` before
    a float stack is reduced)."""
    if m < 1:
        raise InvariantError("LLL needs at least one column")
    if m > MAX_DIM:
        raise UnsupportedSizeError(f"dimension {m} exceeds the supported bound {MAX_DIM}")


@functools.cache
def _kernel(source, m: int):
    """`_compile(source, m)` for m x m bases, compiled on first use; source
    is `_lll_integral_source` or `_ball_walk_source`. The size rule
    (`_check_size`) runs here, so a cached kernel pays nothing for it."""
    _check_size(m)
    return _compile(source, m)


def _fdot(x, y) -> float:
    """sum_i x_i y_i, summed left to right from 0.0 (builtin sum()
    compensates float sums since Python 3.12)."""
    return functools.reduce(operator.add, map(operator.mul, x, y), 0.0)


def _lll(cols, delta: float = _DELTA):
    """LLL reduction of the float column list; returns (reduced columns, U
    columns, mu, norms) as lists, with reduced[j] = sum_i original[i] *
    U[j][i], U in Python ints, and mu[i][j] (j < i) and norms[i] =
    ||b*_i||^2 the Gram-Schmidt data of the reduced columns: the reference
    the compiled stack LLL is held to (`_matches_lll`).

    Gram-Schmidt row i holds mu[i][j] = <b_i, b*_j> / ||b*_j||^2 and b*_i =
    b_i - sum_j mu[i][j] b*_j, subtracted in j order; every dot product is
    summed left to right from 0.0 (`_fdot`), so each reduction has the same
    bits on every Python. A size-reduction step updates row k of mu in
    place. A swap invalidates the Gram-Schmidt rows from k-1 up, and a row
    is recomputed from the current columns only when the stage index
    reaches it again. The two-row swap update (Cohen, Alg. 2.6.3) would
    avoid those recomputations, but in floats it drifts away from the
    columns: on flowed lattices a_t u(phi) at n = 2, t = 8 its ||b*||^2 are
    off by several percent. The exact mode runs the same steps on integer
    Gram data (`_lll_integral`), where the swap update is exact. More than
    _MAX_LLL_STEPS stages raise InternalIdentityError.
    """
    m = len(cols)
    b = [list(col) for col in cols]
    u = [[int(i == j) for i in range(m)] for j in range(m)]
    mu = [[0.0] * m for _ in range(m)]
    bstar = [None] * m
    norms = [0.0] * m

    def gram_schmidt_row(i):
        v = b[i]
        row = mu[i]
        for j in range(i):
            row[j] = x = _fdot(b[i], bstar[j]) / norms[j]
            v = [y - x * z for y, z in zip(v, bstar[j])]
        bstar[i] = v
        norms[i] = _fdot(v, v)

    gram_schmidt_row(0)
    fresh = 1  # Gram-Schmidt rows below `fresh` match the current columns
    k = 1
    steps = 0
    while k < m:
        steps += 1
        if steps > _MAX_LLL_STEPS:
            raise InternalIdentityError("LLL failed to terminate at desk scale")
        while fresh <= k:
            gram_schmidt_row(fresh)
            fresh += 1
        row = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(row[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                for i in range(j):
                    row[i] -= q * mu[j][i]
                row[j] -= q
        if norms[k] >= (delta - row[k - 1] * row[k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            fresh = k - 1
            k = max(k - 1, 1)
    return b, u, mu, norms


# What `_lll` raises on a lane: a zero norm (ZeroDivisionError), a non-finite
# mu to round (ValueError, OverflowError), or the step cap.
_LLL_ERRORS = (ArithmeticError, ValueError, InternalIdentityError)
# (library, backend) of the float stacks' LLL and walk, set at their first
# reduction: the compiled library (`_clll.Library`) and its path, or None and
# "python: <reason>" when `_lll` reduces every lane and `_walk_lane` walks it.
_COMPILED = None


def _check_lanes() -> list:
    """The stacks the compiled LLL must reduce as `_lll` does before it is
    used: signed zeros (-I puts -0.0 into both products of <b1, b0>, the
    others keep a -0.0 entry that a step with q = 0 meets), half ties (mu =
    +-0.5, +-2.5), a lane `_lll` refuses (its first swap leaves a zero
    norm), a Fibonacci pair whose 5 swaps each follow a size reduction, a
    pair whose quotient 2^70 and an m = 3 lane whose U entry 2^80 leave
    int64, and the flowed n = 2 lane a_8 u(phi), which takes a long swap
    chain."""
    pairs = ([[[-1.0, 0.0], [0.0, -1.0]], [[-1.0, -0.0], [-0.0, -1.0]],
              [[-1.0, -0.0], [0.25, 1.0]], [[2.0, -0.0], [-0.5, 0.5]]]
             + [[[2.0, x], [0.0, 0.5]] for x in (1.0, -1.0, 5.0, -5.0)]
             + [[[1e300, 0.0], [0.0, 1e-300]], [[89.0, 55.0], [55.0, 34.0]],
                [[1.0, 2.0 ** 70], [0.0, 1.0]]])
    e = math.exp(8.0)
    flowed = [[e, 0.0, e * 0.5, e * -1.25], [0.0, e, e * 0.75, e * 0.375],
              [0.0, 0.0, 1 / e, 0.0], [0.0, 0.0, 0.0, 1 / e]]
    chain = [[1.0, 2.0 ** 40, 0.0], [0.0, 1.0, 2.0 ** 40], [0.0, 0.0, 1.0]]
    return [np.array(pairs), np.array([chain]), np.array([flowed])]


def _matches_lll(reduce_stack) -> bool:
    """Does reduce_stack reduce every lane of `_check_lanes()` as `_lll`
    does: a status from 1 to 3 exactly where `_lll` raises, and elsewhere
    the bytes of b, mu and norms, and U as integers where the status is 0?
    (Status 4, U past int64, is allowed on any lane `_lll` reduces: an
    update of U may overflow where the final U fits.)"""
    for stack in _check_lanes():
        b, u, mu, norms, status, _ = reduce_stack(stack, _DELTA, _MAX_LLL_STEPS)
        for lane, cols in enumerate(stack.transpose(0, 2, 1).tolist()):
            try:
                want, want_u, want_mu, want_norms = _lll(cols)
            except _LLL_ERRORS:
                if not 1 <= status[lane] <= 3:
                    return False
                continue
            got = [x[lane].tobytes() for x in (b, mu, norms)]
            if (status[lane] not in (0, 4)
                    or got != [np.array(x, dtype=float).tobytes()
                               for x in (want, want_mu, want_norms)]
                    or status[lane] == 0 and u[lane].tolist() != want_u):
                return False
    return True


def _check_walks() -> list:
    """The walks the compiled walk must answer as `_walk_lane` does before
    it is used, as (b, mu, norms, r2, query, bound): a box count, a ball
    test and the shortest vectors of `_lll`'s reductions of the pairs of
    `_check_lanes()` (signed zeros, half ties, vectors on the box's faces)
    and of a pair with mu = 1/2, whose leaf -4 b0 + b1 is at the edge of its
    window, then of pairs that test one step each: a leaf on the limit, a
    lane whose every norm is above the limit (skipped, its nan mu unread), a
    leaf with a nan coordinate, a zero norm and a nan norm (both dropped);
    the same of m = 4 lanes, two of the signed-zero and tie pairs each, with
    +-0.0 off the blocks; and the shortest vectors of Z^6, whose 364 ties of
    sup-norm 1 are more than the library first has room for."""
    pairs = _check_lanes()[0]
    half_mu = [[1 / math.sqrt(0.9), 0.5 / math.sqrt(0.9)], [0.0, math.sqrt(0.9)]]
    blocks = np.zeros((8, 4, 4))
    for k, lane in enumerate(blocks):
        lane[:] = -0.0 if k % 2 else 0.0
        lane[:2, :2], lane[2:, 2:] = pairs[k], pairs[(k + 1) % 8]
    limit, nan = 1 + _FLOAT_SLACK, math.nan
    steps = [([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [limit, limit]),
             ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [nan, 0.0]], [4.0, 4.0]),
             ([[1.0, nan], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
             ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0]),
             ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [nan, 1.0])]
    cases = []
    for stack, box, r in ((np.concatenate([pairs, [half_mu]]), [3.9, 1.3], 1.5),
                          (blocks, [1.0] * 4, 0.75)):
        lanes = []
        for cols in stack.transpose(0, 2, 1).tolist():
            try:
                b, _, mu, norms = _lll(cols)
            except _LLL_ERRORS:
                continue
            lanes.append((b, mu, norms))
        m = len(box)
        short = [min(max(map(abs, col)) for col in b) for b, _, _ in lanes]
        r2 = {"box": [_fdot(box, box)] * len(lanes), "ball": [m * r * r] * len(lanes),
              "shortest": [m * x * x for x in short]}
        if m == 2:
            lanes += steps
            for query in r2:
                r2[query] += [1.0, 1.0, 2.0, 1.0, 1.0]
            short += [1.0] * len(steps)
        b, mu, norms = (np.array(x, dtype=float) for x in zip(*lanes))
        bounds = {"box": np.array(box), "ball": np.array([r]), "shortest": np.array(short)}
        cases += [(b, mu, norms, np.array(r2[query]), query, bounds[query]) for query in r2]
    eye = np.eye(6)[None]
    return cases + [(eye, np.zeros_like(eye), np.ones((1, 6)), 6.0, "shortest", np.ones(1))]


def _matches_walk(walk) -> bool:
    """Does the library's walk answer every `_check_walks()` case as
    `_walk_lane` does: the same lanes dropped, and on every other lane the
    same count of leaves or the same ties (in any order)?"""
    for case in _check_walks():
        got, want = _walk_lanes(walk, *case), _walk_lanes(None, *case)
        if case[4] == "shortest":
            got, want = ([None if x is None else sorted(x) for x in y] for y in (got, want))
        if got != want:
            return False
    return True


def _compiled():
    """The compiled library (`_clll.Library`), loaded (and compiled, on a
    machine's first use) once per process and used only if its LLL
    `_matches_lll` and its walk `_matches_walk`, or None when this process
    reduces every lane with `_lll` and walks it with `_walk_lane`; the backend
    and, for None, the reason are recorded in `_COMPILED`."""
    global _COMPILED
    if _COMPILED is None:
        from . import _clll
        try:
            library, path = _clll.load()
            if not _matches_lll(library.lll):
                raise _clll.Unusable(f"{path} does not reduce the check lanes as _lll does")
            if not _matches_walk(library.walk):
                raise _clll.Unusable(f"{path} does not walk the check lanes as _walk_lane does")
            _COMPILED = library, path
        except _clll.Unusable as exc:
            _COMPILED = None, f"python: {exc}"
    return _COMPILED[0]


def float_lll_backend():
    """Which backend has reduced and walked this process's float stacks:
    the compiled library's path, or "python: <reason>" when `_lll` reduces
    every lane and `_walk_lane` walks each; None before the first float
    stack reduction."""
    return None if _COMPILED is None else _COMPILED[1]


def _reduce_lanes(cols: np.ndarray, delta: float, name) -> tuple:
    """(b, u, mu, norms): `_lll` of every lane of the (M, m, m) float64
    stack cols at delta, as arrays: b[lane, j] and u[lane, j] are columns
    of the reduced basis and of U. One call of the compiled stack LLL
    (`_compiled`) makes them, or `_lll` lane by lane where that is not
    in use. u is int64, or holds Python ints (dtype object) where a lane's
    U leaves int64; `_lll` gives that lane's U. Whatever `_lll` raises on a
    lane is raised for the lowest such lane as name(error, lane); a lane
    the library refuses is reduced again by `_lll` to raise its error."""
    def lll(lane):
        try:
            return _lll(_float_columns(cols[lane]), delta)
        except _LLL_ERRORS as exc:
            raise name(exc, lane)

    _check_size(cols.shape[1])
    library = _compiled()
    if library is None:  # lane by lane into the arrays: no list of every lane
        size, m, _ = cols.shape
        b, mu, norms = np.empty((size, m, m)), np.empty((size, m, m)), np.empty((size, m))
        u = np.empty((size, m, m), dtype=np.int64)
        wide = []
        for lane in range(size):
            b[lane], ucols, mu[lane], norms[lane] = lll(lane)
            try:
                u[lane] = ucols
            except OverflowError:
                wide.append((lane, ucols))
    else:
        b, u, mu, norms, status, first = library.lll(cols, delta, _MAX_LLL_STEPS)
        if first >= 0:
            lll(first)
            raise name(InternalIdentityError("the compiled LLL refused a lane that _lll reduces"),
                       first)
        wide = [(lane, lll(lane)[1]) for lane in np.flatnonzero(status).tolist()]  # status 4
    if wide:
        u = u.astype(object)
        for lane, ucols in wide:
            u[lane] = ucols
    return b, u, mu, norms


class _Stack:
    """The lanes of one float stack: its (M, m, m) columns, their LLL
    reductions and the answers of its queries for every lane, each made on
    first use. A `batch` stack is `named`: a lane that fails raises with its
    index as `sample_index`; the stack of a lone basis names none.

    Every query reads one reduction per lane, made for every lane on the
    first query by `_reduce_lanes` (one call of the compiled stack LLL, or
    `_lll` lane by lane where that is not in use; both read the columns as
    float64 and give `_lll`'s bits): reduced columns b[lane, j] (column
    j), mu[lane, i, j] (j < i) and norms[lane, j], which `reduced` gives,
    and the transform columns `_transform[lane, j]`, which the tie-break of
    the shortest vector reads. Whatever `_lll` raises on a lane is raised
    for the lowest such lane, named. A query is decided for every lane by
    `_walk` (one call of the compiled walk, or `_walk_lane` per lane), save
    a ball test at m = 2, which reads four vectors of each reduced pair
    (`shorter`); a lane past _MAX_NODES, or whose shortest vector fails a
    check, answers with its error, and the other lanes still answer.
    `read` gives one lane's answer, or every lane's; `below` and `minimum`
    read the ball test and the shortest vector.
    """

    __slots__ = ("cols", "named", "_reduced", "_transform", "_answers")

    def __init__(self, cols: np.ndarray, named: bool):
        self.cols = cols
        self.named = named
        self._reduced = None
        self._transform = None
        self._answers = {}

    def _name(self, exc: Exception, lane: int) -> Exception:
        exc.sample_index = lane if self.named else None
        return exc

    def read(self, lane, key, decide, *args):
        """Lane `lane`'s answer to the query `key`, or every lane's answer
        when lane is None; decide(*args) makes the answers of every lane on
        the first read. An answer that is an error is raised afresh, named:
        when every lane is read, the lowest such lane's."""
        answers = self._answers.get(key)
        if answers is None:
            answers = self._answers[key] = decide(*args)
        if lane is None:  # read every lane: the lowest error, if any, is the one raised
            lane = next((i for i, x in enumerate(answers) if isinstance(x, Exception)), None)
            if lane is None:
                return answers
        x = answers[lane]
        if isinstance(x, Exception):
            raise self._name(type(x)(*x.args), lane)
        return x

    def below(self, bound, lane=None):
        """`_exists_shorter` of one lane (every lane when lane is None) for
        the bound > 0. A float x has |x| < bound iff |x| < r, for r =
        float(bound), or for the float after it when r < bound."""
        r = float(bound)
        if r < bound:
            r = math.nextafter(r, math.inf)
        return self.read(lane, ("ball", r), self.shorter, r)

    def minimum(self, lane=None):
        """`shortest_supnorm` of one lane (every lane when lane is None)."""
        return self.read(lane, "shortest", self.shortest)

    def reduced(self) -> tuple:
        """(b, mu, norms), the reductions of every lane, made with their
        transforms (`_transform`) on first call."""
        if self._reduced is None:
            cols = np.asarray(self.cols, dtype=np.float64)  # both backends read float64
            b, self._transform, mu, norms = _reduce_lanes(cols, _DELTA, self._name)
            self._reduced = b, mu, norms
        return self._reduced

    def counts(self, w: list) -> list:
        """`count_in_box` of every lane for the float halfwidths w."""
        return [_budget_error() if h is None else 2 * h
                for h in _walk(*self.reduced(), sum(x * x for x in w), "box", np.array(w))]

    def shorter(self, r: float) -> list:
        """`_exists_shorter` of every lane for the float bound r; as in one
        basis's walk, a reduced column below r decides its lane.

        At m = 2 no lane with finite reduced columns and norms walks: by the
        module's lemma, its reduced pair (b0, b1), which passed the Lovasz
        test at delta = 0.99 with |mu| <= 1/2, has a vector below r iff one
        of b0, b1, b1 + b0, b1 - b0 has. Once neither column is below r, the
        walk's ball m r^2 <= 2 ||b0||^2 holds no leaf but those four, and
        its leaf c1 = 1, c0 = +-1 is 0.0 + b1 +- b0, the same bits up to
        the sign of a zero, so the answer is the walk's. A lane with a
        non-finite coordinate or norm walks as before."""
        b, mu, norms = self.reduced()
        found = np.any(np.all(np.abs(b) < r, axis=2), axis=1)
        if b.shape[1] == 2:
            finite = np.isfinite(b).all(axis=(1, 2)) & np.isfinite(norms).all(axis=1)
            b0, b1 = b[:, 0], b[:, 1]
            found |= finite & (np.all(np.abs(b1 + b0) < r, axis=1)
                               | np.all(np.abs(b1 - b0) < r, axis=1))
            walk = np.flatnonzero(~(found | finite))
        else:
            walk = np.flatnonzero(~found)
        found = found.astype(object)
        if walk.size:
            found[walk] = [_budget_error() if h is None else h > 0
                           for h in _walk(b[walk], mu[walk], norms[walk], b.shape[1] * r * r,
                                          "ball", np.array([r]))]
        return found.tolist()

    def shortest(self) -> list:
        """`shortest_supnorm` of every lane: the ball m L^2 of a lane, L the
        sup-norm of its shortest reduced column, walked once, holds its every
        vector of sup-norm <= L; the ties, recombination and checks are then
        those of one basis, in its order."""
        b, mu, norms = self.reduced()
        size, m, _ = b.shape
        short = np.abs(b).max(axis=2).min(axis=1)
        walk = np.flatnonzero(short > 0)
        found = dict(zip(walk.tolist(), _walk(b[walk], mu[walk], norms[walk],
                                              m * short[walk] * short[walk], "shortest",
                                              short[walk])))
        out = []
        for i in range(size):
            if not short[i] > 0:
                out.append(InvariantError("reduced basis contains the zero vector"))
            elif found[i] is None:
                out.append(_budget_error())
            elif not found[i]:
                out.append(InternalIdentityError("enumeration missed the shortest reduced column"))
            else:
                coeffs = np.array(_first_original(self._transform[i].tolist(), found[i]),
                                  dtype=np.int64)
                vector = np.asarray(self.cols[i] @ coeffs, dtype=float)
                length = float(max(abs(x) for x in vector))
                out.append(_minkowski_error(length) if length > 1 + _MINKOWSKI_FLOAT_TOL
                           else ShortVectorResult(vector=vector, length=length, coeffs=coeffs))
        return out


def _walk(b: np.ndarray, mu: np.ndarray, norms: np.ndarray, r2, query: str,
          bound: np.ndarray) -> list:
    """Per lane of the reductions (b, mu, norms), walked within the squared
    radius r2 (a float, or one per lane): None where the walk drops the lane
    (past _MAX_NODES nodes, or at a window of no finite size), and otherwise
    the answer to the query: for "box", the number of leaves with every
    |v_i| <= bound[i]; for "ball", the number with every |v_i| < bound[0];
    for "shortest", the integer coefficient lists of the leaves of least
    sup-norm among those with sup-norm <= bound[lane], in no set order. The
    one float walk of every query: the compiled library's walk in one call,
    or `_walk_lane` lane by lane where the library is not in use."""
    library = _compiled()
    return _walk_lanes(None if library is None else library.walk, b, mu, norms, r2, query,
                       bound)


def _walk_lanes(walk, b, mu, norms, r2, query: str, bound) -> list:
    """`_walk` by the library's walk, or lane by lane when walk is None."""
    limit = np.broadcast_to(r2 * (1 + _FLOAT_SLACK), len(b))
    if walk is not None:
        found, dropped = walk(b, mu, norms, limit, query, bound, _MAX_NODES)
        if query != "shortest":
            found = found.tolist()
        return [None if x else y for x, y in zip(dropped.tolist(), found)]
    limit, bound = limit.tolist(), bound.tolist()
    out = []
    for lane in range(len(b)):  # one lane's lists at a time: no list of every lane
        leaves = _walk_lane(b[lane].tolist(), mu[lane].tolist(), norms[lane].tolist(),
                            limit[lane])
        try:
            out.append(_answer(leaves, query, [bound[lane]] if query == "shortest" else bound))
        except DegenerateInputError:  # the walk dropped the lane
            out.append(None)
    return out


def _answer(leaves, query: str, bound: list):
    """One lane's answer to the query, as `_walk` gives it, from the leaves
    (c, v) of its walk; the shortest vectors in the walk's order."""
    if query == "box":
        return sum(all(abs(x) <= w for x, w in zip(v, bound)) for _, v in leaves)
    if query == "ball":
        return sum(all(abs(x) < bound[0] for x in v) for _, v in leaves)
    best, ties = math.inf, []
    for c, v in leaves:
        v = [abs(x) for x in v]
        if all(x <= bound[0] for x in v):  # no nan coordinate, so max is the sup-norm
            sup = max(v)
            if sup < best:
                best, ties = sup, []
            if sup == best:
                ties.append([int(x) for x in c])
    return ties


def _walk_lane(b: list, mu: list, norms: list, limit: float):
    """Yield the leaves (c, v) of one lane's walk within the limit, float
    coefficients and vector, for the reduced columns b[j], mu[i][j] (j < i)
    and norms[j]: `_clll`'s walk_lane line for line (its docstring spells
    out the IEEE-double operations). Raises the budget error where that
    walk drops the lane. The window round(ctr) +- (floor(sqrt((limit -
    partial) / norms[j]) + 0.5) + 1) holds every c_j with partial + (c_j -
    ctr)^2 norms[j] <= limit despite the rounding; a lane whose every norm
    exceeds the limit has no leaf (under an all-zero top, c_j = 1 already
    adds norms[j] to a length of 0) and is not entered."""
    m = len(norms)
    if all(x > limit for x in norms):  # every norm above the limit: no leaf
        return
    c, ctr, lo, size, done = [0.0] * m, [0.0] * m, [0.0] * m, [0] * m, [0] * m
    part, top, vec = [0.0] * (m + 1), [True] * (m + 1), [None] * m + [[0.0] * m]
    nodes, j = 0, m - 1
    while True:
        # level j under the node above: its center and window
        s = 0.0
        for i in range(j + 1, m):
            s = s + c[i] * mu[i][j]
        ctr[j] = -s
        x = round(ctr[j], 0)
        try:  # raises exactly where C's half is nan or infinite, which drops the lane
            d = math.floor(math.sqrt((limit - part[j + 1]) / norms[j]) + 0.5) + 1.0
        except (ArithmeticError, ValueError):
            raise _budget_error() from None
        lo[j] = float(j == 0) if top[j + 1] else x - d
        x = x + d - lo[j] + 1
        if not x <= 2.0 ** 62:
            raise _budget_error()
        size[j] = int(x) if x > 0 else 0
        done[j] = 0
        # the next node of level j (a leaf at j = 0), or up once it is done
        while True:
            if done[j] == size[j]:
                j += 1
                if j == m:
                    return
                continue
            cj = lo[j] + done[j]
            done[j] += 1
            d = cj - ctr[j]
            x = part[j + 1] + d * d * norms[j]
            if not x <= limit:
                continue
            nodes += 1
            if nodes > _MAX_NODES:
                raise _budget_error()
            if j:
                c[j] = cj
                part[j] = x
                top[j] = top[j + 1] and cj == 0
                vec[j] = [p + cj * q for p, q in zip(vec[j + 1], b[j])]
                j -= 1
                break
            c[0] = cj
            yield c[:], [p + cj * q for p, q in zip(vec[1], b[0])]


# The integral LLL for m x m bases, as one branch per stage index k: the
# Gram data held in locals, lam[i][j] in li_j and d[i] in di (d[0] = 1 is
# never written), and every coordinate loop written out. Branch k computes row k if `fresh` (the number of rows
# computed) says it is new, then spells out the size reduction with round(lam
# / d) half to even inline, the Lovasz test and the swap, whose update of row
# i > k is emitted under `if fresh > i`.
def _lll_integral_source(m: int) -> str:
    """The text of `_lll_integral`'s kernel for m x m bases."""
    def times(*factors):  # their product, without the factor d0 = 1
        return " * ".join(f for f in factors if f != "d0") or "1"

    def gram_row(k, pad):  # x = <b_k, b_j>, then x = (d_{h+1} x - lam[k][h] lam[j][h]) / d_h
        out = []
        for j in range(k + 1):
            target = f"d{k + 1}" if j == k else f"l{k}_{j}"
            if j < k:
                out.append(f"{_vec('s', m)} = b[{j}]")
            x = _dot("a", "s" if j < k else "a", m)
            for h in range(j):
                lj = f"l{k if j == k else j}_{h}"
                x = (f"d{h + 1} * ({x}) - l{k}_{h} * {lj}" if h == 0 else
                     f"(d{h + 1} * x - l{k}_{h} * {lj}) // d{h}")
                if h < j - 1:
                    out.append(f"x = {x}")
                    x = "x"
            out.append(f"{target} = {x}")
        return [pad + line for line in out]

    identity = ", ".join("[" + ", ".join("1" if i == j else "0" for i in range(m)) + "]"
                         for j in range(m))
    lines = ["def kernel(c, delta_num, delta_den, transform, max_steps):",
             "    b = list(map(tuple, c))",
             f"    u = [{identity}] if transform else None",
             f"    {_vec('a', m)} = b[0]",
             f"    d1 = {_dot('a', 'a', m)}",
             "    fresh = 1",
             "    k = 1",
             "    steps = 0",
             f"    while k < {m}:",
             "        steps += 1",
             "        if steps > max_steps:",
             '            raise InternalIdentityError("LLL failed to terminate at desk scale")']
    for k in range(1, m):
        lines += [f"        {'if' if k == 1 else 'elif'} k == {k}:",
                  f"            {_vec('a', m)} = b[{k}]",
                  f"            if fresh == {k}:",
                  *gram_row(k, "                "),
                  f"                fresh = {k + 1}"]
        for j in range(k - 1, -1, -1):
            dj = f"d{j + 1}"
            lines += [f"            if 2 * abs(l{k}_{j}) > {dj}:  # round(mu) != 0",
                      f"                q, r = divmod(l{k}_{j}, {dj})",
                      f"                if 2 * r > {dj} or 2 * r == {dj} and q & 1:",
                      "                    q += 1",
                      f"                {_vec('s', m)} = b[{j}]",
                      "                " + _each("a{c} -= q * s{c}", m),
                      f"                b[{k}] = {_vec('a', m)}",
                      "                if transform:",
                      f"                    {_vec('e', m)} = u[{k}]",
                      f"                    {_vec('f', m)} = u[{j}]",
                      f"                    u[{k}] = [{_each('e{c} - q * f{c}', m, ', ')}]",
                      *(f"                l{k}_{i} -= q * l{j}_{i}" for i in range(j)),
                      f"                l{k}_{j} -= q * {dj}"]
        lk = f"l{k}_{k - 1}"
        lines += [f"            if delta_den * ({times(f'd{k + 1}', f'd{k - 1}')} + {lk} * {lk}) "
                  f">= delta_num * d{k} * d{k}:",
                  f"                k = {k + 1}",
                  "            else:",
                  f"                b[{k - 1}], b[{k}] = b[{k}], b[{k - 1}]",
                  "                if transform:",
                  f"                    u[{k - 1}], u[{k}] = u[{k}], u[{k - 1}]"]
        if k > 1:
            lines.append("                " + ", ".join(
                f"l{k}_{j}, l{k - 1}_{j}" for j in range(k - 1)) + " = " + ", ".join(
                f"l{k - 1}_{j}, l{k}_{j}" for j in range(k - 1)))
        lines.append(f"                t = ({times(f'd{k - 1}', f'd{k + 1}')} + {lk} * {lk}) "
                     f"// d{k}")
        for i in range(k + 1, m):
            lines += [f"                if fresh > {i}:",
                      f"                    x = l{i}_{k}",
                      f"                    l{i}_{k} = y = "
                      f"(d{k + 1} * l{i}_{k - 1} - {lk} * x) // d{k}",
                      f"                    l{i}_{k - 1} = (t * x + {lk} * y) // d{k + 1}"]
        lines += [f"                d{k} = t",
                  f"                k = {max(k - 1, 1)}"]
    lam = ", ".join("[" + ", ".join(f"l{i}_{j}" if j < i else "0" for j in range(m)) + "]"
                    for i in range(m))
    lines.append(f"    return b, u, [{lam}], [1, {', '.join(f'd{i}' for i in range(1, m + 1))}]")
    return "\n".join(lines) + "\n"


def _lll_integral(c, delta: Fraction, transform: bool = True):
    """`_lll` on the sequence c of integer columns, on their integral Gram
    data: lam[i][j] = d[j+1] mu[i][j] (j < i) and the Gram determinants
    d[0..m], so norms[k] = d[k+1] / d[k]. The size-reduction quotient
    round(mu[k][j]) (half to even, as round(Fraction)) and the Lovasz test
    norms[k] >= (delta - mu[k][k-1]^2) norms[k-1] are decided in integers,
    in `_lll`'s order. A common scale of the columns changes no decision, so
    the columns of an exact basis times its denominator take the steps its
    Fraction columns would. Returns the reduced integer columns as tuples,
    the transform columns as lists (None when transform is false: U is then
    not tracked), lam and d.

    The work is done by one kernel per dimension m,
    `_lll_integral_source(m)` compiled once per m by `_kernel`. Each Gram
    row is computed from the columns once, when the stage index first
    reaches it (Cohen, Alg. 2.6.7, step 2; every division is exact). A
    size reduction changes row k only, and a swap at stage k updates the
    rows already computed exactly (SWAPI): rows k-1 and k exchange their
    entries left of k-1, d[k] becomes (d[k-1] d[k+1] + lam[k][k-1]^2) /
    d[k], and every computed row i > k gets its entries k-1 and k from two
    exact divisions. Unlike the float update, these are the values a
    recomputation gives, so the steps are those of recomputing rows after
    every swap. More than _MAX_LLL_STEPS stages raise InternalIdentityError."""
    num, den = _EXACT_DELTA_RATIO if delta is _EXACT_DELTA else delta.as_integer_ratio()
    return _kernel(_lll_integral_source, len(c))(c, num, den, transform, _MAX_LLL_STEPS)


def _sup(v):
    return max(map(abs, v))


def _budget_error() -> DegenerateInputError:
    return DegenerateInputError(
        f"enumeration exceeds the desk-scale node budget of {_MAX_NODES} nodes: the box or "
        "ball holds more lattice vectors than that, or the basis is too ill-conditioned "
        "after reduction")


def _minkowski_error(length) -> InvariantError:
    return InvariantError(f"sup-norm minimum {length} exceeds Minkowski's bound 1 for a "
                          "unimodular lattice; the float arithmetic has lost precision")


def _first_original(ucols, cands) -> tuple:
    """The lexicographically smallest sign-normalized input coefficients U c
    of the candidates c, for the transform columns ucols."""
    m = len(ucols)
    originals = []
    for c in cands:
        oc = tuple(sum(ucols[j][i] * c[j] for j in range(m)) for i in range(m))
        lead = next((x for x in oc if x != 0), 0)
        if lead < 0:
            oc = tuple(-x for x in oc)
        originals.append(oc)
    return min(originals)


# The exact ball walk for m x m bases: the sweep of level j = m - 1, ..., 0
# nested in the one above, so the nodes come in depth-first order. Level j
# holds c_j and its direction in cj, oj, the center times d[j+1] in ej, the
# scaled length of levels j..m-1 in pj, "every coefficient above is zero" in
# tj and sum_{i >= j} c_i b_i in vj_0, vj_1, ... (True, 0, 0, 0 above the top).
def _ball_walk_source(m: int) -> str:
    """The text of `_ball_walk`'s kernel for m x m bases."""
    lines = ["def kernel(b, lam, d, r2, box, first, max_nodes):",
             *(f"    {_vec(f'b{j}_', m)} = b[{j}]" for j in range(m)),
             *(f"    l{i}_{j} = lam[{i}][{j}]" for i in range(m) for j in range(i)),
             f"    _, {', '.join(f'd{j}' for j in range(1, m + 1))} = d",
             f"    {_vec('w', m)} = box",
             f"    scale = lcm(d1{''.join(f', d{j} * d{j + 1}' for j in range(1, m))})",
             "    g0 = scale // d1",
             *(f"    g{j} = scale // (d{j} * d{j + 1})" for j in range(1, m)),
             "    limit = r2.numerator * scale // r2.denominator",
             "    hits = []",
             "    nodes = 0",
             f"    t{m - 1}, e{m - 1}, p{m} = True, 0, 0",
             "    " + _each(f"v{m}_{{c}} = 0", m)]
    pad = "    "
    for j in range(m - 1, -1, -1):
        dj = f"d{j + 1}"
        lines += [f"{pad}if not t{j}:  # sweep up from round(center), then down",
                  f"{pad}    s, r = divmod(e{j}, {dj})",
                  f"{pad}    if 2 * r > {dj} or 2 * r == {dj} and s & 1:",
                  f"{pad}        s += 1",
                  f"{pad}for c{j}, o{j} in (({int(j == 0)}, 1),) if t{j} else "
                  "((s, 1), (s - 1, -1)):",
                  f"{pad}    while True:",
                  f"{pad}        y = c{j} * {dj} - e{j}"]
        pad += "        "
        lines += [f"{pad}p{j} = p{j + 1} + y * y * g{j}",
                  f"{pad}if p{j} > limit:",
                  f"{pad}    break",
                  f"{pad}nodes += 1",
                  f"{pad}if nodes > max_nodes:",
                  f"{pad}    raise budget_error()",
                  pad + _each(f"v{j}_{{c}} = v{j + 1}_{{c}} + c{j} * b{j}_{{c}}", m)]
        if j:
            lines += [f"{pad}t{j - 1} = t{j} and not c{j}",
                      f"{pad}e{j - 1} = -(" + " + ".join(f"c{i} * l{i}_{j - 1}"
                                                         for i in range(j, m)) + ")"]
        else:
            lines += [f"{pad}if {_each('-w{c} <= v0_{c} <= w{c}', m, ' and ')}:",
                      f"{pad}    hits.append((({_vec('c', m)}), ({_vec('v0_', m)})))",
                      f"{pad}    if first:",
                      f"{pad}        return hits, nodes"]
    for j in range(m):  # level j steps on once the levels below it are done
        lines.append(f"    {'        ' * (m - j)}c{j} += o{j}")
    lines.append("    return hits, nodes")
    return "\n".join(lines) + "\n"


def _ball_walk(b, lam, d, r2, box, first: bool = False):
    """Depth-first walk of an exact basis over the lattice vectors v = sum_j
    c_j b_j, c != 0, with ||v||_2^2 <= r2, one of each +-v pair. Returns
    (hits, nodes): the (c, v) of every vector with |v_i| <= box[i], in walk
    order (only the first one if `first`), and the number of nodes walked.
    b holds integer columns with their integral Gram data lam and d as
    `_lll_integral` returns them, and r2 is an int or a Fraction.

    Level j fixes c_j given c_{j+1..m-1}: with s_j = sum_{i>j} c_i lam[i][j]
    its center is -s_j / d[j+1], and it adds y_j^2 / (d[j] d[j+1]) to
    ||v||^2 for y_j = c_j d[j+1] + s_j. It sweeps up and then down from the
    integer nearest its center (half to even), and stops a direction at the
    first value outside the ball; while every coefficient above it is zero
    it sweeps up from 0 only (from 1 at level 0), which keeps one of each
    +-v pair. Every level is scaled by L = lcm_j d[j] d[j+1], so lengths are
    integers, compared with floor(r2 L). The walk is one kernel per
    dimension m, `_ball_walk_source(m)` compiled once per m by `_kernel`.
    More than _MAX_NODES nodes inside the ball raise DegenerateInputError.
    The float mode walks a stack instead (`_walk`)."""
    return _kernel(_ball_walk_source, len(b))(b, lam, d, r2, box, first, _MAX_NODES)


def reduce(basis: LatticeBasis, delta: float = None):
    """LLL-reduce the basis (delta defaults to 0.99); returns the reduced
    basis together with the unimodular integer transform for audit:
    reduced.cols = basis.cols @ transform. The transform is int64 in the
    float mode and holds Python ints in the exact mode, whose reduced basis
    has the integer columns over the input's denominator."""
    exact = basis.exact
    if exact:
        delta = _EXACT_DELTA if delta is None else Fraction(delta).limit_denominator(10**6)
        b, u, _, _ = _lll_integral(basis.int_cols, delta)
        reduced = LatticeBasis.from_integral(b, basis.den)
    else:
        b, u, _, _ = _reduce_lanes(np.asarray(basis.cols, dtype=np.float64)[None],
                                   _DELTA if delta is None else float(delta), lambda exc, _: exc)
        reduced, u = LatticeBasis(b[0].T), u[0].tolist()
    m = basis.m
    transform = np.array([[u[j][i] for j in range(m)] for i in range(m)],
                         dtype=object if exact else np.int64)
    return reduced, transform


def shortest_supnorm(basis: LatticeBasis) -> ShortVectorResult:
    """Exact shortest nonzero vector in sup-norm.

    The minimum-norm reduced column gives an upper bound L. Every v with
    ||v||_inf <= L has ||v||_2^2 <= m L^2, so walking that Euclidean ball
    once and comparing sup-norms exactly is a proof of minimality (a float
    basis walks it with its stack's other lanes, `_Stack.shortest`). Ties
    are broken by the lexicographically smallest sign-normalized coefficient
    vector in the input basis. A result above Minkowski's bound 1 (beyond a
    relative 1e-9 in the float mode) means the float arithmetic has broken
    down and raises InvariantError.
    """
    if not basis.exact:
        return basis._stack.minimum(basis._lane)
    bred, ucols, lam, d = _lll_integral(basis.int_cols, _EXACT_DELTA, True)
    m = basis.m
    best = min(map(_sup, bred))
    if best == 0:
        raise InvariantError("reduced basis contains the zero vector")
    # the vectors of sup-norm <= best in the ball; a shorter one may turn up
    hits, _ = _ball_walk(bred, lam, d, m * best * best, (best,) * m)
    found = [(_sup(v), c) for c, v in hits]
    if not found:
        raise InternalIdentityError("enumeration missed the shortest reduced column")
    best = min(found)[0]
    oc = _first_original(ucols, [c for length, c in found if length == best])
    vector = np.empty(m, dtype=object)
    for i in range(m):
        vector[i] = Fraction(sum(x * col[i] for x, col in zip(oc, basis.int_cols)), basis.den)
    length = max(abs(x) for x in vector)
    if length > 1:
        raise _minkowski_error(length)
    return ShortVectorResult(vector=vector, length=length, coeffs=np.array(oc, dtype=object))


def count_in_box(basis: LatticeBasis, halfwidths) -> int:
    """Number of nonzero lattice vectors v with |v_i| <= halfwidths_i."""
    w = list(halfwidths)
    if len(w) != basis.m:
        raise DomainError("halfwidths length must match basis dimension")
    if any(not 0 < x < math.inf for x in w):  # nan fails too; ints and Fractions compare exactly
        raise DomainError("halfwidths must be positive and finite")
    if not basis.exact:
        w = [float(x) for x in w]
        return basis._stack.read(basis._lane, ("box", *w), basis._stack.counts, w)
    # the box in units of 1/den; integers x have |x| <= r iff |x| <= floor(r)
    w = [(x if _linalg.is_exact_scalar(x) else Fraction(x)) * basis.den for x in w]
    r2 = sum(x * x for x in w)
    w = [math.floor(x) for x in w]
    bred, _, lam, d = _lll_integral(basis.int_cols, _EXACT_DELTA, False)
    hits, _ = _ball_walk(bred, lam, d, r2, w)
    return 2 * len(hits)


def _exists_shorter(basis: LatticeBasis, bound) -> bool:
    """Is there a nonzero lattice vector with ||v||_inf strictly below bound?
    The callers have checked bound > 0. A float basis reads its stack's
    answer (`_Stack.below`); an exact basis reads bound as the rational it
    is, scaled by its denominator (`_exists_below`)."""
    int_cols = basis.int_cols
    if int_cols is None:
        return basis._stack.below(bound, basis._lane)
    if bound == math.inf:  # every lattice vector is finite, as a float lane's test reads it
        return True
    # integers x have |x| < bound * den iff |x| <= B - 1, B = ceil(bound * den)
    num, den = (bound if isinstance(bound, Fraction) else Fraction(bound)).as_integer_ratio()
    return _exists_below(int_cols, -(-num * basis.den // den))


def _lagrange(c) -> tuple:
    """The Lagrange-Gauss reduction of two linearly independent integer
    columns c (Vallee 1991; Nguyen-Stehle 2009): a basis (b0, b1) of their
    lattice, as two tuples, with |mu| <= 1/2 for mu = <b0, b1> / ||b0||^2
    and ||b1|| >= ||b0||. Each round rounds mu to the nearest integer q (half
    up) in integers when 2 |<b0, b1>| > ||b0||^2, subtracts q b0 from b1, and
    swaps the two while b1 is strictly shorter. ||b0||^2 is a positive
    integer that falls at every swap, so the loop ends with no step cap.
    The pair is LLL-reduced for every delta <= 1: ||b1*||^2 = ||b1||^2 -
    mu^2 ||b0||^2 >= (1 - mu^2) ||b0||^2."""
    (x0, y0), (x1, y1) = c
    n0 = x0 * x0 + y0 * y0
    while True:
        dot = x0 * x1 + y0 * y1
        if 2 * abs(dot) > n0:
            q = (2 * dot + n0) // (2 * n0)
            x1 -= q * x0
            y1 -= q * y0
        n1 = x1 * x1 + y1 * y1
        if n1 >= n0:
            return (x0, y0), (x1, y1)
        x0, y0, x1, y1, n0 = x1, y1, x0, y0, n1


def _exists_below(int_cols, bound: int) -> bool:
    """Is there a nonzero integer combination of the integer columns int_cols
    with every coordinate strictly below the integer bound in magnitude? The
    integral LLL reduces the columns; a reduced column inside the box
    answers at once, and otherwise the walk of the ball around the box |x_i|
    <= bound - 1 stops at its first vector.

    At m = 2 nothing walks and no LLL runs: `_lagrange` reduces the pair,
    and a Lagrange-reduced pair (b0, b1) is LLL-reduced for every delta <=
    1, so by the module's lemma it has a vector in the box iff one of b0,
    b1, b1 + b0, b1 - b0 is in it."""
    if len(int_cols) == 2:
        (x0, y0), (x1, y1) = _lagrange(int_cols)
        return (abs(x0) < bound > abs(y0) or abs(x1) < bound > abs(y1)
                or abs(x1 + x0) < bound > abs(y1 + y0) or abs(x1 - x0) < bound > abs(y1 - y0))
    bred, _, lam, d = _lll_integral(int_cols, _EXACT_DELTA, False)
    for col in bred:
        if -bound < min(col) and max(col) < bound:
            return True
    m = len(int_cols)
    hits, _ = _ball_walk(bred, lam, d, m * (bound - 1) ** 2, (bound - 1,) * m, True)
    return bool(hits)


def _check_kmu_radius(mu) -> None:
    """Refuse a K_mu radius outside (0, 1) (nan and every bool or int
    refused); a Fraction mu = p / q is checked on its integers, 0 < p < q."""
    if not (0 < mu.numerator < mu.denominator if isinstance(mu, Fraction) else 0 < mu < 1):
        raise DomainError(f"mu must lie in (0, 1), got {mu}")


def in_kmu(basis: LatticeBasis, mu) -> bool:
    """True iff the lattice misses the open sup-norm ball of radius mu, i.e.
    the shortest nonzero vector has length >= mu. Requires 0 < mu < 1
    (`_check_kmu_radius`); an exact basis decides in integers from the
    numerator and denominator of a Fraction mu."""
    _check_kmu_radius(mu)
    return not _exists_shorter(basis, mu)


def in_mahler_compact(basis: LatticeBasis, eps) -> bool:
    """True iff the shortest nonzero vector has sup-norm >= eps (eps > 0)."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    return not _exists_shorter(basis, eps)
