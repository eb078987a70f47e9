"""Solvability of the two-sided Dirichlet system and its lattice mirror.

For an n x n matrix phi, scale N and quality mu the system asks for integer
vectors p, q with ||phi p - q||_inf < mu / N and ||p||_inf < mu N (both
strict). Insolubility is equivalent to the unimodular lattice
a_log(N) u(phi) Z^2n missing the open sup-norm mu-ball, which is what
correspondence_check verifies cell by cell, exactly.

Every input is read as the rational it is: a finite double is a dyadic
rational, so a float entry of phi or a float mu is taken as the Fraction it
stores, and every query decides in integers. `DirichletQuery` is where this
happens: it stores mu as a Fraction and writes phi = A / D once
(`DirichletQuery.integral_phi`). `first_witnesses` decides every strict
inequality in integers from A, D and mu = a / b, for all scales N of one phi
in one search: the p vectors of a smaller scale come first in the
enumeration order of a larger one, so each block of p vectors serves every
scale at once, in whole integer arrays. `solvable` is its one-scale case,
and `improvability_scan` and `correspondence_row` search once per s point.
`correspondence_basis` writes the basis in closed form as integer columns
over the common denominator N D, an upper triangular matrix, and checks
det == 1 from that form: zeros below the diagonal and a diagonal product of
(N D)^2n. `correspondence_row` checks phi and mu once per row. The
lattice side (`lattice.in_kmu`) reduces those integers with the integral
LLL and walks the ball on the same integers, so no Fraction is built
between the query and the decision.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from . import _linalg
from .curve import MatrixPolyCurve
from .errors import DomainError, InvariantError
from .lattice import LatticeBasis, in_kmu

CONVENTIONS = ("lattice_p_nonzero", "paper_both_nonzero")
# p vectors per block of `first_witnesses`: a longer block wastes work on rows
# whose witnesses come early, a shorter one pays numpy's per-call cost more
# often. On the exact-dirichlet benchmark rows the search time rises below
# 128 and is flat within noise up to 4096; at 256 one block holds every p of
# an n = 1 row up to N = 128.
_BLOCK = 256
# Integer arrays stay int64 while an a-priori bound on every intermediate is
# below this; past it they hold Python ints.
_INT64_LIMIT = 2 ** 62


def _scale(N) -> int:
    """N as a Python int: any integer type, never a bool, N >= 1."""
    try:
        value = None if isinstance(N, (bool, np.bool_)) else operator.index(N)
    except TypeError:
        value = None
    if value is None or value < 1:
        raise InvariantError(f"N must be an integer >= 1, got {N!r}")
    return value


@dataclass(frozen=True)
class DirichletQuery:
    """One cell (phi, N, mu) of the system, read exactly: phi's entries are
    ints, Fractions or finite floats, and mu is stored as a Fraction."""

    phi: np.ndarray
    N: int
    mu: Fraction  # in (0, 1]; an int or float is stored as the Fraction it equals

    def __post_init__(self):
        phi = self.phi
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise InvariantError("phi must be square")
        for k, x in enumerate(phi.flat):
            if isinstance(x, float) and not math.isfinite(x):
                i, j = divmod(k, len(phi))
                raise InvariantError(f"phi[{i}, {j}] must be finite, got {x!r}")
        object.__setattr__(self, "N", _scale(self.N))
        mu = self.mu
        if isinstance(mu, (bool, np.bool_)) or not 0 < mu <= 1:
            raise InvariantError(f"mu must be a number in (0, 1], got {mu!r}")
        object.__setattr__(self, "mu", Fraction(mu))

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    def _at_scale(self, N) -> "DirichletQuery":
        """This cell's phi, mu and `integral_phi` at scale N. Only N is
        checked: phi and mu passed this query's own checks. The fields go
        straight into the new query's __dict__, where a frozen dataclass
        keeps them (and `cached_property` its value)."""
        query = object.__new__(DirichletQuery)
        query.__dict__.update(phi=self.phi, N=_scale(N), mu=self.mu,
                              integral_phi=self.integral_phi)
        return query

    @cached_property
    def integral_phi(self) -> tuple:
        """(A, D) with phi = A / D: A the integer rows, D the least common
        denominator of the entries (a float entry read as the dyadic rational
        it stores)."""
        n = self.n
        flat, D = _linalg.integral(self.phi.ravel().tolist())
        return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)), D


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}, expected one of {CONVENTIONS}")


def solvable(query: DirichletQuery, convention: str = "lattice_p_nonzero"
             ) -> Optional[tuple]:
    """First witness (p, q) of the system, or None if insoluble.

    Enumerates p over 0 < ||p||_inf < mu N with each coordinate in
    magnitude-then-positive order (0, 1, -1, 2, -2, ...); for each p the q
    coordinates range in ascending order over the open interval
    (phi p)_i +- mu/N. Under lattice_p_nonzero q is unrestricted; under
    paper_both_nonzero the zero vector q is rejected as well. This is the
    one-scale case of `first_witnesses`, in integers.
    """
    return first_witnesses(query.integral_phi, [query.N], query.mu, convention)[0]


def first_witnesses(integral_phi: tuple, Ns, mu, convention: str = "lattice_p_nonzero"
                    ) -> list:
    """`solvable` at every scale N in Ns for one rational phi = A / D, given
    as integral_phi = (A, D) (`DirichletQuery.integral_phi`), and a rational
    mu = a / b in (0, 1]: the first witness (p, q) at each N, or None.

    Scale N takes the p with 0 < ||p||_inf <= K_N = the largest integer
    below mu N. p runs in the product order of the signed order (0, 1, -1,
    2, -2, ...); the p vectors with ||p||_inf <= K come in the same relative
    order for every bound, so one walk over the largest scale's p serves all
    scales, each keeping the p within its own bound. The walk goes in blocks
    of _BLOCK p vectors and stops once every scale has its witness or has
    passed its last p. Each block decides every scale in whole integer
    arrays. With y = A p, the strict inequality |(phi p)_i - q_i| < mu / N
    times D b N reads |y_i - q_i D| b N < a D. A scale with a p at all has
    mu N > 1, so N >= 2 and the admissible q_i lie in an open interval of
    length 2 mu / N <= 1: at most one, the integer nearest y_i / D. So p is
    admissible at N iff r b N < a D, i.e. r <= (a D - 1) // (b N), for the
    largest distance r of a y_i from the multiples of D; its q is the
    nearest vector, which under paper_both_nonzero must not be 0. Only the
    comparisons of r and ||p||_inf with each scale's bounds are made per
    scale; the rest is computed once per p. The arrays are int64 when an
    a-priori bound on every intermediate is below 2^62, and otherwise hold
    Python ints.
    """
    _check_convention(convention)
    a, b = (mu.numerator, mu.denominator) if _linalg.is_exact_scalar(mu) else (0, 1)
    if not 0 < a <= b:
        raise InvariantError(f"mu must be a rational in (0, 1], got {mu!r}")
    return _first_witnesses(integral_phi, [_scale(N) for N in Ns], a, b,
                            convention == "paper_both_nonzero")


def _first_witnesses(integral_phi: tuple, scales: list, a: int, b: int, nonzero_q: bool
                     ) -> list:
    """`first_witnesses` for checked scales (ints >= 1) and mu = a / b."""
    bounds = {N: (a * N - 1) // b for N in scales}  # K_N, the largest K < mu N
    found = {N: None for N, K in bounds.items() if K < 1}
    live = sorted(N for N, K in bounds.items() if K >= 1)
    if live:
        found.update(_witness_search(integral_phi, live, [bounds[N] for N in live], a, b,
                                     nonzero_q))
    return [found[N] for N in scales]


def _witness_search(integral_phi, Ns, Ks, a, b, nonzero_q) -> dict:
    """{N: first witness or None} for ascending scales Ns with p bounds Ks
    (see `first_witnesses`)."""
    A, D = integral_phi
    n = len(A)
    K = Ks[-1]
    width = 2 * K + 1  # the signed order up to the largest bound
    # p has the signed-order digits of its index in base `width`, so the last
    # p of bound k (every coordinate -k, digit 2k) has index 2k (width^n - 1)
    # / (width - 1).
    ends = [2 * k * (width ** n - 1) // (width - 1) + 1 for k in Ks]
    amax = max(abs(x) for row in A for x in row)
    dtype = np.int64 if max(2 * n * amax * K, a * D, ends[-1]) < _INT64_LIMIT else object
    signed = (np.arange(width, dtype=dtype) + 1) // 2
    signed[2::2] *= -1
    reach = np.array([(a * D - 1) // (b * N) for N in Ns], dtype=dtype)[:, None]
    bound = np.array(Ks, dtype=dtype)[:, None]
    live = list(range(len(Ns)))
    out = {}
    start = 1  # index 0 is p = 0
    while live:
        stop = min(start + _BLOCK, max(ends[s] for s in live))
        if n == 1:
            p = [signed[start:stop]]
        else:
            index = np.arange(start, stop, dtype=dtype)
            p = []
            for _ in range(n):
                p.append(signed[(index % width).astype(np.intp)])
                index //= width
            p.reverse()
        y = [sum(a_ij * p_j for a_ij, p_j in zip(row, p)) for row in A]
        far = reduce(np.maximum, [np.minimum(r, D - r) for r in (y_i % D for y_i in y)])
        size = reduce(np.maximum, map(abs, p))
        ok = (far <= reach) & (size <= bound)
        if nonzero_q:  # q = 0 iff every y_i lies within D / 2 of 0
            ok &= reduce(np.logical_or, [abs(2 * y_i) >= D for y_i in y])
        keep = []
        for row, (s, hit) in enumerate(zip(live, ok.any(axis=1).tolist())):
            if hit:
                j = int(ok[row].argmax())
                q = []
                for y_i in y:
                    x = int(y_i[j])
                    q.append(x // D + (2 * (x % D) > D))
                out[Ns[s]] = tuple(int(p_i[j]) for p_i in p), tuple(q)
            elif ends[s] <= stop:
                out[Ns[s]] = None
            else:
                keep.append(row)
        if len(keep) < len(live):
            live = [live[row] for row in keep]
            reach, bound = reach[keep], bound[keep]
        start = stop
    return out


def correspondence_basis(query: DirichletQuery) -> LatticeBasis:
    """Exact basis of a_log(N) u(phi) Z^2n.

    With phi = A / D the basis [[N I, N phi], [0, I / N]] is written in
    closed form as the integer columns of [[N^2 D I, N^2 A], [0, D I]] over
    the common denominator N D. It must have det == 1, which is both the
    group-element and the unimodular-basis condition; `_checked_triangular`
    checks it on the integer matrix. (A, D) is the query's cached
    `integral_phi`."""
    A, D = query.integral_phi
    n = len(A)
    N = query.N
    N2 = N * N
    top = N2 * D
    cols = []
    for k in range(n):
        cols.append((0,) * k + (top,) + (0,) * (2 * n - k - 1))
    for k in range(n):
        cols.append(tuple([N2 * row[k] for row in A]) + (0,) * k + (D,) + (0,) * (n - k - 1))
    return _checked_triangular(tuple(cols), N * D)


def _checked_triangular(cols: tuple, den: int) -> LatticeBasis:
    """The exact basis of the integer columns cols over den, checked to
    det == 1 exactly: every entry below the diagonal must be 0, so that the
    determinant is the product of the diagonal, and that product must be
    den^m."""
    m = len(cols)
    d = 1
    for j, col in enumerate(cols):
        if any(col[j + 1:]):
            raise InvariantError("closed-form basis has a nonzero entry below the diagonal; "
                                 "its det is not the product of the diagonal")
        d *= col[j]
    if d != den ** m:
        raise InvariantError(f"exact det = {Fraction(d, den ** m)} != 1")
    return LatticeBasis.of_checked_integral(cols, den)


def correspondence_row(phi: np.ndarray, Ns, mu) -> list:
    """`correspondence_check` at every scale N in Ns for one phi and mu, in
    the order of Ns. The witnesses come from one `first_witnesses` search,
    and phi = A / D is written once for the whole row; every cell still
    builds and tests its own basis. phi and mu are checked once, by the
    first scale's query."""
    Ns = list(Ns)
    if not Ns:
        return []
    head = DirichletQuery(phi=phi, N=Ns[0], mu=mu)
    return _correspondence_cells([head] + [head._at_scale(N) for N in Ns[1:]])


def _correspondence_cells(queries: list) -> list:
    """`correspondence_check` of each query of one phi and mu."""
    head = queries[0]
    # every query has checked its N, and mu = a / b in (0, 1]
    witnesses = _first_witnesses(head.integral_phi, [q.N for q in queries], head.mu.numerator,
                                 head.mu.denominator, False)
    cells = []
    for query, witness in zip(queries, witnesses):
        insoluble = witness is None
        in_ball_complement = in_kmu(correspondence_basis(query), query.mu)
        cells.append({
            "insoluble": insoluble,
            "in_kmu": in_ball_complement,
            "agree": insoluble == in_ball_complement,
            "witness": witness,
        })
    return cells


def correspondence_check(query: DirichletQuery) -> dict:
    """Compare insolubility of the system against the lattice-ball criterion.

    Returns {insoluble, in_kmu, agree, witness}; the two sides must agree
    for every query, which is the content of the correspondence. Uses the
    lattice_p_nonzero convention (q unrestricted), the one the unimodular
    lattice actually sees. Requires mu < 1 so the ball test is defined. The
    one-scale case of `correspondence_row`.
    """
    return _correspondence_cells([query])[0]


@dataclass(frozen=True)
class ScanTable:
    """Insolubility table over an s-grid and a set of scales N."""

    s_grid: tuple
    N_set: tuple
    mu: object
    insoluble: np.ndarray  # shape (len(s_grid), len(N_set)), entries 0/1
    convention: str

    def counts_per_s(self) -> np.ndarray:
        return self.insoluble.sum(axis=1)

    def fraction_with_at_least(self, k: int) -> float:
        if k < 1:
            raise DomainError("k must be >= 1")
        return float(np.mean(self.counts_per_s() >= k))

    def summary(self) -> dict:
        return {
            "mu": float(self.mu),
            "convention": self.convention,
            "grid_points": len(self.s_grid),
            "scales": len(self.N_set),
            "fraction_with_at_least": {str(k): self.fraction_with_at_least(k)
                                       for k in (1, 3, 10)},
        }

    def to_csv_text(self) -> str:
        lines = ["s,N,insoluble"]
        for i, s in enumerate(self.s_grid):
            for j, N in enumerate(self.N_set):
                lines.append(f"{float(s)!r},{N},{int(self.insoluble[i, j])}")
        return "\n".join(lines) + "\n"


def improvability_scan(curve: MatrixPolyCurve, mu, s_grid, N_set,
                       convention: str = "lattice_p_nonzero") -> ScanTable:
    """Tabulate insolubility of the mu-system at phi(s) over s in s_grid and
    N in N_set (each N an integer >= 1, as in `DirichletQuery`). One s point
    is one `first_witnesses` search over every N; no correspondence
    checking."""
    s_vals = tuple(s_grid)
    n_vals = tuple(N_set)
    if not s_vals or not n_vals:
        raise DomainError("s_grid and N_set must be nonempty")
    n_vals = tuple(map(_scale, n_vals))
    table = np.zeros((len(s_vals), len(n_vals)), dtype=np.int8)
    for i, s in enumerate(s_vals):
        head = DirichletQuery(phi=curve.eval(s), N=n_vals[0], mu=mu)
        table[i] = [w is None for w in first_witnesses(head.integral_phi, n_vals, head.mu,
                                                       convention)]
    table.flags.writeable = False
    return ScanTable(s_grid=s_vals, N_set=n_vals, mu=mu, insoluble=table,
                     convention=convention)
