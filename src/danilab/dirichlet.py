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
(N D)^2n. `correspondence_row` checks phi and mu once per row and runs one
witness search; each of its cells writes the same closed-form columns,
checks their det the same way and decides the lattice side on those
integers (`lattice._exists_below`, the test behind exact `lattice.in_kmu`:
a Lagrange-Gauss reduced pair at n = 1, the integral LLL and ball walk
above), so no query, basis or Fraction is built between the row and its
decisions.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Optional

import numpy as np

from . import _linalg
from .curve import MatrixPolyCurve
from .errors import DomainError, InvariantError
from .lattice import LatticeBasis, _check_kmu_radius, _compile, _exists_below, _vec

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
        if not phi.size:
            raise InvariantError(f"phi must be n x n with n >= 1, got shape {phi.shape}")
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
        # each live scale's first admissible p (index 0 when it has none),
        # and that p and its y, gathered as Python ints in one call
        first = ok.argmax(axis=1)
        hits = ok[np.arange(len(live)), first].tolist()
        gathered = np.stack(p + y)[:, first].T.tolist()
        keep = []
        for row, (s, hit, values) in enumerate(zip(live, hits, gathered)):
            if hit:
                out[Ns[s]] = (tuple(values[:n]),
                              tuple([x // D + (2 * (x % D) > D) for x in values[n:]]))
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
    the common denominator N D (`_closed_form_cols`, which
    `correspondence_row` writes for its cells too). It must have det == 1,
    which is both the group-element and the unimodular-basis condition;
    `_check_triangular` checks it on the integer matrix. (A, D) is the
    query's cached `integral_phi`."""
    A, D = query.integral_phi
    cols, den = _closed_form_cols(A, D, query.N), query.N * D
    _check_triangular(cols, den)
    return LatticeBasis.of_checked_integral(cols, den)


# A correspondence cell's kernels, compiled once per m by `lattice._compile`,
# for every n >= 1: the basis is written and checked whatever the walk's
# MAX_DIM, as `correspondence_basis` always has been.
_cell_kernel = cache(_compile)


# The closed-form columns for m = 2n, as one tuple display: column k < n is
# N^2 D e_k, column n + k holds N^2 A[i][k] in rows i < n and D in row n + k,
# and every other entry is a literal 0. The rows of A are unpacked into
# locals a<i>_<k> once.
def _closed_form_cols_source(m: int) -> str:
    """The text of `_closed_form_cols`' kernel for 2n x 2n bases, m = 2n."""
    n = m // 2
    rows = ", ".join(f"({_vec(f'a{i}_', n)})" for i in range(n)) + ("," if n == 1 else "")
    cols = [["top" if i == k else "0" for i in range(m)] for k in range(n)]
    cols += [[f"N2 * a{i}_{k}" for i in range(n)]
             + ["D" if i == k else "0" for i in range(n)] for k in range(n)]
    return "\n".join(["def kernel(A, D, N):",
                      f"    {rows} = A",
                      "    N2 = N * N",
                      "    top = N2 * D",
                      "    return (" + ", ".join(f"({', '.join(col)})" for col in cols) + ")"]
                     ) + "\n"


def _closed_form_cols(A: tuple, D: int, N: int) -> tuple:
    """The integer columns of [[N^2 D I, N^2 A], [0, D I]], i.e. of
    a_log(N) u(A / D) times N D, as tuples of ints: upper triangular. One
    generated kernel per m = 2n (`_closed_form_cols_source`)."""
    return _cell_kernel(_closed_form_cols_source, 2 * len(A))(A, D, N)


# The det == 1 check of m integer columns: every entry c<j>_<i> of column j
# below the diagonal (i > j) is tested in one `or` chain, then the diagonal
# product is compared with den^m.
def _check_triangular_source(m: int) -> str:
    """The text of `_check_triangular`'s kernel for m columns."""
    cols = ", ".join(f"({_vec(f'c{j}_', m)})" for j in range(m)) + ("," if m == 1 else "")
    lines = ["def kernel(cols, den):",
             f"    {cols} = cols"]
    if m > 1:
        lines += ["    if " + " or ".join(f"c{j}_{i}" for j in range(m) for i in range(j + 1, m))
                  + ":",
                  '        raise InvariantError("closed-form basis has a nonzero entry below the '
                  'diagonal; "',
                  '                             "its det is not the product of the diagonal")']
    lines += ["    d = " + " * ".join(f"c{j}_{j}" for j in range(m)),
              f"    if d != den ** {m}:",
              f'        raise InvariantError(f"exact det = {{Fraction(d, den ** {m})}} != 1")']
    return "\n".join(lines) + "\n"


def _check_triangular(cols: tuple, den: int) -> None:
    """Refuse the integer columns cols over den unless det == 1 exactly:
    every entry below the diagonal must be 0, so that the determinant is the
    product of the diagonal, and that product must be den^m. One generated
    kernel per m (`_check_triangular_source`)."""
    _cell_kernel(_check_triangular_source, len(cols))(cols, den)


def correspondence_row(phi: np.ndarray, Ns, mu) -> list:
    """`correspondence_check` at every scale N in Ns for one phi and mu, in
    the order of Ns. phi and mu are checked once, by the first scale's
    query, which writes phi = A / D; mu = 1 is refused as `in_kmu` refuses
    it. The witnesses come from one `first_witnesses` search. Every cell
    writes its own closed-form integer columns (`_closed_form_cols`),
    checks their det == 1 from the triangular form and decides the K_mu
    side on them (`lattice._exists_below`, the integer test behind exact
    `in_kmu`): the lattice misses the open mu-ball iff no nonzero column
    combination has every |x_i| < mu N D, i.e. <= ceil(a N D / b) - 1 for
    mu = a / b. No query, basis or Fraction is built per cell."""
    Ns = list(Ns)
    if not Ns:
        return []
    head = DirichletQuery(phi=phi, N=Ns[0], mu=mu)
    return _correspondence_cells(head.integral_phi, [head.N, *map(_scale, Ns[1:])], head.mu)


def _correspondence_cells(integral_phi: tuple, scales: list, mu: Fraction) -> list:
    """`correspondence_check` at each checked scale of one phi = A / D,
    given as integral_phi = (A, D), and a Fraction mu in (0, 1]."""
    _check_kmu_radius(mu)
    A, D = integral_phi
    a, b = mu.numerator, mu.denominator
    cells = []
    for N, witness in zip(scales, _first_witnesses(integral_phi, scales, a, b, False)):
        den = N * D
        cols = _closed_form_cols(A, D, N)
        _check_triangular(cols, den)
        insoluble = witness is None
        in_ball_complement = not _exists_below(cols, -(-a * den // b))
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
    return _correspondence_cells(query.integral_phi, [query.N], query.mu)[0]


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
