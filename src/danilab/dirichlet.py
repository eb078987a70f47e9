"""Solvability of the two-sided Dirichlet system and its lattice mirror.

For an n x n matrix phi, scale N and quality mu the system asks for integer
vectors p, q with ||phi p - q||_inf < mu / N and ||p||_inf < mu N (both
strict). Insolubility is equivalent to the unimodular lattice
a_log(N) u(phi) Z^2n missing the open sup-norm mu-ball, which is what
correspondence_check verifies cell by cell, exactly when phi and mu are
rational.

The exact path works in Python ints end to end. A query writes phi = A / D
once (`DirichletQuery.integral_phi`). `solvable` decides every strict
inequality in integers from A, D and mu = a / b. `correspondence_basis`
writes the basis in closed form as integer columns over the common
denominator N D and checks it with one exact determinant of that integer
matrix. The lattice side (`lattice.in_kmu`) reduces those integers with the
integral LLL and walks the ball on the same integers, so no Fraction is
built between the query and the decision.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

import numpy as np

from . import _linalg
from .curve import MatrixPolyCurve
from .errors import DomainError, InvariantError
from .flow import a_scale, u_embed
from .lattice import LatticeBasis, in_kmu

CONVENTIONS = ("lattice_p_nonzero", "paper_both_nonzero")


@dataclass(frozen=True)
class DirichletQuery:
    phi: np.ndarray
    N: int
    mu: object  # float or Fraction in (0, 1]

    def __post_init__(self):
        phi = self.phi
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise InvariantError("phi must be square")
        try:  # any integer type, stored as a Python int; never a bool
            N = None if isinstance(self.N, (bool, np.bool_)) else operator.index(self.N)
        except TypeError:
            N = None
        if N is None or N < 1:
            raise InvariantError(f"N must be an integer >= 1, got {self.N!r}")
        object.__setattr__(self, "N", N)
        if not 0 < self.mu <= 1:
            raise InvariantError(f"mu must lie in (0, 1], got {self.mu}")

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def exact(self) -> bool:
        return _linalg.is_exact(self.phi) and isinstance(self.mu, (int, Fraction))

    @cached_property
    def integral_phi(self) -> tuple:
        """(A, D) with phi = A / D for a rational phi: A the integer rows,
        D the least common denominator of the entries."""
        n = self.n
        flat, D = _linalg.integral(self.phi.ravel().tolist())
        return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)), D


def _strict_bound(x) -> int:
    """Largest integer K with K < x (so |p_i| <= K encodes |p_i| < x)."""
    if isinstance(x, Fraction):
        return int(x) - 1 if x.denominator == 1 else math.floor(x)
    return math.ceil(x) - 1


def _signed_order(bound: int):
    """0, 1, -1, 2, -2, ... up to |bound| (the deterministic witness order)."""
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _open_interval_ints(lo, hi):
    """Integers q with lo < q < hi, in ascending order."""
    first = math.floor(lo) + 1
    last = math.ceil(hi) - 1
    return range(first, last + 1)


def solvable(query: DirichletQuery, convention: str = "lattice_p_nonzero"
             ) -> Optional[tuple]:
    """First witness (p, q) of the system, or None if insoluble.

    Enumerates p over 0 < ||p||_inf < mu N with each coordinate in
    magnitude-then-positive order (0, 1, -1, 2, -2, ...); for each p the q
    coordinates range in ascending order over the open interval
    (phi p)_i +- mu/N. Under lattice_p_nonzero q is unrestricted; under
    paper_both_nonzero the zero vector q is rejected as well. Exact
    arithmetic whenever phi and mu are rational (`_solvable_exact`).
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}, expected one of {CONVENTIONS}")
    if query.exact:
        return _solvable_exact(query, convention)
    n = query.n
    mu = float(query.mu)
    N = query.N
    p_bound = _strict_bound(mu * N)
    if p_bound < 1:
        return None
    q_radius = mu / N
    phi_f = _linalg.to_float(query.phi)
    phi_rows = [[float(phi_f[i, j]) for j in range(n)] for i in range(n)]

    for p in itertools.product(*[list(_signed_order(p_bound))] * n):
        if not any(p):
            continue
        x = [sum(row[j] * p[j] for j in range(n)) for row in phi_rows]
        cand = [_open_interval_ints(xi - q_radius, xi + q_radius) for xi in x]
        if any(len(c) == 0 for c in cand):
            continue
        for q in itertools.product(*cand):
            if convention == "paper_both_nonzero" and not any(q):
                continue
            return tuple(p), tuple(q)
    return None


def _solvable_exact(query: DirichletQuery, convention: str) -> Optional[tuple]:
    """`solvable` for rational phi = A / D (`DirichletQuery.integral_phi`)
    and mu = a / b, in integers: with x = (A p)_i b N and
    den = D b N, q_i is admissible iff |x - q_i den| < a D, so its range is
    floor((x - a D) / den) + 1 ... ceil((x + a D) / den) - 1."""
    n, N = query.n, query.N
    a, b = query.mu.numerator, query.mu.denominator
    p_bound = (a * N - 1) // b  # the largest K with K < mu N
    if p_bound < 1:
        return None
    A, D = query.integral_phi
    scale = b * N
    den = D * scale
    slack = a * D
    nonzero_q = convention == "paper_both_nonzero"
    for p in itertools.product(list(_signed_order(p_bound)), repeat=n):
        if not any(p):
            continue
        cand = []
        for row in A:
            x = sum(map(mul, row, p)) * scale
            first = (x - slack) // den + 1
            last = -((-x - slack) // den) - 1
            if first > last:
                break
            cand.append(range(first, last + 1))
        else:
            for q in itertools.product(*cand):
                if nonzero_q and not any(q):
                    continue
                return p, q
    return None


def correspondence_basis(query: DirichletQuery) -> LatticeBasis:
    """Basis of a_log(N) u(phi) Z^2n; exact when phi is rational.

    With phi = A / D the exact basis [[N I, N phi], [0, I / N]] is written
    in closed form as the integer columns of [[N^2 D I, N^2 A], [0, D I]]
    over the common denominator N D. It must have det == 1: one exact
    determinant of the integer matrix, equal to (N D)^2n, is both the
    group-element and the unimodular-basis condition."""
    n = query.n
    if not query.exact:
        g = a_scale(float(query.N), n) @ u_embed(_linalg.to_float(query.phi))
        return LatticeBasis(g.entries)
    A, D = query.integral_phi
    N = query.N
    N2 = N * N
    cols = [(0,) * k + (N2 * D,) + (0,) * (2 * n - k - 1) for k in range(n)]
    cols += [tuple(N2 * row[k] for row in A) + (0,) * k + (D,) + (0,) * (n - k - 1)
             for k in range(n)]
    den = N * D
    d = _linalg.det(np.array(cols, dtype=object))  # the transpose: same det
    if d != den ** (2 * n):
        raise InvariantError(f"exact det = {d / den ** (2 * n)} != 1")
    return LatticeBasis.of_checked_integral(tuple(cols), den)


def correspondence_check(query: DirichletQuery) -> dict:
    """Compare insolubility of the system against the lattice-ball criterion.

    Returns {insoluble, in_kmu, agree, witness}; the two sides must agree
    for every query, which is the content of the correspondence. Uses the
    lattice_p_nonzero convention (q unrestricted), the one the unimodular
    lattice actually sees. Requires mu < 1 so the ball test is defined.
    """
    witness = solvable(query, convention="lattice_p_nonzero")
    insoluble = witness is None
    in_ball_complement = in_kmu(correspondence_basis(query), query.mu)
    return {
        "insoluble": insoluble,
        "in_kmu": in_ball_complement,
        "agree": insoluble == in_ball_complement,
        "witness": witness,
    }


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
    N in N_set. One cell = one solvable() call; no correspondence checking."""
    s_vals = tuple(s_grid)
    n_vals = tuple(int(N) for N in N_set)
    if not s_vals or not n_vals:
        raise DomainError("s_grid and N_set must be nonempty")
    table = np.zeros((len(s_vals), len(n_vals)), dtype=np.int8)
    for i, s in enumerate(s_vals):
        phi = curve.eval(s)
        for j, N in enumerate(n_vals):
            query = DirichletQuery(phi=phi, N=N, mu=mu)
            if solvable(query, convention=convention) is None:
                table[i, j] = 1
    table.flags.writeable = False
    return ScanTable(s_grid=s_vals, N_set=n_vals, mu=mu, insoluble=table,
                     convention=convention)
