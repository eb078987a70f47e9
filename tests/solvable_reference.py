"""Reference for the exact `solvable`: the system enumerated directly in
Fraction arithmetic, p in signed order (0, 1, -1, 2, -2, ...) and each q_i
in ascending order over the open interval (phi p)_i +- mu/N."""

import itertools
import math
from fractions import Fraction


def _strict_bound(x: Fraction) -> int:
    return int(x) - 1 if x.denominator == 1 else math.floor(x)


def _signed_order(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def reference_solvable(phi, N, mu, convention="lattice_p_nonzero"):
    n = len(phi)
    mu = Fraction(mu)
    p_bound = _strict_bound(mu * N)
    if p_bound < 1:
        return None
    q_radius = mu / N
    phi_rows = [[Fraction(x) for x in row] for row in phi]
    for p in itertools.product(*[list(_signed_order(p_bound))] * n):
        if not any(p):
            continue
        x = [sum(row[j] * p[j] for j in range(n)) for row in phi_rows]
        cand = [range(math.floor(xi - q_radius) + 1, math.ceil(xi + q_radius)) for xi in x]
        if any(len(c) == 0 for c in cand):
            continue
        for q in itertools.product(*cand):
            if convention == "paper_both_nonzero" and not any(q):
                continue
            return tuple(p), tuple(q)
    return None
