"""Reference for the exact lattice queries: the depth-first ball walk of an
exact basis as it was written before the walk was generated per dimension, a
generator over a list of levels, and `count_in_box`, `in_kmu` and
`shortest_supnorm` on it, each reducing with the generic integral LLL loop
(`integral_lll_reference.lll_integral`).

Each query returns its answer together with the number of nodes its walk
visited, which a node budget of that size must still allow.
"""

import math
from fractions import Fraction

from danilab import lattice
from danilab.errors import DegenerateInputError, InternalIdentityError
from integral_lll_reference import _round_div, lll_integral


class BallWalk:
    """Depth-first walk over the lattice vectors v = sum_j c_j b_j, c != 0,
    with ||v||_2^2 <= r2, one of each +-v pair; yields (c, v). b holds
    integer columns with their integral data (lam, d). Level j fixes c_j
    given c_{j+1..m-1}: with s_j = sum_{i>j} c_i lam[i][j] its center is
    -s_j / d[j+1], and it adds y_j^2 / (d[j] d[j+1]) to ||v||^2 for y_j =
    c_j d[j+1] + s_j. It sweeps up and then down from the integer nearest
    its center, and stops a direction at the first value outside the ball;
    while every coefficient above it is zero it sweeps up from 0 only. Every
    level is scaled by L = lcm_j d[j] d[j+1], so lengths are integers,
    compared with floor(r2 L). `nodes` counts the nodes inside the ball;
    more than lattice._MAX_NODES raise DegenerateInputError."""

    def __init__(self, b, gram, r2):
        self.b = b
        self.coef, d = gram
        self.unit = d[1:]  # y_j steps by d[j+1] per unit of c_j
        dd = [d[j] * d[j + 1] for j in range(len(b))]
        scale = math.lcm(*dd)
        self.weight = [scale // x for x in dd]
        self.limit = r2.numerator * scale // r2.denominator  # r2 is an int or a Fraction
        self.nodes = 0

    def _count_node(self):
        self.nodes += 1
        if self.nodes > lattice._MAX_NODES:
            raise DegenerateInputError(
                f"enumeration exceeds the desk-scale node budget of {lattice._MAX_NODES} nodes: "
                "the box or ball holds more lattice vectors than that, or the basis is too "
                "ill-conditioned after reduction")

    def __iter__(self):
        b, coef, weight, unit = self.b, self.coef, self.weight, self.unit
        m = len(weight)
        self.nodes = 0
        c = [0] * m
        center = [0] * m  # -s_j, the center times d[j+1]
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
            d = c[j] * unit[j] - center[j]
            length = partial[j + 1] + d * d * weight[j]
            if length <= self.limit:
                self._count_node()
                partial[j] = length
                cj = c[j]
                vec[j] = [p + cj * x for p, x in zip(vec[j + 1], b[j])] if cj else vec[j + 1]
                top[j - 1] = top[j] and not cj
                j -= 1
                ctr = 0
                for i in range(j + 1, m):
                    if c[i]:
                        ctr += c[i] * coef[i][j]
                center[j] = ctr = -ctr
                start[j] = c[j] = _round_div(ctr, unit[j])
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
        w0, b0, u0 = self.weight[0], self.b[0], self.unit[0]
        x0 = _round_div(ctr, u0)
        for x, direction in ((1, 1),) if top else ((x0, 1), (x0 - 1, -1)):
            while True:
                d = x * u0 - ctr
                if above + d * d * w0 > self.limit:
                    break
                self._count_node()
                c[0] = x
                yield tuple(c), [q + x * y for q, y in zip(p, b0)]
                x += direction


def _sup(v):
    return max(abs(x) for x in v)


def _prepare(basis, transform=False):
    b, u, lam, d = lll_integral(list(basis.int_cols), lattice._EXACT_DELTA, transform)
    return b, u, (lam, d)


def count_in_box(basis, halfwidths):
    """(count, nodes) of `lattice.count_in_box` on an exact basis."""
    w = [Fraction(x) * basis.den for x in halfwidths]
    r2 = sum(x * x for x in w)
    w = [math.floor(x) for x in w]
    bred, _, gram = _prepare(basis)
    walk = BallWalk(bred, gram, r2)
    count = sum(all(abs(x) <= wx for x, wx in zip(v, w)) for _, v in walk)
    return 2 * count, walk.nodes


def exists_below(int_cols, bound):
    """(answer, nodes) of `lattice._exists_below`, by the walk at every m:
    is there a nonzero integer combination of the integer columns with every
    coordinate below the integer bound in magnitude? nodes up to the first
    such vector."""
    bred, _, lam, d = lll_integral(list(int_cols), lattice._EXACT_DELTA, False)
    if any(_sup(col) < bound for col in bred):
        return True, 0
    walk = BallWalk(bred, (lam, d), len(bred) * (bound - 1) ** 2)
    return any(_sup(v) < bound for _, v in walk), walk.nodes


def in_kmu(basis, mu):
    """(in_kmu, nodes) of `lattice.in_kmu` on an exact basis: nodes up to
    the first vector of sup-norm below mu."""
    mu = Fraction(mu)
    found, nodes = exists_below(basis.int_cols, -(-mu.numerator * basis.den // mu.denominator))
    return not found, nodes


def shortest_supnorm(basis):
    """((length, input coefficients), nodes) of `lattice.shortest_supnorm`
    on an exact basis."""
    bred, ucols, gram = _prepare(basis, True)
    m = basis.m
    best = min(_sup(col) for col in bred)
    walk = BallWalk(bred, gram, m * best * best)
    found = [(_sup(v), c) for c, v in walk]
    if not found or min(found)[0] > best:
        raise InternalIdentityError("enumeration missed the shortest reduced column")
    best = min(found)[0]
    originals = []
    for length, c in found:
        if length == best:
            oc = tuple(sum(ucols[j][i] * c[j] for j in range(m)) for i in range(m))
            if next(x for x in oc if x) < 0:
                oc = tuple(-x for x in oc)
            originals.append(oc)
    return (Fraction(best, basis.den), min(originals)), walk.nodes
