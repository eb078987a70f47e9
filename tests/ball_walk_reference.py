"""Reference for the float lattice queries: the depth-first ball walk in its
float mode, and `count_in_box`, `_exists_shorter` and `shortest_supnorm` on
one float basis, as they ran before every float query became a query on a
stack.

Each query reduces the basis alone with the scalar `lattice._lll` and walks
it depth first; `shortest_supnorm` shrinks its ball as shorter vectors turn
up. The stack walk must give their answers bit for bit: the same counts and
tests, and the same shortest vector, length and coefficients.
"""

import numpy as np

from danilab import lattice
from danilab.errors import (DegenerateInputError, InternalIdentityError, InvariantError,
                            UnsupportedSizeError)
from danilab.lattice import _FLOAT_SLACK, _MINKOWSKI_FLOAT_TOL, ShortVectorResult, _sup


class _BallWalk:
    """Depth-first walk over the lattice vectors v = sum_j c_j b_j, c != 0,
    with ||v||_2^2 <= r2, one of each +-v pair; yields (c, v).

    Level j fixes c_j given c_{j+1..m-1}; it adds (c_j - center_j)^2 *
    ||b*_j||^2 to ||v||^2, with center_j = -sum_{i>j} c_i mu[i][j] (summed
    left to right in i from 0, skipping c_i = 0, on every Python), so each
    level sweeps up and then down from the integer nearest its center and
    stops a direction at the first value outside the ball. While every
    coefficient above a level is zero, that level sweeps up from 0 only,
    which keeps one of each +-v pair. `shrink` may lower r2 between yields.
    More than lattice._MAX_NODES nodes inside the ball raise
    DegenerateInputError. b holds float columns and gram is (mu, norms).
    """

    def __init__(self, b, gram, r2):
        self.b = b
        self.coef, self.weight = gram
        self.shrink(r2)

    def shrink(self, r2):
        self.limit = r2 * (1 + _FLOAT_SLACK)

    def _count_node(self):
        self.nodes += 1
        if self.nodes > lattice._MAX_NODES:
            raise DegenerateInputError(
                f"enumeration exceeds the desk-scale node budget of {lattice._MAX_NODES} nodes: "
                "the box or ball holds more lattice vectors than that, or the basis is too "
                "ill-conditioned after reduction")

    def __iter__(self):
        b, coef, weight = self.b, self.coef, self.weight
        m = len(weight)
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
            length = partial[j + 1] + d * d * weight[j]
            if length <= self.limit:
                self._count_node()
                partial[j] = length
                cj = c[j]
                vec[j] = [p + cj * x for p, x in zip(vec[j + 1], b[j])] if cj else vec[j + 1]
                top[j - 1] = top[j] and not cj
                j -= 1
                ctr = 0  # not sum(): Python >= 3.12 compensates float sums
                for i in range(j + 1, m):
                    if c[i]:
                        ctr += c[i] * coef[i][j]
                center[j] = ctr = -ctr
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
        """Level 0: every c_0 with its level-0 term plus `above` in the ball."""
        w0, b0 = self.weight[0], self.b[0]
        x0 = round(ctr)
        for x, direction in ((1, 1),) if top else ((x0, 1), (x0 - 1, -1)):
            while True:
                d = x - ctr
                if above + d * d * w0 > self.limit:
                    break
                self._count_node()
                c[0] = x
                yield tuple(c), [q + x * y for q, y in zip(p, b0)]
                x += direction


def _prepare(basis):
    """(reduced columns, transform columns, (mu, norms)) of the basis's
    scalar float LLL reduction."""
    if basis.m > lattice.MAX_DIM:
        raise UnsupportedSizeError(
            f"dimension {basis.m} exceeds the supported bound {lattice.MAX_DIM}")
    b, u, mu, norms = lattice._lll(lattice._float_columns(basis.cols))
    return b, u, (mu, norms)


def shortest_supnorm(basis) -> ShortVectorResult:
    """Shortest nonzero vector in sup-norm: the ball m L^2 of the shortest
    reduced column L, shrunk to m L'^2 whenever a shorter vector L' turns
    up; ties go to the lexicographically smallest sign-normalized
    coefficient vector in the input basis."""
    bred, ucols, gram = _prepare(basis)
    m = basis.m
    best = min(_sup(col) for col in bred)
    if best == 0:
        raise InvariantError("reduced basis contains the zero vector")
    walk = _BallWalk(bred, gram, m * best * best)
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
    coeffs = np.array(oc, dtype=np.int64)
    vector = np.asarray(basis.cols @ coeffs, dtype=float)
    length = float(max(abs(x) for x in vector))
    if length > 1 + _MINKOWSKI_FLOAT_TOL:
        raise InvariantError(
            f"sup-norm minimum {length} exceeds Minkowski's bound 1 for a unimodular "
            "lattice; the float arithmetic has lost precision")
    return ShortVectorResult(vector=vector, length=length, coeffs=coeffs)


def count_in_box(basis, halfwidths) -> int:
    """Number of nonzero lattice vectors v with |v_i| <= halfwidths_i."""
    w = [float(x) for x in halfwidths]
    r2 = sum(x * x for x in w)
    bred, _, gram = _prepare(basis)
    count = 0
    for _, v in _BallWalk(bred, gram, r2):
        if all(abs(x) <= wx for x, wx in zip(v, w)):
            count += 1
    return 2 * count


def exists_shorter(basis, bound) -> bool:
    """Is there a nonzero lattice vector with ||v||_inf strictly below
    bound? Sup-norms compare with the bound as given, a Fraction exactly."""
    r = float(bound)
    r2 = basis.m * r * r
    bred, _, gram = _prepare(basis)
    if any(_sup(col) < bound for col in bred):
        return True
    return any(_sup(v) < bound for _, v in _BallWalk(bred, gram, r2))
