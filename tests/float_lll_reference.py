"""Reference for the float LLL: `lattice._lll` and its Gram-Schmidt row as
they were written before the kernel was generated per dimension, one
generic loop over the coordinates.

Builtin sum() adds floats with compensation since Python 3.12, so this
module's `sum` is the plain left-to-right sum from int 0 that builtin sum()
computes on earlier versions: the reference then has the same bits on every
Python, as the kernel does.
"""

from functools import reduce
from operator import add, mul

from danilab.errors import InternalIdentityError
from danilab.lattice import _DELTA, _MAX_LLL_STEPS


def sum(items):
    return reduce(add, items, 0)


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
