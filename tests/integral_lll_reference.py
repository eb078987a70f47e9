"""References for the integral LLL.

`lll_integral` is `lattice._lll_integral` as it was written before the
kernel was generated per dimension: one generic loop over the stages and
the coordinates, which computes each Gram row once and updates the computed
rows exactly on a swap (Cohen, Alg. 2.6.7, SWAPI). `reference_lll_integral`
takes the same steps with every Gram row invalidated from k-1 up by a swap
and recomputed from the columns when the stage index reaches it again, so
no row is ever updated in place. Both read _MAX_LLL_STEPS from this module
and share no code with the kernel.
"""

from operator import mul

from danilab.errors import InternalIdentityError
from danilab.lattice import _MAX_LLL_STEPS


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
        x = sum(map(mul, ci, c[j]))
        lam_j = lam[j]
        for h in range(j):
            x = (d[h + 1] * x - lam_i[h] * lam_j[h]) // d[h]
        if j < i:
            lam_i[j] = x
        else:
            d[i + 1] = x


def lll_integral(c: list, delta, transform: bool = True):
    """The generic integral LLL on the list c of integer columns (its entries
    are replaced, never mutated); returns the reduced columns, the transform
    columns (None when transform is false), lam and d."""
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


def reference_lll_integral(c, delta):
    m = len(c)
    c = list(c)
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
        assert steps <= _MAX_LLL_STEPS
        while fresh <= k:
            _gram_row(c, lam, d, fresh)
            fresh += 1
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lam_k[j]) <= dj:
                continue
            q = _round_div(lam_k[j], dj)
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
    return c, u, lam, d
