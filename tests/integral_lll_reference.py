"""Reference for the integral LLL: the same steps with every Gram row
invalidated from k-1 up by a swap and recomputed from the columns when the
stage index reaches it again, so no row is ever updated in place."""

from danilab.lattice import _MAX_LLL_STEPS, _gram_row, _round_div


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
