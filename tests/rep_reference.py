"""Entry-by-entry references for the representation kernel: `rep_image` with
one determinant per minor of an exterior power and, for the adjoint, one
conjugated basis matrix at a time decomposed coordinate by coordinate; the
derived adjoint action; and the rep-verify draws one vector at a time."""

from fractions import Fraction

import numpy as np

from danilab import _linalg, counter_uniform


def reference_rep_image(rep, g):
    a = g.entries if hasattr(g, "entries") else np.asarray(g)
    exact = _linalg.is_exact(a)
    if rep.kind == "exterior":
        if rep.k == 1:
            return a.copy()
        subs = rep._subsets
        out = _linalg.zeros((rep.dim, rep.dim), exact=exact)
        for bcol, t in enumerate(subs):
            sub_cols = a[:, t]
            for arow, s in enumerate(subs):
                minor = sub_cols[s, :]
                out[arow, bcol] = _linalg.det(minor) if exact else float(np.linalg.det(minor))
        return out
    ginv = _linalg.inv(a)
    m = 2 * rep.n
    out = _linalg.zeros((rep.dim, rep.dim), exact=exact)
    col = 0
    for i in range(m):
        for j in range(m):
            if i != j:
                _decompose_into(out, col, np.outer(a[:, i], ginv[j, :]), m)
                col += 1
    for l in range(m - 1):
        y = np.outer(a[:, l], ginv[l, :]) - np.outer(a[:, l + 1], ginv[l + 1, :])
        _decompose_into(out, col, y, m)
        col += 1
    return out


def _decompose_into(out, col, y, m):
    """Coordinates of the trace-zero matrix y in the adjoint basis."""
    row = 0
    for i in range(m):
        for j in range(m):
            if i != j:
                out[row, col] = y[i, j]
                row += 1
    partial = y[0, 0]
    for l in range(m - 1):
        out[row, col] = partial
        row += 1
        if l + 1 < m - 1:
            partial = partial + y[l + 1, l + 1]


def reference_lie_adjoint(rep, x):
    """Derived adjoint action: the bracket [x, b] of each basis matrix b,
    decomposed coordinate by coordinate."""
    m = 2 * rep.n
    exact = _linalg.is_exact(x)

    def bracket(i, j):
        e = _linalg.zeros((m, m), exact=exact)
        e[i, j] = Fraction(1) if exact else 1.0
        return x @ e - e @ x

    out = _linalg.zeros((rep.dim, rep.dim), exact=exact)
    col = 0
    for i in range(m):
        for j in range(m):
            if i != j:
                _decompose_into(out, col, bracket(i, j), m)
                col += 1
    for l in range(m - 1):
        _decompose_into(out, col, bracket(l, l) - bracket(l + 1, l + 1), m)
        col += 1
    return out


def reference_random_combination(basis, seed, base_index):
    """One rep-verify transport draw, coefficient by coefficient."""
    v = np.zeros_like(basis[0])
    for i, vec in enumerate(basis):
        v = v + (2.0 * counter_uniform(seed, base_index + i) - 1.0) * vec
    norm = _linalg.sup_norm(v)
    if norm < 1e-9:
        return basis[0].copy()
    return v / norm


def reference_random_minus_vector(decomp, dim, seed, base_index):
    """One rep-verify contracting draw, coordinate by coordinate."""
    v = np.zeros(dim)
    for pos, i in enumerate(decomp.minus_idx):
        v[i] = 2.0 * counter_uniform(seed, base_index + pos) - 1.0
    norm = _linalg.sup_norm(v)
    if norm < 1e-9:
        v[decomp.minus_idx[0]] = 1.0
        norm = 1.0
    return v / norm
