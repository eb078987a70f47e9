"""Reference for `_linalg.orthonormal_span`: the pivoted Gram-Schmidt it
was before the span came from one SVD."""

import numpy as np


def orthonormal_span(vectors, tol: float = 1e-9):
    """Rank and orthonormal basis of span(vectors) by pivoted Gram-Schmidt.

    The pivot threshold is relative to the largest input norm, so the rank is
    invariant under rescaling the whole family.
    """
    work = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not work:
        return 0, []
    norms = [float(np.linalg.norm(v)) for v in work]
    scale = max(norms)
    if scale == 0.0:
        return 0, []
    threshold = tol * scale
    basis = []
    remaining = list(work)
    while remaining:
        norms = [float(np.linalg.norm(v)) for v in remaining]
        imax = int(np.argmax(norms))
        if norms[imax] <= threshold:
            break
        q = remaining.pop(imax) / norms[imax]
        # re-orthogonalize once against the accepted basis for stability
        for b in basis:
            q = q - (b @ q) * b
        nq = float(np.linalg.norm(q))
        if nq <= tol:
            continue
        q = q / nq
        basis.append(q)
        remaining = [v - (q @ v) * q for v in remaining]
    return len(basis), basis
