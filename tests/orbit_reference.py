"""One-sample reference for the batched orbit kernel: the matrix chain
a_t [z(s)] u(phi(s)) [basepoint] built from checked group elements, one
sample at a time, and the mean / standard error of a value list."""

import math

import numpy as np

from danilab import LatticeBasis, a_diag, normalizer, u_embed, z_embed


def reference_cols(curve, s, t, basepoint=None, normalize=False):
    g = a_diag(t, curve.n)
    if normalize:
        g = g @ z_embed(normalizer(curve, s))
    g = g @ u_embed(curve.eval(s))
    return g.entries if basepoint is None else g.entries @ basepoint.cols


def reference_basis(curve, s, t, basepoint=None, normalize=False):
    return LatticeBasis(reference_cols(curve, s, t, basepoint=basepoint, normalize=normalize))


def reference_mean_stderr(values):
    values = np.array(values, dtype=float)
    if values.size < 2:
        return float(np.mean(values)), 0.0
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))
