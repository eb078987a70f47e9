"""Finite-dimensional representations of SL(2n, R) and their weight geometry.

Two families: exterior powers of the standard 2n-dimensional representation
(basis labeled by k-subsets, images given by minors) and the adjoint on
trace-zero matrices (basis: elementary E_ij then diagonal differences).
The diagonal flow splits each into expanding / neutral / contracting weight
spaces; the splitting is symbolic (computed from labels, not numerically).

The verifiers check, on concrete vectors, the transport identity for the
neutral projection under a copy unipotent and the nonvanishing of the
expanding projection on contracting vectors; both are statements about any
SL(2, R) copy whose diagonal matches the ambient flow.

Whole-array paths: a float exterior image takes all its minors under one
stacked np.linalg.det; an adjoint image, float or exact, forms every
g E_ij g^-1 with one broadcast product and decomposes them together (the
diagonal partial sums accumulate in basis order), as does the derived
adjoint action. A float (R, m, m) stack of group elements maps to its
(R, dim, dim) stack of images in the same calls. The transport suite takes
r as a stack axis: for a sequence of R values of r, `unipotent_image`
builds every u(r phi) as one stack (one det check) with one `rep_image`
call, `constrained_subspace` reads all R bases off one stacked SVD, and the
verifiers take (R, k, dim) draws, apply each r's image to its own rows and
build rho(E_phi), which does not depend on r, once per call. A scalar r is
the one-block case of the same code. Each check runs per r and per draw;
the lowest failing r raises, and within it the lowest failing draw, named
by `r_index` and `draw_index`. The weight split is computed once per
representation. Exact exterior minors (one exact determinant each) and the
derived exterior action stay entry loops.

Images are exact when the entries they are built from are; no function
here picks a mode of its own. `obstruction_subspace` works in the mode of
the phi(s) that `curve.eval` returns, and the trace check of `lie_image` is
the package's unit check (`_linalg.check_equals`).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _linalg
from .curve import MatrixPolyCurve
from .errors import DomainError, HypothesisViolationError, raise_first
from .flow import E_MAT, GROUP_DET_TOL, GroupElement, Sl2Copy, _det_error, sl2_image, u_embed


@dataclass(frozen=True)
class Representation:
    """kind 'exterior' (power k of the standard rep) or 'adjoint'."""

    kind: str
    n: int
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("exterior", "adjoint"):
            raise DomainError(f"unknown representation kind {self.kind!r}")
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.kind == "exterior" and not 1 <= self.k <= 2 * self.n:
            raise DomainError(f"exterior power k must lie in [1, {2 * self.n}], got {self.k}")

    @cached_property
    def dim(self) -> int:
        if self.kind == "exterior":
            return math.comb(2 * self.n, self.k)
        return 4 * self.n * self.n - 1

    @cached_property
    def labels(self) -> tuple:
        """Basis labels: 1-based k-subsets, or ('E', i, j) / ('D', l)."""
        m = 2 * self.n
        if self.kind == "exterior":
            return tuple(tuple(i + 1 for i in s)
                         for s in itertools.combinations(range(m), self.k))
        off = [("E", i + 1, j + 1) for i in range(m) for j in range(m) if i != j]
        diag = [("D", l + 1) for l in range(m - 1)]
        return tuple(off + diag)

    @cached_property
    def _subsets(self) -> tuple:
        """0-based subset tuples (exterior only)."""
        return tuple(itertools.combinations(range(2 * self.n), self.k))

    @cached_property
    def _subset_index(self) -> np.ndarray:
        """The 0-based subsets as a (dim, k) index array (exterior only)."""
        return np.array(self._subsets, dtype=np.intp).reshape(self.dim, self.k)

    @cached_property
    def _decomposition(self) -> "WeightDecomposition":
        n = self.n
        weights = []
        if self.kind == "exterior":
            for s in self._subsets:
                p = sum(1 for i in s if i < n)
                weights.append(p - (self.k - p))
        else:
            m = 2 * n
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    if i < n <= j:
                        weights.append(2)
                    elif j < n <= i:
                        weights.append(-2)
                    else:
                        weights.append(0)
            weights.extend([0] * (m - 1))
        w = tuple(weights)
        return WeightDecomposition(
            weights=w,
            plus_idx=tuple(i for i, x in enumerate(w) if x > 0),
            zero_idx=tuple(i for i, x in enumerate(w) if x == 0),
            minus_idx=tuple(i for i, x in enumerate(w) if x < 0),
        )


def exterior(n: int, k: int) -> Representation:
    return Representation(kind="exterior", n=n, k=k)


def adjoint(n: int) -> Representation:
    return Representation(kind="adjoint", n=n)


@dataclass(frozen=True)
class WeightDecomposition:
    weights: tuple
    plus_idx: tuple
    zero_idx: tuple
    minus_idx: tuple

    @cached_property
    def _index(self) -> dict:
        """Index arrays of the three parts, for fancy indexing."""
        return {part: np.array(idx, dtype=np.intp) for part, idx in
                (("plus", self.plus_idx), ("zero", self.zero_idx), ("minus", self.minus_idx))}


def weight_split(rep: Representation) -> WeightDecomposition:
    """Flow weights per basis vector, from the labels alone; computed once
    per representation.

    Exterior: weight(S) = #(S among the first n) - #(S among the last n).
    Adjoint: E_ij carries +2 / -2 / 0 according to which diagonal half i and
    j fall in; diagonal differences carry 0.
    """
    return rep._decomposition


def project(decomp: WeightDecomposition, part: str, v: np.ndarray) -> np.ndarray:
    """Zero out the coordinates away from the requested weight part (along
    the last axis, so a (k, dim) stack projects row by row)."""
    idx = decomp._index.get(part)
    if idx is None:
        raise DomainError(f"part must be plus/zero/minus, got {part!r}")
    out = np.zeros_like(v)
    out[..., idx] = v[..., idx]
    return out


def _entries_of(g) -> np.ndarray:
    return g.entries if isinstance(g, GroupElement) else np.asarray(g)


def rep_image(rep: Representation, g) -> np.ndarray:
    """Matrix of the representation at g, in the labeled basis. Exact when
    the entries of g are exact; a float (R, m, m) stack of entries gives the
    (R, dim, dim) stack of images."""
    a = _entries_of(g)
    m = 2 * rep.n
    exact = _linalg.is_exact(a)
    if a.shape[-2:] != (m, m) or a.ndim != 2 and (exact or a.ndim != 3):
        raise DomainError(f"group element must be {m} x {m}, or a float stack of them")
    if rep.kind == "exterior":
        if rep.k == 1:
            return a.copy()
        if not exact:
            # minors[..., row, col] = a[..., S_row, S_col], all under one determinant
            idx = rep._subset_index
            return np.linalg.det(a[..., idx[:, None, :, None], idx[None, :, None, :]])
        subs = rep._subsets
        out = _linalg.zeros((rep.dim, rep.dim), exact=True)
        for bcol, t in enumerate(subs):
            sub_cols = a[:, t]
            for arow, s in enumerate(subs):
                out[arow, bcol] = _linalg.det(sub_cols[s, :])
        return out
    ginv = _linalg.inv(a)
    # y[..., i, j, :, :] = outer(a[..., :, i], ginv[..., j, :]) = g E_ij g^-1
    at = np.swapaxes(a, -1, -2)
    return _adjoint_matrix(at[..., :, None, :, None] * ginv[..., None, :, None, :])


def _adjoint_matrix(y: np.ndarray) -> np.ndarray:
    """Matrix in the adjoint basis of the linear map sending E_ij to the
    trace-zero matrix y[..., i, j]; y has shape (..., m, m, m, m)."""
    m = y.shape[-1]
    off = ~np.eye(m, dtype=bool)
    d = np.arange(m)
    diag = y[..., d, d, :, :]
    # basis images: E_ij (i != j) in row-major order, then E_ll - E_l+1,l+1
    cols = np.concatenate([y[..., off, :, :], diag[..., :-1, :, :] - diag[..., 1:, :, :]],
                          axis=-3)
    # coordinates: off-diagonal entries, then the partial sums of the diagonal
    coords = np.concatenate([cols[..., off], np.cumsum(cols[..., d[:-1], d[:-1]], axis=-1)],
                            axis=-1)
    return np.ascontiguousarray(np.swapaxes(coords, -1, -2))


def lie_image(rep: Representation, x) -> np.ndarray:
    """Matrix of the derived (Lie algebra) action of a trace-zero x."""
    a = _entries_of(x)
    m = 2 * rep.n
    if a.shape != (m, m):
        raise DomainError(f"Lie algebra element must be {m} x {m}")
    exact = _linalg.is_exact(a)
    _linalg.check_equals(sum(a[i, i] for i in range(m)), 0, 1e-10, DomainError, "trace")
    if rep.kind == "adjoint":
        def bracket(i, j):
            e = _eij(m, i, j, exact)
            return a @ e - e @ a
        return _adjoint_matrix(np.stack([np.stack([bracket(i, j) for j in range(m)])
                                         for i in range(m)]))
    subs = rep._subsets
    index = {s: r for r, s in enumerate(subs)}
    dim = rep.dim
    out = _linalg.zeros((dim, dim), exact=exact)
    for b, s in enumerate(subs):
        sset = set(s)
        for pos, j in enumerate(s):
            for i in range(m):
                x_ij = a[i, j]
                if x_ij == 0:
                    continue
                if i == j:
                    out[b, b] += x_ij
                elif i not in sset:
                    rest = tuple(t for t in s if t != j)
                    c = sum(1 for t in rest if t < i)
                    target = tuple(sorted(rest + (i,)))
                    sign = -1 if (pos - c) % 2 else 1
                    out[index[target], b] += sign * x_ij
    return out


def _eij(m: int, i: int, j: int, exact: bool) -> np.ndarray:
    out = _linalg.zeros((m, m), exact=exact)
    out[i, j] = Fraction(1) if exact else 1.0
    return out


def upper_block(n: int, phi: np.ndarray) -> np.ndarray:
    """The nilpotent [[0, phi], [0, 0]] whose exponential is u(phi)."""
    exact = _linalg.is_exact(phi)
    out = _linalg.zeros((2 * n, 2 * n), exact=exact)
    out[:n, n:] = phi
    return out


def constrained_subspace(rep: Representation, copy: Sl2Copy, r, tol: float = 1e-9,
                         image: np.ndarray = None):
    """Orthonormal basis of {v in V0 + V- : rho(u(r phi)) v in V0 + V-}; for
    a sequence of R values of r, the list of the R bases.

    Linear in v: the expanding coordinates of rho(u(r phi)) v must vanish,
    with v supported on the neutral and contracting coordinates. `image` is
    rho(u(r phi)) as `unipotent_image(rep, copy, r)` returns it; it is built
    here when not given. Every r must be nonzero (the lowest zero raises,
    with its position as `r_index`); the bases come from one stacked SVD.
    """
    _check_nonzero(r)
    decomp = weight_split(rep)
    img = unipotent_image(rep, copy, r) if image is None else image
    idx = decomp._index
    zm = np.concatenate([idx["zero"], idx["minus"]])
    ranks, vh = _linalg.nullspaces(
        img.reshape(-1, rep.dim, rep.dim)[:, idx["plus"][:, None], zm], tol=tol)
    full = np.zeros(vh.shape[:2] + (rep.dim,))
    full[..., zm] = vh
    bases = [list(f[rank:]) for f, rank in zip(full, ranks)]
    return bases[0] if np.ndim(r) == 0 else bases


def _check_nonzero(r):
    """Raise unless every value of r (one, or a sequence) is nonzero: the
    lowest zero raises, with its position as `r_index`."""
    raise_first([(np.asarray(r, dtype=float).reshape(-1) == 0,
                  lambda i: DomainError("r must be nonzero"))], "r_index")


def _draws(rep: Representation, r, v):
    """(vs, shape): v as an (R, k, dim) float stack of draws, k for each of
    the R values of r, and the shape of the results. A scalar r takes one
    vector (dim,), giving one result, or a (k, dim) stack; a sequence of R
    values an (R, k, dim) stack."""
    vs = np.asarray(v, dtype=float)
    if np.ndim(r) == 0:
        if vs.ndim not in (1, 2) or vs.shape[-1] != rep.dim:
            raise DomainError(f"v must have shape ({rep.dim},) or (k, {rep.dim}), "
                              f"got {vs.shape}")
    elif vs.shape[:1] != (len(r),) or vs.ndim != 3 or vs.shape[-1] != rep.dim:
        raise DomainError(f"v must have shape ({len(r)}, k, {rep.dim}) for {len(r)} values "
                          f"of r, got {vs.shape}")
    shape = vs.shape[:-1]
    return vs.reshape(len(r) if np.ndim(r) else 1, shape[-1] if shape else 1, rep.dim), shape


def _results(values: np.ndarray, shape: tuple):
    """The (R, k) results of a verifier in the shape of its draws: a float
    for one vector."""
    out = values.reshape(shape)
    return float(out) if not shape else out


def _row_sup(vs: np.ndarray) -> np.ndarray:
    """Sup-norm of each row."""
    return np.max(np.abs(vs), axis=-1)


def _apply(img: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """img @ v for every row v of the (R, k, dim) stack, with one matrix or
    one per r: each as its own matrix-vector product (a matrix-matrix
    product vs @ img.T may round differently)."""
    return np.matmul(img.reshape(-1, 1, *img.shape[-2:]), vs[..., None])[..., 0]


def unipotent_image(rep: Representation, copy: Sl2Copy, r) -> np.ndarray:
    """The float matrix of rho(u(r phi)) for the copy's phi; for a sequence
    of R values of r, the (R, dim, dim) stack of them. The elements u(r phi)
    are built as one stack, each checked to have det within GROUP_DET_TOL of
    1 (one determinant over the stack; the lowest failing r raises, with its
    position as `r_index`), and mapped by one `rep_image` call."""
    rs = np.asarray(r, dtype=float)
    n = copy.n
    g = np.zeros(rs.shape + (2 * n, 2 * n))
    d = np.arange(2 * n)
    g[..., d, d] = 1.0
    g[..., :n, n:] = rs[..., None, None] * _linalg.to_float(copy.phi)
    det = np.linalg.det(g).reshape(-1)
    raise_first([(~(np.abs(det - 1.0) <= GROUP_DET_TOL), lambda i: _det_error(float(det[i])))],
                "r_index")
    return rep_image(rep, g)


def verify_q0_transport(rep: Representation, copy: Sl2Copy, r, v,
                        tol: float = 1e-8, image: np.ndarray = None):
    """Residual of the neutral-projection transport identity
    q0(rho(u(r phi)) v) = rho(E_phi) q0(v), for v with v and rho(u(r phi)) v
    both in V0 + V-. Violated preconditions raise with the residual.

    For a scalar r, v is one vector (dim,), giving a float, or a (k, dim)
    stack of draws, giving the k residuals; for a sequence of R values of r,
    v is an (R, k, dim) stack, giving the (R, k) residuals. The images are
    built once per call (rho(E_phi) one matrix for every r), except
    rho(u(r phi)) when `image` (as `unipotent_image` returns it) is given.
    The lowest failing r raises, and within it the lowest failing draw, with
    their positions as `r_index` and `draw_index`."""
    decomp = weight_split(rep)
    vs, shape = _draws(rep, r, v)
    pre_in = _row_sup(project(decomp, "plus", vs))
    ws = _apply(unipotent_image(rep, copy, r) if image is None else image, vs)
    pre_out = _row_sup(project(decomp, "plus", ws))
    # np.fmax(1.0, x) is max(1.0, x) for floats, nan included
    raise_first([
        (pre_in > tol * np.fmax(1.0, _row_sup(vs)), lambda i: HypothesisViolationError(
            f"v has expanding component {pre_in[i]:.3e} beyond tol",
            residual=float(pre_in[i]))),
        (pre_out > tol * np.fmax(1.0, _row_sup(ws)), lambda i: HypothesisViolationError(
            f"rho(u(r phi)) v has expanding component {pre_out[i]:.3e} beyond tol",
            residual=float(pre_out[i]))),
    ], "r_index", "draw_index")
    e_img = _linalg.to_float(rep_image(rep, sl2_image(copy, E_MAT)))
    resid = _row_sup(project(decomp, "zero", ws) - _apply(e_img, project(decomp, "zero", vs)))
    return _results(resid, shape)


def verify_qplus_nonvanish(rep: Representation, copy: Sl2Copy, r, v,
                           tol: float = 1e-8, image: np.ndarray = None):
    """Sup-norm of the expanding projection of rho(u(r phi)) v for a nonzero
    contracting v; the transported dynamical statement says this is > 0.

    v is shaped as for `verify_q0_transport`, and so are the norms; every r
    must be nonzero. The image rho(u(r phi)) is built once per call, or
    taken from `image` (as `unipotent_image` returns it). The lowest failing
    r raises, and within it the lowest failing draw, with their positions as
    `r_index` and `draw_index`."""
    _check_nonzero(r)
    decomp = weight_split(rep)
    vs, shape = _draws(rep, r, v)
    nv = _row_sup(vs)
    outside = _row_sup(vs - project(decomp, "minus", vs))
    raise_first([
        (nv == 0, lambda i: HypothesisViolationError("v must be nonzero", residual=0.0)),
        (outside > tol * nv, lambda i: HypothesisViolationError(
            f"v has component {outside[i]:.3e} outside the contracting part",
            residual=float(outside[i]))),
    ], "r_index", "draw_index")
    img = unipotent_image(rep, copy, r) if image is None else image
    norms = _row_sup(project(decomp, "plus", _apply(img, vs)))
    return _results(norms, shape)


def obstruction_subspace(rep: Representation, curve: MatrixPolyCurve, samples,
                         tol: float = 1e-9):
    """Intersection over the samples of rho(u(phi(s)))^-1 (V0 + V-), i.e.
    vectors whose images never pick up an expanding component.

    Each image is built in the mode of the phi(s) that `curve.eval` returns.
    Exact (rational) when every phi(s) is: the dimension is then certified
    over Q. Returns an orthonormal float basis; an empty list certifies that
    equidistribution obstructions vanish at these sample times."""
    decomp = weight_split(rep)
    if not decomp.plus_idx:
        return [np.eye(rep.dim)[i] for i in range(rep.dim)]
    samples = list(samples)
    if not samples:
        raise DomainError("need at least one sample")
    blocks = [rep_image(rep, u_embed(curve.eval(s)))[list(decomp.plus_idx), :]
              for s in samples]
    exact = all(_linalg.is_exact(b) for b in blocks)
    stacked = np.vstack(blocks if exact else [_linalg.to_float(b) for b in blocks])
    dim_null, basis = _linalg.nullspace(stacked, tol=tol)
    assert dim_null == len(basis)
    return basis


def invariance_subspace(rep: Representation, decomp: WeightDecomposition, w0,
                        tol: float = 1e-9):
    """Matrices phi with u(phi) fixing the neutral vector w0.

    Solves the linearized condition (derived action of [[0, phi], [0, 0]]
    kills w0), then verifies the group-level condition on the basis and on
    random combinations; returns (basis of n x n matrices, verified flag).
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (rep.dim,):
        raise DomainError(f"w0 must have length {rep.dim}")
    off = _linalg.sup_norm(w0 - project(decomp, "zero", w0))
    if off > tol * max(1.0, _linalg.sup_norm(w0)):
        raise HypothesisViolationError(
            f"w0 has component {off:.3e} outside the neutral part", residual=off)
    n = rep.n
    cols = []
    for a in range(n):
        for b in range(n):
            phi = np.zeros((n, n))
            phi[a, b] = 1.0
            l_mat = _linalg.to_float(lie_image(rep, upper_block(n, phi)))
            cols.append(l_mat @ w0)
    system = np.column_stack(cols) if cols else np.zeros((rep.dim, 0))
    dim_null, basis = _linalg.nullspace(system, tol=tol)
    mats = [vec.reshape(n, n) for vec in basis]

    rng = np.random.default_rng(7)
    candidates = list(mats)
    if len(mats) >= 2:
        for _ in range(2):
            coef = rng.standard_normal(len(mats))
            candidates.append(sum(c * mat for c, mat in zip(coef, mats)))
    verified = True
    for phi in candidates:
        img = _linalg.to_float(rep_image(rep, u_embed(phi)))
        resid = _linalg.sup_norm(img @ w0 - w0)
        if resid > 1e-8 * max(1.0, _linalg.sup_norm(w0)):
            verified = False
    return mats, verified
