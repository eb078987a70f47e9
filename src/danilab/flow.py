"""Block-structured elements of SL(2n, R) and the diagonal-flow picture.

The three building blocks are upper/lower unipotent embeddings u(phi), the
one-parameter diagonal flow a_t = diag(e^t I, e^-t I), and block-diagonal
centralizer elements z = diag(B, C). An invertible phi also spans an
SL(2, R) copy inside SL(2n, R); its image matrices and the conjugation
identity behind the normalized-curve computation live here too.
"""

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .curve import INVERTIBILITY_TOL, CentralizerElement, MatrixPolyCurve, normalizer_error
from .errors import DomainError, InternalIdentityError, InvariantError, raise_first
from .lattice import LatticeBasis

GROUP_DET_TOL = 1e-8
CONJ_TOL = 1e-9  # bound on the residual of `conj_by_E`'s five-factor product (~1e-15)
# The flow times t with e^t and e^-t both finite nonzero floats: |t| below
# log of the largest float, about 709.78.
_MAX_FLOW_TIME = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GroupElement:
    """A 2n x 2n matrix with det = 1 (checked at construction)."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        m = 2 * self.n
        if self.entries.shape != (m, m):
            raise InvariantError(f"entries must be {m} x {m}, got {self.entries.shape}")
        _linalg.check_equals(_linalg.det(self.entries), 1, GROUP_DET_TOL, InvariantError, "det")
        self.entries.flags.writeable = False

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.n != other.n:
            raise DomainError("size mismatch in group multiplication")
        return GroupElement(self.n, self.entries @ other.entries)

    def inv(self) -> "GroupElement":
        return GroupElement(self.n, _linalg.inv(self.entries))

    def block(self, i: int, j: int) -> np.ndarray:
        """n x n block, indices in {0, 1}."""
        n = self.n
        return self.entries[i * n:(i + 1) * n, j * n:(j + 1) * n]


@dataclass(frozen=True)
class Sl2Copy:
    """The SL(2, R) copy attached to an invertible phi:
    [[a, b], [c, d]] -> [[a I, b phi], [c phi^-1, d I]]."""

    n: int
    phi: np.ndarray
    phi_inv: np.ndarray

    def __post_init__(self):
        resid = _linalg.to_float(self.phi @ self.phi_inv) - np.eye(self.n)
        if _linalg.sup_norm(resid) > 1e-10:
            raise InvariantError("phi_inv is not an inverse of phi to 1e-10")


def sl2_copy(phi) -> Sl2Copy:
    phi = np.asarray(phi) if not isinstance(phi, np.ndarray) else phi
    if phi.dtype != object:
        phi = np.asarray(phi, dtype=float)
    return Sl2Copy(n=phi.shape[0], phi=phi, phi_inv=_linalg.inv(phi))


def _assemble(n: int, tl, tr, bl, br, exact: bool) -> np.ndarray:
    out = _linalg.zeros((2 * n, 2 * n), exact=exact)
    out[:n, :n] = tl
    out[:n, n:] = tr
    out[n:, :n] = bl
    out[n:, n:] = br
    return out


def u_embed(phi, side: str = "upper") -> GroupElement:
    """Unipotent embedding: [[I, phi], [0, I]] (upper) or [[I, 0], [phi, I]]."""
    phi = phi if isinstance(phi, np.ndarray) else np.asarray(phi, dtype=float)
    n = phi.shape[0]
    if phi.shape != (n, n):
        raise DomainError("phi must be square")
    exact = _linalg.is_exact(phi)
    ident = _linalg.eye(n, exact=exact)
    zero = _linalg.zeros((n, n), exact=exact)
    if side == "upper":
        return GroupElement(n, _assemble(n, ident, phi, zero, ident.copy(), exact))
    if side == "lower":
        return GroupElement(n, _assemble(n, ident, zero, phi, ident.copy(), exact))
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")


def _expansion(t) -> float:
    """e^t for the flow time t, read as a float; a t whose e^t or e^-t
    leaves the float range (nan included) is refused by name."""
    t = float(t)
    if not abs(t) < _MAX_FLOW_TIME:
        raise DomainError(f"flow time t = {t!r} is outside |t| < {_MAX_FLOW_TIME:.2f}, "
                          "where e^t and e^-t are finite nonzero floats")
    return math.exp(t)


def a_diag(t: float, n: int) -> GroupElement:
    """Diagonal flow a_t = diag(e^t I_n, e^-t I_n)."""
    return a_scale(_expansion(t), n)


def a_scale(factor, n: int) -> GroupElement:
    """a_t written through its expansion factor f = e^t: diag(f I, f^-1 I).

    A Fraction/int factor builds the element in exact arithmetic, which is
    what the rational flow-time construction t = log N needs. The factor
    must be positive and finite.
    """
    exact = _linalg.is_exact_scalar(factor)
    f = Fraction(factor) if exact else float(factor)
    if not 0 < f < math.inf:  # nan fails too
        raise DomainError(f"expansion factor must be positive and finite, got {factor!r}")
    out = _linalg.zeros((2 * n, 2 * n), exact)
    for i in range(n):
        out[i, i] = f
        out[n + i, n + i] = 1 / f
    return GroupElement(n, out)


def z_embed(z: CentralizerElement) -> GroupElement:
    """diag(B, C) as a group element; conjugation sends u(phi) to u(B phi C^-1)."""
    n = z.n
    exact = _linalg.is_exact(z.B) and _linalg.is_exact(z.C)
    zero = _linalg.zeros((n, n), exact=exact)
    return GroupElement(n, _assemble(n, z.B, zero, zero.copy(), z.C, exact))


def orbit_points(curve: MatrixPolyCurve, s, t, basepoint: LatticeBasis = None,
                 normalize: bool = False) -> np.ndarray:
    """(T M, 2n, 2n) read-only float stack of the bases a_t [z(s)] u(phi(s))
    [basepoint] at the M float points s, for one flow time t (T = 1) or a
    sequence of T flow times that `a_diag` accepts: lane k M + i is sample i
    at the k-th flow time.

    Lane k M + i equals (a_diag(t_k) @ z_embed(normalizer(curve, s[i])) @
    u_embed(curve.eval(s[i]))).entries [@ basepoint.cols, read in floats]:
    the blocks are written in closed form with the products of that matrix
    chain, in its order. phi(s), phi'(s) and the normalizing factor are
    computed once per sample, for every flow time. Each lane passes the
    group checks of the one-sample chain: s inside the interval,
    det(phi'(s)) > INVERTIBILITY_TOL when normalizing, and det within
    GROUP_DET_TOL of 1 (one np.linalg.det over the stack). The lowest
    failing lane raises the error the one-sample chain raises first, with
    its lane index as `sample_index`; a flow time `a_diag` refuses raises
    once every lane of the flow times before it has passed. So the error is
    the one a loop over the flow times, one stack each, raises first. The
    basis |det| is checked where the stack becomes bases (`LatticeBasis`).
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    times = [t] if np.ndim(t) == 0 else list(t)
    f = []
    for t_k in times:  # the flow times before the first refused one
        try:
            f.append(_expansion(t_k))
        except (TypeError, ValueError):
            if not f:
                raise
            break
    n, M, T = curve.n, len(s), len(f)
    f = np.array(f)
    phi = curve.eval_many(s)
    failures = [(np.tile(~curve.in_float_domain(s), T), lambda k: DomainError(
        f"s = {s[k % M]} outside the curve interval [{curve.interval[0]}, "
        f"{curve.interval[1]}]"))]
    diag = np.arange(n)
    out = np.zeros((T * M, 2 * n, 2 * n))
    lanes = out.reshape(T, M, 2 * n, 2 * n)  # a view: lanes[k, i] is lane k M + i
    # Adding 0.0 turns -0.0 into 0.0, as the sums of the matrix products do.
    if normalize:
        dphi = curve.derivative_many(s)
        d = np.linalg.det(dphi)
        failures.append((np.tile((np.abs(d) <= INVERTIBILITY_TOL) | (d < 0), T),
                         lambda k: normalizer_error(float(d[k % M]), s[k % M])))
        # Python's scalar ** (numpy's vector power differs in the last bit).
        lam = np.array([x ** (-1.0 / (2 * n)) if x > INVERTIBILITY_TOL else math.nan
                        for x in d.tolist()])
        top = f[:, None] * lam
        lanes[:, :, n:, n:] = ((1.0 / f)[:, None, None, None] * (lam[:, None, None] * dphi + 0.0)
                               + 0.0)
    else:
        top = f[:, None]
        lanes[:, :, n + diag, n + diag] = (1.0 / f)[:, None, None]
    lanes[:, :, diag, diag] = top[:, :, None]
    lanes[:, :, :n, n:] = top[:, :, None, None] * phi + 0.0
    with np.errstate(invalid="ignore"):  # lanes of samples that failed to normalize are nan
        g_det = np.linalg.det(out)
    failures.append(_linalg.unit_failures(g_det, 1, GROUP_DET_TOL, InvariantError, "det"))
    raise_first(failures, "sample_index")
    if T < len(times):
        _expansion(times[T])  # refused, now that every earlier lane has passed
    if basepoint is not None:
        out = out @ _linalg.to_float(basepoint.cols)
    out.flags.writeable = False
    return out


def orbit_point(curve: MatrixPolyCurve, s, t: float, basepoint: LatticeBasis = None,
                normalize: bool = False, basis: LatticeBasis = None) -> LatticeBasis:
    """Lattice basis of a_t [z(s)] u(phi(s)) applied to the basepoint lattice:
    the one-sample case of `orbit_points` (s is read as a float).

    normalize=True inserts the centralizer element z(s) that carries phi'(s)
    to the identity (errors if phi'(s) is singular or orientation-reversing).
    `basis` is this sample's basis from an `orbit_points` stack built with
    the same arguments (`LatticeBasis.batch`); it is returned as it is,
    without being rebuilt or checked again.
    """
    if basis is not None:
        return basis
    return LatticeBasis(orbit_points(curve, [s], t, basepoint=basepoint, normalize=normalize)[0])


def dani_vector(phi, p, q, N) -> np.ndarray:
    """Image of the integer vector (-q, p) under a_log(N) u(phi):
    (N (phi p - q), p / N). Exact when phi is rational, for an integer N."""
    phi = phi if isinstance(phi, np.ndarray) else np.asarray(phi, dtype=float)
    n = phi.shape[0]
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape != (n,) or q.shape != (n,):
        raise DomainError("p and q must be integer vectors of length n")
    exact = _linalg.is_exact(phi)
    if isinstance(N, (bool, np.bool_)) or exact and not hasattr(N, "__index__"):
        raise DomainError(f"N must be {'an integer' if exact else 'a number'}, got {N!r}")
    N = operator.index(N) if exact else float(N)  # any integer type, as a Python int
    if N <= 0:
        raise DomainError("N must be positive")
    vector = _linalg.frac_vector if exact else _linalg.to_float
    p, q = vector(p), vector(q)
    phi = phi if exact else _linalg.to_float(phi)
    return np.concatenate([(phi @ p - q) * N, p / N])


def sl2_image(copy: Sl2Copy, mat) -> GroupElement:
    """Image of a 2 x 2 determinant-one matrix under the copy homomorphism."""
    m = np.asarray(mat) if not isinstance(mat, np.ndarray) else mat
    if m.shape != (2, 2):
        raise DomainError("mat must be 2 x 2")
    exact = _linalg.is_exact(m) and _linalg.is_exact(copy.phi)
    _linalg.check_equals(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], 1, 1e-10, DomainError, "det")
    n = copy.n
    ident = _linalg.eye(n, exact=exact)
    return GroupElement(n, _assemble(n, m[0, 0] * ident, m[0, 1] * copy.phi,
                                     m[1, 0] * copy.phi_inv, m[1, 1] * ident.copy(), exact))


E_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def conj_by_E(phi, z0: CentralizerElement, D) -> np.ndarray:
    """Conjugate z0 u(D) z0^-1 by the copy image of [[0, 1], [-1, 0]].

    The result must be lower unipotent: identity diagonal blocks, vanishing
    upper-right block, and lower-left block -phi^-1 (B D C^-1) phi^-1. The
    unipotent shape is asserted to CONJ_TOL; the lower-left block is returned.
    """
    copy = sl2_copy(_linalg.to_float(np.asarray(phi)))
    e_img = sl2_image(copy, E_MAT)
    e_inv = sl2_image(copy, np.array([[0.0, -1.0], [1.0, 0.0]]))
    D = np.asarray(D, dtype=float)
    B = _linalg.to_float(z0.B)
    C = _linalg.to_float(z0.C)
    zero = np.zeros((z0.n, z0.n))
    z = GroupElement(z0.n, _assemble(z0.n, B, zero, zero.copy(), C, False))
    z_inv = GroupElement(z0.n, _assemble(z0.n, _linalg.inv(B), zero.copy(),
                                         zero.copy(), _linalg.inv(C), False))
    total = e_inv @ z @ u_embed(D) @ z_inv @ e_img
    n = copy.n
    upper_right = _linalg.sup_norm(total.block(0, 1))
    diag_resid = max(_linalg.sup_norm(_linalg.to_float(total.block(0, 0)) - np.eye(n)),
                     _linalg.sup_norm(_linalg.to_float(total.block(1, 1)) - np.eye(n)))
    if upper_right > CONJ_TOL or diag_resid > CONJ_TOL:
        raise InternalIdentityError(
            f"conjugated element is not lower unipotent: upper-right {upper_right:.3e}, "
            f"diagonal residual {diag_resid:.3e} (tol {CONJ_TOL})")
    return _linalg.to_float(total.block(1, 0))
