import math
from fractions import Fraction

import numpy as np
import pytest

from danilab import _linalg
from danilab import (MatrixPolyCurve, a_diag, adjoint, constrained_subspace,
                     exterior, invariance_subspace,
                     lie_image, obstruction_subspace, project, rep_image,
                     sl2_copy, u_embed, upper_block, verify_q0_transport,
                     verify_qplus_nonvanish, weight_split)
from danilab.errors import DomainError, HypothesisViolationError

ALL_REPS = [exterior(1, 1), exterior(1, 2), exterior(2, 1), exterior(2, 2),
            adjoint(1), adjoint(2)]


def random_group_element(rng, n):
    g = a_diag(0.0, n)
    for _ in range(4):
        kind = rng.integers(0, 3)
        if kind == 0:
            g = g @ u_embed(rng.uniform(-1, 1, (n, n)))
        elif kind == 1:
            g = g @ u_embed(rng.uniform(-1, 1, (n, n)), side="lower")
        else:
            g = g @ a_diag(rng.uniform(-0.5, 0.5), n)
    return g


def random_invertible(rng, n, floor=0.2):
    phi = rng.uniform(-1, 1, (n, n))
    while abs(np.linalg.det(phi)) <= floor:
        phi = rng.uniform(-1, 1, (n, n))
    return phi


def test_dims_and_labels():
    assert exterior(1, 1).dim == 2
    assert exterior(2, 2).dim == 6
    assert adjoint(1).dim == 3
    assert adjoint(2).dim == 15
    assert adjoint(1).labels == (("E", 1, 2), ("E", 2, 1), ("D", 1))
    assert exterior(2, 2).labels[0] == (1, 2) and exterior(2, 2).labels[5] == (3, 4)
    with pytest.raises(DomainError):
        exterior(1, 3)
    with pytest.raises(DomainError):
        exterior(1, 0)


def test_weight_split_counts():
    d1 = weight_split(adjoint(1))
    assert d1.weights == (2, -2, 0)
    d2 = weight_split(adjoint(2))
    assert len(d2.plus_idx) == 4 and len(d2.minus_idx) == 4 and len(d2.zero_idx) == 7
    e22 = weight_split(exterior(2, 2))
    assert e22.plus_idx == (0,) and e22.minus_idx == (5,)
    assert e22.weights == (2, 0, 0, 0, 0, -2)


def test_project_partitions_vector():
    rng = np.random.default_rng(2)
    for rep in ALL_REPS:
        decomp = weight_split(rep)
        v = rng.standard_normal(rep.dim)
        total = sum(project(decomp, part, v) for part in ("plus", "zero", "minus"))
        assert np.allclose(total, v)
    with pytest.raises(DomainError):
        project(weight_split(adjoint(1)), "neutral", np.zeros(3))


def test_rep_image_standard_rep_is_identity_map():
    g = u_embed(np.array([[2.0]]))
    assert np.array_equal(rep_image(exterior(1, 1), g), g.entries)


def test_rep_image_top_power_is_det():
    rng = np.random.default_rng(6)
    for n in (1, 2):
        g = random_group_element(rng, n)
        out = rep_image(exterior(n, 2 * n), g)
        assert out.shape == (1, 1) and out[0, 0] == pytest.approx(1.0)


def test_adjoint_flow_action_is_diagonal_by_weight():
    for rep in ALL_REPS:
        decomp = weight_split(rep)
        for t in (0.7, -1.3):
            img = np.asarray(rep_image(rep, a_diag(t, rep.n)), dtype=float)
            want = np.diag([math.exp(w * t) for w in decomp.weights])
            assert np.allclose(img, want, atol=1e-12)


def test_rep_image_is_homomorphism():
    rng = np.random.default_rng(44)
    for rep in ALL_REPS:
        for _ in range(25):
            g, h = (random_group_element(rng, rep.n) for _ in range(2))
            lhs = rep_image(rep, g @ h)
            rhs = np.asarray(rep_image(rep, g), dtype=float) @ np.asarray(
                rep_image(rep, h), dtype=float)
            assert np.max(np.abs(np.asarray(lhs, dtype=float) - rhs)) < 1e-8


def test_rep_image_exact_mode():
    phi = np.array([[Fraction(1, 3)]], dtype=object)
    out = rep_image(adjoint(1), u_embed(phi))
    assert out.dtype == object
    # Ad(u(x)): e -> e, f -> -x^2 e + f + x h, h -> -2x e + h
    assert out[0, 1] == Fraction(-1, 9) and out[2, 1] == Fraction(1, 3)
    assert out[0, 2] == Fraction(-2, 3) and out[0, 0] == 1


def test_constrained_subspace_adjoint_n1():
    basis = constrained_subspace(adjoint(1), sl2_copy(np.array([[1.0]])), 1.0)
    assert len(basis) == 1
    v = basis[0]
    target = np.array([0.0, 2.0, -1.0]) / 5 ** 0.5
    assert np.allclose(v, target) or np.allclose(v, -target)


def test_constrained_subspace_standard_rep_is_trivial():
    rng = np.random.default_rng(10)
    for n in (1, 2):
        copy = sl2_copy(random_invertible(rng, n))
        for r in (1.0, -0.5):
            assert constrained_subspace(exterior(n, 1), copy, r) == []


def test_constrained_subspace_exterior22():
    copy = sl2_copy(np.eye(2))
    basis = constrained_subspace(exterior(2, 2), copy, 1.0)
    assert len(basis) >= 4
    decomp = weight_split(exterior(2, 2))
    img = rep_image(exterior(2, 2), u_embed(np.eye(2)))
    for v in basis:
        assert np.max(np.abs(project(decomp, "plus", img @ v))) < 1e-9


def test_constrained_subspace_rejects_r_zero():
    with pytest.raises(DomainError):
        constrained_subspace(adjoint(1), sl2_copy(np.eye(1)), 0)


def test_q0_transport_hand_example():
    copy = sl2_copy(np.array([[1.0]]))
    resid = verify_q0_transport(adjoint(1), copy, 1.0, np.array([0.0, 2.0, -1.0]))
    assert resid < 1e-12
    assert verify_q0_transport(adjoint(1), copy, 1.0, np.zeros(3)) == 0.0


def test_q0_transport_rejects_expanding_input():
    copy = sl2_copy(np.array([[1.0]]))
    with pytest.raises(HypothesisViolationError) as info:
        verify_q0_transport(adjoint(1), copy, 1.0, np.array([1.0, 0.0, 0.0]))
    assert info.value.residual == pytest.approx(1.0)
    # in V0 + V- but pushed out by the unipotent: f alone
    with pytest.raises(HypothesisViolationError):
        verify_q0_transport(adjoint(1), copy, 1.0, np.array([0.0, 1.0, 0.0]))


def test_q0_transport_on_sampled_constrained_vectors():
    rng = np.random.default_rng(33)
    for rep in (adjoint(1), adjoint(2), exterior(2, 2)):
        copy = sl2_copy(random_invertible(rng, rep.n))
        for r in (1.0, -1.0, 0.5, -0.5):
            basis = constrained_subspace(rep, copy, r)
            assert basis, f"expected constrained vectors for {rep.kind} n={rep.n}"
            for _ in range(10):
                coef = rng.standard_normal(len(basis))
                v = sum(c * b for c, b in zip(coef, basis))
                assert verify_q0_transport(rep, copy, r, v) < 1e-8


def test_qplus_nonvanish_examples():
    assert verify_qplus_nonvanish(exterior(1, 1), sl2_copy(np.array([[1.0]])), 1.0,
                                  np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert verify_qplus_nonvanish(adjoint(1), sl2_copy(np.array([[1.0]])), 1.0,
                                  np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)
    det_phi = verify_qplus_nonvanish(exterior(2, 2), sl2_copy(np.diag([2.0, 3.0])), 1.0,
                                     np.array([0, 0, 0, 0, 0, 1.0]))
    assert det_phi == pytest.approx(6.0)


def test_qplus_nonvanish_validation():
    copy = sl2_copy(np.eye(1))
    with pytest.raises(HypothesisViolationError):
        verify_qplus_nonvanish(exterior(1, 1), copy, 1.0, np.zeros(2))
    with pytest.raises(HypothesisViolationError):
        verify_qplus_nonvanish(exterior(1, 1), copy, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        verify_qplus_nonvanish(exterior(1, 1), copy, 0, np.array([0.0, 1.0]))


def test_qplus_nonvanish_positive_on_random_contracting_vectors():
    rng = np.random.default_rng(58)
    for rep in ALL_REPS:
        decomp = weight_split(rep)
        if not decomp.minus_idx or not decomp.plus_idx:
            continue
        copy = sl2_copy(random_invertible(rng, rep.n, floor=0.3))
        for r in (1.0, -0.5):
            for _ in range(10):
                v = np.zeros(rep.dim)
                raw = rng.standard_normal(len(decomp.minus_idx))
                for pos, i in enumerate(decomp.minus_idx):
                    v[i] = raw[pos]
                v /= np.max(np.abs(v))
                assert verify_qplus_nonvanish(rep, copy, r, v) > 1e-6


def test_obstruction_empty_for_generic_line():
    line = MatrixPolyCurve.from_coeffs([[[0.0]], [[1.0]]], (0.0, 1.0))
    assert obstruction_subspace(exterior(1, 1), line, [0.3, 0.7]) == []


def test_obstruction_exact_certification():
    line = MatrixPolyCurve.from_coeffs([[[Fraction(0)]], [[Fraction(1)]]],
                                       (Fraction(0), Fraction(1)))
    assert obstruction_subspace(exterior(1, 1), line,
                                [Fraction(1, 3), Fraction(2, 3)]) == []
    plane = MatrixPolyCurve.from_coeffs(
        [np.zeros((2, 2), dtype=object) + Fraction(0),
         np.array([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], dtype=object)],
        (Fraction(0), Fraction(1)))
    assert obstruction_subspace(exterior(2, 1), plane,
                                [Fraction(1, 3), Fraction(2, 3)]) == []


def test_obstruction_single_sample_leaves_line():
    line = MatrixPolyCurve.from_coeffs([[[0.0]], [[1.0]]], (0.0, 1.0))
    basis = obstruction_subspace(exterior(1, 1), line, [0.5])
    assert len(basis) == 1
    # the surviving direction must be killed by the expanding row (1, s)
    assert abs(basis[0][0] + 0.5 * basis[0][1]) < 1e-12
    with pytest.raises(DomainError):
        obstruction_subspace(exterior(1, 1), line, [])


def test_invariance_subspace_examples():
    rep = adjoint(1)
    decomp = weight_split(rep)
    mats, ok = invariance_subspace(rep, decomp, np.array([0.0, 0.0, 1.0]))
    assert mats == [] and ok
    mats, ok = invariance_subspace(rep, decomp, np.zeros(3))
    assert len(mats) == 1 and ok


def test_invariance_subspace_symplectic_form():
    rep = exterior(2, 2)
    decomp = weight_split(rep)
    w0 = np.zeros(6)
    w0[1] = 1.0  # e1^e3
    w0[4] = 1.0  # e2^e4
    mats, ok = invariance_subspace(rep, decomp, w0)
    assert ok and len(mats) == 3
    for phi in mats:
        assert np.allclose(phi, phi.T, atol=1e-9)


def test_invariance_subspace_rejects_non_neutral():
    rep = adjoint(1)
    with pytest.raises(HypothesisViolationError):
        invariance_subspace(rep, weight_split(rep), np.array([1.0, 0.0, 0.0]))


def test_lie_image_is_derivative_of_rep_image():
    rng = np.random.default_rng(71)
    h = 1e-5
    for rep in ALL_REPS:
        phi = rng.uniform(-1, 1, (rep.n, rep.n))
        x = upper_block(rep.n, phi)
        d = np.asarray(lie_image(rep, x), dtype=float)
        img = np.asarray(rep_image(rep, u_embed(h * phi)), dtype=float)
        fd = (img - np.eye(rep.dim)) / h
        assert np.max(np.abs(fd - d)) < 1e-3


def test_lie_image_bracket_compatibility():
    # d(rho) of upper_block acts as a derivation: for the adjoint rep it is
    # the matrix bracket, checked on a hand-computable cell
    x = upper_block(1, np.array([[1.0]]))
    out = np.asarray(lie_image(adjoint(1), x), dtype=float)
    # [x, e] = 0, [x, f] = h, [x, h] = -2e with x = e
    want = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(out, want)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flow_generator_acts_by_the_weight_split(n, exact):
    # diag(I_n, -I_n) generates a_t; its derived action is diagonal with the
    # flow weights, read in the mode of its entries
    h = [[(1 if i < n else -1) if i == j else 0 for j in range(2 * n)] for i in range(2 * n)]
    x = _linalg.frac_matrix(h) if exact else np.array(h, dtype=float)
    for rep in [adjoint(n)] + [exterior(n, k) for k in range(1, 2 * n + 1)]:
        got = lie_image(rep, x)
        assert _linalg.is_exact(got) == exact
        assert np.array_equal(got, np.diag(weight_split(rep).weights))
    # the top power has no expanding part: nothing obstructs, at any sample
    top = exterior(n, 2 * n)
    curve = MatrixPolyCurve.from_coeffs([np.zeros((n, n)), np.eye(n)], (0, 1))
    assert np.array_equal(obstruction_subspace(top, curve, [0.5]), np.eye(top.dim))


def test_lie_image_rejects_nonzero_trace():
    with pytest.raises(DomainError):
        lie_image(adjoint(1), np.array([[1.0, 0.0], [0.0, 0.0]]))
