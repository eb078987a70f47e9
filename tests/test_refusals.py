"""Refusals of the library that no other test reaches, each pinned by its
error class and its whole text."""

import json
from fractions import Fraction

import numpy as np
import pytest

from danilab import (CentralizerElement, GroupElement, LatticeBasis, MatrixPolyCurve,
                     Representation, Sl2Copy, adjoint, affine_rank, count_in_box, dani_vector,
                     genericity_test, invariance_subspace, inverse_shift, lie_image, rep_image,
                     reptheory, sl2_copy, sl2_image, u_embed, weight_split)
from danilab.cli import ConfigError, parse_config
from danilab.errors import DomainError, InvariantError, SingularMatrixError

LINE = MatrixPolyCurve.from_coeffs([[[0.0]], [[1.0]]], (0.0, 2.0))
EXACT_CONST = MatrixPolyCurve.from_coeffs([[["1/2"]]], ("0", "2"))
# two exact ends that round to the same double: no float room around s0
FLOAT_POINT = MatrixPolyCurve.from_coeffs([[[0]], [[1]]],
                                          (Fraction(1), Fraction(10 ** 20 + 1, 10 ** 20)))
ADJ = adjoint(1)  # dim 3


def rep_verify_config(rep):
    return json.dumps({"experiment_id": "u", "subcommand": "rep-verify", "n": 1,
                       "curve": {"degree": 1, "coeffs": [[[0]], [[1]]], "interval": ["0", "1"]},
                       "parameters": {"rep": rep}, "sampler": {"seed": 1, "count": 2},
                       "output": "o"})


REFUSALS = {
    "lattice.count_in_box halfwidths length": (
        lambda: count_in_box(LatticeBasis(np.eye(2)), [1.0]),
        DomainError, "halfwidths length must match basis dimension"),
    "curve.MatrixPolyCurve coefficient shape": (
        lambda: MatrixPolyCurve(n=1, degree=0, coeffs=np.zeros((1, 2, 2)), interval=(0.0, 1.0)),
        InvariantError, "coeffs: expected a float64 or Fraction array of shape (1, 1, 1)"),
    "curve.MatrixPolyCurve coefficients not a stack": (
        lambda: MatrixPolyCurve(n=1, degree=0, coeffs=(np.zeros((1, 1)),), interval=(0.0, 1.0)),
        InvariantError, "coeffs: expected a float64 or Fraction array of shape (1, 1, 1)"),
    "curve.CentralizerElement shape": (
        lambda: CentralizerElement(B=np.eye(2), C=np.eye(3)),
        InvariantError, "B and C must be square of equal size"),
    "curve.inverse_shift exact singular": (
        lambda: inverse_shift(EXACT_CONST, 1, 0),
        SingularMatrixError, "phi(s) - phi(s0) singular at s = 1"),
    "curve.affine_rank no points": (
        lambda: affine_rank([]), DomainError, "affine_rank needs at least one point"),
    "curve.genericity_test too few samples": (
        lambda: genericity_test(LINE, 1.0, m=1),
        DomainError, "need at least n^2 + 1 = 2 samples, got 1"),
    "curve.genericity_test s0 outside": (
        lambda: genericity_test(LINE, 3.0),
        DomainError, "s0 = 3.0 outside curve interval [0.0, 2.0]"),
    "curve.genericity_test no room": (
        lambda: genericity_test(FLOAT_POINT, 1),
        DomainError, "curve interval has no room around s0"),
    "flow.GroupElement shape": (
        lambda: GroupElement(1, np.eye(3)), InvariantError, "entries must be 2 x 2, got (3, 3)"),
    "flow.GroupElement size mismatch": (
        lambda: GroupElement(1, np.eye(2)) @ GroupElement(2, np.eye(4)),
        DomainError, "size mismatch in group multiplication"),
    "flow.Sl2Copy bad inverse": (
        lambda: Sl2Copy(n=1, phi=np.array([[2.0]]), phi_inv=np.array([[1.0]])),
        InvariantError, "phi_inv is not an inverse of phi to 1e-10"),
    "flow.u_embed not square": (
        lambda: u_embed(np.zeros((2, 3))), DomainError, "phi must be square"),
    "flow.u_embed side": (
        lambda: u_embed(np.eye(1), side="left"),
        DomainError, "side must be 'upper' or 'lower', got 'left'"),
    "flow.dani_vector p q shape": (
        lambda: dani_vector(np.eye(1), [1, 2], [0], 2),
        DomainError, "p and q must be integer vectors of length n"),
    "flow.dani_vector N not positive": (
        lambda: dani_vector(np.eye(1), [1], [0], 0), DomainError, "N must be positive"),
    "flow.sl2_image shape": (
        lambda: sl2_image(sl2_copy(np.eye(1)), np.eye(3)), DomainError, "mat must be 2 x 2"),
    "reptheory.Representation kind": (
        lambda: Representation("symmetric", 1),
        DomainError, "unknown representation kind 'symmetric'"),
    "reptheory.Representation n": (
        lambda: Representation("adjoint", 0), DomainError, "n must be >= 1"),
    "reptheory.rep_image shape": (
        lambda: rep_image(ADJ, np.eye(3)),
        DomainError, "group element must be 2 x 2, or a float stack of them"),
    "reptheory.lie_image shape": (
        lambda: lie_image(ADJ, np.zeros((3, 3))), DomainError, "Lie algebra element must be 2 x 2"),
    "reptheory._draws one r": (
        lambda: reptheory._draws(ADJ, 1.0, np.zeros((2, 2, 3))),
        DomainError, "v must have shape (3,) or (k, 3), got (2, 2, 3)"),
    "reptheory._draws r list": (
        lambda: reptheory._draws(ADJ, [1.0, 2.0], np.zeros((1, 1, 3))),
        DomainError, "v must have shape (2, k, 3) for 2 values of r, got (1, 1, 3)"),
    "reptheory.invariance_subspace w0 length": (
        lambda: invariance_subspace(ADJ, weight_split(ADJ), np.zeros(2)),
        DomainError, "w0 must have length 3"),
    "cli._known not an object": (
        lambda: parse_config(rep_verify_config(["adjoint"])),
        ConfigError, "parameters.rep: expected an object"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_class_and_text(name):
    call, error, text = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == text
