import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danilab import (MatrixPolyCurve, affine_rank, genericity_test, inverse_shift,
                     normalizer)
from danilab.errors import (DegenerateInputError, DomainError, InvariantError,
                            OrientationError, SingularMatrixError)
from danilab import _linalg
from danilab import curve as curve_module
from danilab.curve import INVERTIBILITY_TOL, _chebyshev_nodes


def line_curve(interval=("0", "2")):
    # phi(s) = s, exact
    return MatrixPolyCurve.from_coeffs([[["0"]], [["1"]]], interval)


def square_curve(interval=(0.0, 3.5)):
    # phi(s) = s^2, float
    return MatrixPolyCurve.from_coeffs([[[0.0]], [[0.0]], [[1.0]]], interval)


def test_eval_examples():
    assert line_curve().eval(0) == np.array([[0]])
    assert square_curve().eval(3.0)[0, 0] == 9.0
    scalar2 = MatrixPolyCurve.from_coeffs(
        [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]], (0.0, 2.0))
    assert np.array_equal(scalar2.eval(2.0), 2.0 * np.eye(2))


def test_float_eval_of_exact_curve_uses_cached_coefficients():
    curve = MatrixPolyCurve.from_coeffs([[["1/3", "-2/7"], ["5/9", "1"]],
                                         [["3/4", "0"], ["1/8", "9/5"]],
                                         [["-1/6", "2/3"], ["1/5", "1/11"]]], ("0", "2"))
    assert "_float_stacks" not in vars(curve)  # built on the first float evaluation
    curve.eval(0.5)
    cached = curve._float_stacks
    assert cached is curve._float_stacks and "_exact_stacks" not in vars(curve)
    assert not any(c.flags.writeable for c in cached + curve._exact_stacks)
    assert all(c.dtype == float for c in cached)
    assert curve._exact_stacks[0] is curve.coeffs  # the exact mode reads the one stack
    for s in (0.0, 0.3, 1.7, 2.0):
        cs = [np.asarray(c, dtype=float) for c in curve.coeffs]
        want = cs[2] * s + cs[1]
        want = want * s + cs[0]
        assert curve.eval(s).tobytes() == want.tobytes()
        assert curve.derivative(s).tobytes() == (cs[2] * 2.0 * s + cs[1] * 1.0).tobytes()
    stack = curve.eval_many(np.array([0.3, 1.7]))
    assert stack[1].tobytes() == curve.eval(1.7).tobytes()


@st.composite
def curves(draw):
    n, degree, exact = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.booleans())
    entry = (st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=8),
                       st.fractions(-3, 3, max_denominator=8).map(str)) if exact
             else st.floats(-3, 3, allow_subnormal=False))
    coeffs = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(degree + 1)]
    return MatrixPolyCurve.from_coeffs(coeffs, ("-2", "2") if exact else (-2.0, 2.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(curves(), st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=16)),
       st.floats(-2, 2))
def test_one_evaluator_in_both_modes(curve, s, x):
    assert curve.exact == all(type(e) is Fraction for c in curve.coeffs for e in c.flat)
    if curve.exact:
        cs = [c.tolist() for c in curve.coeffs]
        want = [[sum(c[i][j] * s ** k for k, c in enumerate(cs)) for j in range(curve.n)]
                for i in range(curve.n)]
        slope = [[sum(k * c[i][j] * s ** (k - 1) for k, c in enumerate(cs) if k)
                  for j in range(curve.n)] for i in range(curve.n)]
        for got, ref in ((curve.eval(s), want), (curve.derivative(s), slope)):
            assert got.tolist() == ref and all(type(e) is Fraction for e in got.flat)
    points = np.array([-2.0, x, 2.0])
    for one, many in ((curve.eval, curve.eval_many), (curve.derivative, curve.derivative_many)):
        rows = many(points)
        assert rows.dtype == float
        assert all(one(p).tobytes() == row.tobytes() for p, row in zip(points, rows))
    if curve.degree == 0:
        zero = curve.derivative(s)
        assert all(type(e) is Fraction for e in zero.flat) == curve.exact
        assert zero.tolist() == [[0] * curve.n] * curve.n
        assert not np.signbit(zero.astype(float)).any()
        assert not np.signbit(curve.derivative_many(points)).any()


@pytest.mark.parametrize("coeffs", [[[[1, 2], [3]]], [[[1], [3, 4]]], [[[1.0, 2.0], [3.0]]],
                                    [[["1"]], [["1/2", "0"]]], [np.eye(2), np.eye(3)],
                                    [["12", "34"]]])
def test_from_coeffs_refuses_ragged_coefficients(coeffs):
    k = len(coeffs) - 1
    with pytest.raises(InvariantError, match=rf"s\^{k} is not"):
        MatrixPolyCurve.from_coeffs(coeffs, (0, 1))


def test_from_coeffs_holds_one_stack_of_the_entries_read_once():
    exact = MatrixPolyCurve.from_coeffs([[[1, "2/4"], (Fraction(3), "-1")]], (0, "1/2"))
    assert exact.exact and exact.coeffs.shape == (1, 2, 2) and not exact.coeffs.flags.writeable
    assert exact.coeffs.tolist() == [[[1, Fraction(1, 2)], [3, -1]]]
    assert all(type(x) is Fraction for x in exact.coeffs.flat)
    assert exact.interval == (0, Fraction(1, 2)) and type(exact.interval[0]) is int
    mixed = MatrixPolyCurve.from_coeffs([np.eye(2), ((1, "1/3"), [0, 1])], ("0", 1.5))
    assert not mixed.exact and mixed.coeffs.dtype == float
    assert mixed.coeffs[1].tolist() == [[1.0, 1 / 3], [0.0, 1.0]]
    assert mixed.interval == (Fraction(0), 1.5)


@pytest.mark.parametrize("coeffs, interval, error, text", [
    ([[[np.bool_(True)]]], (0, 1), DomainError, "coeffs[0]: expected int/float/str, got bool"),
    ([[[0]], [[0.5]], [[10 ** 400]]], (0, 1), DomainError,
     "coeffs[2]: number too large for a float"),
    ([[[0]]], (0, 1, 2), DomainError, "interval: expected [a, b]"),
    ([[[0]]], (0, "1/x"), DomainError, "interval: cannot parse rational '1/x'"),
])
def test_from_coeffs_refusals_name_their_field(coeffs, interval, error, text):
    with pytest.raises(error) as info:
        MatrixPolyCurve.from_coeffs(coeffs, interval)
    assert str(info.value) == text


def test_eval_outside_interval_raises():
    with pytest.raises(DomainError):
        line_curve().eval(5)


def test_derivative_examples():
    assert square_curve().derivative(1.0)[0, 0] == 2.0
    A = [[1.0, 2.0], [3.0, 4.0]]
    lin = MatrixPolyCurve.from_coeffs([[[0.0, 0.0], [0.0, 0.0]], A], (0.0, 1.0))
    assert np.array_equal(lin.derivative(0.3), np.array(A))
    cubic = MatrixPolyCurve.from_coeffs(
        [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)], (0.0, 2.0))
    assert np.allclose(cubic.derivative(1.0), 3 * np.eye(2))


def test_from_coeffs_exactness_modes():
    assert line_curve().exact
    assert line_curve().eval(Fraction(1, 3))[0, 0] == Fraction(1, 3)
    assert not square_curve().exact


def test_constructor_validation():
    with pytest.raises(DomainError):
        MatrixPolyCurve.from_coeffs([[["0"]]], ("1", "1"))  # degenerate interval
    with pytest.raises(InvariantError):
        MatrixPolyCurve(n=1, degree=2, coeffs=(np.zeros((1, 1)),), interval=(0.0, 1.0))
    with pytest.raises(InvariantError, match="at least one coefficient"):
        MatrixPolyCurve.from_coeffs([], (0, 1))


def test_inverse_shift_examples():
    assert inverse_shift(line_curve(), 2, 0)[0, 0] == Fraction(1, 2)
    assert inverse_shift(square_curve(), 2.0, 0.0)[0, 0] == 0.25
    A = [[1.0, 1.0], [0.0, 1.0]]
    lin = MatrixPolyCurve.from_coeffs([[[0.0, 0.0], [0.0, 0.0]], A], (0.0, 1.0))
    assert np.allclose(inverse_shift(lin, 1.0, 0.0), [[1.0, -1.0], [0.0, 1.0]])


def test_inverse_shift_singular_difference():
    const = MatrixPolyCurve.from_coeffs([[[1.0]]], (0.0, 1.0))
    with pytest.raises(SingularMatrixError):
        inverse_shift(const, 0.5, 0.0)


def test_affine_rank_examples():
    r, _ = affine_rank([np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])])
    assert r == 1
    r, _ = affine_rank([np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert r == 2
    r, basis = affine_rank([np.array([5.0, 7.0])])
    assert r == 0 and basis == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_affine_rank_refuses_non_finite_points_by_index(bad):
    with pytest.raises(DomainError, match="affine_rank point 1 is not finite"):
        affine_rank([0, (1, bad), (0, 1)])
    with pytest.raises(DomainError, match="affine_rank point 0 is not finite"):
        affine_rank([np.array([[bad, 0.0], [0.0, 1.0]]), np.eye(2)])


def test_affine_rank_refuses_points_of_another_size_by_index():
    # a shorter point would broadcast against the others, a longer one would
    # fail inside numpy without naming a point
    with pytest.raises(DomainError, match="affine_rank point 1 has 2 entries, point 0 has 1"):
        affine_rank([0, (1, 2), (3, 4)])
    with pytest.raises(DomainError, match="affine_rank point 1 has 3 entries, point 0 has 2"):
        affine_rank([(0, 0), (1, 2, 3)])
    with pytest.raises(DomainError, match="affine_rank point 2 has 1 entries"):
        affine_rank([np.eye(2), np.zeros((2, 2)), [5.0]])
    assert affine_rank([np.eye(2), np.zeros(4)])[0] == 1  # sizes agree once raveled


def test_affine_rank_invariance_under_affine_maps():
    rng = np.random.default_rng(11)
    pts = [rng.uniform(-1, 1, 4) for _ in range(6)]
    base, _ = affine_rank(pts)
    shift = rng.uniform(-3, 3, 4)
    assert affine_rank([p + shift for p in pts])[0] == base
    M = rng.uniform(-1, 1, (4, 4)) + 3 * np.eye(4)
    c = rng.uniform(-1, 1, 4)
    assert affine_rank([M @ p + c for p in pts])[0] == base


def test_genericity_scalar_curves_generic():
    # for n=1 any curve with nonvanishing derivative is generic at every s0
    for curve, s0 in [(line_curve(), Fraction(1, 2)),
                      (square_curve((1.0, 2.0)), 1.5),
                      (MatrixPolyCurve.from_coeffs([[["1"]], [["2"]]], ("1", "2")), Fraction(3, 2))]:
        v = genericity_test(curve, s0)
        assert v.generic and v.affine_rank == 1


def test_genericity_linear_matrix_curve_degenerate():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    lin = MatrixPolyCurve.from_coeffs(
        [np.eye(2), A], (0.0, 1.0))
    v = genericity_test(lin, 0.5)
    assert not v.generic and v.affine_rank == 1
    # witness line is spanned by A^{-1} flattened
    w = v.witness_subspace[0]
    target = np.linalg.inv(A).reshape(-1)
    target = target / np.linalg.norm(target)
    assert min(np.linalg.norm(w - target), np.linalg.norm(w + target)) < 1e-8


def test_genericity_diagonal_curve_rank_two():
    diag = MatrixPolyCurve.from_coeffs(
        [np.zeros((2, 2)),
         np.array([[1.0, 0.0], [0.0, 0.0]]),
         np.array([[0.0, 0.0], [0.0, 1.0]])], (1.0, 2.0))
    v = genericity_test(diag, 1.5)
    assert not v.generic and v.affine_rank <= 2


def test_genericity_constant_curve_degenerate_input():
    const = MatrixPolyCurve.from_coeffs([[[2.0]]], (0.0, 1.0))
    with pytest.raises(DegenerateInputError):
        genericity_test(const, 0.5)


def test_genericity_stable_in_sample_count():
    # deterministic node layout: verdict must not flicker with m
    lin = MatrixPolyCurve.from_coeffs([np.eye(2), np.eye(2) + np.diag([0.0, 1.0])], (0.0, 1.0))
    verdicts = [genericity_test(lin, 0.5, m=m) for m in (5, 9, 21)]
    assert len({v.generic for v in verdicts}) == 1
    assert len({v.affine_rank for v in verdicts}) == 1


def reference_inverse_shifts(curve, s0, m, tol=INVERTIBILITY_TOL):
    """The points genericity_test hands to affine_rank, one node at a time:
    one eval, det and inverse per node, at the first radius (halving from
    the smaller room) where every node has |det| > tol."""
    a, b = float(curve.interval[0]), float(curve.interval[1])
    left, right = s0 - a, b - s0
    r = min(left, right) if left > 0 and right > 0 else max(left, right)
    base = curve.eval(s0)
    while True:
        nodes = _chebyshev_nodes(s0, r, m, left, right)
        if all(abs(_linalg.det(curve.eval(s) - base)) > tol for s in nodes):
            return [_linalg.inv(curve.eval(s) - base, tol=tol).ravel() for s in nodes]
        r *= 0.5


_RNG = np.random.default_rng(17)
# phi(s) = s^2 - c s vanishes at the first-radius node s = c of s0 = 0, so
# the radius is halved once
_C = math.cos(3 * math.pi / 8)
STACKED_GENERICITY = [
    (MatrixPolyCurve.from_coeffs([[[0.0]], [[-_C]], [[1.0]]], (-1.0, 1.0)), 0.0, 3),
    (MatrixPolyCurve.from_coeffs(list(_RNG.uniform(-1, 1, (3, 2, 2))), (0.0, 1.0)), 0.3, 9),
    (MatrixPolyCurve.from_coeffs(list(_RNG.uniform(-1, 1, (2, 2, 2))), (0.0, 1.0)), 0.0, 5),
    (MatrixPolyCurve.from_coeffs(_RNG.integers(-3, 4, (3, 3, 3)).tolist(), ("0", "1")),
     1 / 3, 19),
]


@pytest.mark.parametrize("case", range(len(STACKED_GENERICITY)))
def test_genericity_points_equal_per_node_reference(case, monkeypatch):
    curve, s0, m = STACKED_GENERICITY[case]
    seen = []
    monkeypatch.setattr(curve_module, "affine_rank",
                        lambda points, tol: seen.append(np.array(points)) or
                        affine_rank(points, tol=tol))
    genericity_test(curve, s0, m=m)
    want = np.array(reference_inverse_shifts(curve, s0, m))
    assert seen[0].reshape(want.shape).tobytes() == want.tobytes()


def test_genericity_at_endpoint():
    v = genericity_test(line_curve(), 0)
    assert v.generic


def test_normalizer_examples():
    z = normalizer(square_curve(), 1.0)
    assert abs(z.B[0, 0] - 2 ** -0.5) < 1e-12
    assert abs(z.C[0, 0] - 2 ** 0.5) < 1e-12
    z1 = normalizer(MatrixPolyCurve.from_coeffs([[[0.0]], [[1.0]]], (0.0, 1.0)), 0.5)
    assert np.allclose(z1.B, np.eye(1)) and np.allclose(z1.C, np.eye(1))


def test_normalizer_defining_equations_random():
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = rng.uniform(-1, 1, (2, 2))
        if np.linalg.det(A) < 0:
            A[0] = -A[0]
        if abs(np.linalg.det(A)) < 0.1:
            continue
        curve = MatrixPolyCurve.from_coeffs([np.zeros((2, 2)), A], (0.0, 1.0))
        z = normalizer(curve, 0.5)
        assert np.allclose(z.B @ A @ np.linalg.inv(z.C), np.eye(2), atol=1e-10)
        assert abs(np.linalg.det(z.B) * np.linalg.det(z.C) - 1) < 1e-10


def test_normalizer_orientation_error():
    neg = MatrixPolyCurve.from_coeffs([[[0.0]], [[-1.0]]], (-1.0, 1.0))
    with pytest.raises(OrientationError):
        normalizer(neg, 0.0)


def test_normalizer_singular_derivative():
    flat = MatrixPolyCurve.from_coeffs([[[0.0]], [[0.0]], [[1.0]]], (-1.0, 1.0))
    with pytest.raises(SingularMatrixError):
        normalizer(flat, 0.0)  # phi'(0) = 0
