import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from danilab import (CentralizerElement, GroupElement, LatticeBasis,
                     MatrixPolyCurve, Sampler, a_diag, a_scale, conj_by_E, count_in_box,
                     dani_vector, in_mahler_compact, lambda1, nondivergence_profile,
                     orbit_point, orbit_points, sl2_copy, sl2_image, u_embed,
                     w_invariance_gap, z_embed)
from danilab import _linalg
from danilab.errors import DomainError, InvariantError
from danilab.reptheory import adjoint, exterior, lie_image, unipotent_image


def random_group_element(rng, n, exact=False):
    """Random word in the unipotent/diagonal constructors (det exactly 1)."""
    g = a_diag(0.0, n)
    for _ in range(rng.integers(1, 6)):
        kind = rng.integers(0, 3)
        if kind == 0:
            g = g @ u_embed(rng.uniform(-1, 1, (n, n)))
        elif kind == 1:
            g = g @ u_embed(rng.uniform(-1, 1, (n, n)), side="lower")
        else:
            g = g @ a_diag(rng.uniform(-0.5, 0.5), n)
    return g


def test_u_embed_examples():
    up = u_embed(np.array([[2.0]]))
    assert np.array_equal(up.entries, [[1.0, 2.0], [0.0, 1.0]])
    lo = u_embed(np.array([[2.0]]), side="lower")
    assert np.array_equal(lo.entries, [[1.0, 0.0], [2.0, 1.0]])


def test_u_embed_group_law():
    rng = np.random.default_rng(3)
    p, q = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))
    lhs = u_embed(p) @ u_embed(q)
    assert np.allclose(lhs.entries, u_embed(p + q).entries)


def test_a_diag_examples():
    assert np.array_equal(a_diag(0.0, 2).entries, np.eye(4))
    a = a_diag(math.log(2), 1)
    assert np.allclose(a.entries, np.diag([2.0, 0.5]))
    prod = a_diag(0.3, 1) @ a_diag(0.4, 1)
    assert np.allclose(prod.entries, a_diag(0.7, 1).entries)


def test_a_scale_exact():
    a = a_scale(Fraction(2), 1)
    assert a.entries.dtype == object
    assert a.entries[0, 0] == 2 and a.entries[1, 1] == Fraction(1, 2)


def factor_refused(factor):
    return f"expansion factor must be positive and finite, got {factor}"


def flow_time_refused(t):
    return (f"flow time t = {t} is outside |t| < 709.78, "
            "where e^t and e^-t are finite nonzero floats")


# A flow time is refused by name when e^t or e^-t leaves the float range.
@pytest.mark.parametrize("call, message", [
    (lambda: a_scale(math.inf, 2), factor_refused("inf")),
    (lambda: a_scale(-math.inf, 1), factor_refused("-inf")),
    (lambda: a_scale(math.nan, 2), factor_refused("nan")),
    (lambda: a_diag(math.nan, 1), flow_time_refused("nan")),
    (lambda: a_scale(0.0, 1), factor_refused("0.0")),
    (lambda: a_scale(Fraction(-1, 2), 1), factor_refused("Fraction(-1, 2)")),
    (lambda: a_diag(1000, 1), flow_time_refused("1000.0")),
    (lambda: a_diag(-1000.0, 2), flow_time_refused("-1000.0")),
    (lambda: orbit_points(NAN_LINE, [1.5], 1000.0), flow_time_refused("1000.0")),
    (lambda: orbit_points(NAN_LINE, [1.5], -1000.0), flow_time_refused("-1000.0")),
], ids=["inf", "-inf", "nan", "a_diag-nan", "zero", "negative-exact", "a_diag-overflow",
        "a_diag-underflow", "orbit_points-overflow", "orbit_points-underflow"])
def test_a_scale_refuses_non_finite_and_non_positive_factors(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy sees the factor
        with pytest.raises(DomainError) as info:
            call()
    assert str(info.value) == message


def test_flow_times_inside_the_float_range_are_kept():
    t = math.nextafter(math.log(sys.float_info.max), 0)
    assert a_diag(t, 1).entries[1, 1] > 0
    assert a_diag(-t, 1).entries[0, 0] > 0
    assert orbit_points(NAN_LINE, [1.0], 700.0)[0, 1, 1] > 0


def test_z_embed_examples():
    ident = z_embed(CentralizerElement(B=np.eye(1), C=np.eye(1)))
    assert np.array_equal(ident.entries, np.eye(2))
    z = z_embed(CentralizerElement(B=np.array([[2.0]]), C=np.array([[0.5]])))
    conj = z @ u_embed(np.array([[1.0]])) @ z.inv()
    assert np.allclose(conj.entries, u_embed(np.array([[4.0]])).entries)
    z2 = z_embed(CentralizerElement(B=np.diag([2.0, 1.0]), C=np.diag([1.0, 0.5])))
    assert np.allclose(z2.entries, np.diag([2.0, 1.0, 1.0, 0.5]))


def test_centralizer_invariant():
    with pytest.raises(InvariantError):
        CentralizerElement(B=np.eye(1) * 2, C=np.eye(1))  # det product 2


def test_group_element_unimodularity():
    with pytest.raises(InvariantError):
        GroupElement(n=1, entries=np.diag([2.0, 1.0]))


def test_orbit_point_examples():
    line = MatrixPolyCurve.from_coeffs([[[0.0]], [[1.0]]], (0.0, 1.0))
    basis = orbit_point(line, 0.5, math.log(10))
    assert np.allclose(basis.cols, [[10.0, 5.0], [0.0, 0.1]])
    flat = MatrixPolyCurve.from_coeffs([[[0.0]]], (0.0, 1.0))
    assert np.allclose(orbit_point(flat, 0.3, 0.0).cols, np.eye(2))


def test_orbit_point_preserves_covolume():
    rng = np.random.default_rng(8)
    line = MatrixPolyCurve.from_coeffs([np.zeros((2, 2)), np.eye(2) + 0.1], (0.0, 1.0))
    base = random_group_element(rng, 2)
    y = orbit_point(line, 0.7, 1.3, basepoint=LatticeBasis(base.entries))
    assert abs(abs(np.linalg.det(y.cols)) - 1) < 1e-9


def test_random_words_stay_unimodular():
    rng = np.random.default_rng(17)
    for n in (1, 2):
        for _ in range(25):
            g = random_group_element(rng, n)
            for _ in range(3):
                g = g @ random_group_element(rng, n)
            assert abs(np.linalg.det(g.entries) - 1) < 1e-8


def test_flow_conjugates_unipotent_exactly():
    # a u(Phi) a^-1 = u(f^2 Phi) for a = diag(f I, f^-1 I), exact arithmetic
    phi = np.array([[Fraction(1, 3), 2], [0, Fraction(5, 7)]], dtype=object)
    a = a_scale(Fraction(3), 2)
    lhs = a @ u_embed(phi) @ a.inv()
    rhs = u_embed(phi * Fraction(9))
    assert all(lhs.entries[i, j] == rhs.entries[i, j] for i in range(4) for j in range(4))


def test_flow_conjugates_unipotent_float():
    rng = np.random.default_rng(4)
    phi = rng.uniform(-1, 1, (2, 2))
    t = 0.8
    lhs = a_diag(t, 2) @ u_embed(phi) @ a_diag(-t, 2)
    assert np.allclose(lhs.entries, u_embed(math.exp(2 * t) * phi).entries, atol=1e-9)


def test_z_conjugation_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        B = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
        C0 = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
        scale = (np.linalg.det(B) * np.linalg.det(C0)) ** -0.5
        z = CentralizerElement(B=B, C=C0 * scale)
        phi = rng.uniform(-1, 1, (2, 2))
        lhs = z_embed(z) @ u_embed(phi) @ z_embed(z).inv()
        rhs = u_embed(z.act(phi))
        assert np.allclose(lhs.entries, rhs.entries, atol=1e-9)


def test_dani_vector_examples():
    v = dani_vector(np.array([[0.5]]), [1], [0], 10)
    assert np.allclose(v.astype(float), [5.0, 0.1])
    assert np.allclose(dani_vector(np.array([[0.5]]), [0], [0], 3).astype(float), [0.0, 0.0])
    exact = dani_vector(np.array([[Fraction(1, 2)]], dtype=object), [2], [1], 10)
    assert exact[0] == 0 and exact[1] == Fraction(1, 5)


def test_dani_vector_reads_exact_scales_as_integers():
    phi = np.array([[Fraction(1, 3)]], dtype=object)
    want = [Fraction(-5, 3), Fraction(2, 5)]
    for N in (5, np.int64(5), np.int32(5)):
        got = dani_vector(phi, [2], [1], N)
        assert list(got) == want and all(type(x) is Fraction for x in got)
    for N in (True, np.True_, 5.0, Fraction(5, 2)):
        with pytest.raises(DomainError):
            dani_vector(phi, [2], [1], N)
    with pytest.raises(DomainError):
        dani_vector(np.array([[0.5]]), [1], [0], True)


def test_dani_vector_matches_matrix_product():
    rng = np.random.default_rng(31)
    for _ in range(20):
        phi = rng.uniform(-2, 2, (2, 2))
        p = rng.integers(-4, 5, 2)
        q = rng.integers(-4, 5, 2)
        N = int(rng.integers(1, 9))
        g = a_diag(math.log(N), 2) @ u_embed(phi)
        direct = g.entries @ np.concatenate([-q, p]).astype(float)
        assert np.allclose(dani_vector(phi, p, q, N).astype(float), direct, atol=1e-12)


def test_sl2_image_generators_and_E():
    copy = sl2_copy(np.array([[2.0]]))
    r = 0.6
    gen = sl2_image(copy, np.array([[1.0, r], [0.0, 1.0]]))
    assert np.allclose(gen.entries, u_embed(r * np.array([[2.0]])).entries)
    e_img = sl2_image(copy, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(e_img.entries, [[0.0, 2.0], [-0.5, 0.0]])


def test_sl2_image_homomorphism_fixed_pair():
    copy = sl2_copy(np.array([[1.0, 0.3], [0.0, 1.0]]))
    m1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    m2 = np.array([[1.0, 0.0], [1.0, 1.0]])
    lhs = sl2_image(copy, m1) @ sl2_image(copy, m2)
    rhs = sl2_image(copy, m1 @ m2)
    assert np.allclose(lhs.entries, rhs.entries, atol=1e-12)
    # both equal [[2I, Phi], [Phi^-1, I]]
    assert np.allclose(lhs.block(0, 0), 2 * np.eye(2))


def test_sl2_image_homomorphism_random():
    rng = np.random.default_rng(12)
    for n in (1, 2):
        phi = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
        copy = sl2_copy(phi)
        for _ in range(50):
            # unimodular 2x2s from the Iwasawa-style product k(theta) a(l) n(x)
            th, l, x = rng.uniform(-2, 2, 3)
            rot = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
            m1 = rot @ np.diag([math.exp(l), math.exp(-l)]) @ np.array([[1.0, x], [0.0, 1.0]])
            th, l, x = rng.uniform(-2, 2, 3)
            rot = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
            m2 = rot @ np.diag([math.exp(l), math.exp(-l)]) @ np.array([[1.0, x], [0.0, 1.0]])
            lhs = sl2_image(copy, m1) @ sl2_image(copy, m2)
            rhs = sl2_image(copy, m1 @ m2)
            assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-8


def test_conj_by_E_examples():
    out = conj_by_E(np.array([[2.0]]), CentralizerElement(np.eye(1), np.eye(1)),
                    np.array([[3.0]]))
    assert np.allclose(out, [[-0.75]])
    zero = conj_by_E(np.array([[2.0]]), CentralizerElement(np.eye(1), np.eye(1)),
                     np.zeros((1, 1)))
    assert np.allclose(zero, np.zeros((1, 1)))
    unit = conj_by_E(np.array([[1.0]]), CentralizerElement(np.eye(1), np.eye(1)),
                     np.array([[1.0]]))
    assert np.allclose(unit, [[-1.0]])


def test_conj_by_E_matches_block_formula():
    rng = np.random.default_rng(21)
    for n in (1, 2):
        for _ in range(10):
            phi = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
            B = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
            C0 = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
            scale = (np.linalg.det(B) * np.linalg.det(C0)) ** (-1.0 / n)
            z = CentralizerElement(B=B, C=C0 * scale)
            D = rng.uniform(-1, 1, (n, n))
            got = conj_by_E(phi, z, D)
            pinv = np.linalg.inv(phi)
            want = -pinv @ (z.B @ D @ np.linalg.inv(z.C)) @ pinv
            assert np.max(np.abs(got - want)) < 1e-9


NAN_LINE = MatrixPolyCurve.from_coeffs([[[0.25]], [[1.125]]], (1.0, 2.0))
NAN_CASES = {
    "count_in_box": (lambda: count_in_box(LatticeBasis(np.eye(2)), [math.nan, 0.9]),
                     DomainError, "halfwidths must be positive"),
    # an infinite box holds infinitely many vectors: refused before any walk
    "count_in_box_inf": (lambda: count_in_box(LatticeBasis(np.eye(2)), [math.inf, 0.5]),
                         DomainError, "halfwidths must be positive"),
    "count_in_box_inf_stack": (lambda: count_in_box(LatticeBasis.batch(np.array([np.eye(2)]))[0],
                                                    [0.5, math.inf]),
                               DomainError, "halfwidths must be positive"),
    "orbit_points_t": (lambda: orbit_points(NAN_LINE, [1.5], math.nan),
                       DomainError, "flow time t = nan"),
    "in_mahler_compact": (lambda: in_mahler_compact(LatticeBasis(np.eye(2)), math.nan),
                          DomainError, "eps must be positive"),
    "nondivergence_profile": (lambda: nondivergence_profile(NAN_LINE, [2.0], math.nan,
                                                            Sampler(seed=1, count=4)),
                              DomainError, "eps must be positive"),
    "LatticeBasis": (lambda: LatticeBasis(np.diag([1.0, math.nan])),
                     InvariantError, "deviates from 1"),
    "check_stack": (lambda: LatticeBasis.batch(np.array([np.eye(2), np.diag([math.nan, 1.0])])),
                    InvariantError, "deviates from 1"),
    "GroupElement": (lambda: GroupElement(1, np.diag([1.0, math.nan])),
                     InvariantError, "deviates from 1"),
    # u(nan) fails its det check before any lattice is reduced
    "w_invariance_gap": (lambda: w_invariance_gap(NAN_LINE, [2.0], math.nan, lambda1(),
                                                  Sampler(seed=1, count=4)),
                         InvariantError, "deviates from 1"),
    "CentralizerElement": (lambda: CentralizerElement(np.array([[math.nan]]), np.eye(1)),
                           InvariantError, "deviates from 1"),
    "sl2_image": (lambda: sl2_image(sl2_copy(np.eye(1)), np.diag([1.0, math.nan])),
                  DomainError, "deviates from 1"),
    "lie_image": (lambda: lie_image(adjoint(1), np.diag([math.nan, 0.0])),
                  DomainError, "deviates from 0"),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_is_refused(case):
    call, error, message = NAN_CASES[case]
    with pytest.raises(error, match=message) as info, np.errstate(invalid="ignore"):
        call()
    if case == "check_stack":
        assert info.value.sample_index == 1


# Just off the target: exact values within the float tolerance are refused
# exactly; float values are refused beyond their site's tolerance.
ONE_PLUS = 1 + Fraction(1, 10 ** 12)
UNIT_CASES = {
    "GroupElement-exact": (lambda: GroupElement(1, _linalg.frac_matrix([[ONE_PLUS, 0], [0, 1]])),
                           InvariantError, f"exact det = {ONE_PLUS} != 1"),
    "GroupElement-float": (lambda: GroupElement(1, np.diag([1.0, 1.5])),
                           InvariantError, "det = 1.5 deviates from 1 beyond 1e-08"),
    "sl2_image-exact": (lambda: sl2_image(sl2_copy(_linalg.frac_matrix([[1]])),
                                          _linalg.frac_matrix([[ONE_PLUS, 0], [0, 1]])),
                        DomainError, f"exact det = {ONE_PLUS} != 1"),
    "sl2_image-float": (lambda: sl2_image(sl2_copy(np.eye(1)), np.diag([1.0, 1.5])),
                        DomainError, "det = 1.5 deviates from 1 beyond 1e-10"),
    "CentralizerElement-exact": (lambda: CentralizerElement(_linalg.frac_matrix([[ONE_PLUS]]),
                                                            _linalg.frac_matrix([[1]])),
                                 InvariantError, f"exact det(B) det(C) = {ONE_PLUS} != 1"),
    "CentralizerElement-float": (lambda: CentralizerElement(np.array([[2.0]]), np.eye(1)),
                                 InvariantError,
                                 "det(B) det(C) = 2.0 deviates from 1 beyond 1e-10"),
    "lie_image-exact": (lambda: lie_image(exterior(1, 1),
                                          _linalg.frac_matrix([[ONE_PLUS - 1, 0], [0, 0]])),
                        DomainError, f"exact trace = {ONE_PLUS - 1} != 0"),
    "lie_image-float": (lambda: lie_image(adjoint(1), np.diag([1e-9, 0.0])),
                        DomainError, "trace = 1e-09 deviates from 0 beyond 1e-10"),
}


@pytest.mark.parametrize("case", UNIT_CASES)
def test_unit_checks_refuse_off_target_values(case):
    call, error, message = UNIT_CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# The float det checks of a basis and of the three stacks give the message of
# the one-element check, and a stack names its failing entry: the det is nan
# where e^t phi(s) or r phi overflows, and |det| is 1.5 for diag(-1.5, 1).
BIG_LINE = MatrixPolyCurve.from_coeffs([[[0.0]], [[1e300]]], (0.0, 2.0))
FLOAT_DET_CASES = {
    "LatticeBasis": (lambda: LatticeBasis(np.diag([-1.5, 1.0])),
                     "|det| = 1.5 deviates from 1 beyond 1e-08", None),
    "batch": (lambda: LatticeBasis.batch(np.array([np.eye(2), np.diag([-1.5, 1.0])])),
              "|det| = 1.5 deviates from 1 beyond 1e-08", "sample_index"),
    "orbit_points": (lambda: orbit_points(BIG_LINE, [0.0, 1.5], 700.0),
                     "det = nan deviates from 1 beyond 1e-08", "sample_index"),
    "unipotent_image": (lambda: unipotent_image(exterior(1, 1), sl2_copy(np.array([[1e300]])),
                                                [1.0, 1e10]),
                        "det = nan deviates from 1 beyond 1e-08", "r_index"),
}


@pytest.mark.parametrize("case", FLOAT_DET_CASES)
def test_float_det_checks_keep_their_text_and_index(case):
    call, message, index_name = FLOAT_DET_CASES[case]
    with pytest.raises(InvariantError) as info, np.errstate(over="ignore", invalid="ignore"):
        call()
    assert str(info.value) == message
    if index_name is not None:
        assert getattr(info.value, index_name) == 1
