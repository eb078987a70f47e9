import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from danilab import (LatticeBasis, count_in_box, in_kmu, in_mahler_compact,
                     lattice, reduce, shortest_supnorm)
from danilab.errors import (DegenerateInputError, DomainError, InvariantError,
                            UnsupportedSizeError)
from danilab.flow import a_diag, a_scale, u_embed


_COMBO_CACHE = {}


def brute_force_shortest(cols, radius=10):
    """Sup-norm minimum over all integer combinations with |c_i| <= radius."""
    m = cols.shape[0]
    key = (m, radius)
    if key not in _COMBO_CACHE:
        grid = list(itertools.product(range(-radius, radius + 1), repeat=m))
        combos = np.array(grid, dtype=float)
        _COMBO_CACHE[key] = combos[np.any(combos != 0, axis=1)]
    lengths = np.max(np.abs(_COMBO_CACHE[key] @ cols.T), axis=1)
    return lengths.min()


def random_unimodular(rng, m, steps=12):
    u = np.eye(m, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(m, 2, replace=False)
        u[i] += int(rng.integers(-3, 4)) * u[j]
    return u


def test_reduce_identity_is_fixed_point():
    red, transform = reduce(LatticeBasis(np.eye(2)))
    assert np.allclose(red.cols, np.eye(2))
    assert abs(round(np.linalg.det(transform))) == 1


def test_reduce_shears_long_basis():
    b = LatticeBasis(np.array([[1.0, 100.0], [0.0, 1.0]]))
    red, transform = reduce(b)
    assert np.max(np.abs(red.cols[:, 0])) <= 1.0 + 1e-12
    assert np.allclose(b.cols @ transform, red.cols)
    assert transform.dtype == np.int64
    assert abs(round(np.linalg.det(transform.astype(float)))) == 1


def test_shortest_examples():
    assert shortest_supnorm(LatticeBasis(np.eye(2))).length == pytest.approx(1.0)
    res = shortest_supnorm(LatticeBasis(np.diag([2.0, 0.5])))
    assert res.length == pytest.approx(0.5)
    assert np.allclose(np.abs(res.vector), [0.0, 0.5])
    skew = shortest_supnorm(LatticeBasis(np.array([[2.0, 1.0], [0.0, 0.5]])))
    assert skew.length == pytest.approx(1.0)


def test_shortest_exact_mode():
    res = shortest_supnorm(LatticeBasis.from_rational([[2, 0], [0, "1/2"]]))
    assert isinstance(res.length, Fraction)
    assert res.length == Fraction(1, 2)


def test_shortest_reports_consistent_coeffs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.uniform(-1, 1, (3, 3))
        while abs(np.linalg.det(m)) < 0.2:
            m = rng.uniform(-1, 1, (3, 3))
        m /= abs(np.linalg.det(m)) ** (1 / 3)
        res = shortest_supnorm(LatticeBasis(m))
        assert np.allclose(m @ res.coeffs, res.vector, atol=1e-10)
        assert np.max(np.abs(res.vector)) == pytest.approx(res.length)


def test_shortest_agrees_with_brute_force():
    rng = np.random.default_rng(77)
    for m in (2, 4):
        for _ in range(15):
            b = rng.uniform(-1, 1, (m, m))
            while abs(np.linalg.det(b)) <= 0.2:
                b = rng.uniform(-1, 1, (m, m))
            b /= abs(np.linalg.det(b)) ** (1 / m)
            got = shortest_supnorm(LatticeBasis(b)).length
            assert got == pytest.approx(brute_force_shortest(b), abs=1e-10)


def test_count_in_box_examples():
    assert count_in_box(LatticeBasis(np.eye(2)), (1.0, 1.0)) == 8
    assert count_in_box(LatticeBasis(np.diag([2.0, 0.5])), (1.0, 1.0)) == 4
    assert count_in_box(LatticeBasis(np.eye(2)), (0.1, 0.1)) == 0
    # (1, 1) sits on the box corner, hence on the boundary of the search ball
    assert count_in_box(LatticeBasis.from_rational([[1, 0], [0, 1]]), (1, 1)) == 8


def test_count_in_box_is_even():
    rng = np.random.default_rng(13)
    for _ in range(20):
        b = rng.uniform(-1, 1, (2, 2))
        while abs(np.linalg.det(b)) < 0.2:
            b = rng.uniform(-1, 1, (2, 2))
        b /= abs(np.linalg.det(b)) ** 0.5
        assert count_in_box(LatticeBasis(b), (1.5, 2.0)) % 2 == 0


def test_count_in_box_unimodular_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        b = rng.uniform(-1, 1, (3, 3))
        while abs(np.linalg.det(b)) < 0.2:
            b = rng.uniform(-1, 1, (3, 3))
        b /= abs(np.linalg.det(b)) ** (1 / 3)
        u = random_unimodular(rng, 3)
        same = count_in_box(LatticeBasis(b @ u), (1.0, 1.3, 0.8))
        assert same == count_in_box(LatticeBasis(b), (1.0, 1.3, 0.8))


def test_in_kmu_examples():
    assert in_kmu(LatticeBasis(np.eye(2)), 0.9)
    squashed = LatticeBasis(np.diag([2.0, 0.5]))
    assert not in_kmu(squashed, 0.9)
    assert in_kmu(squashed, 0.4)
    assert in_kmu(squashed, 0.5)  # boundary: lambda_1 = mu counts as inside


def test_in_kmu_monotone_in_mu():
    rng = np.random.default_rng(41)
    for _ in range(20):
        b = rng.uniform(-1, 1, (2, 2))
        while abs(np.linalg.det(b)) < 0.2:
            b = rng.uniform(-1, 1, (2, 2))
        b /= abs(np.linalg.det(b)) ** 0.5
        basis = LatticeBasis(b)
        hits = [in_kmu(basis, mu) for mu in (0.05, 0.3, 0.6, 0.9, 0.99)]
        # once outside, stays outside as mu grows
        assert hits == sorted(hits, reverse=True)


def test_in_kmu_rejects_bad_mu():
    for mu in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            in_kmu(LatticeBasis(np.eye(2)), mu)


def test_in_mahler_compact():
    assert in_mahler_compact(LatticeBasis(np.eye(2)), 0.5)
    assert not in_mahler_compact(LatticeBasis(np.diag([2.0, 0.5])), 0.6)
    flowed = LatticeBasis(np.diag([np.exp(2.5), np.exp(-2.5)]))
    assert not in_mahler_compact(flowed, 0.1)


def test_exact_flowed_lattice_keeps_python_ints():
    # a_t u(s) at s = 1 + 1/pi with the expansion factor round(e^t): the exact
    # run used to overflow int64 at t = 8.
    s = Fraction(1 + 1 / math.pi)
    for t in (2, 4, 6, 8):
        f = Fraction(round(math.exp(t)))
        exact = LatticeBasis((a_scale(f, 1) @ u_embed(np.array([[s]], dtype=object))).entries)
        floats = LatticeBasis((a_scale(float(f), 1) @ u_embed(np.array([[float(s)]]))).entries)
        res = shortest_supnorm(exact)
        assert all(type(x) is int for x in res.coeffs)
        assert float(res.length) == pytest.approx(shortest_supnorm(floats).length, rel=1e-12)
        _, transform = reduce(exact)
        assert all(type(x) is int for x in transform.ravel())


def test_minkowski_bound_refuses_lost_precision():
    # At t = 24 the float orbit lattice is too ill-conditioned for doubles;
    # its computed minimum (2322) breaks lambda_1 <= 1.
    flowed = LatticeBasis((a_diag(24, 1) @ u_embed(np.array([[1 + 1 / math.pi]]))).entries)
    with pytest.raises(InvariantError, match="Minkowski"):
        shortest_supnorm(flowed)


def test_node_budget_refuses_huge_enumerations(monkeypatch):
    monkeypatch.setattr(lattice, "_MAX_NODES", 1000)
    needle = LatticeBasis(np.diag([1e-4, 1e4]))
    with pytest.raises(DegenerateInputError):
        count_in_box(needle, (1.0, 1.0))
    assert count_in_box(LatticeBasis(np.diag([0.1, 10.0])), (1.0, 1.0)) == 20


def test_dimension_cap():
    with pytest.raises(UnsupportedSizeError):
        shortest_supnorm(LatticeBasis(np.eye(10)))


def test_non_unimodular_rejected():
    with pytest.raises(InvariantError):
        LatticeBasis(np.diag([2.0, 1.0]))
    with pytest.raises(InvariantError):
        LatticeBasis.from_rational([[2, 0], [0, 1]])


# A basis needs at least one column: each m = 0 constructor is refused before
# any query reaches LLL.
EMPTY_BASES = {
    "init": (lambda: LatticeBasis(np.zeros((0, 0))), "m x m with m >= 1"),
    "from_integral": (lambda: LatticeBasis.from_integral([], 1), "m >= 1 integer columns"),
    "batch": (lambda: LatticeBasis.batch(np.zeros((3, 0, 0))), "float stack with m >= 1"),
}


@pytest.mark.parametrize("case", EMPTY_BASES)
def test_bases_without_columns_refused(case):
    make, message = EMPTY_BASES[case]
    with pytest.raises(InvariantError, match=message):
        make()


def test_exact_det_refusals_read_as_fractions():
    for make in (lambda: LatticeBasis.from_integral([(3, 0), (0, 1)], 3),
                 lambda: LatticeBasis.from_rational([[1, 0], [0, Fraction(1, 3)]])):
        with pytest.raises(InvariantError) as info:
            make()
        assert str(info.value) == "exact |det| = 1/3 != 1"


def test_exact_basis_clears_denominators_once(monkeypatch):
    calls = []
    original = lattice._linalg.integral
    monkeypatch.setattr(lattice._linalg, "integral",
                        lambda entries: calls.append(len(entries)) or original(entries))
    basis = LatticeBasis.from_rational([[1, Fraction(1, 3)], [0, 1]])
    assert calls == [4]
    assert basis.int_cols == ((3, 0), (1, 3)) and basis.den == 3
    assert basis.cols.tolist() == [[1, Fraction(1, 3)], [0, 1]]
    calls.clear()
    with pytest.raises(InvariantError, match=r"exact \|det\| = 1/9 != 1"):
        LatticeBasis.from_rational([[Fraction(1, 3), 0], [0, Fraction(1, 3)]])
    assert calls == [4]
    with pytest.raises(InvariantError, match=r"exact \|det\| = 2 != 1"):
        LatticeBasis.from_rational([[2, 1], [0, -1]])
