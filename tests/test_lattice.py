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


REFUSED_MU = ([0, 1, Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)]
              + [0.0, 1.0, -0.5, 1.5, math.nan])


@pytest.mark.parametrize("exact", [True, False])
def test_in_kmu_refuses_mu_outside_the_open_unit_interval(exact):
    basis = (LatticeBasis.from_integral([(4, 0), (1, 1)], 2) if exact
             else LatticeBasis(np.diag([2.0, 0.5])))
    for mu in REFUSED_MU:
        with pytest.raises(DomainError) as info:
            in_kmu(basis, mu)
        assert str(info.value) == f"mu must lie in (0, 1), got {mu}"
    # both lattices have sup-norm minimum exactly 1/2
    for mu in (Fraction(1, 2), 0.5):
        assert in_kmu(basis, mu) is True
    assert in_kmu(basis, Fraction(99, 100)) is False


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


def test_exact_ball_test_walks_out_to_the_box_corner():
    # In units of 1/6 the bound 5/6 is B = 5, and the exact ball test walks
    # the ball of squared radius 4 (B - 1)^2 around the box |x_i| <= B - 1.
    # The only nonzero lattice vectors in that box are +-c, c = (4, 4, 4, 4):
    # a corner of the box, on the ball's boundary, and longer than every
    # reduced column (each of sup-norm >= B), so only the walk finds it.
    cols = ((4, 4, 4, 4), (-1, 5, -1, 1), (-2, 1, 7, 2), (1, -2, -2, 5))
    basis = LatticeBasis.from_integral(cols, 6)
    box = np.array(list(itertools.product(range(-4, 5), repeat=4)))
    coeffs = np.linalg.solve(np.array(cols, dtype=float).T, box.T).T
    inside = box[np.all(np.abs(coeffs - np.rint(coeffs)) < 1e-9, axis=1)]
    assert sorted(map(tuple, inside)) == [(-4,) * 4, (0,) * 4, (4,) * 4]
    reduced, _, _, _ = lattice._lll_integral(basis.int_cols, lattice._EXACT_DELTA)
    assert min(max(map(abs, col)) for col in reduced) >= 5
    assert not in_kmu(basis, Fraction(5, 6))
    assert not in_mahler_compact(basis, Fraction(5, 6))
    assert in_kmu(basis, Fraction(2, 3))  # nothing strictly below the corner's 4/6
    assert shortest_supnorm(basis).length == Fraction(2, 3)


def test_in_mahler_compact():
    assert in_mahler_compact(LatticeBasis(np.eye(2)), 0.5)
    assert not in_mahler_compact(LatticeBasis(np.diag([2.0, 0.5])), 0.6)
    flowed = LatticeBasis(np.diag([np.exp(2.5), np.exp(-2.5)]))
    assert not in_mahler_compact(flowed, 0.1)


@pytest.mark.parametrize("m", [2, 4])
def test_infinite_mahler_bound_answers_in_both_modes(m):
    # every lattice vector is finite, so each mode answers False; the exact
    # mode used to raise OverflowError from Fraction(inf)
    cols = np.eye(m, dtype=object)
    cols[0, 1], cols[1, 1], cols[0, 0] = Fraction(3, 2), Fraction(1, 2), 2
    for basis in (LatticeBasis(cols.copy()), LatticeBasis(cols.astype(float))):
        assert in_mahler_compact(basis, math.inf) is False
        assert in_mahler_compact(basis, 1e300) is False


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


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_dimension_cap(exact):
    m = lattice.MAX_DIM + 1
    basis = (LatticeBasis.from_integral(np.eye(m, dtype=int).tolist(), 1) if exact
             else LatticeBasis(np.eye(m)))
    queries = (lambda: count_in_box(basis, [0.5] * m), lambda: in_kmu(basis, 0.5),
               lambda: shortest_supnorm(basis), lambda: reduce(basis))
    for query in queries:
        with pytest.raises(UnsupportedSizeError,
                           match="^dimension 9 exceeds the supported bound 8$"):
            query()


@pytest.mark.parametrize("name, source", [("_lll_integral", lattice._lll_integral_source),
                                          ("_ball_walk", lattice._ball_walk_source)],
                         ids=["lll_integral", "ball_walk"])
def test_every_kernel_the_size_rule_admits_compiles_once(name, source):
    for m in range(1, lattice.MAX_DIM + 1):
        kernel = lattice._kernel(source, m)
        assert kernel is lattice._kernel(source, m)
        assert kernel.__code__.co_filename == f"<lattice.{name} m={m}>"


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


def test_exact_basis_sets_no_float_slot():
    # the stack and lane of a float basis are never written on an exact one
    for basis in (LatticeBasis.from_rational([[2, 0], [0, Fraction(1, 2)]]),
                  LatticeBasis.from_integral([(4, 0), (0, 1)], 2),
                  LatticeBasis.of_checked_integral(((1, 0), (0, 1)), 1)):
        assert basis.exact and not hasattr(basis, "_stack") and not hasattr(basis, "_lane")
    assert hasattr(LatticeBasis(np.eye(2)), "_stack")


def test_node_budget_refusal_names_the_budget_and_both_causes(monkeypatch):
    # Z^2 is as well conditioned as a lattice gets; the ball around the box of
    # halfwidth 10 holds about 300 vectors, past a budget of 100 nodes
    monkeypatch.setattr(lattice, "_MAX_NODES", 100)
    for basis in (LatticeBasis(np.eye(2)), LatticeBasis.from_rational([[1, 0], [0, 1]])):
        with pytest.raises(DegenerateInputError, match="node budget") as info:
            count_in_box(basis, [10, 10])
        assert str(info.value) == (
            "enumeration exceeds the desk-scale node budget of 100 nodes: the box or ball holds "
            "more lattice vectors than that, or the basis is too ill-conditioned after "
            "reduction")


# Z^2, spanned by a matrix whose LLL and walk products pass 2^63.
WIDE_Z2 = [[2 ** 31 + 1, 2 ** 31], [2 ** 31, 2 ** 31 - 1]]


@pytest.mark.parametrize("rows", [WIDE_Z2, np.array(WIDE_Z2, dtype=np.int64)],
                         ids=["int", "int64"])
def test_numpy_integer_entries_give_the_exact_answers_of_python_ints(rows):
    basis = LatticeBasis.from_rational(rows)
    assert type(basis.den) is int and all(type(x) is int for col in basis.int_cols for x in col)
    assert shortest_supnorm(basis).length == 1
    assert count_in_box(basis, [Fraction(3, 2)] * 2) == 8
    assert in_kmu(basis, Fraction(1, 2)) is True


@pytest.mark.parametrize("den", [2 ** 40, np.int64(2 ** 40)], ids=["int", "int64"])
def test_from_integral_reads_numpy_integers_as_python_ints(den):
    cols = np.eye(2, dtype=np.int64) * 2 ** 40  # |det| = 2^80 over den^2 = 2^80
    basis = LatticeBasis.from_integral(cols, den)
    assert basis.int_cols == ((2 ** 40, 0), (0, 2 ** 40)) and basis.den == 2 ** 40
    assert type(basis.den) is int and all(type(x) is int for col in basis.int_cols for x in col)
    assert shortest_supnorm(basis).length == 1
