"""The exact lattice kernels against the generic code they are generated from.

`lattice._lll_integral` runs one kernel per dimension m
(`lattice._lll_integral_source`): one branch per stage index, the integral
Gram data in locals and every coordinate loop written out. It must return
what the generic loop of `integral_lll_reference` returns, entry for entry
(the reduced columns, the transform, lam and d) at m = 1 to 6, on random
unimodular bases and on correspondence bases at n = 1, 2 and 3, at both
deltas, with the transform tracked or not, and on one basis at each of m = 7
and 8; and with the step limit lowered it must fail at the same stage.

The exact ball walk (`lattice._ball_walk`, one kernel per m) must visit what
the generator walk of `exact_walk_reference` visits: the same (c, v) in the
same order and the same number of nodes, at m = 1 to 6 and on one basis at
each of m = 7 and 8. So the exact queries still answer under a node budget
of exactly the reference walk's node count, and fail under one node fewer.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_walk_reference
import integral_lll_reference
from danilab import (DirichletQuery, LatticeBasis, correspondence_basis, count_in_box, in_kmu,
                     shortest_supnorm)
from danilab import lattice
from danilab.errors import DegenerateInputError, InternalIdentityError, InvariantError

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DELTAS = (Fraction(99, 100), Fraction(3, 4))
DIAGONAL = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def unimodular_columns(draw):
    """The integer columns of an exact unimodular basis at m = 1 to 6: a
    rational unit-lower-triangular matrix times a rational diagonal of
    determinant 1 times integer column operations."""
    m = draw(st.integers(1, 6))
    diag = [draw(st.sampled_from(DIAGONAL)) for _ in range(m - 1)]
    diag.append(Fraction(1) / math.prod(diag))
    rows = [[(draw(ENTRY) if j < i else Fraction(int(i == j))) * diag[j] for j in range(m)]
            for i in range(m)]
    for _ in range(draw(st.integers(0, 2 * m)) if m > 1 else 0):
        src, dst = draw(st.permutations(range(m)))[:2]
        q = draw(st.integers(-2, 2))
        for row in rows:
            row[dst] += q * row[src]
    return LatticeBasis.from_rational(rows).int_cols


def correspondence_lattice(k, n, N, mu):
    """The exact correspondence basis at phi = k / 37 (phi[i][j] = k_ij / 37)."""
    phi = np.empty((n, n), dtype=object)
    for idx, x in enumerate(k):
        phi[idx // n, idx % n] = Fraction(x, 37)
    return correspondence_basis(DirichletQuery(phi=phi, N=N, mu=mu))


@st.composite
def correspondence_columns(draw):
    """The integer columns of a correspondence basis at n = 1, 2 or 3."""
    n = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(-37, 37), min_size=n * n, max_size=n * n))
    N = draw(st.integers(2, (50, 21, 5)[n - 1]))
    mu = draw(st.sampled_from((Fraction(1, 2), Fraction(9, 10))))
    return correspondence_lattice(k, n, N, mu).int_cols


EXACT_COLUMNS = st.one_of(unimodular_columns(), correspondence_columns())


def outcome(lll, cols, delta, transform):
    """The reduction with its columns as tuples, or the error it raised."""
    try:
        c, u, lam, d = lll(list(cols), delta, transform)
    except InternalIdentityError as exc:
        return type(exc), str(exc)
    return [tuple(col) for col in c], u, lam, d


@SETTINGS
@given(EXACT_COLUMNS, st.sampled_from(DELTAS), st.booleans())
def test_kernel_matches_the_generic_loop(cols, delta, transform):
    want = outcome(integral_lll_reference.lll_integral, cols, delta, transform)
    got = outcome(lattice._lll_integral, cols, delta, transform)
    assert got == want
    c, u, lam, d = got
    assert all(type(x) is int for part in (c, lam, [d]) for row in part for x in row)
    assert (u is None) is not transform


def integer_columns(rng, m):
    """m integer columns: the identity under 3 m random column operations,
    each column then scaled by 1 to 4."""
    ops = np.eye(m, dtype=np.int64)
    for _ in range(3 * m if m > 1 else 0):
        src, dst = rng.choice(m, 2, replace=False)
        ops[:, dst] += int(rng.integers(-3, 4)) * ops[:, src]
    return [tuple(int(x) * s for x in col)
            for s, col in zip(rng.integers(1, 5, size=m).tolist(), ops.T)]


def test_kernel_matches_the_generic_loop_at_every_dimension():
    # twenty bases at each m = 1 to 6, one by one, and one at m = 7 and at
    # m = 8, past what the property draws, up to lattice.MAX_DIM
    rng = np.random.default_rng(23)
    for m in range(1, lattice.MAX_DIM + 1):
        for _ in range(20 if m <= 6 else 1):
            cols = integer_columns(rng, m)
            for delta in DELTAS:
                for transform in (True, False):
                    want = outcome(integral_lll_reference.lll_integral, cols, delta, transform)
                    assert outcome(lattice._lll_integral, cols, delta, transform) == want


def fibonacci_columns(k):
    """Columns (F_{k+1}, F_k) and (F_k, F_{k-1}), det +-1 (Cassini): a pair
    whose reduction takes a long chain of swaps at k = 1."""
    f = [0, 1]
    while len(f) < k + 2:
        f.append(f[-1] + f[-2])
    return [(f[k + 1], f[k]), (f[k], f[k - 1])]


def fibonacci_block():
    """Two Fibonacci pairs on the diagonal of a 4 x 4 block, their columns
    mixed (c2 += c0, c3 -= 2 c1, c1 += c2), so that swaps at every stage
    index update computed rows above them."""
    a, b = fibonacci_columns(12), fibonacci_columns(9)
    cols = [list(a[0]) + [0, 0], list(a[1]) + [0, 0], [0, 0] + list(b[0]), [0, 0] + list(b[1])]
    cols[2] = [x + y for x, y in zip(cols[2], cols[0])]
    cols[3] = [x - 2 * y for x, y in zip(cols[3], cols[1])]
    cols[1] = [x + y for x, y in zip(cols[1], cols[2])]
    return [tuple(col) for col in cols]


@pytest.mark.parametrize("cols", [fibonacci_columns(11), fibonacci_columns(20), fibonacci_block()],
                         ids=["fib11", "fib20", "block4"])
def test_kernel_fails_at_the_generic_loops_step_limit(monkeypatch, cols):
    passing = {}
    for limit in range(1, 40):
        monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", limit)
        monkeypatch.setattr(integral_lll_reference, "_MAX_LLL_STEPS", limit)
        for delta in DELTAS:
            for transform in (True, False):
                want = outcome(integral_lll_reference.lll_integral, cols, delta, transform)
                assert outcome(lattice._lll_integral, cols, delta, transform) == want
                if want[0] is not InternalIdentityError:
                    passing.setdefault((delta, transform), limit)
    # every reduction fails below its stage count and passes from it on
    assert len(passing) == 4 and min(passing.values()) >= 6


def test_kernel_source_spells_out_every_coordinate():
    text = lattice._lll_integral_source(3)
    assert [line.strip() for line in text.splitlines() if " k == " in line] == [
        "if k == 1:", "elif k == 2:"]  # one branch per stage index
    assert "l2_1 = d1 * (a0 * s0 + a1 * s1 + a2 * s2) - l2_0 * l1_0" in text
    assert "d3 = (d2 * x - l2_1 * l2_1) // d1" in text
    assert "a0 -= q * s0; a1 -= q * s1; a2 -= q * s2" in text
    assert "u[2] = [e0 - q * f0, e1 - q * f1, e2 - q * f2]" in text
    assert "if fresh > 2:" in text and "l2_0, l1_0 = l1_0, l2_0" in text
    assert "range(" not in text and "_gram_row(" not in text and "_round_div(" not in text
    kernel = lattice._kernel(lattice._lll_integral_source, 3)
    assert kernel is lattice._kernel(lattice._lll_integral_source, 3)  # compiled once per m
    assert kernel.__code__.co_filename == "<lattice._lll_integral m=3>"
    with pytest.raises(InvariantError, match="at least one column"):
        lattice._lll_integral([], Fraction(99, 100))


def test_walk_source_spells_out_every_level():
    text = lattice._ball_walk_source(3)
    assert [line.strip() for line in text.splitlines() if line.strip().startswith("for ")] == [
        f"for c{j}, o{j} in (({int(j == 0)}, 1),) if t{j} else ((s, 1), (s - 1, -1)):"
        for j in (2, 1, 0)]  # one nested sweep per level, from the top down
    assert "e0 = -(c1 * l1_0 + c2 * l2_0)" in text
    assert "v1_0 = v2_0 + c1 * b1_0; v1_1 = v2_1 + c1 * b1_1; v1_2 = v2_2 + c1 * b1_2" in text
    assert "if -w0 <= v0_0 <= w0 and -w1 <= v0_1 <= w1 and -w2 <= v0_2 <= w2:" in text
    assert "yield" not in text and "range(" not in text and "self" not in text
    kernel = lattice._kernel(lattice._ball_walk_source, 3)
    assert kernel is lattice._kernel(lattice._ball_walk_source, 3)  # compiled once per m
    assert kernel.__code__.co_filename == "<lattice._ball_walk m=3>"


@st.composite
def walk_inputs(draw):
    """A reduced exact basis with its Gram data, a squared radius (an int or
    a Fraction) around its shortest column, and a box."""
    cols = draw(EXACT_COLUMNS)
    b, _, lam, d = lattice._lll_integral(cols, Fraction(99, 100), False)
    m = len(b)
    best = min(max(map(abs, col)) for col in b)
    scale = draw(st.fractions(min_value=Fraction(1, 4), max_value=Fraction(3, 2),
                              max_denominator=8))
    r2 = m * best * best * scale
    r2 = r2.numerator if r2.denominator == 1 else r2
    box = [draw(st.integers(0, 2 * best)) for _ in range(m)]
    return b, (lam, d), r2, box


def reference_walk(b, gram, r2):
    """The (c, v) of the generator walk, as tuples, and its node count after
    each of them and at its end."""
    walk = exact_walk_reference.BallWalk(b, gram, r2)
    leaves, nodes = [], []
    for c, v in walk:
        leaves.append((c, tuple(v)))
        nodes.append(walk.nodes)
    return leaves, nodes, walk.nodes


def widest_walk_input(m):
    """A walk input at m = 7 or 8, past what `walk_inputs` draws: one
    reduced basis from `integer_columns`, the squared radius 3/2 m L^2 (L
    its shortest column's sup-norm) and the box L, 2 L, L, ..."""
    b, _, lam, d = lattice._lll_integral(integer_columns(np.random.default_rng(m), m),
                                         Fraction(99, 100), False)
    best = min(max(map(abs, col)) for col in b)
    return b, (lam, d), Fraction(3, 2) * m * best ** 2, [(1 + j % 2) * best for j in range(m)]


@settings(SETTINGS, max_examples=200)
@given(walk_inputs())
@example(widest_walk_input(7))
@example(widest_walk_input(8))
def test_walk_visits_the_generator_walks_nodes_in_its_order(args):
    b, gram, r2, box = args
    leaves, nodes, total = reference_walk(b, gram, r2)
    assert total <= 20_000
    everything = [max(map(abs, v)) for _, v in leaves] or [0]
    assert lattice._ball_walk(b, *gram, r2, [max(everything)] * len(b)) == (leaves, total)
    inside = [i for i, (_, v) in enumerate(leaves) if all(abs(x) <= w for x, w in zip(v, box))]
    assert lattice._ball_walk(b, *gram, r2, box) == ([leaves[i] for i in inside], total)
    # `first` stops at the first leaf in the box, after as many nodes
    assert lattice._ball_walk(b, *gram, r2, box, True) == (
        ([leaves[inside[0]]], nodes[inside[0]]) if inside else ([], total))


# Correspondence cells whose exact walks visit the most nodes among a few
# hundred random cells at n = 1 and 2: (k, n, N, mu).
BUDGET_CELLS = [([37], 1, 44, Fraction(9, 10)), ([-24], 1, 41, Fraction(9, 10)),
                ([-17], 1, 13, Fraction(9, 10)), ([26], 1, 33, Fraction(1, 2)),
                ([-30, -12, -37, -37], 2, 13, Fraction(9, 10)),
                ([-37, 13, 35, -10], 2, 18, Fraction(9, 10)),
                ([33, 13, 13, 16], 2, 17, Fraction(9, 10)),
                ([35, 0, 5, -2], 2, 19, Fraction(1, 2))]


@pytest.mark.parametrize("cell", BUDGET_CELLS)
def test_exact_queries_answer_within_the_generator_walks_node_count(monkeypatch, cell):
    k, n, N, mu = cell
    basis = correspondence_lattice(k, n, N, mu)
    queries = [
        (lambda: count_in_box(basis, [mu] * basis.m),
         lambda: exact_walk_reference.count_in_box(basis, [mu] * basis.m)),
        (lambda: in_kmu(basis, mu), lambda: exact_walk_reference.in_kmu(basis, mu)),
        (lambda: (lambda r: (r.length, tuple(r.coeffs)))(shortest_supnorm(basis)),
         lambda: exact_walk_reference.shortest_supnorm(basis))]
    most = 0
    # a 2 x 2 ball test reads its reduced pair: n = 1 in_kmu answers with no node
    for (query, reference), walks in zip(queries, (True, n > 1, True)):
        want, nodes = reference()
        most = max(most, nodes)
        if not walks:
            nodes = 0
        monkeypatch.setattr(lattice, "_MAX_NODES", nodes)  # the budget itself still answers
        assert query() == want
        if nodes:
            monkeypatch.setattr(lattice, "_MAX_NODES", nodes - 1)
            with pytest.raises(DegenerateInputError, match="node budget"):
                query()
        monkeypatch.undo()
    assert most >= 5
