"""The float LLL kernel against the generic loop it is generated from.

`lattice._lll` runs one kernel per dimension m (`lattice._lll_source`).
Every stage at index k recomputes exactly Gram-Schmidt row k, except the
stage after a swap at k = 1, which also recomputes row 0; so the kernel has
one branch per stage index, holds the Gram-Schmidt data in locals, writes
every loop out, and recomputes row 0 at the k = 1 swap itself. It must
return what the generic loop of `float_lll_reference` returns, bit for bit:
the reduced columns, mu, norms and the transform, on flowed orbit bases and
Gaussian bases, at both deltas, through long swap chains (orbit bases up to
t = 14, Gaussian columns of widely spread lengths), and it must fail at the
same step limit, also on the stage right after a k = 1 swap. Its sums, and
the ball walk's centers, are taken left to right, so neither depends on how
the Python at hand implements builtin sum() on floats.

The compiled stack LLL (`lattice._compiled_lll`) is held to the kernel
without the transform, bit for bit, lane by lane: on the same inputs, on
stacks that mix orbit, Gaussian and refused lanes, and at lowered step
limits; a lane gets a nonzero status exactly where the kernel raises, and a
stack raises the kernel's error of its lowest such lane.
"""

import builtins
import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ball_walk_reference
import float_lll_reference
from danilab import MatrixPolyCurve, lattice, orbit_points
from danilab.errors import InternalIdentityError

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def orbit_columns(phi, t):
    """The columns of a_t u(phi), as `_lll` reads a float basis."""
    curve = MatrixPolyCurve.from_coeffs([phi], (0.0, 1.0))
    return lattice._float_columns(orbit_points(curve, [0.5], t)[0])


def gaussian_columns(m, seed):
    return lattice._float_columns(np.random.default_rng(seed).standard_normal((m, m)))


def outcome(lll, cols, delta, transform):
    """The reduction as bytes (columns, the whole mu matrix, norms) with the
    transform, or the error it raised."""
    try:
        b, u, mu, norms = lll(cols, delta, transform)
    except (InternalIdentityError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    floats = [x for col in b for x in col] + [x for row in mu for x in row] + list(norms)
    return np.array(floats, dtype=float).tobytes(), u


@st.composite
def lll_inputs(draw):
    m = draw(st.integers(1, 8))
    if m % 2 == 0 and draw(st.booleans()):
        n = m // 2
        phi = draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))
        cols = orbit_columns(np.reshape(phi, (n, n)), draw(st.floats(0, 8)))
    else:
        cols = gaussian_columns(m, draw(st.integers(0, 2 ** 32 - 1)))
    return cols, draw(st.sampled_from([0.99, 0.75])), draw(st.booleans())


@SETTINGS
@given(lll_inputs())
def test_kernel_matches_the_generic_loop(args):
    cols, delta, transform = args
    want = outcome(float_lll_reference._lll, cols, delta, transform)
    assert outcome(lattice._lll, cols, delta, transform) == want
    assert isinstance(want[0], bytes)


@contextlib.contextmanager
def step_limit(limit):
    """_MAX_LLL_STEPS lowered in the kernel and the reference alike, for one
    hypothesis example."""
    saved = lattice._MAX_LLL_STEPS, float_lll_reference._MAX_LLL_STEPS
    lattice._MAX_LLL_STEPS = float_lll_reference._MAX_LLL_STEPS = limit
    try:
        yield
    finally:
        lattice._MAX_LLL_STEPS, float_lll_reference._MAX_LLL_STEPS = saved


@settings(SETTINGS, max_examples=60)
@given(lll_inputs(), st.integers(1, 12))
def test_kernel_fails_at_the_generic_loops_step_limit(args, limit):
    cols, delta, transform = args
    with step_limit(limit):
        want = outcome(float_lll_reference._lll, cols, delta, transform)
        assert outcome(lattice._lll, cols, delta, transform) == want


@st.composite
def swap_heavy_inputs(draw):
    """Bases whose reductions take long swap chains: orbit bases at n = 2, 3,
    4 and t in [8, 14], and Gaussian bases whose columns are scaled by e^-10
    to e^10."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        phi = draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))
        cols = orbit_columns(np.reshape(phi, (n, n)), draw(st.floats(8, 14)))
    else:
        m = draw(st.integers(2, 8))
        scales = draw(st.lists(st.floats(-10, 10), min_size=m, max_size=m))
        cols = [[math.exp(e) * x for x in col]
                for e, col in zip(scales, gaussian_columns(m, draw(st.integers(0, 2 ** 32 - 1))))]
    return cols, draw(st.sampled_from([0.99, 0.75])), draw(st.booleans())


@settings(SETTINGS, max_examples=100)
@given(swap_heavy_inputs())
def test_kernel_matches_the_generic_loop_through_long_swap_chains(args):
    cols, delta, transform = args
    want = outcome(float_lll_reference._lll, cols, delta, transform)
    assert outcome(lattice._lll, cols, delta, transform) == want
    assert isinstance(want[0], bytes)


# An orbit basis at n = 2, t = 8 whose stage 16 is a swap at k = 1, the
# last of four. The kernel recomputes Gram-Schmidt row 0 at that swap; the
# generic loop recomputes it at the start of stage 17, after its step check.
PINNED_SWAP = orbit_columns(np.array([[0.5, -1.25], [0.75, 0.375]]), 8.0), 16


def test_kernel_fails_at_the_generic_loops_step_limit_after_a_k1_swap(monkeypatch):
    cols, stage = PINNED_SWAP
    rows = []
    gs_row = float_lll_reference._gs_row
    monkeypatch.setattr(float_lll_reference, "_gs_row",
                        lambda b, bstar, mu, norms, i: (rows.append(i),
                                                        gs_row(b, bstar, mu, norms, i)))
    seen = {}
    for limit in (stage, stage + 1, lattice._MAX_LLL_STEPS):
        for transform in (True, False):
            rows.clear()
            with step_limit(limit):
                want = outcome(float_lll_reference._lll, cols, lattice._DELTA, transform)
                assert outcome(lattice._lll, cols, lattice._DELTA, transform) == want
            seen[limit, transform] = want, list(rows)
    for transform in (True, False):
        (stopped, before), (_, after) = seen[stage, transform], seen[stage + 1, transform]
        assert stopped[0] is InternalIdentityError
        # stage 17 opens on rows 0 and 1, so stage 16 swapped at k = 1
        assert after == before + [0, 1]
        assert isinstance(seen[lattice._MAX_LLL_STEPS, transform][0][0], bytes)


def test_kernel_source_spells_out_every_coordinate():
    text = lattice._lll_source(3)
    assert [line.strip() for line in text.splitlines() if " k == " in line] == [
        "if k == 1:", "elif k == 2:"]  # one branch per stage index
    assert "m2_1 = (0.0 + a0 * z1_0 + a1 * z1_1 + a2 * z1_2) / n1" in text
    assert "n2 = 0.0 + z2_0 * z2_0 + z2_1 * z2_1 + z2_2 * z2_2" in text
    assert "a0 -= q * s0; a1 -= q * s1; a2 -= q * s2" in text
    assert "m2_0 -= q * m1_0" in text
    assert "fresh" not in text and "range(k" not in text
    assert "sum(" not in text and "zip(b" not in text
    kernel = lattice._kernel(lattice._lll_source, 3)
    assert kernel is lattice._kernel(lattice._lll_source, 3)  # compiled once per m
    assert kernel.__code__.co_filename == "<lattice._lll m=3>"
    with pytest.raises(lattice.InvariantError, match="at least one column"):
        lattice._lll([])


def compensated_sum(items, start=0):
    """Builtin sum() as Python >= 3.12 computes it on floats: compensated,
    here exactly rounded (math.fsum); ints sum as before."""
    items = list(items)
    if any(isinstance(x, float) for x in items):
        return math.fsum([start, *items])
    return builtins.sum(items, start)


# A ball-walk Gram whose level-0 center -(0.5 + 2^-54 + 2^-54) at c = (., 1,
# 1, 1) rounds to -0.5 summed left to right and to -0.5 - 2^-53 when
# compensated, so the two sums start that level's sweep at 0 and at -1.
TIE_GRAM = ([[0.0] * 4, [0.5, 0.0, 0.0, 0.0], [2.0 ** -54, 0.0, 0.0, 0.0],
             [2.0 ** -54, 0.0, 0.0, 0.0]], [1.0] * 4)


def walks(columns):
    """The leaves of the depth-first float walk (`ball_walk_reference`) on
    each reduced basis, and on TIE_GRAM."""
    walk = ball_walk_reference._BallWalk
    out = []
    for cols in columns:
        b, _, mu, norms = lattice._lll(cols, lattice._DELTA, False)
        r = min(max(abs(x) for x in col) for col in b)
        out.append(list(walk(b, (mu, norms), len(b) * r * r)))
    eye = [tuple(float(i == j) for i in range(4)) for j in range(4)]
    out.append(list(walk(eye, TIE_GRAM, 4.0)))
    return out


def test_reductions_and_walks_do_not_depend_on_how_python_sums_floats(monkeypatch):
    rng = np.random.default_rng(18)
    columns = [orbit_columns(rng.uniform(-2, 2, (n, n)), t) for n in (2, 3) for t in (2.0, 6.0)
               for _ in range(10)]
    want = ([outcome(lattice._lll, cols, lattice._DELTA, True) for cols in columns],
            walks(columns))
    monkeypatch.setattr(lattice, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(ball_walk_reference, "sum", compensated_sum, raising=False)
    assert ([outcome(lattice._lll, cols, lattice._DELTA, True) for cols in columns],
            walks(columns)) == want


def lane_outcome(cols, delta):
    """`_lll`'s reduction of the column list without the transform, as the
    bytes of b, mu and norms, or the error it raised."""
    try:
        b, _, mu, norms = lattice._lll(cols, delta, False)
    except (InternalIdentityError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [np.array(x, dtype=float).tobytes() for x in (b, mu, norms)]


def assert_stack_is_lll_lane_by_lane(reduce_stack, lanes, delta):
    """Each lane of the compiled reduction of the lanes (column lists) is
    `_lll`'s, a nonzero status standing for an error; at lattice._DELTA the
    stack raises the error of its lowest refused lane, named by it."""
    stack = np.array(lanes).transpose(0, 2, 1)  # lane i's columns as columns
    b, mu, norms, status, first = reduce_stack(stack, delta, lattice._MAX_LLL_STEPS)
    want = [lane_outcome(cols, delta) for cols in lanes]
    refused = [i for i, x in enumerate(want) if isinstance(x, tuple)]
    assert np.flatnonzero(status).tolist() == refused
    assert first == (refused[0] if refused else -1)
    for i, lane in enumerate(want):
        if i not in refused:
            assert [x[i].tobytes() for x in (b, mu, norms)] == lane
    if delta != lattice._DELTA:
        return
    checked = lattice._Stack(stack, named=True)
    if refused:
        with pytest.raises((InternalIdentityError, ArithmeticError, ValueError)) as info:
            checked.reduced()
        assert (type(info.value), str(info.value)) == want[refused[0]]
        assert info.value.sample_index == refused[0]
    else:
        assert [[x[i].tobytes() for x in checked.reduced()] for i in range(len(lanes))] == want


@SETTINGS
@given(lll_inputs(), st.one_of(st.none(), st.integers(1, 12)))
def test_compiled_stack_lll_is_the_kernel(compiled_lll, args, limit):
    cols, delta, _ = args
    with step_limit(limit or lattice._MAX_LLL_STEPS):
        assert_stack_is_lll_lane_by_lane(compiled_lll, [cols], delta)


def refused_columns(m, where, value):
    """Identity columns with one entry set to value (0.0 leaves a zero
    column when it is the diagonal one), or, for value None, the columns of
    diag(1e300, 1e-300, 1, ...), whose first swap leaves a zero norm."""
    if value is None:
        return [[float(i == j) * (1e300 if j == 0 else 1e-300 if j == 1 else 1.0)
                 for i in range(m)] for j in range(m)]
    cols = [[float(i == j) for i in range(m)] for j in range(m)]
    cols[where // m][where % m] = value
    return cols


@st.composite
def mixed_stacks(draw):
    """1 to 6 lanes of one m = 1...8: orbit lanes (even m), Gaussian lanes
    and lanes `_lll` refuses (a zero column, a nan or infinite entry, or a
    zero norm after the first swap), at both deltas."""
    m = draw(st.integers(1, 8))
    kinds = ["gaussian", "refused"] + (["orbit"] if m % 2 == 0 else [])
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "orbit":
            n = m // 2
            phi = draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))
            lanes.append(orbit_columns(np.reshape(phi, (n, n)), draw(st.floats(0, 12))))
        elif kind == "gaussian":
            lanes.append(gaussian_columns(m, draw(st.integers(0, 2 ** 32 - 1))))
        else:
            value = draw(st.sampled_from([0.0, math.nan, math.inf, -math.inf]
                                         + ([None] if m >= 2 else [])))
            lanes.append(refused_columns(m, draw(st.integers(0, m * m - 1)), value))
    return lanes, draw(st.sampled_from([0.99, 0.75]))


@settings(SETTINGS, max_examples=150)
@given(mixed_stacks(), st.one_of(st.none(), st.integers(1, 12)))
def test_compiled_stack_lll_is_the_kernel_on_mixed_stacks(compiled_lll, args, limit):
    lanes, delta = args
    with step_limit(limit or lattice._MAX_LLL_STEPS):
        assert_stack_is_lll_lane_by_lane(compiled_lll, lanes, delta)
