"""The compiled stack LLL against `lattice._lll`, the plain loop it is held to.

`_lll` is the float LLL written once, as a loop over the coordinates: its
dot products are summed left to right from 0.0, so neither it nor the ball
walk's centers depend on how the Python at hand implements builtin sum() on
floats. The compiled stack LLL (of `lattice._compiled()`) must reduce each
lane as `_lll` does, lane by lane: the bytes of the reduced columns, mu and
norms, and the transform U as integers, on flowed orbit bases and Gaussian
bases at m = 1 to 8, at both deltas, through long swap chains (orbit bases
up to t = 14, Gaussian columns of widely spread lengths), on stacks that mix
those with lanes `_lll` refuses, and at lowered step limits, also on the
stage right after a swap at k = 1, where the kernel recomputes Gram-Schmidt
row 0 before the step check that `_lll` makes first. A lane gets a status
from 1 to 3 exactly where `_lll` raises, and a stack raises `_lll`'s error
of its lowest such lane.
"""

import builtins
import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ball_walk_reference
from danilab import MatrixPolyCurve, lattice, orbit_points
from danilab.errors import InternalIdentityError

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def orbit_columns(phi, t):
    """The columns of a_t u(phi), as `_lll` reads a float basis."""
    curve = MatrixPolyCurve.from_coeffs([phi], (0.0, 1.0))
    return lattice._float_columns(orbit_points(curve, [0.5], t)[0])


def gaussian_columns(m, seed):
    return lattice._float_columns(np.random.default_rng(seed).standard_normal((m, m)))


def outcome(cols, delta):
    """`_lll`'s reduction of the column list as the bytes of b, mu and
    norms and U, or the error it raised."""
    try:
        b, u, mu, norms = lattice._lll(cols, delta)
    except (InternalIdentityError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [np.array(x, dtype=float).tobytes() for x in (b, mu, norms)], u


@st.composite
def lll_inputs(draw):
    m = draw(st.integers(1, 8))
    if m % 2 == 0 and draw(st.booleans()):
        n = m // 2
        phi = draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))
        cols = orbit_columns(np.reshape(phi, (n, n)), draw(st.floats(0, 8)))
    else:
        cols = gaussian_columns(m, draw(st.integers(0, 2 ** 32 - 1)))
    return cols, draw(st.sampled_from([0.99, 0.75]))


@contextlib.contextmanager
def step_limit(limit):
    """_MAX_LLL_STEPS lowered for `_lll` and the compiled LLL alike, for one
    hypothesis example."""
    saved = lattice._MAX_LLL_STEPS
    lattice._MAX_LLL_STEPS = limit
    try:
        yield
    finally:
        lattice._MAX_LLL_STEPS = saved


def assert_stack_is_lll_lane_by_lane(reduce_stack, lanes, delta):
    """Each lane of the compiled reduction of the lanes (column lists) is
    `_lll`'s, a nonzero status standing for an error; at lattice._DELTA the
    stack raises the error of its lowest refused lane, named by it, and
    otherwise holds each lane's reduction and transform."""
    stack = np.array(lanes).transpose(0, 2, 1)  # lane i's columns as columns
    b, u, mu, norms, status, first = reduce_stack(stack, delta, lattice._MAX_LLL_STEPS)
    want = [outcome(cols, delta) for cols in lanes]
    refused = [i for i, x in enumerate(want) if isinstance(x[0], type)]
    assert np.flatnonzero(status).tolist() == refused
    assert first == (refused[0] if refused else -1)
    for i, lane in enumerate(want):
        if i not in refused:
            assert ([x[i].tobytes() for x in (b, mu, norms)], u[i].tolist()) == lane
    if delta != lattice._DELTA:
        return
    checked = lattice._Stack(stack, named=True)
    if refused:
        with pytest.raises((InternalIdentityError, ArithmeticError, ValueError)) as info:
            checked.reduced()
        assert (type(info.value), str(info.value)) == want[refused[0]]
        assert info.value.sample_index == refused[0]
    else:
        assert [([x[i].tobytes() for x in checked.reduced()], checked._transform[i].tolist())
                for i in range(len(lanes))] == want


@SETTINGS
@given(lll_inputs(), st.one_of(st.none(), st.integers(1, 12)))
def test_compiled_stack_lll_is_the_kernel(compiled_lll, args, limit):
    cols, delta = args
    with step_limit(limit or lattice._MAX_LLL_STEPS):
        assert_stack_is_lll_lane_by_lane(compiled_lll, [cols], delta)


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
    return cols, draw(st.sampled_from([0.99, 0.75]))


@settings(SETTINGS, max_examples=100)
@given(swap_heavy_inputs())
def test_kernel_matches_the_generic_loop_through_long_swap_chains(compiled_lll, args):
    cols, delta = args
    assert_stack_is_lll_lane_by_lane(compiled_lll, [cols], delta)
    assert isinstance(outcome(cols, delta)[0], list)


# An orbit basis at n = 2, t = 8 whose stage 16 is a swap at k = 1, the
# last of four. The kernel recomputes Gram-Schmidt row 0 at that swap; `_lll`
# recomputes it at the start of stage 17, after its step check.
PINNED_SWAP = orbit_columns(np.array([[0.5, -1.25], [0.75, 0.375]]), 8.0), 16


def test_kernel_fails_at_the_generic_loops_step_limit_after_a_k1_swap(compiled_lll,
                                                                     monkeypatch):
    cols, stage = PINNED_SWAP
    rows = []  # the Gram-Schmidt rows `_lll` computes, in order
    above = [0]  # the products <b_i, b*_j> of the row in progress
    fdot = lattice._fdot

    def counted(x, y):
        if x is y:  # ||b*_i||^2 closes row i, after its i products
            rows.append(above[0])
            above[0] = 0
        else:
            above[0] += 1
        return fdot(x, y)

    monkeypatch.setattr(lattice, "_fdot", counted)
    seen = {}
    for limit in (stage, stage + 1, lattice._MAX_LLL_STEPS):
        rows.clear()
        with step_limit(limit):
            seen[limit] = outcome(cols, lattice._DELTA), list(rows)
            assert_stack_is_lll_lane_by_lane(compiled_lll, [cols], lattice._DELTA)
    (stopped, before), (_, after) = seen[stage], seen[stage + 1]
    assert stopped[0] is InternalIdentityError
    # stage 17 opens on rows 0 and 1, so stage 16 swapped at k = 1
    assert after == before + [0, 1]
    assert isinstance(seen[lattice._MAX_LLL_STEPS][0][0], list)


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
        b, _, mu, norms = lattice._lll(cols)
        r = min(max(abs(x) for x in col) for col in b)
        out.append(list(walk(b, (mu, norms), len(b) * r * r)))
    eye = [tuple(float(i == j) for i in range(4)) for j in range(4)]
    out.append(list(walk(eye, TIE_GRAM, 4.0)))
    return out


def test_reductions_and_walks_do_not_depend_on_how_python_sums_floats(monkeypatch):
    rng = np.random.default_rng(18)
    columns = [orbit_columns(rng.uniform(-2, 2, (n, n)), t) for n in (2, 3) for t in (2.0, 6.0)
               for _ in range(10)]
    want = [outcome(cols, lattice._DELTA) for cols in columns], walks(columns)
    monkeypatch.setattr(lattice, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(ball_walk_reference, "sum", compensated_sum, raising=False)
    assert ([outcome(cols, lattice._DELTA) for cols in columns], walks(columns)) == want


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


def test_lanes_whose_transform_leaves_int64_take_it_from_lll(float_lll, monkeypatch):
    # the pair's quotient 2^70 and the m = 3 chain's entry 2^80 leave int64:
    # the library reduces their b, mu and norms, and `_lll` gives their U;
    # the identity lanes beside the pair need no `_lll` where it is used
    stacks = [np.array([np.eye(2), [[1.0, 2.0 ** 70], [0.0, 1.0]], np.eye(2)]),
              np.array([[[1.0, 2.0 ** 40, 0.0], [0.0, 1.0, 2.0 ** 40], [0.0, 0.0, 1.0]]])]
    wants = [[outcome(lattice._float_columns(cols), lattice._DELTA) for cols in stack]
             for stack in stacks]
    calls = []
    lll = lattice._lll
    monkeypatch.setattr(lattice, "_lll", lambda *args: calls.append(args) or lll(*args))
    for stack, want in zip(stacks, wants):
        calls.clear()
        checked = lattice._checked_stack(stack)
        assert [([x[i].tobytes() for x in checked.reduced()], checked._transform[i].tolist())
                for i in range(len(stack))] == want
        assert len(calls) == (1 if float_lll == "compiled" else len(stack))
    assert max(abs(x) for col in wants[1][0][1] for x in col) == 2 ** 80
    with pytest.raises(OverflowError):  # the int64 transform of `reduce`, as before
        lattice.reduce(lattice.LatticeBasis(stacks[0][1]))
