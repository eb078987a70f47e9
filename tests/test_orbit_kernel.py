"""The batched orbit kernel against the one-sample matrix chain.

`orbit_points` must reproduce (a_diag(t) @ z_embed(normalizer(c, s)) @
u_embed(c.eval(s))).entries bit for bit, and over a list of flow times the
per-t stacks joined, the estimators must hand the observable exactly those
bases, and a failing sample must raise its one-sample error, the one a loop
over the flow times raises first, named by (seed, index, s). Block means and
standard errors must have the bits of the one-block reference. Box counts,
ball tests and lambda1 on a stack read the reduction made once per lane,
with the transform, for the whole stack; an unbatched float basis is the
one lane of a stack of its own.
"""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from danilab import (DirichletQuery, LatticeBasis, MatrixPolyCurve, Sampler,
                     correspondence_basis, count_in_box, in_kmu, kmu_fraction, kmu_indicator,
                     lambda1, nondivergence_profile, orbit_point, orbit_points, reduce,
                     siegel_average, siegel_count, u_embed, w_invariance_gap)
from danilab import lattice, stats
from danilab.errors import (DegenerateInputError, DomainError, InternalIdentityError,
                            InvariantError, OrientationError, SingularMatrixError)
from orbit_reference import reference_basis, reference_cols, reference_mean_stderr

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
ENTRY = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def orbit_case(draw):
    """A curve of degree 0-2 on [1, 2] (exact or float coefficients) whose
    derivative is diagonally dominant with positive determinant, flow time,
    sample points, normalize flag and optional basepoint."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 2))
    coeffs = [[[draw(ENTRY) / 8 ** k for _ in range(n)] for _ in range(n)]
              for k in range(degree + 1)]
    if degree >= 1:
        for i in range(n):
            coeffs[1][i][i] += 16  # phi'(s) = c1 + 2 c2 s stays near 16 I on [1, 2]
    exact = draw(st.booleans())
    if not exact:
        coeffs = [[[float(x) for x in row] for row in c] for c in coeffs]
    curve = MatrixPolyCurve.from_coeffs(coeffs, (1, 2) if exact else (1.0, 2.0))
    s = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=6)))
    t = draw(st.floats(0.0, 8.0))
    normalize = degree >= 1 and draw(st.booleans())
    basepoint = None
    if draw(st.booleans()):
        shear = np.eye(2 * n)
        shear[0, -1] = float(draw(ENTRY))
        basepoint = LatticeBasis(shear[:, ::-1].copy())
    return curve, s, t, normalize, basepoint


@SETTINGS
@given(orbit_case())
def test_orbit_points_equal_matrix_chain_bit_for_bit(case):
    curve, s, t, normalize, basepoint = case
    stack = orbit_points(curve, s, t, basepoint=basepoint, normalize=normalize)
    assert stack.shape == (len(s), 2 * curve.n, 2 * curve.n) and not stack.flags.writeable
    for i, si in enumerate(s):
        want = reference_cols(curve, si, t, basepoint=basepoint, normalize=normalize)
        assert stack[i].tobytes() == want.tobytes()
        one = orbit_point(curve, si, t, basepoint=basepoint, normalize=normalize)
        assert one.cols.tobytes() == want.tobytes()


def record_stacks(monkeypatch) -> list:
    """Record every float stack made through its one det check,
    `lattice._checked_stack`, where `LatticeBasis.batch` and the estimators
    call it; returns the list the stacks are appended to."""
    made = []
    make = lattice._checked_stack

    def checked(cols):
        made.append(make(cols))
        return made[-1]

    for owner in (lattice, stats):
        monkeypatch.setattr(owner, "_checked_stack", checked)
    return made


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("kind", ("siegel_count", "kmu_indicator", "lambda1"))
def test_kernel_values_equal_observable_on_reference_basis(n, kind, monkeypatch):
    observable = {"siegel_count": siegel_count((0.9,) * (2 * n)),
                  "kmu_indicator": kmu_indicator(0.7), "lambda1": lambda1()}[kind]
    curve = MatrixPolyCurve.from_coeffs([np.eye(n) * 0.25, np.eye(n) + 0.125], (1.0, 2.0))
    sampler = Sampler(seed=3, count=12)
    made = record_stacks(monkeypatch)
    seen = []  # (basis, count) of each sample a Siegel count hands to `count_in_box`
    count = stats.count_in_box

    def record(basis, box):
        value = count(basis, box)
        seen.append((basis.cols.tobytes(), float(value)))
        return value

    monkeypatch.setattr(stats, "count_in_box", record)
    for normalize in (False, True):
        bases = [reference_basis(curve, s, 5.0, normalize=normalize)
                 for s in sampler.points(curve.interval)]
        want = [observable.evaluate(basis) for basis in bases]
        made.clear()
        seen.clear()
        got = stats._orbit_stats(curve, [5.0], sampler, observable, normalize=normalize)
        (stack,) = made
        assert [cols.tobytes() for cols in stack.cols] == [b.cols.tobytes() for b in bases]
        assert bits(got) == bits([reference_mean_stderr(want)])
        if kind == "siegel_count":
            assert seen == [(b.cols.tobytes(), value) for b, value in zip(bases, want)]
        else:  # the stack's answer list, read in one call, without a basis per sample
            assert seen == []
            assert bits(observable.evaluate_stack(stack)) == bits(want)


BENT = MatrixPolyCurve.from_coeffs([[[0.0]], [[-3.0]], [[1.0]]], (1.0, 2.0))  # phi' = 2s - 3


@pytest.mark.parametrize("s,index,error", [
    ([1.8, 1.2, 5.0], 1, OrientationError),
    ([1.8, 5.0, 1.2], 1, DomainError),
    ([1.75, 1.9, 1.5], 2, SingularMatrixError),
])
def test_lowest_failing_sample_raises_its_one_sample_error(s, index, error):
    with pytest.raises(error) as info:
        orbit_points(BENT, s, 2.0, normalize=True)
    assert info.value.sample_index == index
    with pytest.raises(error) as alone:
        orbit_point(BENT, s[index], 2.0, normalize=True)
    assert str(alone.value) == str(info.value)


def test_estimator_names_failing_sample_for_rerun():
    # phi(s) = s^2 - 3s reverses orientation on [1, 1.5): some sample fails
    sampler = Sampler(seed=11, count=40)
    with pytest.raises(OrientationError) as info:
        w_invariance_gap(BENT, [2.0], 1.0, kmu_indicator(0.7), sampler)
    points = sampler.points(BENT.interval)
    index = int(np.argmax(points < 1.5))
    s = sampler.point(BENT.interval, index)
    assert str(info.value).startswith(f"sample (seed, index, s) = (11, {index}, {s!r}): ")
    with pytest.raises(OrientationError):
        orbit_point(BENT, s, 2.0, normalize=True)


def test_out_of_interval_point_is_named():
    line = MatrixPolyCurve.from_coeffs([[[Fraction(0)]], [[Fraction(1)]]], (0, 1))
    with pytest.raises(DomainError, match=r"s = 1\.5 outside") as info:
        orbit_points(line, [0.25, 1.5], 1.0)
    assert info.value.sample_index == 1


def test_check_stack_names_first_bad_basis():
    stack = np.array([np.eye(2), np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
    with pytest.raises(InvariantError, match="deviates from 1") as info:
        LatticeBasis.batch(stack)
    assert info.value.sample_index == 1
    good = LatticeBasis.batch(np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]]))
    assert [b.cols.tolist() for b in good] == [np.eye(2).tolist(), [[1.0, 2.0], [0.0, 1.0]]]


def basis_record(basis):
    """Every slot of a basis, its columns as bytes with their view flags."""
    cols = basis._cols
    return (cols.tobytes(), cols.dtype, cols.shape, cols.strides, cols.flags.writeable,
            basis.int_cols, basis.den)


def reduction_bytes(b, gram):
    """Reduced columns, mu below the diagonal and norms, as bytes, so that
    equal reductions are bit-identical (signed zeros included)."""
    mu, norms = gram
    below = [mu[i][j] for i in range(len(b)) for j in range(i)]
    return np.array([x for col in b for x in col] + below + list(norms), dtype=float).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_bases_equal_the_checked_bases_reduction_included(n):
    curve = MatrixPolyCurve.from_coeffs([np.eye(n) * 0.25, np.eye(n) * 1.125 + 0.0625],
                                        (1.0, 2.0))
    stack = orbit_points(curve, np.linspace(1.0, 2.0, 7), 3.0)
    bases = LatticeBasis.batch(stack)
    assert len(bases) == len(stack)
    for basis, cols in zip(bases, stack):
        one = LatticeBasis(cols)
        assert basis_record(basis) == basis_record(one)
        assert basis._cols.base is stack and not basis.exact and basis.m == 2 * n
        with pytest.raises(AttributeError):
            basis.den = 1
        # the stack's reduction of the lane is the one the basis's walk would get
        assert basis._stack is bases[0]._stack and basis._stack.cols is stack
        b, _, mu, norms = lattice._lll(lattice._float_columns(one.cols))
        lane = [x[basis._lane].tolist() for x in basis._stack.reduced()]
        assert reduction_bytes(lane[0], lane[1:]) == reduction_bytes(b, (mu, norms))
    exact = np.array([np.eye(2, dtype=int)], dtype=object)
    for refused in (exact, np.eye(2)):  # an exact stack; one matrix, not a stack
        with pytest.raises(InvariantError, match="float stack"):
            LatticeBasis.batch(refused)


LINE = MatrixPolyCurve.from_coeffs([[[0.25]], [[1.125]]], (1.0, 2.0))


def test_exact_basepoint_is_read_as_its_float_twin():
    exact = LatticeBasis.from_rational([[1, Fraction(1, 3)], [0, 1]])
    twin = LatticeBasis(np.array([[1.0, 1 / 3], [0.0, 1.0]]))
    points = np.linspace(1.0, 2.0, 9)
    stack = orbit_points(LINE, points, 3.0, basepoint=exact)
    assert stack.dtype == float and not stack.flags.writeable
    assert stack.tobytes() == orbit_points(LINE, points, 3.0, basepoint=twin).tobytes()
    one = orbit_point(LINE, 1.25, 3.0, basepoint=exact)
    assert one.cols.tobytes() == orbit_point(LINE, 1.25, 3.0, basepoint=twin).cols.tobytes()
    sampler = Sampler(seed=3, count=40)
    got = siegel_average(LINE, [3.0], (0.9, 0.9), sampler, basepoint=exact)[0]
    assert got == siegel_average(LINE, [3.0], (0.9, 0.9), sampler, basepoint=twin)[0]


def test_n1_queries_read_the_batched_reduction(monkeypatch):
    sampler = Sampler(seed=3, count=40)

    def estimates():
        out = [stats._orbit_stats(LINE, [5.0], sampler, obs, normalize=normalize)
               for obs in (siegel_count((0.9, 0.9)), kmu_indicator(0.7), lambda1())
               for normalize in (False, True)]
        out.append(w_invariance_gap(LINE, [5.0], 1.0, lambda1(), sampler)[0])
        out.append(nondivergence_profile(LINE, [2.0, 5.0], 0.3, sampler))
        return out

    want = estimates()
    calls = []  # the lanes `_lll` reduces
    scalar = lattice._lll
    monkeypatch.setattr(lattice, "_lll", lambda *args: calls.append(args) or scalar(*args))
    made = record_stacks(monkeypatch)
    assert estimates() == want
    # one det check per stack: the six plain runs, the w-invariance stack
    # with its translates, and the nondivergence stack of both flow times
    assert [len(stack.cols) for stack in made] == [40] * 6 + [80, 80]
    # every query reads the batched reduction, made by one call of the
    # compiled stack LLL, or by `_lll` per lane without it: two Siegel, two
    # K_mu and two lambda1 stacks of 40 lanes, and the w-invariance and
    # nondivergence stacks of 80
    per_lane = lattice._compiled() is None
    assert len(calls) == per_lane * 10 * 40
    calls.clear()
    for obs in (siegel_count((0.9, 0.9)), kmu_indicator(0.7)):
        stats._orbit_stats(LINE, [5.0], sampler, obs)
    nondivergence_profile(LINE, [2.0, 5.0], 0.3, sampler)
    assert len(calls) == per_lane * 4 * 40


def test_stack_estimates_build_no_lane_basis(monkeypatch):
    # K_mu, nondivergence and lambda1 read their stack's answer list in one
    # call: no `batch`, no basis per lane, no `orbit_point` hand-off, and one
    # det check per stack, translates included
    plane = MatrixPolyCurve.from_coeffs([np.eye(2) * 0.25, np.eye(2) + 0.125], (1.0, 2.0))
    sampler = Sampler(seed=3, count=20)

    def estimates():
        return [kmu_fraction(LINE, [2.0, 5.0], 0.7, sampler, normalize=True),
                nondivergence_profile(plane, [2.0, 5.0], 0.3, sampler),
                w_invariance_gap(LINE, [2.0, 5.0], 1.0, lambda1(), sampler),
                w_invariance_gap(plane, [3.0], 1.0, kmu_indicator(0.7), sampler)]

    want = estimates()
    made = record_stacks(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("a stack estimate built a basis per lane")

    for owner, name in ((LatticeBasis, "batch"), (LatticeBasis, "__init__"),
                        (LatticeBasis, "of_checked_integral"), (stats, "orbit_point")):
        monkeypatch.setattr(owner, name, refuse)
    assert estimates() == want
    assert [(len(stack.cols), stack.cols.shape[1]) for stack in made] == [
        (40, 2), (40, 4), (80, 2), (40, 4)]
    with pytest.raises(DomainError, match="per basis"):
        siegel_count((0.9, 0.9)).evaluate_stack(made[0])


# An n = 2 line: its 4 x 4 ball tests still walk, where a 2 x 2 one reads its
# reduced pair and walks no node.
PLANE_LINE = MatrixPolyCurve.from_coeffs([[[0.25, 0.125], [0.0, 0.5]],
                                          [[1.125, 0.0], [0.25, 1.0]]], (1.0, 2.0))


def assert_lowest_failing_lane_is_named(curve, observable, error, message):
    # some lanes of the joined stack (both flow times, then their
    # translates) fail; the estimate raises the error of the lowest one on
    # its own basis, named by its sample
    sampler = Sampler(seed=5, count=30)
    points = sampler.points(curve.interval)
    shift = u_embed(np.eye(curve.n)).entries
    cols = np.concatenate([orbit_points(curve, points, t, normalize=True) for t in (2.0, 5.0)])
    cols = np.concatenate((cols, shift @ cols))
    failing = []
    for lane, lane_cols in enumerate(cols):
        try:
            observable.evaluate(LatticeBasis(np.array(lane_cols)))
        except error as exc:
            failing.append((lane, str(exc)))
    (lane, alone), *rest = failing
    assert lane > 0 and rest and message in alone
    index = lane % len(points)
    with pytest.raises(error) as info:
        stats._orbit_stats(curve, [2.0, 5.0], sampler, observable, normalize=True, shift=shift)
    assert info.value.sample_index == index
    s = sampler.point(curve.interval, index)
    assert str(info.value) == f"sample (seed, index, s) = (5, {index}, {s!r}): {alone}"


@pytest.mark.parametrize("observable, curve, nodes", [
    (kmu_indicator(0.7), PLANE_LINE, 1),
    (stats.Observable(kind="lambda1_below", eps=0.3), PLANE_LINE, 5),
    (lambda1(), LINE, 3),
], ids=["kmu_indicator", "lambda1_below", "lambda1"])
def test_lowest_failing_lane_of_a_stack_estimate_is_named(observable, curve, nodes, monkeypatch):
    # under a tiny node budget
    monkeypatch.setattr(lattice, "_MAX_NODES", nodes)
    assert_lowest_failing_lane_is_named(curve, observable, DegenerateInputError, "node budget")


@pytest.mark.parametrize("observable", [
    kmu_indicator(0.7), stats.Observable(kind="lambda1_below", eps=0.3),
], ids=["kmu_indicator", "lambda1_below"])
def test_lowest_lane_past_the_lll_steps_of_an_n1_stack_estimate_is_named(observable,
                                                                          monkeypatch):
    # an n = 1 ball test walks no node, so its lanes fail only in the LLL
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 5)
    assert_lowest_failing_lane_is_named(LINE, observable, InternalIdentityError, "terminate")


def test_n1_box_and_ball_queries_take_the_stack_grid(monkeypatch):
    sampler = Sampler(seed=3, count=40)

    def estimates():
        return [siegel_average(LINE, [5.0], (0.9, 0.9), sampler)[0],
                siegel_average(LINE, [5.0], (0.9, 0.9), sampler, normalize=True)[0],
                kmu_fraction(LINE, [5.0], 0.7, sampler)[0],
                kmu_fraction(LINE, [5.0], 0.7, sampler, normalize=True)[0],
                nondivergence_profile(LINE, [2.0, 5.0], 0.3, sampler)]

    want = estimates()

    def refuse(*args):
        raise AssertionError("an n = 1 box or ball query ran the ball walk")

    monkeypatch.setattr(lattice, "_ball_walk", refuse)
    assert estimates() == want


def test_n1_stack_grid_memory_is_bounded():
    # 10^4 lanes at t = 8: the run peaks near 4.1 MB of the 6 MB bound with
    # the compiled walk and near 4.05 MB with `_walk_lane`, which reads one
    # lane's lists at a time (11.3 MB when it converts the whole stack at once).
    points = Sampler(seed=3, count=10_000).points(LINE.interval)
    tracemalloc.start()
    try:
        bases = LatticeBasis.batch(orbit_points(LINE, points, 8.0))
        for basis in bases:
            count_in_box(basis, (0.9, 0.9))
            in_kmu(basis, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


def test_exact_wider_and_unbatched_bases_reduce_in_each_query(monkeypatch):
    # `_lagrange` is the exact 2 x 2 ball test's reduction, counted with the
    # integral LLL that every other exact query runs
    calls = {"_lll": 0, "_lll_integral": 0, "_lagrange": 0}
    for name in calls:
        def counted(*args, _fn=getattr(lattice, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(lattice, name, counted)
    # a float stack, lambda1's included, is reduced by the compiled stack
    # LLL, or by `_lll` per lane without it
    per_lane = lattice._compiled() is None
    plane = MatrixPolyCurve.from_coeffs([np.eye(2) * 0.25, np.eye(2) + 0.125], (1.0, 2.0))
    stats._orbit_stats(plane, [3.0], Sampler(seed=3, count=6), lambda1())
    assert calls == {"_lll": 6 * per_lane, "_lll_integral": 0, "_lagrange": 0}
    cell = correspondence_basis(DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object),
                                               N=4, mu=Fraction(1, 2)))
    in_kmu(cell, Fraction(1, 2))
    assert calls == {"_lll": 6 * per_lane, "_lll_integral": 0, "_lagrange": 1}
    count_in_box(cell, [Fraction(1, 2)] * 2)
    assert calls == {"_lll": 6 * per_lane, "_lll_integral": 1, "_lagrange": 1}
    # an unbatched 2 x 2 basis is a one-lane stack
    count_in_box(LatticeBasis(np.array([[1.0, 0.3], [0.0, 1.0]])), [0.9, 0.9])
    assert calls["_lll"] == 7 * per_lane
    (batched,) = LatticeBasis.batch(np.array([[[1.0, 0.3], [0.0, 1.0]]]))
    count_in_box(batched, [0.9, 0.9])
    assert calls["_lll"] == 8 * per_lane
    reduce(batched)  # the public reduction reduces the basis afresh, the same way
    assert calls["_lll"] == 9 * per_lane


def test_lll_step_limit_names_the_lowest_failing_sample(monkeypatch):
    sampler = Sampler(seed=5, count=30)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 3)
    failing = []
    for i, cols in enumerate(orbit_points(LINE, sampler.points(LINE.interval), 2.0)):
        try:
            lattice._lll(lattice._float_columns(cols))
        except InternalIdentityError:
            failing.append(i)
    assert failing[0] == 5 and len(failing) < 30
    with pytest.raises(InternalIdentityError) as info:
        siegel_average(LINE, [2.0], (0.9, 0.9), sampler)
    s = sampler.point(LINE.interval, 5)
    assert info.value.sample_index == 5
    assert str(info.value) == (f"sample (seed, index, s) = (5, 5, {s!r}): "
                               "LLL failed to terminate at desk scale")


def test_lambda1_step_limit_names_the_lowest_failing_sample(monkeypatch):
    # lambda1 reduces every lane of the stack, base and translated; the
    # lowest lane past the step limit is sample 5 at t = 2
    sampler = Sampler(seed=5, count=30)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 3)
    with pytest.raises(InternalIdentityError) as info:
        w_invariance_gap(LINE, [2.0], 1.0, lambda1(), sampler)
    s = sampler.point(LINE.interval, 5)
    assert info.value.sample_index == 5
    assert str(info.value) == (f"sample (seed, index, s) = (5, 5, {s!r}): "
                               "LLL failed to terminate at desk scale")
    stack = orbit_points(LINE, sampler.points(LINE.interval), 2.0, normalize=True)
    with pytest.raises(InternalIdentityError):
        lattice._lll(lattice._float_columns(stack[5]))
    for cols in stack[:5]:
        lattice._lll(lattice._float_columns(cols))


def test_wide_stack_reduction_failure_names_the_lowest_failing_sample(monkeypatch):
    # the n = 2 stack reduces on its first box count, inside the estimator's
    # naming scope; at this step limit samples 5, 7 and 10 fail to reduce
    plane = MatrixPolyCurve.from_coeffs([np.eye(2) * 0.25, np.eye(2) + 0.125], (1.0, 2.0))
    sampler = Sampler(seed=2, count=12)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 50)
    failing = []
    for i, cols in enumerate(orbit_points(plane, sampler.points(plane.interval), 6.0)):
        try:
            lattice._lll(lattice._float_columns(cols))
        except InternalIdentityError:
            failing.append(i)
    assert failing == [5, 7, 10]
    with pytest.raises(InternalIdentityError) as info:
        siegel_average(plane, [6.0], (0.9,) * 4, sampler)
    s = sampler.point(plane.interval, 5)
    assert info.value.sample_index == 5
    assert str(info.value) == (f"sample (seed, index, s) = (2, 5, {s!r}): "
                               "LLL failed to terminate at desk scale")


@pytest.mark.parametrize("n", [1, 2])
def test_lane_refused_by_the_lll_for_a_zero_norm_is_named(n, float_lll):
    # diag(1e300, 1e-300, 1, ...) passes the det check; its LLL swaps the
    # first two columns and then divides by the new first norm, (1e-300)^2
    # = 0, so `_lll` raises ZeroDivisionError at m = 2 and at m = 4 alike,
    # and the stack raises it for its lowest such lane, named
    m = 2 * n
    bad = np.diag([1e300, 1e-300] + [1.0] * (m - 2))
    with pytest.raises(ZeroDivisionError) as info:
        lattice._lll(lattice._float_columns(bad))
    alone = str(info.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no nan arithmetic on the way
        with pytest.raises(ZeroDivisionError) as info:
            lattice._checked_stack(np.array([np.eye(m), bad, np.eye(m), bad])).reduced()
    assert str(info.value) == alone and info.value.sample_index == 1
    # on that basepoint at t = 0 every sample fails: estimates name sample 0
    curve = MatrixPolyCurve.from_coeffs([np.eye(n) * 0.25, np.eye(n)], (1.0, 2.0))
    sampler = Sampler(seed=3, count=4)
    s = sampler.point(curve.interval, 0)
    for observable in (siegel_count((0.9,) * m), kmu_indicator(0.5)):
        with pytest.raises(ZeroDivisionError) as info:
            stats._orbit_stats(curve, [0.0], sampler, observable, basepoint=LatticeBasis(bad))
        assert info.value.sample_index == 0
        assert str(info.value) == f"sample (seed, index, s) = (3, 0, {s!r}): {alone}"


@st.composite
def profile_case(draw):
    """A curve at n = 1 or 2 whose derivative stays near 16 I on [1, 2], a
    flow-time list (repeats allowed), a sampler, the normalize flag, an
    optional basepoint and an optional u(r I) shift."""
    n = draw(st.integers(1, 2))
    coeffs = [[[float(draw(ENTRY)) / 8 ** k + 16.0 * (k == 1 and i == j) for j in range(n)]
               for i in range(n)] for k in range(3)]
    curve = MatrixPolyCurve.from_coeffs(coeffs, (1.0, 2.0))
    t_list = draw(st.lists(st.sampled_from([0.0, 1.5, 3.0]) | st.floats(0.0, 6.0),
                           min_size=1, max_size=4))
    sampler = Sampler(seed=draw(st.integers(0, 2 ** 32)), count=draw(st.integers(1, 10)))
    basepoint = None
    if draw(st.booleans()):
        shear = np.eye(2 * n)
        shear[0, -1] = float(draw(ENTRY))
        basepoint = LatticeBasis(shear[:, ::-1].copy())
    shift = None
    if draw(st.booleans()):
        shift = u_embed(float(draw(ENTRY)) * np.eye(n)).entries
    return curve, t_list, sampler, draw(st.booleans()), basepoint, shift


def per_t_stats(curve, t, sampler, evaluate, normalize, basepoint, shift):
    """(mean, stderr) at one flow time as the one-t kernel made them: one
    stack of the samples and another of their translates."""
    stack = orbit_points(curve, sampler.points(curve.interval), t, basepoint=basepoint,
                         normalize=normalize)
    blocks = [stack] + ([] if shift is None else [shift @ stack])
    return [reference_mean_stderr([evaluate(b) for b in LatticeBasis.batch(block)])
            for block in blocks]


def bits(values):
    return np.array(values, dtype=float).tobytes()


@SETTINGS
@given(profile_case())
def test_one_stack_equals_per_t_stacks_bit_for_bit(case):
    curve, t_list, sampler, normalize, basepoint, shift = case
    n = curve.n
    for obs in (siegel_count((0.9,) * (2 * n)), kmu_indicator(0.7), lambda1()):
        got = stats._orbit_stats(curve, t_list, sampler, obs, normalize=normalize,
                                 basepoint=basepoint, shift=shift)
        per_t = [per_t_stats(curve, t, sampler, obs.evaluate, normalize, basepoint, shift)
                 for t in t_list]
        want = [out[0] for out in per_t] + [out[1] for out in per_t if len(out) > 1]
        assert bits(got) == bits(want)
    box = (0.9,) * (2 * n)

    def records(estimate):
        whole = estimate(t_list)
        assert len(whole) == len(t_list)
        return whole, [rec for t in t_list for rec in estimate([t])]

    for whole, one_t in (
            records(lambda ts: siegel_average(curve, ts, box, sampler, basepoint=basepoint,
                                              normalize=normalize)),
            records(lambda ts: kmu_fraction(curve, ts, 0.7, sampler, normalize=normalize)),
            records(lambda ts: nondivergence_profile(curve, ts, 0.3, sampler)),
            records(lambda ts: w_invariance_gap(curve, ts, 1.5, kmu_indicator(0.7), sampler))):
        assert [repr(rec) for rec in whole] == [repr(rec) for rec in one_t]
    assert stats._orbit_stats(curve, [], sampler, lambda1()) == []
    assert siegel_average(curve, [], box, sampler) == []
    assert w_invariance_gap(curve, (), 1.5, lambda1(), sampler) == []


def test_failure_at_a_later_flow_time_names_the_sample(monkeypatch):
    # at this step limit every lattice reduces at t = 0, and at t = 2 samples
    # 5, 8, 16 and 27 fail; the lowest is lane M + 5 of the joined stack
    sampler = Sampler(seed=5, count=30)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 3)
    siegel_average(LINE, [0.0, 0.0], (0.9, 0.9), sampler)
    with pytest.raises(InternalIdentityError) as info:
        siegel_average(LINE, [0.0, 2.0], (0.9, 0.9), sampler)
    s = sampler.point(LINE.interval, 5)
    assert info.value.sample_index == 5
    assert str(info.value) == (f"sample (seed, index, s) = (5, 5, {s!r}): "
                               "LLL failed to terminate at desk scale")


def test_failure_in_the_translate_block_names_the_sample(monkeypatch):
    # at this step limit every normalized lattice reduces at t = 0 and 1.75,
    # and of their translates by u(2) only sample 12's at t = 1.75 fails:
    # lane 2 M + M + 12 of the stack of both flow times and their translates
    sampler = Sampler(seed=5, count=30)
    monkeypatch.setattr(lattice, "_MAX_LLL_STEPS", 3)
    kmu_fraction(LINE, [0.0, 1.75], 0.7, sampler, normalize=True)
    w_invariance_gap(LINE, [0.0], 2.0, kmu_indicator(0.7), sampler)
    with pytest.raises(InternalIdentityError) as info:
        w_invariance_gap(LINE, [0.0, 1.75], 2.0, kmu_indicator(0.7), sampler)
    s = sampler.point(LINE.interval, 12)
    assert info.value.sample_index == 12
    assert str(info.value) == (f"sample (seed, index, s) = (5, 12, {s!r}): "
                               "LLL failed to terminate at desk scale")


@st.composite
def flow_times_case(draw):
    """An `orbit_case` with a list of flow times (repeats and negative times
    included) in place of its one time, and its basepoint, if any, in
    floats or as the exact basis of the same dyadic entries."""
    curve, s, _, normalize, basepoint = draw(orbit_case())
    t_list = draw(st.lists(st.sampled_from([-1.5, 0.0, 2.0]) | st.floats(-8.0, 8.0),
                           min_size=1, max_size=5))
    if basepoint is not None and draw(st.booleans()):
        basepoint = LatticeBasis.from_rational(basepoint.cols)
    return curve, s, t_list, normalize, basepoint


@SETTINGS
@given(flow_times_case())
def test_orbit_points_of_a_flow_time_list_equal_the_joined_per_t_stacks(case):
    curve, s, t_list, normalize, basepoint = case
    orbit = dict(basepoint=basepoint, normalize=normalize)
    per_t = [orbit_points(curve, s, t, **orbit) for t in t_list]
    want = np.concatenate(per_t).tobytes()
    for times in (t_list, tuple(t_list), np.array(t_list)):
        stack = orbit_points(curve, s, times, **orbit)
        assert stack.shape == (len(t_list) * len(s), 2 * curve.n, 2 * curve.n)
        assert stack.tobytes() == want and not stack.flags.writeable
    assert orbit_points(curve, s, t_list[:1], **orbit).tobytes() == per_t[0].tobytes()


def first_error(calls):
    """The error the first failing call raises, as (type, text, sample_index)."""
    for call in calls:
        try:
            call()
        except (ValueError, InternalIdentityError) as exc:
            return type(exc), str(exc), getattr(exc, "sample_index", None)
    raise AssertionError("no call failed")


NAN = float("nan")
HUGE_LINE = MatrixPolyCurve.from_coeffs([[[0.0]], [[1e300]]], (0.0, 2.0))  # e^700 phi overflows


@pytest.mark.parametrize("curve, s, t_list, normalize, lane", [
    (LINE, [1.5, 5.0, 1.2], [2.0, NAN], False, 1),  # a domain failure, then a nan flow time
    (LINE, [1.5, 1.2], [2.0, 3.0, NAN], False, None),  # the nan flow time, after t_0, t_1
    (LINE, [1.5, 1.2], [NAN, 2.0], False, None),
    (LINE, [1.5, 1.2], [2.0, -800.0, NAN], False, None),
    (HUGE_LINE, [0.0, 1.5, 1.0], [0.0, 700.0, NAN], False, 4),  # a det failure at t_1 only
    (BENT, [1.8, 1.2, 1.75], [2.0, 3.0], True, 1),  # a normalizer failure
    (BENT, [1.75, 1.9, 1.5], [NAN, 3.0], True, None),
    (BENT, [1.75, 1.9, 1.5], [3.0, NAN], True, 2),
], ids=["domain-then-nan-t", "nan-t2", "nan-t0", "huge-t1", "det-at-t1", "orientation",
        "nan-t0-before-normalizer", "singular-then-nan-t"])
def test_flow_time_list_raises_the_error_of_the_per_t_loop(curve, s, t_list, normalize, lane):
    with np.errstate(over="ignore", invalid="ignore"):
        want = first_error([lambda t=t: orbit_points(curve, s, t, normalize=normalize)
                            for t in t_list])
        with pytest.raises((ValueError, InternalIdentityError)) as info:
            orbit_points(curve, s, t_list, normalize=normalize)
    got = info.value
    assert (type(got), str(got)) == want[:2]
    # the per-t loop names the sample; the stack names its lane k M + i
    assert getattr(got, "sample_index", None) == lane
    if lane is not None:
        assert lane % len(s) == want[2]


@pytest.mark.parametrize("curve, t_list, normalize", [
    (BENT, [2.0, NAN], True),  # orientation and singular samples, then a nan flow time
    (BENT, [NAN, 2.0], True),
    (HUGE_LINE, [0.0, 700.0, NAN], False),  # det failures at t_1 only
    (HUGE_LINE, [0.0, 1.0, -800.0], False),
], ids=["normalizer-then-nan-t", "nan-t0", "det-at-t1", "huge-t2"])
def test_estimator_names_the_sample_of_the_per_t_loop(curve, t_list, normalize):
    sampler = Sampler(seed=13, count=25)
    estimate = (lambda ts: kmu_fraction(curve, ts, 0.7, sampler, normalize=normalize))
    with np.errstate(over="ignore", invalid="ignore"):
        want = first_error([lambda t=t: estimate([t]) for t in t_list])
        with pytest.raises((ValueError, InternalIdentityError)) as info:
            estimate(t_list)
    got = info.value
    assert (type(got), str(got), getattr(got, "sample_index", None)) == want
    if want[2] is not None:
        s = sampler.point(curve.interval, want[2])
        assert str(got).startswith(f"sample (seed, index, s) = (13, {want[2]}, {s!r}): ")


@pytest.mark.parametrize("M", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
def test_block_mean_stderr_equals_the_reference_block_by_block(M):
    # numpy's pairwise sum changes path at 8 and 128 values
    rng = np.random.default_rng(M)
    for values in (rng.integers(0, 9, 3 * M).astype(float),  # box counts
                   (rng.random(3 * M) < 0.3).astype(float),  # indicators
                   rng.random(3 * M) * 0.9 + 0.1):  # shortest vectors
        got = stats._block_mean_stderr(values, M)
        want = [reference_mean_stderr(values[k:k + M]) for k in range(0, 3 * M, M)]
        assert bits(got) == bits(want)
