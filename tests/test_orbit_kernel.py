"""The batched orbit kernel against the one-sample matrix chain.

`orbit_points` must reproduce (a_diag(t) @ z_embed(normalizer(c, s)) @
u_embed(c.eval(s))).entries bit for bit, the estimators must hand the
observable exactly those bases, and a failing sample must raise its
one-sample error, named by (seed, index, s). Box counts and ball tests on a
stack read the reduction made once per lane for the whole stack; lambda1
and every unbatched basis reduce their own.
"""

import tracemalloc
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
from danilab.errors import (DomainError, InternalIdentityError, InvariantError,
                            OrientationError, SingularMatrixError)
from orbit_reference import reference_basis, reference_cols

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


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("kind", ("siegel_count", "kmu_indicator", "lambda1"))
def test_kernel_values_equal_observable_on_reference_basis(n, kind):
    observable = {"siegel_count": siegel_count((0.9,) * (2 * n)),
                  "kmu_indicator": kmu_indicator(0.7), "lambda1": lambda1()}[kind]
    curve = MatrixPolyCurve.from_coeffs([np.eye(n) * 0.25, np.eye(n) + 0.125], (1.0, 2.0))
    sampler = Sampler(seed=3, count=12)
    for normalize in (False, True):
        seen = []

        def record(basis):
            value = observable.evaluate(basis)
            seen.append((basis.cols.tobytes(), value))
            return value

        stats._orbit_stats(curve, [5.0], sampler, record, normalize=normalize)
        want = []
        for s in sampler.points(curve.interval):
            basis = reference_basis(curve, s, 5.0, normalize=normalize)
            want.append((basis.cols.tobytes(), observable.evaluate(basis)))
        assert seen == want


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
        assert reduction_bytes(*basis._stack.lane(basis._lane)) == reduction_bytes(b, (mu, norms))
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
        out = [stats._orbit_stats(LINE, [5.0], sampler, obs.evaluate, normalize=normalize)
               for obs in (siegel_count((0.9, 0.9)), kmu_indicator(0.7), lambda1())
               for normalize in (False, True)]
        out.append(w_invariance_gap(LINE, [5.0], 1.0, lambda1(), sampler)[0])
        out.append(nondivergence_profile(LINE, [2.0, 5.0], 0.3, sampler))
        return out

    want = estimates()
    calls = []
    scalar = lattice._lll
    monkeypatch.setattr(lattice, "_lll", lambda *args: calls.append(1) or scalar(*args))
    checked = []
    batch = LatticeBasis.batch
    monkeypatch.setattr(LatticeBasis, "batch",
                        lambda cols: checked.append(len(cols)) or batch(cols))
    assert estimates() == want
    # one det check per stack: the six plain runs, the w-invariance stack
    # with its translates, and the nondivergence stack of both flow times
    assert checked == [40] * 6 + [80, 80]
    # box counts, ball tests and nondivergence read the batched reduction;
    # lambda1 reduces each sample's own basis once: two raw-or-normalized
    # runs and the w-invariance stack with its translates, 40 samples each
    assert len(calls) == 4 * 40
    calls.clear()
    for obs in (siegel_count((0.9, 0.9)), kmu_indicator(0.7)):
        stats._orbit_stats(LINE, [5.0], sampler, obs.evaluate)
    nondivergence_profile(LINE, [2.0, 5.0], 0.3, sampler)
    assert calls == []


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

    monkeypatch.setattr(lattice, "_BallWalk", refuse)
    assert estimates() == want


def test_n1_stack_grid_memory_is_bounded():
    # 10^4 lanes at t = 8: the stack walk over the whole stack at once peaks
    # near 7.5 MB; in chunks of _STACK_LANES lanes the run stays near 4.4 MB.
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
    calls = {"_lll": 0, "_lll_integral": 0}
    for name in calls:
        def counted(*args, _fn=getattr(lattice, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(lattice, name, counted)
    plane = MatrixPolyCurve.from_coeffs([np.eye(2) * 0.25, np.eye(2) + 0.125], (1.0, 2.0))
    stats._orbit_stats(plane, [3.0], Sampler(seed=3, count=6), lambda1().evaluate)
    assert calls == {"_lll": 6, "_lll_integral": 0}
    cell = correspondence_basis(DirichletQuery(phi=np.array([[Fraction(1, 2)]], dtype=object),
                                               N=4, mu=Fraction(1, 2)))
    in_kmu(cell, Fraction(1, 2))
    count_in_box(cell, [Fraction(1, 2)] * 2)
    assert calls == {"_lll": 6, "_lll_integral": 2}
    count_in_box(LatticeBasis(np.array([[1.0, 0.3], [0.0, 1.0]])), [0.9, 0.9])
    assert calls["_lll"] == 7
    (batched,) = LatticeBasis.batch(np.array([[[1.0, 0.3], [0.0, 1.0]]]))
    count_in_box(batched, [0.9, 0.9])
    assert calls["_lll"] == 7
    reduce(batched)  # the public reduction stays the scalar one
    assert calls["_lll"] == 8


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
    return [stats._mean_stderr(np.array([evaluate(b) for b in LatticeBasis.batch(block)]))
            for block in blocks]


def bits(values):
    return np.array(values, dtype=float).tobytes()


@SETTINGS
@given(profile_case())
def test_one_stack_equals_per_t_stacks_bit_for_bit(case):
    curve, t_list, sampler, normalize, basepoint, shift = case
    n = curve.n
    for obs in (siegel_count((0.9,) * (2 * n)), kmu_indicator(0.7), lambda1()):
        got = stats._orbit_stats(curve, t_list, sampler, obs.evaluate, normalize=normalize,
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
    assert stats._orbit_stats(curve, [], sampler, lambda1().evaluate) == []
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
