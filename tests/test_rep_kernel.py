"""The stacked representation images and verifiers against their
entry-by-entry and one-draw forms.

`rep_image` must reproduce the per-minor / per-entry reference bit for bit
(float) or entry for entry, types included (exact); a verifier called on a
(k, dim) stack must return exactly the k one-row results, and a failing row
must raise its one-row error, named by `draw_index`. An r list run as one
stack must give exactly the per-r images, bases, draws and results, and
raise the error of its lowest failing r, named by `r_index`.
"""

import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from danilab import (a_diag, a_scale, adjoint, constrained_subspace, exterior,
                     lie_image, rep_image, reptheory, sl2_copy, sl2_image, u_embed,
                     upper_block, verify_q0_transport, verify_qplus_nonvanish,
                     weight_split)
from danilab import _linalg
from danilab import cli
from danilab.cli import parse_config, run
from danilab.errors import DomainError, HypothesisViolationError, InvariantError
from rep_reference import (reference_lie_adjoint, reference_random_combination,
                           reference_random_minus_vector, reference_rep_image)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
ENTRY = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def reps(n):
    return [adjoint(n)] + [exterior(n, k) for k in range(1, 2 * n + 1)]


def matrix(draw, rows, cols, exact):
    out = np.empty((rows, cols), dtype=object if exact else float)
    for i in range(rows):
        for j in range(cols):
            x = draw(ENTRY)
            out[i, j] = x if exact else float(x)
    return out


@st.composite
def rep_case(draw):
    """A representation (n = 1..3, every kind) and g in exact or float mode:
    a random matrix scaled to det 1 (float) or a product of unipotents
    (exact), or an output of u_embed, a_diag / a_scale or sl2_image."""
    n = draw(st.integers(1, 3))
    rep = (adjoint(n) if draw(st.booleans())
           else exterior(n, draw(st.integers(1, 2 * n))))
    exact = draw(st.booleans())
    source = draw(st.sampled_from(("random", "u_embed", "a_diag", "sl2_image")))
    m = 2 * n
    if source == "random" and exact:
        g = (u_embed(matrix(draw, n, n, True)) @ u_embed(matrix(draw, n, n, True), side="lower")
             @ u_embed(matrix(draw, n, n, True))).entries
    elif source == "random":
        g = matrix(draw, m, m, False) + 16.0 * np.eye(m)  # diagonally dominant
        g[0] /= np.linalg.det(g)
    elif source == "u_embed":
        g = u_embed(matrix(draw, n, n, exact), side=draw(st.sampled_from(("upper", "lower"))))
    elif source == "a_diag":
        x = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6))
        g = a_scale(x, n) if exact else a_diag(float(draw(ENTRY)), n)
    else:
        phi = matrix(draw, n, n, exact) + (Fraction(8) if exact else 8.0) * _linalg.eye(n, exact)
        x = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6))
        b = draw(ENTRY)
        mat = np.array([[x, b], [Fraction(0), 1 / x]], dtype=object)
        g = sl2_image(sl2_copy(phi), mat if exact else mat.astype(float))
    return rep, g, exact


def assert_same_image(got, want, exact):
    assert got.dtype == want.dtype and got.shape == want.shape
    if exact:
        assert [(type(x), x) for x in got.ravel()] == [(type(x), x) for x in want.ravel()]
    else:
        assert got.tobytes() == want.tobytes()


@SETTINGS
@given(rep_case())
def test_rep_image_equals_reference_entry_by_entry(case):
    rep, g, exact = case
    assert_same_image(rep_image(rep, g), reference_rep_image(rep, g), exact)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("exact", [False, True])
def test_adjoint_lie_image_equals_reference(n, exact):
    rng = np.random.default_rng(n)
    for _ in range(3):
        phi = np.array([[Fraction(int(x), 5) for x in row]
                        for row in rng.integers(-9, 10, (n, n))], dtype=object)
        x = upper_block(n, phi if exact else phi.astype(float))
        x[n:, :n] = phi.T if exact else phi.T.astype(float)
        assert_same_image(lie_image(adjoint(n), x), reference_lie_adjoint(adjoint(n), x), exact)


def test_weight_split_is_computed_once_per_representation():
    rep = adjoint(2)
    assert weight_split(rep) is weight_split(rep)
    assert weight_split(adjoint(2)) == weight_split(rep)


def test_project_on_a_stack_projects_each_row():
    rng = np.random.default_rng(4)
    decomp = weight_split(exterior(2, 2))
    vs = rng.standard_normal((5, 6))
    for part in ("plus", "zero", "minus"):
        stacked = reptheory.project(decomp, part, vs)
        assert stacked.tobytes() == np.array(
            [reptheory.project(decomp, part, v) for v in vs]).tobytes()


STACK_REPS = [adjoint(1), adjoint(2), exterior(1, 1), exterior(2, 1), exterior(2, 2),
              exterior(2, 3)]


def transport_draws(rep, copy, r, rng, k):
    basis = constrained_subspace(rep, copy, r)
    if not basis:
        return None
    return np.array([sum(rng.uniform(-1, 1) * b for b in basis) for _ in range(k)])


def contracting_draws(rep, rng, k):
    vs = np.zeros((k, rep.dim))
    vs[:, list(weight_split(rep).minus_idx)] = rng.uniform(-1, 1, (k, len(
        weight_split(rep).minus_idx)))
    return vs


@pytest.mark.parametrize("rep", STACK_REPS, ids=lambda rep: f"{rep.kind}{rep.n}{rep.k}")
def test_stacked_verifiers_equal_one_row_calls(rep):
    rng = np.random.default_rng(rep.dim)
    for r in (1.0, -0.5, 2.0):
        copy = sl2_copy(rng.uniform(-1, 1, (rep.n, rep.n)) + 2.0 * np.eye(rep.n))
        vs = transport_draws(rep, copy, r, rng, 7)
        if vs is not None:
            stacked = verify_q0_transport(rep, copy, r, vs)
            rows = [verify_q0_transport(rep, copy, r, v) for v in vs]
            assert all(type(x) is float for x in rows)
            assert stacked.dtype == np.float64 and stacked.tobytes() == np.array(rows).tobytes()
        vs = contracting_draws(rep, rng, 7)
        stacked = verify_qplus_nonvanish(rep, copy, r, vs)
        rows = [verify_qplus_nonvanish(rep, copy, r, v) for v in vs]
        assert all(type(x) is float for x in rows)
        assert stacked.dtype == np.float64 and stacked.tobytes() == np.array(rows).tobytes()


R_LISTS = {"signs": [1.0, -1.0, 0.5, -0.5], "magnitudes": [3.0, -1e-3, 250.0, -7.5, 0.125]}


@pytest.mark.parametrize("r_list", R_LISTS.values(), ids=R_LISTS.keys())
@pytest.mark.parametrize("rep", STACK_REPS, ids=lambda rep: f"{rep.kind}{rep.n}{rep.k}")
def test_r_stack_equals_the_per_r_calls(rep, r_list):
    """Images, constrained bases, padded draws and verifier outputs of an r
    list equal those of its r one at a time, bit for bit; the odd exterior
    powers here have an empty constrained basis at every r."""
    rng = np.random.default_rng(rep.dim + len(r_list))
    copy = sl2_copy(rng.uniform(-1, 1, (rep.n, rep.n)) + 2.0 * np.eye(rep.n))
    images = reptheory.unipotent_image(rep, copy, r_list)
    bases = constrained_subspace(rep, copy, r_list, image=images)
    assert images.shape == (len(r_list), rep.dim, rep.dim) and len(bases) == len(r_list)
    for b, r in enumerate(r_list):
        assert images[b].tobytes() == reptheory.unipotent_image(rep, copy, r).tobytes()
        basis = constrained_subspace(rep, copy, r)
        assert len(bases[b]) == len(basis)
        assert np.array(bases[b]).tobytes() == np.array(basis).tobytes()
    assert any(bases) == (rep.kind == "adjoint" or rep.k == 2)

    seed, draws = 31, 6
    base = 2 * draws * rep.dim * np.arange(len(r_list))
    spanned = [b for b, basis in enumerate(bases) if basis]
    if spanned:
        # families of different lengths, padded with zero vectors
        families = [bases[b][:max(1, len(bases[b]) - row)] for row, b in enumerate(spanned)]
        padded = np.zeros((len(spanned), max(map(len, families)), rep.dim))
        for row, family in enumerate(families):
            padded[row, :len(family)] = family
        vs = cli._random_combinations(padded, seed, base[spanned], draws, rep.dim)
        resid = verify_q0_transport(rep, copy, [r_list[b] for b in spanned], vs,
                                    image=images[spanned])
        assert resid.shape == (len(spanned), draws)
        for row, (b, family) in enumerate(zip(spanned, families)):
            one = cli._random_combinations(family, seed, base[b], draws, rep.dim)
            assert vs[row].tobytes() == one.tobytes()
            assert resid[row].tobytes() == verify_q0_transport(rep, copy, r_list[b],
                                                               one).tobytes()
    minus = np.eye(rep.dim)[list(weight_split(rep).minus_idx)]
    vs = cli._random_combinations(minus, seed, base + draws * rep.dim, draws, rep.dim)
    norms = verify_qplus_nonvanish(rep, copy, r_list, vs, image=images)
    assert norms.shape == (len(r_list), draws)
    for b, r in enumerate(r_list):
        one = cli._random_combinations(minus, seed, base[b] + draws * rep.dim, draws, rep.dim)
        assert vs[b].tobytes() == one.tobytes()
        assert norms[b].tobytes() == verify_qplus_nonvanish(rep, copy, r, one).tobytes()


def assert_raises_as_block(verifier, rep, copy, r_list, vs, r_index, draw_index):
    """The stacked call raises the error of block r_index on its own, named
    by r_index and the draw_index the block's own call gives it."""
    with pytest.raises(HypothesisViolationError) as one:
        verifier(rep, copy, r_list[r_index], vs[r_index])
    with pytest.raises(HypothesisViolationError) as info:
        verifier(rep, copy, r_list, vs)
    assert (one.value.r_index, one.value.draw_index) == (0, draw_index)
    assert (info.value.r_index, info.value.draw_index) == (r_index, draw_index)
    assert str(info.value) == str(one.value) and info.value.residual == one.value.residual


def test_r_stack_raises_for_the_lowest_failing_r():
    rep, r_list = adjoint(2), [1.0, -0.5, 2.0]
    copy = sl2_copy(np.array([[1.0, 0.5], [0.0, 1.5]]))
    rng = np.random.default_rng(8)
    plus = weight_split(rep).plus_idx[0]
    vs = np.array([transport_draws(rep, copy, r, rng, 6) for r in r_list])
    # a lower draw of a higher r fails too; the lower r comes first
    vs[2, 0, plus] = 0.5
    vs[1, 4, plus] = 0.5
    assert_raises_as_block(verify_q0_transport, rep, copy, r_list, vs, 1, 4)
    vs = np.array([contracting_draws(rep, rng, 6) for _ in r_list])
    vs[2, 0, plus] = 0.25
    vs[1, 4] = 0.0
    assert_raises_as_block(verify_qplus_nonvanish, rep, copy, r_list, vs, 1, 4)


def test_r_stack_checks_every_r():
    rep = exterior(1, 1)
    # u(r phi) has an infinite entry at |r| = 1e10: det is nan there
    copy = sl2_copy(np.array([[1e300]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvariantError) as one:
            u_embed(copy.phi * 1e10)
        for r_list in ([1.0, 1e10, -1e10], [1.0, -1e10]):
            with pytest.raises(InvariantError) as info:
                reptheory.unipotent_image(rep, copy, r_list)
            assert info.value.r_index == 1 and str(info.value) == str(one.value)
    copy = sl2_copy(np.eye(1))
    vs = np.zeros((3, 2, rep.dim))
    vs[..., 1] = 1.0
    for call in (lambda r: constrained_subspace(rep, copy, r),
                 lambda r: verify_qplus_nonvanish(rep, copy, r, vs)):
        with pytest.raises(DomainError, match="r must be nonzero") as info:
            call([1.0, 0.0, -0.0])
        assert info.value.r_index == 1


def assert_raises_as_row(verifier, args, vs, index):
    with pytest.raises(HypothesisViolationError) as one:
        verifier(*args, vs[index])
    with pytest.raises(HypothesisViolationError) as info:
        verifier(*args, vs)
    assert info.value.draw_index == index
    assert str(info.value) == str(one.value) and info.value.residual == one.value.residual


def test_q0_transport_stack_names_the_first_failing_draw():
    rep, r = adjoint(2), 1.0
    copy = sl2_copy(np.array([[1.0, 0.5], [0.0, 1.5]]))
    vs = transport_draws(rep, copy, r, np.random.default_rng(8), 6)
    expanding = vs.copy()
    expanding[3, weight_split(rep).plus_idx[0]] = 0.5
    assert_raises_as_row(verify_q0_transport, (rep, copy, r), expanding, 3)
    # row 2 lies in V0 + V- but is pushed out by the unipotent; it comes first
    pushed = expanding.copy()
    pushed[2] = 0.0
    pushed[2, weight_split(rep).minus_idx[0]] = 1.0
    assert_raises_as_row(verify_q0_transport, (rep, copy, r), pushed, 2)


def test_qplus_stack_names_the_first_failing_draw():
    rep, r = exterior(2, 2), -0.5
    copy = sl2_copy(np.diag([2.0, 3.0]))
    vs = contracting_draws(rep, np.random.default_rng(9), 6)
    expanding = vs.copy()
    expanding[3, weight_split(rep).plus_idx[0]] = 0.25
    assert_raises_as_row(verify_qplus_nonvanish, (rep, copy, r), expanding, 3)
    zero = expanding.copy()
    zero[1] = 0.0
    assert_raises_as_row(verify_qplus_nonvanish, (rep, copy, r), zero, 1)


def test_verifiers_build_their_images_once_per_call(monkeypatch):
    calls = []
    original = reptheory.rep_image
    monkeypatch.setattr(reptheory, "rep_image",
                        lambda rep, g: calls.append(rep) or original(rep, g))
    rep, copy, r = adjoint(2), sl2_copy(np.eye(2)), 1.0
    vs = transport_draws(rep, copy, r, np.random.default_rng(1), 10)
    calls.clear()
    verify_q0_transport(rep, copy, r, vs)
    assert len(calls) == 2
    calls.clear()
    verify_qplus_nonvanish(rep, copy, r, contracting_draws(rep, np.random.default_rng(2), 10))
    assert len(calls) == 1


def test_rep_verify_calls_each_verifier_once_per_r_block(monkeypatch, tmp_path):
    """Each r block goes through each verifier once, in one call per config:
    every r to the nonvanishing check, the r with a constrained basis to the
    transport check."""
    calls = {"verify_q0_transport": [], "verify_qplus_nonvanish": []}
    for name in calls:
        original = getattr(reptheory, name)

        def counted(rep, copy, r, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(list(r))
            return _original(rep, copy, r, *args, **kwargs)
        monkeypatch.setattr(reptheory, name, counted)
    cfg = rep_verify_config(tmp_path)
    payloads = [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))]
    r_list = [float(r) for r in cfg["parameters"]["r_list"]]
    constrained = [p["r"] for p in payloads if p["dim_constrained"] > 0]
    assert calls["verify_qplus_nonvanish"] == [r_list]
    assert constrained and calls["verify_q0_transport"] == [constrained]


def rep_verify_config(tmp_path, rep=None):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "rep-verify.json")
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["output"] = str(tmp_path / "rep")
    if rep is not None:
        cfg["parameters"]["rep"] = rep
    return cfg


@pytest.mark.parametrize("rep", [None, {"kind": "exterior", "k": 1}])
def test_rep_verify_builds_one_unipotent_image_per_r_block(monkeypatch, tmp_path, rep):
    """One rho(u(r phi)) per r block, all in one image stack per config, and
    rho(E_phi) once per config when some block has a constrained basis."""
    cfg = rep_verify_config(tmp_path, rep)
    payloads = [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))]
    images = []
    original = reptheory.rep_image

    def counted(rep, g):
        a = reptheory._entries_of(g)
        a = a.reshape((-1,) + a.shape[-2:])
        n = a.shape[-1] // 2
        unipotent = all(np.array_equal(x[:n, :n], np.eye(n)) and not x[n:, :n].any()
                        for x in a)
        images.append((unipotent, len(a)))
        return original(rep, g)

    monkeypatch.setattr(reptheory, "rep_image", counted)
    # the verifiers' own call forms build their own image stacks: same payloads
    for name in ("constrained_subspace", "verify_q0_transport", "verify_qplus_nonvanish"):
        own = getattr(reptheory, name)
        monkeypatch.setattr(reptheory, name, lambda *args, image, _own=own: _own(*args))
    assert [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))] == payloads
    blocks = len(cfg["parameters"]["r_list"])
    constrained = sum(p["dim_constrained"] > 0 for p in payloads)
    transport = [(True, constrained), (False, 1)] if constrained else []
    # the runner's stack, then those of constrained_subspace and the verifiers
    assert images == [(True, blocks)] * 2 + transport + [(True, blocks)]
    images.clear()
    monkeypatch.undo()
    monkeypatch.setattr(reptheory, "rep_image", counted)
    assert [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))] == payloads
    # one stack of the blocks' rho(u(r phi)); one rho(E_phi) if a block is constrained
    assert [(True, blocks)] + [(False, 1)] * (constrained > 0) == images


@pytest.mark.parametrize("transport_r, nonvanish_r, raised", [
    (2, 1, "outside the contracting part"), (1, 1, "v has expanding component"),
    (1, 2, "v has expanding component")])
def test_rep_verify_raises_for_the_lowest_failing_r_transport_first(
        monkeypatch, tmp_path, transport_r, nonvanish_r, raised):
    """With every r of the config run as one stack, the error raised is the
    one the r run one at a time would raise: the lowest failing r, its
    transport checks before its nonvanishing ones."""
    cfg = rep_verify_config(tmp_path)
    plus = weight_split(adjoint(1)).plus_idx[0]
    original = cli._random_combinations

    def corrupted(basis, *args):
        out = original(basis, *args)
        # the transport bases come as one padded stack; every block has one here
        out[transport_r if np.ndim(basis) == 3 else nonvanish_r, 3, plus] = 0.5
        return out

    monkeypatch.setattr(cli, "_random_combinations", corrupted)
    with pytest.raises(HypothesisViolationError, match=raised) as info:
        run(parse_config(json.dumps(cfg)))
    assert (info.value.r_index, info.value.draw_index) == (min(transport_r, nonvanish_r), 3)


@pytest.mark.parametrize("rep", STACK_REPS, ids=lambda rep: f"{rep.kind}{rep.n}{rep.k}")
def test_stacked_draws_equal_one_draw_reference(rep):
    seed, draws, base = 2024, 9, 3 * rep.dim
    decomp = weight_split(rep)
    # the contracting draws are combinations of the unit vectors of V-
    got = cli._random_combinations(np.eye(rep.dim)[list(decomp.minus_idx)], seed, base,
                                   draws, rep.dim)
    want = [reference_random_minus_vector(decomp, rep.dim, seed, base + j * rep.dim)
            for j in range(draws)]
    assert got.tobytes() == np.array(want).tobytes()
    basis = constrained_subspace(rep, sl2_copy(np.eye(rep.n)), 1.0)
    # a basis scaled below the 1e-9 cut-off falls back to its first vector
    for vecs in ([b for b in basis], [1e-12 * b for b in basis]):
        if not vecs:
            continue
        got = cli._random_combinations(vecs, seed, base, draws, rep.dim)
        want = [reference_random_combination(vecs, seed, base + j * rep.dim)
                for j in range(draws)]
        assert got.tobytes() == np.array(want).tobytes()
