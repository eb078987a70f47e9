"""The stacked representation images and verifiers against their
entry-by-entry and one-draw forms.

`rep_image` must reproduce the per-minor / per-entry reference bit for bit
(float) or entry for entry, types included (exact); a verifier called on a
(k, dim) stack must return exactly the k one-row results, and a failing row
must raise its one-row error, named by `draw_index`.
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
from danilab.errors import HypothesisViolationError
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
    counts = {"verify_q0_transport": 0, "verify_qplus_nonvanish": 0}
    for name in counts:
        original = getattr(reptheory, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(reptheory, name, counted)
    cfg = rep_verify_config(tmp_path)
    records = run(parse_config(json.dumps(cfg)))
    blocks = len(cfg["parameters"]["r_list"])
    assert counts["verify_qplus_nonvanish"] == blocks
    assert counts["verify_q0_transport"] == sum(
        rec["payload"]["dim_constrained"] > 0 for rec in records) > 0


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
    cfg = rep_verify_config(tmp_path, rep)
    payloads = [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))]
    images = []
    original = reptheory.rep_image

    def counted(rep, g):
        a = g.entries
        n = a.shape[0] // 2
        unipotent = np.array_equal(a[:n, :n], np.eye(n)) and not a[n:, :n].any()
        images.append(unipotent)
        return original(rep, g)

    monkeypatch.setattr(reptheory, "rep_image", counted)
    # the verifiers' own call forms build their own images: same payloads
    for name in ("constrained_subspace", "verify_q0_transport", "verify_qplus_nonvanish"):
        own = getattr(reptheory, name)
        monkeypatch.setattr(reptheory, name, lambda *args, image, _own=own: _own(*args))
    assert [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))] == payloads
    blocks = len(cfg["parameters"]["r_list"])
    constrained = sum(p["dim_constrained"] > 0 for p in payloads)
    assert images.count(True) >= 3 * blocks
    images.clear()
    monkeypatch.undo()
    monkeypatch.setattr(reptheory, "rep_image", counted)
    assert [rec["payload"] for rec in run(parse_config(json.dumps(cfg)))] == payloads
    # one rho(u(r phi)) per block; rho(E_phi) once per block with a constrained basis
    assert images.count(True) == blocks
    assert images.count(False) == constrained


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
