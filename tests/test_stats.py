import numpy as np
import pytest

from danilab import (LatticeBasis, MatrixPolyCurve, Observable, Sampler, kmu_fraction,
                     kmu_indicator, lambda1, nondivergence_profile, siegel_average,
                     siegel_count, u_embed, w_invariance_gap)
from danilab.errors import DomainError
from orbit_reference import reference_basis, reference_cols, reference_mean_stderr


def line_curve(n=1):
    return MatrixPolyCurve.from_coeffs([np.zeros((n, n)), np.eye(n)], (0.0, 1.0))


def flat_curve():
    return MatrixPolyCurve.from_coeffs([[[0.0]]], (0.0, 1.0))


def test_observable_validation_and_names():
    assert siegel_count((0.9, 0.9)).name == "siegel_count[0.9,0.9]"
    assert kmu_indicator(0.7).name == "kmu_indicator[0.7]"
    assert lambda1().name == "lambda1"
    assert Observable(kind="lambda1_below", eps=0.05).name == "lambda1_below[0.05]"
    with pytest.raises(DomainError):
        Observable(kind="volume")
    with pytest.raises(DomainError):
        Observable(kind="siegel_count")
    with pytest.raises(DomainError):
        Observable(kind="kmu_indicator")
    for bad in (dict(kind="kmu_indicator", mu=1.0), dict(kind="kmu_indicator", mu=0.0),
                dict(kind="lambda1", mu=0.5), dict(kind="lambda1", box=(1.0, 1.0)),
                dict(kind="siegel_count", box=(1.0, 1.0), mu=0.5),
                dict(kind="kmu_indicator", mu=0.5, box=(1.0, 1.0)),
                dict(kind="lambda1_below"), dict(kind="lambda1_below", eps=0.0),
                dict(kind="lambda1_below", eps=float("nan")), dict(kind="lambda1", eps=0.5),
                dict(kind="lambda1_below", eps=0.5, mu=0.5)):
        with pytest.raises(DomainError):
            Observable(**bad)


def test_siegel_average_on_fixed_lattice():
    rec = siegel_average(flat_curve(), [0.0], (1.0, 1.0), Sampler(seed=1, count=50))[0]
    assert rec.mean == 8.0 and rec.stderr == 0.0
    assert rec.op == "siegel_average" and rec.M == 50 and rec.seed == 1
    assert rec.payload()["module"] == "stats"


def test_siegel_average_small_box_sees_nothing():
    rec = siegel_average(line_curve(), [0.0], (0.9, 0.9), Sampler(seed=5, count=40))[0]
    assert rec.mean == 0.0 and rec.stderr == 0.0


def test_siegel_average_matches_per_sample_loop():
    curve = MatrixPolyCurve.from_coeffs([[[0.0]], [[0.75]], [["1/8"]]], (1.0, 2.0))
    sampler = Sampler(seed=9, count=200)
    obs = siegel_count((1.5, 1.5))
    for normalize in (False, True):
        rec = siegel_average(curve, [2.0], (1.5, 1.5), sampler, normalize=normalize)[0]
        values = [obs.evaluate(reference_basis(curve, s, 2.0, normalize=normalize))
                  for s in sampler.points(curve.interval)]
        assert (rec.mean, rec.stderr) == reference_mean_stderr(values)


def test_stderr_scales_with_sample_count():
    curve = line_curve()
    small = siegel_average(curve, [2.0], (1.5, 1.5), Sampler(seed=3, count=100))[0]
    big = siegel_average(curve, [2.0], (1.5, 1.5), Sampler(seed=3, count=1600))[0]
    assert small.stderr > 0
    ratio = small.stderr / big.stderr
    assert 2.5 < ratio < 6.5  # 1/sqrt(M) predicts 4


def test_kmu_fraction_certain_at_t_zero():
    rec = kmu_fraction(line_curve(), [0.0], 0.9, Sampler(seed=2, count=60))[0]
    assert rec.mean == 1.0 and rec.stderr == 0.0
    assert rec.observable == "kmu_indicator[0.9]"


def test_kmu_fraction_monotone_in_mu():
    curve = line_curve()
    sampler = Sampler(seed=11, count=300)
    fr = [kmu_fraction(curve, [1.0], mu, sampler)[0].mean for mu in (0.2, 0.5, 0.8)]
    assert fr[0] >= fr[1] >= fr[2]


def test_nondivergence_profile_shapes_and_monotonicity():
    curve = line_curve()
    sampler = Sampler(seed=7, count=300)
    recs = nondivergence_profile(curve, [1.0, 3.0], 0.3, sampler)
    assert [r.t for r in recs] == [1.0, 3.0]
    assert all(r.op == "nondivergence_profile" for r in recs)
    assert recs[0].observable == "lambda1_below[0.3]"
    # larger escape threshold can only flag more samples, pointwise
    loose = nondivergence_profile(curve, [3.0], 0.6, sampler)[0]
    assert loose.mean >= recs[1].mean
    with pytest.raises(DomainError):
        nondivergence_profile(curve, [1.0], 0.0, sampler)


def test_nondivergence_constant_curve_is_deterministic():
    recs = nondivergence_profile(flat_curve(), [4.0], 0.05, Sampler(seed=1, count=30))
    assert recs[0].mean == 1.0 and recs[0].stderr == 0.0


def test_w_invariance_gap_zero_shift():
    out = w_invariance_gap(line_curve(), [1.0], 0.0, kmu_indicator(0.7),
                           Sampler(seed=4, count=120))[0]
    assert out["gap"] == 0.0
    assert out["mean_base"] == out["mean_translated"]
    assert {"op", "t", "r", "observable", "gap", "stderr_base", "M", "seed"} <= set(out)


def test_w_invariance_gap_matches_per_sample_loop():
    curve = line_curve(2)
    sampler = Sampler(seed=21, count=150)
    obs = kmu_indicator(0.7)
    out = w_invariance_gap(curve, [2.0], 1.0, obs, sampler)[0]
    shift = u_embed(np.eye(2)).entries
    base, translated = [], []
    for s in sampler.points(curve.interval):
        cols = reference_cols(curve, s, 2.0, normalize=True)
        base.append(obs.evaluate(LatticeBasis(cols)))
        translated.append(obs.evaluate(LatticeBasis(shift @ cols)))
    assert (out["mean_base"], out["stderr_base"]) == reference_mean_stderr(base)
    assert (out["mean_translated"], out["stderr_translated"]) == reference_mean_stderr(translated)

