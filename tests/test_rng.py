import numpy as np
import pytest

from danilab import Sampler, counter_bits, counter_uniform, counter_uniforms
from danilab.errors import DomainError


def test_counter_uniform_deterministic():
    a = [counter_uniform(42, i) for i in range(100)]
    b = [counter_uniform(42, i) for i in range(100)]
    assert a == b


def test_counter_uniform_range_and_spread():
    vals = np.array([counter_uniform(7, i) for i in range(4000)])
    assert np.all(vals >= 0) and np.all(vals < 1)
    # crude uniformity: mean near 1/2, no collisions expected at 53 bits
    assert abs(vals.mean() - 0.5) < 0.03
    assert len(set(vals)) == len(vals)


def test_different_seeds_differ():
    assert counter_bits(1, 0) != counter_bits(2, 0)
    assert counter_bits(1, 5) != counter_bits(1, 6)


def test_sampler_points_match_single_point():
    smp = Sampler(seed=3, count=16, scheme="uniform_iid")
    pts = smp.points((1.0, 2.0))
    assert pts.shape == (16,)
    assert all(pts[i] == smp.point((1.0, 2.0), i) for i in range(16))
    assert np.all((pts >= 1.0) & (pts <= 2.0))


def test_stratified_grid_one_point_per_stratum():
    smp = Sampler(seed=9, count=10, scheme="stratified_grid")
    pts = smp.points((0.0, 1.0))
    for i, p in enumerate(pts):
        assert i / 10 <= p < (i + 1) / 10


def test_sampler_validation():
    with pytest.raises(DomainError):
        Sampler(seed=0, count=0)
    with pytest.raises(DomainError):
        Sampler(seed=0, count=1, scheme="sobol")


@pytest.mark.parametrize("scheme", ["uniform_iid", "stratified_grid"])
@pytest.mark.parametrize("seed", [0, 3, -5, 2 ** 64 + 3, 2 ** 70 - 1])
def test_vectorised_points_equal_point_bit_for_bit(scheme, seed):
    smp = Sampler(seed=seed, count=301, scheme=scheme)
    for interval in ((0.0, 1.0), (1, 2), (-3.5, 2.25)):
        pts = smp.points(interval)
        assert [float(p) for p in pts] == [smp.point(interval, i) for i in range(301)]


@pytest.mark.parametrize("seed", [0, 2024, -5, 2 ** 64 + 3, 2 ** 70 - 1])
def test_counter_uniforms_equal_counter_uniform_bit_for_bit(seed):
    index = np.arange(600).reshape(20, 30) * 7 + 11
    got = counter_uniforms(seed, index)
    assert got.shape == index.shape
    assert got.tolist() == [[counter_uniform(seed, int(i)) for i in row] for row in index]
