"""Counter-based random numbers for reproducible Monte Carlo.

Each variate is a pure function of (seed, index): two rounds of the
SplitMix64 finalizer over the mixed pair. No stream state exists, so any
partition of the index range across workers yields bit-identical values,
and sample i can be regenerated in isolation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x):
    """SplitMix64 finalizer of a Python int, or elementwise of a uint64 array
    (whose arithmetic wraps modulo 2^64 like the masked int arithmetic)."""
    if isinstance(x, np.ndarray):
        z = x + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_bits(seed: int, index: int) -> int:
    """64 pseudo-random bits keyed by (seed, index)."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ ((index & _MASK64) * _GOLDEN & _MASK64))


def counter_uniform(seed: int, index: int) -> float:
    """Uniform variate in [0, 1) keyed by (seed, index), 53-bit resolution."""
    return (counter_bits(seed, index) >> 11) * 2.0 ** -53


def counter_uniforms(seed: int, index) -> np.ndarray:
    """counter_uniform(seed, i) for every i of an integer array, bit for bit
    (uint64 arithmetic wraps like the masked int arithmetic)."""
    index = np.asarray(index).astype(np.uint64)
    key = np.uint64(_splitmix64(seed & _MASK64))
    bits = _splitmix64(key ^ (index * np.uint64(_GOLDEN)))
    return (bits >> np.uint64(11)).astype(float) * 2.0 ** -53


SCHEMES = ("uniform_iid", "stratified_grid")


@dataclass(frozen=True)
class Sampler:
    """Deterministic sample-point generator over an interval.

    uniform_iid draws i.i.d. uniform points; stratified_grid jitters one
    point inside each of `count` equal strata. Identical (seed, count,
    scheme) always reproduce the identical sequence.
    """

    seed: int
    count: int
    scheme: str = "uniform_iid"

    def __post_init__(self):
        if self.count < 1:
            raise DomainError("sampler count must be >= 1")
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown sampling scheme {self.scheme!r}, expected one of {SCHEMES}")

    def point(self, interval, index: int) -> float:
        a, b = float(interval[0]), float(interval[1])
        u = counter_uniform(self.seed, index)
        if self.scheme == "stratified_grid":
            return a + (b - a) * (index + u) / self.count
        return a + (b - a) * u

    def points(self, interval) -> np.ndarray:
        """point(interval, i) for i < count, computed over the whole index array."""
        a, b = float(interval[0]), float(interval[1])
        index = np.arange(self.count)
        u = counter_uniforms(self.seed, index)
        if self.scheme == "stratified_grid":
            return a + (b - a) * (index + u) / self.count
        return a + (b - a) * u
