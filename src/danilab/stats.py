"""Monte Carlo statistics along curve orbits of the diagonal flow.

Every estimator draws curve parameters from a counter-based Sampler, pushes
the corresponding lattices through a_t (optionally normalized by the
centralizer element of the curve derivative), evaluates a box-count /
membership / shortest-vector observable, and aggregates. One kernel serves
all of them: for a list of flow times it builds the M sample lattices of
every flow time, and their translates when the estimator compares them, as
one stack (`orbit_points` per flow time, joined), makes it bases
(`LatticeBasis.batch`), evaluates the observable on each, and takes the
mean and standard error of each flow time's values in index order. The box
counts and ball tests read answers made for the whole stack: the first one
LLL-reduces every lane once (at n = 1 all at once) and decides it for every
lane in one breadth-first walk. The shortest-vector observable reduces its
own basis. Per-sample values are pure functions of (seed, index), so a
failing sample, one that fails to reduce in that first query included, is
named by (seed, index, s) and can be rerun alone.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import MatrixPolyCurve
from .errors import DomainError, InternalIdentityError
from .flow import orbit_point, orbit_points, u_embed
from .lattice import LatticeBasis, count_in_box, in_kmu, in_mahler_compact, shortest_supnorm
from .rng import Sampler


@dataclass(frozen=True)
class Observable:
    """A scalar function of a lattice basis, with a stable display name."""

    kind: str
    mu: Optional[float] = None
    box: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("siegel_count", "kmu_indicator", "lambda1"):
            raise DomainError(f"unknown observable kind {self.kind!r}")
        if self.kind == "siegel_count" and not self.box:
            raise DomainError("siegel_count needs box halfwidths")
        if self.kind == "kmu_indicator" and not (self.mu is not None and 0 < self.mu < 1):
            raise DomainError(f"kmu_indicator needs mu in (0,1), got {self.mu}")
        if self.kind != "siegel_count" and self.box is not None:
            raise DomainError(f"{self.kind} takes no box")
        if self.kind != "kmu_indicator" and self.mu is not None:
            raise DomainError(f"{self.kind} takes no mu")

    @property
    def name(self) -> str:
        if self.kind == "siegel_count":
            return "siegel_count[" + ",".join(repr(float(w)) for w in self.box) + "]"
        if self.kind == "kmu_indicator":
            return f"kmu_indicator[{float(self.mu)!r}]"
        return "lambda1"

    def evaluate(self, basis: LatticeBasis) -> float:
        if self.kind == "siegel_count":
            return float(count_in_box(basis, self.box))
        if self.kind == "kmu_indicator":
            return 1.0 if in_kmu(basis, self.mu) else 0.0
        return float(shortest_supnorm(basis).length)


def siegel_count(box) -> Observable:
    return Observable(kind="siegel_count", box=tuple(box))


def kmu_indicator(mu: float) -> Observable:
    return Observable(kind="kmu_indicator", mu=float(mu))


def lambda1() -> Observable:
    return Observable(kind="lambda1")


@dataclass(frozen=True)
class ObservableRecord:
    op: str
    t: float
    observable: str
    mean: float
    stderr: float
    M: int
    seed: int

    def payload(self) -> dict:
        return {
            "module": "stats",
            "op": self.op,
            "t": self.t,
            "observable": self.observable,
            "mean": self.mean,
            "stderr": self.stderr,
            "M": self.M,
            "seed": self.seed,
        }


def _mean_stderr(values: np.ndarray):
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return mean, stderr


@contextmanager
def _naming_sample(sampler: Sampler, points: np.ndarray):
    """Prefix the error of a failing lane with (seed, index, s) of its
    sample: lane i of a stack of flow times and translates is sample
    i % M, which becomes the error's `sample_index`."""
    try:
        yield
    except (ValueError, InternalIdentityError) as exc:
        i = getattr(exc, "sample_index", None)
        if i is None:
            raise
        i = exc.sample_index = i % len(points)
        exc.args = (f"sample (seed, index, s) = ({sampler.seed}, {i}, {float(points[i])!r}): "
                    f"{exc}",)
        raise


def _orbit_stats(curve: MatrixPolyCurve, t_list, sampler: Sampler, evaluate,
                 normalize: bool = False, basepoint: LatticeBasis = None, shift=None):
    """(mean, stderr) of evaluate over the sampled orbit lattices at each flow
    time of the sequence t_list, in order, followed by the same for their
    translates by the matrix `shift` when one is given; [] for no flow time.

    The M samples at every flow time, then their translates, are one stack:
    lane k M + i is sample i at the k-th flow time (of the k-th block).
    `LatticeBasis.batch` makes its bases, and the first box count or ball
    test reduces the whole stack and decides it for every lane. Errors
    report in this order: group-det failures (`orbit_points`) in t order,
    then basis-det failures (`batch`), then query failures, each the lowest
    failing lane's; the observables run inside the same naming scope, so
    every one of these is named by its sample. Each base lane's basis is
    handed to the observable through `orbit_point`, with its own flow time,
    and the observables call the lattice queries by their names here, so
    span tracing of those names still sees one call per sample.
    """
    if not t_list:
        return []
    points = sampler.points(curve.interval)
    M = len(points)
    with _naming_sample(sampler, points):
        stack = np.concatenate([orbit_points(curve, points, t, basepoint=basepoint,
                                             normalize=normalize) for t in t_list])
        if shift is not None:
            stack = np.concatenate((stack, shift @ stack))
        bases = LatticeBasis.batch(stack)
        lanes = [(t, s) for t in t_list for s in points]
        values = [evaluate(orbit_point(curve, s, t, basepoint=basepoint, normalize=normalize,
                                       basis=basis))
                  for (t, s), basis in zip(lanes, bases)]
        values += [evaluate(basis) for basis in bases[len(lanes):]]
    values = np.array(values, dtype=float)
    return [_mean_stderr(values[k:k + M]) for k in range(0, len(values), M)]


def _profile(op: str, observable: str, curve: MatrixPolyCurve, t_list, sampler: Sampler,
             evaluate, **orbit) -> list:
    """One ObservableRecord per flow time of t_list, in order, from one
    `_orbit_stats` stack."""
    t_list = list(t_list)
    return [ObservableRecord(op=op, t=float(t), observable=observable, mean=mean, stderr=se,
                             M=sampler.count, seed=sampler.seed)
            for t, (mean, se) in zip(t_list, _orbit_stats(curve, t_list, sampler, evaluate,
                                                           **orbit))]


def siegel_average(curve: MatrixPolyCurve, t_list, box, sampler: Sampler,
                   basepoint: LatticeBasis = None, normalize: bool = False) -> list:
    """Per flow time of t_list, the mean count of nonzero lattice vectors in
    the box along the orbit; the Haar expectation of the count is the box
    volume."""
    obs = siegel_count(box)
    return _profile("siegel_average", obs.name, curve, t_list, sampler, obs.evaluate,
                    normalize=normalize, basepoint=basepoint)


def kmu_fraction(curve: MatrixPolyCurve, t_list, mu: float, sampler: Sampler,
                 normalize: bool = False) -> list:
    """Per flow time of t_list, the fraction of sampled orbit lattices
    avoiding the open mu-ball."""
    obs = kmu_indicator(mu)
    return _profile("kmu_fraction", obs.name, curve, t_list, sampler, obs.evaluate,
                    normalize=normalize)


def nondivergence_profile(curve: MatrixPolyCurve, t_list, eps: float, sampler: Sampler) -> list:
    """Per flow time of t_list, the fraction of samples whose lattice has a
    nonzero vector of sup-norm below eps (the mass outside the Mahler
    compact)."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    return _profile("nondivergence_profile", f"lambda1_below[{float(eps)!r}]", curve, t_list,
                    sampler, lambda b: 0.0 if in_mahler_compact(b, eps) else 1.0)


def w_invariance_gap(curve: MatrixPolyCurve, t_list, r: float, observable: Observable,
                     sampler: Sampler) -> list:
    """Per flow time of t_list, the difference of observable means between
    normalized orbit lattices and their translates by the unipotent u(r I);
    decay of the gap with t is the expected approach to translation
    invariance. The lattices of every flow time and their translates are
    one stack."""
    shift = u_embed(float(r) * np.eye(curve.n)).entries
    t_list = list(t_list)
    out = _orbit_stats(curve, t_list, sampler, observable.evaluate, normalize=True, shift=shift)
    return [{
        "module": "stats",
        "op": "w_invariance_gap",
        "t": float(t),
        "r": float(r),
        "observable": observable.name,
        "mean_base": mean_b,
        "mean_translated": mean_t,
        "stderr_base": se_b,
        "stderr_translated": se_t,
        "gap": abs(mean_b - mean_t),
        "M": sampler.count,
        "seed": sampler.seed,
    } for t, (mean_b, se_b), (mean_t, se_t) in zip(t_list, out, out[len(t_list):])]


def convergence_gap(curve: MatrixPolyCurve, t1: float, t2: float, observable: Observable,
                    sampler: Sampler, normalize_pair=("raw", "normalized")) -> dict:
    """Compare the two basepoint conventions at equal flow times.

    Returns the raw-vs-normalized gap at t1 and t2 plus the t1 -> t2 drift of
    each mode; mixing of the flow should shrink the gap as t grows.
    """
    modes = tuple(normalize_pair)
    for mode in modes:
        if mode not in ("raw", "normalized"):
            raise DomainError(f"unknown mode {mode!r} in normalize_pair")
    if len(modes) != 2:
        raise DomainError("normalize_pair must name exactly two modes")
    means = {}
    errs = {}
    for mode in set(modes):
        (means[1, mode], errs[1, mode]), (means[2, mode], errs[2, mode]) = _orbit_stats(
            curve, [t1, t2], sampler, observable.evaluate, normalize=(mode == "normalized"))
    a, b = modes
    return {
        "module": "stats",
        "op": "convergence_gap",
        "t1": float(t1),
        "t2": float(t2),
        "observable": observable.name,
        "modes": list(modes),
        "gap_t1": abs(means[1, a] - means[1, b]),
        "gap_t2": abs(means[2, a] - means[2, b]),
        "drift": {mode: abs(means[2, mode] - means[1, mode]) for mode in modes},
        "stderr_max": max(errs.values()),
        "M": sampler.count,
        "seed": sampler.seed,
    }
