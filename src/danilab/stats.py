"""Monte Carlo statistics along curve orbits of the diagonal flow.

Every estimator draws curve parameters from a counter-based Sampler, pushes
the corresponding lattices through a_t (optionally normalized by the
centralizer element of the curve derivative), evaluates a box-count /
membership / shortest-vector observable, and aggregates. One kernel serves
all of them: for a list of flow times it builds the M sample lattices of
every flow time as one stack (one `orbit_points` call over the list, which
evaluates the curve once per sample), writes their translates after them
when the estimator compares them, checks the stack once
(`lattice._checked_stack`), and takes the means and standard errors of
every flow time's values in index order, in one pass over the (blocks, M)
value array. The first box count, ball test or shortest vector LLL-reduces
every lane once, with its transform, in one call of the compiled stack LLL,
and each query is decided for every lane in one call of the compiled walk
(both lane by lane without the library). K_mu indicators, nondivergence and
lambda1 read that answer list in one call (`Observable.evaluate_stack`) and
build no per-sample basis; Siegel counts still make the stack's bases
(`LatticeBasis.batch`) and read them one sample at a time. Per-sample
values are pure functions of (seed, index), so a failing sample, one that
fails to reduce in that first query included, is named by (seed, index, s)
and can be rerun alone.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import MatrixPolyCurve
from .errors import DomainError, InternalIdentityError
from .flow import orbit_point, orbit_points, u_embed
from .lattice import (LatticeBasis, _checked_stack, count_in_box, in_kmu, in_mahler_compact,
                      shortest_supnorm)
from .rng import Sampler


@dataclass(frozen=True)
class Observable:
    """A scalar function of a lattice basis, with a stable display name.
    `lambda1_below` (needs eps > 0) is 1 when the lattice has a nonzero
    vector of sup-norm below eps: the nondivergence profile's observable,
    which configs do not name."""

    kind: str
    mu: Optional[float] = None
    box: Optional[tuple] = None
    eps: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("siegel_count", "kmu_indicator", "lambda1", "lambda1_below"):
            raise DomainError(f"unknown observable kind {self.kind!r}")
        if self.kind == "siegel_count" and not self.box:
            raise DomainError("siegel_count needs box halfwidths")
        if self.kind == "kmu_indicator" and not (self.mu is not None and 0 < self.mu < 1):
            raise DomainError(f"kmu_indicator needs mu in (0,1), got {self.mu}")
        if self.kind == "lambda1_below" and not (self.eps is not None and self.eps > 0):
            raise DomainError(f"eps must be positive, got {self.eps}")
        if self.kind != "siegel_count" and self.box is not None:
            raise DomainError(f"{self.kind} takes no box")
        if self.kind != "kmu_indicator" and self.mu is not None:
            raise DomainError(f"{self.kind} takes no mu")
        if self.kind != "lambda1_below" and self.eps is not None:
            raise DomainError(f"{self.kind} takes no eps")

    @property
    def name(self) -> str:
        if self.kind == "siegel_count":
            return "siegel_count[" + ",".join(repr(float(w)) for w in self.box) + "]"
        if self.kind == "kmu_indicator":
            return f"kmu_indicator[{float(self.mu)!r}]"
        if self.kind == "lambda1_below":
            return f"lambda1_below[{float(self.eps)!r}]"
        return "lambda1"

    def evaluate(self, basis: LatticeBasis) -> float:
        if self.kind == "siegel_count":
            return float(count_in_box(basis, self.box))
        if self.kind == "kmu_indicator":
            return 1.0 if in_kmu(basis, self.mu) else 0.0
        if self.kind == "lambda1_below":
            return 0.0 if in_mahler_compact(basis, self.eps) else 1.0
        return float(shortest_supnorm(basis).length)

    def evaluate_stack(self, stack) -> np.ndarray:
        """`evaluate` on every lane of a float stack (`lattice._checked_stack`),
        in lane order, from one answer list: the stack's ball test below mu
        or eps, or its shortest vectors. A failing lane raises as `evaluate`
        on its basis would, the lowest one first, with its lane as
        `sample_index`. Siegel counts are read per basis (`evaluate`)."""
        if self.kind == "siegel_count":
            raise DomainError("siegel_count is evaluated per basis")
        if self.kind == "lambda1":
            return np.array([x.length for x in stack.minimum()])
        below = np.array(stack.below(self.mu if self.kind == "kmu_indicator" else self.eps),
                         dtype=float)
        return 1.0 - below if self.kind == "kmu_indicator" else below


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


def _block_mean_stderr(values: np.ndarray, M: int) -> list:
    """(mean, stderr) of each block of M consecutive values, in order: one
    mean and one standard deviation over the (blocks, M) array, each row
    with the bits of the same call on that row alone."""
    blocks = values.reshape(-1, M)
    means = np.mean(blocks, axis=1).tolist()
    if M < 2:
        return [(mean, 0.0) for mean in means]
    return list(zip(means, (np.std(blocks, axis=1, ddof=1) / math.sqrt(M)).tolist()))


@contextmanager
def _naming_sample(sampler: Sampler, points: np.ndarray):
    """Prefix the error of a failing lane with (seed, index, s) of its
    sample: lane i of a stack of flow times and translates is sample
    i % M, which becomes the error's `sample_index`. An arithmetic error of
    a lane's LLL (a zero norm, a non-finite mu) is named too."""
    try:
        yield
    except (ArithmeticError, ValueError, InternalIdentityError) as exc:
        i = getattr(exc, "sample_index", None)
        if i is None:
            raise
        i = exc.sample_index = i % len(points)
        exc.args = (f"sample (seed, index, s) = ({sampler.seed}, {i}, {float(points[i])!r}): "
                    f"{exc}",)
        raise


def _with_translates(cols: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """One new stack of the lanes of cols followed by their translates
    shift @ cols, in lane order."""
    out = np.empty((2 * len(cols),) + cols.shape[1:])
    out[:len(cols)] = cols
    np.matmul(shift, cols, out=out[len(cols):])
    return out


def _orbit_stats(curve: MatrixPolyCurve, t_list, sampler: Sampler, observable: Observable,
                 normalize: bool = False, basepoint: LatticeBasis = None, shift=None):
    """(mean, stderr) of the observable over the sampled orbit lattices at
    each flow time of the sequence t_list, in order, followed by the same
    for their translates by the matrix `shift` when one is given; [] for no
    flow time.

    The M samples at every flow time, then their translates, are one stack:
    one `orbit_points` call makes the samples, and `_with_translates` adds
    the translates after them. Lane k M + i is sample i at the k-th flow
    time (of the k-th block), and one det check covers the stack. Errors
    report in this order: group failures (`orbit_points`) in t order, then
    basis-det failures, then query failures, each the lowest failing lane's,
    and each named by its sample. The means and standard errors of all
    blocks are taken at once (`_block_mean_stderr`).
    """
    if not t_list:
        return []
    points = sampler.points(curve.interval)
    with _naming_sample(sampler, points):
        cols = orbit_points(curve, points, t_list, basepoint=basepoint, normalize=normalize)
        if shift is not None:
            cols = _with_translates(cols, shift)
        if observable.kind != "siegel_count":
            values = observable.evaluate_stack(_checked_stack(cols))
        else:
            # Siegel counts still hand each base lane's basis to the observable
            # through `orbit_point`, with its own flow time, and count it through
            # the name `count_in_box` here: perfbench's tracer test counts one
            # `flow.orbit_point` and one `lattice.count_in_box` span per sample.
            # Once the benchmark traces stacks, this branch goes.
            bases = LatticeBasis.batch(cols)
            lanes = [(t, s) for t in t_list for s in points]
            values = [observable.evaluate(orbit_point(curve, s, t, basepoint=basepoint,
                                                      normalize=normalize, basis=basis))
                      for (t, s), basis in zip(lanes, bases)]
            values = np.array(values + [observable.evaluate(b) for b in bases[len(lanes):]])
    return _block_mean_stderr(values, len(points))


def _profile(op: str, curve: MatrixPolyCurve, t_list, sampler: Sampler, observable: Observable,
             **orbit) -> list:
    """One ObservableRecord per flow time of t_list, in order, from one
    `_orbit_stats` stack."""
    t_list = list(t_list)
    return [ObservableRecord(op=op, t=float(t), observable=observable.name, mean=mean,
                             stderr=se, M=sampler.count, seed=sampler.seed)
            for t, (mean, se) in zip(t_list, _orbit_stats(curve, t_list, sampler, observable,
                                                           **orbit))]


def siegel_average(curve: MatrixPolyCurve, t_list, box, sampler: Sampler,
                   basepoint: LatticeBasis = None, normalize: bool = False) -> list:
    """Per flow time of t_list, the mean count of nonzero lattice vectors in
    the box along the orbit; the Haar expectation of the count is the box
    volume."""
    return _profile("siegel_average", curve, t_list, sampler, siegel_count(box),
                    normalize=normalize, basepoint=basepoint)


def kmu_fraction(curve: MatrixPolyCurve, t_list, mu: float, sampler: Sampler,
                 normalize: bool = False) -> list:
    """Per flow time of t_list, the fraction of sampled orbit lattices
    avoiding the open mu-ball."""
    return _profile("kmu_fraction", curve, t_list, sampler, kmu_indicator(mu),
                    normalize=normalize)


def nondivergence_profile(curve: MatrixPolyCurve, t_list, eps: float, sampler: Sampler) -> list:
    """Per flow time of t_list, the fraction of samples whose lattice has a
    nonzero vector of sup-norm below eps (the mass outside the Mahler
    compact)."""
    return _profile("nondivergence_profile", curve, t_list, sampler,
                    Observable(kind="lambda1_below", eps=eps))


def w_invariance_gap(curve: MatrixPolyCurve, t_list, r: float, observable: Observable,
                     sampler: Sampler) -> list:
    """Per flow time of t_list, the difference of observable means between
    normalized orbit lattices and their translates by the unipotent u(r I);
    decay of the gap with t is the expected approach to translation
    invariance. The lattices of every flow time and their translates are
    one stack."""
    shift = u_embed(float(r) * np.eye(curve.n)).entries
    t_list = list(t_list)
    out = _orbit_stats(curve, t_list, sampler, observable, normalize=True, shift=shift)
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

