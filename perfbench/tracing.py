"""Span tracing of danilab from outside the package.

A span wraps a public function at the name its callers look up at call
time (for example `danilab.stats.orbit_point`, which `stats` resolves on
every sample), so the package itself is unchanged. Spans nest: a span's self
time is its duration minus the durations of the spans opened inside it. A
call site that no longer exists is skipped and its span reports 0 calls.

Hooks count work where it happens: vectors found by `count_in_box`,
witnesses found by `solvable`, bytes written by `write_jsonl`, and the
Minkowski and parity invariants of every traced lattice result.
"""

import functools
import os
import statistics
from time import perf_counter

from checks import LAMBDA1_BOUND

# (module of danilab, attribute the callers look up, span name)
SPANS = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("stats", "siegel_average", "stats.siegel_average"),
    ("stats", "nondivergence_profile", "stats.nondivergence_profile"),
    ("stats", "w_invariance_gap", "stats.w_invariance_gap"),
    ("rng", "Sampler.points", "rng.points"),
    ("stats", "orbit_point", "flow.orbit_point"),
    ("stats", "count_in_box", "lattice.count_in_box"),
    ("stats", "in_kmu", "lattice.in_kmu"),
    ("stats", "in_mahler_compact", "lattice.in_mahler_compact"),
    ("stats", "shortest_supnorm", "lattice.shortest_supnorm"),
    ("dirichlet", "solvable", "dirichlet.solvable"),
    ("dirichlet", "correspondence_basis", "dirichlet.correspondence_basis"),
    ("dirichlet", "in_kmu", "lattice.exact.in_kmu"),
    ("reptheory", "weight_split", "reptheory.weight_split"),
    ("reptheory", "constrained_subspace", "reptheory.constrained_subspace"),
    ("reptheory", "verify_q0_transport", "reptheory.verify_q0_transport"),
    ("reptheory", "verify_qplus_nonvanish", "reptheory.verify_qplus_nonvanish"),
    ("cli", "genericity_test", "curve.genericity_test"),
)
SPAN_NAMES = tuple(name for _, _, name in SPANS)
# Float-mode lattice queries on orbit bases; each runs one LLL reduction.
ORBIT_LATTICE = ("lattice.count_in_box", "lattice.in_kmu", "lattice.in_mahler_compact",
                 "lattice.shortest_supnorm")


class Span:
    __slots__ = ("durations", "self_s", "failed")

    def __init__(self):
        self.durations = []
        self.self_s = 0.0
        self.failed = 0


def tail_ms(durations):
    """The highest of p99.9 / p99 / p90 with at least ten calls beyond it;
    the maximum when there are fewer than 100 calls."""
    c = len(durations)
    if not c:
        return 0.0
    ordered = sorted(durations)
    for q in (0.999, 0.99, 0.9):
        if (1 - q) * c >= 10:
            return ordered[min(c - 1, int(q * c))] * 1e3
    return ordered[-1] * 1e3


def _resolve(package, module, attr):
    owner = getattr(package, module, None)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None, name
    return owner, name


class Tracer:
    """Installs spans on a loaded danilab package; `remove()` undoes it."""

    def __init__(self):
        self.spans = {name: Span() for name in SPAN_NAMES}
        self.top_s = 0.0            # time covered by spans with no parent
        self.violations = 0         # traced results that break an invariant
        self.vectors = 0            # nonzero vectors counted by count_in_box
        self.witnesses = 0          # solvable calls that found a witness
        self.jsonl_bytes = 0
        self.capture = True         # keep orbit bases for the reduce replay
        self.bases = {}             # n -> [LatticeBasis]
        self.orbit_s = {}           # n -> seconds in ORBIT_LATTICE spans
        self.orbit_calls = {}       # n -> calls of ORBIT_LATTICE spans
        self._stack = []
        self._restore = []

    def install(self, package):
        hooks = {name: self._orbit_hook for name in ORBIT_LATTICE}
        hooks["dirichlet.solvable"] = self._solvable_hook
        for module, attr, name in SPANS:
            owner, attr_name = _resolve(package, module, attr)
            if owner is not None:
                self._patch(owner, attr_name, self._wrap(name, getattr(owner, attr_name),
                                                         hooks.get(name)))
        owner, attr_name = _resolve(package, "cli", "write_jsonl")
        if owner is not None:
            self._patch(owner, attr_name, self._count_bytes(getattr(owner, attr_name)))

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        span, stack = self.spans[name], self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
                span.durations.append(dt)
                span.self_s += dt - children[0]
                span.failed += not ok
            if hook is not None:
                hook(name, args, kwargs, result, dt)
            return result

        return traced

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            path = args[1] if len(args) > 1 else kwargs.get("path")
            if path is not None and os.path.isfile(path):
                self.jsonl_bytes += os.path.getsize(path)
            return result

        return counted

    def _orbit_hook(self, name, args, kwargs, result, dt):
        basis = args[0] if args else kwargs.get("basis")
        if basis is None:
            return
        n = basis.m // 2
        self.orbit_s[n] = self.orbit_s.get(n, 0.0) + dt
        self.orbit_calls[n] = self.orbit_calls.get(n, 0) + 1
        if self.capture:
            self.bases.setdefault(n, []).append(basis)
        if name == "lattice.count_in_box":
            self.vectors += result
            self.violations += result < 0 or result % 2 != 0
        elif name == "lattice.shortest_supnorm":
            self.violations += not float(result.length) <= LAMBDA1_BOUND

    def _solvable_hook(self, name, args, kwargs, result, dt):
        self.witnesses += result is not None

    def replay_reduce(self, reduce):
        """Mean ms of `reduce` on the captured bases, per n (outside spans)."""
        out = {}
        for n, bases in self.bases.items():
            times = []
            for basis in bases:
                t0 = perf_counter()
                reduce(basis)
                times.append(perf_counter() - t0)
            out[n] = statistics.fmean(times) * 1e3
        return out
