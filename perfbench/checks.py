"""Output checks that hold for any seed, and the integer-valued projection
of each config's output that the committed reference pins for the default
seed.

`problems(cfg, records, csv_text)` returns a list of human-readable
failures; an empty list means the config's output is correct.
"""

import json

from workloads import scales

TRANSPORT_TOL = 1e-8
NONVANISH_FLOOR = 1e-6
LAMBDA1_BOUND = 1.0 + 1e-9  # Minkowski: lambda1 <= 1 for a unimodular lattice


def _total(mean, count):
    """The integer sum behind a mean of `count` integer values, or None."""
    x = mean * count
    k = round(x)
    return k if abs(x - k) <= 1e-6 * max(1.0, abs(x)) else None


def _csv_column(csv_text):
    return [int(line.rsplit(",", 1)[1]) for line in csv_text.splitlines()[1:] if line]


def _expected_records(cfg):
    sub, p = cfg["subcommand"], cfg["parameters"]
    if sub in ("equidist", "nondiv", "w-invariance"):
        return len(p["t_list"])
    if sub == "correspondence":
        return len(p["s_grid"]) * len(scales(p))
    if sub == "rep-verify":
        return len(p.get("r_list", [1, -1, 0.5, -0.5]))
    return 1


def problems(cfg, records, csv_text=None):
    sub, n = cfg["subcommand"], cfg["n"]
    want = _expected_records(cfg)
    if len(records) != want:
        return [f"{len(records)} records, expected {want}"]
    out = []
    for rec in records:
        pl = rec["payload"]
        if sub == "equidist":
            total = _total(pl["mean"], pl["M"])
            if total is None or total < 0 or total % 2:
                out.append(f"t={pl['t']}: Siegel count total {pl['mean'] * pl['M']!r} "
                           "is not an even non-negative integer")
        elif sub == "nondiv":
            if not 0 <= pl["mean"] <= 1:
                out.append(f"t={pl['t']}: nondiv mean {pl['mean']!r} outside [0, 1]")
        elif sub == "w-invariance":
            for key in ("mean_base", "mean_translated"):
                lo, hi = (0, 1) if pl["observable"].startswith("kmu") else (0, LAMBDA1_BOUND)
                if not lo <= pl[key] <= hi:
                    out.append(f"t={pl['t']}: {key} {pl[key]!r} of {pl['observable']} "
                               f"outside [{lo}, {hi}]")
        elif sub == "correspondence":
            if pl["agree"] is not True:
                out.append(f"cell s={pl['s']} N={pl['N']}: system and lattice disagree")
        elif sub == "rep-verify":
            if not pl["max_transport_residual"] <= TRANSPORT_TOL:
                out.append(f"r={pl['r']}: transport residual {pl['max_transport_residual']!r}")
            if not pl["min_qplus_norm"] >= NONVANISH_FLOOR:
                out.append(f"r={pl['r']}: q+ norm {pl['min_qplus_norm']!r} below floor")
        elif sub == "genericity":
            rank, degree = pl["affine_rank"], len(cfg["curve"]["coeffs"]) - 1
            # (phi(s) - phi(s0))^-1 lies in the span of the adjugates of the
            # difference-quotient coefficients: at most `degree` of them for n = 2.
            top = 1 if n == 1 else min(degree, n * n)
            if not 1 <= rank <= top or pl["generic"] != (rank == n * n):
                out.append(f"affine rank {rank} (generic={pl['generic']}) impossible "
                           f"for a degree-{degree} curve at n={n}")
        elif sub == "dirichlet-scan":
            column = _csv_column(csv_text or "")
            cells = pl["grid_points"] * pl["scales"]
            if len(column) != cells or any(x not in (0, 1) for x in column):
                out.append(f"insolubility table has {len(column)} 0/1 cells, expected {cells}")
    return out


def integer_payload(cfg, records, csv_text=None):
    """The counts, indicators and insolubility tables of the output."""
    sub = cfg["subcommand"]
    if sub == "dirichlet-scan":
        return _csv_column(csv_text or "")
    ints = []
    for rec in records:
        pl = rec["payload"]
        if sub in ("equidist", "nondiv"):
            ints.append(_total(pl["mean"], pl["M"]))
        elif sub == "w-invariance" and pl["observable"].startswith("kmu"):
            ints += [_total(pl["mean_base"], pl["M"]), _total(pl["mean_translated"], pl["M"])]
        elif sub == "correspondence":
            ints += [int(pl["insoluble"]), int(pl["in_kmu"])]
        elif sub == "rep-verify":
            ints += [pl["dim_constrained"], pl["draws"]]
        elif sub == "genericity":
            ints += [int(pl["generic"]), pl["affine_rank"], pl["samples_used"]]
    return ints


def read_csv(cfg):
    """The insolubility table a dirichlet-scan run wrote next to its JSONL."""
    if cfg["subcommand"] != "dirichlet-scan":
        return None
    with open(cfg["output"] + ".csv", encoding="utf-8") as fh:
        return fh.read()


def canonical(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


class Tally:
    """Counts config runs and failed ones for a workload.

    A run fails when it raised, when `problems` finds anything, when its
    output differs from the same config's first run, when the first run's
    integer payload differs from `reference` (a list per config, or None),
    or when the caller passes extra problems (traced invariant breaks).
    """

    def __init__(self, reference=None, log=None):
        self.attempted = 0
        self.failed = 0
        self.reference = reference
        self.log = log
        self._first = {}

    def record(self, index, cfg, records, error=None, extra=()):
        self.attempted += 1
        found = list(extra)
        if error is not None:
            found.append(error)
        else:
            try:
                found += self._inspect(index, cfg, records)
            except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
                found.append(f"malformed output: {exc!r}")
        if found:
            self.failed += 1
            if self.log is not None:
                self.log(f"{cfg['experiment_id']} -> {cfg['output']}: " + "; ".join(found[:3]))
        return not found

    def _inspect(self, index, cfg, records):
        csv_text = read_csv(cfg)
        found = problems(cfg, records, csv_text)
        output = canonical([{k: v for k, v in r.items() if k != "timestamp"} for r in records])
        if index not in self._first:
            self._first[index] = output
            if self.reference is not None:
                ints = integer_payload(cfg, records, csv_text)
                if canonical(ints) != canonical(self.reference[index]):
                    found.append("integer payload differs from the committed reference")
        elif output != self._first[index]:
            found.append("output differs from the first run of the same config")
        return found

    @property
    def ops_failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0
