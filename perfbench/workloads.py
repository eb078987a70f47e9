"""Seeded experiment configs for the four benchmark workloads.

Every config is a plain dict in the format `danilab.cli.parse_config`
reads, built from `random.Random(f"{workload}:{seed}")` only, so one seed
always yields the same configs. Curves have small rational coefficients and
are resampled until they meet the preconditions the subcommand states
(orientation-preserving derivative for normalized orbits, invertible phi(s0)
for the SL(2) copy), which keeps every seed inside the documented domain.

The `experiment_id` of a config is its family, `<subcommand>-n<n>`; configs
of one family differ in curve and sampler seed and write to distinct outputs.
"""

import os
import random
from fractions import Fraction

WORKLOADS = ("orbit-n1", "orbit-n23", "exact-dirichlet", "rep-genericity")

FAMILIES = {
    "orbit-n1": ("equidist-n1", "nondiv-n1", "w-invariance-n1"),
    "orbit-n23": ("equidist-n2", "nondiv-n2", "w-invariance-n2", "equidist-n3",
                  "w-invariance-n3"),
    "exact-dirichlet": ("correspondence-n1", "dirichlet-scan-n1", "correspondence-n2"),
    "rep-genericity": ("rep-verify-n1", "rep-verify-n2", "genericity-n1", "genericity-n2"),
}

N1_T = [2, 4, 6, 8]
N1_CURVES, N1_COUNT = 4, 150
N2_T = [2, 6]
N2_CURVES, N2_COUNT = 10, 18
N3_T = [2]
N3_CURVES, N3_COUNT = 8, 1
GRID_37THS = [f"{k}/37" for k in range(38)]
GRID_CHUNK = 5
EXACT_N2_CURVES = 3
EXACT_N2_S = ["0", "1/3", "1/2", "1"]
EXACT_N2_N = [2, 3, 5, 8, 13, 21]
REP_CURVES, REP_DRAWS = 2, 10


def _rational(rng, lo, hi, den) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def _det(m):
    """Exact determinant by cofactor expansion (n <= 3 here)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _matrix(rng, n, den=8):
    return [[_rational(rng, -1, 1, den) for _ in range(n)] for _ in range(n)]


def _positive_det(rng, n, floor):
    while True:
        m = _matrix(rng, n)
        if _det(m) >= floor:
            return m


def _text(m):
    return [[str(x) for x in row] for row in m]


def _curve(coeffs, interval):
    return {"degree": len(coeffs) - 1, "coeffs": [_text(c) for c in coeffs],
            "interval": [str(interval[0]), str(interval[1])]}


def _config(family, subcommand, n, curve, parameters, out_dir, index, sampler=None):
    cfg = {"experiment_id": family, "subcommand": subcommand, "n": n, "curve": curve,
           "parameters": parameters, "output": os.path.join(out_dir, f"{family}-{index}")}
    if sampler is not None:
        cfg["sampler"] = sampler
    return cfg


def _sampler(rng, count):
    return {"seed": rng.randrange(2 ** 31), "count": count, "scheme": "uniform_iid"}


def _orbit_n1(rng, out_dir):
    configs = []
    for i in range(N1_CURVES):
        # phi(s) = c0 + c1 s + c2 s^2 on [1, 2] with phi' > 0 there.
        c0 = _rational(rng, -1, 1, 16)
        c1 = Fraction(rng.randint(8, 24), 16)
        c2 = Fraction(rng.randint(0, 4), 16)
        curve = _curve([[[c0]], [[c1]], [[c2]]], (1, 2))
        configs.append(_config("equidist-n1", "equidist", 1, curve,
                               {"t_list": N1_T, "box": [0.9, 0.9], "normalize": False},
                               out_dir, i, _sampler(rng, N1_COUNT)))
        configs.append(_config("nondiv-n1", "nondiv", 1, curve,
                               {"t_list": N1_T, "eps": 0.05}, out_dir, i,
                               _sampler(rng, N1_COUNT)))
        configs.append(_config("w-invariance-n1", "w-invariance", 1, curve,
                               {"t_list": N1_T, "r": 1,
                                "observable": {"kind": "kmu_indicator", "mu": 0.7}},
                               out_dir, i, _sampler(rng, N1_COUNT)))
    return configs


def _linear_curve(rng, n):
    """phi(s) = A + B s on [1, 2] with det B > 0, so normalizing is defined."""
    return _curve([_matrix(rng, n), _positive_det(rng, n, Fraction(1, 4))], (1, 2))


def _orbit_n23(rng, out_dir):
    configs = []
    for i in range(N2_CURVES):
        curve = _linear_curve(rng, 2)
        for normalize in (False, True):
            configs.append(_config("equidist-n2", "equidist", 2, curve,
                                   {"t_list": N2_T, "box": [0.9] * 4, "normalize": normalize},
                                   out_dir, f"{i}{'n' if normalize else 'r'}",
                                   _sampler(rng, N2_COUNT)))
        configs.append(_config("nondiv-n2", "nondiv", 2, curve,
                               {"t_list": N2_T, "eps": 0.05}, out_dir, i,
                               _sampler(rng, N2_COUNT)))
        configs.append(_config("w-invariance-n2", "w-invariance", 2, curve,
                               {"t_list": N2_T, "r": 1,
                                "observable": {"kind": "kmu_indicator", "mu": 0.7}},
                               out_dir, i, _sampler(rng, N2_COUNT)))
    for i in range(N3_CURVES):
        curve = _linear_curve(rng, 3)
        configs.append(_config("equidist-n3", "equidist", 3, curve,
                               {"t_list": N3_T, "box": [0.9] * 6, "normalize": False},
                               out_dir, i, _sampler(rng, N3_COUNT)))
        configs.append(_config("w-invariance-n3", "w-invariance", 3, curve,
                               {"t_list": N3_T, "r": 1, "observable": {"kind": "lambda1"}},
                               out_dir, i, _sampler(rng, N3_COUNT)))
    return configs


def _exact_dirichlet(rng, out_dir):
    line = _curve([[[0]], [[1]]], (0, 1))
    # The grid is cut into short configs so that the calibration kernel run
    # before each config samples the machine speed often (see run.py).
    configs = [_config("correspondence-n1", "correspondence", 1, line,
                       {"mu": mu, "N_range": [2, 50], "s_grid": GRID_37THS[j:j + GRID_CHUNK]},
                       out_dir, f"{i}-{j}")
               for i, mu in enumerate(("1/2", "9/10"))
               for j in range(0, len(GRID_37THS), GRID_CHUNK)]
    quad = _curve([[[_rational(rng, -1, 1, 16)]], [[_rational(rng, 1, 2, 16)]],
                   [[_rational(rng, -1, 1, 16)]]], (0, 1))
    configs.append(_config("dirichlet-scan-n1", "dirichlet-scan", 1, quad,
                           {"mu": "1/2", "N_range": [2, 30], "s_grid": {"count": 33}},
                           out_dir, 0))
    for i in range(EXACT_N2_CURVES):
        curve = _curve([_matrix(rng, 2, den=7), _matrix(rng, 2, den=7)], (0, 1))
        for mu in ("1/2", "9/10"):
            configs.append(_config("correspondence-n2", "correspondence", 2, curve,
                                   {"mu": mu, "N_set": EXACT_N2_N, "s_grid": EXACT_N2_S},
                                   out_dir, f"{i}-{mu.replace('/', '_')}"))
    return configs


def _rep_genericity(rng, out_dir):
    configs = []
    for n in (1, 2):
        # The top exterior power (k = 2n) has no contracting part to draw from.
        reps = [{"kind": "adjoint"}] + [{"kind": "exterior", "k": k} for k in range(1, 2 * n)]
        for i in range(REP_CURVES):
            s0 = Fraction(rng.randint(1, 7), 8)
            while True:
                a, b = _matrix(rng, n), _matrix(rng, n)
                phi0 = [[a[r][c] + b[r][c] * s0 for c in range(n)] for r in range(n)]
                if abs(_det(phi0)) >= Fraction(1, 10):
                    break
            curve = _curve([a, b], (0, 1))
            for j, rep in enumerate(reps):
                configs.append(_config(f"rep-verify-n{n}", "rep-verify", n, curve,
                                       {"rep": rep, "s0": str(s0)}, out_dir, f"{i}-{j}",
                                       _sampler(rng, REP_DRAWS)))
        for degree in range(1, n + 2):
            for i in range(REP_CURVES):
                s0 = Fraction(rng.randint(1, 7), 8)
                while True:
                    coeffs = [_matrix(rng, n) for _ in range(degree + 1)]
                    # phi'(s0) invertible keeps a punctured neighbourhood of s0
                    # where phi(s) - phi(s0) is invertible.
                    deriv = [[sum(k * coeffs[k][r][c] * s0 ** (k - 1)
                                  for k in range(1, degree + 1)) for c in range(n)]
                             for r in range(n)]
                    if abs(_det(deriv)) >= Fraction(1, 10):
                        break
                configs.append(_config(f"genericity-n{n}", "genericity", n,
                                       _curve(coeffs, (0, 1)), {"s0": str(s0)}, out_dir,
                                       f"{degree}-{i}"))
    return configs


_GENERATORS = {
    "orbit-n1": _orbit_n1,
    "orbit-n23": _orbit_n23,
    "exact-dirichlet": _exact_dirichlet,
    "rep-genericity": _rep_genericity,
}


def generate(workload: str, seed: int, out_dir: str) -> list:
    """The workload's configs for this seed, in run order."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), out_dir)


def warm_config(workload: str, seed: int, out_dir: str) -> dict:
    """A small config of the workload's first subcommand, run once before
    timing so that lazy set-up is paid in `setup_s`, not in the first pass."""
    cfg = dict(generate(workload, seed, out_dir)[0])
    cfg["output"] = os.path.join(out_dir, "warm")
    if "sampler" in cfg:
        cfg["sampler"] = dict(cfg["sampler"], count=2)
    if cfg["subcommand"] == "correspondence":
        cfg["parameters"] = dict(cfg["parameters"], N_range=[2, 3], s_grid=["0", "1/2"])
    return cfg


def scales(parameters: dict):
    """The N values of a correspondence or dirichlet-scan config."""
    if "N_set" in parameters:
        return parameters["N_set"]
    lo, hi = parameters["N_range"]
    return range(lo, hi + 1)


def work_units(cfg: dict) -> int:
    """Units of `work_per_s` one run of the config does: orbit observable
    evaluations, (phi, N, mu) cells, or 1 for a rep-verify or genericity run."""
    sub, p = cfg["subcommand"], cfg["parameters"]
    if sub in ("equidist", "nondiv", "w-invariance"):
        per_point = 2 if sub == "w-invariance" else 1
        return per_point * cfg["sampler"]["count"] * len(p["t_list"])
    if sub in ("correspondence", "dirichlet-scan"):
        grid = p["s_grid"]
        cells = grid["count"] if isinstance(grid, dict) else len(grid)
        return cells * len(scales(p))
    return 1
