"""Experiment runner: config ingestion, dispatch, JSONL/CSV persistence.

One config file = one experiment. The config carries a curve description,
subcommand-specific parameters, and sampler settings; the runner resolves
defaults at parse time so that the canonical serialization (and hence the
config hash stamped on every record) is independent of key order and of
which defaults the author spelled out.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _linalg, reptheory, stats
from .curve import MatrixPolyCurve, genericity_test
from .dirichlet import (CONVENTIONS, DirichletQuery, correspondence_check,
                        improvability_scan)
from .errors import DomainError
from .flow import sl2_copy
from .rng import SCHEMES, Sampler, counter_uniforms

SUBCOMMANDS = ("genericity", "dirichlet-scan", "correspondence", "equidist",
               "nondiv", "rep-verify", "w-invariance")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_ASSERT = 4

_SAMPLED = ("equidist", "nondiv", "rep-verify", "w-invariance")


class ConfigError(ValueError):
    """Malformed or semantically invalid experiment config."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    subcommand: str
    n: int
    curve: MatrixPolyCurve
    parameters: dict
    sampler: Optional[Sampler]
    output: str


def _require(raw: dict, key: str, kind, where: str):
    if key not in raw:
        raise ConfigError(f"{where}{key}: required field missing")
    val = raw[key]
    if kind is int and isinstance(val, bool):
        raise ConfigError(f"{where}{key}: expected int, got bool")
    if not isinstance(val, kind):
        want = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{where}{key}: expected {want}, got {type(val).__name__}")
    return val


def _scalar(value, field: str):
    """Accept an int, a float, or a 'p/q' rational string."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{field}: cannot parse rational {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected number or 'p/q' string, got {type(value).__name__}")
    return value


def _canonical_scalar(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


_PLAIN_TYPES = frozenset((int, float, str, bool, type(None)))


def _plain(obj):
    """Recursively coerce payload values to JSON-encodable python types."""
    if type(obj) in _PLAIN_TYPES:
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return _canonical_scalar(obj)


def _parse_curve(raw, n: int) -> MatrixPolyCurve:
    degree = _require(raw, "degree", int, "curve.")
    if degree < 0:
        raise ConfigError("curve.degree: must be >= 0")
    coeffs = _require(raw, "coeffs", list, "curve.")
    if len(coeffs) != degree + 1:
        raise ConfigError(f"curve.coeffs: expected degree+1 = {degree + 1} matrices, got {len(coeffs)}")
    for k, mat in enumerate(coeffs):
        if not isinstance(mat, list) or len(mat) != n or any(
                not isinstance(row, list) or len(row) != n for row in mat):
            raise ConfigError(f"curve.coeffs[{k}]: expected {n}x{n} row-major matrix")
        for row in mat:
            for x in row:
                _scalar(x, f"curve.coeffs[{k}]")
    interval = _require(raw, "interval", list, "curve.")
    if len(interval) != 2:
        raise ConfigError("curve.interval: expected [a, b]")
    a = _scalar(interval[0], "curve.interval")
    b = _scalar(interval[1], "curve.interval")
    try:
        return MatrixPolyCurve.from_coeffs(coeffs, (a, b))
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"curve: {exc}") from exc


def _parse_sampler(raw) -> Sampler:
    seed = _require(raw, "seed", int, "sampler.")
    count = _require(raw, "count", int, "sampler.")
    scheme = raw.get("scheme", "uniform_iid")
    if scheme not in SCHEMES:
        raise ConfigError(f"sampler.scheme: expected one of {SCHEMES}, got {scheme!r}")
    try:
        return Sampler(seed=seed, count=count, scheme=scheme)
    except DomainError as exc:
        raise ConfigError(f"sampler: {exc}") from exc


def _check_mu(params: dict, key: str = "mu"):
    if key not in params:
        raise ConfigError(f"parameters.{key}: required field missing")
    mu = _scalar(params[key], f"parameters.{key}")
    if not 0 < mu < 1:
        raise ConfigError("mu must lie in (0,1)")
    return mu


def _check_t_list(params: dict):
    t_list = params.get("t_list")
    if not isinstance(t_list, list) or not t_list:
        raise ConfigError("parameters.t_list: expected nonempty list of flow times")
    for t in t_list:
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise ConfigError("parameters.t_list: entries must be numbers")
    return [float(t) for t in t_list]


def _check_observable(obs, n: int) -> dict:
    if not isinstance(obs, dict) or "kind" not in obs:
        raise ConfigError("parameters.observable: expected object with a 'kind' field")
    kind = obs["kind"]
    if kind == "kmu_indicator":
        if "mu" not in obs:
            raise ConfigError("parameters.observable.mu: required field missing")
        mu = _scalar(obs["mu"], "parameters.observable.mu")
        if not 0 < mu < 1:
            raise ConfigError("mu must lie in (0,1)")
        return {"kind": kind, "mu": float(mu)}
    if kind == "siegel_count":
        box = obs.get("box")
        _check_box(box, n, "parameters.observable.box")
        return {"kind": kind, "box": [float(w) for w in box]}
    if kind == "lambda1":
        return {"kind": kind}
    raise ConfigError(f"parameters.observable.kind: unknown kind {kind!r}")


def _build_observable(obs: dict) -> stats.Observable:
    if obs["kind"] == "kmu_indicator":
        return stats.kmu_indicator(float(Fraction(obs["mu"]) if isinstance(obs["mu"], str) else obs["mu"]))
    if obs["kind"] == "siegel_count":
        return stats.siegel_count(obs["box"])
    return stats.lambda1()


def _check_box(box, n: int, field: str):
    if not isinstance(box, list) or len(box) != 2 * n:
        raise ConfigError(f"{field}: expected {2 * n} positive halfwidths")
    for w in box:
        if isinstance(w, bool) or not isinstance(w, (int, float)) or w <= 0:
            raise ConfigError(f"{field}: halfwidths must be positive numbers")


def _check_n_set(params: dict):
    if "N_set" in params:
        n_set = params["N_set"]
        if not isinstance(n_set, list) or not n_set or any(
                isinstance(N, bool) or not isinstance(N, int) or N < 1 for N in n_set):
            raise ConfigError("parameters.N_set: expected nonempty list of integers >= 1")
        return list(n_set)
    if "N_range" in params:
        rng = params["N_range"]
        if (not isinstance(rng, list) or len(rng) != 2 or any(
                isinstance(N, bool) or not isinstance(N, int) for N in rng) or
                not 1 <= rng[0] <= rng[1]):
            raise ConfigError("parameters.N_range: expected [lo, hi] with 1 <= lo <= hi")
        return list(range(rng[0], rng[1] + 1))
    raise ConfigError("parameters: one of N_set / N_range is required")


def _check_s_grid(params: dict, curve: MatrixPolyCurve):
    grid = params.get("s_grid")
    a, b = curve.interval
    if isinstance(grid, dict):
        m = grid.get("count")
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ConfigError("parameters.s_grid.count: expected integer >= 1")
        if m == 1:
            return [a]
        step = (b - a) / (m - 1)
        return [a + k * step for k in range(m)]
    if isinstance(grid, list) and grid:
        return [_scalar(s, "parameters.s_grid") for s in grid]
    raise ConfigError("parameters.s_grid: expected {'count': m} or a nonempty list")


def _validate_parameters(subcommand: str, params: dict, curve: MatrixPolyCurve, n: int) -> dict:
    """Subcommand-specific semantic checks; returns params with defaults filled."""
    out = dict(params)
    if subcommand == "genericity":
        if "s0" in out:
            _scalar(out["s0"], "parameters.s0")
        else:
            a, b = curve.interval
            out["s0"] = _canonical_scalar((a + b) / 2)
        m = out.setdefault("m", 2 * n * n + 1)
        if isinstance(m, bool) or not isinstance(m, int) or m < n * n + 1:
            raise ConfigError(f"parameters.m: expected integer >= {n * n + 1}")
        tol = out.setdefault("tol", 1e-9)
        if not isinstance(tol, (int, float)) or tol <= 0:
            raise ConfigError("parameters.tol: expected positive number")
    elif subcommand in ("dirichlet-scan", "correspondence"):
        _check_mu(out)
        _check_n_set(out)
        _check_s_grid(out, curve)
        convention = out.setdefault("convention", "lattice_p_nonzero")
        if convention not in CONVENTIONS:
            raise ConfigError(f"parameters.convention: expected one of {CONVENTIONS}")
    elif subcommand == "equidist":
        _check_t_list(out)
        _check_box(out.get("box"), n, "parameters.box")
        normalize = out.setdefault("normalize", False)
        if not isinstance(normalize, bool):
            raise ConfigError("parameters.normalize: expected true/false")
    elif subcommand == "nondiv":
        _check_t_list(out)
        eps = out.get("eps")
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) or eps <= 0:
            raise ConfigError("parameters.eps: expected positive number")
    elif subcommand == "rep-verify":
        rep = out.get("rep")
        if not isinstance(rep, dict) or rep.get("kind") not in ("exterior", "adjoint"):
            raise ConfigError("parameters.rep: expected {'kind': 'exterior'|'adjoint', ...}")
        if rep["kind"] == "exterior":
            # k = 2n is the trivial representation: its V- is empty, and the
            # transport suite draws its test vectors from V-.
            k = rep.setdefault("k", 1)
            if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k < 2 * n:
                raise ConfigError(f"parameters.rep.k: expected integer in [1, {2 * n - 1}]")
        r_list = out.setdefault("r_list", [1, -1, 0.5, -0.5])
        if not isinstance(r_list, list) or not r_list or any(
                isinstance(r, bool) or not isinstance(r, (int, float)) or r == 0 for r in r_list):
            raise ConfigError("parameters.r_list: expected nonempty list of nonzero numbers")
        if "s0" in out:
            _scalar(out["s0"], "parameters.s0")
        else:
            a, b = curve.interval
            out["s0"] = _canonical_scalar((a + b) / 2)
    elif subcommand == "w-invariance":
        _check_t_list(out)
        r = out.setdefault("r", 1)
        if isinstance(r, bool) or not isinstance(r, (int, float)) or r == 0:
            raise ConfigError("parameters.r: expected nonzero number")
        obs = out.get("observable", {"kind": "kmu_indicator", "mu": 0.7})
        out["observable"] = _check_observable(obs, n)
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; fills defaults in place."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    experiment_id = _require(raw, "experiment_id", str, "")
    subcommand = _require(raw, "subcommand", str, "")
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"subcommand: expected one of {SUBCOMMANDS}, got {subcommand!r}")
    n = _require(raw, "n", int, "")
    if n < 1:
        raise ConfigError("n: must be >= 1")
    curve = _parse_curve(_require(raw, "curve", dict, ""), n)
    output = _require(raw, "output", str, "")
    if not output:
        raise ConfigError("output: must be a nonempty path stem")
    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters: expected object")
    params = _validate_parameters(subcommand, params, curve, n)
    sampler = None
    if "sampler" in raw:
        if not isinstance(raw["sampler"], dict):
            raise ConfigError("sampler: expected object")
        sampler = _parse_sampler(raw["sampler"])
    elif subcommand in _SAMPLED:
        raise ConfigError(f"sampler: required for subcommand {subcommand!r}")
    return ExperimentConfig(experiment_id=experiment_id, subcommand=subcommand, n=n,
                            curve=curve, parameters=params, sampler=sampler, output=output)


def _canonical_dict(config: ExperimentConfig) -> dict:
    curve = config.curve
    coeffs = [[[_canonical_scalar(x) for x in row] for row in np.asarray(c).tolist()]
              for c in curve.coeffs]
    out = {
        "experiment_id": config.experiment_id,
        "subcommand": config.subcommand,
        "n": config.n,
        "curve": {
            "degree": curve.degree,
            "coeffs": coeffs,
            "interval": [_canonical_scalar(x) for x in curve.interval],
        },
        "parameters": _plain(config.parameters),
        "output": config.output,
    }
    if config.sampler is not None:
        out["sampler"] = {"seed": config.sampler.seed, "count": config.sampler.count,
                          "scheme": config.sampler.scheme}
    return out


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(_canonical_dict(config), indent=2, sort_keys=True) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """64-bit hash (16 hex digits) of the canonical config; key order in the
    source file cannot affect it."""
    canon = json.dumps(_canonical_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _run_genericity(config: ExperimentConfig):
    p = config.parameters
    s0 = _scalar(p["s0"], "parameters.s0")
    verdict = genericity_test(config.curve, s0, m=p["m"], tol=p["tol"])
    return [{
        "module": "curve",
        "op": "genericity_test",
        "s0": _canonical_scalar(s0),
        "m": p["m"],
        "tol": p["tol"],
        "generic": verdict.generic,
        "affine_rank": verdict.affine_rank,
        "samples_used": verdict.samples_used,
    }]


def _run_dirichlet_scan(config: ExperimentConfig):
    p = config.parameters
    mu = _scalar(p["mu"], "parameters.mu")
    table = improvability_scan(config.curve, mu, _check_s_grid(p, config.curve),
                               _check_n_set(p), convention=p["convention"])
    payload = {"module": "dirichlet", "op": "improvability_scan"}
    payload.update(table.summary())
    return [payload], table


def _run_correspondence(config: ExperimentConfig):
    p = config.parameters
    mu = _scalar(p["mu"], "parameters.mu")
    payloads = []
    for s in _check_s_grid(p, config.curve):
        phi = config.curve.eval(s)
        for N in _check_n_set(p):
            res = correspondence_check(DirichletQuery(phi=phi, N=N, mu=mu))
            payloads.append({
                "module": "dirichlet",
                "op": "correspondence_check",
                "s": _canonical_scalar(s),
                "N": N,
                "mu": _canonical_scalar(mu),
                "insoluble": res["insoluble"],
                "in_kmu": res["in_kmu"],
                "agree": res["agree"],
                "witness": res["witness"],
            })
    return payloads


def _run_equidist(config: ExperimentConfig):
    p = config.parameters
    payloads = []
    for t in _check_t_list(p):
        rec = stats.siegel_average(config.curve, t, p["box"], config.sampler,
                                   normalize=p["normalize"])
        payloads.append(rec.payload())
    return payloads


def _run_nondiv(config: ExperimentConfig):
    p = config.parameters
    records = stats.nondivergence_profile(config.curve, _check_t_list(p), float(p["eps"]),
                                          config.sampler)
    return [rec.payload() for rec in records]


def _run_rep_verify(config: ExperimentConfig):
    p = config.parameters
    n = config.n
    rep_spec = p["rep"]
    if rep_spec["kind"] == "exterior":
        rep = reptheory.exterior(n, rep_spec["k"])
        rep_name = f"exterior({n},{rep_spec['k']})"
    else:
        rep = reptheory.adjoint(n)
        rep_name = f"adjoint({n})"
    s0 = _scalar(p["s0"], "parameters.s0")
    phi = _linalg.to_float(config.curve.eval(s0))
    copy = sl2_copy(phi)
    decomp = reptheory.weight_split(rep)
    draws = config.sampler.count
    seed = config.sampler.seed
    payloads = []
    for block, r in enumerate(p["r_list"]):
        basis = reptheory.constrained_subspace(rep, copy, r)
        # one verifier call per block on the stack of its draws; the fold
        # keeps the order of the draws
        max_transport = 0.0
        if basis:
            vs = _random_combinations(basis, seed, (2 * block) * draws * rep.dim, draws,
                                      rep.dim)
            max_transport = max([max_transport]
                                + reptheory.verify_q0_transport(rep, copy, r, vs).tolist())
        vs = _random_minus_vectors(decomp, rep.dim, seed,
                                   (2 * block + 1) * draws * rep.dim, draws)
        min_nonvanish = min([math.inf]
                            + reptheory.verify_qplus_nonvanish(rep, copy, r, vs).tolist())
        payloads.append({
            "module": "reptheory",
            "op": "transport_suite",
            "rep": rep_name,
            "s0": _canonical_scalar(s0),
            "r": float(r),
            "dim_constrained": len(basis),
            "draws": draws,
            "max_transport_residual": max_transport,
            "min_qplus_norm": min_nonvanish,
        })
    return payloads


def _draw_uniforms(seed: int, base_index: int, draws: int, width: int,
                   stride: int) -> np.ndarray:
    """(draws, width) uniforms; draw j, coordinate i is keyed by
    base_index + j * stride + i."""
    index = base_index + stride * np.arange(draws)[:, None] + np.arange(width)
    return counter_uniforms(seed, index)


def _unit_rows(v: np.ndarray) -> tuple:
    """The rows divided by their sup-norms, where that is >= 1e-9, and the
    mask of the rows where it is not (left as they are)."""
    norm = np.max(np.abs(v), axis=1)
    small = norm < 1e-9
    return v / np.where(small, 1.0, norm)[:, None], small


def _random_combinations(basis, seed: int, base_index: int, draws: int,
                         stride: int) -> np.ndarray:
    """Unit-sup-norm random combinations of the basis vectors, one per row;
    row j uses the keys from base_index + j * stride."""
    coef = 2.0 * _draw_uniforms(seed, base_index, draws, len(basis), stride) - 1.0
    v = np.zeros((draws, len(basis[0])))
    for i, vec in enumerate(basis):
        v = v + coef[:, i, None] * vec
    out, small = _unit_rows(v)
    out[small] = basis[0]  # vanishing draw: fall back to the first basis vector
    return out


def _random_minus_vectors(decomp, dim: int, seed: int, base_index: int,
                          draws: int) -> np.ndarray:
    """Unit-sup-norm random contracting vectors, one per row; row j uses the
    keys from base_index + j * dim."""
    minus = list(decomp.minus_idx)
    v = np.zeros((draws, dim))
    v[:, minus] = 2.0 * _draw_uniforms(seed, base_index, draws, len(minus), dim) - 1.0
    out, small = _unit_rows(v)
    out[small, minus[0]] = 1.0
    return out


def _run_w_invariance(config: ExperimentConfig):
    p = config.parameters
    obs = _build_observable(p["observable"])
    payloads = []
    for t in _check_t_list(p):
        payloads.append(stats.w_invariance_gap(config.curve, t, float(p["r"]), obs,
                                               config.sampler))
    return payloads


_DISPATCH = {
    "genericity": _run_genericity,
    "dirichlet-scan": _run_dirichlet_scan,
    "correspondence": _run_correspondence,
    "equidist": _run_equidist,
    "nondiv": _run_nondiv,
    "rep-verify": _run_rep_verify,
    "w-invariance": _run_w_invariance,
}


def run(config: ExperimentConfig) -> list:
    """Execute the experiment, write <output>.jsonl (and <output>.csv for
    scan tables), and return the written records."""
    result = _DISPATCH[config.subcommand](config)
    table = None
    if isinstance(result, tuple):
        payloads, table = result
    else:
        payloads = result
    chash = config_hash(config)
    stamp = datetime.now(timezone.utc).isoformat()
    records = []
    for payload in payloads:
        records.append({
            "experiment_id": config.experiment_id,
            "config_hash": chash,
            "status": "ok",
            "payload": _plain(payload),
            "timestamp": stamp,
        })
    parent = os.path.dirname(config.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_jsonl(records, config.output + ".jsonl")
    if table is not None:
        with open(config.output + ".csv", "w", encoding="utf-8") as fh:
            fh.write(table.to_csv_text())
    return records


def write_jsonl(records, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _strip_timestamp(rec: dict) -> str:
    return json.dumps({k: v for k, v in rec.items() if k != "timestamp"},
                      sort_keys=True, separators=(",", ":"))


def compare_to_baseline(records, baseline_text: str) -> Optional[str]:
    """First mismatch between produced records and a baseline JSONL dump,
    ignoring timestamps; None when they agree."""
    baseline = []
    for i, line in enumerate(baseline_text.splitlines()):
        if not line.strip():
            continue
        try:
            baseline.append(json.loads(line))
        except json.JSONDecodeError as exc:
            return f"baseline line {i + 1} is not valid JSON: {exc.msg}"
    if len(baseline) != len(records):
        return f"record count {len(records)} != baseline count {len(baseline)}"
    for i, (got, want) in enumerate(zip(records, baseline)):
        g, w = _strip_timestamp(got), _strip_timestamp(want)
        if g != w:
            return f"record {i + 1} differs from baseline:\n  got:  {g}\n  want: {w}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="danilab",
        description="Dirichlet-improvability and lattice-orbit experiments")
    sub = parser.add_subparsers(dest="cli_subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--assert", dest="baseline", default=None, metavar="BASELINE",
                       help="JSONL baseline to compare records against")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"danilab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        if config.subcommand != args.cli_subcommand:
            raise ConfigError(
                f"subcommand: config says {config.subcommand!r} but CLI invoked "
                f"{args.cli_subcommand!r}")
    except ConfigError as exc:
        print(f"danilab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    baseline_text = None
    if args.baseline is not None:
        # read before run(): output and baseline may be the same file
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline_text = fh.read()
        except OSError as exc:
            print(f"danilab: cannot read baseline: {exc}", file=sys.stderr)
            return EXIT_ASSERT
    try:
        records = run(config)
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal exit code
        print(f"danilab: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"danilab: wrote {len(records)} record(s) to {config.output}.jsonl", file=sys.stderr)
    if baseline_text is not None:
        mismatch = compare_to_baseline(records, baseline_text)
        if mismatch is not None:
            print(f"danilab: baseline assertion failed: {mismatch}", file=sys.stderr)
            return EXIT_ASSERT
        print("danilab: baseline assertion passed", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
