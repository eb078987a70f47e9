"""Experiment runner: config ingestion, dispatch, JSONL/CSV persistence.

One config file = one experiment: a curve, subcommand-specific parameters
and sampler settings, each read once: the curve by `from_coeffs`, and the
parameters by one schema per subcommand (a frozen dataclass whose fields
carry their rule and default) into typed arguments and canonical JSON with
defaults filled in. The config hash stamped on every record hashes these
and the curve's numbers, independent of key order and of which defaults
the author spelled out.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _linalg, reptheory, stats
from .curve import MatrixPolyCurve, genericity_test
from .dirichlet import CONVENTIONS, correspondence_row, improvability_scan
from .errors import HypothesisViolationError
from .flow import sl2_copy
from .rng import Sampler, counter_uniforms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_ASSERT = 4


class ConfigError(ValueError):
    """Malformed or semantically invalid experiment config."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    subcommand: str
    n: int
    curve: MatrixPolyCurve
    parameters: dict  # canonical JSON form, defaults filled in: what config_hash hashes
    args: object      # the same parameters typed, as the subcommand's *Args class
    sampler: Optional[Sampler]
    output: str


def _require(raw: dict, key: str, kind, where: str):
    if key not in raw:
        raise ConfigError(f"{where}{key}: required field missing")
    val = raw[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"{where}{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _finite(literal: str) -> float:
    """The reader's hook for float literals and NaN/Infinity: a config holds
    finite numbers only (a literal such as 1e400 overflows to inf)."""
    x = float(literal)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {literal} in config")
    return x


def _plain(x):
    """A typed scalar as JSON: a Fraction as its 'p/q' text, the rest as is."""
    return str(x) if isinstance(x, Fraction) else x


# Field rules. A rule `rule(value, where, curve)` checks one JSON value,
# names it by `where` when it refuses it, and returns the typed value.

def _num(kinds=(int, float), test=None, what="", to=None):
    """The one number rule: a JSON value of `kinds`, never a bool (a str is
    a 'p/q' rational, read as a Fraction); `test(x, n)` must hold, `what`
    says what it asks, and `to` converts the result."""
    def rule(value, where, curve):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"{where}: expected {'/'.join(k.__name__ for k in kinds)}, "
                              f"got {type(value).__name__}")
        if isinstance(value, str):
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{where}: cannot parse rational {value!r}") from exc
        if test is not None and not test(value, curve.n):
            raise ConfigError(f"{where} must {what}")
        try:
            return value if to is None else to(value)
        except OverflowError as exc:  # an int or 'p/q' beyond the doubles
            raise ConfigError(f"{where}: number too large for a float") from exc
    return rule


def _list_of(item, size=None):
    """A nonempty JSON list of `item` values, as a tuple; `size(n)` fixes
    its length."""
    def rule(value, where, curve):
        want = None if size is None else size(curve.n)
        if not isinstance(value, list) or not value or want not in (None, len(value)):
            raise ConfigError(f"{where}: expected a nonempty list" if want is None
                              else f"{where}: expected a list of {want} entries")
        return tuple(item(x, f"{where}[{i}]", curve) for i, x in enumerate(value))
    return rule


def _one_of(*choices):
    def rule(value, where, curve):
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ConfigError(f"{where}: expected one of {choices}")
        return value
    return rule


def _built(where: str, make, *args, **kwargs):
    """make(...), a value it refuses (ValueError) refused as config at `where`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _known(obj, keys, where: str):
    """Refuse anything but an object, and any key of it outside `keys`
    (`where` is "" at the config root)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in keys:
            field = f"{where}.{key}" if where else key
            raise ConfigError(f"{field}: unknown field")


_RATIONAL = _num((int, float, str))
_RATIONAL_FLOAT = _num((int, float, str), to=float)
_REAL = _num(to=float)
_NONZERO = _num(test=lambda x, n: x != 0, what="be nonzero", to=float)
_POSITIVE = _num(test=lambda x, n: x > 0, what="be positive", to=float)
_BOX = _list_of(_POSITIVE, size=lambda n: 2 * n)
_SCALE = _num((int,), lambda x, n: x >= 1, "be >= 1")


def _n_range(value, where, curve):
    lo, hi = _list_of(_SCALE, size=lambda n: 2)(value, where, curve)
    if lo > hi:
        raise ConfigError(f"{where}: expected [lo, hi] with lo <= hi")
    return tuple(range(lo, hi + 1))


def _s_grid(value, where, curve):
    """A list of s values, or {"count": m}: m equispaced points spanning the
    interval (its left end alone when m = 1)."""
    if not isinstance(value, dict):
        return _list_of(_RATIONAL)(value, where, curve)
    _known(value, ("count",), where)
    m = _SCALE(_require(value, "count", int, f"{where}."), f"{where}.count", curve)
    a, b = curve.interval
    if m == 1:
        return (a,)
    step = (b - a) / (m - 1)
    return tuple(a + k * step for k in range(m))


# The top power k = 2n is the trivial representation: its V- is empty, and
# the transport suite draws its test vectors from V-.
_BELOW_TOP = _num((int,), lambda x, n: x < 2 * n, "be < 2n")


def _rep(value, where, curve):
    """A `reptheory.Representation`, which checks its kind and power."""
    exterior = isinstance(value, dict) and value.get("kind") == "exterior"
    _known(value, ("kind", "k") if exterior else ("kind",), where)
    k = _BELOW_TOP(value.get("k", 1), f"{where}.k", curve) if exterior else 0
    return _built(where, reptheory.Representation, kind=value.get("kind"), n=curve.n, k=k)


def _observable(value, where, curve):
    """A `stats.Observable`, which states what each kind needs."""
    _known(value, ("kind", "mu", "box"), where)
    mu, box = value.get("mu"), value.get("box")
    return _built(where, stats.Observable, kind=value.get("kind"),
                  mu=None if mu is None else _RATIONAL_FLOAT(mu, f"{where}.mu", curve),
                  box=None if box is None else _BOX(box, f"{where}.box", curve))


def _rep_json(rep) -> dict:
    return {"kind": rep.kind, "k": rep.k} if rep.kind == "exterior" else {"kind": rep.kind}


def _observable_json(obs) -> dict:
    return {k: v for k, v in vars(obs).items() if v is not None}


def _midpoint(curve):
    a, b = curve.interval
    return _plain((a + b) / 2)


def _field(rule, default=MISSING, canonical=None):
    """A `parameters` field, written once: its rule, or the rules of keys of
    which exactly one is given; the JSON value of an absent key, maybe as a
    function of the curve (none: the key is required); and for an object,
    the function giving its canonical JSON form from its typed value."""
    return field(metadata={"rule": rule, "default": default, "canonical": canonical})


@dataclass(frozen=True)
class GenericityArgs:
    s0: object = _field(_RATIONAL, default=_midpoint)  # Fraction, int or float
    m: int = _field(_num((int,), lambda x, n: x >= n * n + 1, "be >= n^2 + 1"),
                    default=lambda curve: 2 * curve.n ** 2 + 1)
    tol: object = _field(_num(test=lambda x, n: x > 0, what="be positive"), default=1e-9)


@dataclass(frozen=True)
class DirichletArgs:
    mu: object = _field(_num((int, float, str), lambda x, n: 0 < x < 1, "lie in (0,1)"))
    N: tuple = _field({"N_set": _list_of(_SCALE), "N_range": _n_range})
    s_grid: tuple = _field(_s_grid)
    convention: str = _field(_one_of(*CONVENTIONS), default="lattice_p_nonzero")


@dataclass(frozen=True)
class CorrespondenceArgs(DirichletArgs):
    # The unimodular lattice sees only p != 0, so q is unrestricted.
    convention: str = _field(_one_of("lattice_p_nonzero"), default="lattice_p_nonzero")


@dataclass(frozen=True)
class EquidistArgs:
    t_list: tuple = _field(_list_of(_REAL))
    box: tuple = _field(_BOX)
    normalize: bool = _field(_one_of(False, True), default=False)


@dataclass(frozen=True)
class NondivArgs:
    t_list: tuple = _field(_list_of(_REAL))
    eps: float = _field(_POSITIVE)


@dataclass(frozen=True)
class RepVerifyArgs:
    rep: reptheory.Representation = _field(_rep, canonical=_rep_json)
    r_list: tuple = _field(_list_of(_NONZERO), default=[1, -1, 0.5, -0.5])
    s0: object = _field(_RATIONAL, default=_midpoint)


@dataclass(frozen=True)
class WInvarianceArgs:
    t_list: tuple = _field(_list_of(_REAL))
    r: float = _field(_NONZERO, default=1)
    observable: stats.Observable = _field(_observable, canonical=_observable_json,
                                          default={"kind": "kmu_indicator", "mu": 0.7})


def _schema(cls):
    """The class, its fields as (name, {key: rule}, default, canonical) and
    the keys they read, taken from its metadata once at import."""
    plan = tuple((f.name, rule if isinstance(rule, dict) else {f.name: rule},
                  f.metadata["default"], f.metadata["canonical"])
                 for f in fields(cls) for rule in (f.metadata["rule"],))
    return cls, plan, frozenset(key for _, rules, _, _ in plan for key in rules)


def _parse_parameters(schema, raw, curve: MatrixPolyCurve):
    """One pass over a subcommand's schema: its typed arguments, and the
    canonical parameters (the JSON values as given, defaults filled in)."""
    cls, plan, keys = schema
    _known(raw, keys, "parameters")
    canon = dict(raw)
    args = {}
    for name, rules, default, canonical in plan:
        given = [key for key in rules if key in raw]
        if len(given) > 1:
            raise ConfigError(f"parameters: give only one of {' / '.join(rules)}")
        if given:
            key, value = given[0], raw[given[0]]
        elif default is MISSING:
            raise ConfigError(f"parameters.{' / '.join(rules)}: required field missing")
        else:
            (key,) = rules
            value = canon[key] = default(curve) if callable(default) else default
        args[name] = rules[key](value, f"parameters.{key}", curve)
        if canonical is not None:
            canon[key] = canonical(args[name])
    return cls(**args), canon


def _parse_curve(raw, n: int) -> MatrixPolyCurve:
    _known(raw, ("degree", "coeffs", "interval"), "curve")
    degree = _require(raw, "degree", int, "curve.")
    if degree < 0:
        raise ConfigError("curve.degree: must be >= 0")
    coeffs = _require(raw, "coeffs", list, "curve.")
    if len(coeffs) != degree + 1:
        raise ConfigError(f"curve.coeffs: expected degree+1 = {degree + 1} matrices, got {len(coeffs)}")
    interval = _require(raw, "interval", list, "curve.")
    try:
        curve = MatrixPolyCurve.from_coeffs(coeffs, interval)
    except ValueError as exc:
        raise ConfigError(f"curve.{exc}") from exc
    if curve.n != n:
        raise ConfigError(f"curve.coeffs[0]: expected {n}x{n} row-major matrix")
    return curve


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config. The parameters are read
    once, into the subcommand's typed arguments and the canonical dict."""
    try:
        raw = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _known(raw, ("experiment_id", "subcommand", "n", "curve", "parameters", "sampler",
                 "output"), "")
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
    schema, _, sampled = _DISPATCH[subcommand]
    args, params = _parse_parameters(schema, raw.get("parameters", {}), curve)
    sampler = None
    if "sampler" in raw:
        spec = _require(raw, "sampler", dict, "")
        _known(spec, ("seed", "count", "scheme"), "sampler")
        sampler = _built("sampler", Sampler, seed=_require(spec, "seed", int, "sampler."),
                         count=_require(spec, "count", int, "sampler."),
                         scheme=spec.get("scheme", "uniform_iid"))
    elif sampled:
        raise ConfigError(f"sampler: required for subcommand {subcommand!r}")
    return ExperimentConfig(experiment_id=experiment_id, subcommand=subcommand, n=n,
                            curve=curve, parameters=params, args=args, sampler=sampler,
                            output=output)


def _canonical_dict(config: ExperimentConfig) -> dict:
    """The config as JSON; the parameters are canonical JSON already."""
    curve, sampler = config.curve, config.sampler
    out = {
        "experiment_id": config.experiment_id,
        "subcommand": config.subcommand,
        "n": config.n,
        "curve": {"degree": curve.degree, "interval": [_plain(x) for x in curve.interval],
                  "coeffs": (curve.coeffs.astype(str) if curve.exact else curve.coeffs).tolist()},
        "parameters": config.parameters,
        "output": config.output,
    }
    if sampler is not None:
        out["sampler"] = {"seed": sampler.seed, "count": sampler.count, "scheme": sampler.scheme}
    return out


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(_canonical_dict(config), indent=2, sort_keys=True) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """64-bit hash (16 hex digits) of the canonical config; key order in the
    source file cannot affect it."""
    canon = json.dumps(_canonical_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _run_genericity(config: ExperimentConfig):
    p = config.args
    verdict = genericity_test(config.curve, p.s0, m=p.m, tol=p.tol)
    return [{
        "module": "curve",
        "op": "genericity_test",
        "s0": _plain(p.s0),
        "m": p.m,
        "tol": p.tol,
        "generic": verdict.generic,
        "affine_rank": verdict.affine_rank,
        "samples_used": verdict.samples_used,
    }], None


def _run_dirichlet_scan(config: ExperimentConfig):
    p = config.args
    table = improvability_scan(config.curve, p.mu, p.s_grid, p.N, convention=p.convention)
    payload = {"module": "dirichlet", "op": "improvability_scan"}
    payload.update(table.summary())
    return [payload], table


def _run_correspondence(config: ExperimentConfig):
    """One payload per (s, N) cell; s and mu become their JSON text once (per
    s, per config) and a witness (p, q) becomes two lists."""
    p = config.args
    mu = _plain(p.mu)
    payloads = []
    for s in p.s_grid:
        s_json = _plain(s)
        for N, res in zip(p.N, correspondence_row(config.curve.eval(s), p.N, p.mu)):
            witness = res["witness"]
            payloads.append({
                "module": "dirichlet",
                "op": "correspondence_check",
                "s": s_json,
                "N": N,
                "mu": mu,
                "insoluble": res["insoluble"],
                "in_kmu": res["in_kmu"],
                "agree": res["agree"],
                "witness": None if witness is None else [list(witness[0]), list(witness[1])],
            })
    return payloads, None


def _run_equidist(config: ExperimentConfig):
    p = config.args
    records = stats.siegel_average(config.curve, p.t_list, p.box, config.sampler,
                                   normalize=p.normalize)
    return [rec.payload() for rec in records], None


def _run_nondiv(config: ExperimentConfig):
    p = config.args
    records = stats.nondivergence_profile(config.curve, p.t_list, p.eps, config.sampler)
    return [rec.payload() for rec in records], None


def _run_rep_verify(config: ExperimentConfig):
    """One payload per r of the r list, all r run as one stack: one image
    stack of u(r phi), one stacked constrained basis and one call of each
    verifier, on draws made in one call per kind. Block b (the b-th r) keys
    its transport draws from 2 b k dim and its contracting ones from
    (2 b + 1) k dim, for k draws."""
    p = config.args
    rep = p.rep
    rep_name = f"exterior({rep.n},{rep.k})" if rep.kind == "exterior" else f"adjoint({rep.n})"
    phi = _linalg.to_float(config.curve.eval(p.s0))
    copy = sl2_copy(phi)
    # the contracting draws combine the unit vectors of V-
    minus = np.eye(rep.dim)[list(reptheory.weight_split(rep).minus_idx)]
    draws = config.sampler.count
    seed = config.sampler.seed
    s0 = _plain(p.s0)
    r_list = list(p.r_list)
    base = 2 * draws * rep.dim * np.arange(len(r_list))
    # one image of u(r phi) per r, shared by the three checks
    images = reptheory.unipotent_image(rep, copy, r_list)
    bases = reptheory.constrained_subspace(rep, copy, r_list, image=images)
    dims = [len(basis) for basis in bases]
    spanned = [b for b, dim in enumerate(dims) if dim]
    transport = {}
    failures = []
    if spanned:
        # zero vectors pad the bases to one length: each adds +0.0 to a sum
        # that starts at +0.0, which changes no bit
        padded = np.zeros((len(spanned), max(dims), rep.dim))
        for row, b in enumerate(spanned):
            padded[row, :dims[b]] = bases[b]
        vs = _random_combinations(padded, seed, base[spanned], draws, rep.dim)
        try:
            resid = reptheory.verify_q0_transport(rep, copy, [r_list[b] for b in spanned], vs,
                                                  image=images[spanned])
            transport = dict(zip(spanned, resid.tolist()))
        except HypothesisViolationError as exc:
            exc.r_index = spanned[exc.r_index]
            failures.append(exc)
    vs = _random_combinations(minus, seed, base + draws * rep.dim, draws, rep.dim)
    try:
        norms = reptheory.verify_qplus_nonvanish(rep, copy, r_list, vs, image=images).tolist()
    except HypothesisViolationError as exc:
        failures.append(exc)
    if failures:
        # the lowest failing r, its transport checks first: as one r at a time
        raise min(failures, key=lambda exc: exc.r_index)
    # the folds keep the order of the draws
    return [{
        "module": "reptheory",
        "op": "transport_suite",
        "rep": rep_name,
        "s0": s0,
        "r": r,
        "dim_constrained": dim,
        "draws": draws,
        "max_transport_residual": max([0.0] + transport.get(b, [])),
        "min_qplus_norm": min([math.inf] + norms[b]),
    } for b, (r, dim) in enumerate(zip(r_list, dims))], None


def _random_combinations(basis, seed: int, base_index, draws: int,
                         stride: int) -> np.ndarray:
    """Unit-sup-norm random combinations of the basis vectors, one per row;
    draw j, coefficient i is keyed by base_index + j * stride + i. A draw of
    sup-norm below 1e-9 falls back to the first basis vector. A (B,) array
    of base indices gives a (B, draws, dim) stack, with one family for all
    or a (B, L, dim) stack of families."""
    basis = np.asarray(basis, dtype=float)
    count = basis.shape[-2]
    index = (np.asarray(base_index)[..., None, None] + stride * np.arange(draws)[:, None]
             + np.arange(count))
    coef = 2.0 * counter_uniforms(seed, index) - 1.0
    v = np.zeros(index.shape[:-1] + basis.shape[-1:])
    for i in range(count):
        v = v + coef[..., i, None] * basis[..., None, i, :]
    norm = np.max(np.abs(v), axis=-1)
    small = norm < 1e-9
    out = v / np.where(small, 1.0, norm)[..., None]
    out[small] = np.broadcast_to(basis[..., None, 0, :], out.shape)[small]
    return out


def _run_w_invariance(config: ExperimentConfig):
    p = config.args
    return stats.w_invariance_gap(config.curve, p.t_list, p.r, p.observable,
                                  config.sampler), None


_DISPATCH = {  # subcommand: (the schema of its parameters, its runner, needs a sampler)
    "genericity": (_schema(GenericityArgs), _run_genericity, False),
    "dirichlet-scan": (_schema(DirichletArgs), _run_dirichlet_scan, False),
    "correspondence": (_schema(CorrespondenceArgs), _run_correspondence, False),
    "equidist": (_schema(EquidistArgs), _run_equidist, True),
    "nondiv": (_schema(NondivArgs), _run_nondiv, True),
    "rep-verify": (_schema(RepVerifyArgs), _run_rep_verify, True),
    "w-invariance": (_schema(WInvarianceArgs), _run_w_invariance, True),
}
SUBCOMMANDS = tuple(_DISPATCH)


def run(config: ExperimentConfig) -> list:
    """Execute the experiment, write <output>.jsonl (and <output>.csv for
    scan tables), and return the written records.

    Every runner returns JSON-plain payloads (dicts, lists, str, int, float,
    bool, None; a rational as its 'p/q' text), so a record is exactly what
    json.loads reads back from its line; `write_jsonl` is the one encoder,
    and anything else left in a payload makes it raise TypeError."""
    payloads, table = _DISPATCH[config.subcommand][1](config)
    chash = config_hash(config)
    stamp = datetime.now(timezone.utc).isoformat()
    eid = config.experiment_id
    records = [{"experiment_id": eid, "config_hash": chash, "status": "ok", "payload": payload,
                "timestamp": stamp} for payload in payloads]
    parent = os.path.dirname(config.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_jsonl(records, config.output + ".jsonl")
    if table is not None:
        _write_text(config.output + ".csv", table.to_csv_text())
    return records


def _write_text(path: str, text: str):
    """Write `text` (UTF-8) to `path`, the one writer of every output file.

    An existing file is overwritten in place, as open(path, "w") would: the
    same inode, through a symlink, with its mode kept. It is not truncated
    to zero first, because on ext4 (auto_da_alloc) a file truncated to zero
    and rewritten starts its writeback at close; here its blocks are reused
    and the length is cut after the write. The text is encoded before the
    file is opened, so an error there leaves the old file untouched. A
    process killed between the write and the truncate, when the new text is
    shorter than the old, leaves the old file's tail after the new bytes."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# One encoder for every record: json.dumps with separators builds a
# JSONEncoder per call, and JSONEncoder.encode builds its C encoder per call.
# This one is built once, with the arguments JSONEncoder.iterencode passes.
# A record is a tree, never circular, so the encoder skips the circularity
# bookkeeping; the bytes are those of json.dumps. Without the C encoder, the
# JSONEncoder encodes in Python.
_JSONL_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_C_ENCODER = None if json.encoder.c_make_encoder is None else json.encoder.c_make_encoder(
    None, _JSONL_ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",",
    False, False, True)
# The keys of a record `run` makes, in order: an envelope around the payload
_ENVELOPE = ("experiment_id", "config_hash", "status", "payload", "timestamp")


def write_jsonl(records, path: str):
    """Write one line per record: json.dumps(record, separators=(",", ":"))
    and a newline, byte for byte (ASCII, non-ASCII text \\u-escaped). The
    envelope that a run's records share (`experiment_id`, `config_hash`,
    `status` before the payload, `timestamp` after it) is encoded once per
    file and each payload once; any other record is encoded whole. An
    empty list writes an empty file. The file is written by `_write_text`,
    after every record is encoded."""
    if _C_ENCODER is None:
        encode = _JSONL_ENCODER.encode
    else:
        def encode(obj, chunks=_C_ENCODER, join="".join):
            return join(chunks(obj, 0))
    lines = []
    shared = head = tail = None
    for rec in records:
        if type(rec) is not dict or tuple(rec) != _ENVELOPE:
            lines.append(encode(rec) + "\n")
            continue
        envelope = (rec["experiment_id"], rec["config_hash"], rec["status"], rec["timestamp"])
        if envelope != shared:
            shared = envelope
            head = encode(dict(zip(_ENVELOPE[:3], envelope)))[:-1] + ',"payload":'
            tail = ',"timestamp":' + encode(envelope[3]) + "}\n"
        lines.append(head + encode(rec["payload"]) + tail)
    _write_text(path, "".join(lines))


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
