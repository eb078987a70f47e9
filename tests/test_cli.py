import json
import os
from fractions import Fraction

import pytest

from danilab import Sampler, cli, kmu_indicator, siegel_count
from danilab.reptheory import exterior
from danilab.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME,
                         ConfigError, compare_to_baseline, config_hash, main,
                         parse_config, run, serialize_config, write_jsonl)
from orbit_reference import reference_basis, reference_mean_stderr


def base_config(**overrides):
    cfg = {
        "experiment_id": "unit",
        "subcommand": "equidist",
        "n": 1,
        "curve": {"degree": 1,
                  "coeffs": [[[0]], [[1]]],
                  "interval": ["0", "1"]},
        "parameters": {"t_list": [1.0], "box": [1.5, 1.5]},
        "sampler": {"seed": 7, "count": 25, "scheme": "uniform_iid"},
        "output": "out",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_parse_serialize_round_trip():
    cfg = parse_config(json.dumps(base_config()))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert cfg.curve.interval == (Fraction(0), Fraction(1))


def test_config_hash_ignores_key_order_and_formatting():
    raw = base_config()
    reordered = json.dumps(dict(reversed(list(raw.items()))), indent=4)
    assert config_hash(parse_config(json.dumps(raw))) == config_hash(parse_config(reordered))
    h = config_hash(parse_config(json.dumps(raw)))
    assert len(h) == 16 and int(h, 16) >= 0


def test_config_hash_sees_parameter_changes():
    a = parse_config(json.dumps(base_config()))
    changed = base_config()
    changed["sampler"]["seed"] = 8
    b = parse_config(json.dumps(changed))
    assert config_hash(a) != config_hash(b)


def test_parse_error_reports_position():
    with pytest.raises(ConfigError) as info:
        parse_config('{"experiment_id": }')
    assert "line 1" in str(info.value) and "column" in str(info.value)


def test_mu_validation_message():
    cfg = base_config(subcommand="correspondence",
                      parameters={"mu": "3/2", "N_set": [2, 3], "s_grid": ["0", "1/2"]})
    del cfg["sampler"]
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert "mu must lie in (0,1)" in str(info.value)


def test_rep_verify_refuses_top_exterior_power():
    cfg = base_config(subcommand="rep-verify",
                      parameters={"rep": {"kind": "exterior", "k": 2}})
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert "parameters.rep.k" in str(info.value)
    cfg["parameters"]["rep"]["k"] = 1
    assert parse_config(json.dumps(cfg)).parameters["rep"]["k"] == 1


def test_curve_shape_error_names_offending_block():
    cfg = base_config()
    cfg["curve"]["coeffs"][1] = [[1, 2]]
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert "curve.coeffs[1]" in str(info.value)


def test_sampled_subcommands_require_sampler():
    cfg = base_config()
    del cfg["sampler"]
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert "sampler" in str(info.value)


def test_genericity_defaults_filled():
    cfg = base_config(subcommand="genericity", parameters={})
    del cfg["sampler"]
    parsed = parse_config(json.dumps(cfg))
    assert parsed.parameters["m"] == 3  # 2 n^2 + 1
    assert parsed.parameters["tol"] == 1e-9
    assert parsed.parameters["s0"] == "1/2"


def test_rational_strings_survive_round_trip():
    cfg = base_config(subcommand="correspondence",
                      parameters={"mu": "9/10", "N_set": [2], "s_grid": ["1/3"]})
    del cfg["sampler"]
    parsed = parse_config(json.dumps(cfg))
    assert parsed.parameters["mu"] == "9/10"
    assert parse_config(serialize_config(parsed)) == parsed


def test_unknown_subcommand_rejected():
    with pytest.raises(ConfigError):
        parse_config(json.dumps(base_config(subcommand="teleport")))


def test_run_writes_envelopes(tmp_path):
    out = tmp_path / "res"
    cfg = parse_config(json.dumps(base_config(output=str(out))))
    records = run(cfg)
    lines = (tmp_path / "res.jsonl").read_text().splitlines()
    assert len(lines) == len(records) == 1
    envelope = json.loads(lines[0])
    assert envelope["experiment_id"] == "unit"
    assert envelope["status"] == "ok"
    assert envelope["config_hash"] == config_hash(cfg)
    assert envelope["payload"]["op"] == "siegel_average"
    assert "timestamp" in envelope


def test_main_ok_and_assert_cycle(tmp_path):
    out = tmp_path / "res"
    cfg_path = write_config(tmp_path, base_config(output=str(out)))
    assert main(["equidist", "--config", str(cfg_path)]) == EXIT_OK
    baseline = str(tmp_path / "res.jsonl")
    assert main(["equidist", "--config", str(cfg_path), "--assert", baseline]) == EXIT_OK

    drifted = base_config(output=str(out))
    drifted["sampler"]["seed"] = 99
    cfg2 = write_config(tmp_path, drifted, name="cfg2.json")
    assert main(["equidist", "--config", str(cfg2), "--assert", baseline]) == EXIT_ASSERT
    absent = str(tmp_path / "absent.jsonl")
    assert main(["equidist", "--config", str(cfg_path), "--assert", absent]) == EXIT_ASSERT


@pytest.mark.parametrize("baseline, message", [
    ("{}\nnot json\n", "baseline line 2 is not valid JSON: Expecting value"),
    ("{}\n\n{}\n", "record count 1 != baseline count 2"),
])
def test_compare_to_baseline_refusals(baseline, message):
    assert compare_to_baseline([{}], baseline) == message


def test_main_config_errors(tmp_path):
    assert main(["equidist", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["equidist", "--config", str(bad)]) == EXIT_CONFIG
    # subcommand on the command line must match the config body
    cfg_path = write_config(tmp_path, base_config(output=str(tmp_path / "r")))
    assert main(["nondiv", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_main_runtime_error(tmp_path, capsys):
    cfg = base_config(subcommand="genericity",
                      parameters={},
                      curve={"degree": 0, "coeffs": [[[1]]], "interval": ["0", "1"]})
    del cfg["sampler"]
    cfg["output"] = str(tmp_path / "r")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["genericity", "--config", str(cfg_path)]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def test_main_refuses_a_flow_time_outside_the_float_range(tmp_path, capsys):
    cfg = base_config(subcommand="nondiv", output=str(tmp_path / "r"),
                      parameters={"t_list": [1000.0], "eps": 0.05})
    path = write_config(tmp_path, cfg)
    assert main(["nondiv", "--config", str(path)]) == EXIT_RUNTIME
    assert "DomainError: flow time t = 1000.0 is outside" in capsys.readouterr().err


def strip_timestamps(text):
    recs = [json.loads(line) for line in text.splitlines()]
    for r in recs:
        del r["timestamp"]
    return [json.dumps(r, sort_keys=True) for r in recs]


def test_main_equidist_payload_matches_per_sample_loop(tmp_path):
    cfg = base_config(output=str(tmp_path / "a"))
    cfg["sampler"]["count"] = 100
    path = write_config(tmp_path, cfg)
    assert main(["equidist", "--config", str(path)]) == EXIT_OK
    payload = json.loads((tmp_path / "a.jsonl").read_text())["payload"]
    config = parse_config(json.dumps(cfg))
    obs = siegel_count((1.5, 1.5))
    values = [obs.evaluate(reference_basis(config.curve, s, 1.0))
              for s in config.sampler.points(config.curve.interval)]
    assert (payload["mean"], payload["stderr"]) == reference_mean_stderr(values)


def test_main_failing_sample_is_named(tmp_path, capsys):
    # phi(s) = -s reverses orientation: no sample can be normalized
    cfg = base_config(output=str(tmp_path / "r"))
    cfg["curve"]["coeffs"] = [[[0]], [[-1]]]
    cfg["parameters"]["normalize"] = True
    path = write_config(tmp_path, cfg)
    assert main(["equidist", "--config", str(path)]) == EXIT_RUNTIME
    s0 = Sampler(seed=7, count=25).point((0, 1), 0)
    assert f"OrientationError: sample (seed, index, s) = (7, 0, {s0!r})" in capsys.readouterr().err


def test_dirichlet_scan_writes_csv(tmp_path):
    cfg = base_config(subcommand="dirichlet-scan",
                      parameters={"mu": "1/2", "N_range": [2, 6],
                                  "s_grid": {"count": 5}},
                      output=str(tmp_path / "scan"))
    del cfg["sampler"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["dirichlet-scan", "--config", str(cfg_path)]) == EXIT_OK
    csv_text = (tmp_path / "scan.csv").read_text()
    assert csv_text.startswith("s,N,insoluble\n")
    assert len(csv_text.splitlines()) == 1 + 5 * 5
    payload = json.loads((tmp_path / "scan.jsonl").read_text().splitlines()[0])["payload"]
    assert payload["op"] == "improvability_scan"


def test_repeat_runs_byte_identical_modulo_timestamp(tmp_path):
    cfg = base_config(output=str(tmp_path / "r"))
    path = write_config(tmp_path, cfg)
    assert main(["equidist", "--config", str(path)]) == EXIT_OK
    first = (tmp_path / "r.jsonl").read_text()
    assert main(["equidist", "--config", str(path)]) == EXIT_OK
    second = (tmp_path / "r.jsonl").read_text()
    assert strip_timestamps(first) == strip_timestamps(second)


def test_plain_passes_builtins_through_and_converts_the_rest():
    # the typed scalars of a parse (s0, mu, s, an interval end): the rest of
    # a canonical config and every payload are built as JSON already
    from danilab.cli import _plain
    for x in (3, -2.5, "s", True, False, None, 2 ** 70):
        assert _plain(x) is x
    for x, text in ((Fraction(1, 3), "1/3"), (Fraction(-4), "-4"), (Fraction(6, 4), "3/2")):
        assert _plain(x) == text and type(_plain(x)) is str


QUADRATIC = {"degree": 2, "coeffs": [[[1]], [["1/2"]], [[2]]], "interval": ["0", "1"]}


def same_json(got, want):
    """got == want with exactly the same types at every level (nan == nan)."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, dict):
        assert list(got) == list(want)
        for key in got:
            same_json(got[key], want[key])
    elif isinstance(got, list):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            same_json(x, y)
    else:
        assert got == want or got != got and want != want, (got, want)


@pytest.mark.parametrize("subcommand, parameters, curve, sampled", [
    ("genericity", {"s0": "1/3"}, QUADRATIC, False),
    ("dirichlet-scan", {"mu": "1/2", "N_range": [2, 4], "s_grid": {"count": 3}}, None, False),
    ("correspondence", {"mu": "9/10", "N_range": [2, 4], "s_grid": ["0", "1/3", 0.25, 1]},
     None, False),
    ("equidist", {"t_list": [0.5, 1], "box": [1.5, 1.5]}, None, True),
    ("nondiv", {"t_list": [1.0], "eps": 0.5}, None, True),
    ("rep-verify", {"rep": {"kind": "adjoint"}, "r_list": [1, -0.5], "s0": "1/2"}, QUADRATIC,
     True),
    ("w-invariance", {"t_list": [1.0], "r": 1}, None, True),
])
def test_every_runner_returns_the_records_it_writes(subcommand, parameters, curve, sampled,
                                                     tmp_path):
    # no Fraction, tuple or numpy scalar anywhere: each returned record is
    # what json.loads reads back from its written line, type for type
    cfg = base_config(subcommand=subcommand, parameters=parameters,
                      output=str(tmp_path / "r"))
    if curve is not None:
        cfg["curve"] = curve
    if sampled:
        cfg["sampler"]["count"] = 5
    else:
        del cfg["sampler"]
    records = run(parse_config(json.dumps(cfg)))
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert len(lines) == len(records) >= 1
    for record, line in zip(records, lines):
        same_json(record, json.loads(line))


def test_write_jsonl_of_no_records_writes_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("stale\n")
    write_jsonl([], str(path))
    assert path.read_bytes() == b""


def test_write_jsonl_escapes_non_ascii_as_json_dumps_does(tmp_path):
    path = tmp_path / "r.jsonl"
    record = {"experiment_id": "düsseldorf-φ", "config_hash": "0" * 16, "status": "ok",
              "payload": {"note": "μ ≤ 1"}, "timestamp": "t"}
    write_jsonl([record], str(path))
    text = path.read_bytes().decode("ascii")
    assert '"experiment_id":"d\\u00fcsseldorf-\\u03c6"' in text
    assert text == json.dumps(record, separators=(",", ":")) + "\n"


def test_write_jsonl_is_json_dumps_per_record(tmp_path, monkeypatch):
    # records of two envelopes, a changed timestamp and records that are no
    # envelope at all: every line is json.dumps of its record
    def envelope(eid, stamp, payload):
        return {"experiment_id": eid, "config_hash": "abc", "status": "ok",
                "payload": payload, "timestamp": stamp}

    odd = "quote \" backslash \\ newline \n control \x01 s\u00e9 \U0001d11e"
    floats = [-0.0, 5e-324, 1e16, 1.5e300, float("nan"), -float("inf"), 0.1 + 0.2]
    records = [envelope("a", "t0", {"x": 1}), envelope("a", "t0", [0.1, None, True]),
               envelope("b", "t0", {}), envelope("b", "t1", "text"), {"payload": 1},
               {"timestamp": "t0", "experiment_id": "a", "config_hash": "abc",
                "status": "ok", "payload": 2},
               [1, 2], envelope("a", "t0", {"inf": float("inf")}),
               envelope("a", odd, {"floats": floats, "ints": [2 ** 70, -2 ** 70, 0, -1]}),
               envelope(odd, "t2", {odd: odd, "empty": [{}, [], [[]], {"a": {}}, ""]}),
               odd, -0.0, float("nan"), 2 ** 70, None, False, [], {}]
    expected = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
    path = tmp_path / "r.jsonl"
    write_jsonl(records, str(path))
    assert path.read_text() == expected
    # the C encoder is built once, not per record; without it the JSONEncoder
    # writes the same bytes in Python
    def refuse(*args):
        raise AssertionError("a C encoder was built per call")

    monkeypatch.setattr(json.encoder, "c_make_encoder", refuse)
    write_jsonl(records, str(path))
    assert path.read_text() == expected
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_C_ENCODER", None)
    write_jsonl(records, str(path))
    assert path.read_text() == expected
    monkeypatch.undo()
    import numpy as np

    written = path.read_bytes()
    for leftover in (Fraction(1, 2), np.int64(1), np.bool_(True)):  # not JSON-plain
        with pytest.raises(TypeError):
            write_jsonl([envelope("a", "t0", {"x": leftover})], str(path))
        assert path.read_bytes() == written  # refused before the file is opened


def test_run_over_longer_stale_outputs_leaves_exactly_the_new_bytes(tmp_path):
    cfg = base_config(subcommand="dirichlet-scan",
                      parameters={"mu": "1/2", "N_range": [2, 4], "s_grid": {"count": 3}},
                      output=str(tmp_path / "scan"))
    del cfg["sampler"]
    config = parse_config(json.dumps(cfg))
    jsonl, csv = tmp_path / "scan.jsonl", tmp_path / "scan.csv"
    run(config)
    fresh_csv = csv.read_bytes()
    for path in (jsonl, csv):
        path.write_bytes(b"stale line\n" * (path.stat().st_size // 4 + 100))
    records = run(config)
    assert jsonl.read_bytes() == "".join(json.dumps(rec, separators=(",", ":")) + "\n"
                                         for rec in records).encode("ascii")
    assert csv.read_bytes() == fresh_csv


def test_write_jsonl_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("stale\n" * 50)
    target.chmod(0o640)
    link.symlink_to(target)
    inode = target.stat().st_ino
    write_jsonl([{"payload": 1}], str(link))
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b'{"payload":1}\n'
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o640


def test_write_jsonl_writes_every_byte_of_short_writes(tmp_path, monkeypatch):
    write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    records = [{"payload": list(range(30))}, {"payload": "x" * 41}]
    path = tmp_path / "r.jsonl"
    path.write_text("stale\n" * 100)
    write_jsonl(records, str(path))
    want = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records).encode()
    assert path.read_bytes() == want
    assert sum(sizes) == len(want) and max(sizes) == 7


def dirichlet_config(**params):
    cfg = base_config(subcommand="correspondence",
                      parameters=dict({"mu": "1/2", "N_set": [2], "s_grid": ["0"]}, **params))
    del cfg["sampler"]
    return cfg


def test_parse_gives_typed_arguments():
    args = parse_config(json.dumps(base_config())).args
    assert args.t_list == (1.0,) and type(args.t_list[0]) is float
    assert args.box == (1.5, 1.5) and args.normalize is False
    cfg = dirichlet_config(s_grid={"count": 3})
    del cfg["parameters"]["N_set"]
    cfg["parameters"]["N_range"] = [2, 4]
    args = parse_config(json.dumps(cfg)).args
    assert args.mu == Fraction(1, 2) and args.N == (2, 3, 4)
    assert args.s_grid == (Fraction(0), Fraction(1, 2), Fraction(1))
    assert args.convention == "lattice_p_nonzero"
    cfg = base_config(subcommand="w-invariance", parameters={"t_list": [2]})
    parsed = parse_config(json.dumps(cfg))
    assert parsed.args.observable == kmu_indicator(0.7) and parsed.args.r == 1.0
    assert parsed.parameters["observable"] == {"kind": "kmu_indicator", "mu": 0.7}
    cfg = base_config(subcommand="rep-verify", parameters={"rep": {"kind": "exterior"}})
    parsed = parse_config(json.dumps(cfg))
    assert parsed.args.rep == exterior(1, 1) and parsed.args.s0 == Fraction(1, 2)
    assert parsed.parameters["rep"] == {"kind": "exterior", "k": 1}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_numbers_refused(literal, tmp_path):
    text = json.dumps(base_config(subcommand="nondiv", output=str(tmp_path / "r"),
                                  parameters={"t_list": [1.0], "eps": 0.125}))
    with pytest.raises(ConfigError) as info:
        parse_config(text.replace("0.125", literal))
    assert "non-finite" in str(info.value)
    cfg = base_config(output=str(tmp_path / "r"))
    cfg["curve"]["coeffs"] = [[[0.125]], [[1]]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace("0.125", literal))
    assert main(["equidist", "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "r.jsonl").exists()


HUGE = 10 ** 400  # an integer literal no double can hold


@pytest.mark.parametrize("subcommand, parameters, where", [
    ("nondiv", {"t_list": [1.0], "eps": HUGE}, "parameters.eps"),
    ("nondiv", {"t_list": [1.0, HUGE], "eps": 0.125}, "parameters.t_list[1]"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "kmu_indicator", "mu": HUGE}},
     "parameters.observable.mu"),
    ("w-invariance",
     {"t_list": [1.0], "observable": {"kind": "kmu_indicator", "mu": f"{HUGE}/3"}},
     "parameters.observable.mu"),
])
def test_integers_beyond_the_doubles_refused_by_name(subcommand, parameters, where, tmp_path):
    cfg = base_config(subcommand=subcommand, parameters=parameters, output=str(tmp_path / "r"))
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert str(info.value) == f"{where}: number too large for a float"
    assert main([subcommand, "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert not (tmp_path / "r.jsonl").exists()


# Each subcommand on the interval [0, HUGE]: refused by the field that reads
# an end as a float, or run (where None) when no end is read as a float.
@pytest.mark.parametrize("subcommand, parameters, where", [
    ("genericity", {}, "parameters.s0"),
    ("genericity", {"s0": 1}, "curve.interval"),
    ("rep-verify", {"rep": {"kind": "adjoint"}}, "parameters.s0"),
    ("rep-verify", {"rep": {"kind": "adjoint"}, "s0": 1}, None),
    ("dirichlet-scan", {"mu": "1/2", "N_set": [2], "s_grid": {"count": 3}}, "parameters.s_grid"),
    ("dirichlet-scan", {"mu": "1/2", "N_set": [2], "s_grid": {"count": 1}}, None),
    ("correspondence", {"mu": "1/2", "N_set": [2, 3], "s_grid": [0, "1/2"]}, None),
    ("equidist", {"t_list": [1.0], "box": [1.5, 1.5]}, "curve.interval"),
    ("nondiv", {"t_list": [1.0], "eps": 0.125}, "curve.interval"),
    ("w-invariance", {"t_list": [1.0]}, "curve.interval"),
])
def test_interval_end_beyond_the_doubles_refused_where_read_as_a_float(subcommand, parameters,
                                                                     where, tmp_path, capsys):
    cfg = base_config(subcommand=subcommand, parameters=parameters, output=str(tmp_path / "r"))
    cfg["curve"]["interval"] = [0, HUGE]
    if subcommand in ("genericity", "dirichlet-scan", "correspondence"):
        del cfg["sampler"]
    code = main([subcommand, "--config", str(write_config(tmp_path, cfg))])
    if where is None:
        assert code == EXIT_OK and (tmp_path / "r.jsonl").exists()
        return
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert str(info.value) == f"{where}: number too large for a float"
    assert code == EXIT_CONFIG and not (tmp_path / "r.jsonl").exists()
    assert capsys.readouterr().err == f"danilab: {where}: number too large for a float\n"


# Runs that evaluate the curve at a float s on the interval [0, HUGE]: s is
# compared with the exact ends, so each runs; on [HUGE, 2 HUGE], which holds
# no double, the same s is refused.
@pytest.mark.parametrize("subcommand, parameters, coeffs", [
    ("correspondence", {"mu": "1/2", "N_set": [2, 3], "s_grid": [0.5]}, [[[0]], [[1]]]),
    ("rep-verify", {"rep": {"kind": "adjoint"}, "s0": 0.5}, [[[0]], [[1]]]),
    ("rep-verify", {"rep": {"kind": "adjoint"}, "s0": 1}, [[[0.0]], [[1.0]]]),
])
def test_float_point_on_an_interval_beyond_the_doubles_runs(subcommand, parameters, coeffs,
                                                             tmp_path, capsys):
    cfg = base_config(subcommand=subcommand, parameters=parameters, output=str(tmp_path / "r"))
    cfg["curve"].update(coeffs=coeffs, interval=[0, HUGE])
    if subcommand == "correspondence":
        del cfg["sampler"]
    assert main([subcommand, "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    assert (tmp_path / "r.jsonl").exists()
    cfg["curve"]["interval"] = [HUGE, 2 * HUGE]
    cfg["output"] = str(tmp_path / "outside")
    assert main([subcommand, "--config", str(write_config(tmp_path, cfg))]) == EXIT_RUNTIME
    assert "outside the curve interval" in capsys.readouterr().err
    assert not (tmp_path / "outside.jsonl").exists()


@pytest.mark.parametrize("cfg, where", [
    (base_config(parameters={"t_list": [1.0], "box": [1.5, 1.5], "normalise": True}),
     "parameters.normalise"),
    (base_config(subcommand="rep-verify", parameters={"rep": {"kind": "adjoint", "k": 1}}),
     "parameters.rep.k"),
    (base_config(subcommand="rep-verify",
                 parameters={"rep": {"kind": "exterior", "k": 1, "power": 2}}),
     "parameters.rep.power"),
    (base_config(subcommand="w-invariance",
                 parameters={"t_list": [1.0], "observable": {"kind": "lambda1", "Mu": 0.5}}),
     "parameters.observable.Mu"),
    (dirichlet_config(s_grid={"count": 3, "endpoint": False}), "parameters.s_grid.endpoint"),
    (base_config(sampler={"seed": 7, "count": 25, "schem": "stratified_grid"}), "sampler.schem"),
    (base_config(curve={"degre": 1, "degree": 1, "coeffs": [[[0]], [[1]]],
                        "interval": ["0", "1"]}), "curve.degre"),
    (base_config(outputs="elsewhere"), "outputs"),
])
def test_unknown_fields_refused_by_name(cfg, where, tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert str(info.value) == f"{where}: unknown field"
    cfg = dict(cfg, output=str(tmp_path / "r"))
    assert main([cfg["subcommand"], "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert not (tmp_path / "r.jsonl").exists()


def curve_config(degree, coeffs, interval=("0", "1")):
    return base_config(curve={"degree": degree, "coeffs": coeffs, "interval": list(interval)})


@pytest.mark.parametrize("subcommand, parameters", [
    ("correspondence", {"mu": "1/2", "N_range": [2, 6], "s_grid": ["0", "1/3", "1/2", "1"]}),
    ("dirichlet-scan", {"mu": "1/2", "N_range": [2, 6], "s_grid": {"count": 3}}),
])
def test_exact_curve_beyond_the_doubles_runs_exactly(subcommand, parameters, tmp_path):
    # phi(s) = 1/3 + 10^400 (s^2 - s), no coefficient a double; at the scan's
    # s = 0, 1/2 and 1 it is 1/3 plus an integer, so the scan's rows agree
    cfg = curve_config(2, [[["1/3"]], [[-HUGE]], [[HUGE]]])
    cfg.update(subcommand=subcommand, parameters=parameters, output=str(tmp_path / "r"))
    del cfg["sampler"]
    config = parse_config(json.dumps(cfg))
    run(config)
    assert "_float_stacks" not in vars(config.curve)  # no coefficient was made a float
    assert main([subcommand, "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    payloads = [json.loads(line)["payload"]
                for line in (tmp_path / "r.jsonl").read_text().splitlines()]
    if subcommand == "correspondence":
        assert len(payloads) == 4 * 5 and all(p["agree"] for p in payloads)
    else:
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        insoluble = [row.split(",")[1:] for row in rows]
        assert len(rows) == 3 * 5 and insoluble[:5] == insoluble[5:10] == insoluble[10:]


@pytest.mark.parametrize("coeffs, interval", [
    ([[["1/3", "-2/7"], [5, "1"]], [["3/4", 0], ["1/8", "9/5"]]], ["1", "2"]),
    ([[["1/3", 0.25], [5, "1"]], [["3/4", 0], ["1/8", "9/5"]]], ["1", 2]),
])
def test_parse_and_hash_make_one_fraction_per_curve_number_at_most(coeffs, interval,
                                                                   monkeypatch):
    cfg = base_config(n=2, curve={"degree": 1, "coeffs": coeffs, "interval": interval},
                      parameters={"t_list": [1.0], "box": [1.5] * 4})
    text = json.dumps(cfg)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    cli.config_hash(parse_config(text))
    assert len(made) <= 2 * 2 * 2 + 2  # one per entry and end, at most


@pytest.mark.parametrize("cfg, message", [
    ([base_config()], "config root must be an object"),
    ({k: v for k, v in base_config().items() if k != "experiment_id"},
     "experiment_id: required field missing"),
    (base_config(n=0), "n: must be >= 1"),
    (base_config(output=""), "output: must be a nonempty path stem"),
    (curve_config(-1, []), "curve.degree: must be >= 0"),
    (curve_config(1, [[[1]]]), "curve.coeffs: expected degree+1 = 2 matrices, got 1"),
    (curve_config(1, [[[0]], [[1]]], ("0", "1/2", "1")), "curve.interval: expected [a, b]"),
    (curve_config(1, [[[0.5]], [[HUGE]]]), "curve.coeffs[1]: number too large for a float"),
    (curve_config(1, [[[f"{HUGE}/3"]], [[0.5]]]), "curve.coeffs[0]: number too large for a float"),
    (curve_config(0, [[[True]]]), "curve.coeffs[0]: expected int/float/str, got bool"),
    (curve_config(1, [[[0]], [[None]]]), "curve.coeffs[1]: expected int/float/str, got NoneType"),
    (curve_config(1, [[[0]], [["1/0"]]]), "curve.coeffs[1]: cannot parse rational '1/0'"),
    (curve_config(1, [[[0]], ["1"]]), "curve.coeffs[1]: coefficient of s^1 is not 1 x 1"),
    (curve_config(0, ["1"]), "curve.coeffs[0]: coefficient of s^0 is not 1 x 1"),
    (curve_config(0, [[[1, 0], [0, 1]]]), "curve.coeffs[0]: expected 1x1 row-major matrix"),
    (curve_config(0, [[[1]]], ("0", [1])), "curve.interval: expected int/float/str, got list"),
    (curve_config(0, [[[1]]], ("0", "one")), "curve.interval: cannot parse rational 'one'"),
    (curve_config(0, [[[1]]], ("1", 0.5)), "curve.interval: expected a < b, got [1, 0.5]"),
], ids=["root", "experiment_id", "n", "output", "degree", "coeffs", "interval",
        "float-entry-huge", "float-entry-huge-rational", "entry-bool", "entry-null",
        "entry-bad-rational", "row-not-list", "matrix-not-list", "n-mismatch",
        "interval-list-end", "interval-bad-rational", "interval-reversed"])
def test_config_refusals(cfg, message, tmp_path, capsys):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert str(info.value) == message
    assert main(["equidist", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, params, key", [
    ("genericity", {"tol": True}, "tol"),
    ("genericity", {"m": True}, "m"),
    ("genericity", {"s0": False}, "s0"),
    ("nondiv", {"t_list": [1.0], "eps": True}, "eps"),
    ("nondiv", {"t_list": [True], "eps": 0.1}, "t_list[0]"),
    ("equidist", {"t_list": [1.0], "box": [1.5, True]}, "box[1]"),
    ("w-invariance", {"t_list": [1.0], "r": True}, "r"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "kmu_indicator", "mu": True}},
     "observable.mu"),
    ("rep-verify", {"rep": {"kind": "exterior", "k": True}}, "rep.k"),
    ("rep-verify", {"rep": {"kind": "adjoint"}, "r_list": [1, True]}, "r_list[1]"),
    ("correspondence", {"mu": True, "N_set": [2], "s_grid": ["0"]}, "mu"),
    ("correspondence", {"mu": "1/2", "N_set": [True], "s_grid": ["0"]}, "N_set[0]"),
    ("correspondence", {"mu": "1/2", "N_range": [1, True], "s_grid": ["0"]}, "N_range[1]"),
    ("correspondence", {"mu": "1/2", "N_set": [2], "s_grid": {"count": True}}, "s_grid.count"),
])
def test_bools_refused_in_numeric_fields(subcommand, params, key):
    cfg = base_config(subcommand=subcommand, parameters=params)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert str(info.value).startswith(f"parameters.{key}: expected ")
    assert "got bool" in str(info.value)


@pytest.mark.parametrize("subcommand, params, message", [
    ("correspondence", {"mu": "1/2", "N_set": [2], "N_range": [2, 3], "s_grid": ["0"]},
     "parameters: give only one of N_set / N_range"),
    ("correspondence", {"mu": "1/2", "s_grid": ["0"]},
     "parameters.N_set / N_range: required field missing"),
    ("nondiv", {"t_list": [1.0]}, "parameters.eps: required field missing"),
    ("nondiv", {"t_list": [], "eps": 0.1}, "parameters.t_list: expected a nonempty list"),
    ("genericity", {"m": 1}, "parameters.m must be >= n^2 + 1"),
    ("equidist", {"t_list": [1.0], "box": [1.5, 1.5], "normalize": 1},
     "parameters.normalize: expected one of (False, True)"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "kmu_indicator", "mu": 1.5}},
     "parameters.observable: kmu_indicator needs mu in (0,1), got 1.5"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "lambda1", "mu": 0.5}},
     "parameters.observable: lambda1 takes no mu"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "siegel_count", "box": [1]}},
     "parameters.observable.box: expected a list of 2 entries"),
    ("rep-verify", {"rep": {"kind": "exterior", "k": 0}},
     "parameters.rep: exterior power k must lie in [1, 2], got 0"),
    ("correspondence",
     {"mu": "1/2", "N_set": [2], "s_grid": ["0"], "convention": "paper_both_nonzero"},
     "parameters.convention: expected one of ('lattice_p_nonzero',)"),
    ("correspondence", {"mu": "1/2", "N_range": [5, 2], "s_grid": ["0"]},
     "parameters.N_range: expected [lo, hi] with lo <= hi"),
    ("correspondence", {"mu": "1/0", "N_set": [2], "s_grid": ["0"]},
     "parameters.mu: cannot parse rational '1/0'"),
    ("correspondence", {"mu": "1/2", "N_set": [2], "s_grid": ["half"]},
     "parameters.s_grid[0]: cannot parse rational 'half'"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "lambda1_below"}},
     "parameters.observable: eps must be positive, got None"),
    ("w-invariance", {"t_list": [1.0], "observable": {"kind": "lambda1_below", "eps": 0.1}},
     "parameters.observable.eps: unknown field"),
])
def test_schema_refusals(subcommand, params, message, tmp_path, capsys):
    cfg = base_config(subcommand=subcommand, parameters=params, output=str(tmp_path / "r"))
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(cfg))
    assert str(info.value) == message
    assert main([subcommand, "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()
