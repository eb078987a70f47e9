import json
from fractions import Fraction

import pytest

from danilab.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME,
                         ConfigError, config_hash, main, parse_config, run,
                         serialize_config)


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


def test_main_config_errors(tmp_path):
    assert main(["equidist", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["equidist", "--config", str(bad)]) == EXIT_CONFIG
    # subcommand on the command line must match the config body
    cfg_path = write_config(tmp_path, base_config(output=str(tmp_path / "r")))
    assert main(["nondiv", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert main(["equidist", "--config", str(cfg_path), "--threads", "0"]) == EXIT_CONFIG


def test_main_runtime_error(tmp_path, capsys):
    cfg = base_config(subcommand="genericity",
                      parameters={},
                      curve={"degree": 0, "coeffs": [[[1]]], "interval": ["0", "1"]})
    del cfg["sampler"]
    cfg["output"] = str(tmp_path / "r")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["genericity", "--config", str(cfg_path)]) == EXIT_RUNTIME
    assert "runtime error" in capsys.readouterr().err


def strip_timestamps(text):
    recs = [json.loads(line) for line in text.splitlines()]
    for r in recs:
        del r["timestamp"]
    return [json.dumps(r, sort_keys=True) for r in recs]


def test_main_thread_count_keeps_payloads_identical(tmp_path):
    cfg = base_config(output=str(tmp_path / "a"))
    cfg["sampler"]["count"] = 100
    path = write_config(tmp_path, cfg)
    assert main(["equidist", "--config", str(path), "--threads", "1"]) == EXIT_OK
    serial = (tmp_path / "a.jsonl").read_text()
    assert main(["equidist", "--config", str(path), "--threads", "4"]) == EXIT_OK
    threaded = (tmp_path / "a.jsonl").read_text()
    assert strip_timestamps(serial) == strip_timestamps(threaded)


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
