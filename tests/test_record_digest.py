"""Smoke test of `tools/record_digest.py` on one committed config."""

import hashlib
import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

_spec = importlib.util.spec_from_file_location(
    "record_digest", os.path.join(ROOT, "tools", "record_digest.py"))
record_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_digest)


def test_digest_line_of_a_committed_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = "configs/dirichlet-scan.json"
    config = dict(record_digest.committed_configs())[name]
    line = record_digest.digest(name, config)
    with open(os.path.join(HERE, "baselines", "config_hashes.json"), encoding="utf-8") as fh:
        locked = next(e["config_hash"] for e in json.load(fh) if e["name"] == name)
    with open(config["output"] + ".csv", "rb") as fh:
        csv_sha = hashlib.sha256(fh.read()).hexdigest()
    fields = line.split(" ")
    assert fields[:2] == [name, locked] and fields[3:] == [csv_sha]
    # a second run stamps new timestamps, which the digest blanks
    with open(config["output"] + ".jsonl", encoding="utf-8") as fh:
        stamps = [json.loads(row)["timestamp"] for row in fh]
    assert record_digest.digest(name, config) == line
    with open(config["output"] + ".jsonl", encoding="utf-8") as fh:
        assert [json.loads(row)["timestamp"] for row in fh] != stamps
