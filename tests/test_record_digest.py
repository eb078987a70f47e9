"""Smoke test of `tools/record_digest.py` on one committed config, and its
digest of every committed config run over stale outputs."""

import hashlib
import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

_spec = importlib.util.spec_from_file_location(
    "record_digest", os.path.join(ROOT, "tools", "record_digest.py"))
record_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_digest)
COMMITTED = dict(record_digest.committed_configs())


def test_digest_line_of_a_committed_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = "configs/dirichlet-scan.json"
    config = COMMITTED[name]
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


@pytest.mark.parametrize("name", list(COMMITTED))
def test_a_run_over_longer_stale_outputs_digests_as_a_fresh_run(name, tmp_path, monkeypatch):
    """The digest removes old outputs before each run; here `cli.run` finds a
    longer junk file at each output it writes and must leave the same bytes
    as a run into an empty directory."""
    monkeypatch.chdir(tmp_path)
    config = COMMITTED[name]
    fresh = record_digest.digest(name, config)
    stale = [config["output"] + ".jsonl"]
    if len(fresh.split(" ")) == 4:  # the config writes a .csv too
        stale.append(config["output"] + ".csv")
    junk = {path: b"junk\n" * (os.path.getsize(path) // 5 + 1000) for path in stale}
    run = record_digest.cli.run

    def run_over_junk(parsed):
        for path, data in junk.items():
            with open(path, "wb") as fh:
                fh.write(data)
        return run(parsed)

    monkeypatch.setattr(record_digest.cli, "run", run_over_junk)
    assert record_digest.digest(name, config) == fresh
