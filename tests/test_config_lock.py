"""Regression lock of the canonical config: every entry of
`tests/baselines/config_hashes.json` (the seven `configs/*.json` and edge
configs for each default and alternate form of every subcommand's
parameters) must parse to the committed `serialize_config` bytes and
`config_hash`, so the hash stamped on every record cannot move silently."""

import json
import os

import pytest

from danilab import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

with open(os.path.join(HERE, "baselines", "config_hashes.json"), encoding="utf-8") as _fh:
    ENTRIES = json.load(_fh)


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_config_serializes_to_locked_bytes_and_hash(entry):
    parsed = cli.parse_config(json.dumps(entry["config"]))
    assert cli.serialize_config(parsed) == entry["serialized"]
    assert cli.config_hash(parsed) == entry["config_hash"]
    assert cli.parse_config(entry["serialized"]) == parsed


def test_lock_covers_the_committed_configs():
    names = {e["name"] for e in ENTRIES}
    committed = sorted(os.listdir(os.path.join(ROOT, "configs")))
    assert len(committed) == 7
    for fname in committed:
        assert f"configs/{fname}" in names
        entry = next(e for e in ENTRIES if e["name"] == f"configs/{fname}")
        with open(os.path.join(ROOT, "configs", fname), encoding="utf-8") as fh:
            assert json.load(fh) == entry["config"]
