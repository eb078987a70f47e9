"""Regression lock of the exact outputs: `configs/correspondence.json` and
`configs/dirichlet-scan.json`, and the float-literal configs kept next to
their baselines (`float-correspondence.json`, `float-scan.json`: float curve
coefficients, s values and mu, each read as the dyadic rational it stores),
run through `cli.run` from a scratch working directory (so `output` and
`config_hash` are those of the committed configs), must reproduce the
committed records in `tests/baselines/` (witnesses included) up to
timestamps, and the scan's CSV table byte for byte."""

import os

import pytest

from danilab import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def config_path(name):
    """A committed config, or a lock-only one kept next to its baseline."""
    path = os.path.join(ROOT, "configs", name)
    return path if os.path.exists(path) else os.path.join(BASELINES, name)


@pytest.mark.parametrize("config, baseline, table", [
    ("correspondence.json", "correspondence.jsonl", None),
    ("dirichlet-scan.json", "scan.jsonl", "scan.csv"),
    ("float-correspondence.json", "float-correspondence.jsonl", None),
    ("float-scan.json", "float-scan.jsonl", "float-scan.csv"),
])
def test_exact_config_reproduces_committed_baseline(config, baseline, table, tmp_path,
                                                    monkeypatch):
    parsed = cli.parse_config(read(config_path(config)))
    monkeypatch.chdir(tmp_path)
    records = cli.run(parsed)
    assert cli.compare_to_baseline(records, read(os.path.join(BASELINES, baseline))) is None
    assert read(parsed.output + ".jsonl").count("\n") == len(records)
    if table is not None:
        with open(parsed.output + ".csv", "rb") as got, \
                open(os.path.join(BASELINES, table), "rb") as want:
            assert got.read() == want.read()
