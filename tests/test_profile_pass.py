"""Smoke tests of `tools/profile_pass.py` on the rep-genericity workload: a
whole pass, one family of its configs, and a reader that closes the output
after one line; and, on orbit-n1's nondivergence family, the float LLL its
header names."""

import fcntl
import importlib.util
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

_spec = importlib.util.spec_from_file_location(
    "profile_pass", os.path.join(ROOT, "tools", "profile_pass.py"))
profile_pass = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_pass)


def test_profile_of_one_rep_genericity_pass(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert profile_pass.main(["--workload", "rep-genericity", "--seed", "7", "--top", "6",
                              "--sort", "cumtime"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = re.match(r"rep-genericity, seed 7, (\d+) configs: unprofiled pass median ([\d.]+) s "
                    r"over 5 passes \([\d.]+-[\d.]+ s, unscaled\), parse_config \+ config_hash "
                    r"median ([\d.]+) s \(([\d.]+) us per config\); profiled pass [\d.]+ s",
                    lines[0])
    assert head
    configs, pass_s, config_s, per_config_us = map(float, head.groups())
    # the config layer is a part of the pass, and its per-config figure is
    # its time over the configs, to the rounding of the two printed figures
    assert 0 < config_s < pass_s
    assert abs(per_config_us * configs * 1e-6 - config_s) <= 5e-5 + 5e-8 * configs
    assert lines[1] == "top 6 by cumtime; shares are of the profiled pass:"
    assert lines[2].split() == ["ncalls", "tottime", "share", "cumtime", "share", "function"]
    rows = lines[3:]
    assert len(rows) == 6
    cumtimes = [float(row.split()[3]) for row in rows]
    assert cumtimes == sorted(cumtimes, reverse=True)
    # the pass itself leads by cumulative time: every share is of its time
    assert rows[0].endswith("(run_pass)") and rows[0].split()[4] == "100.0%"
    assert any("src/danilab/cli.py" in row for row in rows)
    assert os.listdir(tmp_path) == []  # the runs wrote into a directory of their own


def test_profile_of_one_family_runs_only_its_configs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run = []
    monkeypatch.setattr(profile_pass.cli, "run", lambda config: run.append(config.experiment_id))
    assert profile_pass.main(["--workload", "rep-genericity", "--family", "genericity-n1",
                              "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"rep-genericity, seed 1, family genericity-n1, 4 configs: unprofiled pass "
                    r"median [\d.]+ s over 5 passes", lines[0])
    assert len(lines) == 3 + 3
    # one warm, five unprofiled and one profiled pass, each of the family's 4 configs
    assert run == ["genericity-n1"] * 4 * 7
    assert os.listdir(tmp_path) == []


def test_profile_refuses_a_family_the_workload_lacks(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        profile_pass.main(["--workload", "rep-genericity", "--family", "correspondence-n1"])
    assert info.value.code == 2
    assert "'correspondence-n1' is not among the workload's families" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_profile_header_names_the_float_lll(tmp_path, monkeypatch, capsys, float_lll):
    monkeypatch.chdir(tmp_path)
    assert profile_pass.main(["--workload", "orbit-n1", "--family", "nondiv-n1", "--top", "1"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert re.match(r"orbit-n1, seed 1, family nondiv-n1, 4 configs: unprofiled pass median ",
                    header)
    backend = profile_pass.lattice.float_lll_backend()
    assert header.endswith(f" s; float LLL: {backend}")
    if float_lll == "compiled":
        assert backend.endswith(".so") and os.path.isfile(backend)
    else:
        assert backend == "python: switched off by a test"


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a resizable pipe")
def test_profile_into_a_pipe_closed_after_one_line_ends_quietly(tmp_path):
    # as `| head -1`: the pipe holds one page, so the script is still
    # writing its rows when the reader closes it after the first line
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "tools", "profile_pass.py"), "--workload",
         "rep-genericity", "--family", "genericity-n1", "--top", "100000"],
        stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path,
        env={**os.environ, "PYTHONUNBUFFERED": "1"})
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_end, 1)
        assert byte, "the script printed no line"
        line += byte
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert line.startswith(b"rep-genericity, seed 1, family genericity-n1, 4 configs:")
    assert err == b""
    assert proc.returncode == 1
