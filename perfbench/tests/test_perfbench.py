"""Tests of the benchmark itself: metric names, generator, checks, tracer.

    python -m pytest perfbench/tests -q
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads
from danilab import cli

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path)


def _run(cfg):
    return cli.run(cli.parse_config(json.dumps(cfg)))


def test_metric_names_and_units_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded_and_parses(workload, out_dir):
    first = workloads.generate(workload, 7, out_dir)
    assert first == workloads.generate(workload, 7, out_dir)
    assert first != workloads.generate(workload, 8, out_dir)
    families = set()
    for cfg in first + [workloads.warm_config(workload, 7, out_dir)]:
        parsed = cli.parse_config(json.dumps(cfg))
        assert "threads" not in json.dumps(cfg)
        assert parsed.output.startswith(out_dir)
        families.add(cfg["experiment_id"])
    assert families == set(workloads.FAMILIES[workload])
    assert all(workloads.work_units(cfg) >= 1 for cfg in first)


def _small(workload, subcommand, out_dir):
    """The first config of a subcommand, shrunk so the test stays quick."""
    cfg = next(c for c in workloads.generate(workload, 3, out_dir)
               if c["subcommand"] == subcommand)
    cfg = copy.deepcopy(cfg)
    if "sampler" in cfg:
        cfg["sampler"]["count"] = 8
    if subcommand == "correspondence":
        cfg["parameters"].update(N_range=[2, 6], s_grid=["0", "1/37", "1/2"])
    return cfg


CORRUPTIONS = {
    "equidist": lambda pl: pl.update(mean=pl["mean"] + 1 / pl["M"]),  # odd Siegel total
    "nondiv": lambda pl: pl.update(mean=1.25),
    "w-invariance": lambda pl: pl.update(mean_base=-0.5),
    "correspondence": lambda pl: pl.update(agree=False),
    "rep-verify": lambda pl: pl.update(max_transport_residual=1e-3),
    "genericity": lambda pl: pl.update(affine_rank=pl["affine_rank"] + 5),
}


@pytest.mark.parametrize("workload,subcommand", [
    ("orbit-n1", "equidist"), ("orbit-n1", "nondiv"), ("orbit-n1", "w-invariance"),
    ("exact-dirichlet", "correspondence"), ("rep-genericity", "rep-verify"),
    ("rep-genericity", "genericity"),
])
def test_corrupted_payload_raises_ops_failed_frac(workload, subcommand, out_dir):
    cfg = _small(workload, subcommand, out_dir)
    records = _run(cfg)
    tally = checks.Tally()
    assert tally.record(0, cfg, records)
    assert tally.ops_failed_frac == 0.0
    bad = copy.deepcopy(records)
    CORRUPTIONS[subcommand](bad[0]["payload"])
    assert not tally.record(1, cfg, bad)
    assert tally.ops_failed_frac == 0.5


def test_lambda1_above_minkowski_bound_fails(out_dir):
    cfg = next(c for c in workloads.generate("orbit-n23", 3, out_dir)
               if c["experiment_id"] == "w-invariance-n3")
    cfg = dict(cfg, sampler=dict(cfg["sampler"], count=1))
    records = _run(cfg)
    assert checks.problems(cfg, records) == []
    records[0]["payload"]["mean_translated"] = 1.5
    assert checks.problems(cfg, records)


def test_output_drift_and_reference_mismatch_fail(out_dir):
    cfg = _small("orbit-n1", "equidist", out_dir)
    records = _run(cfg)
    ints = checks.integer_payload(cfg, records)
    assert all(isinstance(x, int) and x % 2 == 0 for x in ints)
    tally = checks.Tally(reference=[ints])
    assert tally.record(0, cfg, records)
    drifted = copy.deepcopy(records)
    drifted[0]["payload"]["stderr"] += 1e-3
    assert not tally.record(0, cfg, drifted)
    off = checks.Tally(reference=[[x + 2 for x in ints]])
    assert not off.record(0, cfg, records)
    failing = checks.Tally()
    assert not failing.record(0, cfg, None, error="DegenerateInputError: box too large")
    assert failing.ops_failed_frac == 1.0


def test_reference_covers_every_config_of_the_default_seed(out_dir):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    assert ref["seed"] == run.DEFAULT_SEED
    for workload in workloads.WORKLOADS:
        assert len(ref["workloads"][workload]) == len(
            workloads.generate(workload, run.DEFAULT_SEED, out_dir))


def test_tracer_spans_nest_and_remove_cleanly(out_dir):
    import danilab
    originals = {name: getattr(danilab.stats, name) for name in ("orbit_point", "count_in_box")}
    cfg = _small("orbit-n1", "equidist", out_dir)
    tracer = tracing.Tracer()
    tracer.install(danilab)
    try:
        records = danilab.cli.run(danilab.cli.parse_config(json.dumps(cfg)))
    finally:
        tracer.remove()
    assert {name: getattr(danilab.stats, name) for name in originals} == originals
    spans = tracer.spans
    samples = cfg["sampler"]["count"] * len(cfg["parameters"]["t_list"])
    assert len(spans["flow.orbit_point"].durations) == samples
    assert len(spans["lattice.count_in_box"].durations) == samples
    assert len(spans["cli.run"].durations) == 1
    assert tracer.vectors == sum(checks.integer_payload(cfg, records))
    assert tracer.violations == 0
    assert 0 <= spans["cli.run"].self_s < spans["cli.run"].durations[0]
    top = spans["cli.run"].durations + spans["cli.parse_config"].durations
    assert tracer.top_s == pytest.approx(sum(top))


def test_missing_call_site_reports_zero_calls():
    class Stub:
        pass

    package = Stub()
    package.stats = Stub()  # no orbit_point, count_in_box, ...
    tracer = tracing.Tracer()
    tracer.install(package)
    tracer.remove()
    assert all(not span.durations for span in tracer.spans.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_ms([]) == 0.0
    assert tracing.tail_ms([0.001] * 50 + [0.002]) == pytest.approx(2.0)
    durations = [i / 1000 for i in range(1000)]
    assert tracing.tail_ms(durations) == pytest.approx(990.0)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "checks.py", "tracing.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(run.HERE, name)).read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit-n1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
