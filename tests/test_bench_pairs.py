"""`tools/bench_pairs.py` on canned benchmark results: the order of the
runs, the refusal of a failed run and the summary lines. No benchmark runs."""

import importlib.util
import json
import os
import shutil

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result_line(run_s, work_per_s, correct=True, failed=0):
    metrics = {"setup_s": 0.2, "run_s": run_s, "work_per_s": work_per_s, "peak_rss_mb": 38.5}
    metrics = {name: {"value": value, "unit": "?"} for name, value in metrics.items()}
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics})


def test_the_side_that_runs_first_alternates():
    assert bench_pairs.run_order(3) == [(0, "parent"), (0, "change"), (1, "change"),
                                        (1, "parent"), (2, "parent"), (2, "change")]


@pytest.mark.parametrize("returncode, stdout, reason", [
    (1, result_line(1.0, 2.0, correct=False, failed=1), "exit 1, correct False, failed 1"),
    (0, result_line(1.0, 2.0, correct=False), "exit 0, correct False, failed 0"),
    (0, result_line(1.0, 2.0, failed=2), "exit 0, correct True, failed 2"),
    (3, result_line(1.0, 2.0), "exit 3, correct True, failed 0"),
    (2, "perfbench: no sources\n", "exit 2, no result line"),
    (0, "", "exit 0, no result line"),
])
def test_a_failed_run_is_refused(returncode, stdout, reason):
    with pytest.raises(bench_pairs.RefusedRun) as info:
        bench_pairs.read_result("pair 2 change", returncode, stdout)
    assert str(info.value) == f"pair 2 change: {reason}"


def test_a_good_run_gives_its_metrics():
    stdout = "perfbench: workload=orbit-n1 seed=1\n" + result_line(0.5, 180.0) + "\n"
    assert bench_pairs.read_result("x", 0, stdout) == {
        "setup_s": 0.2, "run_s": 0.5, "work_per_s": 180.0, "peak_rss_mb": 38.5}


def test_summary_reads_each_metric_in_its_direction():
    results = [{"parent": {"run_s": p, "work_per_s": 1 / p}, "change": {"run_s": c,
                                                                        "work_per_s": 1 / c}}
               for p, c in [(2.0, 1.0), (4.0, 2.0), (1.0, 1.0), (3.0, 4.0), (2.5, 2.0)]]
    assert bench_pairs.summarize(END_TO_END, results) == [
        "run_s: parent 2.5 -> change 2 s (x0.800, better in 3 of 5; lower is better; "
        "parent quartiles 1.5-3.5; worse beyond bound 0.25: no; gain shown: no)",
        "work_per_s: parent 0.4 -> change 0.5 1/s (x1.250, better in 3 of 5; higher is better; "
        "parent quartiles 0.291667-0.75; worse beyond bound 0.25: no; gain shown: no)"]
    one = bench_pairs.summarize(END_TO_END[:1], results[:1])
    assert one == ["run_s: parent 2 -> change 1 s (x0.500, better in 1 of 1; lower is better; "
                   "parent quartiles 2-2; worse beyond bound 0.25: no; gain shown: yes)"]


def verdicts(metric, parent, change):
    """The two verdicts that end the summary line of one metric."""
    results = [{"parent": {metric["name"]: p}, "change": {metric["name"]: c}}
               for p, c in zip(parent, change)]
    line = bench_pairs.summarize([metric], results)[0]
    worse = line.split("worse beyond bound ")[1].split(";")[0].split(": ")[1]
    return worse, line.split("gain shown: ")[1].rstrip(")")


@pytest.mark.parametrize("metric, parent, change, worse", [
    # more than the bound, a fraction of the parent's median, in the worse direction
    (END_TO_END[0], [1.0] * 3, [1.3] * 3, "yes"),
    (END_TO_END[0], [1.0] * 3, [1.2] * 3, "no"),
    (END_TO_END[0], [1.0] * 3, [0.5] * 3, "no"),
    (END_TO_END[1], [100.0] * 3, [74.0] * 3, "yes"),
    (END_TO_END[1], [100.0] * 3, [75.0] * 3, "no"),  # by exactly the bound
    (END_TO_END[1], [100.0] * 3, [200.0] * 3, "no"),
    ({"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
     [40.0, 41.0, 42.0], [45.2, 44.0, 46.0], "yes"),
    ({"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
     [40.0, 41.0, 42.0], [45.0, 45.0, 45.0], "no"),
])
def test_summary_says_whether_the_change_is_worse_beyond_the_bound(metric, parent, change,
                                                                    worse):
    assert verdicts(metric, parent, change)[0] == worse


# median 100, quartiles 98.875-101.125: a spread of 2.25
PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


@pytest.mark.parametrize("change, shown", [
    ([110.0] * 9 + [90.0], "yes"),          # 9 of 10 better, medians 10 apart
    ([110.0] * 8 + [90.0] * 2, "no"),       # 8 of 10 better
    ([103.0] * 10, "yes"),                  # 10 of 10, medians 3 apart: beyond 2.25
    ([102.2] * 10, "no"),                   # 10 of 10, medians 2.2 apart: not beyond
    ([x + 0.1 for x in PARENT], "no"),     # 10 of 10, a hair apart
    ([90.0] * 10, "no"),                    # worse
])
def test_summary_says_whether_a_gain_is_shown(change, shown):
    metric = END_TO_END[1]
    assert verdicts(metric, PARENT, change)[1] == shown
    # the runs mirrored about 100 and read as times, where lower is better
    times = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert verdicts(times, [200 - x for x in PARENT], [200 - x for x in change])[1] == shown


def canned_checkouts(tmp_path):
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = str(tmp_path / side)
        os.makedirs(dirs[side])
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dirs["change"])
    return dirs


def test_pairs_alternate_and_summarize_every_end_to_end_metric(tmp_path, capsys):
    dirs = canned_checkouts(tmp_path)
    side_of = {path: side for side, path in dirs.items()}
    calls = []

    def run(checkout, command, args):
        calls.append((side_of[checkout], command, args.workload, args.seed, args.seconds))
        run_s = 0.05 if side_of[checkout] == "change" else 0.06
        return 0, "perfbench: header\n" + result_line(run_s, 1000.0 + len(calls))

    argv = ["--parent", dirs["parent"], "--change", dirs["change"], "--workload", "orbit-n1",
            "--seed", "7", "--pairs", "4", "--seconds", "0.5"]
    assert bench_pairs.main(argv, run=run) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert all(c[1] == ["python3", "perfbench/run.py"] and c[2:] == ("orbit-n1", 7, 0.5)
               for c in calls)
    out = capsys.readouterr().out.splitlines()
    summary = out[out.index("orbit-n1, seed 7, 4 pairs of --seconds 0.5:") + 1:]
    assert [line.split(":")[0].strip() for line in summary] == [
        "setup_s", "run_s", "work_per_s", "peak_rss_mb"]
    # work_per_s rises with each run: the change, second in pairs 1 and 3, wins those
    assert "better in 2 of 4" in summary[2] and "better in 4 of 4" in summary[1]
    assert "better in 0 of 4" in summary[0] and "better in 0 of 4" in summary[3]


def test_a_refused_run_stops_the_series(tmp_path, capsys):
    dirs = canned_checkouts(tmp_path)
    calls = []

    def run(checkout, command, args):
        calls.append(checkout)
        if len(calls) == 3:
            return 1, result_line(0.06, 1000.0, correct=False, failed=1)
        return 0, result_line(0.06, 1000.0)

    argv = ["--parent", dirs["parent"], "--change", dirs["change"], "--workload", "orbit-n1"]
    assert bench_pairs.main(argv, run=run) == 1
    assert calls == [dirs["parent"], dirs["change"], dirs["change"]]
    assert capsys.readouterr().err == ("bench_pairs: refused pair 2 change: exit 1, "
                                       "correct False, failed 1\n")
