"""danilab benchmark: seeded workloads driven through the public CLI API.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout that holds `src/danilab`. Each workload is a list of
experiment configs generated from the seed (see workloads.py). A pass calls
`danilab.cli.parse_config` and `danilab.cli.run` on every config in order,
in one process and one thread, as a closed loop. Passes repeat until
`--seconds` is used up (at least three). Every run's output is checked
(checks.py); with the default seed its integer payloads must also match
reference.json. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` (config runs) and `metrics`. The exit code is 1 when
an output check failed and 2 when the sources are missing.

--trace 0 reports the end-to-end metrics:
  setup_s      median over 5 fresh interpreters of: import danilab, generate
               and parse the configs, run one small warm-up config
  run_s        median time of one pass (parse and run of every config)
  work_per_s   work units of one pass / run_s; a unit is an orbit observable
               evaluation (orbit-*), a (phi, N, mu) cell (exact-dirichlet) or a
               config run (rep-genericity)
  peak_rss_mb  peak resident memory of the benchmark process

The speed of a shared virtual machine drifts by tens of percent over
minutes. A fixed calibration kernel that never calls danilab runs before
every config; each pass's time (and each set-up time) is rescaled by
CAL_NOMINAL_S / kernel time, i.e. reported in seconds at one fixed machine
speed. Unscaled pass time and kernel time are per-layer metrics.

--trace 1 spends half the time on untraced passes (timing each config run
per family: `cli.run.<family>.s`) and half on passes with spans installed
(tracing.py). Per span `<module>.<function>`: `.calls`, `.self_s` and
`.failed` per pass, `.ms_p50` and `.ms_tail` per call. Derived figures:
`lattice.reduce.ms_per_call.n<n>` replays `danilab.lattice.reduce` on the
orbit bases of the first traced pass, outside any span, and
`lattice.enum_share.n<n>` is 1 - (replayed LLL time / float lattice query
time) at n. `trace.overhead_s` is traced minus untraced run_s;
`trace.uncovered_frac` is the share of traced pass time no span covers.
Counts (`.calls`, `vectors_per_call`, `witness_frac`) repeat exactly for a
seed.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_PROBES = 5
MIN_PASSES = 3
# Calibration kernel time at the reference machine speed (a 2-vCPU Xeon VM
# at 2.0 GHz, Python 3.11, numpy 2.4). Times reported in seconds are
# rescaled to that speed; see calibration_kernel().
CAL_NOMINAL_S = 0.0023

END_TO_END = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
SPAN_SUFFIXES = {"calls": "calls/pass", "self_s": "s/pass", "ms_p50": "ms", "ms_tail": "ms",
                 "failed": "calls/pass"}


def per_layer_units() -> dict:
    units = {f"{name}.{suffix}": unit for name in tracing.SPAN_NAMES
             for suffix, unit in SPAN_SUFFIXES.items()}
    for n in (1, 2, 3):
        units[f"lattice.reduce.ms_per_call.n{n}"] = "ms"
        units[f"lattice.enum_share.n{n}"] = "ratio"
    units.update({
        "lattice.count_in_box.vectors_per_call": "vectors/call",
        "dirichlet.solvable.witness_frac": "ratio",
        "cli.write_jsonl.bytes": "bytes/pass",
        "trace.overhead_s": "s",
        "trace.uncovered_frac": "ratio",
        "harness.run_wall_s": "s",
        "harness.kernel_ms": "ms",
        "ops_failed_frac": "ratio",
    })
    for workload in workloads.WORKLOADS:
        for family in workloads.FAMILIES[workload]:
            units[f"cli.run.{family}.s"] = "s/pass"
    return units


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "danilab", "cli.py")):
        print(f"perfbench: no danilab sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def load_danilab():
    """Import danilab from this checkout's sources, never from elsewhere."""
    require_sources()
    sys.path.insert(0, SRC)
    import danilab.cli
    return danilab


def prepare(workload, seed, out_dir):
    """Import, generate and parse the configs, and run the warm-up config;
    this is what `setup_s` times."""
    danilab = load_danilab()
    cli = danilab.cli
    configs = workloads.generate(workload, seed, out_dir)
    texts = [json.dumps(cfg) for cfg in configs]
    for text in texts:
        cli.parse_config(text)
    cli.run(cli.parse_config(json.dumps(workloads.warm_config(workload, seed, out_dir))))
    return danilab, configs, texts


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def calibration_kernel():
    """Fixed work that never calls danilab: interpreter loops, dict and
    Fraction arithmetic, small numpy calls, the mix danilab runs on."""
    import numpy as np
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i)
    table = {}
    for i in range(500):
        table[(i, i % 5)] = [i, i + 1]
    m = np.arange(16.0).reshape(4, 4) + 20 * np.eye(4)
    x = 0.0
    for _ in range(150):
        x += float(np.linalg.det(m @ m))
    return acc, f, len(table), x


def speed_scale(kernel_s):
    """Factor that rescales a time taken while the kernel took `kernel_s`
    to the reference machine speed, at which the kernel takes CAL_NOMINAL_S."""
    return CAL_NOMINAL_S / kernel_s


def run_pass(cli, texts, tracer=None):
    """One closed-loop pass over the configs, the calibration kernel before
    each. Returns the pass time (parse and run of every config, kernel
    excluded), the mean kernel time, and per config (run seconds, records,
    error, traced invariant breaks)."""
    results = []
    busy = kernel = 0.0
    for text in texts:
        k0 = perf_counter()
        calibration_kernel()
        t0 = perf_counter()
        kernel += t0 - k0
        broken = tracer.violations if tracer else 0
        try:
            config = cli.parse_config(text)
            t1 = perf_counter()
            records = cli.run(config)
            results.append([perf_counter() - t1, records, None])
        except Exception as exc:  # a failed run is counted, never retried
            results.append([perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"])
        busy += perf_counter() - t0
        results[-1].append((tracer.violations - broken) if tracer else 0)
    return busy, kernel / len(texts), results


def timed_passes(cli, texts, seconds, min_passes, after_pass, tracer=None):
    """Passes until `seconds` would be exceeded (at least `min_passes`).
    Returns per pass (seconds, seconds at the reference speed, kernel s)."""
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        busy, kernel, results = run_pass(cli, texts, tracer)
        scale = speed_scale(kernel)
        passes.append((busy, busy * scale, kernel))
        after_pass(results, scale)
        now = perf_counter()
        if len(passes) >= min_passes and now - start + (now - pass_start) > seconds:
            return passes


def recorder(tally, configs):
    def after_pass(results, scale=None):
        for i, (cfg, (_, records, error, broken)) in enumerate(zip(configs, results)):
            extra = [f"{broken} traced lattice results break parity or Minkowski"] if broken else []
            tally.record(i, cfg, records, error, extra)
    return after_pass


def end_to_end(danilab, configs, texts, tally, seconds, setup_s):
    passes = timed_passes(danilab.cli, texts, seconds, MIN_PASSES, recorder(tally, configs))
    run_s = statistics.median(p[1] for p in passes)
    units = sum(workloads.work_units(cfg) for cfg in configs)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "work_per_s": units / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(danilab, configs, texts, tally, seconds):
    check = recorder(tally, configs)
    family_s = defaultdict(list)

    def untraced(results, scale):
        check(results)
        per_family = defaultdict(float)
        for cfg, result in zip(configs, results):
            per_family[cfg["experiment_id"]] += result[0] * scale
        for family, s in per_family.items():
            family_s[family].append(s)

    plain = timed_passes(danilab.cli, texts, seconds / 2, 2, untraced)
    tracer = tracing.Tracer()

    def traced(results, scale):
        tracer.capture = False
        check(results)

    tracer.install(danilab)
    try:
        traced_passes = timed_passes(danilab.cli, texts, seconds / 2, 2, traced, tracer)
    finally:
        tracer.remove()
    replay = tracer.replay_reduce(danilab.lattice.reduce)

    passes = len(traced_passes)
    m = {}
    for name, span in tracer.spans.items():
        d = span.durations
        m[f"{name}.calls"] = len(d) / passes
        m[f"{name}.self_s"] = span.self_s / passes
        m[f"{name}.ms_p50"] = statistics.median(d) * 1e3 if d else 0.0
        m[f"{name}.ms_tail"] = tracing.tail_ms(d)
        m[f"{name}.failed"] = span.failed / passes
    for n in (1, 2, 3):
        ms, calls = replay.get(n, 0.0), tracer.orbit_calls.get(n, 0)
        lattice_ms = tracer.orbit_s.get(n, 0.0) * 1e3
        m[f"lattice.reduce.ms_per_call.n{n}"] = ms
        m[f"lattice.enum_share.n{n}"] = 1 - ms * calls / lattice_ms if lattice_ms else 0.0
    boxes = len(tracer.spans["lattice.count_in_box"].durations)
    solves = len(tracer.spans["dirichlet.solvable"].durations)
    m["lattice.count_in_box.vectors_per_call"] = tracer.vectors / boxes if boxes else 0.0
    m["dirichlet.solvable.witness_frac"] = tracer.witnesses / solves if solves else 0.0
    m["cli.write_jsonl.bytes"] = tracer.jsonl_bytes / passes
    m["trace.overhead_s"] = (statistics.median(p[1] for p in traced_passes)
                             - statistics.median(p[1] for p in plain))
    m["trace.uncovered_frac"] = 1 - tracer.top_s / sum(p[0] for p in traced_passes)
    m["harness.run_wall_s"] = statistics.median(p[0] for p in plain)
    m["harness.kernel_ms"] = statistics.median(p[2] for p in plain) * 1e3
    m["ops_failed_frac"] = tally.ops_failed_frac
    for families in workloads.FAMILIES.values():
        for family in families:
            times = family_s.get(family)
            m[f"cli.run.{family}.s"] = statistics.median(times) if times else 0.0
    return m


def fingerprint():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import numpy
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} commit={commit}")


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def write_reference(danilab, configs, texts, workload):
    """Run one pass, require it to pass every check, and store its integer
    payloads as the workload's reference for the default seed."""
    tally = checks.Tally(log=lambda msg: print(f"perfbench: FAIL {msg}", file=sys.stderr))
    _, _, results = run_pass(danilab.cli, texts)
    recorder(tally, configs)(results)
    if tally.failed:
        return 1
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["workloads"][workload] = [checks.integer_payload(cfg, records, checks.read_csv(cfg))
                                  for cfg, (_, records, _, _) in zip(configs, results)]
    blocks = []
    for name in sorted(ref["workloads"]):
        rows = ",\n".join("  " + checks.canonical(row) for row in ref["workloads"][name])
        blocks.append(f" {json.dumps(name)}: [\n{rows}\n ]")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {ref["seed"]}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")
    return 0


def run_all(args):
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        print(f"perfbench: workload={workload} exit={proc.returncode}")
        sys.stdout.write(proc.stdout)
        code = max(code, proc.returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the integer payloads of the default seed in reference.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    require_sources()

    out_dir = os.path.join(HERE, "_out", f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            t0 = perf_counter()
            prepare(args.workload, args.seed, out_dir)
            setup = perf_counter() - t0
            kernel = []
            for _ in range(5):
                k0 = perf_counter()
                calibration_kernel()
                kernel.append(perf_counter() - k0)
            print(setup * speed_scale(statistics.median(kernel)))
            return 0
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                sys.exit(f"perfbench: the reference is for --seed {DEFAULT_SEED}")
            return write_reference(*prepare(args.workload, args.seed, out_dir), args.workload)

        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        danilab, configs, texts = prepare(args.workload, args.seed, out_dir)
        print(f"perfbench: workload={args.workload} seed={args.seed} {fingerprint()}")
        tally = checks.Tally(load_reference(args.workload, args.seed),
                             log=lambda msg: print(f"perfbench: FAIL {msg}", file=sys.stderr))
        if args.trace:
            metrics, units = per_layer(danilab, configs, texts, tally, args.seconds), \
                per_layer_units()
        else:
            metrics, units = end_to_end(danilab, configs, texts, tally, args.seconds,
                                        setup_s), END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
