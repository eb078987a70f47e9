"""Print where one pass of a benchmark workload spends its time.

    python tools/profile_pass.py --workload W [--seed S --family F --top N
                                  --sort tottime|cumtime]

A pass runs `danilab.cli.parse_config` and `danilab.cli.run` on every config
that `perfbench.workloads.generate` makes for the workload and seed, in
order, as `perfbench/run.py` does (without its calibration kernel). With
--family F the pass runs only the configs whose `experiment_id` is F (for
example correspondence-n1 of exact-dirichlet), so one family is profiled at
a time; an F that no config of the workload has is refused. The
script runs one warm pass, then five unprofiled passes, then five
unprofiled passes of the config layer alone (`parse_config` and
`config_hash` of every config, the work of a pass before and around its
runs), then one pass under cProfile, and prints:

- the median, least and greatest unprofiled pass time, in seconds as
  measured (not rescaled to a reference machine speed, as perfbench's
  `run_s` is), the median time of the config layer per pass and per
  config, the profiled pass time, which float LLL reduced the float
  stacks (`danilab.lattice.float_lll_backend()`): the compiled library's
  path, "python: <reason>" when `_lll` reduced every lane, or "none ran"
  when the pass reduced no float stack; how many lanes the Python `_lll`
  reduced in the profiled pass, read from the profile's call count of
  `danilab.lattice._lll`; and how many lanes the Python walk
  `danilab.lattice._walk_lane` walked in it, counted by a wrapper around
  that function for the profiled pass (it runs only without the compiled
  library);
- the top N rows of the profiled pass (default 25), sorted by `tottime`
  (the default) or `cumtime`: calls, tottime, cumtime, each time's share of
  the profiled pass (`run_pass`'s cumulative time), and the function as
  path:line(name), with the paths of the repository's files relative to it.

The runs write into a fresh temporary directory, removed afterwards. The
script runs the sources of the checkout it sits in and reads perfbench's
workload generator without changing it. A reader that closes the output
early (`| head -1`) ends it quietly, with exit status 1 and the rows
already printed.
"""

import argparse
import cProfile
import json
import os
import pstats
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from danilab import cli, lattice  # noqa: E402  (this checkout's sources, never an installed copy)
from perfbench import workloads  # noqa: E402

SORTS = ("tottime", "cumtime")
PASSES = 5  # unprofiled passes whose median is printed


def run_pass(texts: list) -> float:
    """Parse and run every config text once; the pass's wall time in s."""
    start = perf_counter()
    for text in texts:
        cli.run(cli.parse_config(text))
    return perf_counter() - start


def config_pass(texts: list) -> float:
    """Parse and hash every config text once, as a pass does; the time in s."""
    start = perf_counter()
    for text in texts:
        cli.config_hash(cli.parse_config(text))
    return perf_counter() - start


def _where(key: tuple) -> str:
    """path:line(name) of a profile key: a path in the repository relative
    to it, an installed package's from its package, any other file's as its
    base name; a builtin as its name."""
    path, line, name = key
    if path == "~":
        return name
    if path.startswith(ROOT + os.sep):
        path = os.path.relpath(path, ROOT)
    elif "site-packages" + os.sep in path:
        path = path.rpartition("site-packages" + os.sep)[2]
    elif os.path.isabs(path):
        path = os.path.basename(path)
    return f"{path}:{line}({name})"


def calls(stats: pstats.Stats, fn) -> int:
    """How many times the profile saw the function fn called."""
    code = fn.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return 0 if entry is None else entry[1]


def rows(stats: pstats.Stats, sort: str, top: int) -> list:
    """The header and the top rows of stats, sorted by sort, as text lines;
    each share is of the cumulative time of the profiled `run_pass`."""
    code = run_pass.__code__
    total = stats.stats[code.co_filename, code.co_firstlineno, code.co_name][3]
    entries = sorted(stats.stats.items(), key=lambda item: item[1][2 if sort == "tottime" else 3],
                     reverse=True)[:top]
    lines = [f"{'ncalls':>10} {'tottime':>9} {'share':>6} {'cumtime':>9} {'share':>6}  function"]
    for key, (_, calls, tottime, cumtime, _) in entries:
        lines.append(f"{calls:>10} {tottime:>9.4f} {tottime / total:>6.1%} {cumtime:>9.4f} "
                     f"{cumtime / total:>6.1%}  {_where(key)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--family", help="profile only the configs of this experiment_id")
    parser.add_argument("--top", type=int, default=25, help="rows to print (default 25)")
    parser.add_argument("--sort", choices=SORTS, default="tottime")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be at least 1")
    out = tempfile.mkdtemp(prefix="profile_pass-")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        configs = workloads.generate(args.workload, args.seed, f"{args.workload}-seed{args.seed}")
        if args.family is not None:
            families = sorted({config["experiment_id"] for config in configs})
            if args.family not in families:
                parser.error(f"--family {args.family!r} is not among the workload's families "
                             f"{families}")
            configs = [config for config in configs if config["experiment_id"] == args.family]
        texts = [json.dumps(config) for config in configs]
        run_pass(texts)  # warm: lazy set-up and kernel compilation
        times = [run_pass(texts) for _ in range(PASSES)]
        config_time = statistics.median(config_pass(texts) for _ in range(PASSES))
        walked = []  # one entry per `_walk_lane` call, one lane, of the profiled pass
        walk_lane = lattice._walk_lane
        lattice._walk_lane = lambda *args: walked.append(1) or walk_lane(*args)
        profile = cProfile.Profile()
        start = perf_counter()
        try:
            profile.runcall(run_pass, texts)
        finally:
            lattice._walk_lane = walk_lane
        profiled = perf_counter() - start
    finally:
        os.chdir(cwd)
        shutil.rmtree(out, ignore_errors=True)
    stats = pstats.Stats(profile)
    family = "" if args.family is None else f", family {args.family}"
    print(f"{args.workload}, seed {args.seed}{family}, {len(texts)} configs: unprofiled pass "
          f"median {statistics.median(times):.4f} s over {len(times)} passes "
          f"({min(times):.4f}-{max(times):.4f} s, unscaled), parse_config + config_hash "
          f"median {config_time:.4f} s ({config_time / len(texts) * 1e6:.1f} us per config); "
          f"profiled pass {profiled:.4f} s; "
          f"float LLL: {lattice.float_lll_backend() or 'none ran'}; "
          f"_lll lanes: {calls(stats, lattice._lll)}; _walk_lane lanes: {len(walked)}")
    print(f"top {args.top} by {args.sort}; shares are of the profiled pass:")
    for line in rows(stats, args.sort, args.top):
        print(line)
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): send what is left to devnull,
        # so that the flush at exit raises nothing, and exit 1 as Python does
        # on EPIPE (the recipe of the docs of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
