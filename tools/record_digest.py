"""Print a digest of every record that the committed and benchmark configs write.

Runs through `danilab.cli.parse_config` and `danilab.cli.run`, in order:
each `configs/*.json`, each config among `tests/baselines/*.json` (the list
of config-hash entries there is not a config and is skipped), and, for each
seed, every config that `perfbench.workloads.generate` makes for each
workload. Each run prints one line:

    <name> <config_hash> <sha256 of the .jsonl> [<sha256 of the .csv>]

with the records' timestamps blanked before hashing. Two checkouts that
print the same lines wrote the same records under the same config hashes.

The runs write into the directory given as --out and name their outputs
relative to it, so the config hashes, which cover `output`, do not depend
on where it is; a committed config hashes to its locked value in
`tests/baselines/config_hashes.json`. The script runs the sources of the
checkout it sits in, so to compare two checkouts, run a copy in each:

    python tools/record_digest.py --out /tmp/digest-a --seeds 1 7 11 > a.txt

or save the lines of one and check the other against them:

    python tools/record_digest.py --out /tmp/digest-b --seeds 1 7 11 --check a.txt

With --check FILE the lines are still printed; the first one that differs
from line k of FILE (or that FILE lacks, or a line of FILE that no run
printed) is named on stderr, the runs stop there, and the exit code is 1.
It is 0 when every line agrees. Stopping at the first drift is what a
`diff` after the whole run does not do: a full run with workload seeds
takes minutes, and a changed record shows as soon as its config runs.
"""

import argparse
import glob
import hashlib
import itertools
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from danilab import cli  # noqa: E402  (this checkout's sources, never an installed copy)
from perfbench import workloads  # noqa: E402

# `cli.write_jsonl` ends every record with its timestamp
_STAMP = re.compile(rb',"timestamp":"[^"]*"}$', re.M)


def committed_configs():
    """(name, config) for each configs/*.json, then each config among
    tests/baselines/*.json; the name is the path in the repository."""
    for pattern in ("configs/*.json", "tests/baselines/*.json"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
            if isinstance(config, dict):
                yield os.path.relpath(path, ROOT), config


def workload_configs(seeds):
    """(name, config) for every workload config at each seed, written under
    <workload>-seed<seed>/; the name is the config's output."""
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for config in workloads.generate(workload, seed, f"{workload}-seed{seed}"):
                yield config["output"], config


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, config: dict) -> str:
    """Run the config from the current directory and return its line."""
    parsed = cli.parse_config(json.dumps(config))
    jsonl, csv = parsed.output + ".jsonl", parsed.output + ".csv"
    for path in (jsonl, csv):  # a file left by an earlier run must not be read
        if os.path.exists(path):
            os.remove(path)
    cli.run(parsed)
    fields = [name, cli.config_hash(parsed)]
    with open(jsonl, "rb") as fh:
        fields.append(_sha256(_STAMP.sub(b',"timestamp":""}', fh.read())))
    if os.path.exists(csv):
        with open(csv, "rb") as fh:
            fields.append(_sha256(fh.read()))
    return " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True,
                        help="directory the runs write into (created if missing)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 7, 11],
                        help="workload seeds (default: 1 7 11; none runs no workload)")
    parser.add_argument("--check", metavar="FILE",
                        help="saved lines to compare with; exit 1 at the first that differs")
    args = parser.parse_args(argv)
    saved = None
    if args.check is not None:  # read before the chdir: FILE may be relative
        with open(args.check, encoding="utf-8") as fh:
            saved = fh.read().splitlines()
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    k = 0
    for k, (name, config) in enumerate(
            itertools.chain(committed_configs(), workload_configs(args.seeds)), 1):
        line = digest(name, config)
        print(line, flush=True)
        if saved is not None and (k > len(saved) or saved[k - 1] != line):
            want = saved[k - 1] if k <= len(saved) else f"(none: {args.check} ends at line {k - 1})"
            return _differs(args.check, k, want, line)
    if saved is not None and len(saved) > k:
        return _differs(args.check, k + 1, saved[k], "(none: no run is left)")
    return 0


def _differs(path: str, k: int, saved: str, now: str) -> int:
    print(f"record_digest: line {k} differs from {path}\n  saved: {saved}\n  now:   {now}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
