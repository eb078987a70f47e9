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
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    for name, config in itertools.chain(committed_configs(), workload_configs(args.seeds)):
        print(digest(name, config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
