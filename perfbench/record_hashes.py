"""Record the sha256 of every ``hierarchy ... --verify --json`` output that
the hierarchy_verify workload runs, into ``hierarchy_sha256.json``.

    python3 perfbench/record_hashes.py

The benchmark counts an op whose output no longer hashes to the recorded
value as failed, so a speed-up must keep the ``--json`` bytes identical.
Re-record only when a change of the output is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    pk, cli = run.fresh_import()
    env = workloads.Env(pk, cli.main)
    hashes = {}
    for family in workloads.HIERARCHY_DEPTH:
        argv = workloads.hierarchy_argv(family)
        code, text = env.cli(argv)
        if code != 0:
            raise SystemExit("%s exited %s" % (" ".join(argv), code))
        hashes[" ".join(argv[1:4])] = hashlib.sha256(text.encode()).hexdigest()
    with open(workloads.HASH_FILE, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
