"""Record the reference outputs the CLI workloads are checked against.

    python3 bench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Every request the generators can emit is run once through
the fork server, and its exit code and a digest of its stdout are
written to bench/reference.json.  A request that fails its own checks
(a battery that does not pass, a multiplicity that is not a binomial, a
wrong exit code) stops the recording.
"""

from __future__ import annotations

import json
import os
import sys

import oracles
import run
import workloads


def main() -> int:
    root = os.getcwd()
    server = run.Server(root)
    outputs = {}
    try:
        requests = [(argv, slot.expect_rc)
                    for workload in ("catalog-battery", "deep-tower")
                    for slot in workloads.SLOTS[workload]
                    for argv in slot.choices()]
        requests += [(r["argv"], r["expect_rc"]) for r in workloads.probe_cli()]
        for argv, expect_rc in requests:
            key = workloads.argv_key(argv)
            res = server.request({"id": key, "kind": "cli", "argv": argv,
                                  "limit_s": 120.0})
            if "error" in res:
                print(f"{key}: {res}", file=sys.stderr)
                return 1
            entry = oracles.reference_entry(res["rc"], res["stdout"])
            kind = oracles.check_cli(argv, expect_rc, res["rc"], res["stdout"],
                                     {key: entry})
            if kind is not None:
                print(f"{key}: {kind} (rc {res['rc']})", file=sys.stderr)
                return 1
            outputs[key] = entry
    finally:
        server.stop()
    doc = {"commit": run.git_sha(root), "python": sys.version.split()[0],
           "format": "argv joined by spaces -> exit code:sha256(stdout)[:20]",
           "outputs": dict(sorted(outputs.items()))}
    with open(os.path.join(run.BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
