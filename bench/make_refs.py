#!/usr/bin/env python3
"""Write bench/refs.json, the answers the benchmark checks against.

    python3 bench/make_refs.py

For each (mode, suite) of the suite workloads: the instance count and the
digest of the (id, status) pairs, from a run at jacklax's default
specialization points.  Instance ids do not name the points, so the
reference holds for every seeded point set.  For each query of the pool:
the digest of its stdout from a cold run with no disk cache, so a warm-cache
answer that differs from a cold one is counted as wrong.  Takes several
minutes; every Jack basis is rebuilt for every query.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    sys.path.insert(0, run.SRC)
    os.environ.pop("JACKLAX_CACHE_DIR", None)
    from jacklax import cli
    refs = {"suites": {}, "queries": {}}
    for name, (mode, suites) in wl.SUITE_WORKLOADS.items():
        for suite in suites:
            rc, out, dt = run.call_cli(cli, wl.verify_argv(suite, mode))
            instances = json.loads(out)["instances"]
            bad = [r["id"] for r in instances if r["status"] == "FAIL"]
            if rc != 0 or bad:
                raise SystemExit("%s %s failed: exit %d, FAIL %s" % (mode, suite, rc, bad))
            refs["suites"][run.suite_key(mode, suite)] = {
                "instances": len(instances), "sha256": run.instances_digest(instances)}
            print("%-22s %4d instances  %.2f s" % (run.suite_key(mode, suite),
                                                   len(instances), dt), flush=True)
    pool = wl.query_pool()
    for i, (stratum, argv) in enumerate(pool):
        rc, out, dt = run.call_cli(cli, argv)
        if rc != 0:
            raise SystemExit("%s exited %d" % (run.query_key(argv), rc))
        refs["queries"][run.query_key(argv)] = run.sha256(out)
        print("[%d/%d] %s  %.2f s" % (i + 1, len(pool), run.query_key(argv), dt), flush=True)
    with open(run.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
