#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --workloads spec-lr symbolic --seeds 1-10 \
        --trace 0 --out .bench_cache/untraced.json

Runs `bench/run.py` once per (workload, seed), one run at a time, and prints
for each metric the median, the quartiles (`statistics.quantiles(n=4)`) and
the spread (q3 - q1) / median.  With --trace 1 it also prints each layer's
share of the traced window: the summed self time of the layer's functions
divided by the mean traced pass `trace.pass_s`; the rest is time in code
that is not traced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LAYERS = ("arith", "jack", "session", "linalg", "fock", "lax", "spectral",
          "traces", "lr", "shc", "cli")


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def layer_shares(metrics):
    pass_s = metrics["trace.pass_s"]["value"]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            shares[name.split(".")[0]] += m["value"] / pass_s
    shares["untraced code"] = 1 - sum(shares.values())
    return shares


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's result and the summary here")
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                        proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print("%s seed %d: correct=%s failed=%d/%d %s" % (
                workload, seed, result["correct"], result["failed"], result["attempted"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(result["metrics"].items())
                         if args.trace == 0 or k.startswith(("suite_s", "trace.", "cli.query"))
                         and v["value"])), flush=True)
        names = sorted(runs[0]["metrics"])
        stats = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in names}
        entry = {"runs": runs, "summary": stats}
        print("== %s" % workload)
        for name in names:
            s = stats[name]
            if args.trace == 0 or s["median"]:
                print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                      % (name, s["median"], s["q1"], s["q3"], s["spread"]))
        if args.trace:
            per_run = [layer_shares(r["metrics"]) for r in runs]
            entry["layer_shares"] = {k: statistics.median(s[k] for s in per_run)
                                     for k in per_run[0]}
            print("  layer shares of the traced window (median over runs):")
            for k, v in sorted(entry["layer_shares"].items(), key=lambda kv: -kv[1]):
                print("    %-14s %6.1f%%" % (k, 100 * v))
        report[workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
