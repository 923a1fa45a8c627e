#!/usr/bin/env python3
"""Benchmark of the jacklax verify suites and cached CLI queries.

    python3 bench/run.py --workload spec-lr --seed 1 --seconds 10 --trace 0

Runs one workload in this process, through `jacklax.cli.main`, with
`--jobs 1`, and checks every answer against `bench/refs.json`.  Each timed
pass repeats the workload's operations (suite invocations or queries) until
`--seconds` have passed; at least one pass always runs.  The last stdout line
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs an untraced window
and then a traced one of the same length, and reports the per-layer metrics:
calls and self time per traced function (see tracer.py), per-degree build
times, cache ratios, per-suite and per-query-kind times from the untraced
window, and the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")
SCRATCH = os.path.join(ROOT, ".bench_cache")

sys.path.insert(0, BENCH_DIR)
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up is repeated and its median reported; the short suite set-up is
# repeated until both limits are reached, the 4 s cache warm-up three times.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
WARM_REPEATS = 3

DEGREES = range(0, 10)  # per-degree buckets; the last one takes every higher degree
ALL_SUITE_KEYS = ("main-theorem", "shc", "delta", "tau", "traces", "spectral",
                  "kernel", "cokernel", "main-theorem-symbolic")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def instances_digest(instances):
    """Digest of the (id, status) pairs; witness text is left out."""
    return sha256("".join("%s\t%s\n" % (r["id"], r["status"]) for r in instances))


def query_key(argv):
    return " ".join(argv)


def suite_key(mode, suite):
    return suite + ("-symbolic" if mode == "symbolic" else "")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def call_cli(cli, argv):
    """(exit code, stdout text, seconds) of one `jacklax` invocation."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


class Run:
    """One workload: its set-up, its timed passes and their checks."""

    def __init__(self, name, seed, refs):
        from jacklax import cli
        self.cli = cli
        self.name = name
        self.seed = seed
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.fail_notes = []
        self.cache_dir = None
        if name == wl.QUERY_WORKLOAD:
            self.mode, self.suites = "symbolic", ()
            self.queries = wl.query_mix(seed)
            self.points = None
        else:
            self.mode, self.suites = wl.SUITE_WORKLOADS[name]
            self.queries = ()
            self.points = (wl.points_text(wl.spec_points(seed, _valid_point))
                           if self.mode == "specialized" else None)

    def _fail(self, what):
        self.failed += 1
        if len(self.fail_notes) < 20:
            self.fail_notes.append(what)

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Median seconds of the work done before the timed passes."""
        if self.queries:
            times = [self._warm_cache() for _ in range(WARM_REPEATS)]
        else:
            times = []
            t_end = time.perf_counter() + SETUP_MIN_SECONDS
            while len(times) < SETUP_MIN_REPEATS or time.perf_counter() < t_end:
                times.append(self._prepare_suites())
        return statistics.median(times)

    def _prepare_suites(self):
        """Parse each suite's command line and build its workspaces."""
        from jacklax.report import RunConfig
        t0 = time.perf_counter()
        for suite in self.suites:
            args = self.cli.build_parser().parse_args(
                wl.verify_argv(suite, self.mode, self.points))
            points = RunConfig.parse_points(args.spec_points) if args.spec_points else None
            RunConfig(mode=args.mode, points=points, jobs=args.jobs).workspaces()
        return time.perf_counter() - t0

    def _warm_cache(self):
        """Warm a fresh disk cache; later queries read the last one."""
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
        rc, out, dt = call_cli(self.cli, ["cache", "warm", "--degree", str(wl.QUERY_DEGREE),
                                          "--mode", "symbolic", "--cache-dir", self.cache_dir])
        if rc != 0 or not out.startswith("warmed to degree %d" % wl.QUERY_DEGREE):
            raise RuntimeError("cache warm-up failed (exit %s): %r" % (rc, out))
        return dt

    def close(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    # -- timed passes -------------------------------------------------------

    def window(self, seconds):
        """Passes until `seconds` have passed: (pass times, per-op samples)."""
        passes, samples = [], {}
        t_end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            for suite in self.suites:
                samples.setdefault(suite_key(self.mode, suite), []).append(self._suite(suite))
            for argv in self.queries:
                samples.setdefault(wl.query_kind(argv), []).append(self._query(argv))
            passes.append(time.perf_counter() - t0)
        return passes, samples

    def _suite(self, suite):
        self.attempted += 1
        argv = wl.verify_argv(suite, self.mode, self.points)
        t0 = time.perf_counter()
        try:
            rc, out, dt = call_cli(self.cli, argv)
        except Exception:
            traceback.print_exc()
            self._fail("%s crashed" % suite)
            return time.perf_counter() - t0
        ref = self.refs["suites"][suite_key(self.mode, suite)]
        try:
            instances = json.loads(out)["instances"]
        except (ValueError, KeyError):
            self._fail("%s printed no JSON report" % suite)
            return dt
        bad = sum(r["status"] == "FAIL" for r in instances)
        if rc != 0 or bad:
            self._fail("%s exit %d with %d FAIL instance(s)" % (suite, rc, bad))
        elif (len(instances), instances_digest(instances)) != (ref["instances"], ref["sha256"]):
            self._fail("%s: %d instances, (id, status) digest differs from the reference"
                       % (suite, len(instances)))
        return dt

    def _query(self, argv):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc, out, dt = call_cli(self.cli, argv + ["--cache-dir", self.cache_dir])
        except Exception:
            traceback.print_exc()
            self._fail("%s crashed" % query_key(argv))
            return time.perf_counter() - t0
        if rc != 0 or sha256(out) != self.refs["queries"][query_key(argv)]:
            self._fail("%s: exit %d, output differs from the cold reference"
                       % (query_key(argv), rc))
        return dt


def _valid_point(e1, e2):
    from jacklax.arith import SpecPoint
    from jacklax.errors import BadSpecPoint
    try:
        SpecPoint(e1, e2)
    except BadSpecPoint:
        return False
    return True


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def sample_metrics(samples):
    """Per-suite medians (s) and query latencies (ms) from an untraced window."""
    out = {}
    for key in ALL_SUITE_KEYS:
        vals = samples.get(key)
        out["suite_s." + key] = metric(statistics.median(vals) if vals else 0, "s")
    lat = [s * 1000 for kind in ("jack", "psi", "lr") for s in samples.get(kind, ())]
    for kind in ("jack", "psi", "lr"):
        vals = samples.get(kind)
        out["cli.query_p50_ms." + kind] = metric(
            statistics.median(vals) * 1000 if vals else 0, "ms")
    out["cli.query_p50_ms"] = metric(statistics.median(lat) if lat else 0, "ms")
    out["cli.query_p95_ms"] = metric(percentile(lat, 0.95) if lat else 0, "ms")
    out["cli.query_count"] = metric(len(lat), "count")
    return out


def _degree_name(prefix, n):
    top = DEGREES[-1]
    return "%s.d%d" % (prefix, n) if n < top else "%s.d%dplus" % (prefix, top)


def layer_metrics(tr, passes):
    """Per-function calls and self time, plus the derived layer figures.

    Counts and times are per pass: window totals divided by `passes`, so
    they do not grow with the number of passes a faster program fits into
    the window."""
    durs = tr.durations()
    own = tr.self_times(durs)
    calls = [0] * len(tr.names)
    self_s = [0.0] * len(tr.names)
    for nid, t in zip(tr.name, own):
        calls[nid] += 1
        self_s[nid] += t
    out = {}
    for nid, name in enumerate(tr.names):
        if name == "session.Workspace":
            out["session.Workspace.count"] = metric(calls[nid] / passes, "count")
            continue
        out[name + ".calls"] = metric(calls[nid] / passes, "count")
        out[name + ".self_s"] = metric(self_s[nid] / passes, "s")

    ids = tr.name_ids
    jack_id, psi_id = ids["jack.compute_homogeneous_jacks"], ids["lax.compute_psi"]
    # Per-degree time of a Jack basis or psi: its span minus the nested
    # basis and psi spans, which are charged to their own degrees.
    per_degree = {jack_id: {}, psi_id: {}}
    nested = [0.0] * len(tr)
    tracked = [sid for sid, nid in enumerate(tr.name) if nid in per_degree]
    for sid in tracked:
        a = tr.nearest_ancestor(sid, per_degree)
        if a >= 0:
            nested[a] += durs[sid]
    for sid in tracked:
        nid, tag = tr.name[sid], tr.tags[sid]
        n = min(tag[1] if nid == jack_id else tag, DEGREES[-1])
        per_degree[nid][n] = per_degree[nid].get(n, 0.0) + durs[sid] - nested[sid]
    for prefix, nid in (("jack.basis_s", jack_id), ("lax.psi_s", psi_id)):
        for n in DEGREES:
            out[_degree_name(prefix, n)] = metric(per_degree[nid].get(n, 0.0) / passes, "s")

    builds = [tr.tags[sid] for sid, nid in enumerate(tr.name) if nid == jack_id]
    out["jack.basis.builds_per_degree"] = metric(
        len(builds) / len(set(builds)) / passes if builds else 0, "ratio")

    # A jack_degree call hits a cache (memory or disk) unless it builds.
    jd_id, solver_id = ids["session.jack_degree"], ids["session.psi_hat_solver"]
    building = {tr.parent[sid] for sid, nid in enumerate(tr.name) if nid == jack_id}
    jd_calls = calls[jd_id]
    jd_builds = sum(1 for p in building if p >= 0 and tr.name[p] == jd_id)
    out["session.cache.hit_ratio"] = metric(
        (jd_calls - jd_builds) / jd_calls if jd_calls else 0, "ratio")
    inv_id = ids["linalg.invert"]
    solver_builds = {tr.parent[sid] for sid, nid in enumerate(tr.name) if nid == inv_id}
    out["session.psi_hat_solver.builds"] = metric(
        sum(1 for p in solver_builds if p >= 0 and tr.name[p] == solver_id) / passes, "count")
    out["trace.spans"] = metric(len(tr) / passes, "count")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jacklax", "cli.py")):
        print("error: jacklax sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the suites must compute everything; only the query workload uses a cache
    os.environ.pop("JACKLAX_CACHE_DIR", None)
    os.makedirs(SCRATCH, exist_ok=True)

    run = Run(args.workload, args.seed, load_refs())
    print("workload %s, seed %d, points %s, %d queries per pass"
          % (run.name, run.seed, run.points, len(run.queries)))
    try:
        setup_s = run.setup()
        passes, samples = run.window(args.seconds)
        wall_s = statistics.median(passes)
        print("set-up %.4f s; %d pass(es), median %.4f s: %s"
              % (setup_s, len(passes), wall_s, " ".join("%.3f" % p for p in passes)))
        untraced = sample_metrics(samples)
        for name, m in untraced.items():
            if m["value"]:
                print("  %-26s %.6g %s" % (name, m["value"], m["unit"]))
        if args.trace:
            metrics = untraced
            tr = tracer_mod.Tracer()
            with tr:
                traced, _ = run.window(args.seconds)
            traced_s = statistics.median(traced)
            overhead = traced_s - wall_s
            print("tracing overhead: traced wall_s %.4f s - untraced wall_s %.4f s = %.4f s (%+.1f%%)"
                  % (traced_s, wall_s, overhead, 100 * overhead / wall_s))
            metrics.update(layer_metrics(tr, len(traced)))
            metrics["trace.wall_s"] = metric(traced_s, "s")
            metrics["trace.pass_s"] = metric(sum(traced) / len(traced), "s")
            metrics["trace.overhead_s"] = metric(overhead, "s")
            spans_path = os.path.join(SCRATCH, "spans-%s.jsonl" % run.name)
            tr.dump(spans_path)
            print("%d spans written to %s" % (len(tr), os.path.relpath(spans_path, ROOT)))
        else:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "wall_s": metric(wall_s, "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        run.close()
    if args.trace:
        metrics["fail_ratio"] = metric(run.failed / run.attempted, "ratio")
    for note in run.fail_notes:
        print("FAIL " + note)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
