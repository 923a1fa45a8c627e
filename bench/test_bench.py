"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_points_are_deterministic_valid_and_default_shaped():
    from jacklax.arith import SpecPoint
    for seed in (0, 1, 7, 12345):
        pts = wl.spec_points(seed, run._valid_point)
        assert pts == wl.spec_points(seed, run._valid_point)
        (a, b), (c, d), (p, q) = pts
        assert (len(str(-a)), len(str(b)), len(str(-c)), len(str(d))) == (5, 4, 4, 6)
        assert a < 0 < b and c < 0 < d and p < 0 < q
        assert all(abs(x.numerator) < 10 and 1 < x.denominator < 10 for x in (p, q))
        for e1, e2 in pts:
            SpecPoint(e1, e2)
    assert wl.spec_points(1) != wl.spec_points(2)


def test_rejected_points_are_drawn_again():
    seen = []

    def reject_first(e1, e2):
        seen.append((e1, e2))
        return len(seen) > 1

    pts = wl.spec_points(3, reject_first)
    assert len(seen) == 4 and seen[0] not in pts


def test_points_text_parses_back():
    from jacklax.report import RunConfig
    pts = wl.spec_points(5, run._valid_point)
    parsed = RunConfig.parse_points(wl.points_text(pts))
    assert [(p.e1, p.e2) for p in parsed] == pts


def test_query_mix_is_deterministic_and_drawn_from_the_pool():
    pool = wl.query_pool()
    keys = {run.query_key(argv) for _, argv in pool}
    assert len(keys) == len(pool)
    assert keys == set(run.load_refs()["queries"])
    for seed in (0, 1, 99):
        mix = wl.query_mix(seed)
        assert mix == wl.query_mix(seed)
        assert {run.query_key(argv) for argv in mix} <= keys
        assert len({run.query_key(argv) for argv in mix}) == len(mix)
    assert wl.query_mix(1) != wl.query_mix(2)
    # the same number of queries from every (kind, degree) stratum
    assert len(wl.query_mix(1)) == len(wl.query_mix(2))


def test_pool_partitions_match_jacklax():
    from jacklax.partitions import add_set, partitions_of
    for n in range(7):
        assert sorted(wl.partitions_of(n)) == sorted(partitions_of(n))
        for lam in wl.partitions_of(n):
            assert wl.addable_boxes(lam) == add_set(lam)


def _cli(argv):
    from jacklax import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _canonical(out):
    blob = json.loads(out)
    blob.pop("elapsed_ms")
    return blob


CHECKS = [
    ["verify", "main-theorem", "--max-size", "4", "--jobs", "1", "--format", "json"],
    ["verify", "traces", "--max-degree", "3", "--jobs", "1", "--format", "json"],
    ["verify", "main-theorem", "--mode", "symbolic", "--max-size", "3", "--jobs", "1",
     "--format", "json"],
]
QUERIES = [["jack", "show", "2,1"], ["psi", "show", "2,1", "(1,1)"],
           ["lr", "compute", "--mu", "1,1", "--nu", "2", "--hatted"]]


def test_wrappers_leave_outputs_unchanged_and_are_restored():
    import jacklax.cli  # loads every jacklax module
    modules = {n: m for n, m in sys.modules.items()
               if n == "jacklax" or n.startswith("jacklax.")}
    # functions and classes; the suites themselves reassign some plain globals
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()
              if callable(v)}
    from jacklax.arith import Coeff
    from jacklax.session import Workspace
    methods = {(cls, k): v for cls in (Coeff, Workspace) for k, v in vars(cls).items()}

    plain = [_cli(argv) for argv in CHECKS + QUERIES]
    tr = tracer_mod.Tracer()
    with tr:
        assert jacklax.fock.inner_hbar is not before[("jacklax.fock", "inner_hbar")]
        assert jacklax.session.inner_hbar is jacklax.fock.inner_hbar
        traced = [_cli(argv) for argv in CHECKS + QUERIES]
    for (rc1, out1), (rc2, out2), argv in zip(plain, traced, CHECKS + QUERIES):
        assert rc1 == rc2 == 0
        if argv[0] == "verify":
            assert _canonical(out1) == _canonical(out2)
        else:
            assert out1 == out2
    assert len(tr) > 0
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert all(vars(cls)[k] is v for (cls, k), v in methods.items())


def test_self_times_partition_the_root_spans():
    import jacklax.lr
    from jacklax.arith import SymbolicField
    from jacklax.session import Workspace
    tr = tracer_mod.Tracer()
    with tr:
        jacklax.lr.jack_lr(Workspace(SymbolicField()), (2,), (1,))
    durs = tr.durations()
    own = tr.self_times(durs)
    roots = sum(d for d, p in zip(durs, tr.parent) if p < 0)
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(roots, rel=1e-9, abs=1e-9)
    metrics = run.layer_metrics(tr, 1)
    assert metrics["lr.jack_lr.calls"]["value"] == 1
    assert sorted(tr.tags.values()) == [("symbolic", 1), ("symbolic", 2), ("symbolic", 3)]
    assert metrics["jack.compute_homogeneous_jacks.calls"]["value"] == 3
    assert metrics["jack.basis.builds_per_degree"]["value"] == 1
    assert metrics["session.cache.hit_ratio"]["value"] < 1


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py")] + list(args),
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind):
    proc = _bench("--workload", "symbolic", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared(kind)


def test_refuses_to_run_without_the_sources(tmp_path):
    import shutil
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "spec-lr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
