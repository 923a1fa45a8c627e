"""A seeded fuzz of the command line, run in process.

Each call is built from malformed and well-formed partitions, boxes,
points, sizes, --jobs values and paths, with tiny explicit sizes so that
the whole sweep takes a few seconds.  Every call must exit 0, 1 or 2,
print no traceback, and exit 2 exactly when its last stderr line starts
with "error:" (bad input is one error line, argparse's usage errors
included).  --jobs takes only values up to 2: each job is a process.
"""

import random

import pytest

from jacklax.cli import main

SEED = 8
CALLS = 400

PARTITIONS = ["", "1", "2", "1^2", "2,1", "3", "1^3", "0", "-1", "a", "1^", "^2", "2,,1",
              "(2,1)", "1^-2", "1.5", " ", "1^0", "2^a", "1,2"]
BOXES = ["(0,0)", "(1,0)", "0,1", "(0,2)", "(5,5)", "(1)", "(a,b)", "(-1,0)", "",
         "(0,0,0)", "((1,1))", "(1,1)"]
POINTS = ["-10007,9973", "1,-1", "0,1", "3/0,2", "a,b", "", "-3/2,22/7;-7919,104729",
          "2,2", "1/2,1/3", "-7,5;;", "1,1,1", "-5,3", "1e3,2"]
SIZES = ["-2", "-1", "0", "1", "2", "x", "", "1.5"]
JOBS = ["-1", "0", "1", "2", "x"]
MODES = ["symbolic", "specialized", "exact"]
FORMATS = ["text", "json", "latex", "xml"]
SUITES = ["counts", "tau", "kernel", "cokernel", "delta", "nonsense"]


def _maybe(rng, argv, flag, values, p=0.3):
    if rng.random() < p:
        argv += [flag, rng.choice(values)]


def _common(rng, argv, paths):
    _maybe(rng, argv, "--mode", MODES)
    if rng.random() < 0.25:
        argv.append("--spec-points=" + rng.choice(POINTS))
    _maybe(rng, argv, "--jobs", JOBS)
    _maybe(rng, argv, "--cache-dir", paths, 0.15)
    return argv


def _jack(rng, paths):
    argv = ["jack", rng.choice(["show", "norm", "varpi", "plot"]), rng.choice(PARTITIONS)]
    if rng.random() < 0.3:
        argv.append("--hatted")
    return _common(rng, argv, paths)


def _psi(rng, paths):
    argv = ["psi", "show", rng.choice(PARTITIONS), rng.choice(BOXES)]
    if rng.random() < 0.3:
        argv.append("--hatted")
    return _common(rng, argv, paths)


def _lr(rng, paths):
    argv = ["lr", "compute", "--mu", rng.choice(PARTITIONS), "--nu", rng.choice(PARTITIONS)]
    if rng.random() < 0.3:
        argv.append("--hatted")
    _maybe(rng, argv, "--format", FORMATS)
    return _common(rng, argv, paths)


def _counts(rng, paths):
    argv = ["counts"]
    if rng.random() < 0.3:
        argv.append("--kernel")
    _maybe(rng, argv, "--to", SIZES)
    _maybe(rng, argv, "--partitions", SIZES)
    if rng.random() < 0.3:
        argv += ["--corners", rng.choice(SIZES), rng.choice(SIZES)]
    _maybe(rng, argv, "--lattice", SIZES)
    _maybe(rng, argv, "--dim-h", SIZES)
    return _common(rng, argv, paths)


def _verify(rng, paths):
    argv = ["verify", rng.choice(SUITES)]
    _maybe(rng, argv, rng.choice(["--max-size", "--max-degree", "--to"]), SIZES, 0.6)
    _maybe(rng, argv, "--format", FORMATS)
    _maybe(rng, argv, "--out", paths, 0.2)
    return _common(rng, argv, paths)


def _cache(rng, paths):
    action = rng.choice(["warm", "stat", "clear", "purge"])
    argv = ["cache", action]
    if action in ("stat", "clear") and rng.random() < 0.8:
        # mostly the one option stat and clear take; else the options of warm
        _maybe(rng, argv, "--cache-dir", paths, 0.8)
        return argv
    _maybe(rng, argv, "--degree", SIZES, 0.6)
    return _common(rng, argv, paths)


COMMANDS = [_jack, _psi, _lr, _counts, _verify, _cache]


def _run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # the property under test: no call raises
        pytest.fail("%r raised %r" % (argv, e))
    out, err = capsys.readouterr()
    return rc, out, err


def test_cli_fuzz(tmp_path, capsys):
    (tmp_path / "cache").mkdir()
    (tmp_path / "file").write_text("not a directory\n")
    paths = [str(tmp_path / p) for p in ("cache", "missing/dir", "file", "file/sub", "o.json")]
    paths.append(str(tmp_path))
    rng = random.Random(SEED)
    seen = set()
    for _ in range(CALLS):
        argv = rng.choice(COMMANDS)(rng, paths)
        rc, out, err = _run(argv, capsys)
        lines = err.strip().splitlines()
        assert rc in (0, 1, 2), (argv, rc, err)
        assert "Traceback" not in out + err, (argv, err)
        assert (rc == 2) == bool(lines and lines[-1].startswith("error:")), (argv, rc, err)
        seen.add((argv[0], rc))
    # the sweep reaches both outcomes of every command
    assert {cmd for cmd, rc in seen if rc == 0} == {"jack", "psi", "lr", "counts", "verify",
                                                    "cache"}
    assert {cmd for cmd, rc in seen if rc == 2} == {"jack", "psi", "lr", "counts", "verify",
                                                    "cache"}
