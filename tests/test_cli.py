import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from jacklax import cli
from jacklax.cli import main
from jacklax.report import RunConfig
from jacklax.session import CACHE_FORMAT, cache_clear, cache_stat
from jacklax.verify import (suite_conjectures, suite_counts, suite_delta, suite_main_theorem,
                            suite_traces)


HERE = os.path.dirname(os.path.abspath(__file__))


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "jacklax.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_jack_show(capsys):
    assert main(["jack", "show", "1,2"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "j_{1,2} = e1*e2*V3 + (e1 + e2)*V2*V1 + V1^3"


def test_jack_show_n3_list(capsys):
    main(["jack", "show", "3"])
    assert "2*e2^2*V3 + 3*e2*V2*V1 + V1^3" in capsys.readouterr().out
    main(["jack", "show", "1^3"])
    assert "2*e1^2*V3 + 3*e1*V2*V1 + V1^3" in capsys.readouterr().out


def test_psi_show_layout(capsys):
    main(["psi", "show", "1^3", "(0,1)"])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("psi_{1^3}^{(0,1)}")
    assert len([l for l in out if l.strip().startswith("w^")]) == 4


def test_lr_compute_text(capsys):
    main(["lr", "compute", "--mu", "1^2", "--nu", "2"])
    out = capsys.readouterr().out
    assert "c_{1^2,2}^{1^2,2} = -e2 / e1 - e2" in out


def test_lr_compute_json(capsys):
    main(["lr", "compute", "--mu", "1^2", "--nu", "2", "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert blob["entries"]["1^2,2"] == "-e2 / e1 - e2"


def test_lr_compute_latex(capsys):
    # each scalar is LaTeX math: a quotient is a \frac, not "e1 / e1 - e2"
    main(["lr", "compute", "--mu", "1", "--nu", "1", "--format", "latex"])
    out = capsys.readouterr().out.splitlines()
    assert r"c_{1,1}^{2} &= \frac{e_1}{e_1 - e_2} \\" in out
    assert r"c_{1,1}^{1^2} &= \frac{-e_2}{e_1 - e_2} \\" in out
    main(["lr", "compute", "--mu", "2,1", "--nu", "1", "--format", "latex"])
    assert (r"c_{1,2,1}^{1^2,2} &= \frac{-e_1 e_2 + 2 e_2^{2}}{2 e_1^{2} - 4 e_1 e_2 + "
            r"2 e_2^{2}} \\") in capsys.readouterr().out.splitlines()
    main(["lr", "compute", "--mu", "1", "--nu", "1", "--format", "latex",
          "--mode", "specialized", "--spec-points=-3/2,22/7"])
    assert capsys.readouterr().out.splitlines() == [r"c_{1,1}^{1^2} &= \frac{44}{65} \\",
                                                    r"c_{1,1}^{2} &= \frac{21}{65} \\"]


def test_counts_kernel(capsys):
    main(["counts", "--kernel", "--to", "6"])
    assert capsys.readouterr().out.strip() == "x^4 + 2x^5 + 5x^6"


def test_counts_others(capsys):
    main(["counts", "--partitions", "4"])
    assert capsys.readouterr().out.strip() == "5"
    main(["counts", "--corners", "4", "2"])
    assert capsys.readouterr().out.strip() == "3"
    main(["counts", "--lattice", "4"])
    assert capsys.readouterr().out.strip() == "10"
    main(["counts", "--dim-h", "4"])
    assert capsys.readouterr().out.strip() == "12"


def test_cli_subprocess_and_exit_codes(tmp_path):
    r = run_cli(["verify", "counts", "--format", "json"])
    assert r.returncode == 0
    blob = json.loads(r.stdout)
    assert blob["suite"] == "counts"
    assert {"id", "status", "witness"} <= set(blob["instances"][0])
    assert "elapsed_ms" in blob
    # usage errors give nonzero exit
    r = run_cli(["verify", "nonsense"])
    assert r.returncode != 0
    # Schur-degenerate point rejected at parse time
    r = run_cli(["verify", "counts", "--mode", "specialized",
                 "--spec-points", "1,-1"])
    assert r.returncode != 0


def test_verify_out_file(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "delta", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["suite"] == "delta"
    assert all(i["status"] == "PASS" for i in blob["instances"])


def test_report_determinism():
    cfg = RunConfig(mode="specialized")
    a = suite_counts(cfg).canonical_json()
    b = suite_counts(cfg).canonical_json()
    assert a == b
    a = suite_delta(cfg).canonical_json()
    b = suite_delta(cfg).canonical_json()
    assert a == b


@pytest.mark.parametrize("suite, kwargs", [
    ("traces", {"max_degree": 5}),
    ("spectral", {"max_degree": 5}),
    ("kernel", {"to": 6}),
    ("cokernel", {"to": 6}),
    ("main-theorem", {"max_size": 5}),
    ("pieri", {"max_size": 4}),
    ("tau", {"max_size": 4}),
    ("delta", {}),
    ("shc", {"max_degree": 3}),
    ("counts", {}),
    ("conjectures", {"max_degree": 4}),
])
def test_suite_parallel_matches_serial(suite, kwargs, monkeypatch):
    _parallel_matches_serial(suite, kwargs, "specialized", monkeypatch)


@pytest.mark.parametrize("suite, kwargs", [
    ("shc", {"max_degree": 3}),
    ("pieri", {"max_size": 4}),
    ("tau", {"max_size": 4}),
])
def test_symbolic_suite_parallel_matches_serial(suite, kwargs, monkeypatch):
    _parallel_matches_serial(suite, kwargs, "symbolic", monkeypatch)


def _parallel_matches_serial(suite, kwargs, mode, monkeypatch):
    from jacklax import report
    from jacklax.verify import SUITES
    pools = []
    real = report._fork_pool
    monkeypatch.setattr(report, "_fork_pool", lambda n: pools.append(n) or real(n))
    r1 = SUITES[suite](RunConfig(mode=mode, jobs=1), **kwargs)
    assert pools == []
    r2 = SUITES[suite](RunConfig(mode=mode, jobs=2), **kwargs)
    # the per-workspace checks of every suite ran in one fork pool, also in
    # suites that ran them serially before (tau, delta, shc, conjectures,
    # spectral, kernel, cokernel); counts has no per-workspace checks
    assert pools == ([] if suite == "counts" else [2])
    assert len(r1.instances) >= 4
    if suite == "pieri":
        assert sum(i["id"].startswith("marginalize") for i in r1.instances) >= 4
    if suite != "conjectures":
        assert r1.all_pass()
    assert r1.canonical_json() == r2.canonical_json()


def _spy(real, fn_index, handed):
    def spy(self, *args):
        handed.append(args[fn_index])
        return real(self, *args)
    return spy


def test_checks_take_their_loop_values_as_arguments(monkeypatch):
    # checks run when the report is done, after the suite's loops have moved
    # on: a check that read a loop variable from a closure would see only its
    # last value
    from jacklax.report import Report
    from jacklax.verify import SUITES
    handed = []
    for name, fn_index in (("check", 1), ("sweep", 0)):
        monkeypatch.setattr(Report, name, _spy(getattr(Report, name), fn_index, handed))
    sizes = {"tau": {"max_size": 4}, "spectral": {"max_degree": 2},
             "main-theorem": {"max_size": 3}, "cokernel": {"to": 2}, "kernel": {"to": 4},
             "traces": {"max_degree": 2}, "pieri": {"max_size": 2},
             "shc": {"max_degree": 1}, "conjectures": {"max_degree": 2}}
    for suite, fn in SUITES.items():
        fn(RunConfig(mode="specialized", jobs=1), **sizes.get(suite, {}))
    assert len(handed) > 100
    assert [f.__qualname__ for f in handed if f.__code__.co_freevars] == []


def test_trace_witness_names_the_spec_point(monkeypatch):
    from jacklax import spectral
    from jacklax.arith import DEFAULT_SPEC_POINTS
    from jacklax.verify import suite_traces
    monkeypatch.setattr(spectral, "star_residues", lambda f, lam, nu: {(9, 9): f.one})
    rep = suite_traces(RunConfig(mode="specialized"), max_degree=2)
    bad = [i for i in rep.instances if i["status"] == "FAIL"]
    assert bad
    for inst in bad:
        # the first mismatch is the first y coordinate of theta's trace
        # against the patched residues
        prefix = "%s: y(theta) - tau-hat(star) (" % DEFAULT_SPEC_POINTS[0].key()
        assert inst["witness"].startswith(prefix), inst
        assert inst["witness"].endswith(" != 0")


def test_check_witness_names_the_failing_spec_point(monkeypatch):
    from jacklax import verify
    from jacklax.arith import DEFAULT_SPEC_POINTS
    bad = DEFAULT_SPEC_POINTS[1].key()
    real = verify._jacksums
    monkeypatch.setattr(verify, "_jacksums", lambda ws, lam: (
        {("sum tau psi - j", (0, lam)): (1, 0)} if ws.key() == bad else real(ws, lam)))
    rep = verify.suite_spectral(RunConfig(mode="specialized"), max_degree=2)
    failed = [i for i in rep.instances if i["status"] == "FAIL"]
    assert [i["id"] for i in failed] == ["jacksum {1^2}", "jacksum {1}", "jacksum {2}"]
    assert [i["witness"] for i in failed] == [
        "%s: sum tau psi - j (0, %s): 1 != 0" % (bad, lam) for lam in [(1, 1), (1,), (2,)]]
    assert all(i["witness"] == "" for i in rep.instances if i["status"] == "PASS")


def test_sweep_witness_names_the_failing_spec_point(monkeypatch):
    from jacklax import shc
    from jacklax.arith import DEFAULT_SPEC_POINTS
    from jacklax.verify import suite_shc
    bad = DEFAULT_SPEC_POINTS[1].key()
    real = shc.construction_from_lax_check

    def fails_at_bad(ws, n):
        c = real(ws, n)
        if ws.key() == bad:
            c["xplus"] = {((1,), (("p", (0, 0)), (1,))): (ws.field.one, 0)}
            c["xminus_lax"] = {((1,), (("p", (0, 0)), ())): (2, ws.field.one / 3)}
        return c

    monkeypatch.setattr(shc, "construction_from_lax_check", fails_at_bad)
    rep = suite_shc(RunConfig(mode="specialized"), max_degree=1)
    failed = {i["id"]: i["witness"] for i in rep.instances if i["status"] == "FAIL"}
    # a FAIL shows its first mismatch, not the note a PASS shows
    assert failed == {
        "X+ from Lax equals Jack-basis definition":
            "%s: ((1,), (('p', (0, 0)), (1,))): 1 != 0" % bad,
        "X- from Lax equals Jack-basis definition":
            "%s: ((1,), (('p', (0, 0)), ())): 2 != 1/3" % bad}
    notes = {i["id"]: i["witness"] for i in rep.instances if i["status"] == "PASS"}
    assert notes["whittaker_plus"] == "holds with global sign -1"


# The instance ids of every sized suite at size 0: only size-0 checks run,
# and shc's identities, which are named without a size, hold at degree 0.
SIZE_ZERO_IDS = {
    ("tau", "--max-size"): [
        "identities {0} s=((0, 0),)", "kerov expansion {0}",
        "star factor {0} * box((0, 0),)", "star factor {0} * box((0, 1),)",
        "star factor {0} * box((1, 0),)", "star factor {0} * box((1, 2),)"],
    ("spectral", "--max-degree"): ["completeness H_0", "eigen {0} s=((0, 0),)",
                                   "self-adjointness L_0", "shift property n=0"],
    ("main-theorem", "--max-size"): [],
    ("cokernel", "--to"): ["cokernel dim = q(0) = 1", "relations annihilate Tr, n=0",
                           "resolvent w-identity n=0"],
    ("kernel", "--to"): ["dim ker Tr_0 = 0"],
    ("traces", "--max-degree"): [],
    ("pieri", "--max-size"): [],
    ("shc", "--max-degree"): [
        "Delta = <zeta| dPhi(u) U |G> agrees with the LR module", "H_is_sum_Vn",
        "X+ from Lax equals Jack-basis definition", "X- from Lax equals Jack-basis definition",
        "Y from Lax equals -(hbar N)^{-1} P^-(Y(z))",
        "Y^{-1} from Lax equals diagonal u^{-1}T(u)", "dPhi_V1_commutator",
        "gaiotto_is_exponential", "generalized_whittaker", "lifted_identity",
        "whittaker_minus", "whittaker_plus", "x_commutator", "x_leading_term"],
    ("conjectures", "--max-degree"): [],
}


def test_size_zero_is_not_the_default(capsys):
    from jacklax.verify import DEFAULT_SIZES
    assert {(suite, "--" + kw.replace("_", "-")) for suite, kws in DEFAULT_SIZES.items()
            for kw in kws} == set(SIZE_ZERO_IDS)
    for (suite, option), want in SIZE_ZERO_IDS.items():
        assert main(["verify", suite, option, "0", "--format", "json"]) == 0, suite
        ids = [i["id"] for i in json.loads(capsys.readouterr().out)["instances"]]
        assert ids == want, suite


@pytest.mark.parametrize("argv,needle", [
    (["jack", "show", "abc"], "bad partition 'abc'"),
    (["psi", "show", "1,2", "(1)"], "bad box '(1)'"),
    (["verify", "counts", "--spec-points=a,b"], "bad spec point 'a,b'"),
    (["verify", "counts", "--spec-points=3/0,2"], "bad spec point '3/0,2'"),
    (["verify", "cokernel", "--to", "-3"], "bad size to=-3"),
    (["verify", "all", "--max-size", "-1"], "bad size max_size=-1"),
    (["counts", "--kernel", "--to", "-2"], "bad size to=-2"),
    (["cache", "warm", "--degree", "-1", "--cache-dir", "never-made"], "bad size degree=-1"),
    (["psi", "show", "2,1", "(5,5)"], "box (5,5) not addable to 1,2"),
    (["verify", "counts", "--jobs", "0"], "bad jobs=0"),
    (["verify", "tau", "--jobs", "-2"], "bad jobs=-2"),
    (["cache", "stat"], "no cache directory configured"),
    (["cache", "stat", "--cache-dir", "never-made"], "cache directory never-made does not exist"),
    (["cache", "clear", "--cache-dir", "never-made"],
     "cache directory never-made does not exist"),
    # a named suite rejects a size option it does not take
    (["verify", "tau", "--max-degree", "2"], "verify tau takes --max-size, not --max-degree"),
    (["verify", "main-theorem", "--max-degree", "6"],
     "verify main-theorem takes --max-size, not --max-degree"),
    (["shc", "--max-size", "3"], "verify shc takes --max-degree, not --max-size"),
    (["verify", "pieri", "--to", "3"], "verify pieri takes --max-size, not --to"),
    (["verify", "delta", "--max-degree", "3"],
     "verify delta takes no size option, not --max-degree"),
    # --include-conjectures acts on verify all only
    (["verify", "tau", "--include-conjectures", "--max-size", "1"],
     "verify tau does not take --include-conjectures"),
    (["shc", "--include-conjectures", "--max-degree", "1"],
     "verify shc does not take --include-conjectures"),
    # an empty value is a bad point, not the default points
    (["verify", "counts", "--spec-points="], "bad spec point ''"),
    # a --cache-dir or --out path that cannot be used fails before any work
    (["jack", "norm", "2,1", "--cache-dir", __file__],
     "cache directory %s is not a directory" % __file__),
    (["cache", "stat", "--cache-dir", __file__],
     "cache directory %s is not a directory" % __file__),
    (["verify", "counts", "--out", os.path.join(HERE, "never-made", "o.json")],
     "directory %s does not exist" % os.path.join(HERE, "never-made")),
    (["verify", "counts", "--out", HERE], "--out %s is a directory" % HERE),
    # every counts size is checked, not only --to
    (["counts", "--partitions", "-3"], "bad size partitions=-3"),
    (["counts", "--corners", "-2", "1"], "bad size corners n=-2"),
    (["counts", "--corners", "3", "-1"], "bad size corners r=-1"),
    (["counts", "--lattice", "-4"], "bad size lattice=-4"),
    (["counts", "--dim-h", "-2"], "bad size dim-h=-2"),
    # a specialized query evaluates at one point, so a second one is an error
    (["jack", "show", "2", "--mode", "specialized", "--spec-points=-3/2,22/7;-10007,9973"],
     "jack show evaluates at one spec point, but --spec-points gives 2"),
    (["psi", "show", "2", "(1,0)", "--mode", "specialized",
      "--spec-points=-3/2,22/7;-10007,9973"],
     "psi show evaluates at one spec point, but --spec-points gives 2"),
    (["lr", "compute", "--mu", "1", "--nu", "1", "--mode", "specialized",
      "--spec-points=-3/2,22/7;-10007,9973;-7919,104729"],
     "lr compute evaluates at one spec point, but --spec-points gives 3"),
    # the box is checked before pi_* psi = [s] varpi, here 0, divides
    (["psi", "show", "1", "(0,0)", "--hatted"], "box (0,0) not addable to 1"),
    (["psi", "show", "1", "(0,0)", "--hatted", "--mode", "specialized"],
     "box (0,0) not addable to 1"),
    # every option a command accepts is one it reads: cache stat and clear
    # read only the directory, counts answers one query, --hatted belongs to
    # jack show, and a symbolic run evaluates at no spec point
    (["cache", "clear", "--mode", "specialized", "--cache-dir", "never-made"],
     "unrecognized arguments: --mode specialized"),
    (["cache", "stat", "--degree", "3", "--cache-dir", "never-made"],
     "unrecognized arguments: --degree 3"),
    (["counts", "--partitions", "4", "--lattice", "3"],
     "argument --lattice: not allowed with argument --partitions"),
    (["counts", "--kernel", "--dim-h", "3"], "argument --dim-h: not allowed with argument --kernel"),
    (["counts", "--to", "5", "--partitions", "4"],
     "counts --to goes with --kernel or alone, not with --partitions"),
    (["jack", "norm", "1,2", "--hatted"], "jack norm does not take --hatted"),
    (["jack", "varpi", "1,2", "--hatted"], "jack varpi does not take --hatted"),
    (["jack", "show", "1,1", "--spec-points=-3/2,22/7"], "--spec-points needs --mode specialized"),
    (["verify", "counts", "--mode", "symbolic", "--spec-points=-3/2,22/7"],
     "--spec-points needs --mode specialized"),
])
def test_bad_input_exits_2_with_one_error_line(argv, needle):
    r = run_cli(argv)
    assert r.returncode == 2
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert r.stderr.startswith("error: ") and needle in r.stderr
    assert "Traceback" not in r.stderr


def test_spec_points_space_separated(capsys):
    # a value starting with "-" must not be taken for an option
    assert main(["verify", "counts", "--format", "json",
                 "--spec-points", "-10007,9973;-3/2,22/7"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["config"]["spec_points"] == ["e1=-10007,e2=9973", "e1=-3/2,e2=22/7"]


def test_specialized_query_without_points_uses_the_first_default(capsys):
    # the first default point is e1=-10007, e2=9973
    assert main(["jack", "show", "2", "--mode", "specialized"]) == 0
    assert capsys.readouterr().out == "j_{2} = 9973*V2 + V1^2\n"


def test_conjectures_never_gate(tmp_path):
    # the conjecture suite contains honest FAILs but exits 0
    r = run_cli(["verify", "conjectures", "--max-degree", "3"])
    assert r.returncode == 0
    assert "FAIL" in r.stdout


def test_symbolic_conjectures_skip_a_non_split_normalizer(capsys):
    # over Q(e1,e2) the z-trace of F(dPi(w, w^2 V_2)) is 2*e1^4*e2 + 2*e1*e2^4,
    # which is not a product of linear forms: that instance is a SKIP naming
    # it, and the rest of the report still prints
    assert main(["verify", "conjectures", "--mode", "symbolic", "--max-degree", "5",
                 "--format", "json"]) == 0
    insts = json.loads(capsys.readouterr().out)["instances"]
    skips = {i["id"]: i["witness"] for i in insts if i["status"] == "SKIP"}
    assert sorted(skips) == ["beta=rho(F(dPi))theta (1, ()),(2, (2,))",
                             "beta=rho(F(dPi))theta (2, ()),(1, (2,))"]
    assert all(w.startswith("F(dPi): cannot divide by 2*e1^4*e2 + 2*e1*e2^4")
               for w in skips.values())
    assert len(insts) == 235


def test_specialized_conjectures_report_unchanged():
    # the canonical report at the default points, as it was before the
    # symbolic SKIP above existed
    rep = suite_conjectures(RunConfig(mode="specialized"), max_degree=5)
    assert hashlib.sha256(rep.canonical_json().encode()).hexdigest() == \
        "41848688844e079055febf2fbfd8ab2e6ff358c1758e036301562ab7edbd544b"


@pytest.mark.parametrize("suite, sizes, sha", [
    (suite_main_theorem, {"max_size": 6},
     "4f50ed0ad4b32c486eed86b6bb7e5ef37c3deb7429f63831ab99b25db3a04e76"),
    (suite_traces, {"max_degree": 4},
     "83d2833e3347d40ca42d5960b6372bdcd80aa92e00cb672deca9d6a7477108ff"),
])
def test_symbolic_reports_unchanged(suite, sizes, sha):
    # the canonical symbolic reports of the main theorem (default size) and
    # of the traces, pinned so that a change of the symbolic row layer
    # cannot change what a report says unnoticed
    rep = suite(RunConfig(mode="symbolic"), **sizes)
    assert hashlib.sha256(rep.canonical_json().encode()).hexdigest() == sha


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of one main call in this process, with
    the elapsed time of a text report masked."""
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    out, err = capsys.readouterr()
    return rc, re.sub(r"\(\d+ ms\)$", "(ms)", out, flags=re.M), err


def test_repeated_calls_share_one_parser_and_stay_independent(capsys, monkeypatch):
    # main parses with one parser per process; each call still prints and
    # returns what it does on a fresh parser, whatever ran before it
    sequence = [
        ["lr", "compute", "--mu", "1", "--nu", "2", "--hatted"],
        ["lr", "compute", "--mu", "1", "--nu", "2"],
        ["verify", "tau", "--max-size", "1"],
        ["verify", "delta"],
        ["verify", "tau", "--max-size", "x"],          # argparse error
        ["jack", "show", "1,2"],
        ["jack", "show", "abc"],                       # library error
        ["jack", "show", "1,2"],
        ["--help"],
        ["counts", "--partitions", "4"],
        ["verify", "--help"],
        ["verify", "tau", "--max-size", "1"],
    ]
    parser = cli._parser()
    shared = [_in_process(argv, capsys) for argv in sequence]
    assert cli._parser() is parser
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_in_process(argv, capsys) for argv in sequence]
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0]
    assert "chat_" in shared[0][1] and "chat_" not in shared[1][1]
    assert cli.build_parser() is not cli.build_parser()


# jack_02_symbolic.json as the format-2 writer stored it: every scalar as text
FORMAT_2_BLOB = (
    '{"degree": 2, "format": 2, "jacks": {"1^2": [{"coeff": "1", "partition": "1^2", "w": 0}, '
    '{"coeff": "e1", "partition": "2", "w": 0}], "2": [{"coeff": "1", "partition": "1^2", '
    '"w": 0}, {"coeff": "e2", "partition": "2", "w": 0}]}, "mode": "symbolic", "norms": '
    '{"1^2": "-2*e1^3*e2 + 2*e1^2*e2^2", "2": "2*e1^2*e2^2 - 2*e1*e2^3"}, "varpi": '
    '{"1^2": "e1", "2": "e2"}}')

# jack_02_symbolic.json as the format-3 writer stored it: every Jack
# coefficient, norm and varpi as its own scalar
FORMAT_3_BLOB = (
    '{"degree": 2, "format": 3, "jacks": {"1^2": [[0, [[[0, 0, 1]], 1, []]], [1, [[[1, 0, 1]], '
    '1, []]]], "2": [[0, [[[0, 0, 1]], 1, []]], [1, [[[0, 1, 1]], 1, []]]]}, "mode": "symbolic", '
    '"norms": {"1^2": [[[2, 2, 2], [3, 1, -2]], 1, []], "2": [[[1, 3, -2], [2, 2, 2]], 1, []]}, '
    '"varpi": {"1^2": [[[1, 0, 1]], 1, []], "2": [[[0, 1, 1]], 1, []]}}')


def _fields():
    from jacklax.arith import DEFAULT_SPEC_POINTS, SpecializedField, SymbolicField
    return [SymbolicField()] + [SpecializedField(p) for p in DEFAULT_SPEC_POINTS]


def _same_degree(cold, warm, n):
    assert warm.jack_degree(n) == cold.jack_degree(n)
    for lam in cold.jack_degree(n):
        assert warm.norm_sq(lam) == cold.norm_sq(lam)
        assert warm.varpi(lam) == cold.varpi(lam)


def test_only_the_cli_reads_the_cache_dir_variable(tmp_path, monkeypatch):
    # a library Workspace and a suite cache only in a directory they are
    # given; the command line honours JACKLAX_CACHE_DIR
    from jacklax.arith import SymbolicField
    from jacklax.session import Workspace
    monkeypatch.setenv("JACKLAX_CACHE_DIR", str(tmp_path))
    Workspace(SymbolicField()).jack_degree(3)
    suite_main_theorem(RunConfig(mode="symbolic"), max_size=3)
    assert list(tmp_path.iterdir()) == []
    assert main(["jack", "show", "1,2"]) == 0
    assert (tmp_path / "jack_03_symbolic.json").is_file()


def test_cache_roundtrip(tmp_path, capsys):
    from jacklax.session import Workspace
    cache = str(tmp_path / "cache")
    env = dict(os.environ, JACKLAX_CACHE_DIR=cache)
    for mode in ("symbolic", "specialized"):
        r = run_cli(["cache", "warm", "--degree", "6", "--mode", mode], env=env)
        assert r.returncode == 0
    r = run_cli(["cache", "stat"], env=env)
    assert len(r.stdout.splitlines()) == 4 * 7 and "corrupt" not in r.stdout
    # a warm cache gives the rows, norms and varpi of a cold build, in both modes
    for field in _fields():
        cold, warm = Workspace(field), Workspace(field, cache)
        for n in range(7):
            _same_degree(cold, warm, n)
        assert warm.psi_row((2, 1), (1, 1)) == cold.psi_row((2, 1), (1, 1))
    assert capsys.readouterr().err == ""
    # a file of the format-2 writer is stale, and it is rebuilt
    path = tmp_path / "cache" / "jack_02_symbolic.json"
    path.write_text(FORMAT_2_BLOB)
    r = run_cli(["cache", "stat"], env=env)
    assert "jack_02_symbolic.json: stale (format 2)" in r.stdout.splitlines()
    sym = _fields()[0]
    _same_degree(Workspace(sym), Workspace(sym, cache), 2)
    assert "stale cache file" in capsys.readouterr().err
    assert json.loads(path.read_text())["format"] == CACHE_FORMAT
    r = run_cli(["cache", "clear"], env=env)
    assert r.returncode == 0 and r.stdout == "removed %d cache file(s)\n" % (4 * 7)


def _set(key, value):
    def edit(blob):
        blob["jacks"][key] = value
    return edit


def _row(*nums, c=1, forms=()):
    """The symbolic row of the numerators nums (each a list of [i, j, coeff]
    terms) at indexes 0, 1, ... over c times forms, as the cache stores it."""
    return [[[i, t] for i, t in enumerate(nums)], c, [list(f) for f in forms]]


E1, E2, ONE = [1, 0, 1], [0, 1, 1], [0, 0, 1]


# each breaks one rule of the canonical row, in the Jack of 3 (or of 1,2);
# in degree 3 the partitions are 1^3, 1,2 and 3 (indexes 0, 1, 2)
NON_CANONICAL = [
    pytest.param("symbolic", _set("3", _row([[0, 0, True]])), id="bool"),
    pytest.param("symbolic", _set("3", _row([[0, 0, 1.0]])), id="float"),
    pytest.param("symbolic", _set("3", _row([E1, [1, 0, 2]])), id="repeated term"),
    pytest.param("symbolic", _set("3", _row([[1, 0, 0], E2])), id="zero term"),
    pytest.param("symbolic", _set("3", _row([[-1, 2, 1]])), id="negative e1 exponent"),
    pytest.param("symbolic", _set("3", _row([[2, -1, 1]])), id="negative e2 exponent"),
    pytest.param("symbolic", _set("3", _row([E1], c=0)), id="c = 0"),
    pytest.param("symbolic", _set("3", _row([E1], c=-1)), id="c < 0"),
    pytest.param("symbolic", _set("3", _row(c=2)), id="zero over 2"),
    pytest.param("symbolic", _set("3", _row(forms=[E1])), id="zero over a form"),
    pytest.param("symbolic", _set("3", _row([[1, 0, 2], [0, 1, 4]], [[0, 0, 6]], c=6)),
                 id="content not prime to c"),
    pytest.param("symbolic", _set("3", _row([ONE], forms=[[2, 4, 1]])), id="non-primitive form"),
    pytest.param("symbolic", _set("3", _row([ONE], forms=[[-1, 1, 1]])),
                 id="form of negative sign"),
    pytest.param("symbolic", _set("3", _row([ONE], forms=[[0, 0, 1]])), id="zero form"),
    pytest.param("symbolic", _set("3", _row([ONE], forms=[[1, 1, 1], [1, 1, 1]])),
                 id="repeated form"),
    pytest.param("symbolic", _set("3", _row([ONE], forms=[[1, 1, 0]])), id="multiplicity 0"),
    # e1 + e2 divides every numerator
    pytest.param("symbolic", _set("3", _row([E1, E2], [[2, 0, 1], [1, 1, 1]], forms=[[1, 1, 1]])),
                 id="form divides the numerator"),
    pytest.param("symbolic", _set("1,2", [[[0, [ONE]], [3, [ONE]]], 1, []]),
                 id="index past the end"),
    pytest.param("symbolic", _set("1,2", [[[-1, [ONE]]], 1, []]), id="negative index"),
    pytest.param("symbolic", _set("1,2", [[[0, [ONE]], [0, [[0, 0, 2]]]], 1, []]),
                 id="repeated index"),
    pytest.param("symbolic", _set("1,2", [[[[ONE]]], 1, []]), id="missing index"),
    pytest.param("symbolic", _set("1,2", _row([ONE], [])), id="zero Jack term"),
    pytest.param("symbolic", _set("1,2", _row()), id="zero Jack"),
    pytest.param("symbolic", lambda blob: blob["jacks"].pop("3"), id="missing key"),
    pytest.param("symbolic", lambda blob: blob["jacks"].update({"4": blob["jacks"]["3"]}),
                 id="extra key"),
    # a format-3 table left in a format-4 file
    pytest.param("symbolic", lambda blob: blob.update({"norms": {"3": [[ONE], 1, []]}}),
                 id="extra norm"),
    pytest.param("specialized", _set("3", [[[0, 3]], 0]), id="den = 0"),
    pytest.param("specialized", _set("3", [[[0, 3]], -2]), id="den < 0"),
    pytest.param("specialized", _set("3", [[[0, 6], [1, 4]], 2]), id="not in lowest terms"),
    pytest.param("specialized", _set("3", [[[0, 0], [1, 1]], 2]), id="zero over 2 at a point"),
    pytest.param("specialized", _set("3", [[[0, 1.5]], 1]), id="float at a point"),
    pytest.param("specialized", _set("3", [[[0, True]], 1]), id="bool at a point"),
    pytest.param("specialized", _set("3", [[[0, 1]], True]), id="bool D at a point"),
    pytest.param("specialized", _set("3", [[[3, 1]], 1]), id="index past the end at a point"),
    pytest.param("specialized", _set("3", [[[0, 1], [0, 2]], 1]),
                 id="repeated index at a point"),
]


@pytest.mark.parametrize("mode, edit", NON_CANONICAL)
def test_non_canonical_cache_entry_is_rebuilt(tmp_path, capsys, mode, edit):
    # a stored value is trusted only in the field's canonical form: a file
    # that breaks it reads `corrupt` in `cache stat`, and the loader warns,
    # rebuilds it and gives what a cold build gives
    from jacklax.session import Workspace
    field = _fields()[0 if mode == "symbolic" else 3]
    cache = tmp_path / "cache"
    Workspace(field, str(cache)).jack_degree(3)
    path = next(cache.glob("jack_03_*.json"))
    good = json.loads(path.read_text())
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    assert cache_stat(str(cache))[path.name] == "corrupt"
    capsys.readouterr()
    _same_degree(Workspace(field), Workspace(field, str(cache)), 3)
    assert capsys.readouterr().err == "warning: corrupt cache file %s; rebuilding\n" % path
    assert json.loads(path.read_text()) == good


def test_corrupt_cache_rebuilt(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    from jacklax.arith import SymbolicField
    from jacklax.session import Workspace
    ws = Workspace(SymbolicField(), str(cache))
    ws.jack_degree(2)
    files = [p for p in cache.iterdir() if p.name.startswith("jack_02")]
    assert files
    files[0].write_text("{ not json")
    ws2 = Workspace(SymbolicField(), str(cache))
    assert ws2.jack_row((2,)) == ws.jack_row((2,))  # rebuilt transparently


def test_verify_all_applies_each_size_option_where_taken(capsys):
    # --to sizes kernel and cokernel only; the other suites keep their defaults
    assert main(["verify", "all", "--to", "1", "--max-degree", "1", "--max-size", "1",
                 "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    kernel = next(r for r in blob if r["suite"] == "kernel")
    assert [i["id"] for i in kernel["instances"] if i["id"].startswith("dim ker")] == \
        ["dim ker Tr_0 = 0", "dim ker Tr_1 = 0"]


def test_cache_scalar_with_a_dividing_form_is_rebuilt(tmp_path):
    # a stored denominator form that divides every numerator of its row is
    # not lowest terms: the file is not trusted, and the query prints what a
    # cold run does
    cache = tmp_path / "cache"
    assert main(["cache", "warm", "--degree", "2", "--mode", "symbolic",
                 "--cache-dir", str(cache)]) == 0
    path = next(p for p in cache.iterdir() if p.name.startswith("jack_02"))
    blob = json.loads(path.read_text())
    # (e1 + e2) V1^2 + (e1^2 + e1 e2) V2 over e1 + e2
    blob["jacks"]["1^2"] = _row([E1, E2], [[2, 0, 1], [1, 1, 1]], forms=[[1, 1, 1]])
    path.write_text(json.dumps(blob))
    r = run_cli(["jack", "show", "1^2", "--cache-dir", str(cache)])
    assert r.returncode == 0
    assert r.stderr == "warning: corrupt cache file %s; rebuilding\n" % path
    cold = run_cli(["jack", "show", "1^2"])
    assert r.stdout == cold.stdout and cold.stdout.startswith("j_{1^2} = ")


def test_cache_row_with_a_form_dividing_some_numerators_loads(tmp_path, capsys):
    # a form of D that divides only some numerators leaves the row in
    # lowest terms, as an integer > 1 that divides only some does: the row
    # is canonical and is read as it stands
    from jacklax.session import Workspace
    field = _fields()[0]
    cache = tmp_path / "cache"
    Workspace(field, str(cache)).jack_degree(2)
    path = cache / "jack_02_symbolic.json"
    blob = json.loads(path.read_text())
    # ((e1 + e2) V1^2 + 2 V2) / (2 (e1 + e2))
    blob["jacks"]["1^2"] = _row([E1, E2], [[0, 0, 2]], c=2, forms=[[1, 1, 1]])
    path.write_text(json.dumps(blob))
    assert cache_stat(str(cache))[path.name] == "2 entries"
    nums, d = Workspace(field, str(cache)).jack_row((1, 1))
    assert capsys.readouterr().err == ""
    assert list(map(str, nums.values())) == ["e1 + e2", "2"] and str(d) == "2*e1 + 2*e2"
    assert json.loads(path.read_text()) == blob


def test_stale_cache_format_rebuilt(tmp_path, capsys):
    from jacklax.arith import SymbolicField
    from jacklax.session import Workspace
    cache = tmp_path / "cache"
    ws = Workspace(SymbolicField(), str(cache))
    ws.jack_degree(2)
    path = next(p for p in cache.iterdir() if p.name.startswith("jack_02"))
    blob = json.loads(path.read_text())
    assert blob["format"] == CACHE_FORMAT
    # an old-format blob is not trusted, even when it parses
    del blob["format"]
    blob["jacks"]["2"] = "12345"
    path.write_text(json.dumps(blob))
    capsys.readouterr()
    ws2 = Workspace(SymbolicField(), str(cache))
    assert ws2.jack_row((2,)) == ws.jack_row((2,))
    err = capsys.readouterr().err
    assert "stale cache file" in err and "corrupt" not in err
    rewritten = json.loads(path.read_text())
    assert rewritten["format"] == CACHE_FORMAT
    assert rewritten["jacks"]["2"] != "12345"


def test_format_3_file_is_stale_and_rebuilt(tmp_path, capsys):
    # a file of the format-3 writer reads stale in `cache stat`; the loader
    # warns, rebuilds it in the current format and gives the cold rows
    from jacklax.session import Workspace
    field = _fields()[0]
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "jack_02_symbolic.json"
    path.write_text(FORMAT_3_BLOB)
    assert main(["cache", "stat", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == "jack_02_symbolic.json: stale (format 3)\n"
    warm = Workspace(field, str(cache)).jack_degree(2)
    assert capsys.readouterr().err == (
        "warning: stale cache file %s (format 3, want %d); rebuilding\n" % (path, CACHE_FORMAT))
    assert warm == Workspace(field).jack_degree(2)
    assert json.loads(path.read_text())["format"] == CACHE_FORMAT
    assert cache_stat(str(cache))[path.name] == "2 entries"


def test_cached_loads_build_nothing(tmp_path, monkeypatch, capsys):
    # on a cache warmed to degree 6 in both modes a fresh workspace reads
    # every Jack degree 0..6 from disk and builds none
    from jacklax import session
    cache = str(tmp_path / "cache")
    for mode in ("symbolic", "specialized"):
        assert main(["cache", "warm", "--degree", "6", "--mode", mode,
                     "--cache-dir", cache]) == 0
    cold = {field.key(): [session.Workspace(field).jack_degree(n) for n in range(7)]
            for field in _fields()}

    def unbuilt(ws, n):
        raise AssertionError("a Jack degree was built, not loaded")

    # one `psi show` per partition of degree <= 6, plain and hatted, each
    # box in turn; the expected output is the corner recursion's rows
    # (ws.psi_row, ws.psi_hat_row) through the same printer
    from jacklax import lax
    from jacklax.partitions import add_set, format_partition, partitions_of
    keys = {"symbolic": "symbolic", "specialized": _fields()[1].key()}
    queries = []
    for mode in keys:
        for n in range(7):
            for i, lam in enumerate(partitions_of(n)):
                box = "(%d,%d)" % add_set(lam)[i % len(add_set(lam))]
                for hatted in ([], ["--hatted"]):
                    queries.append((mode, n, ["psi", "show", format_partition(lam), box,
                                              "--mode", mode, "--cache-dir", cache] + hatted))
    capsys.readouterr()
    want = []
    with monkeypatch.context() as m:
        m.setattr(lax, "psi_from_jack", lambda ws, lam, s, hatted=False:
                  (ws.psi_hat_row if hatted else ws.psi_row)(lam, s))
        for _, _, argv in queries:
            assert main(argv) == 0
            want.append(capsys.readouterr().out)

    def unbuilt_psi(ws, lam, s):
        raise AssertionError("a psi row was built by the corner recursion")

    loaded = []

    def read_blob(path, read=session._read_blob):
        loaded.append(os.path.basename(path))
        return read(path)

    monkeypatch.setattr(session, "compute_homogeneous_jacks", unbuilt)
    monkeypatch.setattr(lax, "compute_psi", unbuilt_psi)
    monkeypatch.setattr(session, "_read_blob", read_blob)
    for field in _fields():
        ws = session.Workspace(field, cache)
        assert [ws.jack_degree(n) for n in range(7)] == cold[field.key()]
    # each psi query reads the Jack degree of its partition, and nothing else
    for (mode, n, argv), out in zip(queries, want):
        loaded.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == out
        assert loaded == [session._cache_name(n, keys[mode])]


@pytest.mark.parametrize("what", ["norm", "varpi"])
def test_norm_and_varpi_read_no_cache_file(tmp_path, what):
    # norms and varpi have closed forms: a query for one builds and stores
    # no Jack, and prints what a run without a cache prints
    cache = tmp_path / "cache"
    cache.mkdir()
    warm = run_cli(["jack", what, "3,2", "--cache-dir", str(cache)])
    cold = run_cli(["jack", what, "3,2"])
    assert (warm.returncode, warm.stdout, warm.stderr) == (cold.returncode, cold.stdout, "")
    assert cold.returncode == 0 and cold.stdout.startswith(
        "|j_{2,3}|^2 = " if what == "norm" else "varpi_{2,3} = ")
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("text, status", [
    ("{bad", "corrupt"),
    ("[1, 2]", "corrupt"),
    (json.dumps({"format": CACHE_FORMAT}), "corrupt"),
    (json.dumps({"degree": 3, "jacks": {"3": []}}), "stale (format None)"),
    (json.dumps({"format": 1, "degree": 3, "jacks": {"3": []}}), "stale (format 1)"),
    # a current-format file whose Jack has the non-primitive form 2*e1 + 4*e2
    (_set("3", _row([ONE], forms=[[2, 4, 1]])), "corrupt"),
])
def test_cache_stat_names_bad_files(tmp_path, capsys, text, status):
    # a file the loader would rebuild is reported as such, beside the good ones
    cache = tmp_path / "cache"
    if callable(text):
        other = str(tmp_path / "other")
        assert main(["cache", "warm", "--degree", "3", "--cache-dir", other]) == 0
        blob = json.loads((tmp_path / "other" / "jack_03_symbolic.json").read_text())
        text(blob)
        text = json.dumps(blob)
    assert main(["cache", "warm", "--degree", "1", "--mode", "symbolic",
                 "--cache-dir", str(cache)]) == 0
    (cache / "jack_03_symbolic.json").write_text(text)
    capsys.readouterr()
    assert main(["cache", "stat", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "jack_00_symbolic.json: 1 entries", "jack_01_symbolic.json: 1 entries",
        "jack_03_symbolic.json: " + status]


def test_cache_clear_and_stat_see_temp_files(tmp_path, capsys):
    # a writer killed between mkstemp and os.replace leaves a temp file
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "jack_03_symbolic.json.abc123.tmp").write_text("{")
    (cache / "notes.tmp").write_text("kept")
    args = ["--cache-dir", str(cache)]
    assert main(["cache", "stat"] + args) == 0
    assert capsys.readouterr().out.splitlines() == ["jack_03_symbolic.json.abc123.tmp: temp"]
    assert main(["cache", "clear"] + args) == 0
    assert capsys.readouterr().out.splitlines() == ["removed 1 cache file(s)"]
    assert [p.name for p in cache.iterdir()] == ["notes.tmp"]


def test_cache_stat_and_clear_build_no_workspace(tmp_path, capsys, monkeypatch):
    # stat and clear read the directory alone, in no field's workspace
    from jacklax import session
    cache = str(tmp_path / "cache")
    assert main(["cache", "warm", "--degree", "2", "--cache-dir", cache]) == 0

    def unbuilt(*args):
        raise AssertionError("a Workspace was built")

    monkeypatch.setattr(session, "Workspace", unbuilt)
    capsys.readouterr()
    assert main(["cache", "stat", "--cache-dir", cache]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "jack_00_symbolic.json: 1 entries", "jack_01_symbolic.json: 1 entries",
        "jack_02_symbolic.json: 2 entries"]
    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    assert capsys.readouterr().out == "removed 3 cache file(s)\n"
    assert os.listdir(cache) == []


@pytest.mark.parametrize("argv", [
    ["cache", "clear", "--mode", "specialized"],
    ["cache", "stat", "--degree", "3"],
    ["counts", "--partitions", "4", "--lattice", "3"],
    ["counts", "--to", "5", "--partitions", "4"],
    ["jack", "norm", "1,2", "--hatted"],
    ["jack", "show", "1,1", "--spec-points=-3/2,22/7"],
])
def test_refused_option_leaves_the_cache_as_it_was(tmp_path, capsys, monkeypatch, argv):
    # an option a command does not read is refused before any work: one
    # error line, nothing on stdout, and the cache directory untouched
    cache = tmp_path / "cache"
    assert main(["cache", "warm", "--degree", "2", "--cache-dir", str(cache)]) == 0
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    capsys.readouterr()
    monkeypatch.setenv("JACKLAX_CACHE_DIR", str(cache))
    rc, out, err = _in_process(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before


def test_store_skipped_when_clear_takes_its_temp_file(tmp_path, monkeypatch):
    # a `cache clear` that runs between a writer's mkstemp and os.replace
    # removes the temp file; the writer then stores nothing and does not raise
    from jacklax.arith import SymbolicField
    from jacklax.session import Workspace
    cache = tmp_path / "cache"
    ws = Workspace(SymbolicField(), str(cache))
    replace = os.replace

    def clear_then_replace(src, dst):
        assert cache_clear(str(cache)) == 1
        replace(src, dst)

    monkeypatch.setattr(os, "replace", clear_then_replace)
    assert ws.jack_degree(2) == Workspace(SymbolicField()).jack_degree(2)
    assert list(cache.iterdir()) == []


def test_cache_warm_builds_only_the_jack_degrees(tmp_path, capsys, monkeypatch):
    # the disk cache holds the Jacks: warming it to degree 3 reads the psi
    # of degree 2 (for the Jacks of degree 3) and no psi of degree 3
    from jacklax import lax
    degrees = []
    build = lax.compute_psi

    def compute_psi(ws, lam, s):
        degrees.append(sum(lam))
        return build(ws, lam, s)

    monkeypatch.setattr(lax, "compute_psi", compute_psi)
    assert main(["cache", "warm", "--degree", "3", "--mode", "symbolic",
                 "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "warmed to degree 3 (1 workspace(s))\n"
    assert degrees and max(degrees) == 2
    assert sorted(os.listdir(tmp_path)) == ["jack_%02d_symbolic.json" % n for n in range(4)]


def test_concurrent_cache_warm(tmp_path):
    shared, serial = tmp_path / "shared", tmp_path / "serial"
    cmd = [sys.executable, "-m", "jacklax.cli", "cache", "warm", "--degree", "5",
           "--cache-dir"]
    procs = [subprocess.Popen(cmd + [str(shared)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err
    assert run_cli(["cache", "warm", "--degree", "5", "--cache-dir", str(serial)]).returncode == 0
    names = sorted(p.name for p in shared.iterdir())
    assert names == sorted(p.name for p in serial.iterdir())
    assert names == ["jack_%02d_symbolic.json" % n for n in range(6)]
    for name in names:
        assert (shared / name).read_bytes() == (serial / name).read_bytes()


def test_spec_point_parsing():
    pts = RunConfig.parse_points("-101,103;-3/2,22/7")
    assert len(pts) == 2
    assert str(pts[1].e1) == "-3/2"
    with pytest.raises(Exception):
        RunConfig.parse_points("1,-1")


def test_specialized_main_theorem_through_the_disk_cache(tmp_path, capsys, monkeypatch):
    # a cold run writes the cache, a warm run reads every Jack from it
    # (checking each row once, on first use), and both give the canonical
    # report of a run without a cache
    from jacklax import session
    argv = ["verify", "main-theorem", "--mode", "specialized", "--max-size", "5",
            "--format", "json"]

    def report(*extra):
        assert main(argv + list(extra)) == 0
        blob = json.loads(capsys.readouterr().out)
        blob.pop("elapsed_ms")
        return json.dumps(blob, sort_keys=True)

    want = report()
    cache = str(tmp_path / "cache")
    assert report("--cache-dir", cache) == want
    assert len(os.listdir(cache)) == 6 * 3

    def unbuilt(ws, n):
        raise AssertionError("a Jack degree was built, not loaded")

    monkeypatch.setattr(session, "compute_homogeneous_jacks", unbuilt)
    assert report("--cache-dir", cache) == want
