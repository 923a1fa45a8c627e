"""The check contract: every check returns its residual, and the Report
alone turns it into a status and a witness.

The mutants below are made by monkeypatching only.  A name is patched in
every jacklax module that binds it (lax_apply lives in lax, verify, traces
and shc), and each mutant must FAIL some instance of the gating suites at
small sizes with a witness that names the spec point, an object and both
sides of the first mismatch."""

import json
import sys

import pytest

from jacklax import lax, session, spectral, traces
from jacklax.arith import DEFAULT_SPEC_POINTS
from jacklax.cli import main
from jacklax.partitions import add_set, rem_set_plus
from jacklax.report import SKIP, WITNESS_CUT, Report, RunConfig, instance, witness
from jacklax.verify import SUITES

# small sizes of the gating suites (conjectures never gate)
SIZES = {"tau": {"max_size": 3}, "spectral": {"max_degree": 3},
         "main-theorem": {"max_size": 3}, "cokernel": {"to": 2}, "kernel": {"to": 4},
         "traces": {"max_degree": 3}, "pieri": {"max_size": 3},
         "shc": {"max_degree": 2}}
POINTS = DEFAULT_SPEC_POINTS[:2]


def _patch_everywhere(monkeypatch, real, fake):
    """Bind fake in every jacklax module that binds the function real."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("jacklax.") and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, fake)


def _doubled_lax_apply(monkeypatch):
    real = lax.lax_apply
    _patch_everywhere(monkeypatch, real, lambda field, row: _double_first(real(field, row)))


def _double_first(row):
    nums, d = row
    if nums:
        nums = dict(nums)
        key = next(iter(nums))
        nums[key] = 2 * nums[key]
    return nums, d


def _shifted_tau(monkeypatch):
    # the content [s] read as [s + (1, 0)] in the differences [s - b] to
    # the other addable boxes b, none of which is s + (1, 0)
    def tau(field, lam, s):
        return field.ratio(spectral._diffs(s, rem_set_plus(lam)),
                           spectral._diffs((s[0] + 1, s[1]), add_set(lam), s))
    _patch_everywhere(monkeypatch, spectral.tau, tau)


def _zeroed_tau(monkeypatch):
    # the content [s] read as [s + (1, 0)] in the differences [s - t] to the
    # outer corners t: where s + (1, 0) is one of them, tau is 0, and the
    # norm ratio |j_lam+s|^2 / |j_lam|^2 = tau~ / tau divides by it
    def tau(field, lam, s):
        return field.ratio(spectral._diffs((s[0] + 1, s[1]), rem_set_plus(lam)),
                           spectral._diffs(s, add_set(lam), s))
    _patch_everywhere(monkeypatch, spectral.tau, tau)


def _scaled_psi_hat_dual(monkeypatch):
    real = session.PsiHatDual.__init__

    def init(self, ws, n):
        real(self, ws, n)
        if n == 2:
            self.scales[0] = 2 * self.scales[0]
    monkeypatch.setattr(session.PsiHatDual, "__init__", init)


def _swapped_beta_theta(monkeypatch):
    beta, theta = traces.beta, traces.theta
    _patch_everywhere(monkeypatch, beta,
                      lambda ws, z1, z2, prod=None, images=None: theta(ws, z1, z2, images))
    _patch_everywhere(monkeypatch, theta,
                      lambda ws, z1, z2, images=None: beta(ws, z1, z2, None, images))


def _failures():
    cfg = RunConfig(mode="specialized", points=POINTS)
    return [(suite, inst) for suite, sizes in SIZES.items()
            for inst in SUITES[suite](cfg, **sizes).instances if inst["status"] == "FAIL"]


@pytest.mark.parametrize("mutate", [_doubled_lax_apply, _shifted_tau, _scaled_psi_hat_dual,
                                    _swapped_beta_theta])
def test_every_mutant_fails_with_a_witness(mutate, monkeypatch):
    assert _failures() == []
    mutate(monkeypatch)
    failed = _failures()
    assert failed
    keys = [p.key() for p in POINTS]
    for suite, inst in failed:
        point, _, rest = inst["witness"].partition(": ")
        assert point in keys and rest and "!=" in rest, (suite, inst)


def test_a_check_that_returns_a_bool_raises():
    rep = Report("bool", RunConfig(points=POINTS[:1]))
    rep.check("a bool", _true)
    with pytest.raises(TypeError):
        rep.done()
    with pytest.raises(TypeError):
        Report("bool", RunConfig(points=POINTS[:1])).add("a bool", True)


def _true(ws):
    return True


def _tau_report(capsys, *extra):
    assert main(["verify", "tau", "--max-size", "3", "--format", "json"] + list(extra)) == 1
    blob = json.loads(capsys.readouterr().out)
    blob.pop("elapsed_ms")
    return blob


def test_a_check_that_raises_fails_its_instance(monkeypatch, capsys):
    # a division by the zero a defect makes FAILs the check that divides,
    # names what it raised, and the run goes on to its other checks
    _zeroed_tau(monkeypatch)
    serial = _tau_report(capsys)
    assert _tau_report(capsys, "--jobs", "2") == serial
    raised = [i for i in serial["instances"] if "raised: " in i["witness"]]
    assert raised and all(i["status"] == "FAIL" and i["id"].startswith("norm ratio")
                          and i["witness"].endswith(" != nothing") for i in raised)
    assert len(serial["instances"]) > len(raised)


def _raises(ws, n):
    raise ValueError("no sweep of %d" % n)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_that_raises_fails_one_instance(jobs):
    rep = Report("raises", RunConfig(points=POINTS, jobs=jobs))
    rep.sweep(_raises, 3)
    rep.check("a pass", _empty)
    assert rep.done().instances == [
        {"id": "a pass", "status": "PASS", "witness": ""},
        {"id": "sweep raises(3,)", "status": "FAIL",
         "witness": "%s: raised: no sweep of 3 != nothing" % POINTS[0].key()}]


def _empty(ws):
    return {}


def _first_point_is(status):
    """A one-instance sweep: status at the first point, FAIL elsewhere."""
    return lambda ws: [_at(ws, status if ws.key() == POINTS[0].key() else "FAIL")]


def _at(ws, status):
    res = {"PASS": {}, "SKIP": SKIP, "FAIL": {("x", ws.key()): (1, 2)}}[status]
    return instance("id", res, "why")


@pytest.mark.parametrize("first", ["PASS", "SKIP", "FAIL"])
def test_a_sweep_keeps_the_gravest_instance(first):
    # FAIL over SKIP over PASS, and the first among equals
    rep = Report("merge", RunConfig(points=POINTS))
    rep.sweep(_first_point_is(first))
    key = POINTS[0].key() if first == "FAIL" else POINTS[1].key()
    assert rep.done().instances == [
        {"id": "id", "status": "FAIL", "witness": "%s: x %s: 1 != 2" % (key, key)}]
    assert not rep.all_pass()


def test_a_skip_outranks_a_pass():
    rep = Report("merge", RunConfig(points=POINTS))
    rep.sweep(_skip_after_pass)
    assert rep.done().instances == [{"id": "id", "status": "SKIP", "witness": "why"}]
    assert rep.all_pass()


def _skip_after_pass(ws):
    return [_at(ws, "PASS" if ws.key() == POINTS[0].key() else "SKIP")]


def test_witness_names_the_first_mismatch_cut_to_length():
    long = "9" * (2 * WITNESS_CUT)
    got = witness({("label", (1, 2)): (long, 0), "second": (1, 2)})
    assert got == "label (1, 2): %s... != 0" % long[:WITNESS_CUT - 3]
    assert instance("id", {}, "note") == {"id": "id", "status": "PASS", "witness": "note"}
    assert instance("id", {"a": (1, 2)}, "note", known="known") == {
        "id": "id", "status": "FAIL", "witness": "known"}
    assert instance("id", {"a": (1, 2)}, "note") == {
        "id": "id", "status": "FAIL", "witness": "a: 1 != 2"}
