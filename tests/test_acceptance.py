"""Acceptance criteria.

Every criterion runs at its stated size with exact (tolerance-zero) rational
arithmetic and prints one pass/fail line.  Conjecture reproduction (the last
criterion) never gates the suite; everything else must pass.
"""

import time

import pytest

from jacklax.arith import SymbolicField
from jacklax.fock import inner_hbar
from jacklax.jack import jack_norm_sq, pieri_stanley
from jacklax.report import RunConfig
from jacklax.session import Workspace
from jacklax.spectral import tau
from jacklax.partitions import parse_partition
from jacklax import verify as vf


def _announce(num, desc, ok, elapsed):
    # visible with `pytest -s` (or --capture=tee-sys); one line per criterion
    line = "ACCEPTANCE %02d %s: %s (%.1fs)" % (num, "PASS" if ok else "FAIL",
                                               desc, elapsed)
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def sym_ws():
    return Workspace(SymbolicField())


@pytest.fixture(scope="module")
def spec_cfg():
    return RunConfig(mode="specialized", jobs=1)


@pytest.fixture(scope="module")
def sym_cfg():
    return RunConfig(mode="symbolic", jobs=1)


def test_criterion_01_jack_triple(sym_ws):
    t0 = time.monotonic()
    F = sym_ws.field
    e1, e2, one = F.e1, F.e2, F.one
    expected = {
        (1, 1, 1): {(1, 1, 1): one, (2, 1): 3 * e1, (3,): 2 * e1 ** 2},
        (2, 1): {(1, 1, 1): one, (2, 1): e1 + e2, (3,): e1 * e2},
        (3,): {(1, 1, 1): one, (2, 1): 3 * e2, (3,): 2 * e2 ** 2},
    }
    ok = all(F.uncleared(sym_ws.jack_row(lam)) == vec for lam, vec in expected.items())
    elapsed = time.monotonic() - t0
    assert _announce(1, "homogeneous Jack triple at n=3", ok, elapsed)
    assert elapsed < 1.0


def _psi_expected(F):
    """The six-line expansion of psi_{1,2^2}^{(2,1)} (X=e1, Y=e2); every
    coefficient is forced by homogeneity and the eigen-equation."""
    X, Y = F.e1, F.e2
    two = F.num(2)
    return {
        (0, (1, 1, 1, 1, 1)): F.one,
        (0, (2, 1, 1, 1)): two * (2 * X + Y),
        (0, (2, 2, 1)): 3 * X ** 2 + X * Y + Y ** 2,
        (0, (3, 1, 1)): 2 * X * (X + 3 * Y),
        (0, (3, 2)): 2 * X * (X ** 2 + Y ** 2),
        (0, (4, 1)): X * Y * (7 * X + Y),
        (0, (5,)): 2 * X ** 2 * Y * (X + Y),
        (1, (1, 1, 1, 1)): 2 * X + Y,
        (1, (2, 1, 1)): two * (3 * X ** 2 + X * Y + Y ** 2),
        (1, (2, 2)): Y * (5 * X ** 2 - 3 * X * Y + Y ** 2),
        (1, (3, 1)): 4 * X * (X ** 2 + Y ** 2),
        (1, (4,)): X * Y * (4 * X ** 2 - X * Y + Y ** 2),
        (2, (1, 1, 1)): 2 * X * (X + 3 * Y),
        (2, (2, 1)): 6 * X * (X ** 2 + Y ** 2),
        (2, (3,)): 2 * X ** 2 * (2 * X ** 2 - 3 * X * Y + 3 * Y ** 2),
        (3, (1, 1)): 2 * X * Y * (7 * X + Y),
        (3, (2,)): 2 * X * Y * (4 * X ** 2 - X * Y + Y ** 2),
        (4, (1,)): 10 * X ** 2 * Y * (X + Y),
        (5, ()): 2 * X ** 2 * Y * (2 * X ** 2 + 3 * X * Y + Y ** 2),
    }


def test_criterion_02_psi_example(sym_ws):
    t0 = time.monotonic()
    lam = parse_partition("1,2^2")
    got = sym_ws.field.uncleared(sym_ws.psi_row(lam, (2, 1)))
    ok = got == _psi_expected(sym_ws.field)
    elapsed = time.monotonic() - t0
    assert _announce(2, "psi_{1,2^2}^{(2,1)} six-line expansion (symbolic)",
                     ok, elapsed)
    assert elapsed < 5.0


def test_criterion_03_norm_examples(sym_ws):
    t0 = time.monotonic()
    F = sym_ws.field
    lam = parse_partition("1,2^2")
    jn = F.one
    for form in [(1, 0), (2, -1), (3, -1), (1, 0), (2, 0),
                 (0, -1), (1, -2), (2, -2), (0, -1), (1, -1)]:
        jn = jn * F.lf(form)
    ok = jack_norm_sq(F, lam) == jn
    # psi norm: the first lower hook and the last two upper hooks change
    pn = F.one
    for form in [(1, -1), (2, -1), (3, -1), (1, 0), (2, 0),
                 (0, -1), (1, -2), (2, -2), (1, -1), (2, -1)]:
        pn = pn * F.lf(form)
    psi = sym_ws.psi_row(lam, (2, 1))
    ok = ok and inner_hbar(psi, psi, F) == pn
    ok = ok and pn == jn / tau(F, lam, (2, 1))
    elapsed = time.monotonic() - t0
    assert _announce(3, "hook-product norms of j and psi at {1,2^2}", ok, elapsed)


def test_criterion_04_main_theorem(sym_cfg, spec_cfg):
    t0 = time.monotonic()
    rep_sym = vf.suite_main_theorem(sym_cfg, max_size=6)
    sym_ok = rep_sym.all_pass()
    sym_t = time.monotonic() - t0
    t1 = time.monotonic()
    cfg_par = RunConfig(mode="specialized", jobs=2)
    rep_spec = vf.suite_main_theorem(cfg_par, max_size=8)
    spec_ok = rep_spec.all_pass()
    spec_t = time.monotonic() - t1
    ok = sym_ok and spec_ok
    assert _announce(4, "main theorem: symbolic size<=6, specialized size<=8",
                     ok, sym_t + spec_t)
    assert sym_t < 600 and spec_t < 900


def test_criterion_05_spectral(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_spectral(spec_cfg, max_degree=7)
    elapsed = time.monotonic() - t0
    assert _announce(5, "spectral suite to degree 7 (specialized)",
                     rep.all_pass(), elapsed)
    assert elapsed < 300


def test_criterion_06_cokernel(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_cokernel(spec_cfg, to=7)
    ok = rep.all_pass()
    # the n=4 display list is pinned in test_traces; re-assert the count here
    from jacklax.traces import cokernel_relations
    ok = ok and len(cokernel_relations(4)) == 10
    elapsed = time.monotonic() - t0
    assert _announce(6, "cokernel relations and dimensions to n=7", ok, elapsed)


def test_criterion_07_kernel(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_kernel(spec_cfg, to=7)
    ok = rep.all_pass()
    from jacklax.traces import kernel_dimension
    ok = ok and [kernel_dimension(n) for n in (4, 5, 6)] == [1, 2, 5]
    elapsed = time.monotonic() - t0
    assert _announce(7, "kernel dimensions and hexagon generators", ok, elapsed)


def test_criterion_08_trace_formula(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_traces(spec_cfg, max_degree=6)
    elapsed = time.monotonic() - t0
    assert _announce(8, "trace formula and twisted traces to degree 6",
                     rep.all_pass(), elapsed)
    assert elapsed < 600


def test_criterion_09_tau_identities(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_tau(spec_cfg, max_size=8)
    elapsed = time.monotonic() - t0
    assert _announce(9, "tau identities for all |lam| <= 8", rep.all_pass(),
                     elapsed)


def test_criterion_10_delta(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_delta(spec_cfg)
    elapsed = time.monotonic() - t0
    assert _announce(10, "Delta kernel cycles, rank, product identity",
                     rep.all_pass(), elapsed)


def test_criterion_11_shc(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_shc(spec_cfg, max_degree=6)
    elapsed = time.monotonic() - t0
    assert _announce(11, "SHc construction and Whittaker checks to degree 6",
                     rep.all_pass(), elapsed)
    assert elapsed < 600


def test_criterion_12_counting(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_counts(spec_cfg)
    elapsed = time.monotonic() - t0
    assert _announce(12, "counting series and Koszul Hilbert identities",
                     rep.all_pass(), elapsed)


def test_criterion_13_oracle_equivalence(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_pieri(spec_cfg, max_total=7, marg_max=6)
    ok = rep.all_pass()
    # symbolic spot check of the worked Pieri value
    F = SymbolicField()
    tab = pieri_stanley(F, 2, (2,))
    ok = ok and tab[parse_partition("1^2,2")] == -F.e2 / (F.e1 - F.e2)
    elapsed = time.monotonic() - t0
    assert _announce(13, "Stanley-Pieri and Jack-Lax marginalization oracles",
                     ok, elapsed)


def test_criterion_14_conjectures(spec_cfg):
    t0 = time.monotonic()
    rep = vf.suite_conjectures(spec_cfg, max_degree=6)
    # non-gating: the reproducible sweeps must pass while the genuinely
    # false claims (hook-sum, rho~ extension) report FAIL
    insts = {r["id"]: r["status"] for r in rep.instances}
    good = all(st == "PASS" for i, st in insts.items()
               if i.startswith(("beta=rho(F(dPi))theta", "beta=rho~theta",
                                "selection-rule", "evidence-1",
                                "rho~ differential form on F")))
    skipped = sum(1 for st in insts.values() if st == "SKIP")
    elapsed = time.monotonic() - t0
    _announce(14, "conjecture reproduction (non-gating; %d skipped, "
                  "known-false claims report FAIL)" % skipped, good, elapsed)
    assert good
