import random

import pytest

from jacklax.errors import NotGood, NotInNullSpace
from jacklax.fock import (Pi, ext_mul, fock_to_ext, hn_basis, pi0, pi_plus,
                          v_accum, w_mul)
from jacklax.lax import lax_apply, op_A
from jacklax.partitions import (add_box, add_set, parse_partition,
                                partitions_of)
from jacklax.spectral import T_partition, T_star, star_residues
from jacklax.traces import (beta, beta_basic, cokernel_relations,
                            conjecture_sweeps, d_Pi, full_trace,
                            good_normalizer_F, hexagon_span_dimension,
                            kernel_basis, kernel_dim_series, kernel_dimension,
                            koszul_A_series, koszul_hilbert_check,
                            null_module_expected_dim, null_module_rank, pair_traces,
                            resolvent_w_identity, rho_general,
                            theta, theta_basic, verify_cokernel,
                            verify_twisted_traces, y_trace_product_check)
from jacklax.report import map_residual
from oracles import q_poly_hat


def _jack_hat_row(ws, lam):
    """The cleared row of jhat_lam = j_lam / varpi_lam as an ExtVec."""
    nums, d = ws.jack_row(lam)
    return ws.field.combine([(1 / ws.varpi(lam), (fock_to_ext(nums), d))])


def test_y_u_of_jack_hat(spec):
    F = spec.field
    for n in range(1, 6):
        for lam in partitions_of(n):
            got = full_trace(spec, _jack_hat_row(spec, lam)).y
            T = T_partition(F, lam)
            exp = {s: T.residue(s, F) for s in T.den}
            assert map_residual(got, exp) == {}


def test_trace_of_psi_hat(spec):
    F = spec.field
    for n in range(1, 5):
        for lam in partitions_of(n):
            nums, d = spec.jack_row(lam)
            assert not full_trace(spec, (fock_to_ext(nums), d)).z
            for s in add_set(lam):
                tv = full_trace(spec, spec.psi_hat_row(lam, s))
                assert tv.x == {add_box(lam, s): F.one}
                assert tv.y == {s: F.one}
                assert tv.z == {lam: F.one}


def test_cokernel(spec):
    for n in range(0, 8):
        assert verify_cokernel(n) == {}


def test_cokernel_n0():
    assert cokernel_relations(0) == {(0, 0): {("z", ()): 1, ("x", (1,)): -1}}


def test_cokernel_n4_list():
    # the ten relations at n=4, written out explicitly
    p = parse_partition
    rels = cokernel_relations(4)
    assert len(rels) == 10
    assert rels[(4, 0)] == {("y", (4, 0)): 1, ("x", p("1^5")): -1}
    assert rels[(3, 0)] == {("y", (3, 0)): 1, ("z", p("1^4")): 1,
                            ("x", p("1^5")): -1, ("x", p("1^3,2")): -1}
    assert rels[(1, 1)] == {("y", (1, 1)): 1, ("z", p("2^2")): 1,
                            ("x", p("2,3")): -1, ("x", p("1,2^2")): -1}
    assert rels[(2, 0)] == {("y", (2, 0)): 1, ("z", p("1^4")): 1,
                            ("z", p("1^2,2")): 1, ("x", p("1^3,2")): -1,
                            ("x", p("1^5")): -1, ("x", p("1,2^2")): -1,
                            ("x", p("1^2,3")): -1}
    assert rels[(1, 0)] == {("y", (1, 0)): 1,
                            **{("z", p(t)): 1 for t in ("1^4", "1^2,2", "2^2", "1,3")},
                            **{("x", p(t)): -1 for t in
                               ("1^5", "1^3,2", "1,2^2", "1^2,3", "2,3", "1,4")}}
    assert rels[(0, 0)] == {**{("z", l): 1 for l in partitions_of(4)},
                            **{("x", g): -1 for g in partitions_of(5)}}
    # transposed partners are present
    for s in [(0, 4), (0, 3), (0, 2), (0, 1)]:
        assert s in rels


def test_resolvent_w_identity(spec):
    for n in range(0, 5):
        assert resolvent_w_identity(spec, n) == {}


def test_kernel_dimensions():
    dims = [kernel_dimension(n) for n in range(7)]
    assert dims == [0, 0, 0, 0, 1, 2, 5]
    ser = kernel_dim_series(6)
    assert [ser.coeff(i) for i in range(7)] == [0, 0, 0, 0, 1, 2, 5]
    assert hexagon_span_dimension(4) == 1
    assert hexagon_span_dimension(5) == 2
    assert hexagon_span_dimension(6) == 5


def test_kernel_generators():
    hx4 = kernel_basis(4)
    assert len(hx4) == 1
    assert hx4[0].eta == (2, 1)
    assert set(hx4[0].corners) == {(2, 0), (1, 1), (0, 2)}
    hx5 = {(h.eta, frozenset(h.corners)) for h in kernel_basis(5)}
    assert hx5 == {((3, 1), frozenset({(2, 0), (1, 1), (0, 3)})),
                   ((2, 1, 1), frozenset({(3, 0), (1, 1), (0, 2)}))}


def test_hexagons_in_kernel(spec):
    for n in (4, 5):
        for hx in kernel_basis(n):
            tv = full_trace(spec, hx.value(spec))
            assert not tv.x and not tv.y and not tv.z


def test_beta_basics(spec):
    F = spec.field
    R, V = F.clear, F.uncleared
    one = F.one
    for m in (1, 2, 3):
        assert V(beta_basic(spec, 1, m)) == {(0, (m + 1,)): one, (m, (1,)): -one}
    # beta(1, zeta) = 0
    assert V(beta(spec, R({(0, ()): one}), R({(2, (1,)): one}))) == {}
    # beta(w, zeta) = pi0 L w zeta - V1 zeta
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randint(1, 4)
        keys = list(hn_basis(n))
        zeta = {k: F.num(rng.randint(-3, 3) or 1)
                for k in rng.sample(keys, min(2, len(keys)))}
        lhs = V(beta(spec, R({(1, ()): one}), R(zeta)))
        rhs = v_accum(fock_to_ext(V(op_A(F, R(zeta)))),
                      ext_mul({(0, (1,)): one}, zeta), -one)
        assert lhs == rhs


def test_beta_principal_specialization_vanishes(spec):
    F = spec.field
    for (a, b) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        bb = F.uncleared(beta_basic(spec, a, b))
        tot = {}
        for (m, mu), c in bb.items():
            d = len(mu)
            tot[d] = tot.get(d, F.zero) + c
        assert all(not v for v in tot.values())


def test_beta_F_bilinear(spec):
    F = spec.field
    R, V = F.clear, F.uncleared
    one = F.one
    zeta = {(2, ()): one}
    xi = {(1, (1,)): one}
    eta = {(0, (2, 1)): one}
    assert V(beta(spec, R(zeta), R(ext_mul(eta, xi)))) == ext_mul(eta, V(beta(spec, R(zeta), R(xi))))
    assert V(beta(spec, R(zeta), R(xi))) == V(beta(spec, R(zeta), R(pi_plus(xi))))


def test_theta_basics(spec):
    F = spec.field
    R, V = F.clear, F.uncleared
    one = F.one
    for m in (1, 2, 5):
        assert V(theta_basic(spec, 1, m)) == {(0, (m,)): one}
    t22 = V(theta_basic(spec, 2, 2))
    assert pi0(t22) == {(3,): one}
    assert pi_plus(t22) == w_mul(V(beta_basic(spec, 1, 1)))
    # theta(psi-hat_1^v, psi-hat_lam^s) = jhat_lam
    for lam in [(1,), (2,), (2, 1)]:
        for s in add_set(lam):
            for v in add_set((1,)):
                th = theta(spec, spec.psi_hat_row((1,), v), spec.psi_hat_row(lam, s))
                assert V(th) == V(_jack_hat_row(spec, lam))
    # pi0 theta = pi0 L dPi ; pi+ theta = w beta(Pi, Pi)
    z1 = {(2, (1,)): one}
    z2 = {(1, (2,)): one}
    th = V(theta(spec, R(z1), R(z2)))
    assert pi0(th) == pi0(V(lax_apply(F, R(d_Pi(z1, z2)))))
    assert pi_plus(th) == w_mul(V(beta(spec, R(Pi(z1)), R(Pi(z2)))))


def test_twisted_traces(spec):
    R = spec.field.clear
    one = spec.field.one
    cases = [((1,), (1, 0), (2, 1), (1, 1)),
             ((2,), (0, 2), (1, 1), (0, 1)),
             ((1,), (0, 1), (1,), (1, 0))]
    for lam, s, nu, t in cases:
        assert verify_twisted_traces(spec, spec.psi_hat_row(lam, s),
                                     spec.psi_hat_row(nu, t)) == {}
    assert verify_twisted_traces(spec, R({(2, ()): one}), R({(3, ()): one})) == {}
    assert verify_twisted_traces(spec, R({(0, ()): one}), R({(2, (1,)): one})) == {}


def test_y_trace_product(spec):
    for lam, s, nu, t in [((2, 1), (1, 1), (2, 1), (2, 0)), ((1,), (1, 0), (1,), (0, 1)),
                          ((), (0, 0), (2,), (1, 0))]:
        t_prod, t_beta, _ = pair_traces(spec, spec.psi_hat_row(lam, s), spec.psi_hat_row(nu, t))
        assert y_trace_product_check(spec, lam, s, nu, t, t_prod, t_beta,
                                     star_residues(spec.field, lam, nu),
                                     T_star(spec.field, lam, nu)) == {}


@pytest.mark.parametrize("point, maxn", [(0, 4), (1, 4), (2, 4), (None, 3)])
def test_pair_traces_match_field_oracle(point, maxn, sym, spec_all):
    # the product/beta/theta chain runs once per pair on integer numerators
    # at a specialized point; composed afresh on field scalars it gives the
    # same vectors over D1 D2 L, and the same traces, key order included
    # (no report, rank or expansion reads the key order of beta or theta)
    from jacklax.partitions import pair_quads
    from jacklax.traces import pair_traces
    from oracles import field_beta, field_pair_traces, field_theta
    ws = sym if point is None else spec_all[point]
    for lam, s, nu, t in pair_quads(maxn):
        rows = ws.psi_hat_row(lam, s), ws.psi_hat_row(nu, t)
        for op, oracle in ((beta, field_beta), (theta, field_theta)):
            got, want = op(ws, *rows), oracle(ws, *rows)
            assert ws.field.uncleared(got) == ws.field.uncleared(want)
            assert got[1] == rows[0][1] * rows[1][1] * ws.field.lax_ints[2]
        for got, want in zip(pair_traces(ws, *rows), field_pair_traces(ws, *rows)):
            assert got.n == want.n
            for part in ("x", "y", "z"):
                assert list(getattr(got, part).items()) == list(getattr(want, part).items())


def test_suites_match_with_operator_layer_on_oracles(monkeypatch):
    # the traces and spectral reports are byte-identical when lax_apply,
    # beta, theta and the pair chain run on field scalars instead
    import sys
    import oracles
    from jacklax import lax, traces
    from jacklax.report import RunConfig
    from jacklax.verify import suite_spectral, suite_traces

    def reports():
        cfg = RunConfig(mode="specialized", jobs=1)
        return [suite(cfg, max_degree=5).canonical_json()
                for suite in (suite_traces, suite_spectral)]

    shipped = reports()
    swaps = {id(lax.lax_apply): oracles.field_lax_row, id(traces.beta): oracles.field_beta,
             id(traces.theta): oracles.field_theta,
             id(traces.pair_traces): oracles.field_pair_traces}
    for name, mod in list(sys.modules.items()):
        if name.startswith("jacklax."):
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps:
                    monkeypatch.setattr(mod, attr, swaps[id(value)])

    def unpatched(*args):
        raise AssertionError("the integer Lax loop ran")

    monkeypatch.setattr(lax, "_lax_loop", unpatched)
    assert reports() == shipped


def test_suites_match_with_psi_row_dual(monkeypatch):
    # the traces, spectral and kernel reports are byte-identical when the
    # psi-hat expansion pairs every key with every psi row of its degree
    # (one DualIndex) instead of running the corner recursion
    import oracles
    from jacklax.report import RunConfig
    from jacklax.session import PsiHatDual, Workspace
    from jacklax.verify import suite_kernel, suite_spectral, suite_traces

    def reports():
        cfg = RunConfig(mode="specialized", jobs=1)
        return [suite_traces(cfg, max_degree=5).canonical_json(),
                suite_spectral(cfg, max_degree=5).canonical_json(),
                suite_kernel(cfg, to=5).canonical_json()]

    shipped = reports()

    def unpatched(*args):
        raise AssertionError("a psi-hat dual was built")

    monkeypatch.setattr(Workspace, "psi_hat_solver", oracles.psi_row_solver)
    monkeypatch.setattr(PsiHatDual, "__init__", unpatched)
    assert reports() == shipped


def test_trace_formula(spec):
    from jacklax import lr
    F = spec.field
    for lam, s, nu, t in [((1,), (1, 0), (2,), (0, 2)),
                          ((2, 1), (2, 0), (1, 1), (2, 0)),
                          ((1, 1), (0, 1), (1, 1), (2, 0))]:
        tv = full_trace(spec, theta(spec, spec.psi_hat_row(lam, s), spec.psi_hat_row(nu, t)))
        assert map_residual(tv.x, lr.jack_lr(spec, lam, nu, hatted=True)) == {}
        assert map_residual(tv.y, star_residues(F, lam, nu)) == {}
        assert not tv.z


def test_null_module_ranks(spec):
    for n in range(1, 6):
        for which in ("Z0", "X0"):
            assert null_module_rank(spec, n, which) == \
                null_module_expected_dim(n, which)


def test_rho(spec):
    # rho_lam^s = rho(psi-hat_lam^s) on Z0_lam: psi-hat^t - psi-hat^s ->
    # psi-hat_{lam+s}^t - psi-hat_{lam+t}^s
    F = spec.field
    lam = (2, 1)
    A = add_set(lam)
    s = A[0]
    xi = spec.psi_hat_row(lam, s)
    for t in A[1:]:
        zeta = spec.psi_hat_combine({(lam, t): 1, (lam, s): -1})
        img = rho_general(spec, xi, zeta)
        assert img == spec.psi_hat_combine({(add_box(lam, s), t): 1, (add_box(lam, t), s): -1})
        tv_in = full_trace(spec, zeta)
        tv_out = full_trace(spec, img)
        assert not tv_out.x
        assert map_residual(tv_out.y, tv_in.y) == {}
        assert map_residual(tv_out.z, {k: -v for k, v in tv_in.x.items()}) == {}
    with pytest.raises(NotInNullSpace):
        rho_general(spec, xi, xi)


def test_rho_beta_relation(spec):
    F = spec.field
    one = F.one
    for lam in [(2, 1), (2,)]:
        for s in add_set(lam):
            v = add_set((1,))[0]
            lhs = beta(spec, spec.psi_hat_row((1,), v), spec.psi_hat_row(lam, s))
            rhs = rho_general(spec, spec.psi_hat_row(lam, s), _jack_hat_row(spec, lam))
            assert F.combine([(1, lhs)]) == rhs
    lam = (2, 1)
    A = add_set(lam)
    zeta = spec.psi_hat_combine({(lam, A[0]): 1, (lam, A[1]): -1})
    # rho_general takes and returns cleared rows
    assert rho_general(spec, zeta, zeta) == F.clear({})
    assert rho_general(spec, zeta, _jack_hat_row(spec, lam)) == \
        F.combine([(1, beta(spec, F.clear({(1, ()): one}), zeta))])


def test_good_normalizer(spec):
    F = spec.field
    one = F.one
    # good_normalizer_F takes and returns cleared rows
    for n in (1, 2, 3):
        f = good_normalizer_F(spec, F.clear({(n, ()): one}))
        acc = {}
        for lam in partitions_of(n):
            v_accum(acc, w_mul(q_poly_hat(spec, lam)), one / (F.num(n) * F.hbar))
        assert f == F.clear(acc)
    lam = (2, 1)
    A = add_set(lam)
    bad = spec.psi_hat_combine({(lam, A[0]): 1, (lam, A[1]): -1})
    with pytest.raises(NotGood):
        good_normalizer_F(spec, bad)


def test_koszul():
    assert koszul_hilbert_check(6, 12) == {}
    A0 = koszul_A_series(0, 8)
    assert A0.coeff(0) == 1 and all(A0.coeff(k) == 0 for k in range(1, 9))
    A1 = koszul_A_series(1, 8)
    assert all(A1.coeff(k) == 1 for k in range(9))


def test_conjecture_checks_structure(spec):
    insts = [i for fn, args in conjecture_sweeps(4) for i in fn(spec, *args)]
    ids = {r["id"] for r in insts}
    # the known-false hook-sum claim reports FAIL, never raises
    assert any(r["id"].startswith("hook-sum claim") and r["status"] == "FAIL"
               for r in insts)
    # the proven lemma part of the rho~ formula passes
    assert all(r["status"] == "PASS" for r in insts
               if r["id"].startswith("rho~ differential form on F"))
    # selection rule sweeps pass
    assert all(r["status"] == "PASS" for r in insts
               if r["id"].startswith("selection-rule"))
    # the closed-form product-evidence coefficients pass
    assert all(r["status"] == "PASS" for r in insts
               if r["id"].startswith("evidence-1"))


@pytest.mark.parametrize("point, maxn", [(0, 5), (1, 5), (2, 5), (None, 3)])
def test_row_path_matches_field_oracles(point, maxn, sym, spec_all):
    # on every psi-hat product of degree <= maxn the expansion row, the
    # full trace summed on numerators, the good normalizer and rho_general
    # on rows equal their Fraction-sum oracles
    from jacklax.partitions import pair_quads
    from oracles import (field_expand_psi_hat, field_full_trace, field_good_normalizer_F,
                         field_psi_hat_dual, field_rho_general)
    ws = sym if point is None else spec_all[point]
    F = ws.field
    duals = {}
    for lam, s, nu, t in pair_quads(maxn):
        (a, da), (b, db) = ws.psi_hat_row(lam, s), ws.psi_hat_row(nu, t)
        row = ext_mul(a, b), da * db
        prod = F.uncleared(row)
        n = sum(lam) + sum(nu)
        dual = duals.setdefault(n, field_psi_hat_dual(ws, n))
        want = field_expand_psi_hat(prod, dual)
        assert list(F.uncleared(ws.expand_psi_hat(row)).items()) == list(want.items())
        got, want = full_trace(ws, row), field_full_trace(ws, prod)
        assert (got.n, got.x, got.y, got.z) == (want.n, want.x, want.y, want.z)
        assert _outcome(good_normalizer_F, ws, row) == \
            _outcome(field_good_normalizer_F, ws, prod, F.clear)
        p1, p2 = F.uncleared((a, da)), F.uncleared((b, db))
        xi, zeta = d_Pi(p1, p2), F.uncleared(theta(ws, (a, da), (b, db)))
        assert _outcome(rho_general, ws, F.clear(xi), F.clear(zeta)) == \
            _outcome(field_rho_general, ws, xi, zeta, F.clear)
        good = _outcome(field_good_normalizer_F, ws, xi)
        if not isinstance(good, str):
            assert _outcome(rho_general, ws, good_normalizer_F(ws, F.clear(xi)),
                            F.clear(zeta)) == _outcome(field_rho_general, ws, good, zeta, F.clear)


def _outcome(fn, ws, *args):
    """fn(ws, *args), or the name of the exception it raises; a trailing
    callable in args is applied to the result."""
    post = args[-1] if callable(args[-1]) else None
    if post is not None:
        args = args[:-1]
    try:
        got = fn(ws, *args)
    except (NotGood, NotInNullSpace) as e:
        return type(e).__name__
    return got if post is None else post(got)


def test_dual_indexes_build_without_vectors(monkeypatch):
    # the Jack and psi-hat dual indexes come from the cleared rows alone:
    # no vector is read back from a row while they are built
    from jacklax.arith import DEFAULT_SPEC_POINTS, SpecializedField
    from jacklax.session import Workspace
    calls = []

    def counting(row):
        calls.append(row)
        return {}

    monkeypatch.setattr(SpecializedField, "uncleared", staticmethod(counting))
    ws = Workspace(SpecializedField(DEFAULT_SPEC_POINTS[2]))
    for n in range(6):
        ws.jack_dual(n)
        ws.psi_hat_solver(n)
    assert calls == []
