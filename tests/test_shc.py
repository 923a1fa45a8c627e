import oracles
from jacklax import lr, shc
from jacklax.fock import v_accum
from jacklax.partitions import add_box, add_set, partitions_of
from jacklax.shc import (apply_U, apply_X_plus, apply_dPhi,
                         construction_from_lax_check, delta_via_states,
                         gaiotto_state, generalized_whittaker_lhs, h_context,
                         h_state, jhat_dagger, Psi_eig, Y_eig, Yinv_eig,
                         whittaker_checks)
from jacklax.spectral import tau
from jacklax.verify import _shc_whittaker


def test_xplus_action(spec):
    F = spec.field
    st = {(2, 1): F.one}
    out = apply_X_plus(spec, st)
    assert out == {(("p", s), add_box((2, 1), s)): tau(F, (2, 1), s) for s in add_set((2, 1))}


def test_U(spec):
    F = spec.field
    st = {(2, 2): F.one / spec.varpi((2, 2))}   # jhat_{2^2}
    assert apply_U(spec, st) == {(2, 2): F.one}
    assert apply_U(spec, {(): F.one}) == {}


def test_dPhi(spec):
    F = spec.field
    assert apply_dPhi(spec, {(1,): F.one}) == {(("p", (0, 0)), (1,)): F.one}


def test_Y_eigenvalues(spec):
    F = spec.field
    # Y_lam(z) * Yinv_lam(z) = 1
    for lam in [(1,), (2, 1)]:
        prod = Y_eig(F, lam) * Yinv_eig(F, lam)
        assert not prod.num and not prod.den and prod.pre == F.one
    # Psi at infinity is 1
    fun = Psi_eig(F, (2, 1))
    poly, _ = fun.partial_fractions(F)
    assert poly == [F.one]


def test_construction_from_lax(spec):
    # the residue-convention variant of X- is checked to differ by the
    # sign -1 inside "xminus_lax"
    rep = construction_from_lax_check(spec, 3)
    assert rep == {"xplus": {}, "yinv": {}, "xminus_lax": {}, "y_equals_minus_Pminus": {}}


def test_V1_minus_is_the_adjoint_of_multiplication_by_V1(spec_all, sym):
    # apply_V1 takes V_1^- as hbar d/dV_1; the general adjoint of
    # multiplication by a FockVec gives the same on every Jack of degree
    # <= 5, symbolically and at each default point
    for ws in spec_all + [sym]:
        F = ws.field
        v1 = F.clear({(1,): F.one})
        for n in range(6):
            for lam in partitions_of(n):
                st = {lam: F.one}
                row = oracles.fock_adjoint_apply(v1, shc.jack_to_fock(ws, st), F)
                assert shc.apply_V1(ws, st, -1) == shc.fock_to_jack(ws, row), (ws.key(), lam)


def test_row_paths_match_the_vector_oracles(spec_all, sym):
    # the construction check on psi-hat rows and Delta on cleared rows give
    # what their field-scalar vector paths give, degree <= 4, symbolically
    # and at each default point; Delta also on products of two Jacks
    for ws in spec_all + [sym]:
        rep = construction_from_lax_check(ws, 4)
        assert rep == oracles.field_construction_from_lax_check(ws, 4), ws.key()
        assert rep == {"xplus": {}, "yinv": {}, "xminus_lax": {}, "y_equals_minus_Pminus": {}}
        ctx = h_context(ws, 4)
        rows = [ws.jack_row(lam) for n in range(5) for lam in partitions_of(n)]
        rows += [lr.jack_product(ws, mu, nu) for mu, nu in [((1,), (1,)), ((2,), (1, 1)),
                                                          ((2, 1), (1,)), ((1, 1), (1, 1))]]
        for row in rows:
            got = delta_via_states(ws, row, ctx)
            assert got == oracles.delta_via_states(ws, ws.field.uncleared(row), 4)
            assert got == lr.delta_map(ws, row)


def test_whittaker(spec):
    # whittaker_plus holds with the global sign -1, which it checks
    rep = whittaker_checks(spec, 4)
    assert rep == {key: {} for key in (
        "gaiotto_is_exponential", "H_is_sum_Vn", "whittaker_minus", "whittaker_plus",
        "generalized_whittaker", "lifted_identity", "x_commutator", "dPhi_V1_commutator",
        "x_leading_term")}


def test_whittaker_fail_names_the_first_failing_lam(spec, monkeypatch):
    real = shc._generalized_whittaker
    monkeypatch.setattr(shc, "_generalized_whittaker",
                        lambda ws, lam, *args: {(lam, ("p", (0, 0))): (1, 0)}
                        if lam in ((2, 1), (3,)) else real(ws, lam, *args))
    insts = {i["id"]: i for i in _shc_whittaker(spec, 3)}
    assert insts.pop("generalized_whittaker") == {
        "id": "generalized_whittaker", "status": "FAIL",
        "witness": "((2, 1), ('p', (0, 0))): 1 != 0"}
    assert all(i["status"] == "PASS" for i in insts.values())


def test_states(spec):
    F = spec.field
    G = gaiotto_state(spec, 3)
    for n in range(4):
        for lam in partitions_of(n):
            assert G[lam] == F.one / spec.norm_sq(lam)
    H = h_state(spec, 3)
    assert () not in H
    for lam in H:
        assert H[lam] == spec.varpi(lam) / spec.norm_sq(lam)


def test_delta_agreement(spec):
    for n in range(1, 5):
        ctx = h_context(spec, n)
        for lam in partitions_of(n):
            a = delta_via_states(spec, spec.jack_row(lam), ctx)
            b = lr.delta_map(spec, spec.jack_row(lam))
            assert a == b



def test_shared_h_context_matches_the_per_lam_oracle(spec_all, sym):
    # one context and one V_mu^dagger memo per context vector, shared by
    # every lam, give the partial fractions of H rebuilt for each lam
    for ws, N in [(ws, 5) for ws in spec_all] + [(sym, 3)]:
        ctx = h_context(ws, N)
        memos = [{} for _ in range(1 + len(ctx[2]))]
        for n in range(1, N + 1):
            for lam in partitions_of(n):
                got = generalized_whittaker_lhs(ws, lam, N, ctx, memos)
                want = oracles.pf_flat(oracles.generalized_whittaker_lhs(ws, lam, N))
                assert got == want, (ws.key(), lam)
    for ws in spec_all:
        for n in range(1, 6):
            ctx = h_context(ws, n)
            for lam in partitions_of(n):
                row = ws.jack_row(lam)
                got = delta_via_states(ws, row, ctx)
                assert got == oracles.delta_via_states(ws, ws.field.uncleared(row), n), \
                    (ws.key(), lam)


def test_integer_jhat_dagger_matches_field_path(spec_all):
    # on cleared rows, jhat_lam^dagger of each H context vector is the
    # field-scalar image, coefficient order included, for |lam| <= 5; and
    # H's Fock image is the row of the v_accum sum of its Jacks
    for ws in spec_all:
        H, row, parts = h_context(ws, 6)
        want = {}
        for lam, c in H.items():
            v_accum(want, ws.field.uncleared(ws.jack_row(lam)), c)
        assert list(ws.field.uncleared(row).items()) == list(want.items())
        assert row == ws.field.clear(want)
        for v in [row] + [p for _, p in parts]:
            memo = {}
            for n in range(1, 6):
                for lam in partitions_of(n):
                    got = jhat_dagger(ws, lam, v, memo)
                    assert list(got.items()) == list(oracles.field_jhat_dagger(ws, lam, v).items())
