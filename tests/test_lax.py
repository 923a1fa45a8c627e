import random
from fractions import Fraction

import pytest

import oracles
from jacklax.arith import DEFAULT_SPEC_POINTS, SpecializedField, SpecPoint, SymbolicField
from jacklax.errors import NotAnAddableBox, NotARemovableCorner, EmptyPartition
from jacklax.fock import fock_to_ext, pi0, pi_star, v_accum, v_clear, v_scale, w_mul
from jacklax.lax import (lax_apply, lax_plus_shift_check, op_A, op_B, phi_column_coeff,
                         pi_diamond, psi_from_jack, q_poly_row)
from jacklax.linalg import rank
from jacklax.partitions import (add_box, add_set, eigen_pairs, partitions_of,
                                rem_set, rem_set_plus, remove_box)
from jacklax.session import DualIndex, PsiHatDual, Workspace
from jacklax.spectral import tau, tau_tilde
from oracles import (Pi_action_coeffs, lax_matrix, psi_tilde, q_poly, q_poly_hat,
                     vector_to_coords, w_action_coeffs)


def test_lax_on_generators(sym):
    F = sym.field
    one = F.one
    assert lax_apply(F, F.clear({(0, (3,)): one})) == F.clear({(3, ()): 3 * F.hbar})
    assert lax_apply(F, F.clear({(0, ()): one})) == F.clear({})
    assert lax_apply(F, F.clear({(1, ()): one})) == F.clear({(0, (1,)): one, (1, ()): F.ebar})


def test_shift_property(sym):
    for n in (0, 3, 5):
        assert lax_plus_shift_check(sym, n) == {}


def test_psi_base_and_column(sym):
    F = sym.field
    vec = F.uncleared
    one = F.one
    assert vec(sym.psi_row((), (0, 0))) == {(0, ()): one}
    with pytest.raises(NotAnAddableBox):
        sym.psi_row((), (1, 0))
    with pytest.raises(NotAnAddableBox):
        sym.psi_row((2, 1), (0, 0))
    # psi_{1^3}^s = j_{1^3} + [s] w j_{1^2} + [s][2,0] w^2 j_1 + [s][2,0][1,0] w^3
    for s in add_set((1, 1, 1)):
        sval = F.lf(s)
        exp = fock_to_ext(vec(sym.jack_row((1, 1, 1))))
        v_accum(exp, w_mul(fock_to_ext(vec(sym.jack_row((1, 1))))), sval)
        v_accum(exp, w_mul(w_mul(fock_to_ext(vec(sym.jack_row((1,)))))), sval * F.lf((2, 0)))
        v_accum(exp, {(3, ()): one}, sval * F.lf((2, 0)) * F.lf((1, 0)))
        psi = vec(sym.psi_row((1, 1, 1), s))
        assert psi == exp
        # the phi coefficients in closed form
        for k in range(3):
            got = {mu: c for (m, mu), c in psi.items() if m == 3 - k}
            expect = v_scale(vec(sym.jack_row((1,) * k)), phi_column_coeff(sym, 3, k, s))
            assert got == expect


def test_eigen_equation_symbolic(sym):
    F = sym.field
    for n in range(6):
        for lam in partitions_of(n):
            for s in add_set(lam):
                row = sym.psi_row(lam, s)
                psi = F.uncleared(row)
                assert F.uncleared(lax_apply(F, row)) == v_scale(psi, F.lf(s))
                assert pi0(psi) == F.uncleared(sym.jack_row(lam))
                assert pi_star(row, F) == sym.pi_star_psi(lam, s)


@pytest.mark.parametrize("point, maxn", [(None, 6)] + [(p, 8) for p in DEFAULT_SPEC_POINTS] + [
    # unvalidated points: at e1 = e2 the addable contents of (1) and (2,1)
    # coincide, and the Jack builder divides by zero from degree 3 on; at
    # (2, 3) they coincide at 6 pairs of degree <= 5 whose Jacks exist
    (oracles.unchecked_point(2, 2), 5), (oracles.unchecked_point(-3, 2), 5),
    (oracles.unchecked_point(2, 3), 5)], ids=str)
def test_spectral_projector_matches_corner_recursion(point, maxn):
    # psi and psi-hat from their own Jack equal the recursion's canonical
    # rows, D included; where the recursion divides by zero, so does the
    # projector
    ws = Workspace(SymbolicField() if point is None else SpecializedField(point))
    for n in range(maxn + 1):
        for lam, s in eigen_pairs(n):
            for hatted, oracle in ((False, ws.psi_row), (True, ws.psi_hat_row)):
                try:
                    want = oracle(lam, s)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        psi_from_jack(ws, lam, s, hatted)
                    continue
                assert psi_from_jack(ws, lam, s, hatted) == want, (lam, s, hatted)


def test_psi_tilde(sym):
    F = sym.field
    one = F.one
    assert psi_tilde(sym, (1,), (1, 1)) == {(1, ()): one}
    assert psi_tilde(sym, (2,), (1, 2)) == w_mul(F.uncleared(sym.psi_row((1,), (0, 1))))
    with pytest.raises(EmptyPartition):
        psi_tilde(sym, (), (1, 1))
    with pytest.raises(NotARemovableCorner):
        psi_tilde(sym, (2, 1), (1, 1))


def test_psi_tilde_resolvent_oracle(sym):
    # psi~ = (L - [t])^{-1} j, via the eigenbasis resolvent: the psi-hat
    # coefficient c of j contributes c / ([s] - [t]) psi-hat_lam^s
    F = sym.field
    for gamma in [(2, 1), (2, 2)]:
        nums, d = sym.jack_row(gamma)
        exp = F.uncleared(sym.expand_psi_hat((fock_to_ext(nums), d)))
        for tp in rem_set_plus(gamma):
            rhs = {}
            for (lam, s), c in exp.items():
                v_accum(rhs, F.uncleared(sym.psi_hat_row(lam, s)),
                        c / F.lf((s[0] - tp[0], s[1] - tp[1])))
            assert psi_tilde(sym, gamma, tp) == rhs


def test_psi_tilde_dense_solve_oracle(spec):
    # independent oracle: solve ([t] - L) x = -j exactly as a dense system
    from jacklax.fock import hn_basis
    from oracles import solve
    F = spec.field
    gamma = (2, 1)
    n = 3
    basis = hn_basis(n)
    M = lax_matrix(spec, n)
    for tp in rem_set_plus(gamma):
        tv = F.lf(tp)
        A = [[(tv if i == j else F.zero) - M[i][j] for j in range(len(basis))]
             for i in range(len(basis))]
        b = [-c for c in vector_to_coords(fock_to_ext(F.uncleared(spec.jack_row(gamma))), n, F)]
        x = solve(A, b, F)
        got = {basis[i]: c for i, c in enumerate(x) if c}
        assert got == psi_tilde(spec, gamma, tp)


def test_jacksum_and_jacksum2(sym):
    F = sym.field
    vec = F.uncleared
    for n in range(1, 6):
        for lam in partitions_of(n):
            acc = {}
            for s in add_set(lam):
                v_accum(acc, vec(sym.psi_row(lam, s)), tau(F, lam, s))
            nums, d = sym.jack_row(lam)
            assert acc == fock_to_ext(vec((nums, d)))
            acc2 = {}
            for tp in rem_set_plus(lam):
                v_accum(acc2, psi_tilde(sym, lam, tp), tau_tilde(F, lam, tp))
            assert acc2 == vec(lax_apply(F, (fock_to_ext(nums), d)))


def test_q_poly(sym):
    F = sym.field
    assert q_poly(sym, (1,)) == {(0, ()): F.hbar}
    with pytest.raises(EmptyPartition):
        q_poly(sym, ())
    for gamma in [(2, 1), (2, 2), (3, 1)]:
        acc = {}
        for t in rem_set(gamma):
            tp = (t[0] + 1, t[1] + 1)
            v_accum(acc, F.uncleared(sym.psi_row(remove_box(gamma, t), t)), tau_tilde(F, gamma, tp))
        assert acc == q_poly(sym, gamma)


def test_w_action(sym):
    F = sym.field
    for lam, t in [((), (0, 0)), ((1,), (1, 0)), ((2, 1), (1, 1))]:
        co = w_action_coeffs(sym, lam, t)
        gamma = add_box(lam, t)
        acc = {}
        for s, c in co.items():
            v_accum(acc, F.uncleared(sym.psi_row(gamma, s)), c)
        assert acc == w_mul(F.uncleared(sym.psi_row(lam, t)))
        coh = w_action_coeffs(sym, lam, t, hatted=True)
        tot = F.zero
        for c in coh.values():
            tot = tot + c
        assert tot == F.one


def test_Pi_action(sym):
    from jacklax.fock import Pi
    F = sym.field
    for lam, s in [((1,), (1, 0)), ((2, 1), (0, 2)), ((2, 1), (1, 1)),
                   ((2, 2), (2, 0))]:
        co = Pi_action_coeffs(sym, lam, s)
        acc = {}
        for t, c in co.items():
            v_accum(acc, F.uncleared(sym.psi_row(remove_box(lam, t), t)), c)
        assert acc == Pi(F.uncleared(sym.psi_row(lam, s)))
        coh = Pi_action_coeffs(sym, lam, s, hatted=True)
        tot = F.zero
        for c in coh.values():
            tot = tot + c
        assert tot == F.one


def test_completeness(spec):
    # dim H_n psi-hat vectors, each expanding to itself alone under the
    # orthogonal dual: the Gram matrix is diagonal with nonzero norms, so
    # the psi-hat vectors are a basis of H_n
    from jacklax.fock import dim_hn
    F = spec.field
    for n in range(8):
        pairs = eigen_pairs(n)
        assert len(pairs) == dim_hn(n)
        for lam, s in pairs:
            exp = F.uncleared(spec.expand_psi_hat(spec.psi_hat_row(lam, s)))
            assert exp == {(lam, s): F.one}


@pytest.mark.parametrize("point, maxn", [(0, 6), (1, 6), (2, 6), (None, 4)])
def test_dual_expansion_matches_dense_inverse(point, maxn, sym, spec_all):
    # the replaced expansions, by the dense inverse and by the dual with
    # field weights, stay as oracles: same dict, key order included
    from jacklax.fock import ext_mul, hn_basis
    from oracles import (dense_expand_psi_hat, dense_psi_hat_solver, field_expand_psi_hat,
                         field_psi_hat_dual)
    ws = sym if point is None else spec_all[point]
    field = ws.field
    if point is not None:
        # at a point the duals of degrees 0..maxn hold int Jack and corner
        # weights and int label denominators, and their scales are int
        # numerators over an int common denominator
        runtime = ws.psi_hat_solver(maxn)
        duals = runtime.chain + (runtime,)
        ints = [w for dual in duals for pairs in dual.jack.index.values() for _, w in pairs]
        ints += [w for dual in duals for _, jw, corners in dual.terms
                 for w in (jw,) + tuple(w for _, w in corners)]
        ints += [x for dual in duals for x in dual.dens + dual.scales + [dual.den]]
        assert all(type(x) is int for x in ints)
    rng = random.Random(20261018)
    for n in range(maxn + 1):
        solver = dense_psi_hat_solver(ws, n)
        dual = field_psi_hat_dual(ws, n)
        rows = [ws.psi_hat_row(lam, s) for lam, s in eigen_pairs(n)]
        for a in range(1, n // 2 + 1):
            for p1 in eigen_pairs(a):
                for p2 in eigen_pairs(n - a):
                    (x, dx), (y, dy) = ws.psi_hat_row(*p1), ws.psi_hat_row(*p2)
                    rows.append((ext_mul(x, y), dx * dy))
        basis = hn_basis(n)
        for _ in range(3):
            keys = rng.sample(basis, min(4, len(basis)))
            rows.append(field.clear({k: field.num(rng.randint(-9, 9) or 1) for k in keys}))
        for row in rows:
            v = field.uncleared(row)
            exp = ws.expand_psi_hat(row)
            # over Q(e1,e2) an expansion row is the canonical one
            assert point is not None or field.clear(field.uncleared(exp)) == exp
            got = list(field.uncleared(exp).items())
            assert got == list(dense_expand_psi_hat(ws, v, solver).items())
            assert got == list(field_expand_psi_hat(v, dual).items())


@pytest.mark.parametrize("point, maxn", [(0, 6), (1, 6), (2, 6), (None, 4)])
def test_lax_apply_matches_field_oracle(point, maxn, sym, spec_all):
    # lax_apply runs on the numerators of a row; the field-scalar loop it
    # replaced gives the same vector, key order included, and the same
    # numerators over D L
    from jacklax.fock import hn_basis
    from oracles import field_lax_apply, field_lax_row
    ws = sym if point is None else spec_all[point]
    field = ws.field
    rows = []
    for n in range(maxn + 1):
        rows += [field.clear({key: field.one}) for key in hn_basis(n)]
        for lam, s in eigen_pairs(n):
            rows += [ws.psi_row(lam, s), ws.psi_hat_row(lam, s)]
    for row in rows:
        got = lax_apply(field, row)
        assert list(field.uncleared(got).items()) == \
            list(field_lax_apply(field, field.uncleared(row)).items())
        assert got[1] == field_lax_row(field, row)[1]
        assert list(got[0].items()) == list(field_lax_row(field, row)[0].items())


@pytest.mark.parametrize("point, maxn", [(0, 6), (1, 6), (2, 6), (None, 4)])
def test_lax_is_multiplication_part_plus_derivation(point, maxn, sym, spec_all):
    # L = pi_w M + D on every basis key of H_n: lax_mult is pi_w M, and the
    # rest is the derivation part of the field-scalar oracle; pi_w M
    # commutes with Pi
    from jacklax.fock import Pi, hn_basis
    from jacklax.lax import lax_mult
    ws = sym if point is None else spec_all[point]
    F = ws.field
    for n in range(maxn + 1):
        for key in hn_basis(n):
            row = F.clear({key: F.one})
            split = [(1, lax_mult(row)), (1, F.clear(oracles.field_lax_derivation(F, {key: F.one})))]
            assert F.combine([(1, lax_apply(F, row))]) == F.combine(split)
            assert Pi(lax_mult(row)[0]) == lax_mult((Pi(row[0]), row[1]))[0]


@pytest.mark.parametrize("point, maxn", [(0, 6), (2, 6), (None, 4)])
def test_lax_derivation_part_obeys_leibniz(point, maxn, sym, spec_all):
    # D(ab) = D(a) b + a D(b) on products of basis vectors, so D cancels in
    # the derivator beta(a, b) = L(ab) - (La)b - a(Lb)
    from jacklax.fock import ext_mul, hn_basis
    ws = sym if point is None else spec_all[point]
    F = ws.field
    D = oracles.field_lax_derivation
    for i in range(maxn + 1):
        for j in range(i, maxn + 1 - i):
            for ka in hn_basis(i):
                for kb in hn_basis(j):
                    a, b = {ka: F.one}, {kb: F.one}
                    rhs = v_accum(ext_mul(D(F, a), b), ext_mul(a, D(F, b)))
                    assert D(F, ext_mul(a, b)) == rhs


@pytest.mark.parametrize("field, n", [(SpecializedField(DEFAULT_SPEC_POINTS[2]), 6),
                                      (SymbolicField(), 4)], ids=["specialized", "symbolic"])
def test_psi_hat_solver_reads_no_psi_of_its_degree(field, n, monkeypatch):
    # the psi-hat dual of H_n comes from the corner recursion: the Jacks and
    # tau~ of each degree k <= n, and psi only through the Jacks (of degree
    # k - 1)
    degrees = []
    read = Workspace.psi_row

    def psi_row(ws, lam, s):
        degrees.append(sum(lam))
        return read(ws, lam, s)

    monkeypatch.setattr(Workspace, "psi_row", psi_row)
    ws = Workspace(field)
    ws.psi_hat_solver(n)
    assert degrees and max(degrees) == n - 1


def test_structural_theorem(spec):
    F = spec.field
    for n in range(1, 7):
        for lam in partitions_of(n):
            nums, d = spec.jack_row(lam)
            rows = [(fock_to_ext(nums), d)]
            for t in rem_set(lam):
                nums, d = spec.psi_row(remove_box(lam, t), t)
                rows.append((w_mul(nums), d))
            for row in rows:
                for (mu, s), c in spec.expand_psi_hat(row)[0].items():
                    assert not c or mu == lam
            coords = [vector_to_coords(F.uncleared(row), n, F) for row in rows]
            assert rank(coords) == len(add_set(lam))


def test_decompose(spec):
    # the Z (by lam), X (by lam+s) and Y (by eigen-box) decompositions of a
    # vector: its psi-hat expansion grouped by key
    F = spec.field
    vec = F.uncleared

    def decompose(zeta, scheme):
        key = {"Z": lambda lam, s: lam, "X": add_box, "Y": lambda lam, s: s}[scheme]
        out = {}
        for (lam, s), c in vec(spec.expand_psi_hat(F.clear(zeta))).items():
            v_accum(out.setdefault(key(lam, s), {}), vec(spec.psi_hat_row(lam, s)), c)
        return out

    # psi has a single component in each scheme
    lam, s = (2, 1), (1, 1)
    psi = vec(spec.psi_row(lam, s))
    for scheme, key in (("Z", lam), ("X", add_box(lam, s)), ("Y", s)):
        comp = decompose(psi, scheme)
        assert list(comp) == [key]
        assert comp[key] == psi
    # j has a single Z component
    comp = decompose(fock_to_ext(vec(spec.jack_row(lam))), "Z")
    assert list(comp) == [lam]
    # w^n = sum_lam w qhat_lam / |jhat_lam|^2, each summand in Z_lam, with
    # |jhat_lam|^2 = |j_lam|^2 / varpi_lam^2
    n = 3
    comp = decompose({(n, ()): F.one}, "Z")
    for lam, v in comp.items():
        expect = v_scale(w_mul(q_poly_hat(spec, lam)),
                         spec.varpi(lam) ** 2 / spec.norm_sq(lam))
        assert v == expect
    # and qhat_gamma / |jhat_gamma|^2 is a single X_gamma component
    for gamma in partitions_of(n + 1):
        v = v_scale(q_poly_hat(spec, gamma), spec.varpi(gamma) ** 2 / spec.norm_sq(gamma))
        compx = decompose(v, "X")
        assert list(compx) == [gamma]
    # components sum back
    total = {}
    for v in comp.values():
        v_accum(total, v)
    assert total == {(n, ()): F.one}


def test_pi_diamond(spec):
    F = spec.field
    for n in (2, 3):
        coords = []
        for lam in partitions_of(n):
            for s in add_set(lam):
                img = pi_diamond(spec, spec.psi_row(lam, s))
                assert pi_diamond(spec, img) == img
                coords.append(vector_to_coords(F.uncleared(img), n, F))
        assert rank(coords) == len(partitions_of(n + 1))
    # restricted to X_gamma it projects onto q_gamma: psi_{gamma-t}^t -> q/(n+1)hbar scale
    n = 3
    for gamma in partitions_of(n + 1):
        expq = F.uncleared(spec.expand_psi_hat(q_poly_row(spec, gamma)))
        for t in rem_set(gamma):
            img = pi_diamond(spec, spec.psi_row(remove_box(gamma, t), t))
            # image is proportional to q_gamma
            exp = F.uncleared(spec.expand_psi_hat(img))
            keys = [k for k, c in expq.items() if c]
            ratios = {k: exp[k] / expq[k] for k in keys if exp.get(k)}
            assert len(set(map(str, ratios.values()))) == 1
            assert set(exp) <= set(expq)


def test_self_adjointness(spec):
    from jacklax.fock import hn_basis, monomial_norm_sq
    F = spec.field
    for n in range(7):
        basis = hn_basis(n)
        M = lax_matrix(spec, n)
        g = [monomial_norm_sq(mu, F) for (m, mu) in basis]
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert M[i][j] * g[i] == M[j][i] * g[j]


def test_A_B_operators(spec):
    # A psi_{gamma-t}^t = j_gamma ; B j_gamma = q_gamma ; AB = |gamma| hbar,
    # compared as canonical rows
    F = spec.field
    for gamma in [(2, 1), (3,), (2, 2)]:
        jack = spec.jack_row(gamma)
        assert F.combine([(1, op_B(F, jack))]) == q_poly_row(spec, gamma)
        for t in rem_set(gamma):
            psi = spec.psi_row(remove_box(gamma, t), t)
            assert F.combine([(1, op_A(F, psi))]) == jack
        back = F.combine([(1, op_A(F, op_B(F, jack)))])
        assert back == F.combine([(F.num(sum(gamma)) * F.hbar, jack)])


def test_accumulators_leave_caches_unchanged():
    # sums are accumulated in place, so no accumulator may be a cached vector
    import copy
    from jacklax.lr import delta_kernel_check, jacklax_lr
    from jacklax.shc import construction_from_lax_check, whittaker_checks
    from jacklax import traces, verify
    from jacklax.traces import resolvent_w_identity, rho_general
    from jacklax.verify import _delta_via_states, _refined_pieri
    ws = Workspace(SpecializedField(DEFAULT_SPEC_POINTS[0]))
    ws.warm(5)
    for n in range(6):
        ws.jack_dual(n)
        ws.psi_hat_solver(n)
        for lam, s in eigen_pairs(n):
            ws.psi_hat_row(lam, s)

    def plain(v):
        # a dual as its data, the duals it holds included
        if isinstance(v, (DualIndex, PsiHatDual)):
            return {k: plain(x) for k, x in vars(v).items()}
        if isinstance(v, tuple):
            return tuple(plain(x) for x in v)
        return v

    def caches():
        return {key: plain(v) for key, v in ws._memo.items()}

    before = copy.deepcopy(caches())
    for n in range(4):
        assert resolvent_w_identity(ws, n) == {}
    lam = (2, 1)
    A = add_set(lam)
    null = ws.psi_hat_combine({(lam, A[0]): 1, (lam, A[1]): -1})
    nums, d = ws.jack_row(lam)
    rho_general(ws, ws.field.combine([(1 / ws.varpi(lam), (fock_to_ext(nums), d))]), null)
    traces.rho_tilde(ws, 3, null)
    traces.good_normalizer_F(ws, traces._basic_row(ws, (3, ())))
    for hx in traces.kernel_basis(4):
        traces.full_trace(ws, hx.value(ws))
    traces.pair_traces(ws, ws.psi_hat_row((1,), (0, 1)), ws.psi_hat_row((2,), (1, 0)))
    # the eigen checks on rows
    for n in range(4):
        assert verify._complete(ws, n) == verify._self_adjoint(ws, n) == {}
        if n:
            assert verify._pi_diamond_ok(ws, n) == {}
            assert verify._trace_chain(ws, n, [[0]], [[2]]) == {}
        for lam in partitions_of(n):
            assert [verify._eigen(ws, lam, s) for s in add_set(lam)] == [{}] * len(add_set(lam))
            if n:
                assert verify._jacksums(ws, lam) == verify._shift_thm(ws, lam) == {}
                assert verify._structural(ws, lam) == verify._psi_norms(ws, lam) == {}
    for lam, s, nu, t in [((1,), (0, 1), (2,), (1, 0)), ((1,), (1, 0), (1, 1), (0, 1))]:
        jacklax_lr(ws, lam, s, nu, t)
        jacklax_lr(ws, lam, s, nu, t, hatted=True)
    for n in range(4):
        for lam in partitions_of(n):
            assert _refined_pieri(ws, lam) == {}
    # the shc states share their context vectors and V_mu^dagger images
    rep = whittaker_checks(ws, 4)
    assert rep == {k: {} for k in rep}
    assert _delta_via_states(ws, 4) == {}
    rep = construction_from_lax_check(ws, 4)
    assert rep == {k: {} for k in rep}
    assert delta_kernel_check(ws, [(4, 3, 1), (4, 2, 2), (3, 2, 2, 1), (3, 3, 1, 1)]) == {}
    after = caches()
    assert {key: after[key] for key in before} == before


def test_second_round_of_accessors_builds_nothing(monkeypatch):
    # every layer is one memo entry: the first round builds each Jack
    # degree, psi and psi-hat dual once, each dual holds the memo's dual
    # one degree down, and a second round builds nothing and hands back
    # the same objects
    from collections import Counter
    from jacklax import lax, session
    builds = Counter()

    def spy(name, build):
        def counted(*args):
            builds[name] += 1
            return build(*args)
        return counted

    monkeypatch.setattr(lax, "compute_psi", spy("psi", lax.compute_psi))
    monkeypatch.setattr(session, "compute_homogeneous_jacks",
                        spy("jack", session.compute_homogeneous_jacks))
    monkeypatch.setattr(PsiHatDual, "__init__", spy("dual", PsiHatDual.__init__))
    ws = Workspace(SpecializedField(DEFAULT_SPEC_POINTS[0]))

    def every_layer():
        ws.warm(5)
        out = []
        for n in range(6):
            out += [ws.jack_degree(n), ws.gram_row(n), ws.jack_dual(n), ws.psi_hat_solver(n)]
            for lam in partitions_of(n):
                out += [ws.jack_row(lam), ws.norm_sq(lam), ws.varpi(lam)]
            for lam, s in eigen_pairs(n):
                out += [ws.psi_row(lam, s), ws.psi_hat_row(lam, s)]
        return out

    first = every_layer()
    assert builds == {"jack": 6, "dual": 6,
                      "psi": sum(len(eigen_pairs(n)) for n in range(6))}
    assert ws.psi_hat_solver(0).below is None
    assert all(ws.psi_hat_solver(n).below is ws.psi_hat_solver(n - 1) for n in range(1, 6))
    built = dict(builds)
    second = every_layer()
    assert builds == built
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_concurrent_solver_builds_each_jack_degree_once(monkeypatch):
    # threads (more than cores) ask a fresh workspace for the same psi-hat
    # dual at once: a miss builds under the lock, so each Jack degree is
    # built once and every thread gets the one dual
    import sys
    import threading
    import time
    from jacklax import session
    degrees = []
    build = session.compute_homogeneous_jacks

    def slow_build(ws, n):
        degrees.append(n)
        time.sleep(0.01)    # let the other thread run meanwhile
        return build(ws, n)

    monkeypatch.setattr(session, "compute_homogeneous_jacks", slow_build)
    ws = Workspace(SpecializedField(DEFAULT_SPEC_POINTS[0]))
    start = threading.Barrier(4)
    got = []

    def ask():
        start.wait()
        got.append(ws.psi_hat_solver(5))

    threads = [threading.Thread(target=ask) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(degrees) == list(range(6))
    assert len(got) == 4 and all(d is got[0] for d in got)


@pytest.mark.parametrize("point",
                         DEFAULT_SPEC_POINTS + (SpecPoint(Fraction(-2, 5), Fraction(9, 8)), None),
                         ids=lambda p: "symbolic" if p is None else str(p))
def test_integer_rows_match_field_recursion(point):
    # psi and the Jacks built on cleared rows are the vectors of the
    # field-scalar recursions, key order included, and their rows are
    # field.clear of those vectors: v_clear at a point, the vector itself
    # over 1 over Q(e1,e2) (to degree 5 there)
    if point is None:
        ws, top = Workspace(SymbolicField()), 6
    else:
        ws, top = Workspace(SpecializedField(point)), 8
    ref = oracles.FieldRecursion(ws.field)
    clear = ws.field.clear if point is None else v_clear
    for n in range(top):
        for lam in partitions_of(n):
            want = ref.jack(lam)
            assert list(ws.field.uncleared(ws.jack_row(lam)).items()) == list(want.items())
            assert _row_items(ws.jack_row(lam)) == _row_items(clear(want))
        for lam, s in eigen_pairs(n):
            want = ref.psi(lam, s)
            assert list(ws.field.uncleared(ws.psi_row(lam, s)).items()) == list(want.items())
            assert _row_items(ws.psi_row(lam, s)) == _row_items(clear(want))


def _row_items(row):
    return list(row[0].items()), row[1]


def test_suites_match_with_scalars_and_recursions_on_oracles(monkeypatch):
    # the spectral, tau and main-theorem reports are byte-identical when
    # each product of linear forms takes one field operation per form and
    # psi and the Jacks come from the field-scalar recursions
    from jacklax import arith, lax, session
    from jacklax.report import RunConfig
    from jacklax.verify import suite_main_theorem, suite_spectral, suite_tau

    def reports():
        cfg = RunConfig(mode="specialized", jobs=1)
        return [suite_spectral(cfg, max_degree=5).canonical_json(),
                suite_tau(cfg, max_size=6).canonical_json(),
                suite_main_theorem(cfg, max_size=6).canonical_json()]

    def vectors(ws):
        """The readers of the lower Jacks and psi for the field recursions."""
        return (lambda lam: ws.field.uncleared(ws.jack_row(lam)),
                lambda lam, s: ws.field.uncleared(ws.psi_row(lam, s)))

    def field_psi_row(ws, lam, s):
        if not lam:
            return {(0, ()): 1}, 1
        return v_clear(oracles.field_psi(ws.field, *vectors(ws), lam, s))

    def field_jack_rows(ws, n):
        if not n:
            return {(): ({(): 1}, 1)}
        return {lam: v_clear(v)
                for lam, v in oracles.field_jacks(ws.field, vectors(ws)[1], n).items()}

    shipped = reports()
    monkeypatch.setattr(arith.SpecializedField, "ratio", oracles.lf_ratio)
    monkeypatch.setattr(lax, "compute_psi", field_psi_row)
    monkeypatch.setattr(session, "compute_homogeneous_jacks", field_jack_rows)
    # every row sum (the psi-hat rows and the spectral checks) on vectors
    monkeypatch.setattr(arith.SpecializedField, "combine", staticmethod(oracles.field_combine))
    assert reports() == shipped
