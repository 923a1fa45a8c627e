import pytest

from jacklax.arith import DEFAULT_SPEC_POINTS, SpecializedField, SymbolicField
from jacklax.fock import fock_mul, inner_hbar, v_accum
from jacklax.jack import jack_norm_sq, pieri_stanley, varpi
from jacklax.partitions import (add_box, add_set, parse_partition, partition_pairs,
                                partitions_of, transpose)
from jacklax.session import Workspace
from jacklax.spectral import tau
from jacklax import lr
from oracles import (compute_integral_jacks, content_product_poly, homogeneous_jacks,
                     inner_hbar_expand_in_jacks, principal_specialization)

F = SymbolicField()
e1, e2 = F.e1, F.e2


def test_integral_jacks_n3():
    a = F.alpha
    J = compute_integral_jacks(F, 3)
    one = F.one
    assert J[(1, 1, 1)] == {(1, 1, 1): one, (2, 1): F.num(-3), (3,): F.num(2)}
    assert J[(2, 1)] == {(1, 1, 1): one, (2, 1): a - 1, (3,): -a}
    assert J[(3,)] == {(1, 1, 1): one, (2, 1): 3 * a, (3,): 2 * a ** 2}


def test_lax_recursion_matches_gram_schmidt(sym, spec_all):
    # the runtime basis (Lax recursion) against the Gram-Schmidt oracle;
    # jack_degree holds the cleared rows, jack the vectors made from them
    for ws, maxn in [(sym, 6)] + [(point_ws, 9) for point_ws in spec_all]:
        for n in range(maxn + 1):
            want = homogeneous_jacks(ws.field, n)
            assert {lam: ws.field.uncleared(ws.jack_row(lam)) for lam in ws.jack_degree(n)} == want, (ws.key(), n)
            assert ws.jack_degree(n) == {lam: ws.field.clear(v) for lam, v in want.items()}


@pytest.mark.parametrize("field", [SymbolicField(), SpecializedField(DEFAULT_SPEC_POINTS[0])])
def test_duals_build_no_gram_row(field):
    # the Jack dual weighs the partitions of its degree only, and the
    # psi-hat dual takes G from it: no Gram row over all of H_n is built
    ws = Workspace(field, cache_dir="")
    for n in range(6):
        ws.jack_dual(n)
        ws.psi_hat_solver(n)
    assert not [key for key in ws._memo if key[0] == "gram"]


@pytest.mark.parametrize("point, max_total", [(0, 7), (1, 7), (2, 7), (None, 5)])
def test_jack_dual_matches_inner_hbar(point, max_total, sym, spec_all):
    # the replaced expansion, one inner_hbar per partition, stays as the
    # oracle: same dict, key order included
    ws = sym if point is None else spec_all[point]
    f = ws.field
    if point is not None:
        # at a point the dual index holds int weights, int scale numerators
        # and an int common denominator
        runtime = ws.jack_dual(max_total)
        ints = [w for pairs in runtime.index.values() for _, w in pairs]
        ints += runtime.scales + [runtime.den]
        assert all(type(x) is int for x in ints)
    vec = f.uncleared
    vecs = [vec(ws.jack_row(lam)) for n in range(max_total + 1) for lam in partitions_of(n)]
    mixed = {}
    for mu, nu in partition_pairs(max_total):
        vecs.append(vec(lr.jack_product(ws, mu, nu)))
        if len(mu) == 1 and len(nu) == 1:
            v_accum(mixed, vecs[-1], ws.field.num(sum(nu)))
    # an inhomogeneous vector is expanded degree by degree
    vecs.append(v_accum(mixed, vec(ws.jack_row((1,)))))
    for v in vecs:
        row = ws.expand_in_jacks(f.clear(v))
        # over Q(e1,e2) an expansion row is the canonical one
        assert point is not None or f.clear(f.uncleared(row)) == row
        got = f.uncleared(row)
        assert list(got.items()) == list(inner_hbar_expand_in_jacks(ws, v).items())


def test_homogeneous_jacks_n3(sym):
    one = F.one
    j = {lam: sym.field.uncleared(sym.jack_row(lam)) for lam in partitions_of(3)}
    assert j[(1, 1, 1)] == {(1, 1, 1): one, (2, 1): 3 * e1, (3,): 2 * e1 ** 2}
    assert j[(2, 1)] == {(1, 1, 1): one, (2, 1): e1 + e2, (3,): e1 * e2}
    assert j[(3,)] == {(1, 1, 1): one, (2, 1): 3 * e2, (3,): 2 * e2 ** 2}


def test_varpi():
    assert varpi(F, (1,)) == F.one
    assert varpi(F, (3,)) == 2 * e2 ** 2
    assert varpi(F, (2, 2)) == e1 * e2 * (e1 + e2)


def test_varpi_is_top_coefficient(sym):
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert sym.field.uncleared(sym.jack_row(lam)).get((n,)) == sym.varpi(lam)


def test_unit_leading_coefficient(sym):
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert sym.field.uncleared(sym.jack_row(lam))[(1,) * n] == F.one


def test_principal_specialization(sym):
    assert principal_specialization(sym.jack_row((1,)), F) == {1: F.one}
    for lam in [(3,), (2, 1), (2, 2), (3, 1)]:
        ps = principal_specialization(sym.jack_row(lam), F)
        assert ps == content_product_poly(F, lam)


def test_norms(sym):
    # Gram computation is the oracle for the hook product
    for n in range(0, 6):
        for lam in partitions_of(n):
            row = sym.jack_row(lam)
            assert inner_hbar(row, row, F) == jack_norm_sq(F, lam)
    assert jack_norm_sq(F, ()) == F.one
    assert jack_norm_sq(F, (1,)) == F.hbar


def test_norm_ten_factor_example():
    lam = parse_partition("1,2^2")
    val = F.one
    for form in [(1, 0), (2, -1), (3, -1), (1, 0), (2, 0),
                 (0, -1), (1, -2), (2, -2), (0, -1), (1, -1)]:
        val = val * F.lf(form)
    assert jack_norm_sq(F, lam) == val


def test_orthogonality(sym, spec):
    for ws, maxn in ((sym, 7), (spec, 7)):
        for n in range(2, maxn + 1):
            plist = partitions_of(n)
            for i, lam in enumerate(plist):
                for mu in plist[i + 1:]:
                    assert not inner_hbar(ws.jack_row(lam), ws.jack_row(mu), ws.field)


def test_integrality(sym):
    # coefficients of j_lam lie in Z[e1,e2], degrees <= 7
    for n in range(1, 8):
        for lam in partitions_of(n):
            for c in sym.field.uncleared(sym.jack_row(lam)).values():
                assert c.den == F.one.num  # denominator is the unit poly


def test_transposition_symmetry(sym):
    for n in range(1, 8):
        for lam in partitions_of(n):
            jt = sym.field.uncleared(sym.jack_row(transpose(lam)))
            for mu, c in sym.field.uncleared(sym.jack_row(lam)).items():
                # swap e1 <-> e2 in the coefficient by evaluating
                num = _swap_poly(c.num)
                den = _swap_poly(c.den)
                from jacklax.arith import Coeff
                assert jt[mu] == Coeff(num, den)


def _swap_poly(p):
    from jacklax.arith import BiPoly
    return BiPoly({(j, i): v for (i, j), v in p.t.items()})


def test_kerov_pieri(sym, spec):
    # j_1 j_lam = sum tau j_{lam+s}; symbolic to 5, specialized to 7
    for ws, maxn in ((sym, 4), (spec, 6)):
        f = ws.field
        for n in range(0, maxn + 1):
            for lam in partitions_of(n):
                prod = fock_mul(f.uncleared(ws.jack_row((1,))), f.uncleared(ws.jack_row(lam)))
                acc = {}
                for s in add_set(lam):
                    term = {mu: c * tau(f, lam, s)
                            for mu, c in f.uncleared(ws.jack_row(add_box(lam, s))).items()}
                    for mu, c in term.items():
                        w = acc.get(mu)
                        w = c if w is None else w + c
                        if w:
                            acc[mu] = w
                        elif mu in acc:
                            del acc[mu]
                assert acc == prod, lam


def test_pieri_worked_value():
    tab = pieri_stanley(F, 2, (2,))
    assert tab[parse_partition("1^2,2")] == -e2 / (e1 - e2)


def test_pieri_trivial():
    assert pieri_stanley(F, 1, ()) == {(1,): F.one}


def test_pieri_vs_direct_expansion(sym, spec):
    # brute-force oracle: expand j_{1^r} j_mu in the Jack basis
    for ws, maxtotal in ((sym, 5), (spec, 7)):
        for total in range(1, maxtotal + 1):
            for r in range(1, total + 1):
                for mu in partitions_of(total - r):
                    tab = pieri_stanley(ws.field, r, mu)
                    direct = lr.jack_lr(ws, (1,) * r, mu)
                    assert tab == {g: c for g, c in direct.items() if c}, (r, mu)


def test_pieri_kerov_coincidence(sym):
    for lam in [(2, 1), (1, 1)]:
        tab = pieri_stanley(F, 1, lam)
        for s in add_set(lam):
            assert tab[add_box(lam, s)] == tau(F, lam, s)
