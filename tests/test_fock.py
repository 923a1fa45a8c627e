import random

import pytest
from fractions import Fraction

from jacklax.arith import SymbolicField
from jacklax.errors import DegreeMismatch, InhomogeneousForPiStar
from jacklax.fock import (Pi, deriv_V, dim_hn, ext_mul, fock_to_ext,
                          hall_inner_alpha, hn_basis, inner_hbar,
                          monomial_norm_sq, pi0, pi_plus, pi_star, v_accum,
                          v_scale, w_mul, zmu)
from jacklax.partitions import partitions_of, series_P, SeriesZ
from oracles import annihilate, m_to_p, monomial_powersum_transition, p_to_m

F = SymbolicField()


def test_hall_inner_alpha():
    a = F.alpha
    # the exponent is the number of parts (forced by Jack orthogonality)
    assert hall_inner_alpha({(2,): F.one}, {(2,): F.one}, F) == 2 * a
    assert hall_inner_alpha({(1, 1): F.one}, {(1, 1): F.one}, F) == 2 * a ** 2
    assert not hall_inner_alpha({(2,): F.one}, {(1, 1): F.one}, F)
    with pytest.raises(DegreeMismatch):
        hall_inner_alpha({(2,): F.one}, {(1, 1, 1): F.one}, F)


def test_zmu():
    assert zmu((2,)) == 2
    assert zmu((1, 1)) == 2
    assert zmu((3, 1, 1)) == 3 * 2
    assert zmu((2, 2, 1)) == 2 * 4 * 1


def test_inner_hbar_examples():
    h = F.hbar
    one = F.one
    R = F.clear
    assert inner_hbar(R({(1, 1): one}), R({(1, 1): one}), F) == 2 * h ** 2
    assert inner_hbar(R({(2,): one}), R({(2,): one}), F) == 2 * h
    assert not inner_hbar(R({(1, 0 + 1): one}), R({(2,): one}), F)
    # different w grades are orthogonal
    assert not inner_hbar(R({(1, (1,)): one}), R({(0, (2,)): one}), F)


@pytest.mark.parametrize("point, maxn", [(0, 5), (1, 5), (2, 5), (None, 3)])
def test_inner_hbar_matches_field_oracle(point, maxn, sym, spec_all):
    # inner_hbar pairs numerators against the cleared Gram weights; the
    # key-by-key sum of field scalars it replaced gives the same scalar,
    # for canonical rows and for rows not in lowest terms
    from jacklax.partitions import eigen_pairs
    from oracles import field_inner_hbar
    ws = sym if point is None else spec_all[point]
    field = ws.field
    rng = random.Random(7)
    rows = [ws.jack_row(lam) for n in range(maxn + 1) for lam in partitions_of(n)]
    rows += [ws.psi_row(lam, s) for n in range(maxn + 1) for lam, s in eigen_pairs(n)]
    pairs = [(a, b) for a in rows for b in rows if len(a[0]) > 1 or a is b]
    for f, g in rng.sample(pairs, min(200, len(pairs))) + [(field.clear({}), rows[0])]:
        want = field_inner_hbar(field.uncleared(f), field.uncleared(g), field)
        assert inner_hbar(f, g, field) == want
        (a, da) = f
        assert inner_hbar(({k: 3 * c for k, c in a.items()}, 3 * da), g, field) == want


def test_monomial_norm():
    h = F.hbar
    assert monomial_norm_sq((1,), F) == h
    assert monomial_norm_sq((2, 1), F) == 2 * h * h
    assert monomial_norm_sq((2, 2), F) == (2 * h) ** 2 * 2


def test_projections():
    one = F.one
    zeta = {(0, (1,)): one, (1, (2,)): one}
    assert pi0(zeta) == {(1,): one}
    assert pi_plus(zeta) == {(1, (2,)): one}
    assert Pi({(2, (1,)): one}) == {(1, (1,)): one}
    # pi0 + pi+ = id
    assert v_accum(fock_to_ext(pi0(zeta)), pi_plus(zeta)) == zeta
    # Pi(w .) = id ; w Pi = pi+
    assert Pi(w_mul(zeta)) == zeta
    assert w_mul(Pi(zeta)) == pi_plus(zeta)
    assert pi_star(F.clear({(3, ()): F.num(5)}), F) == F.num(5)
    assert pi_star(F.clear({}), F) == F.zero
    with pytest.raises(InhomogeneousForPiStar):
        pi_star(F.clear({(0, (1,)): one, (0, (1, 1)): one}), F)


def test_adjointness():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        fvecs = list(partitions_of(n - k)) or [()]
        gvecs = list(partitions_of(n))
        f = {rng.choice(fvecs): F.num(rng.randint(1, 4))}
        g = {rng.choice(gvecs): F.num(rng.randint(1, 4))}
        lhs = inner_hbar(F.clear({tuple(sorted(mu + (k,), reverse=True)): c
                                  for mu, c in f.items()}), F.clear(g), F)
        rhs = inner_hbar(F.clear(f), F.clear(v_scale(deriv_V(g, k), F.hbar * F.num(k))), F)
        assert lhs == rhs


def test_annihilate():
    one = F.one
    assert annihilate({(2, 1): one}, (1,)) == {(2,): one}
    assert annihilate({(2, 2, 1): one}, (2, 2)) == {(1,): 8 * one}


def test_transitions():
    plist, P2M, M2P = monomial_powersum_transition(2)
    i2, i11 = plist.index((2,)), plist.index((1, 1))
    assert P2M[i2][i2] == 1 and P2M[i2][i11] == 0
    assert P2M[i11][i2] == 1 and P2M[i11][i11] == 2
    plist3, P2M3, _ = monomial_powersum_transition(3)
    j = plist3.index((1, 1, 1))
    assert P2M3[j][j] == 6  # multinomial count
    # integrality of the p->m side
    for n in range(1, 7):
        _, mat, inv = monomial_powersum_transition(n)
        for row in mat:
            for v in row:
                assert v == int(v)
    # inverse really inverts
    for n in (2, 3, 4):
        plist, P2M, M2P = monomial_powersum_transition(n)
        N = len(plist)
        for i in range(N):
            for j in range(N):
                # p -> m -> p: M2P inverts the transpose of P2M
                assert sum(P2M[i][k] * M2P[j][k] for k in range(N)) == (i == j)
        # spot: converting p_mu to m and back is identity
        for mu in plist:
            back = m_to_p(p_to_m({mu: F.one}, n), n, F)
            assert back == {mu: F.one}


def test_graded_dimension():
    ser = series_P(9) / SeriesZ(9, [Fraction(1), Fraction(-1)])
    for n in range(10):
        assert dim_hn(n) == ser.coeff(n)
        assert dim_hn(n) == sum(len(partitions_of(k)) for k in range(n + 1))


def test_grading_operator():
    # N* = hbar^{-1} sum_k V_k V_{-k} + w d/dw acts on w^m V_mu with
    # eigenvalue m + |mu|
    one = F.one
    for (m, mu) in hn_basis(5):
        acc = v_scale({(m, mu): one}, F.num(m))  # the w d/dw part
        for k in set(mu):
            lowered = v_scale(deriv_V({mu: one}, k), F.hbar * F.num(k))
            raised = {tuple(sorted(nu + (k,), reverse=True)): c
                      for nu, c in lowered.items()}
            v_accum(acc, {(m, nu): c / F.hbar for nu, c in raised.items()})
        assert acc == v_scale({(m, mu): one}, F.num(m + sum(mu)))


def test_ext_mul():
    one = F.one
    a = {(1, (2,)): one}
    b = {(0, (1,)): F.num(2)}
    assert ext_mul(a, b) == {(1, (2, 1)): F.num(2)}
