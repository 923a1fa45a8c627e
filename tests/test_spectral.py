import pytest

from jacklax.arith import SymbolicField
from jacklax.errors import JackLaxError
from jacklax.jack import jack_norm_sq
from jacklax.partitions import (add_box, add_set, partitions_of,
                                rem_set_plus, star_product)
from jacklax.spectral import (SpectralFun, T_of_boxes, T_partition, T_star, star_residues,
                              tau, tau_hat, tau_tilde, verify_tau_identities)
from oracles import N_fun, T1_scalar, sfun_value_at_form

F = SymbolicField()
e1, e2 = F.e1, F.e2


def test_T_single_box_is_N():
    t = T_of_boxes(F, {(0, 0): 1})
    n = N_fun(F)
    assert t.num == n.num and t.den == n.den


def test_T_corner_form_cancellation():
    # products of N factors cancel to the corner form for every partition
    for n in range(0, 9):
        for lam in partitions_of(n):
            prod = T_of_boxes(F, {b: 1 for b in
                                  [(i, j) for i, row in enumerate(lam) for j in range(row)]})
            corner = T_partition(F, lam)
            assert prod.num == corner.num and prod.den == corner.den


def test_T_12_corner_data():
    t = T_of_boxes(F, {(0, 0): 1, (0, 1): 1, (1, 0): 1})
    assert t.num == {(0, 0): 1, (2, 1): 1, (1, 2): 1}
    assert t.den == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_T_star_figure():
    t = T_star(F, (2, 1), (2, 1))
    assert t.num == {(3, 1): 1, (2, 2): 2, (1, 3): 1, (1, 0): 1, (0, 0): 1, (0, 1): 1}
    assert t.den == {(3, 0): 1, (2, 0): 1, (2, 1): 1, (1, 1): 1, (1, 2): 1, (0, 2): 1, (0, 3): 1}


def test_T_multiplicative():
    a = star_product((2, 1), (1,))
    b = star_product((1, 1), (1,))
    merged = dict(a)
    for k, v in b.items():
        merged[k] = merged.get(k, 0) + v
    lhs = T_of_boxes(F, merged)
    rhs = T_of_boxes(F, a) * T_of_boxes(F, b)
    assert lhs.num == rhs.num and lhs.den == rhs.den


def test_tau_examples():
    assert tau(F, (1,), (1, 0)) == -e2 / (e1 - e2)
    assert tau(F, (1,), (1, 0)) + tau(F, (1,), (0, 1)) == F.one
    assert tau(F, (), (0, 0)) == F.one


def test_tau_sums():
    for n in range(0, 8):
        for lam in partitions_of(n):
            tot = F.zero
            tot_hat = F.zero
            for s in add_set(lam):
                tot = tot + tau(F, lam, s)
                tot_hat = tot_hat + tau_hat(F, lam, s)
            assert tot == F.one
            assert not tot_hat


def test_tau_tilde_sign_and_sum():
    # the sign convention is pinned by the shift theorem's base cases
    assert tau_tilde(F, (1,), (1, 1)) == F.hbar
    assert tau_tilde(F, (1, 1), (2, 1)) == 2 * F.hbar
    assert tau_tilde(F, (2,), (1, 2)) == 2 * F.hbar
    for lam in [(1,), (2, 1), (2, 2), (3, 2, 1)]:
        tot = F.zero
        for t in rem_set_plus(lam):
            tot = tot + tau_tilde(F, lam, t)
        assert tot == F.num(sum(lam)) * F.hbar


def test_tau_is_residue_of_corner_form():
    for lam in [(1,), (2, 1), (3, 1)]:
        T = T_partition(F, lam)
        den = dict(T.den)
        den[(0, 0)] = den.get((0, 0), 0) + 1
        ut = SpectralFun(T.pre, dict(T.num), den)
        for s in add_set(lam):
            assert ut.residue(s, F) == tau(F, lam, s)
        inv = T.inverse()
        num = dict(inv.num)
        num[(0, 0)] = num.get((0, 0), 0) + 1
        uTinv = SpectralFun(inv.pre, num, dict(inv.den))
        for t in rem_set_plus(lam):
            assert uTinv.residue(t, F) == -tau_tilde(F, lam, t)


def test_kerov_expansions():
    # u^{-1} T_lam = sum tau/(u-[s]);  T_lam - 1 = sum tau-hat/(u-[s])
    for n in range(0, 9):
        for lam in partitions_of(n):
            T = T_partition(F, lam)
            poly, res = T.partial_fractions(F)
            assert poly == [F.one]
            for s in add_set(lam):
                assert res.get(s, F.zero) == tau_hat(F, lam, s)


def test_zero_at_outer_corners():
    for lam in [(2, 1), (3, 1), (2, 2, 1)]:
        T = T_partition(F, lam)
        for t in rem_set_plus(lam):
            assert not sfun_value_at_form(T, t, F)


def test_tau_boxes():
    # the generalized hatted measures Res_{u=[s]} T_Gamma(u) of a star
    # product are its star residues
    sp = star_product((1, 1), (2,))
    T = T_of_boxes(F, sp)
    res = star_residues(F, (1, 1), (2,))
    assert set(T.den) == set(res)
    for pole in T.den:
        assert T.residue(pole, F) == res[pole]


def test_jack_norm_ratio():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for s in add_set(lam):
                lam_s = add_box(lam, s)
                lhs = jack_norm_sq(F, lam_s) / jack_norm_sq(F, lam)
                rhs = tau_tilde(F, lam_s, (s[0] + 1, s[1] + 1)) / tau(F, lam, s)
                assert lhs == rhs


def test_star_factor_identity():
    for lam in [(2, 1), (3,), (2, 2)]:
        for t in [(0, 0), (1, 0), (2, 1)]:
            lhs = T_of_boxes(F, star_product(lam, {t: 1}))
            rhs = T_partition(F, lam).shift(t)
            assert lhs.num == rhs.num and lhs.den == rhs.den


def test_tau_identities_small():
    assert verify_tau_identities(F, (1,), (1, 0)) == {}
    assert verify_tau_identities(F, (2, 1), (1, 1)) == {}


def test_tau_identity_i_worked():
    lhs = tau(F, (1, 1), (0, 1))
    rhs = T1_scalar(F, (1, -1)) * tau(F, (1,), (0, 1))
    assert lhs == rhs


def test_T1_degenerate_raises():
    with pytest.raises(JackLaxError):
        T1_scalar(F, (-1, 0))  # [s+(1,0)] = 0


def test_hbar_T1_identity():
    for s in [(1, 0), (0, 1), (2, 1), (1, 3)]:
        lhs = F.hbar / (F.lf(s) * F.lf((s[0] + 1, s[1] + 1)))
        rhs = F.one - F.one / T1_scalar(F, s)
        assert lhs == rhs


def test_star_residues_simple():
    res = star_residues(F, (1,), (1,))
    n = N_fun(F)
    assert res == {(1, 0): n.residue((1, 0), F), (0, 1): n.residue((0, 1), F)}
