"""Rows over Q(e1,e2) run ring operations only: integer-polynomial
numerators over one factored denominator, reduced once per row by combine
and once per coordinate where a value leaves the library.  The closed form
of A and this row format are checked against the paths they replaced: A
as pi0 L w through the Lax operator, and the Coeff-vector rows of
oracles.CoeffVectorField, whose every multiply-add reduces."""

import random

import pytest

from jacklax.arith import BiPoly, Den, SymbolicField
from jacklax.errors import NotSplit
from jacklax.fock import ext_mul, fock_to_ext, hn_basis
from jacklax.lax import op_A
from jacklax.lr import jack_product
from jacklax.partitions import eigen_pairs, partition_pairs, partitions_of
from jacklax.session import Workspace
from jacklax.traces import full_trace
from oracles import CoeffVectorField, pi0_lax_w

MAX_DEGREE = 5


@pytest.mark.parametrize("point, maxn", [(0, 6), (1, 6), (2, 6), (None, 4)])
def test_op_A_is_pi0_L_w(point, maxn, sym, spec_all):
    # Euler's relation: the w^0 part of L w^(m+1) V_mu is V_{m+1} V_mu, on
    # every basis key of H_n and on the psi rows, whose keys meet under A
    ws = sym if point is None else spec_all[point]
    f = ws.field
    for n in range(maxn + 1):
        for key in hn_basis(n):
            row = f.clear({key: f.one})
            got = op_A(f, row)
            assert got[1] == row[1]
            assert f.uncleared(got) == f.uncleared(pi0_lax_w(f, row))
        for lam, s in eigen_pairs(n):
            row = ws.psi_row(lam, s)
            assert f.combine([(1, op_A(f, row))]) == f.combine([(1, pi0_lax_w(f, row))])


@pytest.fixture(scope="module")
def coeff_ws():
    return Workspace(CoeffVectorField())


def _vec(ws, row):
    return list(ws.field.uncleared(row).items())


def _canonical(ws, row):
    """Whether the row is in the library's format (BiPoly numerators over
    an int or a Den) with the least D."""
    f = ws.field
    return (all(type(v) is BiPoly for v in row[0].values())
            and type(row[1]) in (int, Den) and f.clear(f.uncleared(row)) == row)


def test_stored_rows_match_coeff_vector_rows(sym, coeff_ws):
    # the Jack, psi and psi-hat rows, read back, are the Coeff vectors of
    # the earlier format, key order included, and the Workspace keeps them
    # canonical
    for n in range(MAX_DEGREE + 1):
        for lam in partitions_of(n):
            row = sym.jack_row(lam)
            assert _vec(sym, row) == _vec(coeff_ws, coeff_ws.jack_row(lam))
            assert _canonical(sym, row)
        for lam, s in eigen_pairs(n):
            for get in ("psi_row", "psi_hat_row"):
                row = getattr(sym, get)(lam, s)
                assert _vec(sym, row) == _vec(coeff_ws, getattr(coeff_ws, get)(lam, s))
                assert _canonical(sym, row)


def test_expansions_and_traces_match_coeff_vector_rows(sym, coeff_ws):
    # the Jack-dual expansions of Jack products, and the psi-hat expansions
    # and full traces of the basis vectors and of psi-hat products, read
    # back, are those of the Coeff-vector rows
    for n in range(1, MAX_DEGREE + 1):
        for mu, nu in partition_pairs(n):
            if sum(mu) + sum(nu) != n or not mu or not nu:
                continue
            got = sym.expand_in_jacks(jack_product(sym, mu, nu))
            assert _vec(sym, got) == _vec(coeff_ws, coeff_ws.expand_in_jacks(
                jack_product(coeff_ws, mu, nu)))
    rows = []
    for n in range(MAX_DEGREE + 1):
        rows += [(ws.field.clear({key: ws.field.one}) for ws in (sym, coeff_ws))
                 for key in hn_basis(n)]
    pairs = [p for n in range(3) for p in eigen_pairs(n)]
    for a in pairs:
        for b in pairs:
            if sum(a[0]) + sum(b[0]) + 1 <= MAX_DEGREE:
                rows.append(tuple(_hat_product(ws, a, b) for ws in (sym, coeff_ws)))
    for row, coeff_row in rows:
        assert _vec(sym, sym.expand_psi_hat(row)) == \
            _vec(coeff_ws, coeff_ws.expand_psi_hat(coeff_row))
        assert full_trace(sym, row) == full_trace(coeff_ws, coeff_row)
    # a vector of mixed degrees in the Jack dual, and one with Fock keys
    # only in the psi-hat dual
    assert _vec(sym, _mixed(sym)[0]) == _vec(coeff_ws, _mixed(coeff_ws)[0])
    assert _vec(sym, _mixed(sym)[1]) == _vec(coeff_ws, _mixed(coeff_ws)[1])


def test_expansion_rows_are_canonical(sym):
    # both duals return the least row: each coefficient is reduced by the
    # input D's forms and its own scale's, and the row is cleared once, so
    # no cofactor common to the labels of a degree is left in D
    rows = [sym.expand_in_jacks(sym.jack_row(lam)) for n in range(7) for lam in partitions_of(n)]
    rows += [sym.expand_in_jacks(jack_product(sym, mu, nu)) for mu, nu in partition_pairs(6)]
    hats = [p for n in range(MAX_DEGREE + 1) for p in eigen_pairs(n)]
    rows += [sym.expand_psi_hat(sym.psi_hat_row(lam, s)) for lam, s in hats]
    for i, a in enumerate(hats):
        for b in hats[i:]:
            if a[0] and b[0] and sum(a[0]) + sum(b[0]) <= MAX_DEGREE:
                rows.append(sym.expand_psi_hat(_hat_product(sym, a, b)))
    for row in rows:
        assert _canonical(sym, row)


def _mixed(ws):
    jacks = [ws.jack_row(lam) for lam in ((2, 1), (1,), (3,))]
    return (ws.expand_in_jacks(ws.field.combine([(1, r) for r in jacks])),
            ws.expand_psi_hat((fock_to_ext(jacks[0][0]), jacks[0][1])))


def _hat_product(ws, a, b):
    (x, dx), (y, dy) = ws.psi_hat_row(*a), ws.psi_hat_row(*b)
    return ext_mul(x, y), dx * dy


def test_combine_cancels_forms_once_per_row():
    # (e1 - e2) / (e1 - e2) over two terms: the form cancels in the sum,
    # so the canonical row is over 1; a form that divides only some
    # numerators stays in D
    f = SymbolicField()
    key, other = (0, (1,)), (1, ())
    inv = f.one / (f.e1 - f.e2)
    row = f.combine([(inv, f.clear({key: f.e1})), (-inv, f.clear({key: f.e2}))])
    assert row == ({key: BiPoly.const(1)}, 1)
    row = f.combine([(inv, f.clear({key: f.e1, other: f.one})),
                     (-inv, f.clear({key: f.e2}))])
    assert type(row[1]) is Den and row[1].forms == {(1, -1): 1}
    assert f.uncleared(row) == {key: f.one, other: inv}
    assert row == f.clear(f.uncleared(row))


def test_numerators_are_a_ring_with_exact_division():
    f = SymbolicField()
    e1, e2 = f.e1.num, f.e2.num
    p = (e1 - e2) * (2 * e1 + 3 * e2)
    assert 0 + p == p + 0 == p and 1 * p == p * 1 == p and p - p == 0
    assert p * 0 == 0 and not p * 0 and (e1 + e2) ** 2 == e1 * e1 + 2 * e1 * e2 + e2 * e2
    assert p // (e1 - e2) == 2 * e1 + 3 * e2 and 0 // p == 0 and (3 * p) // 3 == p
    with pytest.raises(ArithmeticError):
        p // (e1 + e2)
    # division by leading terms, homogeneous or not
    assert (e1 * e2 * e2) // e2 == e1 * e2 and (e1 ** 3 - e2 ** 3) // (e1 - e2) == \
        e1 * e1 + e1 * e2 + e2 * e2
    for q in (e1 * e1, e2 * e2, e1 ** 2 + e2):
        with pytest.raises(ArithmeticError):
            (e1 * e2) // q
    assert ((p + 1) * (e1 + 2)) // (e1 + 2) == p + 1
    rng = random.Random(3)
    for _ in range(50):
        a, b = (BiPoly({(i, d - i): rng.randint(-9, 9) for i in range(d + 1)})
                for d in (rng.randint(0, 4), rng.randint(0, 4)))
        if a and b:
            assert (a * b) // b == a and (a * b) // a == b
    # inhomogeneous operands, and a remainder in a lower graded part
    for _ in range(50):
        a, b = (BiPoly({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                        for _ in range(rng.randint(1, 4))}) for _ in range(2))
        if a and b:
            assert (a * b) // b == a and (a * b) // a == b
            if any(i + j for i, j in b.t):
                with pytest.raises(ArithmeticError):
                    (a * b + 1) // b
    with pytest.raises(ZeroDivisionError):
        p // 0
    # a numerator times a field scalar is a field scalar in lowest terms
    assert p * (f.one / (f.e1 - f.e2)) == f.lf((2, 3))
    # quotient by a row denominator; dividing by a numerator is Coeff
    # division, NotSplit unless it is an integer times forms
    d = f.clear({(): f.one / (f.e1 - f.e2)})[1]
    assert f.quotient(p, d * 2) == f.lf((2, 3)) / 2
    assert p * f.one / (2 * e1 + 3 * e2) == f.lf((1, -1))
    with pytest.raises(NotSplit):
        p * f.one / (e1 * e1 + e2 * e2)
