import random

import pytest

from jacklax.arith import (BiPoly, Coeff, DEFAULT_SPEC_POINTS, SpecPoint,
                           SpectralFun, SymbolicField, parse_coeff,
                           render_coeff)
from jacklax.errors import (BadSpecPoint, NotAPole, NotASimplePole,
                            PoleAtSpecPoint, ZeroDenominator)

F = SymbolicField()
e1, e2 = F.e1, F.e2


def test_normalize_monomial_cancellation():
    c = Coeff(BiPoly({(2, 1): 1}), BiPoly({(1, 0): 1}))
    assert c == e1 * e2


def test_normalize_identity():
    c = Coeff(BiPoly.lin(1, 1), BiPoly.lin(1, 1))
    assert c == F.one


def test_normalize_difference_of_squares():
    num = e1 * e1 - e2 * e2
    c = num / (e1 - e2)
    assert c == e1 + e2
    # cross-multiplication confirms
    assert c * (e1 - e2) == num


def test_normalize_common_factor_cancels():
    p = (e1 + e2) ** 2
    q = e1 * e2 - F.num(3)
    r = e1 - e2
    assert (p * q) / (q * r) == p / r


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        Coeff(BiPoly.const(1), BiPoly())
    with pytest.raises(ZeroDenominator):
        F.one / F.zero


def test_field_axioms_randomized():
    rng = random.Random(12345)

    def rnd():
        t = {}
        for _ in range(rng.randint(1, 3)):
            t[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-5, 5)
        num = BiPoly(t)
        den = BiPoly({(rng.randint(0, 1), rng.randint(0, 1)): rng.choice([1, 2, 3, -1])})
        if not num.t:
            num = BiPoly.const(1)
        return Coeff(num, den)

    for _ in range(1000):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if c:
            assert (a / c) * c == a
        assert a + F.zero == a and a * F.one == a


def test_canonical_text_roundtrip():
    samples = [
        F.num(0), F.num(7), F.num(-7),
        e1 + e2, (e1 ** 2 - e2 ** 2) / (e1 - e2),
        (F.num(2) * e1 ** 2 - e1 * e2) / (e1 + F.num(3) * e2),
        F.one / (e1 * e2),
    ]
    for c in samples:
        assert parse_coeff(render_coeff(c)) == c


def test_canonical_term_order():
    # total degree descending, then e1-degree descending
    c = e2 ** 3 + e1 * e2 + F.num(5) + e1 ** 2 * e2
    assert render_coeff(c) == "e1^2*e2 + e2^3 + e1*e2 + 5"


def test_specialize_examples():
    p = SpecPoint(-2, 3, check=False)
    assert (e1 * e2).evaluate(p.e1, p.e2) == -6
    assert (F.one / (e1 + e2)).evaluate(p.e1, p.e2) == 1
    assert ((e1 ** 2 - e2 ** 2) / (e1 - e2)).evaluate(p.e1, p.e2) == 1


def test_specialize_is_homomorphism():
    rng = random.Random(7)
    p = DEFAULT_SPEC_POINTS[2]
    for _ in range(50):
        t1 = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)})
        t2 = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 4)})
        a = Coeff(t1 if t1.t else BiPoly.const(2), BiPoly.const(rng.randint(1, 3)))
        b = Coeff(t2, BiPoly.const(1))
        va, vb = a.evaluate(p.e1, p.e2), b.evaluate(p.e1, p.e2)
        assert (a * b).evaluate(p.e1, p.e2) == va * vb
        assert (a + b).evaluate(p.e1, p.e2) == va + vb
        assert (a / b).evaluate(p.e1, p.e2) == va / vb


def test_specialize_pole_raises():
    p = SpecPoint(-2, 3, check=False)
    with pytest.raises(PoleAtSpecPoint):
        (F.one / (F.num(3) * e1 + F.num(2) * e2)).evaluate(p.e1, p.e2)


def test_default_points_valid():
    for p in DEFAULT_SPEC_POINTS:
        p.validate()


def test_bad_points_rejected():
    with pytest.raises(BadSpecPoint):
        SpecPoint(1, -1)          # Schur degenerate
    with pytest.raises(BadSpecPoint):
        SpecPoint(0, 5)
    with pytest.raises(BadSpecPoint):
        SpecPoint(-2, 3)          # 3 e1 + 2 e2 = 0


def N(field):
    return SpectralFun.from_factors(field, num=[(0, 0), (1, 1)],
                                    den=[(1, 0), (0, 1)])


def test_sfun_residues():
    n = N(F)
    assert n.residue((1, 0), F) == e1 * (-e2) / (e1 - e2)
    assert n.residue((0, 1), F) == e2 * (-e1) / (e2 - e1)
    # 1/u = u^{-1} T_empty has residue 1 at the origin
    inv_u = SpectralFun.from_factors(F, num=[], den=[(0, 0)])
    assert inv_u.residue((0, 0), F) == F.one
    with pytest.raises(NotAPole):
        n.residue((5, 5), F)
    dbl = SpectralFun.from_factors(F, num=[], den=[(1, 0), (1, 0)])
    with pytest.raises(NotASimplePole):
        dbl.residue((1, 0), F)


def test_sfun_partial_fraction_reconstruction():
    n = N(F)
    poly, res = n.partial_fractions(F)
    assert poly == [F.one]
    # N(u) - 1 - sum res/(u-pole) vanishes: check by evaluation at points
    for uval in (F.num(5), F.num(7), F.num(11)):
        acc = F.one
        for pole, r in res.items():
            acc = acc + r / (uval - F.lf(pole))
        assert acc == n.value_at(uval, F)


def test_sfun_equality():
    n = N(F)
    assert n.equal(n, F)
    assert not n.equal(SpectralFun.one(F), F)
    # product of three N factors equals the corner form of {1,2}
    t12 = n * n.shift((1, 0)) * n.shift((0, 1))
    corner = SpectralFun.from_factors(
        F, num=[(0, 0), (2, 1), (1, 2)], den=[(2, 0), (1, 1), (0, 2)])
    assert t12.equal(corner, F)
    assert t12.num == corner.num and t12.den == corner.den
    # differing prefactors compare via cross multiplication
    a = SpectralFun(e1 + e2, {(1, 1): 1}, {(2, 0): 1})
    b = SpectralFun(e1 + e2, {(1, 1): 1}, {(2, 0): 1})
    assert a.equal(b, F)
    assert not a.equal(SpectralFun(e1, {(1, 1): 1}, {(2, 0): 1}), F)


def test_sfun_printing():
    n = N(F)
    s = n.factored_str()
    assert "u" in s and "(u - [1,1])" in s and "/" in s
    pf = n.pf_str(F)
    assert "(u - [1,0])" in pf and "(u - [0,1])" in pf and pf.startswith("(1)")
