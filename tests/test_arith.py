import random

import pytest

import oracles
from jacklax.arith import (BiPoly, Coeff, DEFAULT_SPEC_POINTS, SpecPoint,
                           SymbolicField, parse_coeff, parse_scalar, render_coeff)
from jacklax.errors import (BadSpecPoint, JackLaxError, NotAPole, NotASimplePole,
                            PoleAtSpecPoint, ZeroDenominator)
from jacklax.spectral import SpectralFun

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
    q = (e1 + F.num(2) * e2) ** 2 * e2
    r = e1 - e2
    assert (p * q) / (q * r) == p / r
    # a common factor that does not split cancels in the gcd oracle
    E1, E2 = oracles.Coeff.lf(1, 0), oracles.Coeff.lf(0, 1)
    p, q, r = (E1 + E2) ** 2, E1 * E2 - 3, E1 - E2
    assert (p * q) / (q * r) == p / r


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        Coeff(BiPoly.const(1), BiPoly())
    with pytest.raises(ZeroDenominator):
        F.one / F.zero


def test_division_by_a_non_split_numerator_raises():
    # denominators are an integer times linear forms; e1^2 + e2^2 is not
    q = e1 * e1 + e2 * e2
    for divide in (lambda: F.one / q, lambda: e1 / q, lambda: q ** -1,
                   lambda: Coeff(BiPoly.const(1), q.num),
                   lambda: parse_scalar("e1 / e1^2 + e2^2", F)):
        with pytest.raises(JackLaxError, match=r"e1\^2 \+ e2\^2"):
            divide()
    # as do forms with a constant term and products of them
    for p in ("e1 + 1", "e1*e2 - 3", "2*e1^2 + 2"):
        with pytest.raises(JackLaxError):
            parse_coeff("1 / " + p)
    # a split numerator is factored, whatever its order and content
    d = (F.num(6) * e1 - F.num(4) * e2) * (F.num(3) * e1 + F.num(7) * e2) ** 2 * e2
    assert (F.one / d) * d == F.one
    # past the candidate bound, a last linear factor is still found
    big = F.lf((140, -2)) * F.lf((1, 1))
    assert (e1 / big) * big == e1
    assert render_coeff(e1 / big) == "e1 / 140*e1^2 + 138*e1*e2 - 2*e2^2"
    assert parse_coeff(render_coeff(F.one / d)) == F.one / d
    assert F.zero / q == F.zero


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

    def rnd_split():
        # a nonzero integer times up to three linear forms
        d = F.num(rng.choice([1, 2, 3, -1]))
        for _ in range(rng.randint(0, 3)):
            d = d * F.lf((rng.randint(-3, 3), rng.randint(1, 3)))
        return d

    for _ in range(1000):
        a, b, c, d = rnd(), rnd(), rnd(), rnd_split()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a / d) * d == a
        if c:
            # c need not split: divide in the gcd oracle
            oa, oc = oracles.Coeff(a.num, a.den), oracles.Coeff(c.num, c.den)
            assert (oa / oc) * oc == oa
        assert a + F.zero == a and a * F.one == a


@pytest.mark.parametrize("k", [64, 128, 256])
def test_packed_slots_never_alias(k):
    # A BiPoly packs each graded part as p(2^K), p the part in x = e1/e2.
    # e1 - 2^K e2 is x - 2^K, which vanishes at x = 2^K: in K-bit slots it
    # packs to 0, and a residual that is this value would read as a PASS.
    # Each value below would alias in a slot one bit too narrow for it; each
    # must be nonzero, differ from 0 and unpack to its own terms.
    x, y = BiPoly.lin(1, 0), BiPoly.lin(0, 1)
    big, half, root = 2 ** k, 2 ** (k - 1), 2 ** (k // 2)
    cases = [
        (BiPoly({(1, 0): 1, (0, 1): -big}), {(1, 0): 1, (0, 1): -big}),
        (x - big * y, {(1, 0): 1, (0, 1): -big}),
        (x * x - BiPoly.const(big) * y * y, {(2, 0): 1, (0, 2): -big}),
        # (x - 2^(K/2)) (x + 2^(K/2)) = x^2 - 2^K
        ((x - root * y) * (x + root * y), {(2, 0): 1, (0, 2): -big}),
        # a middle coefficient 2^(K-1), one bit past a signed K-bit slot
        ((x + (half - 1) * y) * (x + y), {(2, 0): 1, (1, 1): half, (0, 2): half - 1}),
        ((half - 1) * x + x + y, {(1, 0): half, (0, 1): 1}),
        # quotients whose slots leave K bits
        (((x - big * y) * (x + y)) // (x + y), {(1, 0): 1, (0, 1): -big}),
        (((x - big * y) * (2 * x + 3 * y)) // (2 * x + 3 * y), {(1, 0): 1, (0, 1): -big}),
        (((half - 1) * x + half * y) * (x - y) // (x - y), {(1, 0): half - 1, (0, 1): half}),
    ]
    # a quotient with larger coefficients than its dividend: those of
    # c (x + y)^20 (x - y) stay below 2^(K-1), those of c (x + y)^20 do not
    c = half // 100000
    binomials = c * (x + y) ** 20
    product = BiPoly((binomials * (x - y)).t)
    assert max(map(abs, product.t.values())) < half and product.width == k
    cases.append((product // (x - y), binomials.t))
    assert max(map(abs, binomials.t.values())) > half
    for value, terms in cases:
        assert value and value != 0 and value.t == terms
        assert value == BiPoly(terms) and hash(value) == hash(BiPoly(terms))
    # the same through Coeff: the residual of e1 against 2^K e2, and a
    # division by a form that leaves the aliasing value
    ex, ey = Coeff(x), Coeff(y)
    assert ex - big * ey and ex - big * ey != F.zero
    q = (ex * ex - F.num(big) * ey * ey) / (ex - F.num(root) * ey)
    assert q == ex + F.num(root) * ey and q.num.t == {(1, 0): 1, (0, 1): root}
    assert (ex - F.num(big) * ey) / (ex + ey) != (ex - F.num(big) * ey + ey) / (ex + ey)


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
    p = oracles.unchecked_point(-2, 3)
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
    p = oracles.unchecked_point(-2, 3)
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
    return oracles.sfun_from_factors(field, num=[(0, 0), (1, 1)], den=[(1, 0), (0, 1)])


def test_sfun_residues():
    n = N(F)
    assert n.residue((1, 0), F) == e1 * (-e2) / (e1 - e2)
    assert n.residue((0, 1), F) == e2 * (-e1) / (e2 - e1)
    # 1/u = u^{-1} T_empty has residue 1 at the origin
    inv_u = oracles.sfun_from_factors(F, num=[], den=[(0, 0)])
    assert inv_u.residue((0, 0), F) == F.one
    with pytest.raises(NotAPole):
        n.residue((5, 5), F)
    dbl = oracles.sfun_from_factors(F, num=[], den=[(1, 0), (1, 0)])
    with pytest.raises(NotASimplePole):
        dbl.residue((1, 0), F)


def test_sfun_partial_fraction_reconstruction():
    n = N(F)
    poly, res = n.partial_fractions(F)
    assert poly == [F.one]
    # N(u) - 1 - sum res/(u-pole) vanishes: check by evaluation at forms
    # off the poles (u - [pole] must be a linear form to divide by)
    for uval in (F.lf((5, 2)), F.lf((7, -3)), F.lf((11, 4))):
        acc = F.one
        for pole, r in res.items():
            acc = acc + r / (uval - F.lf(pole))
        assert acc == oracles.sfun_value_at(n, uval, F)


def test_sfun_equality():
    n = N(F)
    assert oracles.sfun_equal(n, n, F)
    assert not oracles.sfun_equal(n, SpectralFun(F.one), F)
    # product of three N factors equals the corner form of {1,2}
    t12 = n * n.shift((1, 0)) * n.shift((0, 1))
    corner = oracles.sfun_from_factors(F, num=[(0, 0), (2, 1), (1, 2)],
                                       den=[(2, 0), (1, 1), (0, 2)])
    assert oracles.sfun_equal(t12, corner, F)
    assert t12.num == corner.num and t12.den == corner.den
    # differing prefactors compare via cross multiplication
    a = SpectralFun(e1 + e2, {(1, 1): 1}, {(2, 0): 1})
    b = SpectralFun(e1 + e2, {(1, 1): 1}, {(2, 0): 1})
    assert oracles.sfun_equal(a, b, F)
    assert not oracles.sfun_equal(a, SpectralFun(e1, {(1, 1): 1}, {(2, 0): 1}), F)


def test_sfun_printing():
    n = N(F)
    s = n.factored_str()
    assert "u" in s and "(u - [1,1])" in s and "/" in s
    pf = oracles.sfun_pf_str(n, F)
    assert "(u - [1,0])" in pf and "(u - [0,1])" in pf and pf.startswith("(1)")
