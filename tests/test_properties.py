"""Property tests: the partition box moves, the two text formats and the
two cache row codecs round-trip, Coeff is a field with one canonical form, expressions in it
reduce as they do in the gcd oracle (and in sympy), the oracle's
bivariate gcd agrees with sympy's, partial fractions reconstruct a SpectralFun
and their polynomial part is the long-division quotient, a
combination of basis vectors expands back to its coefficients, the Lax
operator and beta on integer numerators agree with their field-scalar
oracles, field.ratio agrees with one field operation per form, cleared
rows sum as v_accum does, the closed-form point check agrees with the
scan over difference vectors, the fraction-free rank agrees with
Gaussian elimination with field division, and the packed BiPoly
arithmetic (ring operations, exact and form division, the split into
forms, the row reduction and codec) agrees with the term-dict arithmetic
it replaced, at coefficients across the slot limit."""

import json
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from jacklax.arith import (BiPoly, Coeff, SpecializedField, SpecPoint,  # noqa: E402
                           SymbolicField, DEFAULT_SPEC_POINTS, parse_coeff, render_coeff,
                           _W0, _den_parts, _factor, _least_row, _over_form)
from jacklax.errors import BadSpecPoint, ZeroDenominator  # noqa: E402
from jacklax.fock import bump, hn_basis, v_accum, v_clear, v_combine  # noqa: E402
from jacklax.lax import lax_apply  # noqa: E402
from jacklax.partitions import (add_box, add_set, eigen_pairs,  # noqa: E402
                                format_partition, parse_partition, partitions_of,
                                remove_box)
from jacklax.traces import beta  # noqa: E402
from jacklax.linalg import rank  # noqa: E402
from oracles import (field_beta, field_lax_apply, fraction_rank, lf_ratio,  # noqa: E402
                     scan_collision)

try:
    import sympy
except ImportError:
    sympy = None

PARTITIONS = st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions_of(n)))
BIPOLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.integers(-6, 6), max_size=4).map(BiPoly)
FORMS = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


def _split_poly(k, forms):
    """k times the product of the linear forms, as a BiPoly."""
    p = BiPoly.const(k)
    for a, b in forms:
        p = p * BiPoly.lin(a, b)
    return p


# a nonzero integer times up to four linear forms (repeats and multiples
# of one another included): the denominators a Coeff takes
SPLIT = st.builds(_split_poly, st.integers(-12, 12).filter(bool), st.lists(FORMS, max_size=4))
COEFFS = st.builds(Coeff, BIPOLYS, SPLIT)
# any nonzero denominator: the gcd oracle's
ORACLE_COEFFS = st.builds(oracles.Coeff, BIPOLYS, BIPOLYS.filter(bool))
ROOTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# distinct primes, so the denominators of distinct terms are pairwise coprime
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 10**9 + 7, 10**9 + 9,
              998244353, 1000003)
NUMERATORS = st.integers(-10**12, 10**12).filter(bool)
EXT_KEYS = st.integers(0, 5).flatmap(lambda n: st.sampled_from(hn_basis(n)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_remove_box_undoes_add_box(data):
    lam = data.draw(PARTITIONS)
    s = data.draw(st.sampled_from(add_set(lam)))
    assert remove_box(add_box(lam, s), s) == lam


@settings(max_examples=60, deadline=None)
@given(PARTITIONS)
def test_partition_text_roundtrip(lam):
    assert parse_partition(format_partition(lam)) == lam


@settings(max_examples=60, deadline=None)
@given(BIPOLYS, BIPOLYS.filter(bool))
def test_coeff_text_roundtrip(num, den):
    # any denominator, in the gcd oracle
    c = oracles.Coeff(num, den)
    assert oracles.parse_coeff(render_coeff(c)) == c


@settings(max_examples=60, deadline=None)
@given(BIPOLYS, SPLIT)
def test_split_coeff_text_roundtrip(num, den):
    # the text of a Coeff is the oracle's, and it reads back
    c = Coeff(num, den)
    assert render_coeff(c) == render_coeff(oracles.Coeff(num, den))
    assert parse_coeff(render_coeff(c)) == c


# rows over the partitions of 4, keyed by partition as the Jacks are
ROW_LABELS = partitions_of(4)
ROW_INDEX = {mu: i for i, mu in enumerate(ROW_LABELS)}


def _roundtrip(F, row):
    """The row's cache form through JSON; it reads back as the row and
    writes back as itself."""
    v = json.loads(json.dumps(F.dump_row(row, ROW_INDEX)))
    assert F.load_row(v, ROW_LABELS) == row
    assert F.dump_row(F.load_row(v, ROW_LABELS), ROW_INDEX) == v
    return v


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(ROW_LABELS), COEFFS.filter(bool), max_size=4),
       st.integers(2, 6), FORMS, st.data())
def test_symbolic_row_codec_roundtrip(vec, k, form, data):
    # the cache form of a canonical row reads back through JSON; with every
    # numerator and c times k, or every numerator and D times one of D's
    # forms (a drawn one if D has none), it is not in lowest terms and is
    # refused
    F = SymbolicField()
    entries, c, forms = _roundtrip(F, F.clear(vec))
    with pytest.raises(ValueError):
        F.load_row([[[i, [[a, b, x * k] for a, b, x in t]] for i, t in entries], c * k, forms],
                   ROW_LABELS)
    a, b = data.draw(st.sampled_from([f[:2] for f in forms])) if forms else form
    g = abs(gcd(a, b)) * (1 if a > 0 or (not a and b > 0) else -1)
    f = (a // g, b // g)
    times = [[i, [[p, q, x] for (p, q), x in
                  sorted((BiPoly({(p, q): x for p, q, x in t}) * BiPoly.lin(*f)).t.items())]]
             for i, t in entries]
    mults = {tuple(fm[:2]): fm[2] for fm in forms}
    mults[f] = mults.get(f, 0) + 1
    with pytest.raises(ValueError):
        F.load_row([times, c, [[p, q, m] for (p, q), m in sorted(mults.items())]], ROW_LABELS)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(ROW_LABELS), st.fractions().filter(bool), max_size=4),
       st.integers(2, 6))
def test_point_row_codec_roundtrip(vec, k):
    F = SpecializedField(DEFAULT_SPEC_POINTS[0])
    entries, d = _roundtrip(F, F.clear(vec))
    with pytest.raises(ValueError):
        F.load_row([[[i, x * k] for i, x in entries], d * k], ROW_LABELS)


@settings(max_examples=30, deadline=None)
@given(COEFFS, COEFFS, COEFFS, st.builds(Coeff, SPLIT, SPLIT))
def test_coeff_field_axioms(a, b, c, d):
    # d (numerator and denominator split) is one a Coeff can divide by
    zero, one = Coeff.from_int(0), Coeff.from_int(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert d / d == one and (b / d) * d == b and (b * d) / d == b
    assert one / (one / d) == d and (a - b) / d == a / d - b / d


@settings(max_examples=30, deadline=None)
@given(ORACLE_COEFFS, ORACLE_COEFFS, ORACLE_COEFFS)
def test_oracle_coeff_field_axioms(a, b, c):
    zero, one = oracles.Coeff.from_int(0), oracles.Coeff.from_int(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    if a:
        assert a / a == one and (b / a) * a == b


@settings(max_examples=30, deadline=None)
@given(BIPOLYS, SPLIT, SPLIT)
def test_coeff_canonical_form_is_unique(num, den, g):
    # num/den and (g num)/(g den), of either sign, are stored alike, with
    # the oracle's numerator and denominator
    c = Coeff(num, den)
    for d in (Coeff(num * g, den * g), Coeff(-num * g, -den * g)):
        assert (d.num, d.den) == (c.num, c.den) and hash(d) == hash(c)
    assert oracles.lead_coeff(c.den) > 0
    o = oracles.Coeff(num, den)
    assert (c.num, c.den) == (o.num, o.den)


@settings(max_examples=60, deadline=None)
@given(BIPOLYS.filter(bool), BIPOLYS, st.lists(FORMS, min_size=1, max_size=4),
       st.integers(1, 4), st.integers(-12, 12).filter(bool), st.integers(1, 12))
def test_sums_cancel_like_the_oracle(x, y, forms, cut, k, m):
    # (m x [g] + y) / d - y / d = m x [g] / d, [g] a product of forms of
    # d = k [forms]: the sum must cancel [g] and the content it shares
    # with k, whether or not the two terms reduced alike
    d, g = _split_poly(k, forms), _split_poly(m, forms[:cut])
    got = Coeff(x * g + y, d) - Coeff(y, d)
    assert got == Coeff(x * g, d)
    assert render_coeff(got) == render_coeff(oracles.Coeff(x * g, d))


# expression trees: leaves are linear forms, nonzero integers and small
# BiPolys; a quotient's divisor is a product or quotient of forms and
# integers, which never vanishes and always splits
SPLIT_TREES = st.recursive(
    st.one_of(st.tuples(st.just("form"), FORMS),
              st.tuples(st.just("int"), st.integers(-6, 6).filter(bool))),
    lambda sub: st.tuples(st.sampled_from(["*", "/"]), sub, sub), max_leaves=5)
TREES = st.recursive(
    st.one_of(SPLIT_TREES, st.tuples(st.just("poly"), BIPOLYS)),
    lambda sub: st.one_of(st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub),
                          st.tuples(st.just("/"), sub, SPLIT_TREES)),
    max_leaves=10)


def _evaluate(tree, form, integer, poly):
    op, a = tree[0], tree[1]
    if op == "form":
        return form(*a)
    if op == "int":
        return integer(a)
    if op == "poly":
        return poly(a)
    x, y = (_evaluate(t, form, integer, poly) for t in tree[1:])
    return x + y if op == "+" else x - y if op == "-" else x * y if op == "*" else x / y


@settings(max_examples=150, deadline=None)
@given(TREES)
def test_coeff_expression_trees_match_oracle(tree):
    got = _evaluate(tree, Coeff.lf, Coeff.from_int, Coeff)
    want = _evaluate(tree, oracles.Coeff.lf, oracles.Coeff.from_int, oracles.Coeff)
    assert render_coeff(got) == render_coeff(want)
    if sympy is not None:
        e1, e2 = sympy.symbols("e1 e2")
        expr = _evaluate(tree, lambda a, b: a * e1 + b * e2, sympy.Integer,
                         lambda p: _sympy_poly(p, e1, e2).as_expr())
        num, den = sympy.fraction(sympy.cancel(expr))
        got_num = _sympy_poly(got.num, e1, e2).as_expr()
        got_den = _sympy_poly(got.den, e1, e2).as_expr()
        # the same function, and in lowest terms: the denominators differ
        # by a constant factor only
        assert sympy.expand(got_num * den - got_den * num) == 0
        assert sympy.cancel(got_den / den).is_number


def _sympy_poly(p, e1, e2):
    return sympy.Poly(sum((c * e1**i * e2**j for (i, j), c in p.t.items()),
                          sympy.Integer(0)), e1, e2)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=30, deadline=None)
@given(BIPOLYS, BIPOLYS, BIPOLYS)
def test_bp_gcd_matches_sympy(a, b, g):
    e1, e2 = sympy.symbols("e1 e2")
    A, B = a * g, b * g
    want = sympy.Poly(sympy.gcd(_sympy_poly(A, e1, e2).as_expr(),
                                _sympy_poly(B, e1, e2).as_expr()), e1, e2)
    got = _sympy_poly(oracles._bp_gcd(A, B), e1, e2)
    assert got == want or got == -want


@pytest.mark.parametrize("field", [SpecializedField(DEFAULT_SPEC_POINTS[0]), SymbolicField()],
                         ids=["specialized", "symbolic"])
@settings(max_examples=30, deadline=None)
@given(pre=st.integers(-5, 5).filter(bool), num=st.lists(ROOTS, max_size=4),
       den=st.lists(ROOTS, max_size=4, unique=True))
def test_partial_fractions_reconstruct(field, pre, num, den):
    # the polynomial part plus the sum of residue/(u - [pole]) is the
    # function again, checked at u = [2k+1, 7], never a pole (whose e2
    # coefficient is at most 3); u - [pole] is then a linear form, which
    # a Coeff can divide by
    f = oracles.sfun_from_factors(field, num, den) * field.num(pre)
    poly, res = f.partial_fractions(field)
    for k in range(-2, 3):
        u = field.lf((2 * k + 1, 7))
        total = field.zero
        for i, c in enumerate(poly):
            total = total + c * u ** i
        for pole, r in res.items():
            total = total + r / (u - field.lf(pole))
        assert total == oracles.sfun_value_at(f, u, field)


@pytest.mark.parametrize("field", [SpecializedField(DEFAULT_SPEC_POINTS[0]),
                                   SpecializedField(DEFAULT_SPEC_POINTS[2]), SymbolicField()],
                         ids=["specialized", "fractional", "symbolic"])
@settings(max_examples=40, deadline=None)
@given(pre=st.fractions(max_denominator=20), den=st.lists(ROOTS, max_size=4, unique=True),
       extra=st.lists(ROOTS, max_size=3), drop=st.integers(0, 5))
@example(pre=Fraction(3), den=[(1, 0), (0, 1)], extra=[(0, 0)], drop=0)
@example(pre=Fraction(-2, 3), den=[(1, 0)], extra=[(1, 0), (0, 1)], drop=0)
@example(pre=Fraction(1), den=[(2, 1), (0, 1)], extra=[(1, 1)], drop=2)
@example(pre=Fraction(0), den=[(1, 0)], extra=[(1, 1)], drop=0)
def test_partial_fractions_match_long_division(field, pre, den, extra, drop):
    # the polynomial part read off at u = oo (directly at degrees 0 and 1)
    # is the quotient of the expanded numerator by the expanded
    # denominator; the numerator has len(den) - drop + len(extra) roots,
    # so every degree from below -1 to 3 is drawn, repeated roots and
    # roots cancelling poles included
    num = (den[drop:] + extra) if drop < len(den) else extra
    f = oracles.sfun_from_factors(field, num, den) * oracles.field_fraction(field, pre)
    assert f.partial_fractions(field) == oracles.expanded_partial_fractions(f, field)


def _expands_back(data, field, labels, basis, expand):
    """Sum random terms q * basis(label), q with pairwise coprime large
    denominators, plus q' and -q' on one label, as one row, and expand the
    row; basis gives cleared rows and expand returns one."""
    chosen = data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                max_size=min(5, len(labels)), unique=True))
    dens = data.draw(st.permutations(BIG_PRIMES))
    terms = [(lab, Fraction(data.draw(NUMERATORS), d)) for lab, d in zip(chosen, dens)]
    q = Fraction(data.draw(NUMERATORS), dens[-1])
    lab = data.draw(st.sampled_from(labels))
    terms += [(lab, q), (lab, -q)]
    want = {}
    for lab, q in terms:
        bump(want, lab, q)
    got = field.uncleared(expand(field.combine([(q, basis(lab)) for lab, q in terms])))
    assert list(got.items()) == [(lab, want[lab]) for lab in labels if lab in want]


# the last default point has fractional e1, e2, so the dual rows carry
# denominators too
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_jack_combination_expands_back(spec_all, data):
    ws = spec_all[-1]
    labels = partitions_of(data.draw(st.integers(1, 6)))
    _expands_back(data, ws.field, labels, ws.jack_row, ws.expand_in_jacks)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_psi_hat_combination_expands_back(spec_all, data):
    ws = spec_all[-1]
    labels = eigen_pairs(data.draw(st.integers(1, 5)))
    _expands_back(data, ws.field, labels, lambda p: ws.psi_hat_row(*p), ws.expand_psi_hat)


def _sparse_ext(data):
    """A few basis keys of H_0..H_5, with numerators up to 10^12 over
    pairwise coprime large denominators."""
    keys = data.draw(st.lists(EXT_KEYS, min_size=1, max_size=5, unique=True))
    dens = data.draw(st.permutations(BIG_PRIMES))
    return {k: Fraction(data.draw(NUMERATORS), d) for k, d in zip(keys, dens)}


# the last default point has fractional ebar and hbar (L = 14)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lax_apply_and_beta_match_field_oracle(spec_all, data):
    ws = spec_all[-1]
    f = ws.field
    a, b = _sparse_ext(data), _sparse_ext(data)
    ra, rb = v_clear(a), v_clear(b)
    img = lax_apply(f, ra)
    assert img[1] == ra[1] * f.lax_ints[2]
    assert list(f.uncleared(img).items()) == list(field_lax_apply(f, a).items())
    got = beta(ws, ra, rb)
    assert got[1] == ra[1] * rb[1] * f.lax_ints[2]
    assert f.uncleared(got) == f.uncleared(field_beta(ws, ra, rb))


# C = lcm(den e1, den e2) is 1, 1, 14 and 40 at these points
RATIO_FIELDS = [SpecializedField(p) for p in DEFAULT_SPEC_POINTS]
RATIO_FIELDS += [SpecializedField(SpecPoint(Fraction(-2, 5), Fraction(9, 8))), SymbolicField()]


@pytest.mark.parametrize("field", RATIO_FIELDS, ids=lambda f: f.key())
@settings(max_examples=30, deadline=None)
@given(pre=st.fractions(max_denominator=50).filter(bool), num=st.lists(ROOTS, max_size=5),
       den=st.lists(ROOTS.filter(any), max_size=5), with_pre=st.booleans())
def test_ratio_matches_one_operation_per_form(field, pre, num, den, with_pre):
    pre = oracles.field_fraction(field, pre) if with_pre else None
    assert field.ratio(num, den, pre) == lf_ratio(field, num, den, pre)
    with pytest.raises((ZeroDivisionError, ZeroDenominator)):
        field.ratio(num, den + [(0, 0)], pre)


# scalars whose denominators have no form, one form, or a form that
# another factor has in its numerator
SYM_FACTORS = [lambda f: f.e1, lambda f: f.one / (f.e1 - f.e2),
               lambda f: f.e2 / (2 * f.e1 + f.e2), lambda f: (f.e1 - f.e2) / f.e2]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_combined_rows_match_v_accum(data):
    # v_combine is v_clear of the v_accum sum, key order included, also
    # when some sums cancel; so is SymbolicField.combine, whose rows are
    # polynomial numerators over a factored denominator (here with the
    # coefficients times a scalar with linear forms above or below): the
    # canonical row, with the least D, is the clear of the summed vector
    sym = SymbolicField()
    terms, sym_terms, want, sym_want = [], [], {}, {}
    for _ in range(data.draw(st.integers(1, 4))):
        vec = _sparse_ext(data)
        c = data.draw(st.fractions(max_denominator=10**6).filter(bool))
        x = data.draw(st.sampled_from(SYM_FACTORS))(sym)
        for sign in (1, -1) if data.draw(st.booleans()) else (1,):
            terms.append((sign * c, v_clear(vec)))
            sym_vec = {k: oracles.field_fraction(sym, v) for k, v in vec.items()}
            sym_terms.append((oracles.field_fraction(sym, sign * c) * x, sym.clear(sym_vec)))
            v_accum(want, vec, sign * c)
            v_accum(sym_want, sym_vec, oracles.field_fraction(sym, sign * c) * x)
    nums, den = v_combine(terms)
    assert list(nums.items()) == list(v_clear(want)[0].items()) and den == v_clear(want)[1]
    row = sym.combine(sym_terms)
    assert list(sym.uncleared(row).items()) == list(sym_want.items())
    assert row == sym.clear(sym_want)


# e1/e2 = +-p/q with p, q small enough to collide half of the time
SPEC_PAIRS = st.one_of(
    st.tuples(st.fractions(max_denominator=12), st.fractions(max_denominator=12)),
    st.builds(lambda e2, p, q, sign: (e2 * Fraction(sign * p, q), e2),
              st.fractions(max_denominator=12), st.integers(1, 70), st.integers(1, 70),
              st.sampled_from((1, -1))))


# at the bounds: (p+1)(q+1) = 68 or 70 with e1/e2 = -p/q, p+q = 68 or 69
# with e1/e2 = p/q
@example((Fraction(-33), Fraction(1)))
@example((Fraction(-80, 21), Fraction(5, 7)))
@example((Fraction(-34), Fraction(1)))
@example((Fraction(33, 35), Fraction(1)))
@example((Fraction(-34, 35), Fraction(-1)))
@settings(max_examples=150, deadline=None)
@given(SPEC_PAIRS)
def test_spec_point_check_matches_scan(pair):
    e1, e2 = pair
    if not e1 or not e2 or e1 + e2 == 0:
        return
    try:
        SpecPoint(e1, e2)
        got = None
    except BadSpecPoint as exc:
        got = str(exc)
    assert got == scan_collision(e1, e2)


# small rationals, zero half the time, so that rows and columns vanish
SMALL_Q = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-6, max_value=6, max_denominator=7))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bareiss_rank_matches_fraction_rank(data):
    # wide, tall and empty shapes; zero, repeated and combined rows make
    # the matrix rank-deficient on purpose.  rank runs on the integer
    # numerators of each cleared row, the oracle on the Fractions.
    n, m = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    rows = data.draw(st.lists(st.lists(SMALL_Q, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    for kind in data.draw(st.lists(st.sampled_from(["zero", "copy", "combine"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * m)
        elif kind == "copy":
            rows.insert(data.draw(st.integers(0, len(rows))),
                        list(data.draw(st.sampled_from(rows))))
        else:
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            x, y = data.draw(SMALL_Q), data.draw(SMALL_Q)
            rows.append([x * u + y * v for u, v in zip(a, b)])
    cleared = [[nums[j] for j in range(m)] for nums, _ in
               (v_clear(dict(enumerate(row))) for row in rows)]
    assert rank(cleared) == fraction_rank(rows)


SYM = SymbolicField()
SMALL_COEFFS = st.sampled_from([SYM.zero, SYM.one, SYM.num(-2), SYM.e1, SYM.e2,
                                SYM.lf((1, -1)), SYM.one / SYM.e1, SYM.e2 / SYM.lf((1, 1)),
                                SYM.e1 * SYM.e2 / SYM.lf((1, -1)) ** 2])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bareiss_rank_over_q_e1_e2(data):
    # rank runs on the BiPoly numerators of cleared rows, so its // is
    # exact polynomial division: a row times a product of forms, and a
    # row plus a polynomial multiple of another, make rank drops.  Its
    # pivots (minors such as 1 - e1^2) need not split, so the oracle runs
    # field division on the gcd oracle's Coeff.
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(SMALL_COEFFS, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    c = data.draw(SMALL_COEFFS)
    rows.append([c * v for v in rows[0]])
    if n > 1:
        c = data.draw(st.sampled_from([SYM.one, SYM.e1, SYM.lf((2, -3)) * SYM.e2]))
        rows.append([x + c * y for x, y in zip(rows[0], rows[1])])
    cleared = [[nums.get(j, 0) for j in range(m)] for nums, _ in
               (SYM.clear({j: v for j, v in enumerate(row) if v}) for row in rows)]
    assert all(type(v) in (BiPoly, int) for row in cleared for v in row)
    assert rank(cleared) == fraction_rank([[oracles.Coeff(v.num, v.den) for v in row]
                                           for row in rows])


def test_bareiss_rank_examples():
    e1, e2 = BiPoly.lin(1, 0), BiPoly.lin(0, 1)
    assert rank([[e1, e2], [e1 * e1, e1 * e2]]) == 1
    assert rank([[e1, e2], [e2, e1]]) == 2
    # the second pivot 1 - e1^2 does not split into forms
    rows = [[1, e1, e2], [e1, 1, e1], [e2, e1, 1]]
    assert rank(rows) == 3
    assert rank(rows + [[x + y for x, y in zip(rows[0], rows[1])]]) == 3
    assert rank(rows[:2] + [[x - e2 * y for x, y in zip(rows[0], rows[1])]]) == 2
    # a rank drop through a product of forms, pivots of higher degree
    f = (e1 - e2) * (2 * e1 + e2)
    assert rank([[e1, e2 * e2, f], [f * e1, f * e2 * e2, f * f], [e2, e1, 0]]) == 2
    assert rank([[0, 0, 1], [0, 0, 2], [1, 1, 0]]) == 2
    assert rank([[2, 4], [3, 6], [0, 0]]) == 1
    assert rank([]) == 0 and rank([[], []]) == 0


# ---------------------------------------------------------------------------
# packed BiPoly arithmetic against the term-dict oracle
# ---------------------------------------------------------------------------

# coefficients small, at and across 2^(K-1) for the first slot width K, and
# far past it, so that sums and products must widen their slots
HALF = 1 << (_W0 - 1)
PACK_COEFS = st.one_of(st.integers(-6, 6), st.integers(HALF - 3, HALF + 3),
                       st.integers(-HALF - 3, -HALF + 3), st.integers(-2**130, 2**130))
# term dicts of degree <= 6: any terms, or the terms of one homogeneous part
POLY_TERMS = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda k: sum(k) <= 6),
                    PACK_COEFS, max_size=6),
    st.integers(0, 6).flatmap(lambda d: st.dictionaries(
        st.integers(0, d).map(lambda i: (i, d - i)), PACK_COEFS, max_size=5)))
PRIME_FORMS = FORMS.map(lambda f: oracles._prime_form(*f)[1])


def _nonzero(t):
    return {k: v for k, v in t.items() if v}


@settings(max_examples=150, deadline=None)
@given(POLY_TERMS, POLY_TERMS, st.integers(0, 3))
def test_packed_ring_ops_match_term_dicts(a, b, k):
    x, y = BiPoly(a), BiPoly(b)
    a, b = _nonzero(a), _nonzero(b)
    assert x.t == a and y.t == b
    assert (x + y).t == oracles._t_add(a, b)
    assert (x - y).t == oracles._t_add(a, {key: -v for key, v in b.items()})
    assert (x * y).t == (oracles._t_mul(a, b) if a and b else {})
    power = oracles._ONE_T
    for _ in range(k):
        power = oracles._t_mul(power, a)
    assert (x ** k).t == _nonzero(power)


@settings(max_examples=150, deadline=None)
@given(POLY_TERMS, POLY_TERMS.filter(_nonzero), POLY_TERMS)
def test_exact_division_matches_term_dicts(a, b, c):
    # x y // y is x, and x // y raises exactly when the oracle finds no
    # quotient
    x, y = BiPoly(a), BiPoly(b)
    assert (x * y) // y == x
    q = oracles._exact_quotient(_nonzero(c), _nonzero(b)) if _nonzero(c) else {}
    if q is None:
        with pytest.raises(ArithmeticError):
            BiPoly(c) // y
    else:
        assert (BiPoly(c) // y).t == q


@settings(max_examples=150, deadline=None)
@given(POLY_TERMS.filter(_nonzero), PRIME_FORMS, st.integers(0, 2))
def test_division_by_a_form_matches_term_dicts(a, f, m):
    # a times f^m, divided by f as often as it divides
    t = oracles._times_forms(_nonzero(a), {f: m})
    x = BiPoly(t)
    while True:
        q = _over_form(x, f)
        assert (q.t if q is not None else None) == oracles._over_form(t, f)
        if q is None:
            break
        x, t = q, q.t


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-12, 12), PACK_COEFS).filter(bool),
       st.lists(PRIME_FORMS, max_size=4), POLY_TERMS.filter(_nonzero))
def test_factor_matches_term_dicts(k, forms, rest):
    # an integer times forms times any polynomial splits as in the oracle
    t = oracles._scaled(oracles._times_forms(_nonzero(rest), dict.fromkeys(forms, 1)), k)
    ok, oforms, orest = oracles._factor(t)
    pk, pforms, prest = _factor(BiPoly(t))
    assert (pk, pforms, prest.t) == (ok, oforms, orest)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(ROW_LABELS), POLY_TERMS.filter(_nonzero), min_size=1,
                       max_size=4),
       st.integers(1, 12), st.lists(PRIME_FORMS, max_size=3), st.integers(1, 12),
       st.lists(PRIME_FORMS, max_size=3))
def test_least_row_and_row_codec_match_term_dicts(nums, k, forms, h, common):
    # a row over k [forms] whose numerators share h [common] reduces as in
    # the oracle, and its canonical form survives the cache codec
    nums = {key: oracles._scaled(oracles._times_forms(_nonzero(t), dict.fromkeys(common, 1)), h)
            for key, t in nums.items()}
    den = dict.fromkeys(forms, 0)
    for f in forms + common:
        den[f] = den.get(f, 0) + 1
    onums, ok, oforms = oracles._least_row(nums, k * h, den)
    pnums, d = _least_row({key: BiPoly(t) for key, t in nums.items()}, k * h, den)
    assert {key: v.t for key, v in pnums.items()} == onums
    assert _den_parts(d) == (ok, oforms)
    F = SymbolicField()
    v = json.loads(json.dumps(F.dump_row((pnums, d), ROW_INDEX)))
    assert v[0] == [[ROW_INDEX[key], [[i, j, c] for (i, j), c in sorted(onums[key].items())]]
                    for key in sorted(onums)]
    assert F.load_row(v, ROW_LABELS) == (pnums, d)


@settings(max_examples=100, deadline=None)
@given(POLY_TERMS.filter(_nonzero))
def test_equal_values_at_two_widths_are_equal(t):
    # x at its own width and x carried to a wider one by a sum whose bound
    # needs it: equal, with one hash and one set of terms
    x = BiPoly(t)
    big = BiPoly.const(2 ** 300)
    y = (x + big) - big
    assert y.width > x.width
    assert y == x and x == y and hash(y) == hash(x) and y.t == x.t == _nonzero(t)
    assert y != 0 and y
