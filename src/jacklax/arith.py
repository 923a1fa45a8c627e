"""Exact coefficient arithmetic.

Scalars live in the fraction field Q(e1, e2) of integer polynomials in the
two deformation parameters, or (after specialization at a rational point)
in plain Q.  (Rational functions of the auxiliary variable u, kept factored
by their linear-form roots, are spectral.SpectralFun.)

Every denominator the library makes splits into such forms (box contents,
hook norms, hbar = -e1*e2), so a Coeff keeps its denominator factored: a
positive integer times a multiset of prime forms, reduced by trial
division of the numerator, with no polynomial gcd.  Dividing by a Coeff
factors its numerator into forms and raises NotSplit if it is not an
integer times forms.  A numerator (BiPoly) keeps each of its homogeneous
parts as one integer, its coefficients packed in signed slots.

Conventions used everywhere:
  hbar = -e1*e2, ebar = e1 + e2, and a "linear form" is an integer pair
  (a, b) standing for a*e1 + b*e2.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd, lcm

from .errors import BadSpecPoint, NotSplit, PoleAtSpecPoint, ZeroDenominator
from .fock import v_accum, v_clear, v_combine, v_uncleared


# ---------------------------------------------------------------------------
# BiPoly: integer polynomials in e1, e2, one packed integer per graded part
# ---------------------------------------------------------------------------

# With x = e1/e2 the homogeneous part of degree d of a polynomial is
# e2^d x^lo p(x), p an integer polynomial with p(0) != 0, and a BiPoly keeps
# it as the triple (d, lo, p(2^w)): the coefficients of p are the signed
# w-bit slots of one int (Kronecker substitution), slot i holding the
# coefficient of e1^(lo+i) e2^(d-lo-i).  Evaluation at 2^w is a ring map,
# so a sum or a product of parts is one big-int operation, exact whatever
# the slots hold.  Reading the slots back (an unpack, a zero test, a
# division) is right only while every coefficient is below 2^(w-1) in
# absolute value, where the signed slots of an int are unique.  So each
# value carries a bound m >= |coefficient| with m < 2^(w-1): a sum gets
# m1 + m2, a product m1 m2 times the shorter span d - lo + 1.  An operation
# whose bound would reach 2^(w-1) first reads its operands' exact bounds
# from their slots and, if that is not enough, repacks them at a width
# that holds it (w doubles from _W0 and is never cut).  A value has one
# width; values of two widths meet at the wider one.

_W0 = 64
_new = object.__new__


def _width(m):
    """The least slot width _W0 2^j whose signed slots hold |c| <= m."""
    w = _W0
    while m >> (w - 1):
        w <<= 1
    return w


def _digits(n, w):
    """The signed w-bit slots of n, lowest first."""
    out, h = [], 1 << (w - 1)
    mask = (h << 1) - 1
    while n:
        c = ((n + h) & mask) - h
        out.append(c)
        n = (n - c) >> w
    return out


def _pack(t):
    """(parts, width, bound) of the term dict t: each part summed at its
    own slots, then shifted down by its lowest nonzero one (n & -n is n's
    lowest set bit, which lies in that slot).  A homogeneous t that fits
    _W0-bit slots, the common case, is packed in one pass."""
    d, n, m = None, 0, 0
    for (i, j), c in t.items():
        if c:
            if d is None:
                d = i + j
            elif d != i + j:
                d = -1
            n += c << _W0 * i
            if c > m or -c > m:
                m = abs(c)
    if d is None:
        return (), _W0, 0
    if d >= 0 and not m >> (_W0 - 1):
        lo = ((n & -n).bit_length() - 1) // _W0
        return ((d, lo, n >> _W0 * lo),), _W0, m
    w, rows = _width(m), {}
    for (i, j), c in t.items():
        if c:
            rows[i + j] = rows.get(i + j, 0) + (c << w * i)
    parts = []
    for d in sorted(rows, reverse=True):
        n = rows[d]
        lo = ((n & -n).bit_length() - 1) // w
        parts.append((d, lo, n >> w * lo))
    return tuple(parts), w, m


class BiPoly:
    """Integer polynomial in e1, e2 as packed parts (see above): parts
    (d, lo, p(2^w)) by falling degree, at slot width w with bound m.
    BiPoly(terms) packs a term dict {(deg1, deg2): coeff}; t unpacks one.

    It is also the numerator ring of a cleared row over Q(e1,e2): +, -, *
    and ** mix it with ints, and // is exact division (linalg.rank's
    fraction-free elimination), raising ArithmeticError if it is not
    exact.  The value of a BiPoly never changes once made; only its bound
    may be tightened to the exact one (see _fit)."""

    __slots__ = ("parts", "width", "bound")

    def __init__(self, terms=None):
        self.parts, self.width, self.bound = _pack(terms or {})

    @property
    def t(self):
        """The terms {(deg1, deg2): coeff != 0}, unpacked."""
        return {(i, d - i): c for d, lo, n in self.parts
                for i, c in enumerate(_digits(n, self.width), lo) if c}

    @staticmethod
    def const(n):
        return _bp(((0, 0, n),), _width(abs(n)), abs(n)) if n else _BP_ZERO

    @staticmethod
    def lin(a, b):
        return BiPoly({(1, 0): a, (0, 1): b})

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if type(other) is int:
            return self.parts == (((0, 0, other),) if other else ())
        if type(other) is not BiPoly:
            return NotImplemented
        w = max(self.width, other.width)
        return _at(self, w).parts == _at(other, w).parts

    def __hash__(self):
        p = self.parts
        if not p or not p[0][0]:
            return hash(p[0][2] if p else 0)  # a constant hashes as its int
        return hash(tuple((d, lo, tuple(_digits(n, self.width))) for d, lo, n in p))

    def __neg__(self):
        return _bp(tuple([(d, lo, -n) for d, lo, n in self.parts]), self.width, self.bound)

    def __add__(self, other):
        if type(other) is not BiPoly:
            if type(other) is not int:
                return NotImplemented
            if not other:
                return self
            other = BiPoly.const(other)
        w, m = self.width, self.bound + other.bound
        if other.width != w or m >> (w - 1):
            (self, other), m, w = _fit(lambda x, y: x.bound + y.bound, self, other)
        p, q = self.parts, other.parts
        try:
            ((d, lo, n1),), ((d2, l2, n2),) = p, q
        except ValueError:  # a zero or an inhomogeneous term
            if not (p and q):
                return self if p else other
            return _bp(_summed(p + q, w), w, m)
        if d != d2:
            return _bp(_summed(p + q, w), w, m)
        if lo != l2:
            if lo < l2:
                n2 <<= w * (l2 - lo)
            else:
                n1, lo = n1 << w * (lo - l2), l2
        n = n1 + n2
        if not n:
            return _BP_ZERO
        mask = (1 << w) - 1
        while not n & mask:
            n >>= w
            lo += 1
        r = _new(BiPoly)
        r.parts, r.width, r.bound = ((d, lo, n),), w, m
        return r

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not BiPoly and type(other) is not int:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not BiPoly:
            if type(other) is not int:
                return NotImplemented
            return _scaled(self, other) if other else _BP_ZERO
        w = self.width
        try:
            ((d1, l1, n1),), ((d2, l2, n2),) = self.parts, other.parts
        except ValueError:  # a zero or an inhomogeneous factor
            pass
        else:
            m = self.bound * other.bound * (d1 - l1 + 1 if d1 - l1 < d2 - l2 else d2 - l2 + 1)
            if other.width == w and not m >> (w - 1):
                r = _new(BiPoly)
                r.parts, r.width, r.bound = ((d1 + d2, l1 + l2, n1 * n2),), w, m
                return r
        m = _product_bound(self, other)
        if other.width != w or m >> (w - 1):
            (self, other), m, w = _fit(_product_bound, self, other)
        return _bp(_summed([(d1 + d2, l1 + l2, n1 * n2) for d1, l1, n1 in self.parts
                            for d2, l2, n2 in other.parts], w), w, m)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = _BP_ONE
        for _ in range(k):
            out = out * self
        return out

    def __floordiv__(self, other):
        if type(other) is int:
            other = BiPoly.const(other)
        elif type(other) is not BiPoly:
            return NotImplemented
        if not other.parts:
            raise ZeroDivisionError("division by zero")
        q, x = _BP_ZERO, self
        while x.parts:
            # graded long division: the top part of x over the top part of
            # other, times other, comes off x and takes x's top part with it
            part = _part_quotient(x, other)
            if part is None:
                raise ArithmeticError("%s does not divide %s" % (other, self))
            q, x = q + part, x - part * other
        return q

    def __rfloordiv__(self, other):
        if type(other) is not int:
            return NotImplemented
        return BiPoly.const(other) // self

    def evaluate(self, e1, e2):
        tot = Fraction(0)
        for (i, j), c in self.t.items():
            tot += c * e1 ** i * e2 ** j
        return tot

    def __str__(self):
        return render_poly(self)

    __repr__ = __str__


def _bp(parts, w, m):
    """The BiPoly of normal parts (falling degree, each nonzero with a
    nonzero slot 0) packed at width w, with bound m < 2^(w-1)."""
    p = _new(BiPoly)
    p.parts, p.width, p.bound = parts, w, m
    return p


_BP_ZERO = _bp((), _W0, 0)
_BP_ONE = BiPoly.const(1)


def _summed(parts, w):
    """The normal parts of the sum of parts [(d, lo, n), ...] at width w."""
    acc = {}
    for d, lo, n in parts:
        if d in acc:
            l0, n0 = acc[d]
            k = min(lo, l0)
            lo, n = k, (n0 << w * (l0 - k)) + (n << w * (lo - k))
        acc[d] = lo, n
    out, mask = [], (1 << w) - 1
    for d, (lo, n) in sorted(acc.items(), reverse=True):
        if n:
            while not n & mask:
                n >>= w
                lo += 1
            out.append((d, lo, n))
    return tuple(out)


def _at(x, w):
    """x repacked at the width w >= x.width."""
    v = x.width
    if w == v:
        return x
    return _bp(tuple((d, lo, sum(c << w * i for i, c in enumerate(_digits(n, v))))
                     for d, lo, n in x.parts), w, x.bound)


def _product_bound(x, y):
    # a coefficient of x y sums at most min(#terms) products
    return x.bound * y.bound * min(sum(d - lo + 1 for d, lo, _ in x.parts),
                                   sum(d - lo + 1 for d, lo, _ in y.parts))


def _fit(bound, *xs):
    """(xs, m, w): the values xs at one width w that holds m = bound(*xs),
    the carried bounds tried first, then the exact ones read from the
    slots, and w widened past the widest of xs only if m needs it.  An
    exact bound is kept: it tightens the value's bound in place, and the
    value itself does not change."""
    w, m = max(x.width for x in xs), bound(*xs)
    if m >> (w - 1):
        for x in xs:
            x.bound = max((abs(c) for _, _, n in x.parts for c in _digits(n, x.width)),
                          default=0)
        m = bound(*xs)
        w = max(w, _width(m))
    return [_at(x, w) for x in xs], m, w


def _scaled(x, k):
    """x times the nonzero int k."""
    if k == 1:
        return x
    m = x.bound * abs(k)
    if m >> (x.width - 1):
        (x,), m, _ = _fit(lambda y: y.bound * abs(k), x)
    return _bp(tuple([(d, lo, n * k) for d, lo, n in x.parts]), x.width, m)


def _divided(x, k):
    """x over a nonzero int k that divides every coefficient."""
    if k == 1:
        return x
    return _bp(tuple([(d, lo, n // k) for d, lo, n in x.parts]), x.width, x.bound // abs(k))


_FITS = {}


def _fits(q, w, slots, s):
    """Whether the signed w-bit slots of q, `slots` of them at most, all
    lie in [-2^s, 2^s), s < w - 1: adding 2^s to every slot must leave
    each in [0, 2^(s+1)), with no borrow or carry between slots."""
    c = _FITS.get((w, slots, s))
    if c is None:
        r = ((1 << w * slots) - 1) // ((1 << w) - 1)
        c = _FITS[w, slots, s] = (r << s, ~(r * ((2 << s) - 1)))
    q += c[0]
    return q >= 0 and not q & c[1]


def _content(x, g=0):
    """gcd(g, the coefficients of x).  The content of x divides each
    packed part, so h = gcd(g, parts) is a multiple of the answer, and it
    is the answer if each part is h times an int whose slots lie in
    [-2^s, 2^s) with h 2^s < 2^(w-1) (see _fits): then h q(x) packs to the
    part, so it is the part.  Only otherwise are the slots read."""
    for _, _, n in x.parts:
        g = _igcd(g, n)
        if g == 1:
            return 1
    w = x.width
    s = w - 1 - g.bit_length()
    if s > 0 and all(_fits(n // g, w, n.bit_length() // w + 1, s) for _, _, n in x.parts):
        return g
    return _igcd(g, *(c for _, _, n in x.parts for c in _digits(n, w)))


def _ends(x):
    """(number of slots, lowest slot, top slot) of the top part of a
    nonzero x: a top slot t != 0 puts |n| in (2^(wt-1), 2^(wt+w-1)), the
    slots being below 2^(w-1), so n's bit length fixes t."""
    w, n = x.width, x.parts[0][2]
    t, h = n.bit_length() // w, 1 << (w - 1)
    return t + 1, ((n + h) & ((h << 1) - 1)) - h, (n + (1 << w * t - 1)) >> w * t if t else n


# ---------------------------------------------------------------------------
# linear forms acting on BiPolys
# ---------------------------------------------------------------------------

# Every denominator is an integer times primitive linear forms f = (a, b),
# each with its canonical leading coefficient positive: a > 0, or f = (0, 1)
# = e2.  Those forms are primes of Z[e1, e2], so a multiset of them is a
# factorisation, and their product has a positive leading coefficient.

@lru_cache(maxsize=None)
def _prime_form(a, b):
    """(k, f) with a*e1 + b*e2 = k * [f] and f primitive; (a, b) != (0, 0)."""
    g = _igcd(a, b)
    if a < 0 or (not a and b < 0):
        g = -g
    return g, (a // g, b // g)


def _form_product(forms):
    """(k, {prime form: multiplicity}) with the product of the forms k
    times the product of the prime forms; k = 0 if a form is (0, 0)."""
    k, out = 1, {}
    for a, b in forms:
        if not (a or b):
            return 0, {}
        g, f = _prime_form(a, b)
        k *= g
        out[f] = out.get(f, 0) + 1
    return k, out


def _times_forms(x, forms):
    """x * [forms]: e1 and e2 shift each part's d and lo, and the other
    forms multiply each packed part by their product at 2^w, which takes
    the bound m to m times the product s of the (|a| + |b|)^multiplicity."""
    if not forms or not x.parts:
        return x
    up = m1 = 0
    s = 1
    for (a, b), e in forms.items():
        up += e
        if not b:
            m1 += e
        elif a:
            s *= (a + abs(b)) ** e
    if not up:
        return x
    m = x.bound * s
    if m >> (x.width - 1):
        (x,), m, _ = _fit(lambda y: y.bound * s, x)
    w, g = x.width, 1
    if s != 1:
        for (a, b), e in forms.items():
            if a and b:
                g *= ((a << w) + b) ** e
    return _bp(tuple([(d + up, lo + m1, n * g) for d, lo, n in x.parts]), w, m)


def _over_form(x, f):
    """x / [f] if the prime form f = (a, b) divides x, else None.

    [f] divides x exactly when it divides each part e2^d x^lo p(x): e1
    when lo > 0, e2 when p has degree below d - lo, and any other form
    when a x + b divides p, that is when p(2^w) = (a 2^w + b) q for an
    int q whose slots are the quotient's.  A nonzero remainder proves that
    f does not divide.  Else q is accepted if its slots lie in [-2^s, 2^s)
    with (|a| + |b|) 2^s < 2^(w-1): then (a x + b) q(x) has slots below
    2^(w-1) and packs to p(2^w), so it is p.  A true quotient has
    coefficients at most |p|_1 / max(|a|, |b|) (synthetic division from
    the end where the ratio is at most 1), and x is widened first until
    that bound is below 2^s: then the test decides."""
    a, b = f
    w, parts = x.width, x.parts
    if not (a and b):
        out = []
        for d, lo, n in parts:
            if not lo if a else lo + n.bit_length() // w >= d:
                return None
            out.append((d - 1, lo - a, n))
        return _bp(tuple(out), w, x.bound)
    g = (a << w) + b
    try:
        (d, lo, n), = parts
    except ValueError:  # an inhomogeneous x
        out, top = [], 0
        for d, lo, n in parts:
            q, r = divmod(n, g)
            if r:
                return None
            out.append((d - 1, lo, q))
            top = max(top, n.bit_length() // w + 1)
    else:
        q, r = divmod(n, g)
        if r:
            return None
        out, top = ((d - 1, lo, q),), n.bit_length() // w + 1
    ab = -b if b < 0 else b  # a > 0 in a prime form
    big, e = a if a > ab else ab, (a + ab).bit_length()
    m, s = x.bound * top // big, w - 1 - e
    if m >> s:
        (x,), _, _ = _fit(lambda y: y.bound * top // big << e, x)
        return _over_form(x, f)  # at its exact bound, or at a wider width
    for _, _, q in out:
        if not _fits(q, w, top, s):
            return None
    return _bp(tuple(out), w, m)


def _strip(x, forms, cands=None):
    """Divide x by each form of the multiset forms (those in cands, if
    given) as often as it divides, up to the form's multiplicity: the
    quotient and the forms left over."""
    left = forms
    if not x.parts[-1][0]:
        return x, forms  # a nonzero constant term: no form divides x
    for f in forms if cands is None else cands:
        k = 0
        while k < forms[f]:
            q = _over_form(x, f)
            if q is None:
                break
            x, k = q, k + 1
        if k:
            if left is forms:
                left = dict(forms)
            left[f] -= k
            if not left[f]:
                del left[f]
    return x, left


def _merged(f1, f2):
    """The sum of two form multisets."""
    if not f1:
        return f2
    if not f2:
        return f1
    out = dict(f1)
    for f, m in f2.items():
        out[f] = out.get(f, 0) + m
    return out


def _divisors(n):
    n = abs(n)
    return [x for x in range(1, min(n, _SAFE_SPAN) + 1) if not n % x]


def _factor(x):
    """(k, forms, rest) with x = k * [forms] * rest for a nonzero BiPoly
    x: k its content with the sign of its leading coefficient, forms
    {prime form: multiplicity} and rest a primitive BiPoly that no linear
    form divides, 1 when x splits.

    A form divides x only if it divides the top-degree part T of x.  After
    the powers of e1 and e2 come out, T is e2^n x^lo p(e1/e2) with p(0) and
    its leading coefficient nonzero, and each form (a, b) dividing it is a
    rational root -b/a of p: a divides the leading and b the trailing
    coefficient.  Candidates are drawn up to _SAFE_SPAN, past any form a
    partition of size <= 64 makes; a last linear factor needs no search."""
    k = _content(x)
    if _ends(x)[2] < 0:
        k = -k
    w = x.width
    i0 = min(lo for _, lo, _ in x.parts)
    j0 = min(d - lo - n.bit_length() // w for d, lo, n in x.parts)
    forms = {f: m for f, m in (((1, 0), i0), ((0, 1), j0)) if m}
    x = _bp(tuple((d - i0 - j0, lo - i0, n // k) for d, lo, n in x.parts), w, x.bound // abs(k))
    top = _bp(x.parts[:1], w, x.bound)
    for a in _divisors(_ends(top)[2]):
        for b0 in _divisors(_ends(top)[1]):
            for b in (b0, -b0) if _igcd(a, b0) == 1 else ():
                while True:
                    slots, low, lead = _ends(top)
                    q = None if slots < 2 or lead % a or low % b else _over_form(top, (a, b))
                    if q is None:
                        break
                    top, q = q, _over_form(x, (a, b))
                    if q is not None:
                        x, forms[(a, b)] = q, forms.get((a, b), 0) + 1
    slots, low, lead = _ends(top)
    if slots == 2:
        # a last linear factor of T is read off, whatever its size
        f = _prime_form(lead, low)[1]
        q = _over_form(x, f)
        if q is not None:
            x, forms[f] = q, forms.get(f, 0) + 1
    return k, forms, x


def _part_quotient(x, r):
    """The top part of x over the top part of r, as a BiPoly, if it is
    exact, else None.  With p and p' their polynomials in e1/e2, it is
    tried first at the operands' width w: a nonzero remainder of p(2^w)
    by p'(2^w) proves that p' does not divide p (evaluation at 2^w is a
    ring map), and a quotient whose slots lie in [-2^s, 2^s), with
    2^s |p'|_1 <= 2^(w-1), is p / p', as in _over_form.  A quotient that
    does not fit is tried again at a width where the true one must:
    Q = p / p' has |Q|_inf <= 2^deg(Q) |p|_2 (Mignotte, as |lc Q| <=
    |lc p|), so there the test decides."""
    sx, sr = _ends(x)[0], _ends(r)[0]
    big = x.bound * sx << (sx - 1)
    norm = (r.bound * sr).bit_length()
    w = max(x.width, r.width)
    for w in (w, max(w, _width((1 << big.bit_length() + norm) - 1))):
        (dx, lx, nx), (dr, lr, nr) = _at(x, w).parts[0], _at(r, w).parts[0]
        q, rem = divmod(nx, nr)
        d, lo, s = dx - dr, lx - lr, w - 1 - norm
        if rem or lo < 0:
            return None
        if s > 0 and _fits(q, w, sx, s):
            if lo + q.bit_length() // w > d:
                return None
            return _bp(((d, lo, q),), w, min(big, 1 << s))
    return None


# ---------------------------------------------------------------------------
# Coeff: elements of Q(e1, e2) whose denominators split into linear forms
# ---------------------------------------------------------------------------

_NO_FORMS = {}


def _make(num, c, forms):
    x = Coeff.__new__(Coeff)
    x.num, x.c, x.forms, x._den = num, c, forms, None
    return x


def _assemble(a, ca, fa, cb, fb, k, g):
    """The Coeff a * cb * [fb] / (ca * [fa] * k * [g]), [.] the product of
    a form multiset, for a / (ca [fa]) in lowest terms, fb and g disjoint
    and cb prime to k != 0."""
    up, fa = _cancel(fb, fa) if fb and fa else (fb, fa)
    if g:
        a, g = _strip(a, g)
    h = _igcd(ca, cb)
    ca, cb = ca // h, cb // h
    if k < 0:
        k, cb = -k, -cb
    if k != 1:
        h = _content(a, k)
        a, k = _divided(a, h), k // h
    return _make(_times_forms(_scaled(a, cb), up), ca * k, _merged(fa, g))


def _quotient(x, y):
    """The Coeff x / y.  Raises NotSplit unless y's numerator is an integer
    times linear forms."""
    b = y.num
    if not b.parts:
        raise ZeroDenominator("division by zero")
    a = x.num
    if not a.parts:
        return _C_ZERO
    k, g, rest = _factor(b)
    if rest.parts != _BP_ONE.parts:
        raise NotSplit("cannot divide by %s: it is not an integer times linear "
                       "forms a*e1 + b*e2" % render_poly(y.num))
    return _assemble(a, x.c, x.forms, y.c, y.forms, k, g)


class Coeff:
    """Element of Q(e1, e2) in lowest terms: num / (c * prod [f]^m over
    forms {f: m}), c a positive integer and each f a prime linear form.

    No form divides num and c is prime to num's content, so the expanded
    denominator den (leading coefficient positive) is the one of the
    reduced fraction.  Coeff(num, den) takes any den that is an integer
    times linear forms; dividing by a Coeff whose numerator is not such a
    product raises NotSplit."""

    __slots__ = ("num", "c", "forms", "_den")

    def __init__(self, num, den=_BP_ONE):
        q = _quotient(_make(num, 1, _NO_FORMS), _make(den, 1, _NO_FORMS))
        self.num, self.c, self.forms, self._den = q.num, q.c, q.forms, None

    # -- constructors
    @staticmethod
    def from_int(n):
        return _make(BiPoly.const(n), 1, _NO_FORMS)

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        return _make(BiPoly.const(q.numerator), q.denominator, _NO_FORMS)

    @staticmethod
    def lf(a, b):
        return _make(BiPoly.lin(a, b), 1, _NO_FORMS)

    @property
    def den(self):
        """The expanded denominator, a BiPoly."""
        d = self._den
        if d is None:
            d = self._den = _times_forms(BiPoly.const(self.c), self.forms)
        return d

    # -- predicates
    def __bool__(self):
        return bool(self.num.parts)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num == other.num and self.c == other.c
                and self.forms == other.forms)

    def __hash__(self):
        return hash((self.num, self.c, frozenset(self.forms.items())))

    # -- arithmetic
    def __neg__(self):
        return _make(-self.num, self.c, self.forms)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not b.parts:
            return self
        if not a.parts:
            return other
        c1, f1, c2, f2 = self.c, self.forms, other.c, other.forms
        # only a form of equal multiplicity in both denominators, and only
        # a prime of equal valuation in both integers, can cancel
        if f1 == f2:
            forms, cands = f1, None
        else:
            forms = {f: max(f1.get(f, 0), f2.get(f, 0)) for f in f1.keys() | f2.keys()}
            cands = [f for f, m in f1.items() if f2.get(f) == m]
            a = _times_forms(a, {f: m - f1.get(f, 0) for f, m in forms.items()})
            b = _times_forms(b, {f: m - f2.get(f, 0) for f, m in forms.items()})
        g = _igcd(c1, c2)
        t = _scaled(a, c2 // g) + _scaled(b, c1 // g)
        if not t.parts:
            return _C_ZERO
        t, forms = _strip(t, forms, cands)
        h = _content(t, g) if g != 1 else 1
        return _make(_divided(t, h), c1 // g * c2 // h, forms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a.parts or not b.parts:
            return _C_ZERO
        c1, f1, c2, f2 = self.c, self.forms, other.c, other.forms
        # cross-cancel: forms first, then the integers
        if f2:
            a, f2 = _strip(a, f2)
        if f1:
            b, f1 = _strip(b, f1)
        if c2 != 1:
            h = _content(a, c2)
            a, c2 = _divided(a, h), c2 // h
        if c1 != 1:
            h = _content(b, c1)
            b, c1 = _divided(b, h), c1 // h
        return _make(a * b, c1 * c2, _merged(f1, f2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            return Coeff.from_int(1) / self ** (-k)
        out = _C_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def evaluate(self, e1, e2):
        dv = Fraction(self.c)
        for (a, b), m in self.forms.items():
            dv *= (a * e1 + b * e2) ** m
        if dv == 0:
            raise PoleAtSpecPoint("denominator vanishes at specialization point")
        return self.num.evaluate(e1, e2) / dv

    def __str__(self):
        return render_coeff(self)

    __repr__ = __str__


def _coerce(x):
    if isinstance(x, Coeff):
        return x
    if type(x) is BiPoly:
        return _make(x, 1, _NO_FORMS)
    if isinstance(x, int):
        return Coeff.from_int(x)
    if isinstance(x, Fraction):
        return Coeff.from_fraction(x)
    return NotImplemented


_C_ZERO = Coeff.from_int(0)
_C_ONE = Coeff.from_int(1)

# ---------------------------------------------------------------------------
# canonical text form and parsing
# ---------------------------------------------------------------------------

# spellings of a polynomial: the variables, a power and the product
_TEXT = (("e1", "e2"), "%s^%d", "*")
_LATEX = (("e_1", "e_2"), "%s^{%d}", " ")


def _render_poly(p, spelling):
    if not p.parts:
        return "0"
    names, power, times = spelling
    parts = []
    # total degree descending, then e1-degree descending: the parts in
    # their order, each from its top slot
    for i, j, c in [(i, d - i, c) for d, lo, n in p.parts
                    for i, c in reversed(list(enumerate(_digits(n, p.width), lo))) if c]:
        monos = [v if k == 1 else power % (v, k) for v, k in zip(names, (i, j)) if k]
        if not monos:
            body = str(abs(c))
        elif abs(c) == 1:
            body = times.join(monos)
        else:
            body = times.join([str(abs(c))] + monos)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def render_poly(p):
    return _render_poly(p, _TEXT)


def render_coeff(c):
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, int):
        return str(c)
    if c.den == _BP_ONE:
        return render_poly(c.num)
    return render_poly(c.num) + " / " + render_poly(c.den)


def _parse_poly(s):
    s = s.strip()
    if s == "0":
        return _BP_ZERO
    out = {}
    for chunk in s.replace("- ", "+ -").split("+ "):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff, i, j = 1, 0, 0
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("e1"):
                i = int(factor[3:]) if "^" in factor else 1
            elif factor.startswith("e2"):
                j = int(factor[3:]) if "^" in factor else 1
            else:
                coeff = int(factor)
        key = (i, j)
        out[key] = out.get(key, 0) + sign * coeff
    return BiPoly(out)


def parse_coeff(s):
    """Parse the canonical text form back into a Coeff."""
    if " / " in s:
        num, den = s.split(" / ")
        return Coeff(_parse_poly(num), _parse_poly(den))
    return Coeff(_parse_poly(s))


def parse_scalar(s, field):
    if field.symbolic:
        return parse_coeff(s)
    return Fraction(s)


def render_latex(c):
    """A scalar as LaTeX math: e_1, e_2 with braced exponents, and a
    quotient as \\frac{numerator}{denominator}."""
    if isinstance(c, Coeff):
        num, den = _render_poly(c.num, _LATEX), _render_poly(c.den, _LATEX)
    else:
        q = Fraction(c)
        num, den = str(q.numerator), str(q.denominator)
    if den == "1":
        return num
    if num.startswith("-") and not isinstance(c, Coeff):
        return r"-\frac{%s}{%s}" % (num[1:], den)
    return r"\frac{%s}{%s}" % (num, den)


# ---------------------------------------------------------------------------
# specialization points and fields
# ---------------------------------------------------------------------------

# Bound chosen so every linear form that can occur while working with
# partitions of size <= 64 (box-content differences, shifted by up to (2,2))
# is guaranteed nonzero; see validate() below.
_SAFE_SPAN = 68


class SpecPoint:
    """A rational point (e1, e2) at which identities are tested."""

    __slots__ = ("e1", "e2")

    def __init__(self, e1, e2):
        self.e1 = Fraction(e1)
        self.e2 = Fraction(e2)
        self.validate()

    def validate(self):
        if self.e1 == 0 or self.e2 == 0:
            raise BadSpecPoint("e1*e2 must be nonzero")
        if self.e1 + self.e2 == 0:
            raise BadSpecPoint("Schur-degenerate point e1+e2=0 rejected")
        # Same-sign difference vectors (a,b) of boxes inside one partition
        # need (a+1)(b+1) <= size; mixed-sign ones need a+b+1 <= size.  With
        # e1/e2 = -p/q (or p/q) in lowest terms, a*e1 + b*e2 (or a*e1 - b*e2)
        # vanishes exactly at the multiples of (a, b) = (q, p), so the
        # smallest one decides.
        r = self.e1 / self.e2
        p, q = abs(r.numerator), r.denominator
        if r < 0 and (p + 1) * (q + 1) <= _SAFE_SPAN:
            raise BadSpecPoint("collision %d*e1 + %d*e2 = 0" % (q, p))
        if r > 0 and p + q <= _SAFE_SPAN:
            raise BadSpecPoint("collision %d*e1 - %d*e2 = 0" % (q, p))

    def key(self):
        return "e1=%s,e2=%s" % (self.e1, self.e2)

    def __repr__(self):
        return "SpecPoint(%s, %s)" % (self.e1, self.e2)

    def __eq__(self, other):
        return (self.e1, self.e2) == (other.e1, other.e2)

    def __hash__(self):
        return hash((self.e1, self.e2))


DEFAULT_SPEC_POINTS = (
    SpecPoint(-10007, 9973),
    SpecPoint(-7919, 104729),
    SpecPoint(Fraction(-3, 2), Fraction(22, 7)),
)


# Each field has one row format, the cleared row (numerators, D) of a
# vector: clear(vec) makes it, uncleared(row) reads it back, combine(terms)
# is the row of sum c * nums / D over terms [(c, (nums, D))], and
# quotient(num, den) is the scalar num / den for num a numerator or a
# scalar and den a product of row denominators.  lax_ints
# is (L ebar, L hbar, L), ring elements with ebar = L ebar / L and hbar =
# L hbar / L: lax.lax_apply runs its loop on them, and shc.jhat_dagger
# builds its hbar powers from them.  At a point the numerators are
# integers over a positive integer D; over Q(e1,e2) they are integer
# polynomials (BiPoly) over a Den, a positive integer times prime linear
# forms, and L = 1.  So the operators multiply-add numerators in the ring
# and multiply denominators, and a value is reduced only where it leaves
# the library: uncleared and quotient reduce once per coordinate.  A row
# need not be in lowest terms, but clear and combine return the canonical
# one (least D, reduced once per row), so two canonical rows are equal
# exactly when their vectors are.
#
# An orthogonal dual (session.DualIndex, session.PsiHatDual) expands a row
# into pairings, one multiply-add per label, and a scale per label.  Its
# scales are (scales, S) = dual_scales(scalars), made once per dual, and
# dual_row(labels, pairings, scales, D S) is the row of the coefficients
# {labels[i]: pairings[i] scale_i / D} over the nonzero pairings, for an
# input row over D.  At a point the scales are the int numerators of the
# scalars over one common S and the row is the products over D S, not in
# lowest terms.  Over Q(e1,e2) each scale is its own reduced scalar (S =
# 1): each pairing is divided by D's forms and its own scale's only, and
# the row is clear of the reduced coefficients, the canonical row, so no
# cofactor common to all the labels of a degree enters it.
#
# Each field also keeps the memos of scalars it computes over and over: lf's
# forms (_lf_cache) and the transition measures tau and tau~ (tau_memo and
# tau_tilde_memo, {(lam, box): scalar}, filled by spectral.tau and
# spectral.tau_tilde).  A value depends on the field's point, so the memos
# live and die with the field and two fields never share an entry; no
# module keeps a cache keyed by a field.  An entry is only ever written
# with the one value it has, so concurrent callers need no lock.
#
# Each field also owns the disk cache's row codec: dump_row(row, index) is
# the cleared row in the field's own row form as plain JSON numbers, each
# key written as its index, in sorted key and term order, and
# load_row(v, labels) reads it back, key i as labels[i], raising ValueError
# unless v is exactly what dump_row writes: ints of type int (no bools or
# floats), every index in range and distinct, and the row canonical (no
# integer > 1 and no form of D dividing every numerator), so a loaded row
# is trusted without being reduced again.  The check is once per row, not
# once per coordinate.


def _bad_row(v):
    return ValueError("not a canonical cache row: %r" % (v,))


def _key_of(i, labels, nums):
    """labels[i] for an index i of a row being loaded into nums; raises
    unless i is an int in range that nums does not hold yet."""
    if type(i) is not int or not 0 <= i < len(labels) or labels[i] in nums:
        raise ValueError("bad row index %r" % (i,))
    return labels[i]


class Den:
    """The denominator of a cleared row over Q(e1,e2): a positive integer
    c times the product of the prime forms {f: multiplicity} of forms,
    never empty (a denominator without forms is the int c itself).  Rows
    only multiply their denominators, so that is all a Den does."""

    __slots__ = ("c", "forms")

    def __mul__(self, other):
        if type(other) is int:
            return self if other == 1 else _den(self.c * other, self.forms)
        if type(other) is not Den:
            return NotImplemented
        return _den(self.c * other.c, _merged(self.forms, other.forms))

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not Den:
            return NotImplemented
        return self.c == other.c and self.forms == other.forms

    def __hash__(self):
        return hash((self.c, frozenset(self.forms.items())))

    def __repr__(self):
        return render_poly(_times_forms(BiPoly.const(self.c), self.forms))


def _den(c, forms):
    """The row denominator c * [forms]: c itself if there are no forms."""
    if not forms:
        return c
    d = Den.__new__(Den)
    d.c, d.forms = c, forms
    return d


def _den_parts(d):
    """(c, forms) of a row denominator (a Den or a positive int)."""
    return (d, _NO_FORMS) if type(d) is int else (d.c, d.forms)


def _parts(x):
    """(numerator, c, forms) with x = num / (c [forms]) for a scalar x
    (Coeff, int or Fraction) or a row numerator (BiPoly)."""
    tp = type(x)
    if tp is BiPoly:
        return x, 1, _NO_FORMS
    if tp is Coeff:
        return x.num, x.c, x.forms
    if tp is int:
        return BiPoly.const(x), 1, _NO_FORMS
    if tp is Fraction:
        return BiPoly.const(x.numerator), x.denominator, _NO_FORMS
    raise TypeError("not a scalar of Q(e1,e2): %r" % (x,))


def _lift(t, k, forms, have):
    """t * k * [forms - have], for have a sub-multiset of forms: with
    k = K / c, the numerator over K [forms] of t / (c [have])."""
    t = _scaled(t, k)
    if have == forms:
        return t
    return _times_forms(t, {f: m - have.get(f, 0) for f, m in forms.items()})


def _least_row(nums, k, forms):
    """The canonical row of the vector nums / (k [forms]), nums a dict of
    nonzero BiPoly: the integer and the forms that divide every numerator
    come out, once per row."""
    if not nums:
        return {}, 1
    if k != 1:
        g = k
        for v in nums.values():
            g = _content(v, g)
            if g == 1:
                break
        if g != 1:
            nums = {key: _divided(v, g) for key, v in nums.items()}
            k //= g
    left = dict(forms)
    for f, m in forms.items():
        for _ in range(m):
            qs = {}
            for key, v in nums.items():
                q = _over_form(v, f)
                if q is None:
                    break
                qs[key] = q
            if len(qs) < len(nums):
                break
            nums, left[f] = qs, left[f] - 1
    return nums, _den(k, {f: m for f, m in left.items() if m})


class SymbolicField:
    """Scalars are Coeff values; identities hold as rational functions.
    Row numerators are BiPoly values over a Den (or a positive int)."""

    symbolic = True

    def __init__(self):
        self.zero = _C_ZERO
        self.one = _C_ONE
        self._lf_cache = {}
        self.tau_memo, self.tau_tilde_memo = {}, {}
        self.e1 = Coeff.lf(1, 0)
        self.e2 = Coeff.lf(0, 1)
        self.hbar = -self.e1 * self.e2
        self.ebar = self.e1 + self.e2
        self.alpha = -self.e2 / self.e1
        self.lax_ints = (self.ebar.num, self.hbar.num, 1)

    def clear(self, vec):
        """The row of vec over the lcm of its entries' denominators, which
        is the least D since each entry is in lowest terms (a polynomial
        vector, as a Jack, keeps its numerators over 1)."""
        nums = {}
        for key, x in vec.items():
            if type(x) is not Coeff or x.c != 1 or x.forms:
                break
            nums[key] = x.num
        else:
            return nums, 1
        parts = [(key,) + _parts(x) for key, x in vec.items()]
        k, forms = 1, {}
        for _, _, c, fs in parts:
            if c != 1:
                k = lcm(k, c)
            for f, m in fs.items():
                if forms.get(f, 0) < m:
                    forms[f] = m
        return ({key: _lift(t, k // c, forms, fs) for key, t, c, fs in parts},
                _den(k, forms))

    def uncleared(self, row):
        nums, d = row
        return {key: self.quotient(v, d) for key, v in nums.items()}

    def combine(self, terms):
        """The canonical row of sum c * nums / D: each term lifted to the
        lcm of the c-denominators times D by one ring multiplier, the
        numerators summed by v_accum, then reduced once."""
        parts, k, forms = [], 1, {}
        for c, (nums, d) in terms:
            t, cc, cf = _parts(c)
            if not t or not nums:
                continue
            dk, df = _den_parts(d)
            cc *= dk
            cf = _merged(cf, df)
            if cc != 1:
                k = lcm(k, cc)
            for f, m in cf.items():
                if forms.get(f, 0) < m:
                    forms[f] = m
            parts.append((t, cc, cf, nums))
        out = {}
        for t, cc, cf, nums in parts:
            mult = _lift(t, k // cc, forms, cf)
            v_accum(out, nums, None if mult.parts == _BP_ONE.parts else mult)
        return _least_row(out, k, forms)

    def quotient(self, num, den):
        """num / den in lowest terms, for num a row numerator or a scalar
        and den a row denominator: reduced by trial division by den's forms
        and one integer gcd."""
        t, c, f = _parts(num)
        if not t.parts:
            return _C_ZERO
        if type(den) is int:
            if den == 1:
                return _make(t, c, f)
            k, g = den, _NO_FORMS
        else:
            k, g = den.c, den.forms
        return _assemble(t, c, f, 1, _NO_FORMS, k, g)

    @staticmethod
    def dual_scales(scalars):
        """The reduced scalars themselves, over S = 1 (see dual_row)."""
        return list(scalars), 1

    def dual_row(self, labels, pairings, scales, den):
        """The canonical row of {labels[i]: pairings[i] scales[i] / den}
        over the nonzero pairings: each pairing reduced by den's forms,
        then by its scale's in the product, and the row cleared once."""
        q = self.quotient
        return self.clear({labels[i]: s * q(a, den)
                           for i, (a, s) in enumerate(zip(pairings, scales)) if a})

    def lf(self, form):
        c = self._lf_cache.get(form)
        if c is None:
            c = Coeff.lf(form[0], form[1])
            self._lf_cache[form] = c
        return c

    def ratio(self, num_forms, den_forms, pre=None):
        """pre (default 1) times the product of the linear forms num_forms
        over the product of den_forms (forms may repeat), assembled from
        the prime forms of the two lists: no division per form."""
        (kn, up), (kd, down) = _form_product(num_forms), _form_product(den_forms)
        if not kd:
            raise ZeroDenominator("division by zero")
        pre = self.one if pre is None else pre
        if not kn or not pre:
            return self.zero
        if up and down:
            up, down = _cancel(up, down)
        h = _igcd(kn, kd)
        return _assemble(pre.num, pre.c, pre.forms, kn // h, up, kd // h, down)

    def num(self, n):
        return Coeff.from_int(n)

    def key(self):
        return "symbolic"

    def dump_row(self, row, index):
        """[[[index[key], [[i, j, coeff], ...]], ...], c, [[a, b, m], ...]]:
        each numerator as its terms, then the integer and the prime forms
        of D."""
        nums, d = row
        c, forms = _den_parts(d)
        return [[[index[key], [[i, j, v] for (i, j), v in sorted(p.t.items())]]
                 for key, p in sorted(nums.items())],
                c, [[a, b, m] for (a, b), m in sorted(forms.items())]]

    def load_row(self, v, labels):
        """The row of dump_row's form v; raises ValueError unless each
        numerator is distinct nonzero terms with exponents >= 0, c > 0, the
        forms are distinct prime forms (leading coefficient positive), and
        the row is canonical: _least_row, the reduction combine ends in,
        gives its denominator back unchanged."""
        entries, c, forms = v
        if not (type(c) is int and c >= 1):
            raise _bad_row(v)
        nums = {}
        for i, terms in entries:
            key = _key_of(i, labels, nums)
            t = {}
            for a, b, x in terms:
                if (not (type(a) is int and type(b) is int and type(x) is int
                         and a >= 0 and b >= 0 and x) or (a, b) in t):
                    raise _bad_row(v)
                t[(a, b)] = x
            if not t:
                raise _bad_row(v)
            nums[key] = _bp(*_pack(t))
        fs = {}
        for a, b, m in forms:
            if (not (type(a) is int and type(b) is int and type(m) is int
                     and m >= 1 and (a or b)) or (a, b) in fs
                    or _prime_form(a, b) != (1, (a, b))):
                raise _bad_row(v)
            fs[(a, b)] = m
        d = _den(c, fs)
        if _least_row(nums, c, fs)[1] != d:
            raise _bad_row(v)
        return nums, d


class SpecializedField:
    """Scalars are Fractions obtained by evaluating at a SpecPoint."""

    symbolic = False
    clear = staticmethod(v_clear)
    uncleared = staticmethod(v_uncleared)
    combine = staticmethod(v_combine)
    quotient = Fraction

    def __init__(self, point):
        self.point = point
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self._lf_cache = {}
        self.tau_memo, self.tau_tilde_memo = {}, {}
        self.e1 = point.e1
        self.e2 = point.e2
        self.hbar = -self.e1 * self.e2
        self.ebar = self.e1 + self.e2
        self.alpha = -self.e2 / self.e1
        # (L ebar, L hbar, L) with L the lcm of the denominators of ebar
        # and hbar: the integer constants lax.lax_apply runs on
        lax_den = lcm(self.ebar.denominator, self.hbar.denominator)
        self.lax_ints = (int(self.ebar * lax_den), int(self.hbar * lax_den), lax_den)
        # (C e1, C e2, C) with C the lcm of the denominators of e1 and e2:
        # [a,b] is the integer a C e1 + b C e2 over C
        c = lcm(self.e1.denominator, self.e2.denominator)
        self.form_ints = (int(self.e1 * c), int(self.e2 * c), c)

    @staticmethod
    def dual_scales(scalars):
        """(the int numerators of the scalars, their common S)."""
        nums, s = v_clear(dict(enumerate(scalars)))
        return list(nums.values()), s

    @staticmethod
    def dual_row(labels, pairings, scales, den):
        """The row {labels[i]: pairings[i] scales[i]} over the nonzero
        pairings, over den (an input D times S): not in lowest terms."""
        return {labels[i]: a * s for i, (a, s) in enumerate(zip(pairings, scales)) if a}, den

    def lf(self, form):
        c = self._lf_cache.get(form)
        if c is None:
            c = form[0] * self.e1 + form[1] * self.e2
            self._lf_cache[form] = c
        return c

    def ratio(self, num_forms, den_forms, pre=None):
        """As SymbolicField.ratio, built as one Fraction: the integer
        numerators of the forms over form_ints, multiplied out, with
        C^(#den - #num) to make up the denominators."""
        a1, a2, c = self.form_ints
        num = den = 1
        k = 0
        for a, b in num_forms:
            num *= a * a1 + b * a2
            k -= 1
        for a, b in den_forms:
            den *= a * a1 + b * a2
            k += 1
        if k > 0:
            num *= c ** k
        elif k:
            den *= c ** -k
        if pre is not None:
            num *= pre.numerator
            den *= pre.denominator
        return Fraction(num, den)

    def num(self, n):
        return Fraction(n)

    def key(self):
        return self.point.key()

    def dump_row(self, row, index):
        """[[[index[key], numerator], ...], D]."""
        nums, d = row
        return [[[index[key], v] for key, v in sorted(nums.items())], d]

    def load_row(self, v, labels):
        """The row of dump_row's form v; raises ValueError unless the
        numerators are nonzero and D is positive and prime to them."""
        entries, d = v
        if not (type(d) is int and d >= 1):
            raise _bad_row(v)
        nums, g = {}, d
        for i, x in entries:
            key = _key_of(i, labels, nums)
            if not (type(x) is int and x):
                raise _bad_row(v)
            nums[key] = x
            if g != 1:
                g = _igcd(g, x)
        if g != 1:
            raise _bad_row(v)
        return nums, d


def _cancel(num, den):
    """The form multisets num and den with their common forms taken out."""
    num, den = dict(num), dict(den)
    for f in num.keys() & den.keys():
        m = min(num[f], den[f])
        num[f] -= m
        den[f] -= m
        if not num[f]:
            del num[f]
        if not den[f]:
            del den[f]
    return num, den
