"""Exact coefficient arithmetic.

Scalars live in the fraction field Q(e1, e2) of integer polynomials in the
two deformation parameters, or (after specialization at a rational point)
in plain Q.  Rational functions of the auxiliary variable u whose zeros and
poles are integer linear forms a*e1 + b*e2 are kept factored (SpectralFun).

Every denominator the library makes splits into such forms (box contents,
hook norms, hbar = -e1*e2), so a Coeff keeps its denominator factored: a
positive integer times a multiset of prime forms, reduced by trial
division of the numerator, with no polynomial gcd.  Dividing by a Coeff
factors its numerator into forms and raises NotSplit if it is not an
integer times forms.

Conventions used everywhere:
  hbar = -e1*e2, ebar = e1 + e2, and a "linear form" is an integer pair
  (a, b) standing for a*e1 + b*e2.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd, lcm

from .errors import (BadSpecPoint, NotAPole, NotASimplePole, NotSplit, PoleAtSpecPoint,
                     ZeroDenominator)
from .fock import v_accum, v_clear, v_combine, v_uncleared


# ---------------------------------------------------------------------------
# BiPoly: sparse integer polynomials in e1, e2
# ---------------------------------------------------------------------------

class BiPoly:
    """Integer polynomial in e1, e2; terms is {(deg1, deg2): coeff != 0}."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        self.t = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def const(n):
        return BiPoly({(0, 0): n} if n else {})

    @staticmethod
    def lin(a, b):
        t = {}
        if a:
            t[(1, 0)] = a
        if b:
            t[(0, 1)] = b
        return BiPoly(t)

    def __bool__(self):
        return bool(self.t)

    def __eq__(self, other):
        return self.t == other.t

    def __hash__(self):
        return hash(frozenset(self.t.items()))

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.t.items()})

    def __add__(self, other):
        return _bp(_t_add(self.t, other.t))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _bp(_t_mul(self.t, other.t))

    def evaluate(self, e1, e2):
        tot = Fraction(0)
        for (i, j), c in self.t.items():
            tot += c * e1 ** i * e2 ** j
        return tot

    def __str__(self):
        return render_poly(self)

    __repr__ = __str__


_BP_ZERO = BiPoly()
_BP_ONE = BiPoly.const(1)


def _bp(t):
    """A BiPoly on the term dict t, which has no zero coefficients."""
    p = BiPoly.__new__(BiPoly)
    p.t = t
    return p


# ---------------------------------------------------------------------------
# linear forms acting on term dicts
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


def _times_form(t, f):
    """The terms of t * [f]."""
    a, b = f
    out = {(i + 1, j): a * c for (i, j), c in t.items()} if a else {}
    if b:
        for (i, j), c in t.items():
            k = (i, j + 1)
            w = out.get(k, 0) + b * c
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _times_forms(t, forms):
    for f, m in forms.items():
        for _ in range(m):
            t = _times_form(t, f)
    return t


def _over_form(t, f):
    """The terms of t / [f] if the prime form f divides t, else None.

    [f] divides t exactly when it divides each homogeneous part, i.e. when
    each part vanishes at (e1, e2) = (-b, a).  With x = e1/e2 a part of
    degree d is e2^d p(x), and p(x) / (a x + b) is one synthetic division
    from the top, exact over Z (Gauss) or not at all."""
    a, b = f
    if not b:                   # e1
        if any(not i for i, _ in t):
            return None
        return {(i - 1, j): c for (i, j), c in t.items()}
    if not a:                   # e2
        if any(not j for _, j in t):
            return None
        return {(i, j - 1): c for (i, j), c in t.items()}
    parts = {}
    for (i, j), c in t.items():
        parts.setdefault(i + j, {})[i] = c
    out = {}
    for d, part in parts.items():
        q = _root_quotient([part.get(i, 0) for i in range(max(part) + 1)], a, b)
        if q is None:
            return None
        out.update(((i, d - 1 - i), c) for i, c in enumerate(q) if c)
    return out


def _strip(t, forms, cands=None):
    """Divide t by each form of the multiset forms (those in cands, if
    given) as often as it divides, up to the form's multiplicity: the
    quotient and the forms left over."""
    left = forms
    for f in forms if cands is None else cands:
        m = forms[f]
        k = 0
        while k < m:
            q = _over_form(t, f)
            if q is None:
                break
            t = q
            k += 1
        if k:
            if left is forms:
                left = dict(forms)
            if k == m:
                del left[f]
            else:
                left[f] = m - k
    return t, left


def _content(t):
    g = 0
    for v in t.values():
        g = _igcd(g, v)
        if g == 1:
            break
    return g


def _scaled(t, k):
    return t if k == 1 else {key: v * k for key, v in t.items()}


def _divided(t, k):
    return t if k == 1 else {key: v // k for key, v in t.items()}


def _t_add(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def _t_mul(a, b):
    if len(b) > len(a):
        a, b = b, a
    if len(b) == 1:
        ((p, q), v), = b.items()
        if not p and not q:
            return _scaled(a, v)
        return {(i + p, j + q): c * v for (i, j), c in a.items()}
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            w = out.get(key, 0) + x * y
            if w:
                out[key] = w
            else:
                del out[key]
    return out


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


_ONE_T = {(0, 0): 1}


def _factor(t):
    """(k, forms, rest) with t = k * [forms] * rest for a nonzero term dict
    t: k its content with the sign of its leading coefficient, forms {prime
    form: multiplicity} and rest a primitive term dict that no linear form
    divides, _ONE_T when t splits.

    A form divides t only if it divides the top-degree part T of t.  After
    T's powers of e1 and e2 come out, T is e2^n p(e1/e2) with p(0) and its
    leading coefficient nonzero, and each form (a, b) dividing it is a
    rational root -b/a of p: a divides the leading and b the trailing
    coefficient.  Candidates are drawn up to _SAFE_SPAN, past any form a
    partition of size <= 64 makes; a last linear factor needs no search."""
    k = _content(t)
    if t[max(t, key=_lead_order)] < 0:
        k = -k
    i0, j0 = min(i for i, _ in t), min(j for _, j in t)
    forms = {f: m for f, m in (((1, 0), i0), ((0, 1), j0)) if m}
    t = {(i - i0, j - j0): c // k for (i, j), c in t.items()}
    d = max(i + j for i, j in t)
    top = {i: c for (i, j), c in t.items() if i + j == d}
    p = [top.get(i, 0) for i in range(min(top), max(top) + 1)]
    for a in _divisors(p[-1]):
        for b0 in _divisors(p[0]):
            for b in (b0, -b0):
                while (len(p) > 1 and _igcd(a, b0) == 1 and not p[-1] % a
                       and not p[0] % b):
                    q = _root_quotient(p, a, b)
                    if q is None:
                        break
                    p = q
                    q = _over_form(t, (a, b))
                    if q is not None:
                        t = q
                        forms[(a, b)] = forms.get((a, b), 0) + 1
    if len(p) == 2:
        # a last linear factor of T is read off, whatever its size
        f = _prime_form(p[1], p[0])[1]
        q = _over_form(t, f)
        if q is not None:
            t = q
            forms[f] = forms.get(f, 0) + 1
    return k, forms, t


def _lead_order(key):
    # canonical term order: total degree, then e1-degree
    return (key[0] + key[1], key[0])


def _exact_quotient(a, r):
    """a / r for term dicts if r divides a, else None: division by leading
    terms, exact over Z when it is exact at all."""
    lr = max(r, key=_lead_order)
    q = {}
    while a:
        la = max(a, key=_lead_order)
        m, c = (la[0] - lr[0], la[1] - lr[1]), a[la]
        if min(m) < 0 or c % r[lr]:
            return None
        q[m] = c // r[lr]
        a = _t_add(a, _t_mul(r, {m: -q[m]}))
    return q


def _root_quotient(p, a, b):
    """p(x) / (a x + b) (little-endian integer lists) if exact, else None."""
    q = [0] * (len(p) - 1)
    r = 0
    for i in range(len(p) - 1, 0, -1):
        r = p[i] - b * r
        if r % a:
            return None
        r = q[i - 1] = r // a
    return q if p[0] == b * r else None


# ---------------------------------------------------------------------------
# Coeff: elements of Q(e1, e2) whose denominators split into linear forms
# ---------------------------------------------------------------------------

_NO_FORMS = {}


def _make(t, c, forms):
    x = Coeff.__new__(Coeff)
    x.num, x.c, x.forms, x._den = _bp(t), c, forms, None
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
    h = _igcd(_content(a), k)
    a, k = _divided(a, h), k // h
    return _make(_times_forms(_scaled(a, cb), up), ca * k, _merged(fa, g))


def _quotient(x, y, exact=False):
    """The Coeff x / y.  Raises NotSplit unless y's numerator is an integer
    times linear forms, or, with exact, unless the rest of it divides x's
    numerator."""
    b = y.num.t
    if not b:
        raise ZeroDenominator("division by zero")
    a = x.num.t
    if not a:
        return _C_ZERO
    k, g, rest = _factor(b)
    if rest != _ONE_T:
        a = _exact_quotient(a, rest) if exact else None
        if a is None:
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
        q = _quotient(_make(num.t, 1, _NO_FORMS), _make(den.t, 1, _NO_FORMS))
        self.num, self.c, self.forms, self._den = q.num, q.c, q.forms, None

    # -- constructors
    @staticmethod
    def from_int(n):
        return _make({(0, 0): n} if n else {}, 1, _NO_FORMS)

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        return _make({(0, 0): q.numerator} if q else {}, q.denominator, _NO_FORMS)

    @staticmethod
    def lf(a, b):
        return _make(BiPoly.lin(a, b).t, 1, _NO_FORMS)

    @property
    def den(self):
        """The expanded denominator, a BiPoly."""
        d = self._den
        if d is None:
            d = self._den = _bp(_times_forms({(0, 0): self.c}, self.forms))
        return d

    # -- predicates
    def __bool__(self):
        return bool(self.num.t)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num.t == other.num.t and self.c == other.c
                and self.forms == other.forms)

    def __hash__(self):
        return hash((self.num, self.c, frozenset(self.forms.items())))

    # -- arithmetic
    def __neg__(self):
        return _make({k: -v for k, v in self.num.t.items()}, self.c, self.forms)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num.t, other.num.t
        if not b:
            return self
        if not a:
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
        t = _t_add(_scaled(a, c2 // g), _scaled(b, c1 // g))
        if not t:
            return _C_ZERO
        t, forms = _strip(t, forms, cands)
        h = _igcd(_content(t), g) if g != 1 else 1
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
        a, b = self.num.t, other.num.t
        if not a or not b:
            return _C_ZERO
        c1, f1, c2, f2 = self.c, self.forms, other.c, other.forms
        # cross-cancel: forms first, then the integers
        if f2:
            a, f2 = _strip(a, f2)
        if f1:
            b, f1 = _strip(b, f1)
        if c2 != 1:
            h = _igcd(_content(a), c2)
            a, c2 = _divided(a, h), c2 // h
        if c1 != 1:
            h = _igcd(_content(b), c1)
            b, c1 = _divided(b, h), c1 // h
        return _make(_t_mul(a, b), c1 * c2, _merged(f1, f2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __floordiv__(self, other):
        """Exact division, the quotient that integer numerators at a point
        give, so linalg.rank's fraction-free elimination runs on both.  It
        is a / b, and the divisor's numerator need not split when the part
        that does not divides a's numerator, as in every quotient of that
        elimination (a minor by a minor)."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _quotient(self, other, exact=True)

    def __rfloordiv__(self, other):
        return _coerce(other) // self

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

def _term_sort_key(k):
    # total degree descending, then e1-degree descending
    return (-(k[0] + k[1]), -k[0])


def render_poly(p):
    if not p.t:
        return "0"
    parts = []
    for (i, j) in sorted(p.t, key=_term_sort_key):
        c = p.t[(i, j)]
        monos = []
        if i:
            monos.append("e1" if i == 1 else "e1^%d" % i)
        if j:
            monos.append("e2" if j == 1 else "e2^%d" % j)
        if not monos:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(monos)
        else:
            body = str(abs(c)) + "*" + "*".join(monos)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


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


def render_scalar(c):
    return render_coeff(c)


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

    def __init__(self, e1, e2, check=True):
        self.e1 = Fraction(e1)
        self.e2 = Fraction(e2)
        if check:
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
# quotient(num, den) is the scalar num / den for num and den numerators or
# products of row denominators.  lax_ints is (L ebar, L hbar, L), ring
# elements with ebar = L ebar / L and hbar = L hbar / L: lax.lax_apply runs
# its loop on them, and shc.jhat_dagger builds its hbar powers from them.
# At a point the numerators are integers over their least D; over Q(e1,e2)
# a row is the Coeff vector itself, and D and L are always 1.  A row need
# not be in lowest terms, but clear and combine return the canonical one
# (least D), so two canonical rows are equal exactly when their vectors
# are.
#
# Each field also keeps the memos of scalars it computes over and over: lf's
# forms (_lf_cache) and the transition measures tau and tau~ (tau_memo and
# tau_tilde_memo, {(lam, box): scalar}, filled by spectral.tau and
# spectral.tau_tilde).  A value depends on the field's point, so the memos
# live and die with the field and two fields never share an entry; no
# module keeps a cache keyed by a field.  An entry is only ever written
# with the one value it has, so concurrent callers need no lock.
#
# Each field also owns the disk cache's scalar codec: dump(x) is x in the
# field's own form as plain JSON numbers, and load(v) reads it back, raising
# ValueError unless v is exactly what dump writes: ints of type int (no
# bools or floats) in canonical form, so a loaded scalar is trusted without
# being reduced again.


def _bad_scalar(v):
    return ValueError("not a canonical cache scalar: %r" % (v,))


class SymbolicField:
    """Scalars are Coeff values; identities hold as rational functions."""

    symbolic = True
    name = "symbolic"

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
        self.lax_ints = (self.ebar, self.hbar, 1)

    def clear(self, vec):
        return vec, 1

    def uncleared(self, row):
        return row[0]

    def combine(self, terms):
        out = {}
        for c, (vec, _) in terms:
            v_accum(out, vec, None if c == 1 else c)
        return out, 1

    def quotient(self, num, den):
        return num if den == 1 else num / den

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
        up, down = _cancel(up, down)
        h = _igcd(kn, kd)
        return _assemble(pre.num.t, pre.c, pre.forms, kn // h, up, kd // h, down)

    def num(self, n):
        return Coeff.from_int(n)

    def from_fraction(self, q):
        return Coeff.from_fraction(q)

    def key(self):
        return "symbolic"

    def dump(self, x):
        """[[[i, j, coeff], ...], c, [[a, b, m], ...]]: the terms of x's
        numerator, the integer and the prime forms of its denominator."""
        return [[[i, j, v] for (i, j), v in sorted(x.num.t.items())], x.c,
                [[a, b, m] for (a, b), m in sorted(x.forms.items())]]

    def load(self, v):
        """The Coeff of dump's form v; raises ValueError unless v is in
        lowest terms: distinct nonzero terms, c > 0 prime to the content,
        distinct prime forms (leading coefficient positive), none dividing
        the numerator, and zero only as [[], 1, []]."""
        terms, c, forms = v
        t = {}
        for i, j, a in terms:
            if (not (type(i) is int and type(j) is int and type(a) is int
                     and i >= 0 and j >= 0 and a) or (i, j) in t):
                raise _bad_scalar(v)
            t[(i, j)] = a
        fs = {}
        for a, b, m in forms:
            if (not (type(a) is int and type(b) is int and type(m) is int
                     and m >= 1 and (a or b)) or (a, b) in fs
                    or _prime_form(a, b) != (1, (a, b))):
                raise _bad_scalar(v)
            fs[(a, b)] = m
        if not (type(c) is int and c >= 1):
            raise _bad_scalar(v)
        if not t:
            if c != 1 or fs:
                raise _bad_scalar(v)
            return _C_ZERO
        if _igcd(_content(t), c) != 1 or any(_over_form(t, f) is not None for f in fs):
            raise _bad_scalar(v)
        return _make(t, c, fs)


class SpecializedField:
    """Scalars are Fractions obtained by evaluating at a SpecPoint."""

    symbolic = False
    clear = staticmethod(v_clear)
    uncleared = staticmethod(v_uncleared)
    combine = staticmethod(v_combine)
    quotient = Fraction

    def __init__(self, point):
        self.point = point
        self.name = point.key()
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

    def from_fraction(self, q):
        return Fraction(q)

    def key(self):
        return self.point.key()

    def dump(self, q):
        """[numerator, denominator]."""
        return [q.numerator, q.denominator]

    def load(self, v):
        """The Fraction of dump's form v; raises ValueError unless v is in
        lowest terms with a positive denominator."""
        num, den = v
        if not (type(num) is int and type(den) is int and den >= 1):
            raise _bad_scalar(v)
        q = Fraction(num, den)
        if q.denominator != den:
            raise _bad_scalar(v)
        return q


# ---------------------------------------------------------------------------
# SpectralFun: factored rational functions of u with linear-form roots
# ---------------------------------------------------------------------------

def _merge_roots(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + sign * v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


def _forms_at(roots, form, skip=None):
    """The forms form - r over the roots r but skip, each repeated by its
    multiplicity."""
    return [(form[0] - r[0], form[1] - r[1])
            for r, m in roots.items() if r != skip for _ in range(m)]


def _cancel(num, den):
    num, den = dict(num), dict(den)
    for k in list(num):
        if k in den:
            m = min(num[k], den[k])
            num[k] -= m
            den[k] -= m
            if not num[k]:
                del num[k]
            if not den[k]:
                del den[k]
    return num, den


class SpectralFun:
    """prefactor * prod(u - [r], r in num) / prod(u - [r], r in den).

    Roots are integer linear forms (pairs); common roots cancel on
    construction.  The prefactor is a field scalar.
    """

    __slots__ = ("pre", "num", "den")

    def __init__(self, pre, num=(), den=()):
        num, den = _cancel(num or {}, den or {})
        if not pre:
            num, den = {}, {}
        self.pre = pre
        self.num = num
        self.den = den

    @staticmethod
    def one(field):
        return SpectralFun(field.one)

    def degree(self):
        return sum(self.num.values()) - sum(self.den.values())

    def __mul__(self, other):
        if isinstance(other, SpectralFun):
            return SpectralFun(self.pre * other.pre,
                               _merge_roots(self.num, other.num),
                               _merge_roots(self.den, other.den))
        return SpectralFun(self.pre * other, self.num, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SpectralFun):
            return SpectralFun(self.pre / other.pre,
                               _merge_roots(self.num, other.den),
                               _merge_roots(self.den, other.num))
        return SpectralFun(self.pre / other, self.num, self.den)

    def inverse(self):
        return SpectralFun(1 / self.pre, dict(self.den), dict(self.num))

    def shift(self, form):
        """Substitute u -> u - [form] (all roots shift by the form)."""
        a, b = form
        return SpectralFun(self.pre,
                           {(r[0] + a, r[1] + b): m for r, m in self.num.items()},
                           {(r[0] + a, r[1] + b): m for r, m in self.den.items()})

    def residue(self, pole, field):
        m = self.den.get(pole)
        if m is None:
            raise NotAPole("u = [%d,%d] is not a pole" % pole)
        if m != 1:
            raise NotASimplePole("pole of order %d at [%d,%d]" % (m, *pole))
        return field.ratio(_forms_at(self.num, pole), _forms_at(self.den, pole, pole),
                           self.pre)

    def partial_fractions(self, field):
        """(polynomial part as little-endian list, {pole: residue}).

        Requires all poles simple.  The polynomial part of degree
        k = deg num - deg den >= 0 is read off the expansion at u = oo,
        pre u^k prod(1 - [r]/u) / prod(1 - [p]/u): [pre] at k = 0, and at
        k = 1 pre (u + [sum of poles - sum of roots]), one field.ratio of
        the summed form."""
        res = {}
        for pole, m in self.den.items():
            if m != 1:
                raise NotASimplePole("pole of order %d" % m)
            res[pole] = self.residue(pole, field)
        k = self.degree()
        if k < 0 or not self.pre:
            return [], res
        if k == 0:
            return [self.pre], res
        if k == 1:
            a = sum(p[0] for p in self.den) - sum(r[0] * m for r, m in self.num.items())
            b = sum(p[1] for p in self.den) - sum(r[1] * m for r, m in self.num.items())
            return [field.ratio(((a, b),), (), self.pre), self.pre], res
        # g(x) = prod(1 - [r] x) / prod(1 - [p] x) to x^k; the part is pre g_{k-i} u^i
        g = [field.one] + [field.zero] * k
        for r, m in self.num.items():
            v = field.lf(r)
            for _ in range(m):
                for i in range(k, 0, -1):
                    g[i] = g[i] - v * g[i - 1]
        for p in self.den:
            v = field.lf(p)
            for i in range(1, k + 1):
                g[i] = g[i] + v * g[i - 1]
        return [self.pre * c for c in reversed(g)], res

    def factored_str(self):
        def prod(roots):
            out = []
            for r in sorted(roots):
                f = "(u - [%d,%d])" % r if r != (0, 0) else "u"
                m = roots[r]
                out.append(f + ("^%d" % m if m > 1 else ""))
            return "*".join(out) if out else "1"
        pre = render_coeff(self.pre)
        s = prod(self.num)
        if self.den:
            s += " / " + prod(self.den)
        if pre != "1":
            s = "(%s) * " % pre + s
        return s

    def __repr__(self):
        return self.factored_str()
