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
integer times forms.

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
# BiPoly: sparse integer polynomials in e1, e2
# ---------------------------------------------------------------------------

class BiPoly:
    """Integer polynomial in e1, e2; terms is {(deg1, deg2): coeff != 0}.

    It is also the numerator ring of a cleared row over Q(e1,e2): +, -, *
    and ** mix it with ints, and // is exact division (linalg.rank's
    fraction-free elimination), raising ArithmeticError if it is not
    exact.  A BiPoly is never changed once made."""

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
        if type(other) is int:
            return self.t == ({(0, 0): other} if other else {})
        if type(other) is not BiPoly:
            return NotImplemented
        return self.t == other.t

    def __hash__(self):
        t = self.t
        if t.keys() <= {(0, 0)}:
            return hash(t.get((0, 0), 0))
        return hash(frozenset(t.items()))

    def __neg__(self):
        return _bp({k: -v for k, v in self.t.items()})

    def __add__(self, other):
        if type(other) is BiPoly:
            return _bp(_t_add(self.t, other.t))
        if type(other) is not int:
            return NotImplemented
        return _bp(_t_add(self.t, {(0, 0): other})) if other else self

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not BiPoly and type(other) is not int:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is BiPoly:
            t = other.t
            return _bp(_t_mul(self.t, t)) if t and self.t else _BP_ZERO
        if type(other) is int:
            return _bp(_scaled(self.t, other)) if other else _BP_ZERO
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        out = _ONE_T
        for _ in range(k):
            out = _t_mul(out, self.t)
        return _bp(out)

    def __floordiv__(self, other):
        if type(other) is int:
            other = BiPoly.const(other)
        elif type(other) is not BiPoly:
            return NotImplemented
        if not other.t:
            raise ZeroDivisionError("division by zero")
        if not self.t:
            return self
        q = _exact_quotient(self.t, other.t)
        if q is None:
            raise ArithmeticError("%s does not divide %s" % (other, self))
        return _bp(q)

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


def _times_forms(t, forms):
    """The terms of t * [forms]: the powers of e1 and e2 shift the
    exponents, and each other form is one pass over each graded part (see
    _graded), a part p times a e1 + b e2 having the coefficients
    b p_i + a p_(i-1)."""
    m1, m2 = forms.get((1, 0), 0), forms.get((0, 1), 0)
    if m1 or m2:
        t = {(i + m1, j + m2): c for (i, j), c in t.items()}
    rest = [(f, m) for f, m in forms.items() if f[0] and f[1] and m]
    if not rest:
        return t
    out = {}
    for p in _graded(t).values():
        for (a, b), m in rest:
            for _ in range(m):
                p = [b * x + a * y for x, y in zip(p + [0], [0] + p)]
        out[len(p) - 1] = p
    return _ungraded(out)


def _over_form(t, f):
    """The terms of t / [f] if the prime form f divides t, else None."""
    q = _graded_over_form(_graded(t), f)
    return None if q is None else _ungraded(q)


def _strip(t, forms, cands=None):
    """Divide t by each form of the multiset forms (those in cands, if
    given) as often as it divides, up to the form's multiplicity: the
    quotient and the forms left over."""
    ps, left = None, forms
    for f in forms if cands is None else cands:
        if ps is None:
            ps = _graded(t)
        m = forms[f]
        k = 0
        while k < m:
            q = _graded_over_form(ps, f)
            if q is None:
                break
            ps = q
            k += 1
        if k:
            if left is forms:
                left = dict(forms)
            if k == m:
                del left[f]
            else:
                left[f] = m - k
    return (t if left is forms else _ungraded(ps)), left


# For trial division a term dict is read as its graded parts {d: [c_0, ...,
# c_d]}, the part of degree d being sum c_i e1^i e2^(d-i): division by a
# form is then one synthetic division on each list.

def _graded(t):
    """The graded parts of the term dict t."""
    parts = {}
    for (i, j), c in t.items():
        p = parts.get(i + j)
        if p is None:
            p = parts[i + j] = [0] * (i + j + 1)
        p[i] = c
    return parts


def _ungraded(ps):
    """The term dict of graded parts."""
    t = {}
    for d, p in ps.items():
        t.update(((i, d - i), c) for i, c in enumerate(p) if c)
    return t


def _graded_over_form(ps, f):
    """The graded parts of ps / [f] if the prime form f divides ps, else
    None.

    [f] divides a polynomial exactly when it divides each homogeneous
    part, i.e. when each part vanishes at (e1, e2) = (-b, a).  With x =
    e1/e2 a part of degree d is e2^d p(x): e1 divides it when c_0 = 0, e2
    when c_d = 0, and any other form when p(x) / (a x + b), one synthetic
    division from the top, is exact over Z (Gauss)."""
    a, b = f
    out = {}
    for d, p in ps.items():
        if not b:
            q = None if p[0] else p[1:]
        elif not a:
            q = None if p[-1] else p[:-1]
        else:
            q = _root_quotient(p, a, b)
        if q is None:
            return None
        out[d - 1] = q
    return out


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
    if len(b) > len(a):
        a, b = b, a
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
    """a / r for nonzero term dicts if r divides a, else None, by graded
    long division (see _graded).  The top part of a quotient is the top
    part of a over the top part of r: with x = e1/e2 that is a long
    division of integer lists, exact over Z when it is exact at all
    (Gauss).  That part times the lower parts of r comes off the lower
    parts of a, which are then divided the same way."""
    ps, rs = _graded(a), _graded(r)
    dr = max(rs)
    top = rs.pop(dr)
    er = dr
    while not top[er]:
        er -= 1
    lc = top[er]
    q = {}
    while ps:
        da = max(ps)
        p = ps.pop(da)
        if not any(p):
            continue
        dq = da - dr
        if dq < 0:
            return None
        qd = [0] * (dq + 1)
        for i in range(da, er - 1, -1):
            c = p[i]
            if c:
                if c % lc or i - er > dq:
                    return None
                c = qd[i - er] = c // lc
                for j in range(er + 1):
                    p[i - er + j] -= c * top[j]
        if any(p[:er]):
            return None
        q[dq] = qd
        for d, v in rs.items():
            w = ps.get(dq + d)
            if w is None:
                w = ps[dq + d] = [0] * (dq + d + 1)
            for i, x in enumerate(qd):
                if x:
                    for j, y in enumerate(v):
                        w[i + j] -= x * y
    return _ungraded(q)


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


def _quotient(x, y):
    """The Coeff x / y.  Raises NotSplit unless y's numerator is an integer
    times linear forms."""
    b = y.num.t
    if not b:
        raise ZeroDenominator("division by zero")
    a = x.num.t
    if not a:
        return _C_ZERO
    k, g, rest = _factor(b)
    if rest != _ONE_T:
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
        return _make(x.t, 1, _NO_FORMS)
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


# spellings of a polynomial: the variables, a power and the product
_TEXT = (("e1", "e2"), "%s^%d", "*")
_LATEX = (("e_1", "e_2"), "%s^{%d}", " ")


def _render_poly(p, spelling):
    if not p.t:
        return "0"
    names, power, times = spelling
    parts = []
    for (i, j) in sorted(p.t, key=_term_sort_key):
        c = p.t[(i, j)]
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
        return render_poly(_bp(_times_forms({(0, 0): self.c}, self.forms)))


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
    """(numerator terms, c, forms) with x = num / (c [forms]) for a scalar
    x (Coeff, int or Fraction) or a row numerator (BiPoly)."""
    tp = type(x)
    if tp is BiPoly:
        return x.t, 1, _NO_FORMS
    if tp is Coeff:
        return x.num.t, x.c, x.forms
    if tp is int:
        return ({(0, 0): x} if x else {}), 1, _NO_FORMS
    if tp is Fraction:
        return ({(0, 0): x.numerator} if x else {}), x.denominator, _NO_FORMS
    raise TypeError("not a scalar of Q(e1,e2): %r" % (x,))


def _lift(t, k, forms, have):
    """The terms of t * k * [forms - have], for have a sub-multiset of
    forms: with k = K / c, the numerator over K [forms] of t / (c [have])."""
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
            g = _igcd(g, _content(v.t))
            if g == 1:
                break
        if g != 1:
            nums = {key: _bp(_divided(v.t, g)) for key, v in nums.items()}
            k //= g
    if not forms:
        return nums, k
    graded = {key: _graded(v.t) for key, v in nums.items()}
    left = forms
    for f, m in forms.items():
        for _ in range(m):
            qs = {}
            for key, ps in graded.items():
                q = _graded_over_form(ps, f)
                if q is None:
                    break
                qs[key] = q
            else:
                graded = qs
                if left is forms:
                    left = dict(forms)
                if left[f] == 1:
                    del left[f]
                else:
                    left[f] -= 1
                continue
            break
    if left is not forms:
        nums = {key: _bp(_ungraded(ps)) for key, ps in graded.items()}
    return nums, _den(k, left)


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
        return ({key: _bp(_lift(t, k // c, forms, fs)) for key, t, c, fs in parts},
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
            v_accum(out, nums, None if mult == _ONE_T else _bp(mult))
        return _least_row(out, k, forms)

    def quotient(self, num, den):
        """num / den in lowest terms, for num a row numerator or a scalar
        and den a row denominator: reduced by trial division by den's forms
        and one integer gcd."""
        t, c, f = _parts(num)
        if not t:
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
        up, down = _cancel(up, down)
        h = _igcd(kn, kd)
        return _assemble(pre.num.t, pre.c, pre.forms, kn // h, up, kd // h, down)

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
            nums[key] = _bp(t)
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
