"""Exact coefficient arithmetic.

Scalars live in the fraction field Q(e1, e2) of integer polynomials in the
two deformation parameters, or (after specialization at a rational point)
in plain Q.  Rational functions of the auxiliary variable u whose zeros and
poles are integer linear forms a*e1 + b*e2 are kept factored (SpectralFun).

Conventions used everywhere:
  hbar = -e1*e2, ebar = e1 + e2, and a "linear form" is an integer pair
  (a, b) standing for a*e1 + b*e2.
"""

from fractions import Fraction
from math import gcd as _igcd, lcm

from .errors import ZeroDenominator, PoleAtSpecPoint, NotAPole, NotASimplePole, BadSpecPoint
from .fock import v_accum, v_clear, v_combine, v_uncleared


# ---------------------------------------------------------------------------
# univariate integer polynomials (little-endian coefficient lists), used as
# the coefficient ring for the bivariate gcd
# ---------------------------------------------------------------------------

def _u_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _u_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _u_trim(out)


def _u_neg(a):
    return [-c for c in a]


def _u_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _u_trim(out)


def _u_scale(a, k):
    if k == 0:
        return []
    return [c * k for c in a]


def _u_content(a):
    g = 0
    for c in a:
        g = _igcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _u_divexact(a, b):
    """Exact division of integer polynomials (b must divide a)."""
    if not a:
        return []
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        k = c // lb
        q[i - db] = k
        for j in range(db + 1):
            a[i - db + j] -= k * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _u_gcd(a, b):
    """Primitive-PRS gcd of integer polynomials, positive leading coeff."""
    a, b = list(a), list(b)
    if not a:
        b = list(b)
        return b if not b or b[-1] > 0 else _u_neg(b)
    if not b:
        return a if a[-1] > 0 else _u_neg(a)
    ca, cb = _u_content(a), _u_content(b)
    cg = _igcd(ca, cb)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    while True:
        if len(a) < len(b):
            a, b = b, a
        # pseudo-remainder of a by b
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while len(r) - 1 >= db and r:
            lr = r[-1]
            dr = len(r) - 1
            r = _u_add(_u_scale(r, lb), _u_scale([0] * (dr - db) + b, -lr))
            if len(r) - 1 == dr:  # leading term must drop
                r = _u_trim(r[:dr])
        if not r:
            g = b
            break
        cr = _u_content(r)
        a, b = b, [c // cr for c in r]
        if len(b) == 1:
            g = [1]
            break
    g = list(g)
    if g[-1] < 0:
        g = _u_neg(g)
    return _u_scale(g, cg) if cg != 1 else g


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
        out = dict(self.t)
        for k, v in other.t.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return BiPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.t or not other.t:
            return BiPoly()
        out = {}
        for (i, j), a in self.t.items():
            for (k, l), b in other.t.items():
                key = (i + k, j + l)
                w = out.get(key, 0) + a * b
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
        return BiPoly(out)

    def scale(self, n):
        if n == 0:
            return BiPoly()
        return BiPoly({k: v * n for k, v in self.t.items()})

    def is_const(self):
        return not self.t or self.t.keys() == {(0, 0)}

    def is_monomial(self):
        return len(self.t) <= 1

    def const_value(self):
        return self.t.get((0, 0), 0)

    def lead_key(self):
        # canonical term order: total degree, then e1-degree
        return max(self.t, key=lambda k: (k[0] + k[1], k[0]))

    def lead_coeff(self):
        return self.t[self.lead_key()]

    def evaluate(self, e1, e2):
        tot = Fraction(0)
        for (i, j), c in self.t.items():
            tot += c * e1 ** i * e2 ** j
        return tot

    def _rows(self):
        """As a list indexed by e1-degree of little-endian e2-polys."""
        d1 = max(k[0] for k in self.t)
        rows = [[] for _ in range(d1 + 1)]
        for (i, j), c in self.t.items():
            row = rows[i]
            if len(row) <= j:
                row.extend([0] * (j + 1 - len(row)))
            row[j] = c
        return [_u_trim(r) for r in rows]

    @staticmethod
    def _from_rows(rows):
        t = {}
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c:
                    t[(i, j)] = c
        return BiPoly(t)

    def __str__(self):
        return render_poly(self)

    __repr__ = __str__


_BP_ZERO = BiPoly()
_BP_ONE = BiPoly.const(1)


def _bp_gcd(A, B):
    if not A.t:
        return _bp_pos(B)
    if not B.t:
        return _bp_pos(A)
    if A.is_monomial() or B.is_monomial():
        # monomial gcd: min exponents over the other's support
        i1 = min(k[0] for k in A.t)
        j1 = min(k[1] for k in A.t)
        i2 = min(k[0] for k in B.t)
        j2 = min(k[1] for k in B.t)
        c = _igcd(_int_content(A), _int_content(B))
        key = (min(i1, i2), min(j1, j2))
        if A.is_monomial() and B.is_monomial():
            return BiPoly({key: c})
        # gcd(monomial, poly) = common monomial factor
        return BiPoly({key: c})
    ra, rb = A._rows(), B._rows()
    if len(ra) < len(rb):
        ra, rb = rb, ra
    conta = []
    for r in ra:
        conta = _u_gcd(conta, r)
        if conta == [1]:
            break
    contb = []
    for r in rb:
        contb = _u_gcd(contb, r)
        if contb == [1]:
            break
    ppa = [(_u_divexact(r, conta) if r else []) for r in ra]
    ppb = [(_u_divexact(r, contb) if r else []) for r in rb]
    cg = _u_gcd(conta, contb)
    if len(ppb) == 1:
        g = [cg]
    else:
        gg = _uu_gcd(ppa, ppb)
        g = [_u_mul(cg, c) for c in gg]
    return _bp_pos(BiPoly._from_rows(g))


def _uu_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _uu_content(p):
    c = []
    for coef in p:
        c = _u_gcd(c, coef)
        if c == [1]:
            break
    return c


def _uu_primitive(p):
    c = _uu_content(p)
    if c == [1]:
        return p, c
    return [(_u_divexact(q, c) if q else []) for q in p], c


def _uu_gcd(a, b):
    """gcd of polynomials in e1 whose coefficients are int polys in e2.

    Primitive PRS; returns a primitive gcd (content of the inputs is handled
    by the caller).  Result is a coefficient list (e1-ascending) of e2-polys.
    """
    a, b = _uu_trim(list(a)), _uu_trim(list(b))
    a, _ = _uu_primitive(a)
    b, _ = _uu_primitive(b)
    while True:
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            return [[1]]
        # pseudo remainder of a by b
        r = [list(c) for c in a]
        db, lb = len(b) - 1, b[-1]
        while _uu_trim(r) and len(r) - 1 >= db:
            dr, lr = len(r) - 1, r[-1]
            new = [_u_mul(c, lb) for c in r]
            shift = dr - db
            for i, c in enumerate(b):
                new[shift + i] = _u_add(new[shift + i], _u_mul(c, _u_neg(lr)))
            r = _uu_trim(new[:dr + 1])
            if len(r) - 1 == dr:
                raise ArithmeticError("pseudo-remainder failed to reduce")
        r = _uu_trim(r)
        if not r:
            g, _ = _uu_primitive(b)
            return g
        r, _ = _uu_primitive(r)
        a, b = b, r


def _int_content(A):
    g = 0
    for v in A.t.values():
        g = _igcd(g, abs(v))
        if g == 1:
            break
    return g or 1


def _bp_pos(A):
    """Flip sign so the canonical leading coefficient is positive."""
    if A.t and A.lead_coeff() < 0:
        return -A
    return A


def _bp_divexact(A, G):
    """Exact division A / G of bivariate integer polynomials."""
    if not A.t:
        return _BP_ZERO
    if G == _BP_ONE:
        return A
    if G.is_monomial():
        (gi, gj), gc = next(iter(G.t.items()))
        out = {}
        for (i, j), c in A.t.items():
            if i < gi or j < gj or c % gc:
                raise ArithmeticError("inexact division")
            out[(i - gi, j - gj)] = c // gc
        return BiPoly(out)
    rows_a = A._rows()
    rows_g = G._rows()
    dg = len(rows_g) - 1
    lg = rows_g[-1]
    q = [[] for _ in range(len(rows_a) - dg)]
    r = [list(c) for c in rows_a]
    r = _uu_trim(r)
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        qc = _u_divexact(r[-1], lg)
        q[dr - dg] = qc
        for i, c in enumerate(rows_g):
            r[dr - dg + i] = _u_add(r[dr - dg + i], _u_mul(c, _u_neg(qc)))
        r = _uu_trim(r)
    if r:
        raise ArithmeticError("inexact division")
    return BiPoly._from_rows(q)


# ---------------------------------------------------------------------------
# Coeff: reduced fractions of BiPoly
# ---------------------------------------------------------------------------

class Coeff:
    """Element of Q(e1,e2), kept as a reduced fraction num/den with the
    denominator's canonical leading coefficient positive."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = _BP_ONE
        if _normalized:
            self.num, self.den = num, den
            return
        if not den.t:
            raise ZeroDenominator("zero denominator")
        if not num.t:
            self.num, self.den = _BP_ZERO, _BP_ONE
            return
        g = _bp_gcd(num, den)
        if g != _BP_ONE:
            num = _bp_divexact(num, g)
            den = _bp_divexact(den, g)
        if den.lead_coeff() < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    # -- constructors
    @staticmethod
    def from_int(n):
        return Coeff(BiPoly.const(n), _BP_ONE, _normalized=True)

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        return Coeff(BiPoly.const(q.numerator), BiPoly.const(q.denominator))

    @staticmethod
    def lf(a, b):
        return Coeff(BiPoly.lin(a, b), _BP_ONE, _normalized=True)

    # -- predicates
    def __bool__(self):
        return bool(self.num.t)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_int(self):
        return self.den == _BP_ONE and self.num.is_const()

    # -- arithmetic
    def __neg__(self):
        return Coeff(-self.num, self.den, _normalized=True)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.t:
            return self
        if not self.num.t:
            return other
        if self.den == other.den:
            return Coeff(self.num + other.num, self.den)
        return Coeff(self.num * other.den + other.num * self.den,
                     self.den * other.den)

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
        if not self.num.t or not other.num.t:
            return _C_ZERO
        # cross-cancel keeps gcd inputs small
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d2 != _BP_ONE:
            g = _bp_gcd(n1, d2)
            if g != _BP_ONE:
                n1, d2 = _bp_divexact(n1, g), _bp_divexact(d2, g)
        if d1 != _BP_ONE:
            g = _bp_gcd(n2, d1)
            if g != _BP_ONE:
                n2, d1 = _bp_divexact(n2, g), _bp_divexact(d1, g)
        num, den = n1 * n2, d1 * d2
        if den.lead_coeff() < 0:
            num, den = -num, -den
        c = Coeff.__new__(Coeff)
        c.num, c.den = num, den
        return c

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.t:
            raise ZeroDenominator("division by zero")
        inv = Coeff.__new__(Coeff)
        if other.num.lead_coeff() < 0:
            inv.num, inv.den = -other.den, -other.num
        else:
            inv.num, inv.den = other.den, other.num
        return self * inv

    def __rtruediv__(self, other):
        return _coerce(other) / self

    # Q(e1,e2) is a field, so exact division is division: a // b is the
    # quotient that integer numerators at a point give, and
    # linalg.rank's fraction-free elimination runs on both.
    __floordiv__ = __truediv__
    __rfloordiv__ = __rtruediv__

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
        dv = self.den.evaluate(e1, e2)
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
    return Coeff(_parse_poly(s), _BP_ONE)


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
# products of row denominators.  lax_ints is (L ebar, L hbar, L), the
# constants lax.lax_apply runs its loop on.  At a point the numerators are
# integers over their least D; over Q(e1,e2) a row is the Coeff vector
# itself, and D and L are always 1.  A row need not be in lowest terms, but
# clear and combine return the canonical one (least D), so two canonical
# rows are equal exactly when their vectors are.


class SymbolicField:
    """Scalars are Coeff values; identities hold as rational functions."""

    symbolic = True
    name = "symbolic"

    def __init__(self):
        self.zero = _C_ZERO
        self.one = _C_ONE
        self._lf_cache = {}
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
        over the product of den_forms (forms may repeat)."""
        val = self.one if pre is None else pre
        for form in num_forms:
            val = val * self.lf(form)
        for form in den_forms:
            val = val / self.lf(form)
        return val

    def num(self, n):
        return Coeff.from_int(n)

    def from_fraction(self, q):
        return Coeff.from_fraction(q)

    def key(self):
        return "symbolic"


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

    def __init__(self, pre, num=None, den=None):
        num, den = _cancel(num or {}, den or {})
        if not pre:
            num, den = {}, {}
        self.pre = pre
        self.num = num
        self.den = den

    @staticmethod
    def one(field):
        return SpectralFun(field.one)

    @staticmethod
    def from_factors(field, num=(), den=()):
        cn, cd = {}, {}
        for r in num:
            cn[r] = cn.get(r, 0) + 1
        for r in den:
            cd[r] = cd.get(r, 0) + 1
        return SpectralFun(field.one, cn, cd)

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

    def value_at_form(self, form, field):
        """Evaluate at u = [form]."""
        try:
            return field.ratio(_forms_at(self.num, form), _forms_at(self.den, form),
                               self.pre)
        except (ZeroDivisionError, ZeroDenominator):
            raise PoleAtSpecPoint("evaluation at a pole") from None

    def value_at(self, u, field):
        """Evaluate at a scalar value of u."""
        val = self.pre
        for r, k in self.num.items():
            val = val * (u - field.lf(r)) ** k
        for r, k in self.den.items():
            v = u - field.lf(r)
            if not v:
                raise PoleAtSpecPoint("evaluation at a pole")
            val = val / v ** k
        return val

    def expand_num(self, field):
        return poly_from_roots(self.num, field, self.pre)

    def expand_den(self, field):
        return poly_from_roots(self.den, field, field.one)

    def partial_fractions(self, field):
        """(polynomial part as little-endian list, {pole: residue}).

        Requires all poles simple.
        """
        res = {}
        for pole, m in self.den.items():
            if m != 1:
                raise NotASimplePole("pole of order %d" % m)
            res[pole] = self.residue(pole, field)
        deg = self.degree()
        if deg < 0:
            return [], res
        numc = self.expand_num(field)
        denc = self.expand_den(field)
        q, r = _poly_divmod(numc, denc, field)
        return q, res

    def equal(self, other, field):
        if self.num == other.num and self.den == other.den and self.pre == other.pre:
            return True
        # cross-multiplied polynomial comparison
        a = poly_from_roots(_merge_roots(self.num, other.den), field, self.pre)
        b = poly_from_roots(_merge_roots(other.num, self.den), field, other.pre)
        return a == b

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

    def pf_str(self, field):
        poly, res = self.partial_fractions(field)
        parts = []
        for i, c in enumerate(poly):
            if c:
                parts.append("(%s)%s" % (render_coeff(c), "" if i == 0 else "*u^%d" % i))
        for pole in sorted(res):
            parts.append("(%s)/(u - [%d,%d])" % (render_coeff(res[pole]), *pole))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return self.factored_str()


def poly_from_roots(roots, field, pre):
    """Little-endian coefficients of pre * prod((u - [r])^m)."""
    coeffs = [pre]
    for r, m in roots.items():
        v = field.lf(r)
        for _ in range(m):
            coeffs = [field.zero] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] = coeffs[i] - v * coeffs[i + 1]
    # note: built by repeated (u - v) multiplication
    return _trim_poly(coeffs)


def _trim_poly(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b, field):
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim_poly(a):
        if len(a) < len(b):
            break
        k = a[-1] / b[-1]
        q[len(a) - len(b)] = k
        for i in range(len(b)):
            a[len(a) - len(b) + i] = a[len(a) - len(b) + i] - k * b[i]
        a.pop()
        _trim_poly(a)
    return _trim_poly(q), _trim_poly(a)
