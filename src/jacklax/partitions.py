"""Partition and box combinatorics, the star product, counting series.

A partition is a tuple of weakly decreasing positive ints.  A box is a pair
(i, j): row index i, column index j, both 0-based; box (i, j) belongs to
lam iff j < lam[i].  Its content is the linear form (i, j) ~ i*e1 + j*e2.

Hook conventions (fixed by the worked value h^U of (2,0) in {1^2,2^2,3}
being [2,-2]):
    arm(b)  = lam[i] - j - 1        boxes to the right
    leg(b)  = lam'[j] - i - 1       boxes below
    h^U(b)  = [leg, -(arm+1)]
    h^L(b)  = [leg+1, -arm]
"""

from fractions import Fraction
from functools import cmp_to_key, lru_cache

from .errors import BadPartition, BoxNotInPartition, JackLaxError


# ---------------------------------------------------------------------------
# basic partition operations
# ---------------------------------------------------------------------------

def partition(parts):
    """Canonical form: tuple sorted weakly decreasing, zero parts dropped."""
    p = tuple(sorted((x for x in parts if x), reverse=True))
    if any(x < 0 for x in p):
        raise JackLaxError("negative part")
    return p


def size(lam):
    return sum(lam)


def parse_partition(text):
    """Condensed ("1^2,2") or explicit ("2,1,1") partition notation."""
    text = text.strip()
    if text in ("", "0", "[]", "{}", "empty"):
        return ()
    parts = []
    for item in text.split(","):
        base, _, rep = item.strip().partition("^")
        try:
            part, mult = int(base), int(rep) if rep else 1
        except ValueError:
            raise BadPartition("bad partition %r: expected parts like 1^2,3" % text) from None
        if mult < 0:
            raise BadPartition("bad partition %r: negative multiplicity" % text)
        parts.extend([part] * mult)
    return partition(parts)


def format_partition(lam):
    """Condensed notation, parts ascending: (2,2,1) -> "1,2^2"."""
    if not lam:
        return "0"
    out = []
    for part in sorted(set(lam)):
        mult = lam.count(part)
        out.append(str(part) if mult == 1 else "%d^%d" % (part, mult))
    return ",".join(out)


def boxes(lam):
    return [(i, j) for i, row in enumerate(lam) for j in range(row)]


def boxes_x(lam):
    """All boxes except (0,0) (the set written lambda-cross)."""
    return [b for b in boxes(lam) if b != (0, 0)]


def contains_box(lam, b):
    i, j = b
    return 0 <= i < len(lam) and 0 <= j < lam[i]


# The single-box helpers below are memoised (the spectral factors and the
# eigenbasis labels call them over and over on a few hundred partitions)
# and return tuples, so no caller can change a cached value.

@lru_cache(maxsize=None)
def transpose(lam):
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0]))


@lru_cache(maxsize=None)
def add_set(lam):
    """Boxes that can be added (profile minima), sorted by row."""
    out = []
    for i in range(len(lam) + 1):
        cur = lam[i] if i < len(lam) else 0
        prev = lam[i - 1] if i > 0 else None
        if prev is None or prev > cur:
            out.append((i, cur))
    return tuple(out)


@lru_cache(maxsize=None)
def rem_set(lam):
    """Boxes that can be removed, sorted by row."""
    out = []
    for i, row in enumerate(lam):
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if row > nxt:
            out.append((i, row - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def rem_set_plus(lam):
    """Outer corners: removable boxes shifted by (1,1)."""
    return tuple((i + 1, j + 1) for (i, j) in rem_set(lam))


@lru_cache(maxsize=None)
def add_box(lam, b):
    i, j = b
    if b not in add_set(lam):
        raise JackLaxError("box (%d,%d) not addable to %s" % (i, j, (lam,)))
    rows = list(lam) + [0]
    rows[i] += 1
    return partition(rows)


@lru_cache(maxsize=None)
def remove_box(lam, b):
    i, j = b
    if b not in rem_set(lam):
        raise JackLaxError("box (%d,%d) not removable from %s" % (i, j, (lam,)))
    rows = list(lam)
    rows[i] -= 1
    return partition(rows)


def contains(lam, mu):
    """mu subseteq lam as diagrams."""
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


def diagram_union(mu, nu):
    """Rowwise max (union of the box sets)."""
    n = max(len(mu), len(nu))
    return partition(max(mu[i] if i < len(mu) else 0,
                         nu[i] if i < len(nu) else 0) for i in range(n))


def arm(lam, b):
    i, j = b
    return lam[i] - j - 1


def leg(lam, b):
    i, j = b
    return transpose(lam)[j] - i - 1


def hook(lam, b, kind):
    """Deformed hook length as a linear form; kind is "upper" or "lower"."""
    if not contains_box(lam, b):
        raise BoxNotInPartition("box (%d,%d) not in partition" % b)
    a, l = arm(lam, b), leg(lam, b)
    if kind == "upper":
        return (l, -(a + 1))
    if kind == "lower":
        return (l + 1, -a)
    raise JackLaxError("kind must be 'upper' or 'lower'")


def hooks_upper(lam):
    return [hook(lam, b, "upper") for b in boxes(lam)]


def hooks_lower(lam):
    return [hook(lam, b, "lower") for b in boxes(lam)]


# fixed linear extension of dominance order: graded, then reverse-lex
# (compare part vectors from the right; the later-differing entry decides)
def _grevlex_cmp(a, b):
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    if a == b:
        return 0
    n = max(len(a), len(b))
    pa = list(a) + [0] * (n - len(a))
    pb = list(b) + [0] * (n - len(b))
    for i in range(n - 1, -1, -1):
        if pa[i] != pb[i]:
            # smaller trailing entry means larger in this order
            return 1 if pa[i] < pb[i] else -1
    return 0


partition_sort_key = cmp_to_key(_grevlex_cmp)


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, sorted in the fixed linear extension
    (most dominated first, so 1^n comes first and (n) last)."""
    if n < 0:
        return ()
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(min(maxpart, remaining), 0, -1):
            acc.append(k)
            rec(remaining - k, k, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(sorted(out, key=partition_sort_key))


def eigen_pairs(n):
    """Labels of the eigenbasis of H_n: all (lam |- n, s in add_set(lam))."""
    return [(lam, s) for lam in partitions_of(n) for s in add_set(lam)]


def partition_pairs(max_total):
    """All (mu, nu) with 1 <= |mu| <= |nu| and |mu| + |nu| <= max_total, by
    total size, then |mu|, then the partition order."""
    for total in range(2, max_total + 1):
        for a in range(1, total // 2 + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    yield mu, nu


def pair_quads(max_total):
    """(lam, s, nu, t) for (lam, nu) in partition_pairs(max_total) and s, t
    addable to lam, nu."""
    for lam, nu in partition_pairs(max_total):
        for s in add_set(lam):
            for t in add_set(nu):
                yield lam, s, nu, t


def count_partitions(n):
    return len(partitions_of(n))


def count_by_corners(n, r):
    """Number of partitions of n with r profile minima (|add_set| = r)."""
    return sum(1 for lam in partitions_of(n) if len(add_set(lam)) == r)


def lattice_points(n):
    """The hyperbola set Lambda(n) = {(m,k): (m+1)(k+1) <= n+1}."""
    out = []
    m = 0
    while (m + 1) <= n + 1:
        k = 0
        while (m + 1) * (k + 1) <= n + 1:
            out.append((m, k))
            k += 1
        m += 1
    return sorted(out)


def count_lattice_q(n):
    return len(lattice_points(n))


# ---------------------------------------------------------------------------
# star product of box collections
# ---------------------------------------------------------------------------

def star_product(mu, nu):
    """Multiset {s + t : s in mu, t in nu} as a dict box -> multiplicity.

    Arguments may be partitions (tuples of parts) or box multisets (dicts)."""
    bm = _as_box_multiset(mu)
    bn = _as_box_multiset(nu)
    out = {}
    for (a, b), m1 in bm.items():
        for (c, d), m2 in bn.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + m1 * m2
    return out


def _as_box_multiset(x):
    """Tuples are partitions; single boxes must be passed as {box: 1}."""
    if isinstance(x, dict):
        return x
    return {b: 1 for b in boxes(x)}


# ---------------------------------------------------------------------------
# truncated power series over Q (SeriesZ)
# ---------------------------------------------------------------------------

class SeriesZ:
    """Formal power series in x truncated at a stated order."""

    __slots__ = ("order", "c")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.c = [Fraction(0)] * (order + 1)
        if coeffs:
            for i, v in enumerate(coeffs[: order + 1]):
                self.c[i] = v

    @staticmethod
    def one(order):
        s = SeriesZ(order)
        s.c[0] = Fraction(1)
        return s

    def __add__(self, other):
        n = min(self.order, other.order)
        s = SeriesZ(n)
        for i in range(n + 1):
            s.c[i] = self.c[i] + other.c[i]
        return s

    def __sub__(self, other):
        n = min(self.order, other.order)
        s = SeriesZ(n)
        for i in range(n + 1):
            s.c[i] = self.c[i] - other.c[i]
        return s

    def __mul__(self, other):
        if not isinstance(other, SeriesZ):
            s = SeriesZ(self.order)
            s.c = [v * other for v in self.c]
            return s
        n = min(self.order, other.order)
        s = SeriesZ(n)
        for i in range(n + 1):
            if self.c[i] == 0:
                continue
            for j in range(n + 1 - i):
                if other.c[j]:
                    s.c[i + j] += self.c[i] * other.c[j]
        return s

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division when other has a unit constant term."""
        n = min(self.order, other.order)
        if other.c[0] == 0:
            raise JackLaxError("series division by non-unit")
        s = SeriesZ(n)
        for i in range(n + 1):
            acc = self.c[i]
            for j in range(1, i + 1):
                acc -= other.c[j] * s.c[i - j]
            s.c[i] = acc / other.c[0]
        return s

    def __eq__(self, other):
        n = min(self.order, other.order)
        return self.c[: n + 1] == other.c[: n + 1]

    def coeff(self, k):
        return self.c[k]

    def __repr__(self):
        return " + ".join("%s*x^%d" % (v, i) for i, v in enumerate(self.c) if v) or "0"


def series_P(order):
    """Partition counting series 1/(x;x)_inf, truncated."""
    s = SeriesZ.one(order)
    for k in range(1, order + 1):
        geom = SeriesZ(order)
        for m in range(0, order + 1, k):
            geom.c[m] = Fraction(1)
        s = s * geom
    return s


class SeriesXT:
    """Bivariate truncated series in x (to `order`) and t (to `torder`).

    Coefficient of x^i t^j sits at c[i][j]."""

    __slots__ = ("order", "torder", "c")

    def __init__(self, order, torder):
        self.order = order
        self.torder = torder
        self.c = [[Fraction(0)] * (torder + 1) for _ in range(order + 1)]

    @staticmethod
    def one(order, torder):
        s = SeriesXT(order, torder)
        s.c[0][0] = Fraction(1)
        return s

    def __mul__(self, other):
        s = SeriesXT(self.order, self.torder)
        for i in range(self.order + 1):
            for j in range(self.torder + 1):
                a = self.c[i][j]
                if a == 0:
                    continue
                for k in range(self.order + 1 - i):
                    for l in range(self.torder + 1 - j):
                        b = other.c[k][l]
                        if b:
                            s.c[i + k][j + l] += a * b
        return s

    def coeff(self, i, j):
        return self.c[i][j]

    def subs_t_poly(self, tpoly):
        """Substitute t -> polynomial in x (list of x-coefficients)."""
        order = self.order
        out = SeriesZ(order)
        # powers of tpoly as x-series
        powers = [SeriesZ.one(order)]
        base = SeriesZ(order, [Fraction(v) for v in tpoly])
        for _ in range(self.torder):
            powers.append(powers[-1] * base)
        for i in range(order + 1):
            for j in range(self.torder + 1):
                a = self.c[i][j]
                if a == 0:
                    continue
                p = powers[j]
                for k in range(order + 1 - i):
                    if p.c[k]:
                        out.c[i + k] += a * p.c[k]
        return out

    def dt_at_1(self):
        """d/dt at t=1, as an x-series."""
        out = SeriesZ(self.order)
        for i in range(self.order + 1):
            for j in range(1, self.torder + 1):
                out.c[i] += j * self.c[i][j]
        return out


def series_P_xt(order):
    """Corner counting series P(x,t) = (1-t;x)_inf / (x;x)_inf truncated at
    x^order; the t-order needed is order+1 (max corners is n+1)."""
    torder = order + 1
    s = SeriesXT.one(order, torder)
    # extra factor (1 - x^0 (1-t)) = t
    tfac = SeriesXT(order, torder)
    tfac.c[0][1] = Fraction(1)
    s = s * tfac
    for k in range(1, order + 1):
        # factor (1 - x^k(1-t)) / (1 - x^k) = 1 + t x^k/(1-x^k)
        fac = SeriesXT.one(order, torder)
        for m in range(k, order + 1, k):
            fac.c[m][1] += Fraction(1)
        s = s * fac
    return s


def series_Q(order):
    """Generating function for q(n) = |Lambda(n)|.

    q(n) is the divisor summatory function at n+1 (OEIS A006218), so
    Q(x) = (1/(x(1-x))) * sum_k x^k/(1-x^k)."""
    inner = SeriesZ(order + 1)
    for k in range(1, order + 2):
        for m in range(k, order + 2, k):
            inner.c[m] += Fraction(1)
    shifted = SeriesZ(order, inner.c[1: order + 2])
    one_minus_x = SeriesZ(order, [Fraction(1), Fraction(-1)])
    return shifted / one_minus_x
