"""The Fock module F = C[V1, V2, ...] and its extension H = F[w].

Vectors are sparse dicts:
    FockVec:  {partition mu: scalar}   for the monomial V_mu = prod V_{mu_k}
    ExtVec:   {(m, mu): scalar}        for w^m * V_mu

The operators of the library take and return cleared rows (nums, D): the
vector sum nums[key] / D key by key, with nums in the field's numerator
ring (Python ints over a positive integer D at a specialized point,
integer polynomials over a factored D over Q(e1,e2)), so an operator runs
ring operations only; field.clear, field.combine and field.uncleared make
and read them.  The helpers below act on dicts of numerators or of field
scalars; zero coefficients are never stored.  The V-monomial inner product is diagonal:
    <V_mu, V_mu> = prod_k (hbar*k)^{d_k} d_k!   (d_k = multiplicity of k).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .errors import DegreeMismatch, InhomogeneousForPiStar
from .partitions import partitions_of


# ---------------------------------------------------------------------------
# sparse vector helpers (shared by FockVec and ExtVec dicts)
# ---------------------------------------------------------------------------

def bump(out, key, val):
    """out[key] += val in place; a sum that vanishes is dropped."""
    w = out.get(key)
    w = val if w is None else w + val
    if w:
        out[key] = w
    elif key in out:
        del out[key]


def v_accum(out, vec, c=None):
    """out += c * vec in place (c=None adds vec itself) and returns out.

    Sums that vanish are dropped and c == 0 adds nothing.  out must be a
    dict the caller owns, never a cached vector."""
    if c is not None and not c:
        return out
    for k, v in vec.items():
        if c is not None:
            v = v * c
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def v_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def v_clear(vec):
    """(numerators, D): the rational entries of vec as integer numerators
    over one common denominator D, the lcm of theirs, key order kept.
    This pair is the cleared row of vec."""
    den = lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items()}, den


def v_combine(terms):
    """The cleared row of sum c * nums / D over terms [(c, (nums, D))],
    each c rational (an int or a Fraction).

    The numerators are lifted to the lcm of the c.denominator * D and
    summed by v_accum, then divided by their gcd with that lcm: the row is
    v_clear of the sum."""
    dens = [c.denominator * row[1] for c, row in terms]
    den = lcm(*dens)
    out = {}
    for (c, (nums, _)), d in zip(terms, dens):
        v_accum(out, nums, c.numerator * (den // d))
    g = gcd(den, *out.values())
    if g != 1:
        den //= g
        out = {k: v // g for k, v in out.items()}
    return out, den


def v_uncleared(row):
    """The vector of rational entries of a cleared row."""
    nums, den = row
    return {k: Fraction(v, den) for k, v in nums.items()}


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _merge_parts(mu, nu):
    return tuple(sorted(mu + nu, reverse=True))


def fock_mul(f, g):
    out = {}
    for mu, a in f.items():
        for nu, b in g.items():
            bump(out, _merge_parts(mu, nu), a * b)
    return out


def ext_mul(f, g):
    out = {}
    for (m, mu), a in f.items():
        for (n, nu), b in g.items():
            bump(out, (m + n, _merge_parts(mu, nu)), a * b)
    return out


def fock_to_ext(f):
    return {(0, mu): c for mu, c in f.items()}


# ---------------------------------------------------------------------------
# grading and projections
# ---------------------------------------------------------------------------

def ext_degree(key):
    m, mu = key
    return m + sum(mu)


def degree_of(zeta):
    """Degree of a homogeneous ExtVec (raises if mixed)."""
    degs = {ext_degree(k) for k in zeta}
    if not degs:
        return 0
    if len(degs) > 1:
        raise DegreeMismatch("inhomogeneous vector: degrees %s" % sorted(degs))
    return degs.pop()


def pi0(zeta):
    """Project onto w^0 (an ExtVec -> FockVec)."""
    return {mu: c for (m, mu), c in zeta.items() if m == 0}


def pi_plus(zeta):
    return {k: c for k, c in zeta.items() if k[0] > 0}


def Pi(zeta):
    """w^{-1} pi_+ : drop the w^0 part and divide by w."""
    return {(m - 1, mu): c for (m, mu), c in zeta.items() if m > 0}


def w_mul(zeta):
    return {(m + 1, mu): c for (m, mu), c in zeta.items()}


def pi_star(row, field):
    """Top w-coefficient [w^n] of the cleared row of a homogeneous degree-n
    vector."""
    nums, den = row
    degs = {ext_degree(k) for k in nums}
    if len(degs) > 1:
        raise InhomogeneousForPiStar("pi* needs a homogeneous vector")
    if not nums:
        return field.zero
    return field.quotient(nums.get((degs.pop(), ()), 0), den)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def monomial_norm_sq(mu, field):
    """<V_mu, V_mu> = prod (hbar k)^{d_k} d_k! = z_mu hbar^{l(mu)}, with
    hbar = -[1,0][0,1]."""
    n = len(mu)
    return field.ratio(((1, 0), (0, 1)) * n, (), field.num((-1) ** n * zmu(mu)))


def inner_hbar(f, g, field):
    """Inner product of the cleared rows f and g (of ExtVecs or FockVecs).

    The products of numerators on the common keys are summed against the
    Gram weights <key, key> = z_mu hbar^l(mu) as ring elements, with one
    field.quotient: for hbar = h / L, (h, L) = field.lax_ints[1:], and m
    the longest l(mu), the weight of mu is z_mu h^l L^(m-l) over L^m."""
    (f, d1), (g, d2) = f, g
    f = _as_ext(f)
    g = _as_ext(g)
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    common = [key for key in small if key in big]
    if not common:
        return field.zero
    _, h, L = field.lax_ints
    m = max(len(key[1]) for key in common)
    powers = [h ** l * L ** (m - l) for l in range(m + 1)]
    return field.quotient(sum(small[key] * big[key] * (zmu(key[1]) * powers[len(key[1])])
                              for key in common), d1 * d2 * L ** m)


def _as_ext(f):
    if not f:
        return {}
    k = next(iter(f))
    if isinstance(k, tuple) and len(k) == 2 and isinstance(k[1], tuple):
        return f
    return fock_to_ext(f)


@lru_cache(maxsize=None)
def zmu(mu):
    """z_mu = prod_k d_k! k^{d_k} (multiplicities d_k of the part k)."""
    z = 1
    for k in set(mu):
        d = mu.count(k)
        z *= factorial(d) * k ** d
    return z


def hall_inner_alpha(f, g, field):
    """alpha-deformed Hall product of two p-basis vectors.

    <p_mu, p_nu> = delta_{mu,nu} z_mu alpha^{#parts(mu)}.  (The exponent is
    the number of parts; that is what makes the integral Jacks orthogonal.)
    """
    if f and g:
        df = {sum(mu) for mu in f}
        dg = {sum(mu) for mu in g}
        if len(df | dg) > 1:
            raise DegreeMismatch("hall inner product needs equal homogeneous degrees")
    total = field.zero
    for mu, a in f.items():
        b = g.get(mu)
        if b:
            total = total + a * b * field.num(zmu(mu)) * field.alpha ** len(mu)
    return total


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def deriv_V(f, k):
    """d/dV_k on a FockVec."""
    out = {}
    for mu, c in f.items():
        d = mu.count(k)
        if d:
            lst = list(mu)
            lst.remove(k)
            # mu -> mu - k is injective: no two terms share a key
            out[tuple(lst)] = c * d
    return out


# ---------------------------------------------------------------------------
# canonical bases of the graded pieces H_n
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hn_basis(n):
    """Basis of H_n: (m, mu) with m + |mu| = n; w-power ascending, then the
    fixed partition order."""
    out = []
    for m in range(n + 1):
        for mu in partitions_of(n - m):
            out.append((m, mu))
    return tuple(out)


def dim_hn(n):
    return len(hn_basis(n))
