"""Trace functionals, the full trace with its kernel and cokernel, the
beta/theta derivator elements, twisted traces, null submodules, the rho
operators, conjecture checks, and the Koszul Hilbert series.

In the hatted eigenbasis the three traces are coordinate sums:
    z_lam  = sum of psi-hat_lam^s coefficients          (lam |- n)
    x_gam  = sum of psi-hat_{gam-t}^t coefficients      (gam |- n+1)
    y^s    = sum of coefficients with eigen-box s
and y_u(zeta) = sum_s y-coeff(s) / (u - [s]).  Every vector here is a
cleared row (field.clear) and every operator takes and returns rows: the
trace sums run on the numerators of the expansion row, over its one
denominator, each sum of psi-hat vectors is one field.combine, and vectors
are compared as canonical rows.

The derivators beta and theta use only the multiplication part pi_w M of
L = pi_w M + D (lax.lax_mult): the derivation D cancels in them, so L is
never applied to a product, and pair_traces computes the pi_w M images of
its two factors once for both.
"""

from fractions import Fraction
from itertools import combinations

from .errors import JackLaxError, NotGood, NotInNullSpace, NotSplit
from .fock import (Pi, bump, degree_of, deriv_V, ext_mul, hn_basis, pi_plus,
                   v_accum, w_mul)
from .lax import lax_mult, q_poly_row
from .linalg import rank
from .partitions import (SeriesZ, add_box, add_set, boxes, count_lattice_q,
                         eigen_pairs, pair_quads, partition, partitions_of,
                         series_P)
from .report import SKIP, instance, map_residual, residual, row_residual, rows_residual
from .spectral import tau, with_pole
from jacklax import partitions as _parts


# ---------------------------------------------------------------------------
# trace functionals
# ---------------------------------------------------------------------------

class TraceVector:
    """Image of the full trace: x over partitions of n+1, y over the
    addable-box set of n, z over partitions of n."""

    __slots__ = ("n", "x", "y", "z")

    def __init__(self, n, x, y, z):
        self.n = n
        self.x = x
        self.y = y
        self.z = z

    def __eq__(self, other):
        return (self.n, self.x, self.y, self.z) == (other.n, other.x, other.y, other.z)

    def __repr__(self):
        return "TraceVector(n=%d, x=%r, y=%r, z=%r)" % (self.n, self.x, self.y, self.z)


def full_trace(ws, row):
    """Tr(zeta) of the cleared row of zeta, computed from the hatted
    eigenbasis expansion.

    The x, y and z coordinates are summed on the numerators of the
    expansion row, with one field.quotient per nonzero coordinate."""
    n = degree_of(row[0]) if row[0] else 0
    nums, d = ws.psi_hat_solver(n).row(*row) if row[0] else row
    x, y, z = {}, {}, {}
    for (lam, s), c in nums.items():
        gam = add_box(lam, s)
        x[gam] = x.get(gam, 0) + c
        y[s] = y.get(s, 0) + c
        z[lam] = z.get(lam, 0) + c
    q = ws.field.quotient
    return TraceVector(n, *({k: q(c, d) for k, c in part.items() if c} for part in (x, y, z)))


# ---------------------------------------------------------------------------
# the full trace as an integer incidence matrix (psi-hat basis)
# ---------------------------------------------------------------------------

def w_index(n):
    """Ordered coordinates of W_n: x-rows, y-rows, z-rows.

    The y block always excludes (0,0) (dimension q(n)-1); at n=0 the
    functional y^{(0,0)} coincides with z on traces, so nothing is lost."""
    from .partitions import lattice_points
    xs = [("x", g) for g in partitions_of(n + 1)]
    ys = [("y", s) for s in lattice_points(n) if s != (0, 0)]
    zs = [("z", l) for l in partitions_of(n)]
    return xs + ys + zs


def trace_incidence_matrix(n):
    """Integer matrix of Tr_n: rows = W_n coordinates, columns = eigen pairs."""
    pairs = eigen_pairs(n)
    rows = w_index(n)
    row_pos = {r: i for i, r in enumerate(rows)}
    M = [[0] * len(pairs) for _ in rows]
    for j, (lam, s) in enumerate(pairs):
        M[row_pos[("x", add_box(lam, s))]][j] = 1
        key = ("y", s)
        if key in row_pos:
            M[row_pos[key]][j] = 1
        M[row_pos[("z", lam)]][j] = 1
    return rows, pairs, M


# ---------------------------------------------------------------------------
# cokernel
# ---------------------------------------------------------------------------

def cokernel_relation(n, s):
    """The functional R_n^s on W_n as {coordinate: integer}.

    For n > 0 the functional y^{(0,0)} vanishes identically, so that
    relation is replaced by R_n^{(0,0)} = sum z - sum x; at n = 0 the
    single relation pairs the traces of the vacuum, z_0 - x_{1}."""
    rel = {}
    if s == (0, 0):
        if n == 0:
            return {("z", ()): 1, ("x", (1,)): -1}
        for lam in partitions_of(n):
            rel[("z", lam)] = 1
        for gam in partitions_of(n + 1):
            rel[("x", gam)] = rel.get(("x", gam), 0) - 1
        return rel
    rel[("y", s)] = 1
    for gam in partitions_of(n + 1):
        if _parts.contains_box(gam, s):
            rel[("x", gam)] = -1
    for lam in partitions_of(n):
        if _parts.contains_box(lam, s):
            rel[("z", lam)] = 1
    return rel


def cokernel_relations(n):
    from .partitions import lattice_points
    return {s: cokernel_relation(n, s) for s in lattice_points(n)}


def verify_cokernel(n):
    """The relations annihilate every basis trace and exhaust the cokernel,
    as one residual: ("annihilate", (s, pair)) for the relation R_n^s on
    the trace of psi-hat_pair, then the cokernel dimension and the rank of
    the relations, each against q(n)."""
    rows, pairs, M = trace_incidence_matrix(n)
    row_pos = {r: i for i, r in enumerate(rows)}
    rels = cokernel_relations(n)
    rel_rows = []
    for rel in rels.values():
        row = [0] * len(rows)
        for coord, c in rel.items():
            if coord in row_pos:
                row[row_pos[coord]] = c
        rel_rows.append(row)
    cmp = [(("annihilate", (s, pair)), sum(c * m for c, m in zip(row, col)), 0)
           for s, row in zip(rels, rel_rows) for pair, col in zip(pairs, zip(*M))]
    q = count_lattice_q(n)
    # the q(n) relations are linearly independent functionals
    cmp += [("cokernel dim", len(rows) - rank(M), q), ("relation rank", rank(rel_rows), q)]
    return residual(cmp)


def resolvent_w_identity(ws, n):
    """The key identity behind the cokernel relations:
    (u-L)^{-1} w^n = sum_g (sum_{t in g} 1/(u-[t])) qhat_g/|jhat_g|^2
                   - sum_l (sum_{s in l} 1/(u-[s])) w qhat_l/|jhat_l|^2,
    verified as maps pole -> ExtVec: at each pole the rows of the two
    sides, with qhat_g/|jhat_g|^2 = varpi_g q_g/|j_g|^2, combine to zero:
    the residual keyed by (pole, coordinate)."""
    field = ws.field
    terms = {}
    nums, den = ws.expand_psi_hat(_basic_row(ws, (n, ())))
    for (lam, s), c in nums.items():
        pn, pd = ws.psi_hat_row(lam, s)
        terms.setdefault(s, []).append((c, (pn, pd * den)))
    for gam in partitions_of(n + 1):
        row = field.combine([(-ws.varpi(gam) / ws.norm_sq(gam), q_poly_row(ws, gam))])
        for t in boxes(gam):
            terms.setdefault(t, []).append((1, row))
    for lam in partitions_of(n):
        if not lam:
            continue
        q, d = field.combine([(ws.varpi(lam) / ws.norm_sq(lam), q_poly_row(ws, lam))])
        for s in boxes(lam):
            terms.setdefault(s, []).append((1, (w_mul(q), d)))
    out = {}
    for pole, ts in terms.items():
        out.update(row_residual(field, ts, pole))
    return out


# ---------------------------------------------------------------------------
# kernel: hexagon elements
# ---------------------------------------------------------------------------

class HexagonElement:
    __slots__ = ("eta", "corners", "coords")

    def __init__(self, eta, corners):
        a, b, c = corners
        self.eta = eta
        self.corners = (a, b, c)
        # +- pattern of psi-hat coordinates
        self.coords = {
            (add_box(eta, a), c): 1,
            (add_box(eta, a), b): -1,
            (add_box(eta, b), a): 1,
            (add_box(eta, b), c): -1,
            (add_box(eta, c), b): 1,
            (add_box(eta, c), a): -1,
        }

    def value(self, ws):
        """The cleared row of the element."""
        return ws.psi_hat_combine(self.coords)

    def __repr__(self):
        return "Gamma_%s^%s" % (self.eta, (self.corners,))


def kernel_basis(n):
    """All hexagon elements of H_n (may be linearly dependent)."""
    out = []
    if n < 1:
        return out
    for eta in partitions_of(n - 1):
        A = add_set(eta)
        for tri in combinations(A, 3):
            out.append(HexagonElement(eta, tri))
    return out


def kernel_dimension(n):
    """Exact dim ker Tr_n from the integer incidence matrix."""
    rows, pairs, M = trace_incidence_matrix(n)
    return len(pairs) - rank(M)


def hexagon_span_dimension(n):
    hexes = kernel_basis(n)
    if not hexes:
        return 0
    pos = {p: i for i, p in enumerate(eigen_pairs(n))}
    rows = []
    for h in hexes:
        row = [0] * len(pos)
        for key, sign in h.coords.items():
            row[pos[key]] = sign
        rows.append(row)
    return rank(rows)


def kernel_dim_series(order):
    """(1 + (x^2+x-1) P(x)) / (x (1-x)), truncated."""
    P = series_P(order + 1)
    num = SeriesZ(order + 1)
    # (x^2 + x - 1) * P
    for i in range(order + 2):
        acc = -P.c[i]
        if i >= 1:
            acc += P.c[i - 1]
        if i >= 2:
            acc += P.c[i - 2]
        num.c[i] = acc
    num.c[0] += 1
    shifted = SeriesZ(order, num.c[1: order + 2])  # divide by x
    return shifted / SeriesZ(order, [Fraction(1), Fraction(-1)])


# ---------------------------------------------------------------------------
# beta and theta derivators
# ---------------------------------------------------------------------------

def beta(ws, z1, z2, prod=None, images=None):
    """The derivator of L: L(ab) - (La)b - a(Lb), for the cleared rows
    (a, D1) and (b, D2); returns a row over D1 D2 L (L as in lax_apply).

    With L = pi_w M + D (lax_mult is pi_w M) the derivation D cancels, so
    beta(a, b) = pi_w M(ab) - (pi_w M a) b - a (pi_w M b), whose
    numerators over D1 D2 are integers (at a point) times L.  prod is the
    numerators of ab and images the pair of numerators of pi_w M a and
    pi_w M b, when the caller has them."""
    (a, d1), (b, d2) = z1, z2
    if prod is None:
        prod = ext_mul(a, b)
    ma, mb = images or (lax_mult(z1)[0], lax_mult(z2)[0])
    out = lax_mult((prod, 1))[0]
    v_accum(out, ext_mul(ma, b), -1)
    v_accum(out, ext_mul(a, mb), -1)
    return _over_lax_den(ws.field, out, d1 * d2)


def beta_basic(ws, n, m):
    return beta(ws, _basic_row(ws, (n, ())), _basic_row(ws, (m, ())))


def theta(ws, z1, z2, images=None):
    """theta = {beta, Pi}: beta(Pi a, b) + beta(a, Pi b) - Pi beta(a, b),
    on cleared rows as beta.

    By bilinearity, with pi_w M commuting with Pi and
    (Pi a) b + a (Pi b) - Pi(ab) = w (Pi a)(Pi b), the two beta terms and
    Pi beta(a, b) merge into
        theta = pi_w M(w Pi a Pi b) - w ((Pi pi_w M a)(Pi b) + (Pi a)(Pi pi_w M b)),
    one pass of pi_w M over a product-sized vector.  images is as in
    beta."""
    (a, d1), (b, d2) = z1, z2
    ma, mb = images or (lax_mult(z1)[0], lax_mult(z2)[0])
    pa, pb = Pi(a), Pi(b)
    out = lax_mult((w_mul(ext_mul(pa, pb)), 1))[0]
    rest = v_accum(ext_mul(Pi(ma), pb), ext_mul(pa, Pi(mb)))
    v_accum(out, w_mul(rest), -1)
    return _over_lax_den(ws.field, out, d1 * d2)


def _over_lax_den(field, nums, den):
    """The row of the vector nums / den over den L."""
    lax_den = field.lax_ints[2]
    if lax_den != 1:
        nums = {k: v * lax_den for k, v in nums.items()}
    return nums, den * lax_den


def pair_traces(ws, row1, row2):
    """The traces of z1 z2, beta(z1, z2) and theta(z1, z2) for the cleared
    rows (z1, D1) and (z2, D2), computing the product and the pi_w M
    images of the factors once: the product over D1 D2, beta and theta
    over D1 D2 L."""
    prod = ext_mul(row1[0], row2[0]), row1[1] * row2[1]
    images = lax_mult(row1)[0], lax_mult(row2)[0]
    return (full_trace(ws, prod), full_trace(ws, beta(ws, row1, row2, prod[0], images)),
            full_trace(ws, theta(ws, row1, row2, images)))


def theta_basic(ws, n, m):
    return theta(ws, _basic_row(ws, (n, ())), _basic_row(ws, (m, ())))


def d_Pi(z1, z2):
    """The derivator of Pi up to sign: w^{-1} pi_+(a) pi_+(b)."""
    return Pi(ext_mul(pi_plus(z1), pi_plus(z2)))


def twisted_residual(tb, tt):
    """Tr(beta) = rho_* Tr(theta) on the traces tb = Tr(beta), tt = Tr(theta),
    as a residual: y equal, x(beta) = 0, z(theta) = 0, z(beta) = -x(theta)."""
    out = map_residual(tb.y, tt.y, "y(beta) - y(theta)")
    out.update(map_residual(tb.x, {}, "x(beta)"))
    out.update(map_residual(tt.z, {}, "z(theta)"))
    out.update(map_residual(tb.z, {k: -v for k, v in tt.x.items()}, "z(beta) + x(theta)"))
    return out


def verify_twisted_traces(ws, z1, z2):
    """twisted_residual of the traces of beta and theta of the cleared rows
    z1 and z2."""
    return twisted_residual(full_trace(ws, beta(ws, z1, z2)),
                            full_trace(ws, theta(ws, z1, z2)))


def y_trace_product_check(ws, lam, s, nu, t, t_prod, t_beta, star, T):
    """y_u(psi-hat psi-hat) = T_{lam*nu}/(u-[s+t]) and
    y_u(beta(psi-hat,psi-hat)) = T_{lam*nu} - 1, by residue comparison, on
    the traces t_prod and t_beta of the product and of beta of the pair
    psi-hat_lam^s, psi-hat_nu^t, as a residual; star is
    star_residues(field, lam, nu) and T is T_star(field, lam, nu)."""
    poly, res = with_pole(T, (s[0] + t[0], s[1] + t[1])).partial_fractions(ws.field)
    out = map_residual(dict(enumerate(poly)), {}, "polynomial part")
    out.update(map_residual(t_prod.y, res, "y(product)"))
    out.update(map_residual(t_beta.y, star, "y(beta)"))
    return out


# ---------------------------------------------------------------------------
# null submodules
# ---------------------------------------------------------------------------

def null_module_span(ws, n, which):
    """Cleared rows spanning Z0_n (theta elements) or X0_n (beta
    elements)."""
    rows = []
    if which == "Z0":
        gen, deg = theta_basic, lambda a, b: a + b - 1
    elif which == "X0":
        gen, deg = beta_basic, lambda a, b: a + b
    else:
        raise JackLaxError("which must be Z0 or X0")
    for a in range(1, n + 2):
        for b in range(a, n + 2):
            d = deg(a, b)
            if d > n:
                continue
            g = gen(ws, a, b)
            for mu in partitions_of(n - d):
                rows.append((ext_mul(_basic_row(ws, (0, mu))[0], g[0]), g[1]))
    return rows


def null_module_rank(ws, n, which):
    basis = hn_basis(n)
    return rank([[nums.get(k, 0) for k in basis] for nums, _ in null_module_span(ws, n, which)])


def null_module_expected_dim(n, which):
    from .fock import dim_hn
    if which == "Z0":
        return dim_hn(n) - len(partitions_of(n))
    return dim_hn(n) - len(partitions_of(n + 1))


# ---------------------------------------------------------------------------
# rho operators
# ---------------------------------------------------------------------------

def _by_lam(coeffs):
    """{lam: {s: c}} from psi-hat coefficients {(lam, s): c}."""
    out = {}
    for (lam, s), c in coeffs.items():
        out.setdefault(lam, {})[s] = c
    return out


def rho_general(ws, xi, zeta):
    """rho(xi) zeta = sum_{lam,s} xi_lam^s rho_lam^s P_{Z_lam} zeta.

    xi and zeta are cleared rows, and so is the result: the products of
    expansion numerators are summed per psi-hat label over the product of
    the two expansion denominators, then combined once."""
    xi_nums, xi_den = ws.expand_psi_hat(xi)
    zeta_nums, zeta_den = ws.expand_psi_hat(zeta)
    by_lam = _by_lam(zeta_nums)
    for lam, comp in by_lam.items():
        if sum(comp.values()):
            raise NotInNullSpace("zeta has a nonzero z-trace on Z_%s" % (lam,))
    coeffs = {}
    for (lam, s), xc in xi_nums.items():
        for t, c in by_lam.get(lam, {}).items():
            if t == s:
                continue
            a, b = (add_box(lam, s), t), (add_box(lam, t), s)
            coeffs[a] = coeffs.get(a, 0) + xc * c
            coeffs[b] = coeffs.get(b, 0) - xc * c
    return ws.psi_hat_combine(coeffs, xi_den * zeta_den)


def good_normalizer_F(ws, xi):
    """F(xi) = sum_lam xi_lam / z_lam(xi_lam) for the cleared row xi, as a
    cleared row; raises NotGood.  The coefficient of psi-hat_lam^s is the
    ratio of two expansion coefficients, each reduced first, so that the
    divisor is the z-trace itself (over Q(e1,e2) it must split into
    linear forms, else NotSplit)."""
    nums, d = ws.expand_psi_hat(xi)
    q = ws.field.quotient
    coeffs = {}
    for lam, comp in _by_lam(nums).items():
        tot = sum(comp.values())
        if not tot:
            raise NotGood("Z_%s component has vanishing z-trace" % (lam,))
        tot = q(tot, d)
        for s, c in comp.items():
            coeffs[(lam, s)] = q(c, d) / tot
    return ws.psi_hat_combine(coeffs)


def rho_tilde(ws, n, zeta):
    """rho(F(w^n)) zeta, on cleared rows as rho_general."""
    return rho_general(ws, good_normalizer_F(ws, _basic_row(ws, (n, ()))), zeta)


def _basic_row(ws, key):
    """The cleared row of the basis vector of key."""
    return ws.field.clear({key: ws.field.one})


# ---------------------------------------------------------------------------
# conjectures and experimental checks (quarantined; never assumed)
# ---------------------------------------------------------------------------

def conjecture_sweeps(max_degree):
    """The selection-rule, rho, and beta=rho.theta conjecture sweeps, in
    parts: pairs (fn, args) where fn(ws, *args) is a list of instance dicts
    (report.instance)."""
    for quad in pair_quads(max_degree):
        yield _selection_rule, quad
    for r in range(1, max_degree):
        for m in range(1, max_degree - r + 1):
            yield _product_evidence, (r, m)
    yield _rho_conjectures, (max_degree,)


def _psi_hat_product(ws, lam, s, nu, t):
    """The cleared row of psi-hat_lam^s psi-hat_nu^t."""
    (a, da), (b, db) = ws.psi_hat_row(lam, s), ws.psi_hat_row(nu, t)
    return ext_mul(a, b), da * db


def _selection_rule(ws, mu, s, nu, t):
    """The support of psi-hat products lies over mu union nu."""
    union = _parts.diagram_union(mu, nu)
    return [instance("selection-rule %s:%s * %s:%s" % (mu, s, nu, t), _outside(
        ws, _psi_hat_product(ws, mu, s, nu, t), lambda key: _parts.contains(key[0], union)))]


def _rho_conjectures(ws, max_degree):
    """The rho conjectures; every vector is a cleared row, and two vectors
    are compared as canonical rows (field.combine)."""
    field = ws.field
    out = []

    # beta^{n,m} = rho~_{n+m-1} theta^{n,m} for n+m <= min(5, max_degree)
    for a in range(1, 6):
        for b in range(a, 6):
            if a + b > min(5, max_degree):
                continue
            lhs = field.combine([(1, beta_basic(ws, a, b))])
            rhs = rho_tilde(ws, a + b - 1, theta_basic(ws, a, b))
            out.append(instance("beta=rho~theta (%d,%d)" % (a, b),
                                rows_residual(field, lhs, rhs)))

    # rho~ as a differential operator.  On F this is a proven lemma; the
    # conjectured extension to all of Z0 fails already on theta^{2,2}
    # (w-dependent elements), which is reported as such.
    for n in range(2, min(5, max_degree) + 1):
        lemma, ext = {}, {}
        fn = good_normalizer_F(ws, _basic_row(ws, (n, ())))
        # beta(w, w^k), with the factor hbar k / (n hbar)
        bws = [(k, beta_basic(ws, 1, k), field.hbar * field.num(k) / (field.num(n) * field.hbar))
               for k in range(1, n + 1)]
        for i, zrow in enumerate(null_module_span(ws, n, "Z0")):
            znums, zden = zrow
            lhs = rho_general(ws, fn, zrow)
            terms = []
            for k, (bn, bd), c in bws:
                dz = {}
                for (mm, mu), a in znums.items():
                    for nu, a2 in deriv_V({mu: a}, k).items():
                        bump(dz, (mm, nu), a2)
                terms.append((c, (ext_mul(bn, dz), bd * zden)))
            on_F = all(m == 0 for (m, mu) in znums)
            (lemma if on_F else ext).update(
                rows_residual(field, lhs, field.combine(terms), ("Z0 element", i)))
        out.append(instance("rho~ differential form on F (lemma) n=%d" % n, lemma))
        out.append(instance("rho~ differential form on all of Z0 (conjectured) n=%d" % n, ext,
                            known="fails on a w-dependent element, e.g. theta^{2,2}"))

    # beta(z,x) = rho(F(dPi(z,x))) theta(z,x) for good basic pairs; the
    # basic vectors are rows over 1, and so is dPi of two of them
    for d1 in range(1, max_degree):
        for d2 in range(d1, max_degree - d1 + 1):
            for k1 in hn_basis(d1):
                for k2 in hn_basis(d2):
                    z1, z2 = _basic_row(ws, k1), _basic_row(ws, k2)
                    ident = "beta=rho(F(dPi))theta %s,%s" % (k1, k2)
                    try:
                        f = good_normalizer_F(ws, (d_Pi(z1[0], z2[0]), 1))
                    except NotGood:
                        out.append(instance(ident, SKIP, "dPi not good"))
                        continue
                    except NotSplit as e:
                        # over Q(e1,e2) a z-trace need not split into forms
                        out.append(instance(ident, SKIP, "F(dPi): %s" % e))
                        continue
                    try:
                        rhs = rho_general(ws, f, theta(ws, z1, z2))
                    except NotInNullSpace:
                        out.append(instance(ident, SKIP, "theta not in Z0"))
                        continue
                    lhs = field.combine([(1, beta(ws, z1, z2))])
                    out.append(instance(ident, rows_residual(field, lhs, rhs)))

    # the hook-sum claim to max_degree (known to be false; kept as an honest check)
    for lam in [(1,), (2, 1), (2, 2)]:
        if _parts.size(lam) > max_degree:
            break
        tot = field.zero
        for s in add_set(lam):
            lam_s = add_box(lam, s)
            pu = field.one
            for b in boxes(lam):
                sigma = lam_s if b[1] == s[1] else lam
                pu = pu * field.lf(_parts.hook(sigma, b, "upper"))
            tot = tot + tau(field, lam, s) * pu
        hu = field.one
        for b in boxes(lam):
            hu = hu * field.lf(_parts.hook(lam, b, "upper"))
        out.append(instance("hook-sum claim %s" % (lam,), residual([("sum", tot, hu)]),
                            known="sum != prod h^U"))
    return out


def _product_evidence(ws, r, m):
    """Closed-form psi-hat_{1^r} psi-hat_m expansions: support always,
    explicit coefficients for the corner-opposite case."""
    field = ws.field
    col = (1,) * r
    row = (m,)
    out = []

    # case 1: psi^{(r,0)}_{1^r} psi^{(0,m)}_m (explicit two-term form)
    exp = field.uncleared(ws.expand_psi_hat(_psi_hat_product(ws, col, (r, 0), row, (0, m))))
    lam1 = partition((m,) + (1,) * r)
    lam2 = partition((m + 1,) + (1,) * (r - 1))
    c1 = field.lf((0, -m)) / field.lf((r, -m))
    c2 = field.lf((r, 0)) / field.lf((r, -m))
    expect = {(lam1, (0, m)): c1, (lam2, (r, 0)): c2}
    out.append(instance("evidence-1 r=%d m=%d" % (r, m), map_residual(exp, expect)))

    # case 2: psi^{(r,0)}_{1^r} psi^{(1,0)}_m (support check)
    if (1, 0) in add_set(row):
        allowed = {(lam1, (0, m)), (lam1, (r + 1, 0)), (lam2, (r, 0))}
        out.append(instance("evidence-2 r=%d m=%d" % (r, m), _outside(
            ws, _psi_hat_product(ws, col, (r, 0), row, (1, 0)), allowed.__contains__)))

    # case 3: psi^{(0,1)}_{1^r} psi^{(1,0)}_m (support check)
    allowed = {(lam1, (0, m)), (lam1, (1, 1)), (lam2, (1, 1)), (lam2, (r, 0))}
    out.append(instance("evidence-3 r=%d m=%d" % (r, m), _outside(
        ws, _psi_hat_product(ws, col, (0, 1), row, (1, 0)), allowed.__contains__)))
    return out


def _outside(ws, row, allowed):
    """The residual of a support claim: the psi-hat coefficients of the row
    whose labels are not allowed (a predicate), each against 0."""
    nums, d = ws.expand_psi_hat(row)
    return {key: (ws.field.quotient(c, d), 0) for key, c in nums.items() if not allowed(key)}


# ---------------------------------------------------------------------------
# Koszul Hilbert series (appendix)
# ---------------------------------------------------------------------------

def koszul_A_series(n, order):
    """A^n(x): generating function of strictly increasing n-tuples of
    nonnegative integers by total sum, truncated."""
    s = SeriesZ(order)
    if n == 0:
        s.c[0] = Fraction(1)
        return s

    def rec(k, last, total):
        if k == 0:
            if total <= order:
                s.c[total] += 1
            return
        a = last + 1
        while total + a * k <= order:  # remaining k entries are >= a each
            rec(k - 1, a, total + a)
            a += 1

    rec(n, -1, 0)
    return s


def koszul_hilbert_check(order_z, order_x):
    """sum (-1)^n A^n z^n = (z;x)_inf to bidegree (z^order_z, x^order_x),
    the telescoping identity and the first two A^n, as one residual."""
    As = [koszul_A_series(n, order_x) for n in range(order_z + 1)]
    # product side: prod_{l=0}^{order_x} (1 - z x^l), coefficient of z^n
    prod = [[Fraction(0)] * (order_x + 1) for _ in range(order_z + 1)]
    prod[0][0] = Fraction(1)
    for l in range(order_x + 1):
        new = [row[:] for row in prod]
        for zn in range(order_z):
            for xk in range(order_x + 1 - l):
                if prod[zn][xk]:
                    new[zn + 1][xk + l] -= prod[zn][xk]
        prod = new
    cmp = [(("alternating sum", (nz, xk)), (-1) ** nz * As[nz].c[xk], prod[nz][xk])
           for nz in range(order_z + 1) for xk in range(order_x + 1)]
    # telescoping (1 - x^{n+1}) A^{n+1} = x^n A^n
    for n in range(order_z):
        lhs = As[n + 1] - SeriesZ(order_x, [Fraction(0)] * (n + 1) + [Fraction(1)]) * As[n + 1]
        rhs = SeriesZ(order_x, [Fraction(0)] * n + [Fraction(1)]) * As[n]
        cmp += [(("telescoping", (n, xk)), lhs.c[xk], rhs.c[xk]) for xk in range(order_x + 1)]
    cmp += [(("A^0", xk), c, int(xk == 0)) for xk, c in enumerate(As[0].c)]
    if order_z >= 1:
        cmp += [(("A^1", xk), As[1].c[xk], 1) for xk in range(order_x + 1)]
    return residual(cmp)
