"""Independent test oracles for algorithms the library no longer runs.

The Jack basis is built at runtime from the Lax eigenfunction recursion.
Here it is rebuilt the classical way: Gram-Schmidt against the
alpha-deformed Hall product over the monomial basis, taken in the fixed
dominance-compatible order, then rescaled to [m_{1^n}] J = n!.  The
monomial <-> power-sum transition matrices it needs live here too.

The Jack expansion is computed at runtime from one integer dual index per
degree (session.DualIndex), and the psi-hat expansion from one dual per
degree that follows the corner recursion of psi over the dual one degree
down (session.PsiHatDual): a vector's w-layers pair with the Jacks of
their own degree only.  Here the psi-hat expansion is
computed three other ways: by one DualIndex over the psi rows of the
degree (every key paired with every psi), as the solution of the dense
coordinate system (the inverse of the matrix whose columns are the psi-hat
vectors) and by that dual with field weights; and the Jack expansion by
one inner_hbar per partition.

At a specialized point the Lax operator and the beta/theta derivators run
on integer numerators over one denominator, and the derivators use only
the multiplication part pi_w M of L = pi_w M + D (D, a derivation,
cancels).  Here they run on field scalars, each derivator composed afresh
from its three images under the whole of L; the derivation part D is
here too.

The library's operators take and return cleared rows.  The oracles here
work on field-scalar vectors; those that stand in for a library function
read its rows with field.uncleared, and hand rows back with field.clear,
only at their call boundary.

The Whittaker and Delta checks of the shc suite share one H context per
workspace and degree (shc.h_context) and memoise each V_mu^dagger image.
Here H, its Fock image and each jhat_lam^dagger image are rebuilt for
every partition, and Delta pairs field-scalar vectors.  The shc
construction check expands its resolvents on rows in the psi-hat basis;
here it runs on vectors in the psi basis, with A, B and the Jack
coordinates on field scalars.

At a specialized point each product of linear forms (field.ratio) is one
integer ratio, SpecPoint.validate decides from e1/e2 in lowest terms, and
psi, the Jacks and jhat_lam^dagger are built on cleared rows.  Here the
products take one field operation per form, the point check scans every
difference vector, and the recursions and jhat_lam^dagger run on field
scalars.

The psi-hat layer runs on cleared rows: the full trace is summed on the
numerators of the expansion row, sums of psi-hat vectors (the rho
operators, the good normalizer, the hexagon values) are one
field.combine, inner_hbar pairs numerators, and ranks come from Bareiss'
fraction-free elimination.  Here the trace, the rho operators and the
normalizer sum field scalars, a row combination is a sum of vectors
cleared afterwards, inner_hbar multiply-adds field scalars, and the rank
comes from Gaussian elimination with field division.

A = pi0 L w runs in closed form: by Euler's relation it re-keys w^m V_mu
to V_{m+1} V_mu (lax.op_A).  Here it is the w^0 part of L applied to w
times the row (pi0_lax_w).

Over Q(e1,e2) a row's numerators are integer polynomials over one
factored denominator, so the operators run ring operations only and a
value is reduced once, when it leaves the library.  Here
CoeffVectorField keeps the earlier row format: the Coeff vector itself
over 1, every multiply-add of the operators reduced to lowest terms.

Over Q(e1,e2) a Coeff keeps its denominator as an integer times prime
linear forms and reduces by trial division.  Here Coeff is the reduced
fraction of two integer polynomials, whatever its denominator, reduced by
a bivariate gcd (a primitive PRS over Z[e2][e1]).

A BiPoly packs each homogeneous part into one integer, its coefficients
in signed slots of a width it carries (Kronecker substitution), and adds,
multiplies and divides parts as integers.  Here an integer polynomial is a
term dict {(deg1, deg2): coeff}: sums and products run term by term, a
form divides by synthetic division of each graded part, exact division is
graded long division, and _factor and _least_row split and reduce on
coefficient lists.

The single-box partition helpers (add_set, rem_set, rem_set_plus,
transpose, add_box, remove_box) are memoised and return tuples, tau and
tau~ are memoised per field, and the tau identities, jhat_lam^dagger and
the hatted Jack LR table build their products as one field.ratio or on
ring elements over one field scalar.  Here the helpers return lists and
are recomputed on every call, tau and tau~ are computed afresh, and those
three multiply and divide field scalars factor by factor.

Some closed forms of the paper are checked by the tests only: the
principal specialization of a Jack and the content product it equals,
the coefficients of w and Pi acting on the psi basis, the one-box
function N(u) and T_1 at a form.  They live here too, with the few
helpers only the tests call (a SpectralFun from a root list, its value,
its partial fractions as text and equality of two SpectralFuns by their
expanded polynomials, a BiPoly's leading coefficient).

lr.determination_check solves no system: its 0/1 pole matrix at full
column rank admits at most one solution, so it checks that the true hatted
LR table satisfies every pole equation.  Here the system is solved by
Gaussian elimination over the field (solve).  shc.apply_V1 takes V_1^- as
hbar d/dV_1; here fock_adjoint_apply is the adjoint of multiplication by
any FockVec g, with V_mu^dagger = hbar^l(mu) prod_k (k d/dV_k).

SpectralFun.partial_fractions reads its polynomial part off the expansion
at u = oo (directly at degrees 0 and 1).  Here it is the quotient of the
long division of the expanded numerator by the expanded denominator.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd as _igcd

from jacklax.arith import (_BP_ONE, _BP_ZERO, _SAFE_SPAN as SAFE_SPAN, BiPoly, Den,
                           SpecPoint, SymbolicField, _parse_poly, _prime_form,
                           render_coeff)
from jacklax.arith import Coeff as ArithCoeff
from jacklax.errors import (JackLaxError, NotAnAddableBox, NotASimplePole, NotGood,
                            NotInNullSpace, PoleAtSpecPoint, ZeroDenominator)
from jacklax.fock import (Pi, _as_ext, bump, degree_of, deriv_V, ext_mul, fock_to_ext,
                          hall_inner_alpha, hn_basis, monomial_norm_sq, pi0, v_accum,
                          v_clear, v_scale, v_uncleared, w_mul)
from jacklax.lax import lax_apply, psi_tilde_row, q_poly_row
from jacklax.linalg import invert, matvec
from jacklax.partitions import (add_box, add_set, boxes, contains, diagram_union,
                                 eigen_pairs, partition, partitions_of, rem_set,
                                 remove_box, size)
from jacklax.lr import jack_product
from jacklax.shc import (Y_eig, Yinv_eig, _dagger_row, apply_dPhi, apply_diagonal,
                         apply_X_minus, apply_X_plus, fock_to_jack, h_state, jack_to_fock,
                         pf_accum, pf_add, pf_clean, pf_residual, pf_scale, pf_truncate,
                         sfun_to_pf_keys)
from jacklax.jack import jack_inv_norm_sq
from jacklax.session import DualIndex
from jacklax.spectral import SpectralFun, _forms_at, star_residues, tau, tau_hat, tau_tilde
from jacklax.traces import TraceVector


def unchecked_point(e1, e2):
    """The SpecPoint (e1, e2) without SpecPoint.validate: a point the
    library rejects, for a test of what goes wrong there."""
    p = SpecPoint.__new__(SpecPoint)
    p.e1, p.e2 = Fraction(e1), Fraction(e2)
    return p


def field_fraction(field, q):
    """The rational q as a scalar of field: a Coeff over Q(e1,e2), a
    Fraction at a spec point."""
    q = Fraction(q)
    return ArithCoeff.from_fraction(q) if field.symbolic else q


# ---------------------------------------------------------------------------
# monomial <-> power-sum transitions (rational, mode independent)
# ---------------------------------------------------------------------------

def _mult_m_by_p(mvec, r):
    """Multiply a monomial-basis vector {nu: Fraction} by p_r."""
    out = {}
    for nu, c in mvec.items():
        values = set(nu) | {0}
        seen = set()
        for v in values:
            lst = list(nu)
            if v:
                lst.remove(v)
            lst.append(v + r)
            rho = partition(lst)
            if rho in seen:
                continue
            seen.add(rho)
            # number of positions of rho holding u=v+r whose removal gives nu
            count = 0
            for u in set(rho):
                if u >= r:
                    lst2 = list(rho)
                    lst2.remove(u)
                    lst2.append(u - r)
                    if partition(lst2) == nu:
                        count += rho.count(u) if u != 0 else 0
            w = out.get(rho, Fraction(0)) + c * count
            if w:
                out[rho] = w
            elif rho in out:
                del out[rho]
    return out


@lru_cache(maxsize=None)
def monomial_powersum_transition(n):
    """(plist, P2M, M2P): P2M[i][j] = [m_{plist[j]}] p_{plist[i]} (integers),
    M2P its inverse over Q."""
    plist = list(partitions_of(n))
    index = {mu: i for i, mu in enumerate(plist)}
    P2M = []
    for mu in plist:
        vec = {(): Fraction(1)}
        for r in mu:
            vec = _mult_m_by_p(vec, r)
        row = [Fraction(0)] * len(plist)
        for nu, c in vec.items():
            row[index[nu]] = c
        P2M.append(row)

    class _Q:
        zero = Fraction(0)
        one = Fraction(1)

    M2P = invert([list(map(Fraction, col)) for col in zip(*P2M)], _Q)
    return plist, P2M, M2P


def solve(A, b, field):
    """Solve A x = b by Gaussian elimination; A is a list of rows."""
    n = len(A)
    m = len(A[0]) if n else 0
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    piv_cols = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [M[i][j] - f * M[r][j] for j in range(m + 1)]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    # consistency
    for i in range(r, n):
        if M[i][m]:
            raise JackLaxError("inconsistent linear system")
    x = [field.zero] * m
    for i, c in enumerate(piv_cols):
        x[c] = M[i][m]
    return x


def solved_hatted_lr(ws, mu, nu):
    """The hatted LR table of (mu, nu) solved from its pole equations
    (the star residues of T_{mu*nu}) by Gaussian elimination, as
    {gamma: chat} over every gamma >= mu u nu of size |mu|+|nu|, zeros
    included."""
    field = ws.field
    union = diagram_union(mu, nu)
    gammas = [g for g in partitions_of(size(mu) + size(nu)) if contains(g, union)]
    union_boxes = set(boxes(union))
    poles = sorted({bx for g in gammas for bx in boxes(g) if bx not in union_boxes})
    A = [[field.one if p in boxes(g) else field.zero for g in gammas] for p in poles]
    rhs = star_residues(field, mu, nu)
    return dict(zip(gammas, solve(A, [rhs.get(p, field.zero) for p in poles], field)))


def p_to_m(pvec, n):
    """Convert {mu: scalar} in the p-basis to the m-basis (degree n)."""
    plist, P2M, _ = monomial_powersum_transition(n)
    index = {mu: i for i, mu in enumerate(plist)}
    out = {}
    for mu, c in pvec.items():
        for j, q in enumerate(P2M[index[mu]]):
            if q:
                key = plist[j]
                w = out.get(key)
                w = c * q if w is None else w + c * q
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
    return out


def m_to_p(mvec, n, field):
    """Convert {mu: scalar} in the m-basis to the p-basis (degree n)."""
    plist, _, M2P = monomial_powersum_transition(n)
    index = {mu: i for i, mu in enumerate(plist)}
    out = {}
    for mu, c in mvec.items():
        col = index[mu]
        for i in range(len(plist)):
            q = M2P[i][col]
            if q:
                key = plist[i]
                w = out.get(key)
                term = c * field_fraction(field, q)
                w = term if w is None else w + term
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
    return out


# ---------------------------------------------------------------------------
# Gram-Schmidt Jack basis
# ---------------------------------------------------------------------------

def compute_integral_jacks(field, n):
    """All integral Jacks of degree n: {lam: p-basis dict over the field}."""
    if n == 0:
        return {(): {(): field.one}}
    plist = list(partitions_of(n))  # most dominated first, 1^n at index 0
    m_in_p = {mu: m_to_p({mu: field.one}, n, field) for mu in plist}
    _, P2M, _ = monomial_powersum_transition(n)
    col = plist.index((1,) * n)
    idx = {mu: i for i, mu in enumerate(plist)}

    def pairing(f, g):
        return hall_inner_alpha(f, g, field)

    built = []  # (p-vec, norm)
    out = {}
    for lam in plist:
        vec = dict(m_in_p[lam])
        for jvec, nrm in built:
            c = pairing(vec, jvec)
            if c:
                f = c / nrm
                for k, v in jvec.items():
                    w = vec.get(k)
                    w = -f * v if w is None else w - f * v
                    if w:
                        vec[k] = w
                    elif k in vec:
                        del vec[k]
        nrm = pairing(vec, vec)
        if not nrm:
            raise JackLaxError("Gram-Schmidt degenerated at %s" % (lam,))
        built.append((vec, nrm))
        # normalize [m_{1^n}] J = n!
        lead = field.zero
        for mu, c in vec.items():
            q = P2M[idx[mu]][col]
            if q:
                lead = lead + c * field_fraction(field, q)
        if not lead:
            raise JackLaxError("vanishing m_{1^n} coefficient at %s" % (lam,))
        scale = field.num(factorial(n)) / lead
        out[lam] = {k: v * scale for k, v in vec.items()}
    return out


def homogeneous_jacks(field, n):
    """j = (-e1)^n J(p -> (-e1)^{-1} V): {lam: FockVec} for all lam |- n."""
    me1 = -field.e1
    return {lam: {mu: c * me1 ** (n - len(mu)) for mu, c in pvec.items()}
            for lam, pvec in compute_integral_jacks(field, n).items()}


# ---------------------------------------------------------------------------
# psi-hat expansion by the dense inverse
# ---------------------------------------------------------------------------

def dense_psi_hat_solver(ws, n):
    """(pairs, M^-1) with the columns of M the psi-hat coordinates in H_n."""
    pairs = eigen_pairs(n)
    cols = [vector_to_coords(ws.field.uncleared(ws.psi_hat_row(lam, s)), n, ws.field)
            for lam, s in pairs]
    return pairs, invert([list(row) for row in zip(*cols)], ws.field)


def dense_expand_psi_hat(ws, zeta, solver):
    """Expand a nonzero homogeneous ExtVec in the psi-hat basis as M^-1
    times its coordinates; solver is dense_psi_hat_solver of its degree."""
    pairs, Minv = solver
    sol = matvec(Minv, vector_to_coords(zeta, degree_of(zeta), ws.field), ws.field)
    return {pairs[i]: c for i, c in enumerate(sol) if c}


# ---------------------------------------------------------------------------
# psi-hat expansion by the orthogonal dual over the psi rows
# ---------------------------------------------------------------------------

def psi_row_dual(ws, n):
    """The psi-hat dual of H_n as one DualIndex over the psi rows of degree
    n: each key of H_n pairs with every psi, and the scales are
    tau_lam^s pi_* psi_lam^s / |j_lam|^2."""
    f = ws.field
    labels = eigen_pairs(n)
    scales = [jack_inv_norm_sq(f, lam, tau(f, lam, s) * ws.pi_star_psi(lam, s))
              for lam, s in labels]
    return DualIndex(f, labels, [ws.psi_row(lam, s) for lam, s in labels], ws.gram_row(n),
                     scales)


def psi_row_solver(ws, n):
    """Workspace.psi_hat_solver by psi_row_dual, built once per workspace
    and degree."""
    return ws.memo(("psi-row dual", n), psi_row_dual, n)


# ---------------------------------------------------------------------------
# orthogonal-dual expansions with field weights
# ---------------------------------------------------------------------------

def field_psi_hat_dual(ws, n):
    """(pairs, index, scales): index maps each basis key of H_n to
    [(i, psi_i[key] <key, key>)] with field weights, and scales[i] is
    tau_lam^s pi_* psi_lam^s / |j_lam|^2 for pairs[i] = (lam, s)."""
    f = ws.field
    pairs = eigen_pairs(n)
    gram = {key: monomial_norm_sq(key[1], f) for key in hn_basis(n)}
    index = {key: [] for key in gram}
    scales = []
    for i, (lam, s) in enumerate(pairs):
        for key, c in f.uncleared(ws.psi_row(lam, s)).items():
            index[key].append((i, c * gram[key]))
        scales.append(tau(f, lam, s) * ws.pi_star_psi(lam, s) / ws.norm_sq(lam))
    return pairs, index, scales


def field_expand_psi_hat(zeta, dual):
    """Expand a nonzero homogeneous ExtVec in the psi-hat basis; dual is
    field_psi_hat_dual of its degree."""
    pairs, index, scales = dual
    acc = {}
    for key, c in zeta.items():
        for i, w in index[key]:
            a = acc.get(i)
            acc[i] = c * w if a is None else a + c * w
    return {pairs[i]: acc[i] * scales[i] for i in sorted(acc) if acc[i]}


def inner_hbar_expand_in_jacks(ws, f):
    """FockVec -> {lam: <f_n, j_lam> / |j_lam|^2}, f_n the degree-n part."""
    if not f:
        return {}
    degs = {sum(mu) for mu in f}
    out = {}
    for n in degs:
        part = {mu: c for mu, c in f.items() if sum(mu) == n}
        for lam in partitions_of(n):
            c = field_inner_hbar(part, ws.field.uncleared(ws.jack_row(lam)), ws.field)
            if c:
                out[lam] = c / ws.norm_sq(lam)
    return out


# ---------------------------------------------------------------------------
# the Lax operator and the derivators on field scalars
# ---------------------------------------------------------------------------

def field_lax_apply(field, zeta):
    """L zeta, every coefficient a field scalar."""
    out = {}
    ebar, hbar = field.ebar, field.hbar
    for (m, mu), c in zeta.items():
        if m:
            bump(out, (m, mu), c * ebar * field.num(m))
        # w^{-k} V_k terms, k <= m
        for k in range(1, m + 1):
            bump(out, (m - k, tuple(sorted(mu + (k,), reverse=True))), c)
        # w^k V_{-k} terms: V_{-k} = hbar k d/dV_k
        for k in set(mu):
            d = mu.count(k)
            lst = list(mu)
            lst.remove(k)
            bump(out, (m + k, tuple(lst)), c * hbar * field.num(k * d))
    return out


def field_lax_derivation(field, zeta):
    """D zeta for the derivation part D = sum_k hbar k w^k d/dV_k +
    ebar w d/dw of L, every coefficient a field scalar."""
    out = {}
    for (m, mu), c in zeta.items():
        if m:
            bump(out, (m, mu), c * field.ebar * field.num(m))
        for k in set(mu):
            lst = list(mu)
            lst.remove(k)
            bump(out, (m + k, tuple(lst)), c * field.hbar * field.num(k * mu.count(k)))
    return out


def field_lax_row(field, row):
    """lax.lax_apply by field_lax_apply: the image of the cleared row (nums,
    D) comes back as numerators over D L (L = field.lax_ints[2]), as from
    lax_apply."""
    den = row[1] * field.lax_ints[2]
    img = field_lax_apply(field, field.uncleared(row))
    return {k: row_numerator(c, den) for k, c in img.items()}, den


def row_numerator(c, den):
    """The numerator of the scalar c over the row denominator den: the
    integer c den at a point, the polynomial c den (a BiPoly) over
    Q(e1,e2)."""
    if isinstance(c, Fraction):
        q = c * den
        assert q.denominator == 1
        return q.numerator
    if isinstance(den, Den):
        den = den_scalar(den)
    q = c * den
    assert q.den == _BP_ONE
    return q.num


def den_scalar(den):
    """The row denominator den (a Den) as the scalar it stands for."""
    return ArithCoeff(BiPoly(_times_forms({(0, 0): den.c}, den.forms)))


def pi0_lax_w(field, row):
    """A = pi0 L w on a cleared row, through the Lax operator itself: L
    applied to w times the row, and its w^0 layer kept; the row is over
    D L (as lax_apply's image), not in lowest terms."""
    nums, d = lax_apply(field, (w_mul(row[0]), row[1]))
    return pi0(nums), d


class CoeffVectorField(SymbolicField):
    """Q(e1,e2) with the earlier row format: a row is the Coeff vector
    itself over 1, combine is the v_accum sum, quotient is Coeff division
    and lax_ints = (ebar, hbar, 1) are field scalars.  Every multiply-add
    of the operators then reduces to lowest terms; the library's rows
    (polynomial numerators over one factored denominator) give the same
    vectors."""

    def __init__(self):
        super().__init__()
        self.lax_ints = (self.ebar, self.hbar, 1)

    def clear(self, vec):
        return dict(vec), 1

    def uncleared(self, row):
        return row[0]

    def combine(self, terms):
        out = {}
        for c, (vec, _) in terms:
            v_accum(out, vec, None if c == 1 else c)
        return out, 1

    def quotient(self, num, den):
        return num if den == 1 else num / den


def _field_beta(field, z1, z2):
    """L(ab) - (La)b - a(Lb) of two vectors by field_lax_apply."""
    out = field_lax_apply(field, ext_mul(z1, z2))
    v_accum(out, ext_mul(field_lax_apply(field, z1), z2), -field.one)
    return v_accum(out, ext_mul(z1, field_lax_apply(field, z2)), -field.one)


def _field_theta(field, z1, z2):
    """beta(Pi a, b) + beta(a, Pi b) - Pi beta(a, b) of two vectors by
    _field_beta."""
    out = _field_beta(field, Pi(z1), z2)
    v_accum(out, _field_beta(field, z1, Pi(z2)))
    return v_accum(out, Pi(_field_beta(field, z1, z2)), -field.one)


def field_beta(ws, z1, z2, prod=None, images=None):
    """traces.beta of two cleared rows, composed on their vectors; returns
    the canonical row."""
    f = ws.field
    return f.clear(_field_beta(f, f.uncleared(z1), f.uncleared(z2)))


def field_theta(ws, z1, z2, images=None):
    """traces.theta of two cleared rows, composed on their vectors; returns
    the canonical row."""
    f = ws.field
    return f.clear(_field_theta(f, f.uncleared(z1), f.uncleared(z2)))


def field_pair_traces(ws, row1, row2):
    """The traces of z1 z2, beta(z1, z2) and theta(z1, z2) for the cleared
    rows of z1 and z2, each vector and trace computed on field scalars."""
    f = ws.field
    z1, z2 = f.uncleared(row1), f.uncleared(row2)
    return (field_full_trace(ws, ext_mul(z1, z2)), field_full_trace(ws, _field_beta(f, z1, z2)),
            field_full_trace(ws, _field_theta(f, z1, z2)))


# ---------------------------------------------------------------------------
# the psi-hat layer on field scalars
# ---------------------------------------------------------------------------

def field_full_trace(ws, zeta):
    """Tr(zeta): the psi-hat coefficients of zeta summed as field scalars."""
    x, y, z = {}, {}, {}
    for (lam, s), c in _expand_psi_hat(ws, zeta).items():
        bump(x, add_box(lam, s), c)
        bump(y, s, c)
        bump(z, lam, c)
    return TraceVector(degree_of(zeta) if zeta else 0, x, y, z)


def _expand_psi_hat(ws, zeta):
    """The psi-hat coefficients of a vector, by the runtime expansion of
    its row."""
    return ws.field.uncleared(ws.expand_psi_hat(ws.field.clear(zeta)))


def _psi_hat(ws, lam, s):
    return ws.field.uncleared(ws.psi_hat_row(lam, s))


def field_combine(terms):
    """The cleared row of sum c * nums / D over terms [(c, (nums, D))] at a
    point, summed as Fraction vectors and cleared afterwards."""
    out = {}
    for c, row in terms:
        v_accum(out, v_uncleared(row), Fraction(c))
    return v_clear(out)


def field_inner_hbar(f, g, field):
    """<f, g> multiply-added on field scalars, key by key."""
    f, g = _as_ext(f), _as_ext(g)
    total = field.zero
    for key, a in f.items():
        b = g.get(key)
        if b:
            total = total + a * b * monomial_norm_sq(key[1], field)
    return total


def fraction_rank(A):
    """Rank by Gaussian elimination with field division (rows of Fraction
    or Coeff values)."""
    M = [list(row) for row in A]
    n = len(M)
    if not n:
        return 0
    m = len(M[0])
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        for i in range(r + 1, n):
            if M[i][c]:
                f = M[i][c] / pv
                M[i] = [M[i][j] - f * M[r][j] for j in range(m)]
        r += 1
        if r == n:
            break
    return r


def field_rho_general(ws, xi, zeta):
    """rho(xi) zeta on vectors, each psi-hat vector added with a field
    coefficient."""
    field = ws.field
    xi_exp = _expand_psi_hat(ws, xi)
    by_lam = {}
    for (lam, t), c in _expand_psi_hat(ws, zeta).items():
        by_lam.setdefault(lam, {})[t] = c
    for lam, comp in by_lam.items():
        tot = field.zero
        for c in comp.values():
            tot = tot + c
        if tot:
            raise NotInNullSpace("zeta has a nonzero z-trace on Z_%s" % (lam,))
    out = {}
    for (lam, s), xc in xi_exp.items():
        for t, c in by_lam.get(lam, {}).items():
            if t != s:
                v_accum(out, _psi_hat(ws, add_box(lam, s), t), xc * c)
                v_accum(out, _psi_hat(ws, add_box(lam, t), s), -(xc * c))
    return out


def field_good_normalizer_F(ws, xi):
    """F(xi) on vectors, each psi-hat vector added with a field
    coefficient."""
    field = ws.field
    by_lam = {}
    for (lam, s), c in _expand_psi_hat(ws, xi).items():
        by_lam.setdefault(lam, {})[s] = c
    out = {}
    for lam, comp in by_lam.items():
        tot = field.zero
        for c in comp.values():
            tot = tot + c
        if not tot:
            raise NotGood("Z_%s component has vanishing z-trace" % (lam,))
        for s, c in comp.items():
            v_accum(out, _psi_hat(ws, lam, s), c / tot)
    return out


# ---------------------------------------------------------------------------
# the shc states rebuilt per partition
# ---------------------------------------------------------------------------

def annihilate(nums, mu):
    """prod_k (k d/dV_k) over the parts k of mu, on the numerators of a
    FockVec row (or a FockVec); V_mu^dagger is hbar^l(mu) times this."""
    for k in mu:
        nums = {key: c * k for key, c in deriv_V(nums, k).items()}
    return nums


def fock_adjoint_apply(g, f, field):
    """(Multiplication by g)^dagger applied to f, for cleared FockVec rows
    g and f; returns a cleared row."""
    (gn, gd), (fn, fd) = g, f
    return field.combine([(c * field.hbar ** len(mu), (annihilate(fn, mu), gd * fd))
                          for mu, c in gn.items()])


def field_jhat_dagger(ws, lam, row):
    """jhat_lam^dagger applied to the cleared FockVec row on field scalars,
    V_mu^dagger = hbar^l(mu) prod_k (k d/dV_k), in Jack coordinates."""
    f = ws.field
    vec = f.uncleared(row)
    out = {}
    for mu, c in f.uncleared(ws.jack_row(lam)).items():
        v_accum(out, annihilate(vec, mu), c * f.hbar ** len(mu) / ws.varpi(lam))
    return fock_to_jack(ws, f.clear(out))


def apply_jhat_dagger(ws, mu, state):
    """jhat_mu^dagger on a Jack-coordinate state, through a fresh Fock image."""
    return field_jhat_dagger(ws, mu, jack_to_fock(ws, state))


def generalized_whittaker_lhs(ws, lam, N):
    """-[dPhi, jhat_lam^dagger]|H> on degrees <= N - |lam|, H truncated at N."""
    H = h_state(ws, N)
    a = apply_dPhi(ws, apply_jhat_dagger(ws, lam, H))
    b = pf_clean({k: apply_jhat_dagger(ws, lam, v) for k, v in apply_dPhi(ws, H).items()})
    return pf_truncate(pf_add(pf_scale(a, -ws.field.one), b), N - size(lam))


def delta_via_states(ws, zeta, N):
    """Delta(zeta) = <zeta| dPhi(u) U |G> as {box: scalar} for a vector zeta,
    H truncated at N, each part of dPhi(H) paired with zeta on field
    scalars."""
    out = {}
    for key, st in apply_dPhi(ws, h_state(ws, N)).items():
        val = field_inner_hbar(zeta, ws.field.uncleared(jack_to_fock(ws, st)), ws.field)
        if val:
            out[key[1]] = val
    return out


def field_construction_from_lax_check(ws, n):
    """shc.construction_from_lax_check on field-scalar vectors: each
    resolvent expands in the psi basis by the field-weight dual (the psi-hat
    coefficient over pi_* psi), A = pi0 L w and B = w^{-1} L run by
    field_lax_apply, and Jack coordinates are read by one inner_hbar per
    partition."""
    field = ws.field
    duals = {}

    def expand_psi(zeta):
        m = degree_of(zeta)
        if m not in duals:
            duals[m] = field_psi_hat_dual(ws, m)
        return {(lam, s): c / ws.pi_star_psi(lam, s)
                for (lam, s), c in field_expand_psi_hat(zeta, duals[m]).items()}

    def psi(mu, s):
        return field.uncleared(ws.psi_row(mu, s))

    def op_A(zeta):
        return pi0(field_lax_apply(field, w_mul(zeta)))

    def resolvent(exp, image, shift=(0, 0), scale=None):
        pf = {}
        for (mu, s), c in exp.items():
            for g, c2 in inner_hbar_expand_in_jacks(ws, image(psi(mu, s))).items():
                pf_accum(pf, ("p", (s[0] + shift[0], s[1] + shift[1])), g,
                         c * c2 if scale is None else c * c2 / scale)
        return pf

    out = {"xplus": {}, "yinv": {}, "xminus_lax": {}, "y_equals_minus_Pminus": {}}
    for k in range(n + 1):
        for lam in partitions_of(k):
            jack = field.uncleared(ws.jack_row(lam))
            exp = expand_psi(fock_to_ext(jack))
            out["xplus"].update(pf_residual(resolvent(exp, op_A),
                                            apply_X_plus(ws, {lam: field.one}), lam))
            out["yinv"].update(pf_residual(resolvent(exp, pi0),
                                           apply_diagonal(ws, {lam: field.one}, Yinv_eig), lam))
            if not lam:
                continue
            exp = expand_psi(Pi(field_lax_apply(field, fock_to_ext(jack))))
            direct = apply_X_minus(ws, {lam: field.one})
            out["xminus_lax"].update(pf_residual(resolvent(exp, pi0), direct, lam))
            literal = {}
            for x in rem_set(lam):
                res = Y_eig(field, lam).shift((-1, -1)).residue(x, field)
                pf_accum(literal, ("p", x), remove_box(lam, x), -res)
            out["xminus_lax"].update(pf_residual(literal, direct, ("residue variant", lam)))
            scale = field.hbar * field.num(k)
            expect = {}
            for key, val in sfun_to_pf_keys(field, Y_eig(field, lam)).items():
                if isinstance(key, tuple) and key[0] == "p":
                    pf_accum(expect, key, lam, -val / scale)
            out["y_equals_minus_Pminus"].update(pf_residual(
                resolvent(exp, op_A, (1, 1), scale), expect, lam))
    return out


def lf_ratio(field, num_forms, den_forms, pre=None):
    """pre (default 1) times the product of the forms num_forms over the
    product of den_forms, one field operation per form."""
    val = field.one if pre is None else pre
    for form in num_forms:
        val = val * field.lf(form)
    for form in den_forms:
        val = val / field.lf(form)
    return val


def scan_collision(e1, e2, span=68):
    """The SpecPoint message for the first difference vector (a, b), a
    and b at most span, with a*e1 + b*e2 = 0 and (a+1)(b+1) <= span or
    a*e1 - b*e2 = 0 and a+b <= span; None if there is none."""
    for a in range(span + 1):
        for b in range(span + 1):
            if a == 0 and b == 0:
                continue
            if (a + 1) * (b + 1) <= span and a * e1 + b * e2 == 0:
                return "collision %d*e1 + %d*e2 = 0" % (a, b)
            if a + b <= span and a * e1 - b * e2 == 0:
                return "collision %d*e1 - %d*e2 = 0" % (a, b)
    return None


def field_psi(field, jack, psi, lam, s):
    """psi_lam^s by the corner recursion on field scalars, for lam
    nonempty; jack(lam) and psi(lam, s) give the lower vectors."""
    acc = fock_to_ext(jack(lam))
    for t in rem_set(lam):
        tp = (t[0] + 1, t[1] + 1)
        coeff = tau_tilde(field, lam, tp) / field.lf((s[0] - tp[0], s[1] - tp[1]))
        v_accum(acc, w_mul(psi(remove_box(lam, t), t)), coeff)
    return acc


def field_jacks(field, psi, n):
    """{lam: j_lam} over the partitions of n >= 1 by the Lax recursion on
    field scalars; psi(lam, s) gives the degree-(n-1) eigenfunctions."""
    scale = field.one / (field.num(n) * field.hbar)
    out = {}
    for lam in partitions_of(n):
        q = {}
        for t in rem_set(lam):
            v_accum(q, psi(remove_box(lam, t), t), tau_tilde(field, lam, (t[0] + 1, t[1] + 1)))
        out[lam] = v_scale(pi0(field_lax_apply(field, w_mul(q))), scale)
    return out


class FieldRecursion:
    """psi and the Jacks of one field by field_psi and field_jacks, with
    memos of their own."""

    def __init__(self, field):
        self.field = field
        self.jacks = {0: {(): {(): field.one}}}
        self.psis = {((), (0, 0)): {(0, ()): field.one}}

    def jack(self, lam):
        n = sum(lam)
        if n not in self.jacks:
            self.jacks[n] = field_jacks(self.field, self.psi, n)
        return self.jacks[n][lam]

    def psi(self, lam, s):
        if (lam, s) not in self.psis:
            self.psis[lam, s] = field_psi(self.field, self.jack, self.psi, lam, s)
        return self.psis[lam, s]


# ---------------------------------------------------------------------------
# vector forms of the row path, for the tests
# ---------------------------------------------------------------------------

def vector_to_coords(zeta, n, field):
    """The coordinates of zeta in hn_basis(n), zeros included."""
    basis = hn_basis(n)
    index = {k: i for i, k in enumerate(basis)}
    coords = [field.zero] * len(basis)
    for k, c in zeta.items():
        coords[index[k]] = c
    return coords


def lax_matrix(ws, n):
    """Matrix of L_n in the canonical (w-power, partition) basis."""
    basis = hn_basis(n)
    index = {k: i for i, k in enumerate(basis)}
    cols = []
    for key in basis:
        img = field_lax_apply(ws.field, {key: ws.field.one})
        col = [ws.field.zero] * len(basis)
        for k, c in img.items():
            col[index[k]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def psi_tilde(ws, gamma, t_plus):
    """Eigenfunction of L^+ at an outer corner: w * psi_{gamma-t}^t."""
    return ws.field.uncleared(psi_tilde_row(ws, gamma, t_plus))


def q_poly(ws, gamma):
    """q_gamma = w^{-1} L j_gamma (lives in H_{|gamma|-1})."""
    return ws.field.uncleared(q_poly_row(ws, gamma))


def q_poly_hat(ws, gamma):
    return v_scale(q_poly(ws, gamma), ws.field.one / ws.varpi(gamma))


# ---------------------------------------------------------------------------
# closed forms of paper identities the tests check
# ---------------------------------------------------------------------------

def principal_specialization(row, field):
    """Substitute V_k -> z for all k: {z-degree: scalar} from the cleared
    row of a FockVec."""
    nums, den = row
    out = {}
    for mu, c in nums.items():
        bump(out, len(mu), c)
    return {k: field.quotient(c, den) for k, c in out.items()}


def content_product_poly(field, lam):
    """Coefficients {degree: scalar} of prod_{b in lam} (z + [b])."""
    coeffs = {0: field.one}
    for b in boxes(lam):
        v = field.lf(b)
        new = {}
        for d, c in coeffs.items():
            new[d + 1] = new.get(d + 1, field.zero) + c
            if v:
                new[d] = new.get(d, field.zero) + c * v
        coeffs = {d: c for d, c in new.items() if c}
    return coeffs


def w_action_coeffs(ws, lam, t, hatted=False):
    """w psi_lam^t = sum_s c_s psi_{lam+t}^s; returns {s: c_s}."""
    field = ws.field
    if t not in add_set(lam):
        raise NotAnAddableBox("box (%d,%d) not addable" % t)
    gamma = add_box(lam, t)
    out = {}
    for s in add_set(gamma):
        den = field.lf((s[0] - t[0] - 1, s[1] - t[1] - 1))
        tv = tau_hat(field, gamma, s) if hatted else tau(field, gamma, s)
        out[s] = tv / den
    return out


def Pi_action_coeffs(ws, lam, s, hatted=False):
    """Pi psi_lam^s = sum_t c_t psi_{lam-t}^t; returns {t: c_t}.

    With the fixed tau~ sign the denominator is [s-t-(1,1)]; the opposite
    sign convention flips both tau~ and the denominator."""
    field = ws.field
    if s not in add_set(lam):
        raise NotAnAddableBox("box (%d,%d) not addable" % s)
    out = {}
    for t in rem_set(lam):
        tp = (t[0] + 1, t[1] + 1)
        c = tau_tilde(field, lam, tp) / field.lf((s[0] - tp[0], s[1] - tp[1]))
        if hatted:
            below = remove_box(lam, t)
            c = c * ws.pi_star_psi(below, t) / ws.pi_star_psi(lam, s)
        out[t] = c
    return out


def N_fun(field):
    """N(u) = u(u-[1,1]) / ((u-[1,0])(u-[0,1])), the one-box T function."""
    return sfun_from_factors(field, num=[(0, 0), (1, 1)], den=[(1, 0), (0, 1)])


def sfun_from_factors(field, num=(), den=()):
    """The SpectralFun prod(u - [r], r in num) / prod(u - [r], r in den),
    each root listed as often as its multiplicity."""
    cn, cd = {}, {}
    for r in num:
        cn[r] = cn.get(r, 0) + 1
    for r in den:
        cd[r] = cd.get(r, 0) + 1
    return SpectralFun(field.one, cn, cd)


def sfun_value_at_form(fun, form, field):
    """The SpectralFun fun at u = [form]."""
    try:
        return field.ratio(_forms_at(fun.num, form), _forms_at(fun.den, form), fun.pre)
    except (ZeroDivisionError, ZeroDenominator):
        raise PoleAtSpecPoint("evaluation at a pole") from None


def sfun_value_at(fun, u, field):
    """The SpectralFun fun at a scalar value of u."""
    val = fun.pre
    for r, k in fun.num.items():
        val = val * (u - field.lf(r)) ** k
    for r, k in fun.den.items():
        v = u - field.lf(r)
        if not v:
            raise PoleAtSpecPoint("evaluation at a pole")
        val = val / v ** k
    return val


def sfun_pf_str(fun, field):
    """The partial fractions of fun as text."""
    poly, res = fun.partial_fractions(field)
    parts = []
    for i, c in enumerate(poly):
        if c:
            parts.append("(%s)%s" % (render_coeff(c), "" if i == 0 else "*u^%d" % i))
    for pole in sorted(res):
        parts.append("(%s)/(u - [%d,%d])" % (render_coeff(res[pole]), *pole))
    return " + ".join(parts) if parts else "0"


def sfun_equal(a, b, field):
    """Whether the SpectralFuns a and b are one function: the same factored
    form, or equal cross-multiplied polynomials."""
    if a.num == b.num and a.den == b.den and a.pre == b.pre:
        return True
    return (poly_from_roots(v_accum(dict(a.num), b.den), field, a.pre)
            == poly_from_roots(v_accum(dict(b.num), a.den), field, b.pre))


def poly_from_roots(roots, field, pre):
    """Little-endian coefficients of pre * prod((u - [r])^m), built by
    repeated (u - v) multiplication."""
    coeffs = [pre]
    for r, m in roots.items():
        v = field.lf(r)
        for _ in range(m):
            coeffs = [field.zero] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] = coeffs[i] - v * coeffs[i + 1]
    return _trim_poly(coeffs)


def _trim_poly(p):
    while p and not p[-1]:
        p.pop()
    return p


def expanded_partial_fractions(fun, field):
    """SpectralFun.partial_fractions with the polynomial part by long
    division of the expanded numerator by the expanded denominator."""
    res = {}
    for pole, m in fun.den.items():
        if m != 1:
            raise NotASimplePole("pole of order %d" % m)
        res[pole] = fun.residue(pole, field)
    if fun.degree() < 0:
        return [], res
    a = poly_from_roots(fun.num, field, fun.pre)
    b = poly_from_roots(fun.den, field, field.one)
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
    return _trim_poly(q), res


def _lead_order(key):
    # canonical term order: total degree, then e1-degree
    return (key[0] + key[1], key[0])


def lead_coeff(p):
    """The coefficient of the leading term of the BiPoly p (in the term
    order of arith)."""
    return p.t[max(p.t, key=_lead_order)]


# ---------------------------------------------------------------------------
# the scalar layer without memos, and its sums on field scalars
# ---------------------------------------------------------------------------

def plain_transpose(lam):
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0]))


def plain_add_set(lam):
    """Boxes that can be added (profile minima), sorted by row, as a list."""
    out = []
    for i in range(len(lam) + 1):
        cur = lam[i] if i < len(lam) else 0
        prev = lam[i - 1] if i > 0 else None
        if prev is None or prev > cur:
            out.append((i, cur))
    return out


def plain_rem_set(lam):
    """Boxes that can be removed, sorted by row, as a list."""
    out = []
    for i, row in enumerate(lam):
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if row > nxt:
            out.append((i, row - 1))
    return out


def plain_rem_set_plus(lam):
    return [(i + 1, j + 1) for (i, j) in plain_rem_set(lam)]


def plain_add_box(lam, b):
    if b not in plain_add_set(lam):
        raise JackLaxError("box (%d,%d) not addable" % b)
    rows = list(lam) + [0]
    rows[b[0]] += 1
    return partition(rows)


def plain_remove_box(lam, b):
    if b not in plain_rem_set(lam):
        raise JackLaxError("box (%d,%d) not removable" % b)
    rows = list(lam)
    rows[b[0]] -= 1
    return partition(rows)


def _diffs(x, boxes, skip=None):
    return [(x[0] - b[0], x[1] - b[1]) for b in boxes if b != skip]


def plain_tau(field, lam, s):
    """tau_lam^s computed afresh, with no memo."""
    add = plain_add_set(lam)
    if s not in add:
        raise JackLaxError("box (%d,%d) not addable" % s)
    return field.ratio(_diffs(s, plain_rem_set_plus(lam)), _diffs(s, add, s))


def plain_tau_tilde(field, lam, t_plus):
    """tau~_lam^t computed afresh, with no memo."""
    outer = plain_rem_set_plus(lam)
    if t_plus not in outer:
        raise JackLaxError("box (%d,%d) not an outer corner" % t_plus)
    return field.ratio(_diffs(t_plus, plain_add_set(lam)), _diffs(t_plus, outer, t_plus),
                       -field.one)


def T1_scalar(field, form):
    """T_1 at the linear form x, [x][x+(1,1)] / ([x+(1,0)][x+(0,1)]);
    JackLaxError where a factor of the denominator vanishes."""
    a, b = form
    try:
        return field.ratio((form, (a + 1, b + 1)), ((a + 1, b), (a, b + 1)))
    except (ZeroDivisionError, ZeroDenominator):
        raise JackLaxError("T1 undefined at [%d,%d]" % form) from None


def scalar_verify_tau_identities(field, lam, s):
    """spectral.verify_tau_identities with one field operation per factor:
    hbar, T_1 and the linear forms are multiplied and divided in, and tau,
    tau~ come from plain_tau and plain_tau_tilde.  The same residual."""
    out = []
    A = plain_add_set(lam)
    lam_s = plain_add_box(lam, s)
    for b in A:
        if b != s:
            rhs = T1_scalar(field, (s[0] - b[0], s[1] - b[1])) * plain_tau(field, lam, b)
            out.append((("tau_add_shift", b), plain_tau(field, lam_s, b), rhs))
    for t in plain_rem_set_plus(lam):
        if t in plain_rem_set_plus(lam_s):
            rhs = plain_tau_tilde(field, lam, t) / T1_scalar(field, (s[0] - t[0], s[1] - t[1]))
            out.append((("tau_tilde_add_shift", t), plain_tau_tilde(field, lam_s, t), rhs))
    if field.lf(s) and field.lf((s[0] + 1, s[1] + 1)):
        lhs = field.hbar / (field.lf(s) * field.lf((s[0] + 1, s[1] + 1)))
        out.append((("hbar_T1", s), lhs, field.one - field.one / T1_scalar(field, s)))
    R = plain_rem_set(lam)
    for sp in ([s] if s in R else R):
        acc = field.zero
        for q in A:
            d1 = (sp[0] - q[0], sp[1] - q[1])
            d2 = (d1[0] + 1, d1[1] + 1)
            acc = acc + field.hbar * plain_tau(field, lam, q) / (field.lf(d1) * field.lf(d2))
        out.append((("tau_sum", sp), acc, plain_tau(field, plain_remove_box(lam, sp), sp)))
    acc = field.zero
    for t in plain_rem_set_plus(lam):
        d1 = (s[0] - t[0], s[1] - t[1])
        d2 = (d1[0] + 1, d1[1] + 1)
        acc = acc + field.hbar * plain_tau_tilde(field, lam, t) / (field.lf(d1) * field.lf(d2))
    rhs = -field.hbar + plain_tau_tilde(field, lam_s, (s[0] + 1, s[1] + 1))
    out.append((("tau_tilde_sum", s), acc, rhs))
    return {obj: (lhs, rhs) for obj, lhs, rhs in out if lhs != rhs}


def scalar_jhat_dagger(ws, lam, row, memo):
    """shc.jhat_dagger with a field scalar per term: the coefficient of
    term mu is J[mu] hbar^l(mu) / (D varpi_lam), hbar^l from a list of
    field scalars."""
    field = ws.field
    if not memo:
        memo[()] = row
    nums, d = ws.jack_row(lam)
    scales = [field.one / (ws.varpi(lam) * d)]
    for _ in range(max(map(len, nums))):
        scales.append(scales[-1] * field.hbar)
    terms = [(scales[len(mu)] * c, _dagger_row(memo, mu)) for mu, c in nums.items()]
    return fock_to_jack(ws, field.combine(terms))


def scalar_jack_lr(ws, mu, nu, hatted=False):
    """lr.jack_lr with the hatted entries c varpi_gamma / (varpi_mu varpi_nu)
    multiplied and divided on field scalars."""
    table = ws.field.uncleared(ws.expand_in_jacks(jack_product(ws, mu, nu)))
    if hatted:
        vm = ws.varpi(mu) * ws.varpi(nu)
        table = {g: c * ws.varpi(g) / vm for g, c in table.items()}
    return table


# ---------------------------------------------------------------------------
# Q(e1,e2) reduced by a general bivariate gcd
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


def _rows(A):
    """As a list indexed by e1-degree of little-endian e2-polys."""
    d1 = max(k[0] for k in A.t)
    rows = [[] for _ in range(d1 + 1)]
    for (i, j), c in A.t.items():
        row = rows[i]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c
    return [_u_trim(r) for r in rows]

def _from_rows(rows):
    t = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if c:
                t[(i, j)] = c
    return BiPoly(t)


def _bp_gcd(A, B):
    if not A.t:
        return _bp_pos(B)
    if not B.t:
        return _bp_pos(A)
    if len(A.t) <= 1 or len(B.t) <= 1:
        # monomial gcd: min exponents over the other's support
        i1 = min(k[0] for k in A.t)
        j1 = min(k[1] for k in A.t)
        i2 = min(k[0] for k in B.t)
        j2 = min(k[1] for k in B.t)
        c = _igcd(_int_content(A), _int_content(B))
        key = (min(i1, i2), min(j1, j2))
        if len(A.t) <= 1 and len(B.t) <= 1:
            return BiPoly({key: c})
        # gcd(monomial, poly) = common monomial factor
        return BiPoly({key: c})
    ra, rb = _rows(A), _rows(B)
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
    return _bp_pos(_from_rows(g))


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
    if A.t and lead_coeff(A) < 0:
        return -A
    return A


def _bp_divexact(A, G):
    """Exact division A / G of bivariate integer polynomials."""
    if not A.t:
        return _BP_ZERO
    if G == _BP_ONE:
        return A
    if len(G.t) <= 1:
        (gi, gj), gc = next(iter(G.t.items()))
        out = {}
        for (i, j), c in A.t.items():
            if i < gi or j < gj or c % gc:
                raise ArithmeticError("inexact division")
            out[(i - gi, j - gj)] = c // gc
        return BiPoly(out)
    rows_a = _rows(A)
    rows_g = _rows(G)
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
    return _from_rows(q)


class Coeff:
    """Element of Q(e1,e2), kept as a reduced fraction num/den with the
    denominator's canonical leading coefficient positive: any denominator,
    reduced by the bivariate gcd."""

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
        if lead_coeff(den) < 0:
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
        return self.den == _BP_ONE and self.num.t.keys() <= {(0, 0)}

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
        if lead_coeff(den) < 0:
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
        if lead_coeff(other.num) < 0:
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




def parse_coeff(s):
    """The text form of render_coeff read back into an oracle Coeff."""
    if " / " in s:
        num, den = s.split(" / ")
        return Coeff(_parse_poly(num), _parse_poly(den))
    return Coeff(_parse_poly(s), _BP_ONE)


# ---------------------------------------------------------------------------
# integer polynomials as term dicts {(deg1, deg2): coeff}
# ---------------------------------------------------------------------------

# The arithmetic BiPoly ran before it packed each graded part into one
# integer: sums and products term by term, trial division by a form as
# synthetic division of each graded part's coefficient list, exact division
# as graded long division, and the split of a polynomial into linear forms.

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


def _divisors(n):
    n = abs(n)
    return [x for x in range(1, min(n, SAFE_SPAN) + 1) if not n % x]


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
    coefficient.  Candidates are drawn up to SAFE_SPAN, past any form a
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


def _least_row(nums, k, forms):
    """The canonical (numerator term dicts, c, forms) of the vector
    nums / (k [forms]), nums a dict of nonzero term dicts: the integer and
    the forms that divide every numerator come out."""
    if k != 1:
        g = k
        for t in nums.values():
            g = _igcd(g, _content(t))
        nums = {key: {e: c // g for e, c in t.items()} for key, t in nums.items()}
        k //= g
    left = dict(forms)
    for f in forms:
        while left.get(f):
            qs = {key: _over_form(t, f) for key, t in nums.items()}
            if None in qs.values():
                break
            nums = qs
            left[f] -= 1
    return nums, k, {f: m for f, m in left.items() if m}
