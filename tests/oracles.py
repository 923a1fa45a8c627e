"""Independent test oracles for algorithms the library no longer runs.

The Jack basis is built at runtime from the Lax eigenfunction recursion.
Here it is rebuilt the classical way: Gram-Schmidt against the
alpha-deformed Hall product over the monomial basis, taken in the fixed
dominance-compatible order, then rescaled to [m_{1^n}] J = n!.  The
monomial <-> power-sum transition matrices it needs live here too.

The psi-hat and Jack expansions are computed at runtime from one integer
dual index per degree (session.DualIndex).  Here they are computed three
other ways: the psi-hat expansion as the solution of the dense coordinate
system (the inverse of the matrix whose columns are the psi-hat vectors)
and by the same orthogonal dual with field weights, and the Jack expansion
by one inner_hbar per partition.

At a specialized point the Lax operator and the beta/theta derivators run
on integer numerators over one denominator.  Here they run on field
scalars, each derivator composed afresh from its three operator images.

The Whittaker and Delta checks of the shc suite share one H context per
workspace and degree (shc.h_context) and memoise each V_mu^dagger image.
Here H, its Fock image and each jhat_lam^dagger image are rebuilt for
every partition.

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
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from jacklax.errors import JackLaxError, NotGood, NotInNullSpace
from jacklax.fock import (Pi, _as_ext, bump, degree_of, ext_mul, fock_adjoint_apply,
                          fock_to_ext, hall_inner_alpha, hn_basis, inner_hbar,
                          monomial_norm_sq, pi0, v_accum, v_clear, v_scale, v_uncleared,
                          vector_to_coords, w_mul)
from jacklax.linalg import invert, matvec
from jacklax.partitions import (add_box, eigen_pairs, partition, partitions_of, rem_set,
                                 remove_box, size)
from jacklax.shc import (apply_dPhi, fock_to_jack, h_state, jack_to_fock, pf_add,
                         pf_clean, pf_scale, pf_truncate)
from jacklax.spectral import tau, tau_tilde
from jacklax.traces import TraceVector


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
                term = c * field.from_fraction(q)
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
                lead = lead + c * field.from_fraction(q)
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
    cols = [vector_to_coords(ws.psi_hat(lam, s), n, ws.field) for lam, s in pairs]
    return pairs, invert([list(row) for row in zip(*cols)], ws.field)


def dense_expand_psi_hat(ws, zeta, solver):
    """Expand a nonzero homogeneous ExtVec in the psi-hat basis as M^-1
    times its coordinates; solver is dense_psi_hat_solver of its degree."""
    pairs, Minv = solver
    sol = matvec(Minv, vector_to_coords(zeta, degree_of(zeta), ws.field), ws.field)
    return {pairs[i]: c for i, c in enumerate(sol) if c}


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
        for key, c in ws.psi(lam, s).items():
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
            c = inner_hbar(part, ws.jack(lam), ws.field)
            if c:
                out[lam] = c / ws.norm_sq(lam)
    return out


# ---------------------------------------------------------------------------
# the Lax operator and the derivators on field scalars
# ---------------------------------------------------------------------------

def field_lax_apply(field, zeta, cleared=False):
    """L zeta, every coefficient a field scalar.  With cleared=True zeta
    holds integer numerators and, as from lax.lax_apply, the integers
    L * (L zeta) come back, L = field.lax_ints[2]."""
    if cleared:
        den = field.lax_ints[2]
        img = field_lax_apply(field, {k: field.num(v) for k, v in zeta.items()})
        return {k: int(c * den) for k, c in img.items()}
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


def field_beta(ws, z1, z2):
    """L(ab) - (La)b - a(Lb) by field_lax_apply."""
    field = ws.field
    out = field_lax_apply(field, ext_mul(z1, z2))
    v_accum(out, ext_mul(field_lax_apply(field, z1), z2), -field.one)
    return v_accum(out, ext_mul(z1, field_lax_apply(field, z2)), -field.one)


def field_theta(ws, z1, z2):
    """beta(Pi a, b) + beta(a, Pi b) - Pi beta(a, b) by field_beta."""
    out = field_beta(ws, Pi(z1), z2)
    v_accum(out, field_beta(ws, z1, Pi(z2)))
    return v_accum(out, Pi(field_beta(ws, z1, z2)), -ws.field.one)


def field_pair_traces(ws, row1, row2):
    """The traces of z1 z2, beta(z1, z2) and theta(z1, z2) for the cleared
    rows of z1 and z2, each vector and trace computed on field scalars."""
    z1, z2 = ws.field.uncleared(row1), ws.field.uncleared(row2)
    return (field_full_trace(ws, ext_mul(z1, z2)), field_full_trace(ws, field_beta(ws, z1, z2)),
            field_full_trace(ws, field_theta(ws, z1, z2)))


# ---------------------------------------------------------------------------
# the psi-hat layer on field scalars
# ---------------------------------------------------------------------------

def field_full_trace(ws, zeta):
    """Tr(zeta): the psi-hat coefficients of zeta summed as field scalars."""
    x, y, z = {}, {}, {}
    for (lam, s), c in ws.expand_psi_hat(zeta).items():
        bump(x, add_box(lam, s), c)
        bump(y, s, c)
        bump(z, lam, c)
    return TraceVector(degree_of(zeta) if zeta else 0, x, y, z)


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
    xi_exp = ws.expand_psi_hat(xi)
    by_lam = {}
    for (lam, t), c in ws.expand_psi_hat(zeta).items():
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
                v_accum(out, ws.psi_hat(add_box(lam, s), t), xc * c)
                v_accum(out, ws.psi_hat(add_box(lam, t), s), -(xc * c))
    return out


def field_good_normalizer_F(ws, xi):
    """F(xi) on vectors, each psi-hat vector added with a field
    coefficient."""
    field = ws.field
    by_lam = {}
    for (lam, s), c in ws.expand_psi_hat(xi).items():
        by_lam.setdefault(lam, {})[s] = c
    out = {}
    for lam, comp in by_lam.items():
        tot = field.zero
        for c in comp.values():
            tot = tot + c
        if not tot:
            raise NotGood("Z_%s component has vanishing z-trace" % (lam,))
        for s, c in comp.items():
            v_accum(out, ws.psi_hat(lam, s), c / tot)
    return out


# ---------------------------------------------------------------------------
# the shc states rebuilt per partition
# ---------------------------------------------------------------------------

def field_jhat_dagger(ws, lam, vec):
    """jhat_lam^dagger applied to the FockVec vec on field scalars, in Jack
    coordinates."""
    jhat = {k: c / ws.varpi(lam) for k, c in ws.jack(lam).items()}
    return fock_to_jack(ws, fock_adjoint_apply(jhat, vec, ws.field))


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
    """Delta(zeta) = <zeta| dPhi(u) U |G> as {box: scalar}, H truncated at N."""
    out = {}
    for key, st in apply_dPhi(ws, h_state(ws, N)).items():
        val = inner_hbar(zeta, jack_to_fock(ws, st), ws.field)
        if val:
            out[key[1]] = val
    return out


# ---------------------------------------------------------------------------
# the scalar layer, the point check and the recursions on field scalars
# ---------------------------------------------------------------------------

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
