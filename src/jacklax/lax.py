"""The quantum Lax operator on H = F[w] and its polynomial eigenfunctions.

L = pi_w sum_k (w^{-k} V_k + w^k V_{-k}) + ebar * w d/dw, acting on ExtVecs.
Split as L = pi_w M + D: M = sum_k w^{-k} V_k multiplies, and
D = sum_k hbar k w^k d/dV_k + ebar w d/dw is a derivation (lax_mult is
pi_w M).
Its eigenfunctions psi_lam^s (s addable to lam) are built by the corner
recursion
    psi_lam^s = j_lam + w * sum_{t in R_lam}
                   tau~_lam^{t+(1,1)} / [s-t-(1,1)] * psi_{lam-t}^t,
and satisfy L psi = [s] psi with pi0 psi = j_lam.

Each Jack splits into the eigenfunctions of its own partition,
j_lam = sum_{s in A(lam)} tau_lam^s psi_lam^s (the spectral checks `jacksum`
and `eigen`), so psi_lam^s is the spectral projection of j_lam:
    psi_lam^s = prod_{u in A(lam), u != s} (L - [u]) j_lam
                / prod_{o in R+(lam)} ([s] - [o]),
as each factor L - [u] kills psi_lam^u and scales psi_lam^s by [s] - [u],
and tau_lam^s = prod_o ([s] - [o]) / prod_{u != s} ([s] - [u]).  The forms
[s] - [o] = [s-t-(1,1)] are those the corner recursion divides by, so the
two paths fail at the same points.

psi_from_jack runs the projector and reads j_lam only: `psi show` uses it,
as one psi then costs one Jack degree and at most |A(lam)| - 1 Lax steps,
where the recursion builds the psi rows of every degree below.
Workspace.psi_row keeps the recursion, the cheaper way to every psi of a
degree (the suites, `cache warm`, and the Jack builder, which needs the
psi below its degree and so cannot use the projector): on a 2-core x86-64
machine under CPython 3.11, the Jacks and every psi to degree 6 over
Q(e1,e2) took 0.019 s by the recursion, and the projector took 0.031 s
more for the psi alone; at a point to degree 8, 0.015 s against 0.029 s.
"""

from functools import lru_cache

from .errors import EmptyPartition, NotARemovableCorner, NotAnAddableBox
from .fock import Pi, bump, degree_of, fock_to_ext, hn_basis, pi_plus, w_mul
from .partitions import add_set, format_partition, rem_set, rem_set_plus, remove_box
from .report import row_residual
from .spectral import tau_tilde


# ---------------------------------------------------------------------------
# the operator itself
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lax_moves(key):
    """Where L sends w^m V_mu: (m, the keys of the w^{-k} V_k terms for
    k <= m, the (key, k d_k) pairs of the w^k V_{-k} = hbar k d/dV_k
    terms); the w d/dw term keeps the key with weight ebar m."""
    m, mu = key
    lower = tuple((m - k, tuple(sorted(mu + (k,), reverse=True)))
                  for k in range(1, m + 1))
    raised = []
    for k in set(mu):
        lst = list(mu)
        lst.remove(k)
        raised.append(((m + k, tuple(lst)), k * mu.count(k)))
    return m, lower, tuple(raised)


def _lax_loop(zeta, ebar, hbar, one):
    """one * L zeta, for entries and constants in any ring, with ebar and
    hbar given already multiplied by one."""
    out = {}
    for key, c in zeta.items():
        m, lower, raised = _lax_moves(key)
        if m:
            bump(out, key, c * ebar * m)
        c1 = c if one == 1 else c * one
        for k in lower:
            bump(out, k, c1)
        for k, kd in raised:
            bump(out, k, c * hbar * kd)
    return out


def lax_apply(field, row):
    """Apply L to the cleared row (nums, D) of an ExtVec.

    The loop runs on the numerators, with ebar and hbar entering as the
    numerators L ebar and L hbar of field.lax_ints, so the image is the
    row of those numerators over D L, not in lowest terms.  (At a point
    these are integers; over Q(e1,e2) they are polynomials, and L = 1.)"""
    ebar, hbar, den = field.lax_ints
    nums, d = row
    return _lax_loop(nums, ebar, hbar, den), d * den


def lax_mult(row):
    """pi_w M on the cleared row of an ExtVec: the w^{-k} V_k moves of L
    (k <= m), each with weight 1, so the image is a row over the same D.
    It commutes with Pi, as M commutes with w^{-1} and the w^0 part of a
    vector has no moves."""
    nums, d = row
    out = {}
    for key, c in nums.items():
        for k in _lax_moves(key)[1]:
            w = out.get(k)
            if w is None:
                out[k] = c
            else:
                w += c
                if w:
                    out[k] = w
                else:
                    del out[k]
    return out, d


def op_A(field, row):
    """A = pi0 L w : H_n -> F_{n+1} on a cleared row (returns a FockVec
    row over the same D).

    By Euler's relation the w^0 part of L w^(m+1) V_mu is V_{m+1} V_mu:
    the other moves of L keep a positive power of w.  So A sends the key
    (m, mu) to mu with a part m+1 added, with weight 1; keys that meet
    are summed."""
    out = {}
    for (m, mu), c in row[0].items():
        bump(out, tuple(sorted(mu + (m + 1,), reverse=True)), c)
    return out, row[1]


def op_B(field, row):
    """B = w^{-1} L restricted to F on a cleared FockVec row (returns an
    ExtVec row)."""
    nums, d = lax_apply(field, (fock_to_ext(row[0]), row[1]))
    return Pi(nums), d


def lax_plus_shift_check(ws, n):
    """w^{-1} L+_{n+1} w = L_n + ebar, as matrices on H_n: the residual
    keyed by (basis vector, coordinate)."""
    field = ws.field
    out = {}
    for key in hn_basis(n):
        one = field.clear({key: field.one})
        nums, d = lax_apply(field, (w_mul(one[0]), one[1]))
        terms = [(1, (Pi(pi_plus(nums)), d)), (-1, lax_apply(field, one)), (-field.ebar, one)]
        out.update(row_residual(field, terms, key))
    return out


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def _check_box(lam, s):
    """Raise NotAnAddableBox unless s is addable to lam."""
    if not lam and s != (0, 0):
        raise NotAnAddableBox("only (0,0) is addable to the empty partition")
    if s not in add_set(lam):
        raise NotAnAddableBox("box (%d,%d) not addable to %s"
                              % (s[0], s[1], format_partition(lam)))


def compute_psi(ws, lam, s):
    """psi_lam^s by the corner recursion in the module docstring.

    Reads j_lam through ws.jack_row, whose builder in turn reads the
    degree-(|lam|-1) eigenfunctions through ws.psi_row: the two recursions
    alternate down the degrees.  Both run on cleared rows (field.combine)
    and the psi row is returned."""
    field = ws.field
    _check_box(lam, s)
    if not lam:
        return field.clear({(0, ()): field.one})
    nums, d = ws.jack_row(lam)
    terms = [(1, (fock_to_ext(nums), d))]
    for t in rem_set(lam):
        tp = (t[0] + 1, t[1] + 1)
        form = (s[0] - tp[0], s[1] - tp[1])
        if not field.lf(form):
            raise ZeroDivisionError("degenerate denominator in psi recursion")
        nums, d = ws.psi_row(remove_box(lam, t), t)
        terms.append((field.ratio((), (form,), tau_tilde(field, lam, tp)), (w_mul(nums), d)))
    return field.combine(terms)


def psi_from_jack(ws, lam, s, hatted=False):
    """The cleared row of psi_lam^s (psi-hat_lam^s if hatted) by the
    spectral projector of the module docstring: one Jack row, |A(lam)| - 1
    Lax steps, one field.combine per step, the last one scaled by
    1 / prod_o ([s] - [o]), times 1 / ([s] varpi_lam) if hatted.  The box
    is checked before any division."""
    field = ws.field
    _check_box(lam, s)
    pre = field.one / ws.pi_star_psi(lam, s) if hatted else None
    scale = field.ratio((), [(s[0] - o[0], s[1] - o[1]) for o in rem_set_plus(lam)], pre)
    nums, d = ws.jack_row(lam)
    row = (fock_to_ext(nums), d)
    others = [u for u in add_set(lam) if u != s]
    if not others:
        return field.combine([(scale, row)])
    for i, u in enumerate(others, 1):
        c = scale if i == len(others) else field.one
        row = field.combine([(c, lax_apply(field, row)), (-c * field.lf(u), row)])
    return row


def psi_tilde_row(ws, gamma, t_plus):
    """The cleared row of psi~ at the outer corner t_plus of gamma."""
    if not gamma:
        raise EmptyPartition("psi~ needs a nonempty partition")
    if t_plus not in rem_set_plus(gamma):
        raise NotARemovableCorner("box (%d,%d) not an outer corner" % t_plus)
    t = (t_plus[0] - 1, t_plus[1] - 1)
    nums, d = ws.psi_row(remove_box(gamma, t), t)
    return w_mul(nums), d


def q_poly_row(ws, gamma):
    """The cleared row of q_gamma = B j_gamma."""
    if not gamma:
        raise EmptyPartition("q is defined for nonempty partitions")
    return ws.field.combine([(1, op_B(ws.field, ws.jack_row(gamma)))])


# ---------------------------------------------------------------------------
# the diamond projection
# ---------------------------------------------------------------------------

def pi_diamond(ws, row):
    """The rank-p(n+1) projection (1/((n+1) hbar)) B A on H_n, on a
    cleared row; returns the canonical row of the image.

    (The normalizer (n+1) hbar, with gamma |- n+1, is what makes this
    idempotent: A q_gamma = |gamma| hbar j_gamma.)"""
    field = ws.field
    n = degree_of(row[0]) if row[0] else 0
    return field.combine([(field.one / (field.num(n + 1) * field.hbar),
                           op_B(field, op_A(field, row)))])


def phi_column_coeff(ws, r, k, s):
    """phi_{1^r,1^k}^s = [s] * prod of column contents (k+1..r-1) for k<r."""
    field = ws.field
    val = field.lf(s)
    for i in range(k + 1, r):
        val = val * field.lf((i, 0))
    return val
