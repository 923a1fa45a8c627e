"""Jack and Jack-Lax Littlewood-Richardson coefficients, the sum-product
identity checker, and the basic evaluation map with its kernel cycles.

The central identity: for mu, nu nonempty,
    sum_{gamma >= mu u nu} chat_{mu nu}^gamma sum_{s in gamma/(mu u nu)}
        1/(u-[s])   =   T_{mu*nu}(u) - 1,
with chat = c * varpi_gamma / (varpi_mu varpi_nu).
"""

from .errors import JackLaxError, NotACycle
from .fock import bump, ext_mul, fock_mul
from .linalg import rank
from .partitions import (boxes, boxes_x, contains, diagram_union, partition_pairs,
                         partitions_of, size)
from .report import map_residual, residual, row_residual
from .spectral import star_residues


# ---------------------------------------------------------------------------
# LR tables
# ---------------------------------------------------------------------------

def jack_product(ws, mu, nu):
    """The cleared row of j_mu j_nu."""
    (a, da), (b, db) = ws.jack_row(mu), ws.jack_row(nu)
    return fock_mul(a, b), da * db


def jack_lr(ws, mu, nu, hatted=False):
    """{gamma: c_{mu nu}^gamma} (or hatted) from the exact expansion of
    the row of j_mu j_nu.  The hatted chat = c varpi_gamma / (varpi_mu
    varpi_nu) is one field.ratio of the contents of gamma per entry, over
    one scale per (mu, nu)."""
    field = ws.field
    row = ws.expand_in_jacks(jack_product(ws, mu, nu))
    if not hatted:
        return field.uncleared(row)
    nums, den = row
    scale = field.ratio((), boxes_x(mu) + boxes_x(nu), field.quotient(field.one, den))
    return {g: field.ratio(boxes_x(g), (), c * scale) for g, c in nums.items()}


def jacklax_lr(ws, lam, s, nu, t, hatted=False):
    """{(gamma, u): coefficient} of psi_lam^s psi_nu^t in the psi basis
    (psi-hat_lam^s psi-hat_nu^t in the psi-hat basis if hatted), expanded
    from the row of the product; psi_gamma^u = pi_* psi_gamma^u
    psi-hat_gamma^u."""
    row = ws.psi_hat_row if hatted else ws.psi_row
    (a, da), (b, db) = row(lam, s), row(nu, t)
    table = ws.field.uncleared(ws.expand_psi_hat((ext_mul(a, b), da * db)))
    if hatted:
        return table
    return {(g, u): c / ws.pi_star_psi(g, u) for (g, u), c in table.items()}


# ---------------------------------------------------------------------------
# the main sum-product identity
# ---------------------------------------------------------------------------

def main_theorem_residual(ws, mu, nu):
    """LHS minus RHS as a residual {pole: (value, 0)}, empty iff the
    identity holds; a coefficient of a gamma that does not contain
    mu u nu (the selection rule) is a residual entry too.

    Both sides are one field.combine of rows keyed by pole: each chat
    enters as its numerator in the Jack expansion row of j_mu j_nu, scaled
    by varpi_gamma / (varpi_mu varpi_nu), and the star residues as one row,
    so no chat is reduced on its own."""
    if not mu or not nu:
        raise JackLaxError("mu, nu must be nonempty")
    field = ws.field
    union = diagram_union(mu, nu)
    union_boxes = set(boxes(union))
    nums, den = ws.expand_in_jacks(jack_product(ws, mu, nu))
    forms_mn = boxes_x(mu) + boxes_x(nu)
    terms, outside = [], {}
    for gamma, c in nums.items():
        if not contains(gamma, union):
            outside[("selection rule", gamma)] = (field.quotient(c, den), 0)
            continue
        terms.append((field.ratio(boxes_x(gamma), forms_mn),
                      ({b: c for b in boxes(gamma) if b not in union_boxes}, den)))
    terms.append((-1, field.clear(star_residues(field, mu, nu))))
    outside.update(row_residual(field, terms))
    return outside


def determination_check(ws, n):
    """Whether the pole equations determine the hatted LR coefficients of
    every pair with |mu|+|nu| = n (claimed for n < 7), as a residual.  The
    equations form a 0/1 incidence matrix (poles by gamma), and at full
    column rank a system has at most one solution: the coefficients are
    determined iff the rank is full and the true table (jack_lr, hatted)
    satisfies every equation, so no system is solved.  An inconsistent one
    fails its pair."""
    field = ws.field
    out = []
    for mu, nu in partition_pairs(n):
        if size(mu) + size(nu) != n:
            continue
        union = diagram_union(mu, nu)
        gammas = [g for g in partitions_of(n) if contains(g, union)]
        union_boxes = set(boxes(union))
        poles = sorted({bx for g in gammas for bx in boxes(g)
                        if bx not in union_boxes})
        pos = {p: i for i, p in enumerate(poles)}
        rhs_map = star_residues(field, mu, nu)
        A = [[0] * len(gammas) for _ in poles]
        for j, g in enumerate(gammas):
            for bx in boxes(g):
                if bx not in union_boxes:
                    A[pos[bx]][j] = 1
        r = rank(A)
        if r < len(gammas):
            out.append((("rank", (mu, nu)), r, len(gammas)))
            continue
        truth = jack_lr(ws, mu, nu, hatted=True)
        x = [truth.get(g, field.zero) for g in gammas]
        for row, p in zip(A, poles):
            out.append((("pole", (mu, nu, p)), sum((c for a, c in zip(row, x) if a), field.zero),
                        rhs_map.get(p, field.zero)))
    return residual(out)


# ---------------------------------------------------------------------------
# the basic evaluation map Delta
# ---------------------------------------------------------------------------

def delta_map(ws, row):
    """Delta(f) of the cleared row of f as a partial-fraction map
    {pole-box: scalar}.

    On the Jack basis: Delta(j_lam) = varpi_lam sum_{b in lam} 1/(u-[b])."""
    out = {}
    for lam, c in ws.field.uncleared(ws.expand_in_jacks(row)).items():
        w = c * ws.varpi(lam)
        for b in boxes(lam):
            bump(out, b, w)
    return out


def delta_of_jack_product(ws, mu, nu):
    """Closed form varpi_mu varpi_nu (T_{mu*nu} - 1) as a pole map."""
    field = ws.field
    vm = ws.varpi(mu) * ws.varpi(nu)
    return {p: vm * r for p, r in star_residues(field, mu, nu).items()}


def is_cycle(lams):
    """Even closed chain of single-box moves where every box is used an even
    number of times in total."""
    N = len(lams)
    if N == 0 or N % 2:
        return False
    counts = {}
    for lam in lams:
        for b in boxes(lam):
            counts[b] = counts.get(b, 0) + 1
    if any(v % 2 for v in counts.values()):
        return False
    for i, lam in enumerate(lams):
        nxt = lams[(i + 1) % N]
        if size(lam) != size(nxt):
            return False
        a = set(boxes(lam)) - set(boxes(nxt))
        b = set(boxes(nxt)) - set(boxes(lam))
        if len(a) != 1 or len(b) != 1:
            return False
    return True


def delta_kernel_check(ws, lams):
    """Delta(sum (-1)^i jhat_{lam_i}) = 0 for an N-cycle, as a residual
    keyed by pole."""
    if not is_cycle(lams):
        raise NotACycle("input is not an N-cycle")
    field = ws.field
    return map_residual(delta_map(ws, field.combine([((-1) ** i / ws.varpi(lam), ws.jack_row(lam))
                                                     for i, lam in enumerate(lams)])), {})


def delta_kernel_rank(n):
    """dim ker Delta_n from the box-incidence matrix over Q (integer data)."""
    plist = partitions_of(n)
    cols = sorted({b for lam in plist for b in boxes(lam)})
    pos = {b: i for i, b in enumerate(cols)}
    rows = []
    for lam in plist:
        row = [0] * len(cols)
        for b in boxes(lam):
            row[pos[b]] = 1
        rows.append(row)
    return len(plist) - rank(rows)
