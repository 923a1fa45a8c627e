"""Homogeneous Jack functions, their norms, and the Stanley Pieri rule.

The Jacks of degree n come from the degree-(n-1) Lax eigenfunctions.  The
shift identity L j_lam = sum_{t in R_lam} tau~_lam^{t+(1,1)} w psi_{lam-t}^t
and Euler's relation (the w^0 part of L w V_mu w^m is V_{m+1} V_mu) give
    j_lam = (n hbar)^{-1} A sum_{t in R_lam} tau~_lam^{t+(1,1)} psi_{lam-t}^t
with A = pi0 L w.  By Euler's relation again A is a re-keying,
w^m V_mu -> V_{m+1} V_mu (lax.op_A), so no Lax operator runs here, and no
pairing, basis change or matrix inverse is needed.
"""

from functools import lru_cache

from .errors import JackLaxError
from .lax import op_A
from .partitions import (boxes, boxes_x, contains, hook, hooks_lower, hooks_upper,
                         partitions_of, rem_set, remove_box)
from .spectral import tau_tilde


def compute_homogeneous_jacks(ws, n):
    """All homogeneous Jacks of degree n over ws.field, as {lam: cleared
    row}.

    Reads the degree-(n-1) eigenfunctions through ws.psi_row, which in
    turn reads the lower-degree Jacks through ws.jack_row.  A is linear,
    so each psi row is re-keyed by A on its own and the scaled sum is one
    field.combine per Jack."""
    field = ws.field
    if n == 0:
        return {(): field.clear({(): field.one})}
    scale = field.one / (field.num(n) * field.hbar)
    out = {}
    for lam in partitions_of(n):
        out[lam] = field.combine([(scale * tau_tilde(field, lam, (t[0] + 1, t[1] + 1)),
                                   op_A(field, ws.psi_row(remove_box(lam, t), t)))
                                  for t in rem_set(lam)])
    return out


def varpi(field, lam):
    """Product of contents over all boxes but (0,0); the V_n coefficient."""
    return field.ratio(boxes_x(lam), ())


@lru_cache(maxsize=None)
def _hook_forms(lam):
    """The upper and lower hooks of lam, whose product is |j_lam|^2."""
    return tuple(hooks_upper(lam) + hooks_lower(lam))


def jack_norm_sq(field, lam):
    """Stanley's hook-product norm |j_lam|^2."""
    return field.ratio(_hook_forms(lam), ())


def jack_inv_norm_sq(field, lam, pre=None):
    """pre (default 1) over |j_lam|^2, one field.ratio of the hook forms:
    no division by the expanded norm."""
    return field.ratio((), _hook_forms(lam), pre)


# ---------------------------------------------------------------------------
# Stanley's Pieri rule for multiplication by j_{1^r}
# ---------------------------------------------------------------------------

def _strip_rows(lam, mu):
    """Rows met by lam/mu, or None if not a one-box-per-row strip."""
    if not contains(lam, mu):
        return None
    rows = []
    for i in range(len(lam)):
        a = lam[i]
        b = mu[i] if i < len(mu) else 0
        if a - b > 1:
            return None
        if a - b == 1:
            rows.append(i)
    return rows


def pieri_stanley(field, r, mu):
    """{lam: c_{1^r, mu}^lam} over all valid strips lam/mu.

    The strip convention (at most one box per row, i.e. adding a column
    shape) is fixed by the worked value c_{1^2,2}^{1^2 2} = -e2/(e1-e2).
    """
    if r < 1:
        raise JackLaxError("r must be >= 1")
    num_col = field.ratio(hooks_lower((1,) * r), ())
    out = {}
    for lam in _strips_above(mu, r):
        rows = _strip_rows(lam, mu)
        out[lam] = field.ratio(_strip_hooks(mu, rows), _strip_hooks(lam, rows), num_col)
    return out


def _strip_hooks(lam, rows):
    """The lower hooks of lam in the given rows, the upper ones elsewhere."""
    return [hook(lam, b, "lower" if b[0] in rows else "upper") for b in boxes(lam)]


def _strips_above(mu, r):
    """All lam >= mu with |lam/mu| = r and at most one box per row."""
    from itertools import combinations
    out = set()
    existing = range(len(mu))
    for k in range(min(r, len(mu)) + 1):
        t = r - k  # new length-1 rows below
        for S in combinations(existing, k):
            rows = [mu[i] + (1 if i in S else 0) for i in existing]
            rows += [1] * t
            if all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)):
                lam = tuple(x for x in rows if x)
                if _strip_rows(lam, mu) is not None:
                    out.add(lam)
    return sorted(out)
