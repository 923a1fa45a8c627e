"""Spectral factors T(u), generalized box versions, transition measures.

Sign convention (two appear in the literature): we fix
    tau(lam, s)        =  Res_{u=[s]} u^{-1} T_lam(u),      s in add set,
    tau_tilde(lam, t)  = -Res_{u=[t]} u T_lam(u)^{-1},      t in outer corners.
The minus sign on tau_tilde is forced by the eigenfunction recursion, the
shift theorem, the q expansion and the appendix sum identities; the other
choice breaks all of them (see tests).
"""

from .arith import SpectralFun
from .errors import JackLaxError, NotASimplePole, ZeroDenominator
from .partitions import (add_box, add_set, rem_set, rem_set_plus,
                         remove_box, star_product)


def T_of_boxes(field, gamma):
    """T_Gamma(u) = prod over the box multiset of N(u - [b])."""
    num, den = {}, {}
    for (i, j), m in gamma.items():
        for r in ((i, j), (i + 1, j + 1)):
            num[r] = num.get(r, 0) + m
        for r in ((i + 1, j), (i, j + 1)):
            den[r] = den.get(r, 0) + m
    return SpectralFun(field.one, num, den)


def T_partition(field, lam):
    """Corner form: u * prod_{t in R+}(u-[t]) / prod_{s in A}(u-[s])."""
    num = {(0, 0): 1}
    for t in rem_set_plus(lam):
        num[t] = num.get(t, 0) + 1
    den = {s: 1 for s in add_set(lam)}
    return SpectralFun(field.one, num, den)


def T_star(field, mu, nu):
    return T_of_boxes(field, star_product(mu, nu))


def with_pole(T, pole):
    """T(u) / (u - [pole]): T with one more simple pole (or one root less)."""
    den = dict(T.den)
    den[pole] = den.get(pole, 0) + 1
    return SpectralFun(T.pre, dict(T.num), den)


def T1_scalar(field, form):
    """T_1 evaluated at the linear form x: [x][x+(1,1)] / ([x+(1,0)][x+(0,1)])."""
    a, b = form
    try:
        return field.ratio((form, (a + 1, b + 1)), ((a + 1, b), (a, b + 1)))
    except (ZeroDivisionError, ZeroDenominator):
        raise JackLaxError("T1 undefined at [%d,%d]" % form) from None


def _diffs(x, boxes, skip=None):
    """The forms x - b over the boxes b but skip."""
    return [(x[0] - b[0], x[1] - b[1]) for b in boxes if b != skip]


def tau(field, lam, s):
    """Co-transition measure: residue of u^{-1} T_lam(u) at [s]."""
    add = add_set(lam)
    if s not in add:
        raise JackLaxError("box (%d,%d) not addable" % s)
    return field.ratio(_diffs(s, rem_set_plus(lam)), _diffs(s, add, s))


def tau_hat(field, lam, s):
    return field.lf(s) * tau(field, lam, s)


def tau_tilde(field, lam, t_plus):
    """Transition measure at an outer corner (sign as in the recursion)."""
    outer = rem_set_plus(lam)
    if t_plus not in outer:
        raise JackLaxError("box (%d,%d) not an outer corner" % t_plus)
    return field.ratio(_diffs(t_plus, add_set(lam)), _diffs(t_plus, outer, t_plus),
                       -field.one)


def star_residues(field, mu, nu):
    """{pole: Res T_{mu*nu}} over all poles (must be simple)."""
    T = T_star(field, mu, nu)
    out = {}
    for pole, m in T.den.items():
        if m != 1:
            raise NotASimplePole("T_{mu*nu} has a pole of order %d" % m)
        out[pole] = T.residue(pole, field)
    return out


def verify_tau_identities(field, lam, s):
    """Check the five appendix identities at (lam, s); returns a report
    dict identity -> "PASS"/"FAIL"/"SKIP"."""
    report = {}
    A = add_set(lam)
    if s not in A:
        raise JackLaxError("s must be addable to lam")
    lam_s = add_box(lam, s)

    # (i) tau_{lam+s}^b = T1([s-b]) tau_lam^b for b != s addable
    status = []
    for b in A:
        if b == s:
            continue
        lhs = tau(field, lam_s, b)
        rhs = T1_scalar(field, (s[0] - b[0], s[1] - b[1])) * tau(field, lam, b)
        status.append(lhs == rhs)
    report["tau_add_shift"] = _verdict(status)

    # (ii) tau~_{lam+s}^t = T1([s-t])^{-1} tau~_lam^t for surviving corners
    status = []
    for t in rem_set_plus(lam):
        if t not in rem_set_plus(lam_s):
            continue
        lhs = tau_tilde(field, lam_s, t)
        rhs = tau_tilde(field, lam, t) / T1_scalar(field, (s[0] - t[0], s[1] - t[1]))
        status.append(lhs == rhs)
    report["tau_tilde_add_shift"] = _verdict(status)

    # (iii) hbar / ([s][s+(1,1)]) = 1 - T1([s])^{-1}
    if field.lf(s) and field.lf((s[0] + 1, s[1] + 1)):
        lhs = field.hbar / (field.lf(s) * field.lf((s[0] + 1, s[1] + 1)))
        rhs = field.one - field.one / T1_scalar(field, s)
        report["hbar_T1"] = "PASS" if lhs == rhs else "FAIL"
    else:
        report["hbar_T1"] = "SKIP"

    # (iv) sum_q hbar tau_lam^q / ([s'-q][s'-q+(1,1)]) = tau_{lam-s'}^{s'}
    #      for removable s' (we use s if removable, else all removable)
    targets = [s] if s in rem_set(lam) else rem_set(lam)
    status = []
    for sp in targets:
        acc = field.zero
        for q in A:
            d1 = (sp[0] - q[0], sp[1] - q[1])
            d2 = (sp[0] - q[0] + 1, sp[1] - q[1] + 1)
            acc = acc + field.hbar * tau(field, lam, q) / (field.lf(d1) * field.lf(d2))
        status.append(acc == tau(field, remove_box(lam, sp), sp))
    report["tau_sum"] = _verdict(status)

    # (v) sum_t hbar tau~_lam^t / ([s-t][s-t+(1,1)]) = -hbar + tau~_{lam+s}^{s+(1,1)}
    acc = field.zero
    for t in rem_set_plus(lam):
        d1 = (s[0] - t[0], s[1] - t[1])
        d2 = (s[0] - t[0] + 1, s[1] - t[1] + 1)
        acc = acc + field.hbar * tau_tilde(field, lam, t) / (field.lf(d1) * field.lf(d2))
    rhs = -field.hbar + tau_tilde(field, lam_s, (s[0] + 1, s[1] + 1))
    report["tau_tilde_sum"] = "PASS" if acc == rhs else "FAIL"

    return report


def _verdict(status):
    if not status:
        return "SKIP"
    return "PASS" if all(status) else "FAIL"

