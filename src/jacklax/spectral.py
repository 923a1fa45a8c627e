"""Spectral factors T(u), generalized box versions, transition measures.

They are SpectralFun values: rational functions of the auxiliary variable
u whose zeros and poles are integer linear forms a*e1 + b*e2, kept
factored.

Sign convention (two appear in the literature): we fix
    tau(lam, s)        =  Res_{u=[s]} u^{-1} T_lam(u),      s in add set,
    tau_tilde(lam, t)  = -Res_{u=[t]} u T_lam(u)^{-1},      t in outer corners.
The minus sign on tau_tilde is forced by the eigenfunction recursion, the
shift theorem, the q expansion and the appendix sum identities; the other
choice breaks all of them (see tests).
"""

from .arith import _cancel, render_coeff
from .errors import JackLaxError, NotAPole, NotASimplePole
from .fock import v_accum
from .partitions import (add_box, add_set, rem_set, rem_set_plus,
                         remove_box, star_product)
from .report import residual


# ---------------------------------------------------------------------------
# SpectralFun: factored rational functions of u with linear-form roots
# ---------------------------------------------------------------------------

def _forms_at(roots, form, skip=None):
    """The forms form - r over the roots r but skip, each repeated by its
    multiplicity."""
    return [(form[0] - r[0], form[1] - r[1])
            for r, m in roots.items() if r != skip for _ in range(m)]


class SpectralFun:
    """prefactor * prod(u - [r], r in num) / prod(u - [r], r in den).

    Roots are integer linear forms (pairs); common roots cancel on
    construction.  The prefactor is a field scalar.
    """

    __slots__ = ("pre", "num", "den")

    def __init__(self, pre, num=(), den=()):
        num, den = _cancel(num or {}, den or {})
        if not pre:
            num, den = {}, {}
        self.pre = pre
        self.num = num
        self.den = den

    def degree(self):
        return sum(self.num.values()) - sum(self.den.values())

    def __mul__(self, other):
        """The prefactors multiply and the root multiplicities add (by
        v_accum, on copies); the constructor cancels shared roots."""
        if isinstance(other, SpectralFun):
            return SpectralFun(self.pre * other.pre,
                               v_accum(dict(self.num), other.num),
                               v_accum(dict(self.den), other.den))
        return SpectralFun(self.pre * other, self.num, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """As __mul__, with the roots and poles of other swapped."""
        if isinstance(other, SpectralFun):
            return SpectralFun(self.pre / other.pre,
                               v_accum(dict(self.num), other.den),
                               v_accum(dict(self.den), other.num))
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

    def partial_fractions(self, field):
        """(polynomial part as little-endian list, {pole: residue}).

        Requires all poles simple.  The polynomial part of degree
        k = deg num - deg den >= 0 is read off the expansion at u = oo,
        pre u^k prod(1 - [r]/u) / prod(1 - [p]/u): [pre] at k = 0, and at
        k = 1 pre (u + [sum of poles - sum of roots]), one field.ratio of
        the summed form."""
        res = {}
        for pole, m in self.den.items():
            if m != 1:
                raise NotASimplePole("pole of order %d" % m)
            res[pole] = self.residue(pole, field)
        k = self.degree()
        if k < 0 or not self.pre:
            return [], res
        if k == 0:
            return [self.pre], res
        if k == 1:
            a = sum(p[0] for p in self.den) - sum(r[0] * m for r, m in self.num.items())
            b = sum(p[1] for p in self.den) - sum(r[1] * m for r, m in self.num.items())
            return [field.ratio(((a, b),), (), self.pre), self.pre], res
        # g(x) = prod(1 - [r] x) / prod(1 - [p] x) to x^k; the part is pre g_{k-i} u^i
        g = [field.one] + [field.zero] * k
        for r, m in self.num.items():
            v = field.lf(r)
            for _ in range(m):
                for i in range(k, 0, -1):
                    g[i] = g[i] - v * g[i - 1]
        for p in self.den:
            v = field.lf(p)
            for i in range(1, k + 1):
                g[i] = g[i] + v * g[i - 1]
        return [self.pre * c for c in reversed(g)], res

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

    def __repr__(self):
        return self.factored_str()


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


def _T1_forms(form):
    """(numerator forms, denominator forms) of T_1 at the linear form x:
    [x][x+(1,1)] / ([x+(1,0)][x+(0,1)])."""
    a, b = form
    return (form, (a + 1, b + 1)), ((a + 1, b), (a, b + 1))


def _diffs(x, boxes, skip=None):
    """The forms x - b over the boxes b but skip."""
    return [(x[0] - b[0], x[1] - b[1]) for b in boxes if b != skip]


# tau and tau~ are memoised per field (field.tau_memo, field.tau_tilde_memo):
# a value depends on the field's point, so no cache here may outlive it.

def tau(field, lam, s):
    """Co-transition measure: residue of u^{-1} T_lam(u) at [s]."""
    got = field.tau_memo.get((lam, s))
    if got is None:
        add = add_set(lam)
        if s not in add:
            raise JackLaxError("box (%d,%d) not addable" % s)
        got = field.tau_memo[lam, s] = field.ratio(_diffs(s, rem_set_plus(lam)),
                                                   _diffs(s, add, s))
    return got


def tau_hat(field, lam, s):
    return field.lf(s) * tau(field, lam, s)


def tau_tilde(field, lam, t_plus):
    """Transition measure at an outer corner (sign as in the recursion)."""
    got = field.tau_tilde_memo.get((lam, t_plus))
    if got is None:
        outer = rem_set_plus(lam)
        if t_plus not in outer:
            raise JackLaxError("box (%d,%d) not an outer corner" % t_plus)
        got = field.tau_tilde_memo[lam, t_plus] = field.ratio(
            _diffs(t_plus, add_set(lam)), _diffs(t_plus, outer, t_plus), -field.one)
    return got


def star_residues(field, mu, nu):
    """{pole: Res T_{mu*nu}} over all poles (must be simple)."""
    return T_star(field, mu, nu).partial_fractions(field)[1]


def verify_tau_identities(field, lam, s):
    """The five appendix identities at (lam, s), as one residual keyed by
    (identity, box); (iii) is skipped where [s] or [s+(1,1)] vanishes.

    Each product below (a tau value times T_1 or T_1^{-1}, or hbar over
    two forms) is one field.ratio, hbar = -e1 e2 entering as the forms e1,
    e2 with its sign in the prefactor, so only the sums of (iii)-(v) add
    field scalars."""
    A = add_set(lam)
    if s not in A:
        raise JackLaxError("s must be addable to lam")
    lam_s = add_box(lam, s)
    e1e2 = ((1, 0), (0, 1))
    out = []

    # (i) tau_{lam+s}^b = T1([s-b]) tau_lam^b for b != s addable
    for b in A:
        if b == s:
            continue
        up, down = _T1_forms((s[0] - b[0], s[1] - b[1]))
        out.append((("tau_add_shift", b), tau(field, lam_s, b),
                    field.ratio(up, down, tau(field, lam, b))))

    # (ii) tau~_{lam+s}^t = T1([s-t])^{-1} tau~_lam^t for surviving corners
    for t in rem_set_plus(lam):
        if t not in rem_set_plus(lam_s):
            continue
        up, down = _T1_forms((s[0] - t[0], s[1] - t[1]))
        out.append((("tau_tilde_add_shift", t), tau_tilde(field, lam_s, t),
                    field.ratio(down, up, tau_tilde(field, lam, t))))

    # (iii) hbar / ([s][s+(1,1)]) = 1 - T1([s])^{-1}
    s11 = (s[0] + 1, s[1] + 1)
    if field.lf(s) and field.lf(s11):
        up, down = _T1_forms(s)
        out.append((("hbar_T1", s), field.ratio(e1e2, (s, s11), -field.one),
                    field.one - field.ratio(down, up)))

    # (iv) sum_q hbar tau_lam^q / ([s'-q][s'-q+(1,1)]) = tau_{lam-s'}^{s'}
    #      for removable s' (we use s if removable, else all removable)
    for sp in [s] if s in rem_set(lam) else rem_set(lam):
        acc = field.zero
        for q in A:
            d1 = (sp[0] - q[0], sp[1] - q[1])
            acc = acc + field.ratio(e1e2, (d1, (d1[0] + 1, d1[1] + 1)), -tau(field, lam, q))
        out.append((("tau_sum", sp), acc, tau(field, remove_box(lam, sp), sp)))

    # (v) sum_t hbar tau~_lam^t / ([s-t][s-t+(1,1)]) = -hbar + tau~_{lam+s}^{s+(1,1)}
    acc = field.zero
    for t in rem_set_plus(lam):
        d1 = (s[0] - t[0], s[1] - t[1])
        acc = acc + field.ratio(e1e2, (d1, (d1[0] + 1, d1[1] + 1)), -tau_tilde(field, lam, t))
    out.append((("tau_tilde_sum", s), acc, tau_tilde(field, lam_s, s11) - field.hbar))
    return residual(out)
