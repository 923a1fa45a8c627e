"""Verification suites: each builds a Report of PASS/FAIL/SKIP instances.

An identity PASSes only if it holds in every workspace of the run (all
specialization points, or the single symbolic workspace).
"""

import random
from fractions import Fraction

from . import lr as lr_mod
from . import shc as shc_mod
from . import traces as tr_mod
from .errors import BadSize, JackLaxError
from .fock import (Pi, bump, dim_hn, ext_mul, fock_to_ext, hn_basis, inner_hbar, pi0,
                   pi_plus, pi_star, w_mul)
from .jack import jack_norm_sq, pieri_stanley
from .lax import (lax_apply, lax_plus_shift_check, phi_column_coeff, pi_diamond,
                  psi_tilde_row)
from .linalg import rank
from .partitions import (SeriesZ, add_box, add_set, boxes, count_by_corners,
                         count_lattice_q, count_partitions, eigen_pairs,
                         format_partition, hook, pair_quads, parse_partition,
                         partition_pairs, partitions_of, rem_set, rem_set_plus,
                         remove_box, series_P, series_P_xt, series_Q, size,
                         star_product)
from .report import Report, instance
from .spectral import (T_of_boxes, T_partition, T_star, tau, tau_hat, tau_tilde,
                       verify_tau_identities, with_pole)


# Default sizes of each suite's size keywords: {suite: {keyword: (symbolic,
# specialized)}}.  The CLI fills max_size and max_total from --max-size,
# max_degree from --max-degree and to from --to.
DEFAULT_SIZES = {
    "tau": {"max_size": (8, 8)},
    "spectral": {"max_degree": (7, 7)},
    "main-theorem": {"max_size": (6, 8)},
    "cokernel": {"to": (7, 7)},
    "kernel": {"to": (7, 7)},
    "traces": {"max_degree": (6, 6)},
    "pieri": {"max_total": (7, 7), "marg_max": (6, 6)},
    "shc": {"max_degree": (6, 6)},
    "conjectures": {"max_degree": (6, 6)},
}


def suite_sizes(suite, mode, **given):
    """{keyword: size} for the suite's size keywords: the given size, or the
    mode's default where it is None.  Raises BadSize on a negative size."""
    out = {}
    for kw, (symbolic, specialized) in DEFAULT_SIZES.get(suite, {}).items():
        size = given.get(kw)
        if size is None:
            size = symbolic if mode == "symbolic" else specialized
        elif size < 0:
            raise BadSize("bad size %s=%d for %s: sizes are >= 0" % (kw, size, suite))
        out[kw] = size
    return out


def _fmt(lam):
    return "{%s}" % format_partition(lam)


# ---------------------------------------------------------------------------
# counting suite (mode independent)
# ---------------------------------------------------------------------------

def suite_counts(cfg):
    rep = Report("counts", cfg)
    P = series_P(12)
    rep.add("P(x) coefficients to x^12",
            all(P.coeff(n) == count_partitions(n) for n in range(13)))
    Pxt = series_P_xt(6)
    expected = {(0, 1): 1, (1, 2): 1, (2, 2): 2, (3, 2): 2, (3, 3): 1,
                (4, 2): 3, (4, 3): 2}
    ok = all(Pxt.coeff(n, r) == c for (n, r), c in expected.items())
    ok = ok and all(Pxt.coeff(n, r) == count_by_corners(n, r)
                    for n in range(7) for r in range(n + 2))
    rep.add("P(x,t) coefficients to x^4", ok)
    s = series_P_xt(12).subs_t_poly([1, -1])
    rep.add("P(x,1-x) = 1 to x^12",
            all(s.coeff(i) == (1 if i == 0 else 0) for i in range(13)))
    lhs = series_P_xt(12).dt_at_1()
    rhs = series_P(12) / _one_minus_x(12)
    rep.add("dP/dt at t=1 equals P(x)/(1-x) to x^12", lhs == rhs)
    dimser = series_P(9) / _one_minus_x(9)
    rep.add("graded dim H_n = [x^n] P(x)/(1-x) to x^9",
            all(dimser.coeff(n) == dim_hn(n) for n in range(10)))
    Q = series_Q(10)
    rep.add("Q(x) matches the lattice counts to x^10",
            all(Q.coeff(n) == count_lattice_q(n) for n in range(11)))
    ker = tr_mod.kernel_dim_series(6)
    rep.add("kernel series x^4 + 2x^5 + 5x^6",
            [ker.coeff(i) for i in range(7)] == [0, 0, 0, 0, 1, 2, 5])
    kz = tr_mod.koszul_hilbert_check(6, 12)
    rep.add("Koszul Hilbert identity to (z^6, x^12)",
            all(kz.values()), "" if all(kz.values()) else repr(kz))
    return rep.done()


def _one_minus_x(order):
    return SeriesZ(order, [Fraction(1), Fraction(-1)])


# ---------------------------------------------------------------------------
# tau identities
# ---------------------------------------------------------------------------

def suite_tau(cfg, max_size=None):
    max_size = suite_sizes("tau", cfg.mode, max_size=max_size)["max_size"]
    rep = Report("tau", cfg)
    for n in range(0, max_size + 1):
        for lam in partitions_of(n):
            for s in add_set(lam):
                rep.check("identities %s s=%s" % (_fmt(lam), (s,)), _tau_identities, lam, s)
            rep.check("kerov expansion %s" % _fmt(lam), _kerov, lam)
    # norm ratio |j_{lam+s}|^2/|j_lam|^2 = tau~/tau, sizes <= 7
    for n in range(0, min(max_size, 7)):
        for lam in partitions_of(n):
            for s in add_set(lam):
                rep.check("norm ratio %s + %s" % (_fmt(lam), (s,)), _norm_ratio, lam, s)
    # star-factor identity for single boxes
    for n in range(0, 5):
        for lam in partitions_of(n):
            for t in [(0, 0), (1, 0), (0, 1), (1, 2)]:
                rep.check("star factor %s * box%s" % (_fmt(lam), (t,)), _star_factor, lam, t)
    return rep.done()


def _tau_identities(ws, lam, s):
    return "FAIL" not in verify_tau_identities(ws.field, lam, s).values()


def _kerov(ws, lam):
    f = ws.field
    T = T_partition(f, lam)
    # u^{-1} T_lam: poles at the add set with residues tau
    poly, res = with_pole(T, (0, 0)).partial_fractions(f)
    if poly:
        return False
    if res != {s: tau(f, lam, s) for s in add_set(lam)}:
        return False
    # hatted: T - 1 has residues tau-hat and they sum to zero
    polyT, resT = T.partial_fractions(f)
    if polyT != [f.one]:
        return False
    tot = f.zero
    for s in add_set(lam):
        if resT.get(s, f.zero) != tau_hat(f, lam, s):
            return False
        tot = tot + resT.get(s, f.zero)
    return not tot


def _norm_ratio(ws, lam, s):
    f = ws.field
    lam_s = add_box(lam, s)
    lhs = jack_norm_sq(f, lam_s) / jack_norm_sq(f, lam)
    rhs = tau_tilde(f, lam_s, (s[0] + 1, s[1] + 1)) / tau(f, lam, s)
    return lhs == rhs


def _star_factor(ws, lam, t):
    lhs = T_of_boxes(ws.field, star_product(lam, {t: 1}))
    rhs = T_partition(ws.field, lam).shift(t)
    return lhs.num == rhs.num and lhs.den == rhs.den and lhs.pre == rhs.pre


# ---------------------------------------------------------------------------
# spectral suite
# ---------------------------------------------------------------------------

def suite_spectral(cfg, max_degree=None):
    max_degree = suite_sizes("spectral", cfg.mode, max_degree=max_degree)["max_degree"]
    rep = Report("spectral", cfg)
    for n in range(max_degree + 1):
        rep.check("completeness H_%d" % n, _complete, n)
        rep.check("shift property n=%d" % n, lax_plus_shift_check, n)
        if n <= 7:
            rep.check("self-adjointness L_%d" % n, _self_adjoint, n)
        if 1 <= n <= 6:
            rep.check("pi-diamond projection H_%d" % n, _pi_diamond_ok, n)
        for lam in partitions_of(n):
            for s in add_set(lam):
                rep.check("eigen %s s=%s" % (_fmt(lam), (s,)), _eigen, lam, s)
            if n:
                rep.check("jacksum %s" % _fmt(lam), _jacksums, lam)
                rep.check("shift theorem %s" % _fmt(lam), _shift_thm, lam)
                rep.check("structural Z=Cj+wX %s" % _fmt(lam), _structural, lam)
            if n and n <= 6:
                rep.check("psi norms %s" % _fmt(lam), _psi_norms, lam)
    for r in range(1, min(max_degree, 6) + 1):
        rep.check("phi expansion 1^%d" % r, _phi_expansion, r)
    return rep.done()


def _vanishes(field, terms):
    """sum c * nums / D over terms [(c, (nums, D))] is the zero vector."""
    return not field.combine(terms)[0]


def _ext_row(row):
    """A FockVec row as an ExtVec row."""
    return fock_to_ext(row[0]), row[1]


def _coords(row, basis):
    """The numerators of a cleared row as a list over basis."""
    return [row[0].get(k, 0) for k in basis]


def _eigen(ws, lam, s):
    f = ws.field
    row = ws.psi_row(lam, s)
    if not _vanishes(f, [(1, lax_apply(f, row)), (-f.lf(s), row)]):
        return False
    nums, d = row
    if not _vanishes(f, [(1, (pi0(nums), d)), (-1, ws.jack_row(lam))]):
        return False
    return pi_star(row, f) == ws.pi_star_psi(lam, s)


def _psi_norms(ws, lam):
    f = ws.field
    for s in add_set(lam):
        row = ws.psi_row(lam, s)
        n2 = inner_hbar(row, row, f)
        if n2 != jack_norm_sq(f, lam) / tau(f, lam, s):
            return False
        if n2 != _psi_norm_hooks(ws, lam, s):
            return False
    return True


def _phi_expansion(ws, r):
    f = ws.field
    col = (1,) * r
    for s in add_set(col):
        nums, d = ws.psi_row(col, s)
        for k in range(r):
            got = {(0, mu): c for (m, mu), c in nums.items() if m == r - k}
            if not _vanishes(f, [(1, (got, d)), (-phi_column_coeff(ws, r, k, s),
                                                 _ext_row(ws.jack_row((1,) * k)))]):
                return False
    return True


def _complete(ws, n):
    """The psi-hat vectors of H_n are dim H_n in number and each expands to
    itself alone.  The dual expansion reads <zeta, psi> off the diagonal
    norms, so this makes the Gram matrix diagonal and nonsingular: the
    psi-hat vectors are an orthogonal basis of H_n."""
    pairs = eigen_pairs(n)
    if len(pairs) != dim_hn(n):
        return False
    f = ws.field
    for lam, s in pairs:
        nums, d = ws.expand_psi_hat(ws.psi_hat_row(lam, s))
        if list(nums) != [(lam, s)] or f.quotient(nums[(lam, s)], d) != f.one:
            return False
    return True


def _self_adjoint(ws, n):
    """<L a, b> = <a, L b> on the basis of H_n, as M[i][j] g[i] ==
    M[j][i] g[j] for the matrix M of L and the Gram weights g.  The images
    of the basis vectors are numerators over one common denominator, and
    so are the Gram weights, so the two sides compare on numerators."""
    basis = hn_basis(n)
    f = ws.field
    g, _ = ws.gram_row(n)
    imgs = [lax_apply(f, f.clear({key: f.one}))[0] for key in basis]
    for i, ki in enumerate(basis):
        for j in range(i, len(basis)):
            kj = basis[j]
            if imgs[j].get(ki, 0) * g[ki] != imgs[i].get(kj, 0) * g[kj]:
                return False
    return True


def _pi_diamond_ok(ws, n):
    basis = hn_basis(n)
    mats = []
    for lam, s in eigen_pairs(n):
        img = pi_diamond(ws, ws.psi_row(lam, s))
        if pi_diamond(ws, img) != img:
            return False
        mats.append(_coords(img, basis))
    return rank(mats) == count_partitions(n + 1)


def _jacksums(ws, lam):
    f = ws.field
    jack = _ext_row(ws.jack_row(lam))
    terms = [(tau(f, lam, s), ws.psi_row(lam, s)) for s in add_set(lam)]
    if not _vanishes(f, terms + [(-1, jack)]):
        return False
    terms = [(tau_tilde(f, lam, tp), psi_tilde_row(ws, lam, tp)) for tp in rem_set_plus(lam)]
    return _vanishes(f, terms + [(-1, lax_apply(f, jack))])


def _shift_thm(ws, lam):
    """w psi_{lam-t}^t is the L+ eigenfunction (L-[t'])^{-1}-normalized."""
    f = ws.field
    jack = _ext_row(ws.jack_row(lam))
    for tp in rem_set_plus(lam):
        pt = psi_tilde_row(ws, lam, tp)
        img, d = lax_apply(f, pt)
        # L+ eigen equation on the positive block
        if not _vanishes(f, [(1, (pi_plus(img), d)), (-f.lf(tp), pt)]):
            return False
        # resolvent normalization: ([t'] - L) psi~ = -j_lam
        if not _vanishes(f, [(f.lf(tp), pt), (-1, (img, d)), (1, jack)]):
            return False
    return True


def _structural(ws, lam):
    n = size(lam)
    rows = [_ext_row(ws.jack_row(lam))]
    for t in rem_set(lam):
        nums, d = ws.psi_row(remove_box(lam, t), t)
        rows.append((w_mul(nums), d))
    for row in rows:
        if any(mu != lam for mu, s in ws.expand_psi_hat(row)[0]):
            return False
    basis = hn_basis(n)
    return rank([_coords(row, basis) for row in rows]) == len(add_set(lam))


def _psi_norm_hooks(ws, lam, s):
    lam_s = add_box(lam, s)
    forms = []
    for b in boxes(lam):
        forms.append(hook(lam_s if b[1] == s[1] else lam, b, "upper"))
        forms.append(hook(lam_s if b[0] == s[0] else lam, b, "lower"))
    return ws.field.ratio(forms, ())


# ---------------------------------------------------------------------------
# main theorem
# ---------------------------------------------------------------------------

def suite_main_theorem(cfg, max_size=None):
    max_size = suite_sizes("main-theorem", cfg.mode, max_size=max_size)["max_size"]
    rep = Report("main-theorem", cfg)
    for ws in rep.workspaces:
        for n in range(max_size + 1):
            ws.jack_degree(n)
    for mu, nu in partition_pairs(max_size):
        rep.check("residual %s * %s" % (_fmt(mu), _fmt(nu)), _residual, mu, nu)
    rep.check("worked example (1^2,2)", _worked_lr_example)
    return rep.done()


def _residual(ws, mu, nu):
    try:
        res = lr_mod.main_theorem_residual(ws, mu, nu)
    except JackLaxError as e:
        return str(e)
    return not res or "residual at %s" % sorted(res)


def _worked_lr_example(ws):
    """chat and c values for (1^2, 2)."""
    f = ws.field
    tabh = lr_mod.jack_lr(ws, (1, 1), (2,), hatted=True)
    tab = lr_mod.jack_lr(ws, (1, 1), (2,))
    chat = f.lf((2, 0)) * f.lf((0, -2)) / f.lf((2, -2))
    c = -f.lf((0, 1)) / f.lf((1, -1))
    return tabh.get((2, 1, 1)) == chat and tab.get((2, 1, 1)) == c


# ---------------------------------------------------------------------------
# cokernel / kernel
# ---------------------------------------------------------------------------

def suite_cokernel(cfg, to=None):
    to = suite_sizes("cokernel", cfg.mode, to=to)["to"]
    rep = Report("cokernel", cfg)
    for n in range(to + 1):
        r = tr_mod.verify_cokernel(n)
        rep.add("relations annihilate Tr, n=%d" % n, r["annihilate"])
        rep.add("cokernel dim = q(%d) = %d" % (n, r["q(n)"]), r["exhausts"],
                "" if r["exhausts"] else repr(r))
    for n in range(min(to, 5) + 1):
        rep.check("resolvent w-identity n=%d" % n, tr_mod.resolvent_w_identity, n)
    return rep.done()


def suite_kernel(cfg, to=None):
    to = suite_sizes("kernel", cfg.mode, to=to)["to"]
    rep = Report("kernel", cfg)
    ser = tr_mod.kernel_dim_series(to)
    for n in range(to + 1):
        d = tr_mod.kernel_dimension(n)
        h = tr_mod.hexagon_span_dimension(n)
        ok = d == h == ser.coeff(n)
        rep.add("dim ker Tr_%d = %d" % (n, d), ok,
                "" if ok else "hexagon span %d, series %s" % (h, ser.coeff(n)))
    for n in range(4, min(to, 7) + 1):
        rep.check("hexagons lie in ker Tr_%d" % n, _hexagons_in_kernel, n)
    hx4 = tr_mod.kernel_basis(4)
    rep.add("n=4 generator is Gamma_{1,2}^{(2,0),(1,1),(0,2)}",
            len(hx4) == 1 and hx4[0].eta == (2, 1)
            and set(hx4[0].corners) == {(2, 0), (1, 1), (0, 2)})
    hx5 = {(h.eta, frozenset(h.corners)) for h in tr_mod.kernel_basis(5)}
    rep.add("n=5 generators are the expected pair",
            hx5 == {((3, 1), frozenset({(2, 0), (1, 1), (0, 3)})),
                    ((2, 1, 1), frozenset({(3, 0), (1, 1), (0, 2)}))})
    return rep.done()


def _hexagons_in_kernel(ws, n):
    for hx in tr_mod.kernel_basis(n):
        tv = tr_mod.full_trace(ws, hx.value(ws))
        if tv.x or tv.y or tv.z:
            return False
    return True


# ---------------------------------------------------------------------------
# traces suite
# ---------------------------------------------------------------------------

def suite_traces(cfg, max_degree=None):
    max_degree = suite_sizes("traces", cfg.mode, max_degree=max_degree)["max_degree"]
    rep = Report("traces", cfg)
    for ws in rep.workspaces:
        ws.warm(max_degree)
    for lam, s, nu, t in pair_quads(max_degree):
        rep.check("theta/beta traces %s:%s * %s:%s" % (_fmt(lam), (s,), _fmt(nu), (t,)),
                  _theta_beta_traces, lam, s, nu, t)
    # trace property chain on seeded random vectors
    rng = random.Random(20260810)
    for n in range(1, min(max_degree, 6) + 1):
        size_n = len(hn_basis(n))
        picks = [rng.sample(range(size_n), min(3, size_n)) for _ in range(2)]
        coeffs = [[rng.randint(-5, 5) or 1 for _ in p] for p in picks]
        rep.check("trace property chain n=%d" % n, _trace_chain, n, picks, coeffs)
    for n in range(1, min(max_degree, 6) + 1):
        rep.check("null module ranks n=%d" % n, _null_ranks, n)
    # refined Pieri for |lam| <= 5
    for n in range(0, min(max_degree - 1, 5) + 1):
        for lam in partitions_of(n):
            rep.check("refined Pieri %s" % _fmt(lam), _refined_pieri, lam)
    return rep.done()


def _theta_beta_traces(ws, lam, s, nu, t):
    t_prod, t_beta, tv = tr_mod.pair_traces(ws, ws.psi_hat_row(lam, s), ws.psi_hat_row(nu, t))
    chat, star, T = ws.memo(("theta/beta", lam, nu), _pair_data, lam, nu)
    bad = []
    if not tr_mod.pf_eq(tv.x, chat):
        bad.append("x != chat")
    if not tr_mod.pf_eq(tv.y, star):
        bad.append("y != tau-hat(star)")
    if tv.z:
        bad.append("z != 0")
    twisted = tr_mod.twisted_trace_checks(t_beta, tv)
    if not all(twisted.values()):
        bad.append("twisted: %r" % twisted)
    if not tr_mod.y_trace_product_check(ws, lam, s, nu, t, t_prod, t_beta, star, T):
        bad.append("y-product")
    return "; ".join(bad) or True


def _pair_data(ws, lam, nu):
    """The hatted Jack LR table, the residues of T_{lam*nu} and T_{lam*nu}
    itself: what the theta/beta checks of every (s, t) share."""
    from .spectral import star_residues
    return (lr_mod.jack_lr(ws, lam, nu, hatted=True), star_residues(ws.field, lam, nu),
            T_star(ws.field, lam, nu))


def _trace_chain(ws, n, picks, coeffs):
    f = ws.field
    basis = hn_basis(n)
    for p, cs in zip(picks, coeffs):
        zeta = {}
        for idx, c in zip(p, cs):
            bump(zeta, basis[idx], f.num(c))
        nums, d = row = f.clear(zeta)
        tv = tr_mod.full_trace(ws, row)
        tvd = tr_mod.full_trace(ws, pi_diamond(ws, row))
        if not tr_mod.pf_eq(tv.x, tvd.x):
            return False
        tvp = tr_mod.full_trace(ws, (pi_plus(nums), d))
        if not tr_mod.pf_eq(tv.z, tvp.z):
            return False
        tw = tr_mod.full_trace(ws, (w_mul(nums), d))
        if not tr_mod.pf_eq(tw.z, tv.x):
            return False
        tpi = tr_mod.full_trace(ws, (Pi(nums), d))
        if not tr_mod.pf_eq(tpi.x, tv.z):
            return False
        # y_u(L zeta) = u y_u(zeta) - pi_* zeta
        tl = tr_mod.full_trace(ws, lax_apply(f, row))
        tot = f.zero
        for s0, c in tv.y.items():
            tot = tot + c
            if tl.y.get(s0, f.zero) != c * f.lf(s0):
                return False
        if tot - pi_star(row, f) != f.zero:
            return False
    return True


def _null_ranks(ws, n):
    return (tr_mod.null_module_rank(ws, n, "Z0") == tr_mod.null_module_expected_dim(n, "Z0")
            and tr_mod.null_module_rank(ws, n, "X0") == tr_mod.null_module_expected_dim(n, "X0"))


def _refined_pieri(ws, lam):
    f = ws.field
    for s in add_set(lam):
        gamma = add_box(lam, s)
        a, da = ws.psi_row(lam, s)
        for v in add_set((1,)):
            b, db = ws.psi_row((1,), v)
            terms = [(-1, (ext_mul(b, a), db * da))]
            for u in add_set(gamma):
                num = f.lf((-v[0], -v[1])) * f.lf((s[0] - u[0] - v[0] + 1,
                                                   s[1] - u[1] - v[1] + 1))
                den = f.lf((s[0] - u[0], s[1] - u[1])) * f.lf((s[0] - u[0] + 1,
                                                               s[1] - u[1] + 1))
                terms.append((num / den * tau(f, gamma, u), ws.psi_row(gamma, u)))
            for t in add_set(lam):
                if t != s:
                    terms.append((tau(f, lam, t), ws.psi_row(add_box(lam, t), s)))
            if not _vanishes(f, terms):
                return False
    return True


# ---------------------------------------------------------------------------
# LR oracle suite (Pieri agreement, marginalization, determination)
# ---------------------------------------------------------------------------

def suite_pieri(cfg, max_total=None, marg_max=None):
    sizes = suite_sizes("pieri", cfg.mode, max_total=max_total, marg_max=marg_max)
    max_total, marg_max = sizes["max_total"], sizes["marg_max"]
    rep = Report("pieri", cfg)
    for total in range(1, max_total + 1):
        for r in range(1, total + 1):
            for mu in partitions_of(total - r):
                rep.check("stanley pieri r=%d mu=%s" % (r, _fmt(mu)), _stanley_pieri, r, mu)
    for ws in rep.workspaces:
        ws.warm(marg_max)
    for lam, s, nu, t in pair_quads(marg_max):
        rep.check("marginalize %s:%s * %s:%s" % (_fmt(lam), (s,), _fmt(nu), (t,)),
                  _marginalize, lam, s, nu, t)
    for n in range(2, 7):
        rep.check("determination of LR coefficients at size %d" % n,
                  lr_mod.determination_check, n)
    return rep.done()


def _stanley_pieri(ws, r, mu):
    direct = {g: c for g, c in lr_mod.jack_lr(ws, (1,) * r, mu).items() if c}
    return pieri_stanley(ws.field, r, mu) == direct


def _marginalize(ws, lam, s, nu, t):
    return (lr_mod.marginalize(lr_mod.jacklax_lr(ws, lam, s, nu, t))
            == lr_mod.jack_lr(ws, lam, nu))


# ---------------------------------------------------------------------------
# Delta suite
# ---------------------------------------------------------------------------

def suite_delta(cfg):
    rep = Report("delta", cfg)
    c8 = [parse_partition(s) for s in ("1,3,4", "2^2,4", "1,2^2,3", "1^2,3^2")]
    c7 = [parse_partition(s) for s in ("2^2,1^3", "2^3,1", "3,2^2", "4,2,1",
                                       "4,1^3", "3,1^4")]
    rep.check("degree-8 4-cycle in ker Delta", lr_mod.delta_kernel_check, c8)
    rep.check("degree-7 6-cycle in ker Delta", lr_mod.delta_kernel_check, c7)
    rep.add("rank ker Delta_7 = 2", lr_mod.delta_kernel_rank(7) == 2)
    rep.add("ker Delta_n empty for 1<=n<7",
            all(lr_mod.delta_kernel_rank(n) == 0 for n in range(1, 7)))
    rep.check("Delta(j_{1^2} j_2) equals varpi*varpi*(T-1)", _delta_worked_example)
    rep.check("Delta is not a ring homomorphism (witness j_1, j_1)", _delta_not_hom)
    return rep.done()


def _delta_worked_example(ws):
    prod = lr_mod.jack_product(ws, (1, 1), (2,))
    return lr_mod.delta_map(ws, prod) == lr_mod.delta_of_jack_product(ws, (1, 1), (2,))


def _delta_not_hom(ws):
    d1 = lr_mod.delta_map(ws, ws.jack_row((1,)))
    dd = lr_mod.delta_map(ws, lr_mod.jack_product(ws, (1,), (1,)))
    return d1 == {(0, 0): ws.field.one} and dd != d1


# ---------------------------------------------------------------------------
# SHc suite
# ---------------------------------------------------------------------------

def suite_shc(cfg, max_degree=None):
    max_degree = suite_sizes("shc", cfg.mode, max_degree=max_degree)["max_degree"]
    rep = Report("shc", cfg)
    for ws in rep.workspaces:
        ws.warm(max_degree)
    rep.sweep(_shc_construction, max_degree)
    rep.sweep(_shc_whittaker, max_degree)
    rep.check("Delta = <zeta| dPhi(u) U |G> agrees with the LR module",
              _delta_via_states, max_degree)
    return rep.done()


def _shc_construction(ws, max_degree):
    c = shc_mod.construction_from_lax_check(ws, max_degree)
    return [
        instance("X+ from Lax equals Jack-basis definition", c["xplus"]),
        instance("Y^{-1} from Lax equals diagonal u^{-1}T(u)", c["yinv"]),
        instance("X- from Lax equals Jack-basis definition", c["xminus_lax"],
                 "residue-convention variant differs by sign %s" % c["xminus_literal_sign"]),
        instance("Y from Lax equals -(hbar N)^{-1} P^-(Y(z))", c["y_equals_minus_Pminus"],
                 "the unprojected form is ruled out by asymptotics; see README"),
    ]


def _shc_whittaker(ws, max_degree):
    w = shc_mod.whittaker_checks(ws, max_degree)
    notes = {
        "whittaker_plus": "holds with global sign %s" % w.get("whittaker_plus_sign"),
        "x_commutator": "with the Lax normalization the factor is hbar/ebar",
        "generalized_whittaker": "vacuum term sum_{b in lam} 1/(z-[b])",
    }
    if "generalized_whittaker_first_fail" in w:
        notes["generalized_whittaker"] = "first failing lam %s" % _fmt(
            w["generalized_whittaker_first_fail"])
    return [instance(k, ok, notes.get(k, "")) for k, ok in w.items()
            if k not in ("whittaker_plus_sign", "generalized_whittaker_first_fail")]


def _delta_via_states(ws, max_degree):
    for n in range(1, max_degree + 1):
        ctx = shc_mod.h_context(ws, n)
        for lam in partitions_of(n):
            row = ws.jack_row(lam)
            if shc_mod.delta_via_states(ws, row, ctx) != lr_mod.delta_map(ws, row):
                return False
    return True


# ---------------------------------------------------------------------------
# conjecture suite (never gating)
# ---------------------------------------------------------------------------

def suite_conjectures(cfg, max_degree=None):
    max_degree = suite_sizes("conjectures", cfg.mode, max_degree=max_degree)["max_degree"]
    rep = Report("conjectures", cfg)
    for fn, args in tr_mod.conjecture_sweeps(max_degree):
        rep.sweep(fn, *args)
    return rep.done()


SUITES = {
    "counts": suite_counts,
    "tau": suite_tau,
    "spectral": suite_spectral,
    "main-theorem": suite_main_theorem,
    "cokernel": suite_cokernel,
    "kernel": suite_kernel,
    "traces": suite_traces,
    "pieri": suite_pieri,
    "delta": suite_delta,
    "shc": suite_shc,
    "conjectures": suite_conjectures,
}
