"""Verification suites: each builds a Report of PASS/FAIL/SKIP instances.

An identity PASSes only if it holds in every workspace of the run (all
specialization points, or the single symbolic workspace).
"""

import random
from fractions import Fraction

from . import lr as lr_mod
from . import shc as shc_mod
from . import traces as tr_mod
from .errors import BadSize
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
from .report import (Report, instance, map_residual, residual, row_residual,
                     rows_residual)
from .spectral import (T_of_boxes, T_partition, T_star, tau, tau_hat, tau_tilde,
                       verify_tau_identities, with_pole)


# Default sizes of each suite's size keywords: {suite: {keyword: (symbolic,
# specialized)}}.  Each keyword is the dest of its verify option (--max-size,
# --max-degree, --to); the CLI resolves every size once (suite_sizes), and a
# suite checks nothing above the resolved size, fixed examples included.
DEFAULT_SIZES = {
    "tau": {"max_size": (8, 8)},
    "spectral": {"max_degree": (7, 7)},
    "main-theorem": {"max_size": (6, 8)},
    "cokernel": {"to": (7, 7)},
    "kernel": {"to": (7, 7)},
    "traces": {"max_degree": (6, 6)},
    "pieri": {"max_size": (7, 7)},
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
            residual((n, P.coeff(n), count_partitions(n)) for n in range(13)))
    Pxt = series_P_xt(6)
    expected = {(0, 1): 1, (1, 2): 1, (2, 2): 2, (3, 2): 2, (3, 3): 1,
                (4, 2): 3, (4, 3): 2}
    res = residual((nr, Pxt.coeff(*nr), c) for nr, c in expected.items())
    res.update(residual((("corners", (n, r)), Pxt.coeff(n, r), count_by_corners(n, r))
                        for n in range(7) for r in range(n + 2)))
    rep.add("P(x,t) coefficients to x^4", res)
    s = series_P_xt(12).subs_t_poly([1, -1])
    rep.add("P(x,1-x) = 1 to x^12",
            residual((i, s.coeff(i), 1 if i == 0 else 0) for i in range(13)))
    lhs = series_P_xt(12).dt_at_1()
    rhs = series_P(12) / _one_minus_x(12)
    rep.add("dP/dt at t=1 equals P(x)/(1-x) to x^12",
            residual((i, lhs.coeff(i), rhs.coeff(i)) for i in range(13)))
    dimser = series_P(9) / _one_minus_x(9)
    rep.add("graded dim H_n = [x^n] P(x)/(1-x) to x^9",
            residual((n, dimser.coeff(n), dim_hn(n)) for n in range(10)))
    Q = series_Q(10)
    rep.add("Q(x) matches the lattice counts to x^10",
            residual((n, Q.coeff(n), count_lattice_q(n)) for n in range(11)))
    ker = tr_mod.kernel_dim_series(6)
    rep.add("kernel series x^4 + 2x^5 + 5x^6",
            residual((i, ker.coeff(i), c) for i, c in enumerate([0, 0, 0, 0, 1, 2, 5])))
    rep.add("Koszul Hilbert identity to (z^6, x^12)", tr_mod.koszul_hilbert_check(6, 12))
    return rep.done()


def _one_minus_x(order):
    return SeriesZ(order, [Fraction(1), Fraction(-1)])


# ---------------------------------------------------------------------------
# tau identities
# ---------------------------------------------------------------------------

def suite_tau(cfg, max_size):
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
    # star-factor identity for single boxes, sizes <= 4
    for n in range(min(max_size, 4) + 1):
        for lam in partitions_of(n):
            for t in [(0, 0), (1, 0), (0, 1), (1, 2)]:
                rep.check("star factor %s * box%s" % (_fmt(lam), (t,)), _star_factor, lam, t)
    return rep.done()


def _tau_identities(ws, lam, s):
    return verify_tau_identities(ws.field, lam, s)


def _kerov(ws, lam):
    f = ws.field
    T = T_partition(f, lam)
    # u^{-1} T_lam: poles at the add set with residues tau
    poly, res = with_pole(T, (0, 0)).partial_fractions(f)
    out = map_residual(dict(enumerate(poly)), {}, "u^-1 T polynomial part")
    out.update(map_residual(res, {s: tau(f, lam, s) for s in add_set(lam)}, "u^-1 T residue"))
    # hatted: T - 1 has residues tau-hat and they sum to zero
    polyT, resT = T.partial_fractions(f)
    out.update(map_residual(dict(enumerate(polyT)), {0: f.one}, "T polynomial part"))
    out.update(map_residual({s: resT.get(s, f.zero) for s in add_set(lam)},
                            {s: tau_hat(f, lam, s) for s in add_set(lam)}, "T residue"))
    out.update(residual([("T residue sum", sum((resT.get(s, f.zero) for s in add_set(lam)),
                                               f.zero), 0)]))
    return out


def _norm_ratio(ws, lam, s):
    f = ws.field
    lam_s = add_box(lam, s)
    lhs = jack_norm_sq(f, lam_s) / jack_norm_sq(f, lam)
    rhs = tau_tilde(f, lam_s, (s[0] + 1, s[1] + 1)) / tau(f, lam, s)
    return residual([("|j_lam+s|^2 / |j_lam|^2", lhs, rhs)])


def _star_factor(ws, lam, t):
    lhs = T_of_boxes(ws.field, star_product(lam, {t: 1}))
    rhs = T_partition(ws.field, lam).shift(t)
    return residual([("roots", lhs.num, rhs.num), ("poles", lhs.den, rhs.den),
                     ("prefactor", lhs.pre, rhs.pre)])


# ---------------------------------------------------------------------------
# spectral suite
# ---------------------------------------------------------------------------

def suite_spectral(cfg, max_degree):
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


def _ext_row(row):
    """A FockVec row as an ExtVec row."""
    return fock_to_ext(row[0]), row[1]


def _coords(row, basis):
    """The numerators of a cleared row as a list over basis."""
    return [row[0].get(k, 0) for k in basis]


def _eigen(ws, lam, s):
    f = ws.field
    row = ws.psi_row(lam, s)
    out = row_residual(f, [(1, lax_apply(f, row)), (-f.lf(s), row)], "L psi - [s] psi")
    nums, d = row
    out.update(row_residual(f, [(1, (pi0(nums), d)), (-1, ws.jack_row(lam))], "pi0 psi - j"))
    out.update(residual([("pi_* psi", pi_star(row, f), ws.pi_star_psi(lam, s))]))
    return out


def _psi_norms(ws, lam):
    f = ws.field
    out = []
    for s in add_set(lam):
        row = ws.psi_row(lam, s)
        n2 = inner_hbar(row, row, f)
        out.append((("|j|^2 / tau", s), n2, jack_norm_sq(f, lam) / tau(f, lam, s)))
        out.append((("hook product", s), n2, _psi_norm_hooks(ws, lam, s)))
    return residual(out)


def _phi_expansion(ws, r):
    f = ws.field
    col = (1,) * r
    out = {}
    for s in add_set(col):
        nums, d = ws.psi_row(col, s)
        for k in range(r):
            got = {(0, mu): c for (m, mu), c in nums.items() if m == r - k}
            out.update(row_residual(f, [(1, (got, d)), (-phi_column_coeff(ws, r, k, s),
                                                        _ext_row(ws.jack_row((1,) * k)))],
                                    (s, k)))
    return out


def _complete(ws, n):
    """The psi-hat vectors of H_n are dim H_n in number and each expands to
    itself alone.  The dual expansion reads <zeta, psi> off the diagonal
    norms, so this makes the Gram matrix diagonal and nonsingular: the
    psi-hat vectors are an orthogonal basis of H_n."""
    pairs = eigen_pairs(n)
    f = ws.field
    out = residual([("count", len(pairs), dim_hn(n))])
    for label in pairs:
        exp = f.uncleared(ws.expand_psi_hat(ws.psi_hat_row(*label)))
        out.update(map_residual(exp, {label: f.one}, label))
    return out


def _self_adjoint(ws, n):
    """<L a, b> = <a, L b> on the basis of H_n, as M[i][j] g[i] ==
    M[j][i] g[j] for the matrix M of L and the Gram weights g.  The images
    of the basis vectors are numerators over one common denominator, and
    so are the Gram weights, so the two sides compare on numerators."""
    basis = hn_basis(n)
    f = ws.field
    g, _ = ws.gram_row(n)
    imgs = [lax_apply(f, f.clear({key: f.one}))[0] for key in basis]
    return residual(((ki, kj), imgs[j].get(ki, 0) * g[ki], imgs[i].get(kj, 0) * g[kj])
                    for i, ki in enumerate(basis) for j, kj in enumerate(basis[i:], i))


def _pi_diamond_ok(ws, n):
    basis = hn_basis(n)
    out, mats = {}, []
    for lam, s in eigen_pairs(n):
        img = pi_diamond(ws, ws.psi_row(lam, s))
        out.update(rows_residual(ws.field, pi_diamond(ws, img), img, (lam, s)))
        mats.append(_coords(img, basis))
    out.update(residual([("rank", rank(mats), count_partitions(n + 1))]))
    return out


def _jacksums(ws, lam):
    f = ws.field
    jack = _ext_row(ws.jack_row(lam))
    terms = [(tau(f, lam, s), ws.psi_row(lam, s)) for s in add_set(lam)]
    out = row_residual(f, terms + [(-1, jack)], "sum tau psi - j")
    terms = [(tau_tilde(f, lam, tp), psi_tilde_row(ws, lam, tp)) for tp in rem_set_plus(lam)]
    out.update(row_residual(f, terms + [(-1, lax_apply(f, jack))], "sum tau~ psi~ - L j"))
    return out


def _shift_thm(ws, lam):
    """w psi_{lam-t}^t is the L+ eigenfunction (L-[t'])^{-1}-normalized."""
    f = ws.field
    jack = _ext_row(ws.jack_row(lam))
    out = {}
    for tp in rem_set_plus(lam):
        pt = psi_tilde_row(ws, lam, tp)
        img, d = lax_apply(f, pt)
        # L+ eigen equation on the positive block
        out.update(row_residual(f, [(1, (pi_plus(img), d)), (-f.lf(tp), pt)], ("L+", tp)))
        # resolvent normalization: ([t'] - L) psi~ = -j_lam
        out.update(row_residual(f, [(f.lf(tp), pt), (-1, (img, d)), (1, jack)],
                                ("resolvent", tp)))
    return out


def _structural(ws, lam):
    n = size(lam)
    f = ws.field
    rows = [_ext_row(ws.jack_row(lam))]
    for t in rem_set(lam):
        nums, d = ws.psi_row(remove_box(lam, t), t)
        rows.append((w_mul(nums), d))
    out = {}
    for i, row in enumerate(rows):
        nums, d = ws.expand_psi_hat(row)
        out.update({(i, key): (f.quotient(c, d), 0) for key, c in nums.items()
                    if key[0] != lam})
    basis = hn_basis(n)
    out.update(residual([("rank", rank([_coords(row, basis) for row in rows]),
                          len(add_set(lam)))]))
    return out


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

def suite_main_theorem(cfg, max_size):
    rep = Report("main-theorem", cfg)
    for ws in rep.workspaces:
        for n in range(max_size + 1):
            ws.jack_degree(n)
    for mu, nu in partition_pairs(max_size):
        rep.check("residual %s * %s" % (_fmt(mu), _fmt(nu)),
                  lr_mod.main_theorem_residual, mu, nu)
    if max_size >= 4:
        rep.check("worked example (1^2,2)", _worked_lr_example)
    return rep.done()


def _worked_lr_example(ws):
    """chat and c values for (1^2, 2)."""
    f = ws.field
    tabh = lr_mod.jack_lr(ws, (1, 1), (2,), hatted=True)
    tab = lr_mod.jack_lr(ws, (1, 1), (2,))
    chat = f.lf((2, 0)) * f.lf((0, -2)) / f.lf((2, -2))
    c = -f.lf((0, 1)) / f.lf((1, -1))
    return residual([("chat (2,1,1)", tabh.get((2, 1, 1)), chat),
                     ("c (2,1,1)", tab.get((2, 1, 1)), c)])


# ---------------------------------------------------------------------------
# cokernel / kernel
# ---------------------------------------------------------------------------

def suite_cokernel(cfg, to):
    rep = Report("cokernel", cfg)
    for n in range(to + 1):
        res = tr_mod.verify_cokernel(n)
        rep.add("relations annihilate Tr, n=%d" % n,
                {k: v for k, v in res.items() if k[0] == "annihilate"})
        rep.add("cokernel dim = q(%d) = %d" % (n, count_lattice_q(n)), res)
    for n in range(min(to, 5) + 1):
        rep.check("resolvent w-identity n=%d" % n, tr_mod.resolvent_w_identity, n)
    return rep.done()


def suite_kernel(cfg, to):
    rep = Report("kernel", cfg)
    ser = tr_mod.kernel_dim_series(to)
    for n in range(to + 1):
        d = tr_mod.kernel_dimension(n)
        rep.add("dim ker Tr_%d = %d" % (n, d),
                residual([("hexagon span", tr_mod.hexagon_span_dimension(n), d),
                          ("series", ser.coeff(n), d)]))
    for n in range(4, min(to, 7) + 1):
        rep.check("hexagons lie in ker Tr_%d" % n, _hexagons_in_kernel, n)
    if to >= 4:
        hx4 = [(h.eta, frozenset(h.corners)) for h in tr_mod.kernel_basis(4)]
        rep.add("n=4 generator is Gamma_{1,2}^{(2,0),(1,1),(0,2)}",
                residual([("generators", hx4,
                           [((2, 1), frozenset({(2, 0), (1, 1), (0, 2)}))])]))
    if to >= 5:
        hx5 = {(h.eta, frozenset(h.corners)) for h in tr_mod.kernel_basis(5)}
        rep.add("n=5 generators are the expected pair",
                residual([("generators", hx5,
                           {((3, 1), frozenset({(2, 0), (1, 1), (0, 3)})),
                            ((2, 1, 1), frozenset({(3, 0), (1, 1), (0, 2)}))})]))
    return rep.done()


def _hexagons_in_kernel(ws, n):
    out = {}
    for hx in tr_mod.kernel_basis(n):
        tv = tr_mod.full_trace(ws, hx.value(ws))
        for part, values in (("x", tv.x), ("y", tv.y), ("z", tv.z)):
            out.update(map_residual(values, {}, "%r %s" % (hx, part)))
    return out


# ---------------------------------------------------------------------------
# traces suite
# ---------------------------------------------------------------------------

def suite_traces(cfg, max_degree):
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
    if size(lam) == size(nu):
        # (nu, t, lam, s) is a quad too: the lesser of the two builds
        quad = min((lam, s, nu, t), (nu, t, lam, s))
        t_prod, t_beta, tv = ws.memo(("pair traces", *quad), _pair_traces, *quad)
    else:
        t_prod, t_beta, tv = _pair_traces(ws, lam, s, nu, t)
    chat, star, T = ws.memo(("theta/beta", lam, nu), _pair_data, lam, nu)
    out = map_residual(tv.x, chat, "x(theta) - chat")
    out.update(map_residual(tv.y, star, "y(theta) - tau-hat(star)"))
    out.update(map_residual(tv.z, {}, "z(theta)"))
    out.update(tr_mod.twisted_residual(t_beta, tv))
    out.update(tr_mod.y_trace_product_check(ws, lam, s, nu, t, t_prod, t_beta, star, T))
    return out


def _pair_traces(ws, lam, s, nu, t):
    """The traces of the product, beta and theta of psi-hat_lam^s and
    psi-hat_nu^t.  All three are symmetric in the two factors, so a quad
    and its swapped twin (nu, t, lam, s) share them."""
    return tr_mod.pair_traces(ws, ws.psi_hat_row(lam, s), ws.psi_hat_row(nu, t))


def _pair_data(ws, lam, nu):
    """The hatted Jack LR table, the residues of T_{lam*nu} and T_{lam*nu}
    itself: what the theta/beta checks of every (s, t) share."""
    from .spectral import star_residues
    return (lr_mod.jack_lr(ws, lam, nu, hatted=True), star_residues(ws.field, lam, nu),
            T_star(ws.field, lam, nu))


def _trace_chain(ws, n, picks, coeffs):
    f = ws.field
    basis = hn_basis(n)
    out = {}
    for i, (p, cs) in enumerate(zip(picks, coeffs)):
        zeta = {}
        for idx, c in zip(p, cs):
            bump(zeta, basis[idx], f.num(c))
        nums, d = row = f.clear(zeta)
        tv = tr_mod.full_trace(ws, row)
        tvd = tr_mod.full_trace(ws, pi_diamond(ws, row))
        out.update(map_residual(tv.x, tvd.x, "x(zeta_%d) - x(pi-diamond zeta_%d)" % (i, i)))
        tvp = tr_mod.full_trace(ws, (pi_plus(nums), d))
        out.update(map_residual(tv.z, tvp.z, "z(zeta_%d) - z(pi+ zeta_%d)" % (i, i)))
        tw = tr_mod.full_trace(ws, (w_mul(nums), d))
        out.update(map_residual(tw.z, tv.x, "z(w zeta_%d) - x(zeta_%d)" % (i, i)))
        tpi = tr_mod.full_trace(ws, (Pi(nums), d))
        out.update(map_residual(tpi.x, tv.z, "x(Pi zeta_%d) - z(zeta_%d)" % (i, i)))
        # y_u(L zeta) = u y_u(zeta) - pi_* zeta
        tl = tr_mod.full_trace(ws, lax_apply(f, row))
        out.update(residual((("y(L zeta_%d) - [s] y(zeta_%d)" % (i, i), s0),
                             tl.y.get(s0, f.zero), c * f.lf(s0)) for s0, c in tv.y.items()))
        out.update(residual([("sum y(zeta_%d) - pi_* zeta_%d" % (i, i),
                              sum(tv.y.values(), f.zero), pi_star(row, f))]))
    return out


def _null_ranks(ws, n):
    return residual((which + " rank", tr_mod.null_module_rank(ws, n, which),
                     tr_mod.null_module_expected_dim(n, which)) for which in ("Z0", "X0"))


def _refined_pieri(ws, lam):
    f = ws.field
    out = {}
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
            out.update(row_residual(f, terms, (s, v)))
    return out


# ---------------------------------------------------------------------------
# LR oracle suite (Pieri agreement, marginalization, determination)
# ---------------------------------------------------------------------------

def suite_pieri(cfg, max_size):
    """Stanley's Pieri rule to total size max_size; marginalization and
    determination to size min(max_size, 6)."""
    rep = Report("pieri", cfg)
    for total in range(1, max_size + 1):
        for r in range(1, total + 1):
            for mu in partitions_of(total - r):
                rep.check("stanley pieri r=%d mu=%s" % (r, _fmt(mu)), _stanley_pieri, r, mu)
    capped = min(max_size, 6)
    for ws in rep.workspaces:
        ws.warm(capped)
    for lam, s, nu, t in pair_quads(capped):
        rep.check("marginalize %s:%s * %s:%s" % (_fmt(lam), (s,), _fmt(nu), (t,)),
                  _marginalize, lam, s, nu, t)
    for n in range(2, capped + 1):
        rep.check("determination of LR coefficients at size %d" % n,
                  lr_mod.determination_check, n)
    return rep.done()


def _stanley_pieri(ws, r, mu):
    return map_residual(pieri_stanley(ws.field, r, mu), lr_mod.jack_lr(ws, (1,) * r, mu))


def _marginalize(ws, lam, s, nu, t):
    """sum_u of the Jack-Lax coefficients c_{(lam,s),(nu,t)}^{(gamma,u)}
    equals c_{lam nu}^gamma: one field.combine keyed by gamma of the psi-hat
    expansion row of psi_lam^s psi_nu^t, each label's numerator over
    pi_* psi_gamma^u, and the Jack expansion row of j_lam j_nu."""
    f = ws.field
    (a, da), (b, db) = ws.psi_row(lam, s), ws.psi_row(nu, t)
    nums, d = ws.expand_psi_hat((ext_mul(a, b), da * db))
    terms = [(f.one / ws.pi_star_psi(g, u), ({g: c}, d)) for (g, u), c in nums.items()]
    terms.append((-1, ws.expand_in_jacks(lr_mod.jack_product(ws, lam, nu))))
    return row_residual(f, terms)


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
    rep.add("rank ker Delta_7 = 2", residual([(7, lr_mod.delta_kernel_rank(7), 2)]))
    rep.add("ker Delta_n empty for 1<=n<7",
            residual((n, lr_mod.delta_kernel_rank(n), 0) for n in range(1, 7)))
    rep.check("Delta(j_{1^2} j_2) equals varpi*varpi*(T-1)", _delta_worked_example)
    rep.check("Delta is not a ring homomorphism (witness j_1, j_1)", _delta_not_hom)
    return rep.done()


def _delta_worked_example(ws):
    prod = lr_mod.jack_product(ws, (1, 1), (2,))
    return map_residual(lr_mod.delta_map(ws, prod),
                        lr_mod.delta_of_jack_product(ws, (1, 1), (2,)))


def _delta_not_hom(ws):
    d1 = lr_mod.delta_map(ws, ws.jack_row((1,)))
    dd = lr_mod.delta_map(ws, lr_mod.jack_product(ws, (1,), (1,)))
    out = map_residual(d1, {(0, 0): ws.field.one}, "Delta(j_1)")
    out.update(residual([("Delta(j_1 j_1) == Delta(j_1)", dd == d1, False)]))
    return out


# ---------------------------------------------------------------------------
# SHc suite
# ---------------------------------------------------------------------------

def suite_shc(cfg, max_degree):
    rep = Report("shc", cfg)
    for ws in rep.workspaces:
        ws.warm(max_degree)
    rep.sweep(_shc_construction, max_degree)
    rep.sweep(_shc_whittaker, max_degree)
    rep.check("Delta = <zeta| dPhi(u) U |G> agrees with the LR module",
              _delta_via_states, max_degree)
    return rep.done()


# The instance id and the PASS note of each identity of
# shc.construction_from_lax_check, and the PASS notes of shc.whittaker_checks.
_CONSTRUCTION = {
    "xplus": ("X+ from Lax equals Jack-basis definition", ""),
    "yinv": ("Y^{-1} from Lax equals diagonal u^{-1}T(u)", ""),
    "xminus_lax": ("X- from Lax equals Jack-basis definition",
                   "residue-convention variant differs by sign [-1]"),
    "y_equals_minus_Pminus": ("Y from Lax equals -(hbar N)^{-1} P^-(Y(z))",
                              "the unprojected form is ruled out by asymptotics; see README"),
}
_WHITTAKER_NOTES = {
    "whittaker_plus": "holds with global sign -1",
    "x_commutator": "with the Lax normalization the factor is hbar/ebar",
    "generalized_whittaker": "vacuum term sum_{b in lam} 1/(z-[b])",
}


def _shc_construction(ws, max_degree):
    return [instance(_CONSTRUCTION[k][0], res, _CONSTRUCTION[k][1])
            for k, res in shc_mod.construction_from_lax_check(ws, max_degree).items()]


def _shc_whittaker(ws, max_degree):
    return [instance(k, res, _WHITTAKER_NOTES.get(k, ""))
            for k, res in shc_mod.whittaker_checks(ws, max_degree).items()]


def _delta_via_states(ws, max_degree):
    out = {}
    for n in range(1, max_degree + 1):
        ctx = shc_mod.h_context(ws, n)
        for lam in partitions_of(n):
            row = ws.jack_row(lam)
            out.update(map_residual(shc_mod.delta_via_states(ws, row, ctx),
                                    lr_mod.delta_map(ws, row), lam))
    return out


# ---------------------------------------------------------------------------
# conjecture suite (never gating)
# ---------------------------------------------------------------------------

def suite_conjectures(cfg, max_degree):
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
