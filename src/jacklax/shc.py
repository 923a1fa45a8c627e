"""Rank-1 holomorphic presentation built from the Lax operator: the
diagonal operators Y, Psi, dPhi, U, the box creation/annihilation currents
X+/X-, the Gaiotto-type states, and the Whittaker-style identities.

States are kept in Jack coordinates: {lam: scalar} meaning sum c_lam j_lam.
Their Fock images are cleared rows (jack_to_fock), and a row comes back to
Jack coordinates through the Jack dual (fock_to_jack).
Operator values that are rational in the formal variable z are stored as
partial fractions, sparse vectors {(key, partition): scalar} built by
fock.bump and fock.v_accum, with keys
    None        constant part,
    ("z", k)    z^k (k >= 1),
    ("p", box)  1/(z - [box]);
by_pole regroups one as {key: state}.
"""

from .errors import JackLaxError
from .fock import (Pi, bump, deriv_V, ext_degree, fock_mul, fock_to_ext, inner_hbar, pi0,
                   v_accum, v_scale)
from .jack import jack_inv_norm_sq
from .lax import lax_apply, op_A, op_B
from .partitions import (add_box, add_set, boxes, partitions_of, rem_set,
                         remove_box, size)
from .spectral import T_partition, star_residues, tau, tau_tilde, with_pole
from .report import map_residual, residual, rows_residual


# ---------------------------------------------------------------------------
# partial-fraction values
# ---------------------------------------------------------------------------

def by_pole(pf):
    """{key: state} of a PF value, the keys and each key's partitions in
    first-seen order."""
    out = {}
    for (key, lam), c in pf.items():
        out.setdefault(key, {})[lam] = c
    return out


def sfun_to_pf_keys(field, fun):
    """Partial fractions of a SpectralFun as {pf-key: scalar}."""
    poly, res = fun.partial_fractions(field)
    out = {}
    for k, c in enumerate(poly):
        if c:
            out[None if k == 0 else ("z", k)] = c
    for pole, c in res.items():
        if c:
            out[("p", pole)] = c
    return out


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def Y_eig(field, lam):
    """Y_lam(z) = z T_lam(z)^{-1}."""
    return T_partition(field, lam).inverse() * _z_factor(field)


def _z_factor(field):
    from .spectral import SpectralFun
    return SpectralFun(field.one, {(0, 0): 1}, {})


def Yinv_eig(field, lam):
    """z^{-1} T_lam(z)."""
    return with_pole(T_partition(field, lam), (0, 0))


def Psi_eig(field, lam):
    """Psi_lam(z) = Y_lam(z+ebar) / Y_lam(z)."""
    return Y_eig(field, lam).shift((-1, -1)) * Yinv_eig(field, lam)


def apply_diagonal(ws, state, eig):
    """Diagonal operator with SpectralFun eigenvalues -> PF value."""
    field = ws.field
    out = {}
    for lam, c in state.items():
        for key, val in sfun_to_pf_keys(field, eig(field, lam)).items():
            bump(out, (key, lam), c * val)
    return out


def apply_dPhi(ws, state):
    """dPhi(z): diagonal with eigenvalue sum_{b in lam} 1/(z-[b])."""
    return {(("p", b), lam): c for lam, c in state.items() for b in boxes(lam)}


def apply_U(ws, state):
    """Flavor vertex: j_lam -> varpi_lam j_lam, vacuum -> 0."""
    out = {}
    for lam, c in state.items():
        if lam:
            out[lam] = c * ws.varpi(lam)
    return out


def apply_X_plus(ws, state):
    field = ws.field
    out = {}
    for lam, c in state.items():
        for s in add_set(lam):
            bump(out, (("p", s), add_box(lam, s)), c * tau(field, lam, s))
    return out


def apply_X_minus(ws, state):
    """X^-(z) j_lam = sum_{x in R_lam} tau~_lam^{x+(1,1)}/(z-[x]) j_{lam-x}."""
    field = ws.field
    out = {}
    for lam, c in state.items():
        for x in rem_set(lam):
            tp = (x[0] + 1, x[1] + 1)
            bump(out, (("p", x), remove_box(lam, x)), c * tau_tilde(field, lam, tp))
    return out


def apply_V1(ws, state, sign):
    """V_1^+ = multiplication by V_1 and V_1^- = hbar d/dV_1, its adjoint
    under the monomial pairing, in Jack coords."""
    nums, d = jack_to_fock(ws, state)
    if sign > 0:
        row = fock_mul({(1,): 1}, nums), d
    else:
        row = ws.field.combine([(ws.field.hbar, (deriv_V(nums, 1), d))])
    return fock_to_jack(ws, row)


def jhat_dagger(ws, lam, row, memo):
    """jhat_lam^dagger applied to the cleared FockVec row, in Jack
    coordinates.

    memo is filled on first use and must belong to row alone; its rows are
    shared and never mutated.  memo[()] is the row itself, and
    memo[mu] is hbar^{-l(mu)} V_mu^dagger vec as numerators over its
    denominator, so hbar^l(mu) enters each term's coefficient and the sum
    runs on numerators: with hbar = h / L for (h, L) = field.lax_ints[1:]
    and m the longest l(mu), the coefficient of term mu is the ring element
    J[mu] h^l L^(m-l), and one field scalar 1 / (L^m D varpi_lam) scales
    the sum."""
    field = ws.field
    if not memo:
        memo[()] = row
    # jhat_lam = J / (D varpi_lam) for the cleared row (J, D) of j_lam
    nums, d = ws.jack_row(lam)
    _, h, L = field.lax_ints
    m = max(map(len, nums))
    powers = [h ** l * L ** (m - l) for l in range(m + 1)]
    terms = [(c * powers[len(mu)], _dagger_row(memo, mu)) for mu, c in nums.items()]
    scale = field.quotient(field.one / ws.varpi(lam), d * L ** m)
    return fock_to_jack(ws, field.combine([(scale, field.combine(terms))]))


def _dagger_row(memo, mu):
    """(numerators, D) of prod_k (k d/dV_k) over the parts k of mu applied
    to the vector memo[()] holds, over its D; memoised in memo."""
    got = memo.get(mu)
    if got is None:
        nums, d = _dagger_row(memo, mu[1:])
        got = memo[mu] = ({key: c * mu[0] for key, c in deriv_V(nums, mu[0]).items()}, d)
    return got


def jack_to_fock(ws, state):
    """The cleared row of the FockVec of a state."""
    return ws.field.combine([(c, ws.jack_row(lam)) for lam, c in state.items()])


def fock_to_jack(ws, row):
    """The state of a cleared FockVec row."""
    return ws.field.uncleared(ws.expand_in_jacks(row))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def gaiotto_state(ws, N):
    """G = sum_lam j_lam / |j_lam|^2 up to degree N (equals exp(V_1/hbar))."""
    out = {}
    for n in range(N + 1):
        for lam in partitions_of(n):
            out[lam] = jack_inv_norm_sq(ws.field, lam)
    return out


def h_state(ws, N):
    """H = U G = sum_{lam != 0} varpi_lam j_lam / |j_lam|^2 up to degree N."""
    return apply_U(ws, gaiotto_state(ws, N))


def h_context(ws, N):
    """(H, the row of H, [(key, row of the part)] for the parts of
    dPhi(H)), H truncated at N: the lam-independent states that the
    Whittaker and Delta checks of degree N share, with their cleared
    FockVec rows."""
    H = h_state(ws, N)
    return (H, jack_to_fock(ws, H),
            [(key, jack_to_fock(ws, st)) for key, st in by_pole(apply_dPhi(ws, H)).items()])


def state_truncate(state, N):
    return {lam: c for lam, c in state.items() if size(lam) <= N}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def construction_from_lax_check(ws, n):
    """Compare the Lax-resolvent constructions of X+, X-, Y^{-1}, Y with the
    Jack-basis definitions on all degrees <= n: {identity: residual}, each
    residual keyed by (lam, (PF key, partition)).  The residue-convention
    variant of X- is checked to differ from it by the global sign -1.

    Each resolvent runs in the psi-hat eigenbasis (ws.expand_psi_hat of a
    row), and the A and pi0 images of each psi-hat vector are read in Jack
    coordinates once per call (memo)."""
    field = ws.field
    out = {"xplus": {}, "yinv": {}, "xminus_lax": {}, "y_equals_minus_Pminus": {}}
    memo = {}
    for k in range(n + 1):
        for lam in partitions_of(k):
            nums, d = ws.jack_row(lam)
            # resolvent of j in the eigenbasis, honestly via the expansion
            exp = field.uncleared(ws.expand_psi_hat((fock_to_ext(nums), d)))
            # --- X+ = A (z-L)^{-1} pi0
            out["xplus"].update(map_residual(_resolvent_pf(ws, exp, op_A, memo),
                                             apply_X_plus(ws, {lam: field.one}), lam))
            # --- Y^{-1} = pi0 (z-L)^{-1}
            out["yinv"].update(map_residual(_resolvent_pf(ws, exp, _pi0_row, memo),
                                            apply_diagonal(ws, {lam: field.one}, Yinv_eig), lam))
            if not lam:
                continue
            # --- X- = pi0 (z-L)^{-1} A^dag
            exp = field.uncleared(ws.expand_psi_hat(op_B(field, ws.jack_row(lam))))
            direct = apply_X_minus(ws, {lam: field.one})
            out["xminus_lax"].update(map_residual(_resolvent_pf(ws, exp, _pi0_row, memo),
                                                  direct, lam))
            # the residue-convention variant differs by a global sign
            literal = {}
            for x in rem_set(lam):
                res = Y_eig(field, lam).shift((-1, -1)).residue(x, field)
                bump(literal, (("p", x), remove_box(lam, x)), -res)
            out["xminus_lax"].update(map_residual(literal, direct, ("residue variant", lam)))
            # --- Y: (hbar N)^{-1} A (z - ebar - L)^{-1} A^dag equals the
            # negated pole part -P_z^-(Y(z)) (the unprojected Y(z) itself
            # is ruled out by asymptotics: LHS ~ 1/z while Y ~ z)
            scale = field.hbar * field.num(k)
            ypf = sfun_to_pf_keys(field, Y_eig(field, lam))
            expect = {}
            for key, val in ypf.items():
                if isinstance(key, tuple) and key[0] == "p":
                    bump(expect, (key, lam), -val / scale)
            out["y_equals_minus_Pminus"].update(map_residual(
                _resolvent_pf(ws, exp, op_A, memo, (1, 1), scale), expect, lam))
    return out


def _resolvent_pf(ws, exp, image, memo, shift=(0, 0), scale=None):
    """sum c/(z - [s + shift]) image(psi-hat_mu^s) over the psi-hat
    coefficients {(mu, s): c} of exp, each c divided by scale if given, as
    a PF value.  image maps a cleared row to one (op_A or _pi0_row); the
    Jack coordinates of each image are memoised in memo."""
    field = ws.field
    pf = {}
    for (mu, s), c in exp.items():
        key = (image, mu, s)
        img = memo.get(key)
        if img is None:
            img = memo[key] = fock_to_jack(ws, image(field, ws.psi_hat_row(mu, s)))
        if scale is not None:
            c = c / scale
        for g, c2 in img.items():
            bump(pf, (("p", (s[0] + shift[0], s[1] + shift[1])), g), c * c2)
    return pf


def _pi0_row(field, row):
    return pi0(row[0]), row[1]


def whittaker_checks(ws, N):
    """All Whittaker-type identities on degrees <= N: {identity:
    residual}."""
    field = ws.field
    out = {}

    # G = exp(V1/hbar) componentwise
    G = gaiotto_state(ws, N + 1)
    vec = field.uncleared(jack_to_fock(ws, G))
    cmp = []
    fact = field.one
    for n in range(N + 1):
        if n:
            fact = fact * field.num(n)
        expect = field.one / (field.hbar ** n * fact)
        for mu in partitions_of(n):
            cmp.append((mu, vec.get(mu, field.zero), expect if mu == (1,) * n else field.zero))
    out["gaiotto_is_exponential"] = residual(cmp)

    # H = U G = sum V_n / |V_n|^2
    H = h_state(ws, N + 1)
    vecH = field.uncleared(jack_to_fock(ws, H))
    out["H_is_sum_Vn"] = residual(
        (mu, vecH.get(mu, field.zero),
         field.one / (field.hbar * field.num(n)) if mu == (n,) else field.zero)
        for n in range(1, N + 1) for mu in partitions_of(n))

    # first Whittaker: X^-(u) G = Y(u)^{-1} G, components of degree <= N
    # (X^- lowers the degree of G, truncated at N + 1, by one)
    out["whittaker_minus"] = map_residual(
        apply_X_minus(ws, G), apply_diagonal(ws, state_truncate(G, N), Yinv_eig))

    # second Whittaker: X^+(u) G = -P_u^-( Y(u+ebar) ) G: the global minus
    # sign is that of our tau~ convention
    lhs = apply_X_plus(ws, state_truncate(G, N - 1))
    rhs = {}
    for lam, c in state_truncate(G, N).items():
        for key, val in sfun_to_pf_keys(field, Y_eig(field, lam).shift((-1, -1))).items():
            if isinstance(key, tuple) and key[0] == "p":
                bump(rhs, (key, lam), -c * val)
    out["whittaker_plus"] = map_residual(lhs, rhs)

    # generalized Whittaker for each lam with |lam| <= N, on one H context;
    # memos[i] holds the V_mu^dagger images of the i-th context vector
    ctx = h_context(ws, N)
    memos = [{} for _ in range(1 + len(ctx[2]))]
    out["generalized_whittaker"] = res = {}
    for nl in range(1, N + 1):
        for lam in partitions_of(nl):
            res.update(_generalized_whittaker(ws, lam, N, ctx, memos))

    # lifted identity on H
    out["lifted_identity"] = _lifted_identity(ws, N, ctx)

    # commutator [X+(z), X-(w)] = (Psi(z)-Psi(w))/(z-w) on Jack states
    out["x_commutator"] = res = {}
    for n in range(N + 1):
        for lam in partitions_of(n):
            res.update(_commutator_check(ws, lam))

    # [dPhi, V1^pm] = pm X^pm on degrees <= N-1
    out["dPhi_V1_commutator"] = res = {}
    for n in range(max(0, N - 1)):
        for lam in partitions_of(n):
            st = {lam: field.one}
            lhs = v_accum(apply_dPhi(ws, apply_V1(ws, st, +1)),
                          _compose_V1(ws, apply_dPhi(ws, st), +1), -field.one)
            res.update(map_residual(lhs, apply_X_plus(ws, st), ("+", lam)))
            lhs = v_accum(apply_dPhi(ws, apply_V1(ws, st, -1)),
                          _compose_V1(ws, apply_dPhi(ws, st), -1), -field.one)
            res.update(map_residual(lhs, v_scale(apply_X_minus(ws, st), -field.one),
                                    ("-", lam)))

    # leading term: X^pm has poles only, and their residues sum to V_1^pm
    out["x_leading_term"] = res = {}
    for n in range(N):
        for lam in partitions_of(n):
            st = {lam: field.one}
            for sign, name, op in ((1, "X+", apply_X_plus), (-1, "X-", apply_X_minus)):
                tot, poly = {}, {}
                for (key, g), c in op(ws, st).items():
                    bump(tot if isinstance(key, tuple) and key[0] == "p" else poly, g, c)
                res.update(map_residual(poly, {}, (name + " polynomial part", lam)))
                res.update(map_residual(tot, apply_V1(ws, st, sign), (name, lam)))
    return out


def _compose_V1(ws, pf, sign):
    return {(key, lam): c for key, st in by_pole(pf).items()
            for lam, c in apply_V1(ws, st, sign).items()}


def generalized_whittaker_lhs(ws, lam, N, ctx, memos):
    """-[dPhi, jhat_lam^dagger]|H> on degrees <= N - |lam|, with ctx =
    h_context(ws, N) and memos[i] the V_mu^dagger memo of its i-th vector
    (H first, then the parts of dPhi(H))."""
    _, vec, parts = ctx
    out = v_scale(apply_dPhi(ws, jhat_dagger(ws, lam, vec, memos[0])), -ws.field.one)
    for (key, v), memo in zip(parts, memos[1:]):
        for mu, c in jhat_dagger(ws, lam, v, memo).items():
            bump(out, (key, mu), c)
    keep = N - size(lam)
    return {k: c for k, c in out.items() if size(k[1]) <= keep}


def _generalized_whittaker(ws, lam, N, ctx, memos):
    """X_lam^-(z)|H> = P_z^-(prod_s T(z-[s]))|H> + (vacuum term).

    The vacuum term is sum_{b in lam} 1/(z-[b]); at lam={1} this reduces
    to the familiar z^{-1}.  Components of degree <= N - |lam| are exact for H
    truncated at N and are the ones compared.  ctx and memos are as for
    generalized_whittaker_lhs.  Returns the residual keyed by (lam,
    (PF key, partition))."""
    field = ws.field
    keep = N - size(lam)
    if keep < 0:
        return {}
    H = ctx[0]
    lhs = generalized_whittaker_lhs(ws, lam, N, ctx, memos)
    # RHS: diagonal P^-(T_{lam * mu}(z)) on each component, plus the vacuum
    rhs = {}
    for mu, c in state_truncate(H, keep).items():
        if not mu:
            continue
        for pole, r in star_residues(field, lam, mu).items():
            bump(rhs, (("p", pole), mu), c * r)
    for bx in boxes(lam):
        bump(rhs, (("p", bx), ()), field.one)
    return map_residual(lhs, rhs, lam)


def _lifted_identity(ws, N, ctx):
    """(w^{-1} - 1) L dPhi(z)|H> = L/(z-L)|H> + z^{-1}, with ctx =
    h_context(ws, N).

    The w^{-1} part of the left side lowers degree, so with H truncated at N
    only components of degree <= N-1 are exact; both sides are compared
    there, as rows per PF key."""
    field = ws.field
    H, _, parts = ctx

    def cut(nums):
        return {k: v for k, v in nums.items() if ext_degree(k) <= N - 1}

    lhs = {}
    for key, (nums, d) in parts:
        img, den = lax_apply(field, (fock_to_ext(nums), d))
        val = field.combine([(1, (cut(Pi(img)), den)), (-1, (cut(img), den))])
        if val[0]:
            lhs[key] = val
    nums, d = field.clear({(0, ()): field.one})
    rhs = {("p", (0, 0)): [(1, (cut(nums), d))]}
    for mu, c in H.items():
        for s in add_set(mu):
            coeff = c * tau(field, mu, s) * field.lf(s)
            if coeff:
                nums, d = ws.psi_row(mu, s)
                rhs.setdefault(("p", s), []).append((coeff, (cut(nums), d)))
    rhs = {key: row for key, row in ((k, field.combine(ts)) for k, ts in rhs.items()) if row[0]}
    zero = ({}, 1)
    out = {}
    for key in list(lhs) + [k for k in rhs if k not in lhs]:
        out.update(rows_residual(field, lhs.get(key, zero), rhs.get(key, zero), key))
    return out


def _commutator_check(ws, lam):
    """[X+(z), X-(w)] j_lam = (Psi_lam(z) - Psi_lam(w))/(z-w) j_lam, as a
    residual keyed by (lam, ((z-key, w-key), partition))."""
    field = ws.field
    st = {lam: field.one}

    def bivariate(inner, outer, inner_is_z):
        out = {}
        for ki, sti in by_pole(inner(ws, st)).items():
            for (ko, g), c in outer(ws, sti).items():
                out[((ki, ko) if inner_is_z else (ko, ki), g)] = c
        return out

    # X+(z) X-(w): X- acts first (w-keys inside), then X+ (z-keys outside)
    lhs = bivariate(apply_X_minus, apply_X_plus, inner_is_z=False)
    # minus X-(w) X+(z): X+ acts first (z-keys inside), then X- (w-keys)
    v_accum(lhs, bivariate(apply_X_plus, apply_X_minus, inner_is_z=True), -field.one)
    # RHS: (Psi(z)-Psi(w))/(z-w) collapses to -sum_p r_p/((z-p)(w-p)).
    # With the Lax-normalized X^+- the commutator carries the global factor
    # hbar/ebar (sum of Psi residues is ebar while [V1+, V1-] gives hbar).
    rhs = {}
    psi_fun = Psi_eig(field, lam)
    factor = field.hbar / field.ebar
    for pole in psi_fun.den:
        bump(rhs, ((("p", pole), ("p", pole)), lam), -(psi_fun.residue(pole, field) * factor))
    return map_residual(lhs, rhs, lam)


def delta_via_states(ws, row, ctx):
    """Delta(zeta) = <zeta| dPhi(u) U |G> of the cleared row of zeta: pole
    map {box: scalar}, with ctx = h_context(ws, N) for N at least the
    degree of zeta."""
    out = {}
    for key, part in ctx[2]:
        val = inner_hbar(row, part, ws.field)
        if val:
            if not (isinstance(key, tuple) and key[0] == "p"):
                raise JackLaxError("unexpected polynomial part in Delta")
            out[key[1]] = val
    return out
