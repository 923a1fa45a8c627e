"""Workspace: a coefficient field plus every value derived from it.

Everything downstream (Lax eigenfunctions, traces, LR tables) is computed
through a Workspace so that symbolic and specialized runs share one code
path.  The Workspace keeps cleared rows (field.clear), the one vector
format of the library, and expands rows into rows; a field-scalar vector
is made only where a value leaves the library (field.uncleared).

Every derived layer (the Jacks of a degree, the norm and varpi of a
partition, the psi and psi-hat rows, the Gram rows and the duals) is one
entry of Workspace.memo, under a key tagged by its layer, and each
accessor is one memo call to a builder.  The memo is append-only and its
values are immutable; it is read without a lock, and a miss builds under
one re-entrant lock, so each key is built once even when the Jack, psi
and dual builders recurse into each other.

Two orthogonal duals expand rows: a DualIndex per degree for the Jacks,
and a PsiHatDual per degree for the psi-hats.  The psi-hat dual of degree
n follows the corner recursion of psi, read through the adjoint Pi of w:
it holds the Jack dual of degree n and the psi-hat dual of degree n - 1,
which the duals of every higher degree share.  Each dual keeps one scale
per label and ends its expansion in the field's dual_row step: at a point
int numerators over one common denominator, over Q(e1,e2) the canonical
row, at the least denominator of its coefficients.

With a cache directory, each Jack degree is also kept on disk, one JSON file
per (degree, mode).  In format 4 the file holds only the dict "jacks", keyed
by format_partition(lam): each Jack is its cleared row in the field's own
row form as JSON numbers, a key written as its index into partitions_of(n)
(field.dump_row / field.load_row).  The norms and varpi have closed forms
and are not stored.  A file is trusted only if it holds exactly the
partitions of its degree and every row is canonical, one check per row;
otherwise it is rebuilt, and `cache stat` applies the same check.
"""

import json
import os
import sys
import tempfile
import threading
from functools import lru_cache

from . import lax
from .arith import SpecializedField, SpecPoint, SymbolicField
from .errors import JackLaxError
from .fock import degree_of, hn_basis, monomial_norm_sq
from .fock import inner_hbar  # noqa: F401  (kept as session.inner_hbar)
from .jack import compute_homogeneous_jacks, jack_inv_norm_sq, jack_norm_sq, varpi
from .partitions import eigen_pairs, format_partition, partitions_of, rem_set, remove_box
from .spectral import tau, tau_tilde


# Version of the disk cache blob; a file in any other format is rebuilt.
CACHE_FORMAT = 4
# The keys of a cache blob.
_BLOB_KEYS = {"format", "degree", "mode", "jacks"}


class Workspace:
    def __init__(self, field, cache_dir=None):
        """A workspace over field; with a cache_dir (None or "" means none)
        each Jack degree is also kept on disk there."""
        self.field = field
        self.cache_dir = cache_dir
        self._lock = threading.RLock()
        self._memo = {}     # (layer tag, *args) -> a value derived once (memo)

    def key(self):
        """Cache key of the coefficient field ("symbolic" or the point)."""
        return self.field.key()

    def memo(self, key, build, *args):
        """build(self, *args), computed once per key for this workspace.
        The memo lives and dies with the workspace, as its values depend
        on the field.  A hit reads without the lock; a miss takes the
        re-entrant lock, looks again and builds, so each key is built once
        even when a build asks for other keys."""
        got = self._memo.get(key)
        if got is None:
            with self._lock:
                got = self._memo.get(key)
                if got is None:
                    got = self._memo[key] = build(self, *args)
        return got

    # ------------------------------------------------------------------
    # Jack basis with optional disk cache
    # ------------------------------------------------------------------

    def _cache_path(self, n):
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, _cache_name(n, self.key()))

    def jack_degree(self, n):
        """{lam: cleared row of j_lam} over the partitions of n, built (or
        loaded from the disk cache) on first use."""
        return self.memo(("jack", n), _jack_layer, n)

    def _load_degree(self, n):
        path = self._cache_path(n)
        if not path:
            return None
        try:
            blob = _read_blob(path)
            if blob.get("format") != CACHE_FORMAT:
                print("warning: stale cache file %s (format %s, want %d); rebuilding"
                      % (path, blob.get("format"), CACHE_FORMAT), file=sys.stderr)
                return None
            return _decode(blob, n, self.key(), self.field)
        except FileNotFoundError:
            return None
        except Exception:
            print("warning: corrupt cache file %s; rebuilding" % path, file=sys.stderr)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _store_degree(self, n, rows):
        """Write the rows of one degree atomically: a private temp file,
        then os.replace, so concurrent writers never see or leave a
        partial file."""
        path = self._cache_path(n)
        if not path:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        dump = self.field.dump_row
        index = {mu: i for i, mu in enumerate(partitions_of(n))}
        blob = {"format": CACHE_FORMAT, "degree": n, "mode": self.key(),
                "jacks": {format_partition(lam): dump(row, index) for lam, row in rows.items()}}
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir,
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # one string: json.dump to a file takes the slower pure-Python encoder
                fh.write(json.dumps(blob, sort_keys=True))
            os.replace(tmp, path)
        except FileNotFoundError:
            # a `cache clear` removed the temp file under this writer: the
            # clear wins, and this degree is not stored
            return
        except BaseException:
            os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def jack_row(self, lam):
        """The cleared row of j_lam."""
        return self.jack_degree(sum(lam))[lam]

    def norm_sq(self, lam):
        """|j_lam|^2, by its hook product: no Jack is read."""
        return self.memo(("norm", lam), _norm_sq, lam)

    def varpi(self, lam):
        """varpi_lam, the V_n coefficient of j_lam, by its content product:
        no Jack is read."""
        return self.memo(("varpi", lam), _varpi, lam)

    def gram_row(self, n):
        """The cleared row of the Gram weights <key, key> over the basis
        of H_n."""
        return self.memo(("gram", n), _gram_row, n)

    def jack_dual(self, n):
        """DualIndex of the Jacks of degree n: they are pairwise orthogonal
        under inner_hbar, so the j_lam coefficient of f is
        <f, j_lam> / |j_lam|^2."""
        return self.memo(("jack dual", n), _jack_dual, n)

    def expand_in_jacks(self, row):
        """The Jack coefficients of the cleared row of a FockVec, as a
        cleared row {lam: numerator}, each homogeneous part by its Jack
        dual: over Q(e1,e2) the canonical row, at a point not necessarily
        in lowest terms."""
        nums, den = row
        degs = {sum(mu) for mu in nums}
        if len(degs) > 1:
            return self.field.combine([(1, self.jack_dual(n).row(
                {mu: c for mu, c in nums.items() if sum(mu) == n}, den)) for n in degs])
        return self.jack_dual(degs.pop()).row(nums, den) if nums else ({}, den)

    # ------------------------------------------------------------------
    # Lax eigenfunctions
    # ------------------------------------------------------------------

    def psi_row(self, lam, s):
        """The cleared row of psi_lam^s."""
        return self.memo(("psi", lam, s), lax.compute_psi, lam, s)

    def psi_hat_row(self, lam, s):
        """The cleared row of psi-hat_lam^s = psi_lam^s / pi_* psi_lam^s."""
        return self.memo(("psi-hat", lam, s), _psi_hat_row, lam, s)

    def pi_star_psi(self, lam, s):
        """[w^n] psi_lam^s = [s] varpi_lam (is 1 for the vacuum)."""
        if not lam and s == (0, 0):
            return self.field.one
        return self.field.lf(s) * self.varpi(lam)

    def psi_hat_solver(self, n):
        """PsiHatDual of the psi-hat basis of H_n.

        The psi_lam^s are pairwise orthogonal under inner_hbar with
        |psi_lam^s|^2 = |j_lam|^2 / tau_lam^s, so the psi-hat coefficient
        of zeta is <zeta, psi_lam^s> * tau_lam^s pi_* psi_lam^s / |j_lam|^2.
        The pairings come from the corner recursion over the duals of
        degrees 0..n; the dual of degree n - 1 is this memo's own."""
        return self.memo(("psi-hat dual", n), PsiHatDual, n)

    def expand_psi_hat(self, row):
        """The psi-hat coefficients of the cleared row of a homogeneous
        ExtVec, as a cleared row {(lam, s): numerator}: over Q(e1,e2) the
        canonical row, at a point not in lowest terms."""
        nums, den = row
        if not nums:
            return {}, den
        return self.psi_hat_solver(degree_of(nums)).row(nums, den)

    def psi_hat_combine(self, coeffs, den=1):
        """The cleared row of sum_label c psi-hat_label / den over coeffs
        {(lam, s): c}, with c a numerator (or any rational) and den a
        product of row denominators."""
        terms = []
        for (lam, s), c in coeffs.items():
            nums, d = self.psi_hat_row(lam, s)
            terms.append((c, (nums, d * den)))
        return self.field.combine(terms)

    def warm(self, degree):
        """Precompute Jack and psi data up to the given degree."""
        for n in range(degree + 1):
            self.jack_degree(n)
            for lam, s in eigen_pairs(n):
                self.psi_row(lam, s)


# ----------------------------------------------------------------------
# builders of the Workspace layers, each run once per key by Workspace.memo
# ----------------------------------------------------------------------

def _jack_layer(ws, n):
    """{lam: cleared row of j_lam} over the partitions of n: loaded from
    the disk cache, or built (and stored there if the workspace has a
    cache directory)."""
    rows = ws._load_degree(n)
    if rows is None:
        rows = compute_homogeneous_jacks(ws, n)
        ws._store_degree(n, rows)
    return rows


def _norm_sq(ws, lam):
    return jack_norm_sq(ws.field, lam)


def _varpi(ws, lam):
    return varpi(ws.field, lam)


def _gram_row(ws, n):
    f = ws.field
    return f.clear({key: monomial_norm_sq(key[1], f) for key in hn_basis(n)})


def _jack_dual(ws, n):
    f = ws.field
    labels = partitions_of(n)
    gram = f.clear({mu: monomial_norm_sq(mu, f) for mu in labels})
    return DualIndex(f, labels, [ws.jack_row(lam) for lam in labels], gram,
                     [jack_inv_norm_sq(f, lam) for lam in labels])


def _psi_hat_row(ws, lam, s):
    # the psi row first: it raises on a box not addable to lam, where
    # pi_* psi = [s] varpi_lam may be 0
    row = ws.psi_row(lam, s)
    return ws.field.combine([(ws.field.one / ws.pi_star_psi(lam, s), row)])


class DualIndex:
    """The orthogonal dual of one basis b_i of a graded piece.

    The b_i coefficient of v is scales[i] <v, b_i>, with
    <v, b_i> = sum_key v[key] b_i[key] <key, key>.  It is built from the
    cleared rows (B_i, D_i) of the b_i and the cleared row (g, G) of the
    Gram weights <key, key>: the index maps each key to
    [(i, B_i[key] g[key])], and each label keeps its scale over its own
    D_i G as field.dual_scales makes it.  So a cleared row (a, D) of v
    expands by multiply-adding numerators into the pairings
    J_i = sum_key a[key] B_i[key] g[key], and field.dual_row turns them
    into the row of the coefficients J_i scales[i] / (D D_i G), exact,
    with every denominator carried.  (At a point the numerators are ints
    over one common S of the scales, and the row is not in lowest terms;
    over Q(e1,e2) they are polynomials, and the row is the canonical one,
    each coefficient reduced by D's forms and its own scale's only.)  The
    state is plain data and the field's dual_row step: the field is
    passed to the constructor only."""

    def __init__(self, field, labels, rows, gram, scales):
        gnums, gden = gram
        self.gram_den = gden
        self.labels = labels
        self.index = {}
        for i, (nums, _) in enumerate(rows):
            for key, c in nums.items():
                self.index.setdefault(key, []).append((i, c * gnums[key]))
        self.scales, self.den = field.dual_scales(
            field.quotient(c, d * gden) for c, (_, d) in zip(scales, rows))
        self.dual_row = field.dual_row

    def pairings(self, items):
        """The multiply-adds sum_key a[key] B_i[key] g[key] of the
        numerators items = [(key, a[key]), ...], in label order."""
        index = self.index
        acc = [0] * len(self.labels)
        for key, a in items:
            for i, w in index[key]:
                acc[i] += a * w
        return acc

    def row(self, nums, den):
        """The cleared row of the nonzero coefficients of the cleared row
        (nums, den), in label order."""
        return self.dual_row(self.labels, self.pairings(nums.items()), self.scales,
                           den * self.den)


class PsiHatDual:
    """The psi-hat dual of H_n, by the corner recursion of psi.

    The Gram weight of w^m V_mu does not depend on m, so w is an isometry
    and Pi its adjoint, and the corner recursion of psi gives
        <zeta, psi_lam^s> = <pi0 zeta, j_lam>
            + sum_{t in R_lam} tau~_lam^{t+(1,1)} / [s-t-(1,1)]
                               <Pi zeta, psi_{lam-t}^t>.
    The Jack pairings <f, j_lam> are the multiply-adds J_lam of the Jack
    DualIndex of degree n (its weights over D_lam G, G its gram_den).
    Each label i = (lam, s) has its own denominator dens[i] = E_i: its
    pairing is P_i / (D E_i) for an input row over D, with the integer (at
    a point)
        P_i = jw_i J_lam + sum_t w_t P'_t
    over the numerators P'_t of the dual below (degree n - 1), jw_i and
    the w_t making the cleared row of 1/(D_lam G) and the
    tau~ / ([s-t-(1,1)] E'_t).  terms[i] is (the position of lam among the
    partitions, jw_i, ((position of (lam-t, t) below, w_t), ...)).

    A cleared row (a, D) of zeta splits into its w-layers; the dual of
    degree k pairs the layer of w^(n-k) with its Jacks and adds its corner
    terms over the pairings of the dual below, so Pi^(n-k) zeta is paired
    with the psi of degree k.  The degree-n pairings P_i / D times the
    label scales tau_lam^s pi_* psi_lam^s / (|j_lam|^2 E_i), made by
    field.dual_scales, give the row by field.dual_row, in label order:
    at a point the products over D S, S the scales' common denominator,
    and over Q(e1,e2) the canonical row, each coefficient reduced by D's
    forms and its own scale's only.  chain holds the duals of degrees
    0..n-1, so row runs one flat loop.  The state is plain data and the
    field's dual_row step: the workspace is passed to the constructor
    only."""

    def __init__(self, ws, n):
        f = ws.field
        self.labels = labels = eigen_pairs(n)
        self.jack = jack = ws.jack_dual(n)
        self.below = below = ws.psi_hat_solver(n - 1) if n else None
        self.chain = below.chain + (below,) if below else ()
        lam_pos = {lam: i for i, lam in enumerate(jack.labels)}
        prev_pos = {label: i for i, label in enumerate(below.labels)} if below else {}
        gram_den = jack.gram_den
        self.terms, self.dens = [], []
        for lam, s in labels:
            scalars = {-1: f.quotient(f.one, ws.jack_row(lam)[1] * gram_den)}
            for t in rem_set(lam):
                tp = (t[0] + 1, t[1] + 1)
                j = prev_pos[(remove_box(lam, t), t)]
                scalars[j] = f.ratio((), ((s[0] - tp[0], s[1] - tp[1]),),
                                     f.quotient(tau_tilde(f, lam, tp), below.dens[j]))
            nums, den = f.clear(scalars)
            jw = nums.pop(-1)
            self.terms.append((lam_pos[lam], jw, tuple(nums.items())))
            self.dens.append(den)
        self.scales, self.den = f.dual_scales(f.quotient(jack_inv_norm_sq(
            f, lam, tau(f, lam, s) * ws.pi_star_psi(lam, s)), e)
            for (lam, s), e in zip(labels, self.dens))
        self.dual_row = f.dual_row

    def pairings(self, layer, below):
        """The numerators P_i, in label order, from the numerators
        layer = [(mu, a), ...] of the w^0 layer (empty if zero) and the
        numerators P'_t of the dual below (None if all zero)."""
        jacks = self.jack.pairings(layer) if layer else None
        if below is None:
            return [jw * jacks[p] for p, jw, _ in self.terms]
        out = []
        for p, jw, corners in self.terms:
            v = jw * jacks[p] if jacks is not None else 0
            for j, w in corners:
                c = below[j]
                if c:
                    v += w * c
            out.append(v)
        return out

    def row(self, nums, den):
        """The cleared row of the nonzero psi-hat coefficients of the
        nonzero cleared row (nums, den) of a vector of H_n."""
        layers = [[] for _ in range(len(self.chain) + 1)]
        for (m, mu), a in nums.items():
            layers[m].append((mu, a))
        acc = None
        for dual, layer in zip(self.chain, reversed(layers)):
            if layer or acc is not None:
                acc = dual.pairings(layer, acc)
        acc = self.pairings(layers[0], acc)
        return self.dual_row(self.labels, acc, self.scales, den * self.den)


def cache_stat(cache_dir):
    """{file name: "<k> entries", "corrupt", "stale (format N)" or "temp"}
    over the cache files of cache_dir; a file is checked as the loader
    checks it (in the field of its own mode), so the loader would rebuild
    the corrupt and stale files, and a temp file is one a writer killed
    before its os.replace left.
    Raises JackLaxError if the cache directory does not exist."""
    out = {}
    for name in _cache_listing(cache_dir):
        if _is_cache_temp(name):
            out[name] = "temp"
        elif name.startswith("jack_") and name.endswith(".json"):
            try:
                blob = _read_blob(os.path.join(cache_dir, name))
                if blob.get("format") != CACHE_FORMAT:
                    out[name] = "stale (format %s)" % blob.get("format")
                    continue
                n, mode = blob["degree"], blob["mode"]
                if name != _cache_name(n, mode):
                    raise ValueError("cache key mismatch")
                out[name] = "%d entries" % len(_decode(blob, n, mode, _field_of(mode)))
            except Exception:
                out[name] = "corrupt"
    return out


def cache_clear(cache_dir):
    """Remove the cache files of cache_dir and the temp files of
    Workspace._store_degree; returns how many were removed.
    Raises JackLaxError if the cache directory does not exist."""
    n = 0
    for name in _cache_listing(cache_dir):
        if (name.startswith("jack_") and name.endswith(".json")) or _is_cache_temp(name):
            try:
                os.remove(os.path.join(cache_dir, name))
            except FileNotFoundError:
                # taken by a writer's os.replace or by another clear
                continue
            n += 1
    return n


def _cache_listing(cache_dir):
    """The sorted names in cache_dir; a missing directory is an error, not
    an empty cache, so a mistyped path does not pass for one."""
    if not os.path.isdir(cache_dir):
        raise JackLaxError("cache directory %s does not exist" % (cache_dir,))
    return sorted(os.listdir(cache_dir))


def _read_blob(path):
    with open(path) as fh:
        return json.load(fh)


def _decode(blob, n, mode, field):
    """{lam: cleared row of j_lam} of a current-format blob of degree n in
    the given mode; raises unless it holds the dict "jacks" alone, keyed by
    exactly the partitions of n, and every Jack is a nonzero canonical row
    (field.load_row)."""
    if blob.keys() != _BLOB_KEYS or blob["degree"] != n or blob["mode"] != mode:
        raise ValueError("cache key mismatch")
    labels = partitions_of(n)
    keys = _partition_keys(n)
    jacks_in = blob["jacks"]
    if jacks_in.keys() != keys.keys():
        raise ValueError("cache keys are not the partitions of %d" % n)
    load = field.load_row
    rows = {}
    for key, v in jacks_in.items():
        row = rows[keys[key]] = load(v, labels)
        if not row[0]:
            raise ValueError("zero Jack")
    return rows


@lru_cache(maxsize=None)
def _partition_keys(n):
    """{format_partition(lam): lam} over the partitions of n."""
    return {format_partition(lam): lam for lam in partitions_of(n)}


def _cache_name(n, mode):
    return "jack_%02d_%s.json" % (n, _slug(mode))


def _field_of(mode):
    """The field whose key() is mode."""
    if mode == "symbolic":
        return SymbolicField()
    e1, e2 = mode.split(",")
    field = SpecializedField(SpecPoint(e1[3:], e2[3:]))
    if field.key() != mode:
        raise ValueError("bad cache mode %r" % (mode,))
    return field


def _is_cache_temp(name):
    """A temp file of _store_degree: jack_NN_<mode>.json.<random>.tmp."""
    return name.startswith("jack_") and ".json." in name and name.endswith(".tmp")


def _slug(s):
    return "".join(ch if ch.isalnum() else "_" for ch in s)

