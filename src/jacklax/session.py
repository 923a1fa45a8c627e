"""Workspace: a coefficient field plus all per-degree caches.

Everything downstream (Lax eigenfunctions, traces, LR tables) is computed
through a Workspace so that symbolic and specialized runs share one code
path.  Caches are append-only behind a re-entrant lock; cached values are
immutable.
"""

import json
import os
import sys
import tempfile
import threading

from .arith import SymbolicField, parse_scalar, render_scalar
from .fock import degree_of, hn_basis, inner_hbar, monomial_norm_sq, v_scale
from .jack import compute_homogeneous_jacks, jack_norm_sq, varpi
from .partitions import (eigen_pairs, format_partition, parse_partition,
                         partitions_of)
from .spectral import tau


# Version of the disk cache blob; a file in any other format is rebuilt.
CACHE_FORMAT = 2


def _cache_env_dir():
    return os.environ.get("JACKLAX_CACHE_DIR")


class Workspace:
    def __init__(self, field=None, cache_dir=None):
        self.field = field if field is not None else SymbolicField()
        self.cache_dir = cache_dir if cache_dir is not None else _cache_env_dir()
        self._lock = threading.RLock()
        self._jack = {}     # degree -> {lam: FockVec}
        self._norm = {}     # degree -> {lam: scalar}
        self._varpi = {}    # degree -> {lam: scalar}
        self._psi = {}      # (lam, s) -> ExtVec
        self._psi_solver = {}   # degree -> (pairs, dual index, scales)

    def key(self):
        """Cache key of the coefficient field ("symbolic" or the point)."""
        return self.field.key()

    # ------------------------------------------------------------------
    # Jack basis with optional disk cache
    # ------------------------------------------------------------------

    def _cache_path(self, n):
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, "jack_%02d_%s.json" % (n, _slug(self.key())))

    def jack_degree(self, n):
        with self._lock:
            if n in self._jack:
                return self._jack[n]
            data = self._load_degree(n)
            if data is None:
                jacks = compute_homogeneous_jacks(self, n)
                norms = {lam: jack_norm_sq(self.field, lam) for lam in jacks}
                vps = {lam: varpi(self.field, lam) for lam in jacks}
                self._store_degree(n, jacks, norms, vps)
            else:
                jacks, norms, vps = data
            self._jack[n] = jacks
            self._norm[n] = norms
            self._varpi[n] = vps
            return jacks

    def _load_degree(self, n):
        path = self._cache_path(n)
        if not path or not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                blob = json.load(fh)
            if blob.get("format") != CACHE_FORMAT:
                print("warning: stale cache file %s (format %s, want %d); rebuilding"
                      % (path, blob.get("format"), CACHE_FORMAT), file=sys.stderr)
                return None
            if blob.get("degree") != n or blob.get("mode") != self.key():
                raise ValueError("cache key mismatch")
            jacks, norms, vps = {}, {}, {}
            for lam_s, entry in blob["jacks"].items():
                lam = parse_partition(lam_s)
                jacks[lam] = {parse_partition(t["partition"]): parse_scalar(t["coeff"], self.field)
                              for t in entry}
                norms[lam] = parse_scalar(blob["norms"][lam_s], self.field)
                vps[lam] = parse_scalar(blob["varpi"][lam_s], self.field)
            return jacks, norms, vps
        except Exception:
            print("warning: corrupt cache file %s; rebuilding" % path, file=sys.stderr)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _store_degree(self, n, jacks, norms, vps):
        """Write one degree atomically: a private temp file, then os.replace,
        so concurrent writers never see or leave a partial file."""
        path = self._cache_path(n)
        if not path:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        blob = {"format": CACHE_FORMAT, "degree": n, "mode": self.key(),
                "jacks": {}, "norms": {}, "varpi": {}}
        for lam in sorted(jacks):
            key = format_partition(lam)
            blob["jacks"][key] = [
                {"w": 0, "partition": format_partition(mu), "coeff": render_scalar(c)}
                for mu, c in sorted(jacks[lam].items())
            ]
            blob["norms"][key] = render_scalar(norms[lam])
            blob["varpi"][key] = render_scalar(vps[lam])
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir,
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(blob, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def jack(self, lam):
        return self.jack_degree(sum(lam))[lam]

    def jack_hat(self, lam):
        vp = self.varpi(lam)
        return {mu: c / vp for mu, c in self.jack(lam).items()}

    def norm_sq(self, lam):
        self.jack_degree(sum(lam))
        return self._norm[sum(lam)][lam]

    def norm_sq_hat(self, lam):
        vp = self.varpi(lam)
        return self.norm_sq(lam) / (vp * vp)

    def varpi(self, lam):
        self.jack_degree(sum(lam))
        return self._varpi[sum(lam)][lam]

    def expand_in_jacks(self, f):
        """FockVec -> {lam: coeff} via the diagonal V-monomial pairing."""
        if not f:
            return {}
        degs = {sum(mu) for mu in f}
        out = {}
        for n in degs:
            part = {mu: c for mu, c in f.items() if sum(mu) == n}
            for lam in partitions_of(n):
                c = inner_hbar(part, self.jack(lam), self.field)
                if c:
                    out[lam] = c / self.norm_sq(lam)
        return out

    # ------------------------------------------------------------------
    # Lax eigenfunctions (filled in by jacklax.lax to avoid an import cycle)
    # ------------------------------------------------------------------

    def psi(self, lam, s):
        from . import lax
        key = (lam, s)
        with self._lock:
            got = self._psi.get(key)
            if got is None:
                got = lax.compute_psi(self, lam, s)
                self._psi[key] = got
            return got

    def psi_hat(self, lam, s):
        scale = self.field.one / self.pi_star_psi(lam, s)
        return v_scale(self.psi(lam, s), scale)

    def pi_star_psi(self, lam, s):
        """[w^n] psi_lam^s = [s] varpi_lam (is 1 for the vacuum)."""
        if not lam and s == (0, 0):
            return self.field.one
        return self.field.lf(s) * self.varpi(lam)

    def psi_hat_solver(self, n):
        """(pairs, index, scales): the orthogonal dual of the psi-hat basis.

        The psi_lam^s are pairwise orthogonal under inner_hbar with
        |psi_lam^s|^2 = |j_lam|^2 / tau_lam^s, so the psi-hat coefficient
        of zeta is <zeta, psi_lam^s> * tau_lam^s pi_* psi_lam^s / |j_lam|^2.
        index maps each basis key of H_n to [(i, psi_i[key] <key, key>)];
        scales[i] is the factor above for pairs[i]."""
        with self._lock:
            got = self._psi_solver.get(n)
            if got is None:
                f = self.field
                pairs = eigen_pairs(n)
                gram = {key: monomial_norm_sq(key[1], f) for key in hn_basis(n)}
                index = {key: [] for key in gram}
                scales = []
                for i, (lam, s) in enumerate(pairs):
                    for key, c in self.psi(lam, s).items():
                        index[key].append((i, c * gram[key]))
                    scales.append(tau(f, lam, s) * self.pi_star_psi(lam, s)
                                  / self.norm_sq(lam))
                got = (pairs, index, scales)
                self._psi_solver[n] = got
            return got

    def expand_psi_hat(self, zeta):
        """Expand a homogeneous ExtVec in the psi-hat basis."""
        if not zeta:
            return {}
        pairs, index, scales = self.psi_hat_solver(degree_of(zeta))
        acc = {}
        for key, c in zeta.items():
            for i, w in index[key]:
                a = acc.get(i)
                acc[i] = c * w if a is None else a + c * w
        return {pairs[i]: acc[i] * scales[i] for i in sorted(acc) if acc[i]}

    def expand_psi(self, zeta):
        """Expansion in the unhatted psi basis."""
        out = {}
        for (lam, s), c in self.expand_psi_hat(zeta).items():
            out[(lam, s)] = c / self.pi_star_psi(lam, s)
        return out

    def warm(self, degree):
        """Precompute Jack and psi data up to the given degree."""
        for n in range(degree + 1):
            self.jack_degree(n)
            for lam, s in eigen_pairs(n):
                self.psi(lam, s)

    def cache_stat(self):
        out = {}
        if not self.cache_dir or not os.path.isdir(self.cache_dir):
            return out
        for name in sorted(os.listdir(self.cache_dir)):
            if name.startswith("jack_") and name.endswith(".json"):
                with open(os.path.join(self.cache_dir, name)) as fh:
                    blob = json.load(fh)
                out[name] = len(blob.get("jacks", {}))
        return out

    def cache_clear(self):
        n = 0
        if self.cache_dir and os.path.isdir(self.cache_dir):
            for name in list(os.listdir(self.cache_dir)):
                if name.startswith("jack_") and name.endswith(".json"):
                    os.remove(os.path.join(self.cache_dir, name))
                    n += 1
        return n


def _slug(s):
    return "".join(ch if ch.isalnum() else "_" for ch in s)

