"""Span tracer for the benchmark's traced run.

`Tracer.install()` replaces each traced jacklax function with a wrapper that
records a span (name, parent span, start, end) around every call.  Every
binding of the function in a loaded `jacklax.*` module is replaced, so a
function imported by name (`from .fock import inner_hbar`) is traced too;
methods are replaced on their class.  `uninstall()` puts every original
object back.  Spans are kept in flat arrays in memory and can be written
out with `dump()` when the run ends.
"""

import importlib
import json
import sys
import time
from array import array

# metric prefix -> (module, class or None, attribute names).  Attributes
# listed together share one original function object or one metric:
# `Coeff.__sub__`/`__rsub__` go through `__add__`, and `__rtruediv__`
# through `__truediv__`, so each scalar operation is counted once.
TARGETS = {
    "arith.Coeff.mul": ("jacklax.arith", "Coeff", ("__mul__", "__rmul__")),
    "arith.Coeff.add": ("jacklax.arith", "Coeff", ("__add__", "__radd__")),
    "arith.Coeff.div": ("jacklax.arith", "Coeff", ("__truediv__",)),
    "arith.parse_scalar": ("jacklax.arith", None, ("parse_scalar",)),
    "jack.compute_homogeneous_jacks": ("jacklax.jack", None, ("compute_homogeneous_jacks",)),
    "session.Workspace": ("jacklax.session", "Workspace", ("__init__",)),
    "session.jack_degree": ("jacklax.session", "Workspace", ("jack_degree",)),
    "session.expand_in_jacks": ("jacklax.session", "Workspace", ("expand_in_jacks",)),
    "session.expand_psi_hat": ("jacklax.session", "Workspace", ("expand_psi_hat",)),
    "session.psi_hat_solver": ("jacklax.session", "Workspace", ("psi_hat_solver",)),
    "linalg.invert": ("jacklax.linalg", None, ("invert",)),
    "linalg.matvec": ("jacklax.linalg", None, ("matvec",)),
    "linalg.rank": ("jacklax.linalg", None, ("rank",)),
    "fock.inner_hbar": ("jacklax.fock", None, ("inner_hbar",)),
    "fock.monomial_norm_sq": ("jacklax.fock", None, ("monomial_norm_sq",)),
    "fock.ext_mul": ("jacklax.fock", None, ("ext_mul",)),
    "fock.fock_mul": ("jacklax.fock", None, ("fock_mul",)),
    "fock.hall_inner_alpha": ("jacklax.fock", None, ("hall_inner_alpha",)),
    "lax.compute_psi": ("jacklax.lax", None, ("compute_psi",)),
    "lax.lax_apply": ("jacklax.lax", None, ("lax_apply",)),
    "lax.pi_diamond": ("jacklax.lax", None, ("pi_diamond",)),
    "spectral.tau": ("jacklax.spectral", None, ("tau",)),
    "spectral.tau_tilde": ("jacklax.spectral", None, ("tau_tilde",)),
    "spectral.verify_tau_identities": ("jacklax.spectral", None, ("verify_tau_identities",)),
    "spectral.star_residues": ("jacklax.spectral", None, ("star_residues",)),
    "traces.full_trace": ("jacklax.traces", None, ("full_trace",)),
    "traces.theta": ("jacklax.traces", None, ("theta",)),
    "traces.beta": ("jacklax.traces", None, ("beta",)),
    "traces.verify_twisted_traces": ("jacklax.traces", None, ("verify_twisted_traces",)),
    "traces.kernel_basis": ("jacklax.traces", None, ("kernel_basis",)),
    "traces.verify_cokernel": ("jacklax.traces", None, ("verify_cokernel",)),
    "lr.jack_lr": ("jacklax.lr", None, ("jack_lr",)),
    "lr.jacklax_lr": ("jacklax.lr", None, ("jacklax_lr",)),
    "lr.main_theorem_residual": ("jacklax.lr", None, ("main_theorem_residual",)),
    "lr.delta_map": ("jacklax.lr", None, ("delta_map",)),
    "shc.construction_from_lax_check": ("jacklax.shc", None, ("construction_from_lax_check",)),
    "shc.whittaker_checks": ("jacklax.shc", None, ("whittaker_checks",)),
    "cli.build_parser": ("jacklax.cli", None, ("build_parser",)),
}

# Spans of these functions carry a tag taken from their arguments.
_TAGGERS = {
    "jack.compute_homogeneous_jacks": lambda field, n: (field.key(), n),
    "lax.compute_psi": lambda ws, lam, s: sum(lam),
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.tags = {}          # span id -> tag, for _TAGGERS functions
        self.stack = []
        self._saved = []        # (owner, attribute, original object)

    # -- spans ------------------------------------------------------------

    def _wrap(self, metric, fn):
        nid = self.name_ids[metric]
        tagger = _TAGGERS.get(metric)
        clock, stack, tags = time.perf_counter, self.stack, self.tags
        parent, name, start, end = self.parent, self.name, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            if tagger is not None:
                tags[sid] = tagger(*args, **kwargs)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        traced.__qualname__ = getattr(fn, "__qualname__", metric)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every target binding in the loaded jacklax modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, _, _ in TARGETS.values():
            importlib.import_module(modname)
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "jacklax" or n.startswith("jacklax."))]
        for metric, (modname, clsname, attrs) in TARGETS.items():
            mod = sys.modules[modname]
            if clsname is not None:
                cls = getattr(mod, clsname)
                wrappers = {}
                for attr in attrs:
                    orig = cls.__dict__[attr]
                    if id(orig) not in wrappers:
                        wrappers[id(orig)] = self._wrap(metric, orig)
                    self._saved.append((cls, attr, orig))
                    setattr(cls, attr, wrappers[id(orig)])
                continue
            orig = getattr(mod, attrs[0])
            wrapper = self._wrap(metric, orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        """Put back every original binding, newest first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self, durs=None):
        """Each span's duration minus the durations of its child spans."""
        durs = self.durations() if durs is None else durs
        own = list(durs)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= durs[sid]
        return own

    def nearest_ancestor(self, sid, name_ids):
        p = self.parent[sid]
        while p >= 0 and self.name[p] not in name_ids:
            p = self.parent[p]
        return p

    def dump(self, path):
        """Write the spans as JSON lines: id, parent, name, start, end, tag."""
        with open(path, "w") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps([sid, self.parent[sid], self.names[self.name[sid]],
                                     self.start[sid], self.end[sid],
                                     self.tags.get(sid)]) + "\n")
