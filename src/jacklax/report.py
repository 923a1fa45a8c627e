"""Run configuration and verification reports.

A check returns its residual: {object: (lhs, rhs)} over the coordinates
where the two sides of its identity differ, in a fixed order, empty iff
the identity holds.  This module alone turns a residual into a status and
a witness."""

import json
import time
from fractions import Fraction

from .arith import DEFAULT_SPEC_POINTS, Coeff, SpecPoint, render_coeff
from .errors import BadSpecPoint, JackLaxError


class RunConfig:
    def __init__(self, mode="specialized", points=None, cache_dir=None, jobs=1):
        if mode not in ("symbolic", "specialized"):
            raise JackLaxError("mode must be symbolic or specialized")
        self.mode = mode
        self.points = tuple(points) if points else DEFAULT_SPEC_POINTS
        if mode == "specialized" and not self.points:
            raise JackLaxError("specialized mode needs at least one point")
        self.cache_dir = cache_dir
        if jobs < 1:
            raise JackLaxError("bad jobs=%d: jobs are >= 1" % jobs)
        self.jobs = jobs

    def workspaces(self):
        from .session import Workspace
        from .arith import SpecializedField, SymbolicField
        if self.mode == "symbolic":
            return [Workspace(SymbolicField(), self.cache_dir)]
        return [Workspace(SpecializedField(p), self.cache_dir) for p in self.points]

    def as_dict(self):
        # jobs is deliberately omitted: parallel and serial runs of the same
        # configuration must produce byte-identical reports
        return {
            "mode": self.mode,
            "spec_points": [p.key() for p in self.points] if self.mode == "specialized" else [],
        }

    @staticmethod
    def parse_points(text):
        pts = []
        for chunk in text.split(";"):
            try:
                a, b = chunk.split(",")
                e1, e2 = Fraction(a), Fraction(b)
            except (ValueError, ZeroDivisionError):
                raise BadSpecPoint("bad spec point %r: expected two rationals e1,e2, "
                                   "e.g. -3/2,22/7" % chunk) from None
            pts.append(SpecPoint(e1, e2))
        return tuple(pts)


# The workspaces and recorded checks of the Report being run: fork children
# inherit them, so only check indices and resulting instances are pickled.
_RUN = None

# The residual of a check that does not apply (a SKIP).
SKIP = "SKIP"
# A witness shows at most this many characters of its object and of each side.
WITNESS_CUT = 80
# Merging the instances of one id over the workspaces keeps the gravest.
_GRAVITY = {"PASS": 0, "SKIP": 1, "FAIL": 2}


def _fork_pool(processes):
    import multiprocessing
    return multiprocessing.get_context("fork").Pool(processes)


def residual(triples):
    """The residual of the comparisons (object, lhs, rhs): {object: (lhs,
    rhs)} where the sides differ, in the given order."""
    return {obj: (lhs, rhs) for obj, lhs, rhs in triples if lhs != rhs}


def map_residual(lhs, rhs, label=None):
    """The residual of two maps {object: value}, a missing value counting
    as 0: lhs's objects first, then the others of rhs.  With a label each
    object is (label, object)."""
    keys = list(lhs) + [k for k in rhs if k not in lhs]
    return residual((k if label is None else (label, k), lhs.get(k, 0), rhs.get(k, 0))
                    for k in keys)


def row_residual(field, terms, label=None):
    """The residual of the row identity sum c * nums / D = 0 over terms
    [(c, (nums, D))]: the nonzero coordinates of one field.combine, each
    against 0, labelled as in map_residual."""
    nums, d = field.combine(terms)
    return {k if label is None else (label, k): (field.quotient(c, d), 0)
            for k, c in nums.items()}


def rows_residual(field, lhs, rhs, label=None):
    """The residual of two canonical rows: empty if they are equal, else
    row_residual of their difference."""
    return {} if lhs == rhs else row_residual(field, [(1, lhs), (-1, rhs)], label)


def _cut(text):
    return text if len(text) <= WITNESS_CUT else text[:WITNESS_CUT - 3] + "..."


def _object(obj):
    """An object as text: a (label, object) pair as "label object"."""
    if type(obj) is tuple and len(obj) == 2 and type(obj[0]) is str:
        return "%s %s" % (obj[0], _object(obj[1]))
    return str(obj)


def witness(res):
    """The first mismatch of a nonempty residual, "<object>: <lhs> != <rhs>",
    each part cut to WITNESS_CUT characters."""
    obj, (lhs, rhs) = next(iter(res.items()))
    return "%s: %s != %s" % (_cut(_object(obj)), _cut(_side(lhs)), _cut(_side(rhs)))


def _side(value):
    """A side of a comparison as text: a scalar by render_coeff, anything
    else (a row numerator, a map, a set) by str."""
    return render_coeff(value) if isinstance(value, (int, Fraction, Coeff)) else str(value)


def instance(instance_id, res, note="", known=""):
    """The instance dict of the residual res: PASS if it is empty, with the
    note as witness; SKIP if it is SKIP, with the note (the reason); else
    FAIL, with the first mismatch as witness, or the known cause of a claim
    known to be false.  Raises TypeError on anything but a dict or SKIP, so
    a check that returns a bool can never PASS."""
    if res is SKIP:
        return {"id": instance_id, "status": "SKIP", "witness": note}
    if type(res) is not dict:
        raise TypeError("check %r returned %r, not a residual dict" % (instance_id, res))
    if not res:
        return {"id": instance_id, "status": "PASS", "witness": note}
    return {"id": instance_id, "status": "FAIL", "witness": known or witness(res)}


def _run_check(i):
    """The instances of the i-th recorded check of _RUN: of each id, the
    gravest over the workspaces (FAIL over SKIP over PASS), the first among
    equals, a FAIL's witness prefixed with its workspace's spec point (or
    "symbolic").  A check or sweep that raises an Exception FAILs its id
    with the residual {"raised": (message, "nothing")}."""
    wss, checks = _RUN
    kind, instance_id, fn, args = checks[i]
    merged = {}
    for ws in wss:
        try:
            got = fn(ws, *args)
        except Exception as e:
            insts = [instance(instance_id, {"raised": (str(e), "nothing")})]
        else:
            insts = got if kind == "sweep" else [instance(instance_id, got)]
        for inst in insts:
            cur = merged.get(inst["id"])
            if cur is None or _GRAVITY[inst["status"]] > _GRAVITY[cur["status"]]:
                if inst["status"] == "FAIL":
                    inst = dict(inst, witness="%s: %s" % (ws.key(), inst["witness"]))
                merged[inst["id"]] = inst
    return list(merged.values())


class Report:
    """A suite result: deterministically ordered instances with statuses.

    The per-workspace checks of a suite are recorded with check() or sweep()
    and run by done(), in recording order: in this process when the run has
    one job, else in one fork pool.  A check returns its residual (see
    instance)."""

    def __init__(self, suite, config):
        self.suite = suite
        self.config = config.as_dict()
        self.jobs = config.jobs
        self.workspaces = config.workspaces()
        self.instances = []
        self._checks = []
        self._t0 = time.monotonic()
        self.elapsed_ms = 0

    def add(self, instance_id, res):
        """Add the instance of the residual res of a workspace-free check."""
        self.instances.append(instance(instance_id, res))

    def check(self, instance_id, fn, *args):
        """Record the check fn(ws, *args), a residual: PASS iff it is empty
        in every workspace, else FAIL at the first workspace where it is
        not."""
        self._checks.append(("each", instance_id, fn, args))

    def sweep(self, fn, *args):
        """Record fn(ws, *args), a list of instance dicts per workspace,
        merged over the workspaces as _run_check does; if it raises, its
        one instance is the FAIL "sweep <fn name><args>"."""
        self._checks.append(("sweep", "sweep %s%r" % (fn.__name__.lstrip("_"), args),
                             fn, args))

    def done(self):
        global _RUN
        _RUN = (self.workspaces, self._checks)
        try:
            todo = range(len(self._checks))
            if self.jobs == 1 or len(todo) < 2:
                results = [_run_check(i) for i in todo]
            else:
                with _fork_pool(min(self.jobs, len(todo))) as pool:
                    results = pool.map(_run_check, todo)
        finally:
            _RUN = self.workspaces = None
        for insts in results:
            self.instances.extend(insts)
        self.elapsed_ms = int((time.monotonic() - self._t0) * 1000)
        self.instances.sort(key=lambda r: r["id"])
        return self

    def counts(self):
        out = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for r in self.instances:
            out[r["status"]] = out.get(r["status"], 0) + 1
        return out

    def all_pass(self):
        return all(r["status"] != "FAIL" for r in self.instances)

    def as_dict(self, include_timing=True):
        out = {
            "suite": self.suite,
            "config": self.config,
            "instances": self.instances,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def canonical_json(self, include_timing=False):
        return json.dumps(self.as_dict(include_timing), sort_keys=True, indent=1)

    def text(self):
        lines = ["[%s]" % self.suite]
        for r in self.instances:
            line = "  %-4s %s" % (r["status"], r["id"])
            if r["witness"]:
                line += "   (%s)" % r["witness"]
            lines.append(line)
        c = self.counts()
        lines.append("  -> %d pass, %d fail, %d skip (%d ms)"
                     % (c["PASS"], c["FAIL"], c["SKIP"], self.elapsed_ms))
        return "\n".join(lines)
