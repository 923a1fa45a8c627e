"""Run configuration and verification reports."""

import json
import time
from fractions import Fraction

from .arith import DEFAULT_SPEC_POINTS, SpecPoint
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


def _fork_pool(processes):
    import multiprocessing
    return multiprocessing.get_context("fork").Pool(processes)


def instance(instance_id, ok, witness=""):
    """An instance dict: PASS if ok, else FAIL."""
    return {"id": instance_id, "status": "PASS" if ok else "FAIL", "witness": witness}


def _run_check(i):
    """The instances of the i-th recorded check of _RUN."""
    wss, checks = _RUN
    kind, instance_id, fn, args = checks[i]
    if kind == "sweep":
        merged = {}
        for ws in wss:
            for inst in fn(ws, *args):
                cur = merged.get(inst["id"])
                if cur is None or (cur["status"] == "PASS" and inst["status"] != "PASS"):
                    if inst["status"] == "FAIL":
                        inst = dict(inst, witness=_at(ws, inst["witness"]))
                    merged[inst["id"]] = inst
        return list(merged.values())
    for ws in wss:
        res = fn(ws, *args)
        if isinstance(res, str) or not res:
            return [instance(instance_id, False, _at(ws, res or ""))]
    return [instance(instance_id, True)]


def _at(ws, witness):
    """A FAIL witness prefixed with the workspace's spec point."""
    return "%s: %s" % (ws.key(), witness) if witness else ws.key()


class Report:
    """A suite result: deterministically ordered instances with statuses.

    The per-workspace checks of a suite are recorded with check() or sweep()
    and run by done(), in recording order: in this process when the run has
    one job, else in one fork pool.  A check returns a bool, or a non-empty
    string that names what failed."""

    def __init__(self, suite, config):
        self.suite = suite
        self.config = config.as_dict()
        self.jobs = config.jobs
        self.workspaces = config.workspaces()
        self.instances = []
        self._checks = []
        self._t0 = time.monotonic()
        self.elapsed_ms = 0

    def add(self, instance_id, ok, witness=""):
        self.instances.append(instance(instance_id, ok, witness))

    def check(self, instance_id, fn, *args):
        """Record the check fn(ws, *args): PASS iff it holds in every workspace.
        A FAIL names the first workspace where it fails (its spec point, or
        "symbolic"), followed by ": " and the failure string if fn gave one."""
        self._checks.append(("each", instance_id, fn, args))

    def sweep(self, fn, *args):
        """Record fn(ws, *args), a list of instance dicts per workspace.  Each
        instance is taken from the first workspace where it does not PASS, or
        else from the first workspace; a FAIL's witness is prefixed with that
        workspace's spec point as check() does."""
        self._checks.append(("sweep", None, fn, args))

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
