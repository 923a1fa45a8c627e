"""Run configuration and verification reports."""

import json
import time
from fractions import Fraction

from .arith import DEFAULT_SPEC_POINTS, SpecPoint
from .errors import BadSpecPoint, JackLaxError


class RunConfig:
    def __init__(self, mode="specialized", points=None, cache_dir=None,
                 jobs=1, fmt="text", include_conjectures=False):
        if mode not in ("symbolic", "specialized"):
            raise JackLaxError("mode must be symbolic or specialized")
        self.mode = mode
        self.points = tuple(points) if points else DEFAULT_SPEC_POINTS
        if mode == "specialized" and not self.points:
            raise JackLaxError("specialized mode needs at least one point")
        self.cache_dir = cache_dir
        self.jobs = max(1, jobs)
        self.fmt = fmt
        self.include_conjectures = include_conjectures

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


class Report:
    """A suite result: deterministically ordered instances with statuses."""

    def __init__(self, suite, config):
        self.suite = suite
        self.config = config.as_dict() if isinstance(config, RunConfig) else dict(config)
        self.instances = []
        self._t0 = time.monotonic()
        self.elapsed_ms = 0

    def add(self, instance_id, status, witness=""):
        self.instances.append({"id": instance_id, "status": status, "witness": witness})

    def check(self, instance_id, wss, fn):
        """PASS iff fn(ws) holds in every workspace; a FAIL names the first
        workspace where it fails (its spec point, or "symbolic")."""
        for ws in wss:
            if not fn(ws):
                self.add(instance_id, "FAIL", ws.field.name)
                return
        self.add(instance_id, "PASS")

    def extend(self, instances):
        self.instances.extend(instances)

    def done(self):
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
