"""Command-line frontend.

    jacklax jack show 1,2
    jacklax psi show 1,2^2 "(2,1)"
    jacklax lr compute --mu 1^2 --nu 2 --hatted --format latex
    jacklax verify main-theorem --max-size 6 --mode symbolic
    jacklax counts --kernel --to 6
    jacklax cache warm --degree 5

Exit code 0 iff every requested check passes (conjecture suites never gate).
"""

import argparse
import functools
import json
import os
import shutil
import sys

from .arith import render_coeff, render_latex
from .errors import BadBox, BadSize, JackLaxError
from .fock import dim_hn
from .partitions import (count_by_corners, count_lattice_q, count_partitions,
                         format_partition, parse_partition, series_P)
from .report import RunConfig
from .verify import DEFAULT_SIZES, SUITES, suite_sizes


def _parse_box(text):
    """A box "(i,j)" (parentheses optional) with integer coordinates."""
    try:
        a, b = text.strip().strip("()").split(",")
        return (int(a), int(b))
    except ValueError:
        raise BadBox("bad box %r: expected (row,col), e.g. (2,1)" % text) from None


def _mono_str(mu, var="V"):
    out = []
    for part in sorted(set(mu), reverse=True):
        m = mu.count(part)
        out.append("%s%d" % (var, part) + ("^%d" % m if m > 1 else ""))
    return "*".join(out) if out else "1"


def _coeff_wrap(c):
    s = render_coeff(c)
    if " " in s or "/" in s:
        return "(%s)" % s
    return s


def format_fock(vec):
    if not vec:
        return "0"
    parts = []
    for mu in sorted(vec, key=lambda m: (len(m), m)):
        c = _coeff_wrap(vec[mu])
        mono = _mono_str(mu)
        parts.append(mono if c == "1" and mu else
                     (c if not mu else c + "*" + mono))
    return " + ".join(parts)


def _workspace(args):
    """The one workspace of a query: symbolic, or at one spec point, the
    first default point unless --spec-points names another."""
    cfg = _config(args)
    if args.spec_points is not None and len(cfg.points) > 1:
        raise JackLaxError("%s %s evaluates at one spec point, but --spec-points gives %d"
                           % (args.command, args.what, len(cfg.points)))
    return cfg.workspaces()[0]


def _config(args, jobs=1):
    """The RunConfig of a command; --spec-points is taken in specialized
    mode only, as a symbolic run evaluates at no point."""
    points = None
    if args.spec_points is not None:
        if args.mode != "specialized":
            raise JackLaxError("--spec-points needs --mode specialized")
        points = RunConfig.parse_points(args.spec_points)
    return RunConfig(mode=args.mode, points=points, cache_dir=_cache_dir(args), jobs=jobs)


def _cache_dir(args):
    """--cache-dir, or else JACKLAX_CACHE_DIR (the library reads no
    environment): the disk cache of a command, or None."""
    cache_dir = args.cache_dir or os.environ.get("JACKLAX_CACHE_DIR")
    if cache_dir and not _can_be_dir(cache_dir):
        raise JackLaxError("cache directory %s is not a directory and cannot be made one"
                           % cache_dir)
    return cache_dir


def _required(cache_dir):
    """The cache directory of a `cache` command, which has no use without one."""
    if not cache_dir:
        raise JackLaxError("no cache directory configured (use --cache-dir or JACKLAX_CACHE_DIR)")
    return cache_dir


def _can_be_dir(path):
    """Whether path is a directory or can be made one: its nearest
    existing ancestor is a directory."""
    while path and not os.path.exists(path):
        path = os.path.dirname(path.rstrip(os.sep))
    return os.path.isdir(path or os.curdir)


def _check_out(path):
    """An --out path must name a file in an existing directory."""
    if os.path.isdir(path):
        raise JackLaxError("--out %s is a directory" % path)
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise JackLaxError("--out %s: directory %s does not exist" % (path, parent))


def cmd_jack(args):
    if args.hatted and args.what != "show":
        raise JackLaxError("jack %s does not take --hatted (only jack show does)" % args.what)
    ws = _workspace(args)
    lam = parse_partition(args.partition)
    if args.what == "show":
        vec = ws.field.uncleared(ws.jack_row(lam))
        if args.hatted:
            vp = ws.varpi(lam)
            vec = {mu: c / vp for mu, c in vec.items()}
        name = "jhat" if args.hatted else "j"
        print("%s_{%s} = %s" % (name, format_partition(lam), format_fock(vec)))
    elif args.what == "norm":
        print("|j_{%s}|^2 = %s" % (format_partition(lam),
                                   render_coeff(ws.norm_sq(lam))))
    elif args.what == "varpi":
        print("varpi_{%s} = %s" % (format_partition(lam),
                                   render_coeff(ws.varpi(lam))))
    return 0


def cmd_psi(args):
    ws = _workspace(args)
    lam = parse_partition(args.partition)
    s = _parse_box(args.box)
    from .lax import psi_from_jack
    psi = ws.field.uncleared(psi_from_jack(ws, lam, s, args.hatted))
    name = "psihat" if args.hatted else "psi"
    print("%s_{%s}^{(%d,%d)}:" % (name, format_partition(lam), s[0], s[1]))
    byw = {}
    for (m, mu), c in psi.items():
        byw.setdefault(m, {})[mu] = c
    for m in sorted(byw):
        print("  w^%d * ( %s )" % (m, format_fock(byw[m])))
    return 0


def cmd_lr(args):
    ws = _workspace(args)
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    from .lr import jack_lr
    table = jack_lr(ws, mu, nu, hatted=args.hatted)
    items = sorted(table.items())
    cname = "chat" if args.hatted else "c"
    if args.format == "json":
        blob = {
            "mu": format_partition(mu),
            "nu": format_partition(nu),
            "hatted": bool(args.hatted),
            "entries": {format_partition(g): render_coeff(c) for g, c in items},
        }
        print(json.dumps(blob, sort_keys=True, indent=1))
    elif args.format == "latex":
        for g, c in items:
            print(r"%s_{%s,%s}^{%s} &= %s \\" % (cname, format_partition(mu),
                                                 format_partition(nu),
                                                 format_partition(g),
                                                 render_latex(c)))
    else:
        for g, c in items:
            print("%s_{%s,%s}^{%s} = %s" % (cname, format_partition(mu),
                                            format_partition(nu),
                                            format_partition(g),
                                            render_coeff(c)))
    return 0


def cmd_counts(args):
    corners = args.corners or (None, None)
    for name, v in (("to", args.to), ("partitions", args.partitions),
                    ("corners n", corners[0]), ("corners r", corners[1]),
                    ("lattice", args.lattice), ("dim-h", args.dim_h)):
        if v is not None and v < 0:
            raise BadSize("bad size %s=%d for counts: sizes are >= 0" % (name, v))
    # argparse lets at most one query through; --to sizes only --kernel and P
    for dest, count in (("partitions", count_partitions),
                        ("corners", lambda nr: count_by_corners(*nr)),
                        ("lattice", count_lattice_q), ("dim_h", dim_hn)):
        value = getattr(args, dest)
        if value is not None:
            if args.to is not None:
                raise JackLaxError("counts --to goes with --kernel or alone, not with %s"
                                   % _option(dest))
            print(count(value))
            return 0
    to = 8 if args.to is None else args.to
    if args.kernel:
        from .traces import kernel_dim_series
        ser = kernel_dim_series(to)
        terms = []
        for n in range(to + 1):
            c = ser.coeff(n)
            if c:
                terms.append(("%s" % c if c != 1 else "") + "x^%d" % n)
        print(" + ".join(terms) if terms else "0")
        return 0
    P = series_P(to)
    print(" + ".join("%sx^%d" % ("" if P.coeff(n) == 1 else P.coeff(n), n)
                     for n in range(to + 1)))
    return 0


def cmd_cache_warm(args):
    cfg = _config(args)
    _required(cfg.cache_dir)
    if args.degree < 0:
        raise BadSize("bad size degree=%d for cache warm: sizes are >= 0" % args.degree)
    wss = cfg.workspaces()
    # the Jack degrees are what the disk cache stores
    for ws in wss:
        for n in range(args.degree + 1):
            ws.jack_degree(n)
    print("warmed to degree %d (%d workspace(s))" % (args.degree, len(wss)))
    return 0


def cmd_cache_stat(args):
    from .session import cache_stat
    for name, status in cache_stat(_required(_cache_dir(args))).items():
        print("%s: %s" % (name, status))
    return 0


def cmd_cache_clear(args):
    from .session import cache_clear
    print("removed %d cache file(s)" % cache_clear(_required(_cache_dir(args))))
    return 0


# each size option (by its argparse dest) and the DEFAULT_SIZES keywords it sets
_SIZE_OPTIONS = {"max_size": ("max_size", "max_total"), "max_degree": ("max_degree",),
                 "to": ("to",)}


def _check_size_options(args):
    """A named suite rejects a size option it does not take (verify all
    applies each option to the suites that take it)."""
    kws = DEFAULT_SIZES.get(args.suite, {})
    takes = [dest for dest, keys in _SIZE_OPTIONS.items() if any(k in kws for k in keys)]
    for dest in _SIZE_OPTIONS:
        if getattr(args, dest) is not None and dest not in takes:
            raise BadSize("verify %s takes %s, not %s" % (
                args.suite, " or ".join(map(_option, takes)) or "no size option", _option(dest)))


def _option(dest):
    return "--" + dest.replace("_", "-")


def cmd_verify(args):
    if args.out:
        _check_out(args.out)
    cfg = _config(args, args.jobs)
    if args.suite != "all":
        _check_size_options(args)
        if args.include_conjectures:
            raise JackLaxError("verify %s does not take --include-conjectures (only verify "
                               "all does)" % args.suite)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if "conjectures" in suites and args.suite == "all" and not args.include_conjectures:
        suites.remove("conjectures")
    given = {kw: getattr(args, dest) for dest, kws in _SIZE_OPTIONS.items() for kw in kws}
    # every size is checked before any suite runs
    sizes = {name: suite_sizes(name, cfg.mode, **given) for name in suites}
    reports = []
    gate = True
    for name in suites:
        rep = SUITES[name](cfg, **sizes[name])
        reports.append(rep)
        if name != "conjectures" and not rep.all_pass():
            gate = False
    payload = [r.as_dict() for r in reports]
    if args.format == "json" or args.out:
        # one serialization serves stdout and the --out file
        text = json.dumps(payload if len(payload) > 1 else payload[0],
                          sort_keys=True, indent=1)
    if args.format == "json":
        print(text)
    else:
        for r in reports:
            print(r.text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if gate else 1


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are, like every other bad
    input, one line "error: ..." on stderr and exit code 2 (--help shows
    the usage)."""

    def __init__(self, **kw):
        super().__init__(formatter_class=_help_formatter(), **kw)

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@functools.cache
def _help_formatter():
    """argparse's help formatter at the terminal width, measured once per
    process: argparse makes a formatter for every option it adds, and each
    would measure the terminal again."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser():
    ap = _Parser(prog="jacklax", description="Exact Jack/Lax computations and verification")
    # the options of every command that works in workspaces (all but counts)
    common = _Parser(add_help=False)
    common.add_argument("--spec-points",
                        help="semicolon-separated e1,e2 rational pairs")
    common.add_argument("--cache-dir")

    def add_mode(parser, default):
        parser.add_argument("--mode", choices=["symbolic", "specialized"],
                            default=default)

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jack", parents=[common], help="Jack function data")
    p.add_argument("what", choices=["show", "norm", "varpi"])
    p.add_argument("partition")
    p.add_argument("--hatted", action="store_true")
    add_mode(p, "symbolic")
    p.set_defaults(fn=cmd_jack)

    p = sub.add_parser("psi", parents=[common], help="Lax eigenfunctions")
    p.add_argument("what", choices=["show"])
    p.add_argument("partition")
    p.add_argument("box", help="addable box, e.g. (2,1)")
    p.add_argument("--hatted", action="store_true")
    add_mode(p, "symbolic")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("lr", parents=[common], help="Littlewood-Richardson tables")
    p.add_argument("what", choices=["compute"])
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--hatted", action="store_true")
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")
    add_mode(p, "symbolic")
    p.set_defaults(fn=cmd_lr)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite (shc ... is verify shc ...)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-size", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--to", type=int)
    p.add_argument("--include-conjectures", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="also write the JSON report to this file")
    add_mode(p, "specialized")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("counts", help="counting functions, one query per call")
    query = p.add_mutually_exclusive_group()
    query.add_argument("--kernel", action="store_true")
    query.add_argument("--partitions", type=int)
    query.add_argument("--corners", type=int, nargs=2, metavar=("N", "R"))
    query.add_argument("--lattice", type=int)
    query.add_argument("--dim-h", type=int)
    p.add_argument("--to", type=int, help="degree of --kernel or of P alone (default 8)")
    p.set_defaults(fn=cmd_counts)

    p = sub.add_parser("cache", help="disk cache operations")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("warm", parents=[common], help="build the Jacks into the cache")
    a.add_argument("--degree", type=int, default=5)
    add_mode(a, "symbolic")
    a.set_defaults(fn=cmd_cache_warm)
    for action, fn, text in (("stat", cmd_cache_stat, "check every cache file"),
                             ("clear", cmd_cache_clear, "remove every cache file")):
        a = actions.add_parser(action, help=text)
        a.add_argument("--cache-dir")
        a.set_defaults(fn=fn)
    return ap


def _normalise_argv(argv):
    """Route "shc ..." to "verify shc ...", and glue "--spec-points VALUE"
    into "--spec-points=VALUE": argparse takes a value such as
    "-10007,9973;..." that starts with "-" for an option."""
    if argv and argv[0] == "shc":
        argv = ["verify", *argv]
    out = []
    for a in argv:
        if out and out[-1] == "--spec-points":
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


@functools.cache
def _parser():
    """The parser main uses, built on first use: parse_args leaves a parser
    as it found it, so one serves every call in a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(_normalise_argv(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except JackLaxError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
