"""Every module-level function and class of src/jacklax, and every method
but the dunders, is used by the library or the benchmark, no module but
arith.py forks on field.symbolic, and no operator keeps a second,
field-scalar vector mode.

A name counts as used when some code in src/ or bench/*.py refers to it
as a name, an attribute or an imported name, or when bench/tracer.py wraps
it: the class and attribute names in its TARGETS dict, read by ast.  Its
own definition, comments, docstrings and other string literals do not
count, and neither do tests/: a name only the tests reach is a test
convenience and belongs in tests/oracles.py or inlined in its test.  A method counts as used when
its name is, on whatever object.  `main`, the console entry point, is
exempt, and so are the names in TEST_ONLY, each with its reason, and the
OVERRIDES of a standard-library method, which the standard library calls
by name.

The fields own the row format (clear, uncleared, combine, quotient and
lax_ints), so the recursions and expansions run one code path for both;
only arith.py, which defines the fields, may read the `symbolic` flag,
and only arith.py reads the storage of a BiPoly or a Coeff.
Operators take and return cleared rows, so no function takes a `cleared`
switch or a `den=None` default that selects a vector mode.

Every target of the benchmark's tracer (bench/tracer.py TARGETS) resolves
to a live name, and the README names exactly the Workspace.memo tags that
src/ uses.

A check returns its residual, a dict (see report.py), so no function of
src/ returns a literal True or False but the predicates in PREDICATES.

No module of src/ but cli.py reads the environment.
"""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jacklax"
ALLOWED = {"main"}
# Names of src/ that only tests may reach, as "module.name" or
# "module.Class.method", each with the reason it stays in src/.
TEST_ONLY = {
    # defines the canonical report (the part that stays byte-identical
    # across refactors and --jobs values) beside Report.as_dict
    "report.Report.canonical_json",
    # the value of a symbolic scalar and of a row numerator at a spec
    # point: the tests compare the two modes through them, while the
    # library computes at a point through SpecializedField directly
    "arith.Coeff.evaluate",
    "arith.BiPoly.evaluate",
}
# Functions of src/ ("module.name") that may return a literal True or
# False, each with its reason.
PREDICATES = {
    # whether an input is an N-cycle: delta_kernel_check raises NotACycle
    # on it, before any identity is checked
    "lr.is_cycle",
}
# Methods that override a method of a standard-library base class, which
# calls them by name ("module.Class.method").
OVERRIDES = {
    # argparse calls ArgumentParser.error on every usage error
    "cli._Parser.error",
}


def _references(tree):
    """Every identifier the code of a module refers to, with multiplicity:
    names, attributes and imported names, not words in strings.  A name
    used inside a function of that name does not count: a recursion, or a
    method that calls the method of the same name on another object, is
    no use from outside."""
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        else:
            names = []
        out.extend(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _tracer_names():
    """The class and attribute names in bench/tracer.py's TARGETS dict
    ({metric: (module, class or None, attribute names)}), which the tracer
    wraps by name."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return {c.value for entry in targets.values for part in entry.elts[1:]
            for c in ast.walk(part) if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def _src_functions():
    """(path, node) of every function definition in src/, methods included."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def _used():
    """Every identifier the code of src/ and bench/*.py refers to, and every
    name the tracer wraps."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = _tracer_names()
    for path in files:
        used.update(_references(ast.parse(path.read_text(), str(path))))
    return used


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(qualified name, name) of every module-level function and class of
    src/ ("module.name") and of every method but the dunders
    ("module.Class.name")."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield "%s.%s" % (path.stem, node.name), node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield "%s.%s.%s" % (path.stem, node.name, item.name), item.name


def _dead(methods):
    used = _used()
    return [qual for qual, name in _definitions()
            if (qual.count(".") == 2) == methods
            and name not in used and name not in ALLOWED and qual not in TEST_ONLY
            and qual not in OVERRIDES]


def test_every_module_level_name_is_used():
    assert _dead(methods=False) == []


def test_every_method_is_used():
    assert _dead(methods=True) == []


def test_uses_are_code_tokens():
    # a word in a string literal is no use; a name the tracer wraps is one
    tree = ast.parse('def f(x):\n    """equal"""\n    return x.attr + g("equal")\n')
    assert sorted(_references(tree)) == ["attr", "g", "x"]
    assert {"jack_degree", "psi_hat_solver", "compute_psi"} <= _tracer_names()


def test_a_use_inside_a_function_of_that_name_is_no_use():
    tree = ast.parse("class C:\n    def evaluate(self, x):\n        return self.num.evaluate(x)\n"
                     "def f(n):\n    return f(n - 1) + g(n)\n"
                     "def h(c):\n    return c.evaluate(f)\n")
    refs = _references(tree)
    assert refs.count("evaluate") == refs.count("f") == 1
    assert {"num", "g", "c"} <= set(refs)


def test_test_only_allowlist_is_current():
    # each allowlisted name exists and is still reached only from tests/
    used = _used()
    defined = {qual for qual, _ in _definitions()}
    assert TEST_ONLY <= defined
    assert [name for name in sorted(TEST_ONLY) if name.split(".")[-1] in used] == []


def test_overrides_override_a_base_class_method():
    for qual in OVERRIDES:
        modname, clsname, name = qual.split(".")
        cls = getattr(importlib.import_module("jacklax." + modname), clsname)
        assert name in vars(cls) and any(hasattr(base, name) for base in cls.__mro__[1:])


def test_only_cli_reads_the_environment():
    # settings are read once, at the command line: a Workspace or a suite
    # depends only on its arguments, never on an environment variable
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("environ", "getenv"):
                readers.append("%s:%d %s" % (path.name, node.lineno, name))
    assert readers == []


def test_only_arith_reads_the_symbolic_flag():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "symbolic":
                readers.append("%s:%d" % (path.name, node.lineno))
    assert readers == []


def test_only_arith_reads_the_scalar_storage():
    # BiPoly's packed parts and Coeff's reduced form are arith.py's own:
    # every other module goes through their operators.  The storage names
    # are the classes' slots and BiPoly.t; those that another module's own
    # class also stores (SpectralFun.num, SeriesZ.c, ...) cannot be told
    # apart by ast and are left out.
    from jacklax.arith import BiPoly, Coeff
    storage = set(BiPoly.__slots__) | set(Coeff.__slots__) | {"t"}
    own, reads = set(), []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"):
                own.add(node.attr)
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and getattr(node.targets[0], "id", None) == "__slots__"):
                own.update(ast.literal_eval(node.value))
            elif isinstance(node, ast.Attribute) and node.attr in storage:
                reads.append((node.attr, "%s:%d" % (path.name, node.lineno)))
    assert storage - own >= {"parts", "width", "bound", "t", "_den"}
    assert [where for attr, where in reads if attr not in own] == []


def test_no_vector_mode_switch():
    # no `cleared` parameter and no parameter that defaults to den=None
    found = []
    for path, node in _src_functions():
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        defaults = dict(zip([a.arg for a in args.posonlyargs + args.args][::-1],
                            args.defaults[::-1]))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
        for a in params:
            d = defaults.get(a.arg)
            if a.arg == "cleared" or (a.arg == "den" and isinstance(d, ast.Constant)
                                      and d.value is None):
                found.append("%s:%d %s(%s)" % (path.name, node.lineno, node.name, a.arg))
    assert found == []


def test_tracer_targets_resolve():
    # every function the benchmark's tracer wraps by name still exists
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for metric, (modname, clsname, attrs) in tracer.TARGETS.items():
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname, None)
        missing += [(metric, attr) for attr in attrs if getattr(owner, attr, None) is None]
    assert missing == []


def test_readme_names_every_memo_tag():
    # the README's list of Workspace.memo keys names exactly the layer tags
    # that src/ passes to memo(("<tag>", ...), ...)
    import re
    tags = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "memo"
                    and node.args and isinstance(node.args[0], ast.Tuple)):
                tags.add(ast.literal_eval(node.args[0].elts[0]))
    assert "psi-hat dual" in tags
    assert set(re.findall(r'`\("([^"]+)",', (ROOT / "README.md").read_text())) == tags


def test_no_check_returns_a_bool():
    # a check returns its residual; a literal True or False returned by a
    # function of src/ is a leftover of the bool contract
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [(node.name + "." + f.name, f) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            else:
                continue
            for name, fn in defs:
                qual = "%s.%s" % (path.stem, name)
                found += ["%s:%d" % (qual, ret.lineno) for ret in ast.walk(fn)
                          if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Constant)
                          and type(ret.value.value) is bool and qual not in PREDICATES]
    assert found == []
    assert PREDICATES <= {qual for qual, _ in _definitions()}
