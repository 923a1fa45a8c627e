"""Every module-level function and class of src/jacklax is used somewhere,
and no module but arith.py forks on field.symbolic.

A name counts as used when some code in src/, tests/ or bench/*.py refers
to it: as a name, an attribute, an imported name, or a word inside a string
literal (bench/tracer.py wraps functions by their names as strings).  Its own
definition, comments and docstrings do not count.  Only `main`, the console
entry point, is exempt.

The fields own the row format (clear, uncleared, combine, quotient and
lax_ints), so the recursions and expansions run one code path for both;
only arith.py, which defines the fields, may read the `symbolic` flag.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jacklax"
ALLOWED = {"main"}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _references(tree):
    """Every identifier the code of a module refers to, with multiplicity."""
    docstrings = {id(n.value) for n in ast.walk(tree) if _is_docstring(n)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.extend(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.extend(_WORD.findall(node.value))
    return out


def test_every_module_level_name_is_used():
    files = (sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py")))
    used = set()
    for path in files:
        used.update(_references(ast.parse(path.read_text(), str(path))))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in used and node.name not in ALLOWED):
                dead.append("%s.%s" % (path.stem, node.name))
    assert dead == []


def test_only_arith_reads_the_symbolic_flag():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "symbolic":
                readers.append("%s:%d" % (path.name, node.lineno))
    assert readers == []
