"""A guard against uncalled code in the package: every function, class and
method defined in ``src/regopen`` is referenced somewhere in ``src/``,
``demos/`` or ``perfbench/`` outside its own definition, not counting the
package's ``__init__`` exports. A reference is a name, an attribute, or an
identifier inside a string that is not a docstring (``perfbench``'s
``SPANS`` names what it wraps in strings). Names are matched, not bindings,
so a method counts as referenced by any attribute of its name. Dunder
methods are called by the language and are not checked. The files are
parsed, not imported, and nothing is written."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regopen"
SEARCHED = ("src", "demos", "perfbench")

# Definitions that only tests reference, each with why it stays.
ALLOWED: dict[str, str] = {}

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _definitions():
    """(qualified name, name, file, first line, last line) of each top-level
    function and class of the package, and of each method of a top-level
    class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node.name, node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not (item.name.startswith("__") and item.name.endswith("__")):
                            yield f"{node.name}.{item.name}", item.name, path, item.lineno, item.end_lineno


def _docstrings(tree):
    """The ids of the docstring nodes of ``tree``."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    found.add(id(first.value))
    return found


def _references():
    """name -> [(file, line)] of each reference in the searched trees,
    outside the package's ``__init__``."""
    refs = {}
    exports = PACKAGE / "__init__.py"
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == exports:
                continue
            tree = ast.parse(path.read_text())
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = [node.name.rsplit(".", 1)[-1]]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [] if id(node) in docstrings else IDENTIFIER.findall(node.value)
                else:
                    continue
                for name in names:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _uncalled():
    refs = _references()
    return sorted(
        qualified
        for qualified, name, path, first, last in _definitions()
        if not any(p != path or not first <= line <= last for p, line in refs.get(name, ()))
    )


def test_every_definition_in_the_package_is_referenced():
    uncalled = [name for name in _uncalled() if name not in ALLOWED]
    assert uncalled == []


def test_every_allowed_name_is_still_defined_and_still_uncalled():
    # an entry that is called again, or gone, leaves the list
    assert sorted(ALLOWED) == [name for name in _uncalled() if name in ALLOWED]
