"""src/ holds only what the quon CLI, the verification suite and the
benchmark reach.

Every public module-level function or class of src/quonlib must be
referenced from src/quonlib or bench/ in one of three ways: a bare name in
its own module (outside its own definition), `from .mod import X` (or
`from quonlib.mod import X`), or `mod.X`.  Console-script entry points in
pyproject.toml count as references.  Code that only the tests use belongs
in the tests.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quonlib"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """{(module, name)} of the public top-level defs and classes."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out.add((path.stem, node.name))
    return out


def _references_in(tree, own=None):
    """(module, name) pairs one parsed file references; own is the module
    the file is, for its bare names."""
    refs = set()
    for top in tree.body:
        defined = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and own and node.id != defined:
                refs.add((own, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                mod = node.module.removeprefix("quonlib.")
                refs.update((mod, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                refs.add((node.value.id, node.attr))
    return refs


def _references():
    """(module, name) pairs referenced from src/quonlib and bench/, and the
    console-script entry points."""
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        refs |= _references_in(_parse(path), path.stem)
    for path in sorted((ROOT / "bench").glob("*.py")):
        refs |= _references_in(_parse(path))
    scripts = (ROOT / "pyproject.toml").read_text()
    refs.update(re.findall(r'"quonlib\.(\w+):(\w+)"', scripts))
    return refs


def test_every_public_definition_is_reached():
    unreached = sorted(_definitions() - _references())
    assert not unreached, (
        "public definitions nothing in src/ or bench/ references: "
        + ", ".join(f"{mod}.{name}" for mod, name in unreached))


def test_each_kind_of_reference_counts():
    source = """
from .wick import chords_cross
from quonlib.qpoly import QPoly
from . import gram

def helper():
    return gram.zagier_determinant(2)

def recursive(n):
    return recursive(n - 1) if n else helper()
"""
    refs = _references_in(ast.parse(source), "mod")
    assert {("wick", "chords_cross"), ("qpoly", "QPoly"),
            ("gram", "zagier_determinant"), ("mod", "helper")} <= refs
    # a function that only calls itself is not reached
    assert ("mod", "recursive") not in refs
    # bench files reach nothing by a bare name
    assert ("mod", "helper") not in _references_in(ast.parse(source))
    assert ("cli", "main") in _references()


def test_every_traced_name_resolves():
    # bench/run.py --trace 1 wraps these library names; a deleted or
    # renamed one fails here
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = tracer.Tracer()._replacements()
    assert all(callable(orig) and callable(wrapper)
               for orig, wrapper in pairs)
