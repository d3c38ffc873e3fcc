"""src/ holds only what the quon CLI, the verification suite and the
benchmark reach.

Every public module-level function or class of src/quonlib must be
referenced from src/quonlib or bench/ in one of three ways: a bare name in
its own module (outside its own definition), `from .mod import X` (or
`from quonlib.mod import X`), or `mod.X`.  Console-script entry points in
pyproject.toml count as references.  Code that only the tests use belongs
in the tests.

Likewise every defaulted parameter of a def in src/quonlib must be set by
some call in src/quonlib or bench/, matched by the callee's name (an
__init__ by its class's): by position, after self or cls, or by keyword,
or through * or **.  A default no call sets is a constant.

And no module of src/quonlib imports or reads another's private name: a
name one module takes from another is public.
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


def _defaults_in(tree, module):
    """(module, function, parameter, position) of every defaulted parameter
    of a def in one parsed file.  The position counts from the first
    argument after self or cls, and is None for a keyword-only one; an
    __init__ is named by its class."""
    owners = {id(item): node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(node))
        args = node.args
        positional = args.posonlyargs + args.args
        skip = int(bool(owner and positional
                        and positional[0].arg in ("self", "cls")))
        name = owner if owner and node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        out += [(module, name, arg.arg, i - skip)
                for i, arg in enumerate(positional) if i >= first]
        out += [(module, name, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return out


def _calls_in(tree):
    """(callee name, call) of every call whose callee is a name or an
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _sets(call, param, position):
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _unset_defaults(defaults, calls):
    return sorted((mod, fn, param) for mod, fn, param, position in defaults
                  if not any(name == fn and _sets(call, param, position)
                             for name, call in calls))


def test_every_default_is_set_by_a_caller():
    defaults, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        defaults += _defaults_in(tree, path.stem)
        calls += _calls_in(tree)
    for path in sorted((ROOT / "bench").glob("*.py")):
        calls += _calls_in(_parse(path))
    unset = _unset_defaults(defaults, calls)
    assert not unset, (
        "defaults no call in src/ or bench/ sets: "
        + ", ".join(f"{mod}.{fn}({param})" for mod, fn, param in unset))


def test_each_way_of_setting_a_default_counts():
    source = """
class Poly:
    def __init__(self, coeffs=()):
        pass

    def scaled(self, by=1, *, exact=False):
        pass

def positional(r, tol=1e-10):
    pass

def keyword(r, cap=None):
    pass

def starred(r, seed=0):
    pass

def double_starred(r, depth=3):
    pass

def unset(r, limit=4):
    pass

def calls(*args, **kwargs):
    Poly([1]).scaled(2)
    positional(1, 0.5)
    keyword(1, cap=2)
    starred(*args)
    double_starred(1, **kwargs)
    unset(1)
"""
    tree = ast.parse(source)
    defaults = _defaults_in(tree, "mod")
    assert ("mod", "Poly", "coeffs", 0) in defaults
    assert ("mod", "scaled", "exact", None) in defaults
    assert _unset_defaults(defaults, list(_calls_in(tree))) == [
        ("mod", "scaled", "exact"), ("mod", "unset", "limit")]
    # with no call at all, every default is unset
    assert len(_unset_defaults(defaults, [])) == len(defaults) == 8


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


def _private_imports_in(tree, own, modules):
    """(module, name) of every private name of another quonlib module that
    one parsed file imports or reads as an attribute of that module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.removeprefix("quonlib.")
            if mod in modules and mod != own:
                out.update((mod, alias.name) for alias in node.names
                           if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules - {own} \
                and node.attr.startswith("_"):
            out.add((node.value.id, node.attr))
    return out


def test_no_module_reads_another_modules_private_name():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = sorted(f"{path.stem} -> {mod}.{name}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for mod, name in _private_imports_in(
                       _parse(path), path.stem, modules))
    assert not found, "private names read across modules: " + ", ".join(found)


def test_each_kind_of_private_read_counts():
    source = """
from .parastat import _refuse, WORK_LIMIT
from quonlib.speicher import _MAX
from . import gram

def f():
    return gram._bareiss(gram.EXACT_LIMIT), _own._x, self._y
"""
    modules = {"parastat", "speicher", "gram", "mod", "_own"}
    assert _private_imports_in(ast.parse(source), "mod", modules) == {
        ("parastat", "_refuse"), ("speicher", "_MAX"), ("gram", "_bareiss"),
        ("_own", "_x")}
    # a module's own private names are its own
    assert _private_imports_in(ast.parse(source), "_own", modules) == {
        ("parastat", "_refuse"), ("speicher", "_MAX"), ("gram", "_bareiss")}
