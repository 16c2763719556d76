"""Hygiene guards over the package source.

The library holds only what its programs reach: the package itself, the
scripts and the benchmark.  The three reference guards below search the
Python files under ``src/``, ``scripts/`` and ``perfbench/`` and nothing
else; a reference from a test does not count, so a route that only tests
use is reported until it moves into the tests.  The one exception is
``ALLOWED``, a short list of paper objects that the README names and of
options that tests use as seams, each with its reason; an entry that no
longer exists, that the searched files now reach, or (for a definition)
that the README does not name in backticks fails its own test.

Dead definitions: a module-level function, class or constant of
``src/cycibl`` counts as used when some searched file refers to it apart
from its own definition: as a loaded name, an attribute, an imported name,
or a string naming it (the benchmark tracer wraps functions by name, e.g.
``"Eliminator.reduce"``).

Dead methods: a method of a package class counts as used when some
searched file calls it (``x.name(...)``) or names it in a string; a field
or property of the same name reached as a plain attribute does not count.
Properties, dunders and overrides of a method of a base class
(``_Parser.error``) are exempt.

Options without a caller: every defaulted parameter of a function or
method of ``src/cycibl`` is passed, by keyword or by position, by some
call in the searched files to a callee of that name.

Dead imports: every name a module of ``src/cycibl`` imports is used in the
scope that imports it, the module for a top-level import and the function
(with its nested functions) for a function-local one.

One int form: ``linalg`` alone turns rationals into ints, so no other
module of ``src/cycibl`` reads ``.numerator`` or ``.denominator``.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycibl"
SEARCHED = ("src", "scripts", "perfbench")

ALLOWED = {
    "algebra.reduced_membership":
        "paper object: membership in the reduced subcomplex",
    "dibl.twisted_q1lg_on_unit":
        "paper object: the twisted unit relations",
    "models.build_s1_pmc":
        "paper object: the circle's two-output twist family",
    "dibl.q120(T)":
        "test seam: the rational-table relation oracle injects mutant T, as "
        "the benchmark does through ibl_relations_check(T)",
    "ribbon.enumerate_graphs(reduced)":
        "test seam: the every-candidate oracle compares the unreduced classes",
    "words.dual_word(weight_bound)":
        "test seam: truncated dual words exercise the truncation bookkeeping",
    "homology.chain_homology(reduced)":
        "test seam: the universal-coefficient test compares reduced chain "
        "and cochain dimensions",
    "algebra.reduced_membership(max_weight)":
        "test seam: membership checked up to a chosen weight",
}


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not _is_dunder(n)]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.AST, calls: bool = False) -> set[str]:
    """Identifiers that strings name, and with ``calls`` the attributes
    that are called (``x.name(...)``), else every attribute and every
    loaded and imported name."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                refs.update(parts)
        elif calls:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                refs.add(node.func.attr)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
    return refs


def _searched_references(calls: bool = False) -> set[str]:
    refs: set[str] = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs |= _references(ast.parse(path.read_text(), str(path)), calls)
    return refs


def _unreferenced_definitions() -> list[str]:
    refs = _searched_references()
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        dead.extend(f"{path.stem}.{name}" for name in _definitions(tree)
                    if name not in refs)
    return dead


def _methods():
    """``module.Class.method`` for each method that no base class defines,
    dunders and properties left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cycibl.{path.stem}")
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = getattr(module, node.name).__mro__[1:]
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)
                        and not any(getattr(d, "id", None) == "property"
                                    for d in item.decorator_list)
                        and not any(hasattr(b, item.name) for b in bases)):
                    yield f"{path.stem}.{node.name}.{item.name}"


def _unreferenced_methods() -> list[str]:
    refs = _searched_references(calls=True)
    return [m for m in _methods() if m.rsplit(".", 1)[1] not in refs]


def test_no_unreferenced_module_level_definitions():
    dead = [n for n in _unreferenced_definitions() if n not in ALLOWED]
    assert not dead, "unreferenced module-level definitions: " + ", ".join(dead)


def test_no_unreferenced_methods():
    dead = [n for n in _unreferenced_methods() if n not in ALLOWED]
    assert not dead, "unreferenced methods: " + ", ".join(dead)


def _scope_imports(scope: ast.AST):
    """Import statements of a module or function, outside nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        used = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for node in _scope_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return found


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unused.extend(f"{path.stem}:{line} {name}"
                      for line, name in _unused_imports(tree))
    assert not unused, "imported but unused: " + ", ".join(unused)


def _unbounded_memo(node: ast.AST) -> bool:
    """``functools.cache`` (imported or as an attribute) or
    ``lru_cache(maxsize=None)``."""
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "cache" and getattr(node.value, "id", None) == "functools"
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "attr", getattr(func, "id", None)) != "lru_cache":
            return False
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
    return False


def test_no_unbounded_memo():
    """No cache may grow without bound across structures."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _unbounded_memo(node):
                found.append(f"{path.stem}:{node.lineno}")
    assert not found, "unbounded memo: " + ", ".join(found)


def test_only_linalg_takes_rationals_apart():
    """Scaling to ints over a common denominator and primitive forms live
    in ``linalg`` (``integral``, ``primitive``); another module that reads
    a numerator or a denominator keeps a private copy of that rule."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and \
                    node.attr in ("numerator", "denominator"):
                found.append(f"{path.stem}:{node.lineno} .{node.attr}")
    assert not found, "rationals taken apart outside linalg: " + ", ".join(found)


def _defaulted_parameters(tree: ast.Module):
    """``(callee name, parameter, positional index or None, skip)`` for each
    defaulted parameter of a function or method: a method's calls pass its
    arguments after ``self`` (``skip`` 1), a class is called by its name
    for ``__init__``, and a keyword-only parameter has no index."""
    found = []

    def visit(node, owner=None):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, item)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = owner.name if owner and item.name == "__init__" else item.name
                args = item.args
                positional = args.posonlyargs + args.args
                skip = 1 if owner is not None and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in item.decorator_list) else 0
                for idx, arg in enumerate(positional[len(positional)
                                                     - len(args.defaults):],
                                          len(positional) - len(args.defaults)):
                    found.append((name, arg.arg, idx, skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None, skip))
                visit(item)
            else:
                visit(item, owner)

    visit(tree)
    return found


def _calls():
    """Callee name -> list of (positional count or None for ``*args``,
    keyword names or None for ``**kwargs``) over every searched file."""
    calls: dict[str, list] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (None if starred else len(node.args),
                     None if None in keywords else keywords))
    return calls


def _unpassed_parameters() -> list[str]:
    calls = _calls()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, param, idx, skip in _defaulted_parameters(tree):
            passed = any(
                keywords is None or param in keywords or npos is None
                or (idx is not None and npos > idx - skip)
                for npos, keywords in calls.get(name, ()))
            if not passed:
                unused.append(f"{path.stem}.{name}({param})")
    return unused


def test_every_defaulted_parameter_is_passed_somewhere():
    """A defaulted parameter that no call passes, by keyword or by
    position, is an option without a caller: its default is the only
    value it ever takes."""
    unused = [n for n in _unpassed_parameters() if n not in ALLOWED]
    assert not unused, "defaulted parameters no call passes: " + ", ".join(unused)


def test_allowlist_is_honest():
    """Every ``ALLOWED`` entry exists, is still unreached from the searched
    files, and, for a definition, is named in backticks in the README."""
    existing = set(_methods())
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        existing.update(f"{path.stem}.{name}" for name in _definitions(tree))
        existing.update(f"{path.stem}.{name}({param})"
                        for name, param, _, _ in _defaulted_parameters(tree))
    flagged = set(_unreferenced_definitions() + _unreferenced_methods()
                  + _unpassed_parameters())
    named = {span.split(".")[-1] for span in
             re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())}
    wrong = []
    for entry in ALLOWED:
        if entry not in existing:
            wrong.append(f"{entry} no longer exists")
        elif entry not in flagged:
            wrong.append(f"{entry} is reached from {', '.join(SEARCHED)}")
        elif "(" not in entry and entry.rsplit(".", 1)[1] not in named:
            wrong.append(f"{entry} is not named in backticks in README.md")
    assert not wrong, "stale allowlist entries: " + "; ".join(wrong)
