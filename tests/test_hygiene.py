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

Dead methods: a method ``Class.name`` of a package class counts as used
when some searched file calls it (``x.name(...)``) or names it in a
string, and either no other package class defines ``name`` or the
receiver resolves to ``Class`` (``self`` in its methods, a parameter
annotated with it, a value of a call annotated to return it, a string
``"Class.name"``); a field or property of the same name reached as a plain
attribute does not count.  Properties, dunders and overrides of a method
of a base class (``_Parser.error``) are exempt.

Module state: no module of ``src/cycibl`` binds a mutable container at
module level, apart from ``MODULE_STATE``, each entry with its reason;
derived data lives on the object it is derived from.

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
    "dibl.RelationReport.summary":
        "the benchmark's relations check prints it for a failing suite, on "
        "a job result whose class the source does not name",
    "dibl.circ1":
        "paper object: the partial composition of the product with a twist "
        "entry; the twisted operations contract the entries their family "
        "keeps prepared",
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


def _references(tree: ast.AST) -> set[str]:
    """Identifiers that strings name, every attribute and every loaded and
    imported name."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                refs.update(parts)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
    return refs


def _searched_trees():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield ast.parse(path.read_text(), str(path))


def _unreferenced_definitions() -> list[str]:
    refs: set[str] = set()
    for tree in _searched_trees():
        refs |= _references(tree)
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


class _Receivers:
    """The package class a call's receiver resolves to, when the source
    says: ``self`` in a method, a class name, a parameter annotated with a
    class, a call of a class or of a function or method whose return
    annotation names one, an assignment from such an expression (when the
    scope assigns the name nothing else), or a conditional of two of them
    that agree."""

    def __init__(self):
        self.classes: set[str] = set()
        self.defined_by: dict[str, set[str]] = {}  # method name -> classes
        self.returns: dict[str, str | None] = {}  # function or Class.method
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(), str(path)).body:
                if isinstance(node, ast.ClassDef):
                    self.classes.add(node.name)
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(), str(path)).body:
                if isinstance(node, ast.FunctionDef):
                    self._returns(node.name, node)
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.defined_by.setdefault(item.name, set()).add(node.name)
                            self._returns(f"{node.name}.{item.name}", item)

    def _returns(self, name, func):
        # a name defined twice with different return classes resolves to none
        got = self.annotated(func.returns)
        self.returns[name] = got if self.returns.get(name, got) == got else None

    def annotated(self, node) -> str | None:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            got = {self.annotated(node.left), self.annotated(node.right)} - {None}
            return got.pop() if len(got) == 1 else None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.split(".")[-1]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", getattr(node, "attr", None))
        else:
            return None
        return name if name in self.classes else None

    def type_of(self, node, env: dict) -> str | None:
        if isinstance(node, ast.Name):
            return node.id if node.id in self.classes else env.get(node.id)
        if isinstance(node, ast.IfExp):
            a, b = self.type_of(node.body, env), self.type_of(node.orelse, env)
            return a if a == b else None
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            return func.id if func.id in self.classes else self.returns.get(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in self.classes:
            return func.attr
        owner = self.type_of(func.value, env)
        if owner is not None:
            return self.returns.get(f"{owner}.{func.attr}")
        if func.attr not in self.defined_by:  # module.function(...)
            return self.returns.get(func.attr)
        return None

    def scope(self, node, env: dict, owner: str | None, uses: set) -> None:
        """Add to ``uses`` the calls and strings of a module, class or
        function body (``owner`` the class of a method), then visit the
        scopes nested in it."""
        env = dict(env)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for i, arg in enumerate(args):
                env.pop(arg.arg, None)
                if i == 0 and owner is not None and arg.arg == "self":
                    env[arg.arg] = owner
                elif (t := self.annotated(arg.annotation)) is not None:
                    env[arg.arg] = t
        body, nested = [], []
        stack = list(ast.iter_child_nodes(node))
        while stack:
            item = stack.pop()
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                nested.append(item)
            else:
                body.append(item)
                stack.extend(ast.iter_child_nodes(item))
        # a name is typed when every binding in the scope is a plain
        # assignment of an expression of that type
        plain = {id(a.targets[0]): a.value for a in body
                 if isinstance(a, ast.Assign) and len(a.targets) == 1}
        bound: dict[str, set] = {}
        for item in body:
            if isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store):
                value = plain.get(id(item))
                bound.setdefault(item.id, set()).add(
                    None if value is None else self.type_of(value, env))
        for name, types in bound.items():
            env.pop(name, None)
            if len(types) == 1 and None not in types:
                env[name] = types.pop()
        for item in body:
            if isinstance(item, ast.Call) and isinstance(item.func, ast.Attribute):
                t = self.type_of(item.func.value, env)
                uses.add(item.func.attr if t is None else f"{t}.{item.func.attr}")
            elif isinstance(item, ast.Constant) and isinstance(item.value, str):
                parts = item.value.split(".")
                if all(p.isidentifier() for p in parts):
                    uses.update(parts)
                    if len(parts) > 1 and parts[-2] in self.classes:
                        uses.add(".".join(parts[-2:]))
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for item in nested:
            self.scope(item, env, owner, uses)


def _unreferenced_methods() -> list[str]:
    """A method ``Class.name`` counts as used by a call ``x.name(...)`` or
    a string naming it when no other package class defines ``name`` or the
    receiver resolves to ``Class`` (:class:`_Receivers`); a string
    ``"Class.name"`` resolves to ``Class``."""
    receivers = _Receivers()
    uses: set[str] = set()
    for tree in _searched_trees():
        receivers.scope(tree, {}, None, uses)
    dead = []
    for m in _methods():
        cls, name = m.split(".")[1:]
        if f"{cls}.{name}" not in uses and not (
                name in uses and receivers.defined_by[name] == {cls}):
            dead.append(m)
    return dead


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


MODULE_STATE = {
    "ribbon._ENUM_CACHE":
        "enumerated classes keyed by graph type, bounded by the enumeration "
        "budget",
    "fileio._JSON_TYPES": "a constant: JSON type -> its name in messages",
}

_MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict",
                  "OrderedDict", "Counter", "deque"}


def _mutable_container(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "attr", getattr(func, "id", None)) in _MUTABLE_CALLS
    return False


def _module_state() -> list[str]:
    """``module.name`` for each module-level binding of a mutable container."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _mutable_container(node.value):
                found.extend(f"{path.stem}.{name.id}" for target in targets
                             for name in ast.walk(target)
                             if isinstance(name, ast.Name))
    return found


def test_no_module_level_mutable_state():
    """A cache in a module outlives the structures it was filled from;
    derived data is kept by its owner (a structure, a family).  Every
    listed entry must still exist."""
    found = _module_state()
    unlisted = [n for n in found if n not in MODULE_STATE]
    stale = [n for n in MODULE_STATE if n not in found]
    assert not unlisted, "module-level mutable containers: " + ", ".join(unlisted)
    assert not stale, "stale MODULE_STATE entries: " + ", ".join(stale)


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
    for tree in _searched_trees():
        for node in ast.walk(tree):
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
