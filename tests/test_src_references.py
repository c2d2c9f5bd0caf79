"""Every public name in ``src/qlogic`` has a reader there, and no check
there is an ``assert``.

A definition that only tests call belongs in ``tests/``: this walks the
syntax trees of the package and fails on each public name (one not
starting with ``_``) that no other code in ``src/qlogic`` reads.  A read
counts when it is a bare name, through a ``from .module import`` alias
where there is one, and not shadowed by a local of the same name; a
definition reading itself does not count, and neither does an import,
so an export from ``__init__`` alone is no caller.

Members of public classes (methods, properties, class-level fields and
the attributes a method stores as ``self.<name> = ...``) are matched by
name alone: one counts as read when some ``src/qlogic`` code loads an
attribute of that name from any object.  So a member whose name another
class also uses and reads is not seen; a ``Model.universe_size`` method
would pass because ``QMModelSpec.universe_size`` is read.

Exempt are the names the benchmark tracer wraps, read from its tables
as ``test_tracer_targets`` reads them, with the GaussianRational methods
it counts; the orders that the proposition-poset checks are to call; the
fields of the poset those checks are to read; and
``FormulaSyntaxError.position``, the documented offset of a syntax error,
which the README and the tests read.

``python -O`` strips ``assert`` statements and sets ``__debug__`` false,
so a check written with either would vanish under it: the package must
use neither.
"""

from __future__ import annotations

import ast
import dataclasses

from qlogic.propositions import PropositionPoset

from conftest import REPO, load_tracer

SRC = REPO / "src" / "qlogic"

tracer = load_tracer()
EXEMPT = {(m, a) for m, a, _ in tracer.FUNCTIONS} | {(m, c) for m, c, _, _ in tracer.METHODS}
EXEMPT |= {("models", "logical_leq"), ("models", "physical_leq"), ("bridge", "testable_proposition_poset")}
EXEMPT_MEMBERS = {(c, m) for _, c, m, _ in tracer.METHODS}
EXEMPT_MEMBERS |= {("GaussianRational", m) for m in tracer.GAUSSIAN_METHODS}
EXEMPT_MEMBERS |= {("PropositionPoset", f.name) for f in dataclasses.fields(PropositionPoset)}
EXEMPT_MEMBERS |= {("FormulaSyntaxError", "position")}  # the error API: 1-based offset of the fault

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _locals(scope) -> set[str]:
    """What a function binds itself: its parameters and the names it
    stores, leaving out nested functions and imports (an import's alias is
    resolved to the name it imports)."""
    args = scope.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    declared: set[str] = set()
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _reads(node: ast.AST, shadowed: frozenset = frozenset()):
    """Each name the node reads that no enclosing function binds."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _locals(node)
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) and node.id not in shadowed:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, shadowed)


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def unreferenced() -> list[tuple[str, str]]:
    """(module, name) of each public module-level name no other code reads."""
    trees = _trees()
    public, read = [], set()
    for module, tree in trees.items():
        aliases = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        top = {name for stmt in tree.body for name in _defined(stmt)}
        for stmt in tree.body:
            own = _defined(stmt)
            public += [(module, name) for name in own if not name.startswith("_")]
            for name in _reads(stmt):
                if name in top:
                    if name not in own:
                        read.add((module, name))
                elif name in aliases:
                    read.add(aliases[name])
    return [key for key in public if key not in read and key not in EXEMPT]


def _stored_on_self(cls: ast.ClassDef) -> list[str]:
    """The attributes the methods of a class store as ``self.<name> = ...``."""
    return [
        node.attr
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and method.args.args
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == method.args.args[0].arg
    ]


def unread_members() -> list[tuple[str, str]]:
    """(class, member) of each public member of a public class whose name
    no code loads as an attribute."""
    trees = _trees().values()
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for tree in trees:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                names = [name for stmt in cls.body for name in _defined(stmt)] + _stored_on_self(cls)
                unread += [
                    (cls.name, name)
                    for name in names
                    if not name.startswith("_") and name not in read
                    and (cls.name, name) not in EXEMPT_MEMBERS
                ]
    return unread


def debug_only_checks() -> list[tuple[str, int]]:
    """(module, line) of each ``assert`` statement and ``__debug__`` name."""
    return [
        (module, node.lineno)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]


def test_every_public_name_in_src_has_a_caller_in_src():
    assert unreferenced() == []


def test_every_public_member_in_src_has_a_reader_in_src():
    assert unread_members() == []


def test_src_has_no_check_that_python_O_strips():
    assert debug_only_checks() == []


def _copy_of_src(tmp_path, monkeypatch, module: str, edit) -> None:
    """Point the guards at a copy of the package with one module's source
    passed through ``edit``."""
    for path in SRC.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        (tmp_path / path.name).write_text(edit(source) if path.stem == module else source, encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", tmp_path)


def test_the_guard_sees_a_name_with_no_caller(tmp_path, monkeypatch):
    """Negative control: a copy of the package with one more function,
    called by nobody, fails the guard on that function alone."""
    orphan = "\n\ndef orphan(depth):\n    return depth and orphan(depth - 1)\n"
    _copy_of_src(tmp_path, monkeypatch, "models", lambda source: source + orphan)
    assert unreferenced() == [("models", "orphan")]


def test_the_guard_sees_a_member_with_no_reader(tmp_path, monkeypatch):
    """Negative control: a copy of the package with one more method on
    Model, read by nobody, fails the guard on that method alone."""
    anchor = "    def property_names(self)"
    method = "    def orphans(self):\n        return self.predicates\n\n"
    _copy_of_src(tmp_path, monkeypatch, "models", lambda source: source.replace(anchor, method + anchor))
    assert unread_members() == [("Model", "orphans")]


def test_the_guard_sees_an_attribute_stored_on_self_with_no_reader(tmp_path, monkeypatch):
    """Negative control: a copy of the package whose ClosureOverflow also
    stores an attribute no code reads fails the guard on it alone."""
    anchor = "        self.generators = tuple(generators)\n"
    store = "        self.attempts = len(self.generators)\n"
    _copy_of_src(tmp_path, monkeypatch, "errors", lambda source: source.replace(anchor, anchor + store))
    assert unread_members() == [("ClosureOverflow", "attempts")]


def test_the_guard_sees_an_assert(tmp_path, monkeypatch):
    """Negative control: a copy of the package with one more function that
    checks under ``__debug__`` with an assert fails the guard on those two
    lines alone."""
    lines = len((SRC / "lattice.py").read_text(encoding="utf-8").splitlines())
    sized = "\n\ndef _sized(lat):\n    if __debug__:\n        assert len(lat) >= 2\n"
    _copy_of_src(tmp_path, monkeypatch, "lattice", lambda source: source + sized)
    assert debug_only_checks() == [("lattice", lines + 4), ("lattice", lines + 5)]
