"""Every public module-level name in ``src/qlogic`` has a caller there.

A definition that only tests call belongs in ``tests/``: this walks the
syntax trees of the package and fails on each public name (one not
starting with ``_``) that no other code in ``src/qlogic`` reads.  A read
counts when it is a bare name, through a ``from .module import`` alias
where there is one, and not shadowed by a local of the same name; a
definition reading itself does not count, and neither does an import,
so an export from ``__init__`` alone is no caller.

Two kinds of name are exempt: those the benchmark tracer wraps, read from
its tables as ``test_tracer_targets`` reads them, and the orders that the
proposition-poset checks are to call.
"""

from __future__ import annotations

import ast

from conftest import REPO, load_tracer

SRC = REPO / "src" / "qlogic"

tracer = load_tracer()
EXEMPT = {(m, a) for m, a, _ in tracer.FUNCTIONS} | {(m, c) for m, c, _, _ in tracer.METHODS}
EXEMPT |= {("models", "logical_leq"), ("models", "physical_leq"), ("bridge", "testable_proposition_poset")}

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


def unreferenced() -> list[tuple[str, str]]:
    """(module, name) of each public module-level name no other code reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
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


def test_every_public_name_in_src_has_a_caller_in_src():
    assert unreferenced() == []


def test_the_guard_sees_a_name_with_no_caller(tmp_path, monkeypatch):
    """Negative control: a copy of the package with one more function,
    called by nobody, fails the guard on that function alone."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "models.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef orphan(depth):\n    return depth and orphan(depth - 1)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreferenced() == [("models", "orphan")]
