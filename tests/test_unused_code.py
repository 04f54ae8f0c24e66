"""Every module-level function, class and assigned name, and every class method, has a reader.

A definition counts as used when its name is read (as a name or as an
attribute) somewhere in ``src/``, ``perfbench/`` or ``scripts/`` outside
the definition itself: outside the whole class for a class, outside the
method for a method, outside the assignment statement for a module-level
constant or alias.  Dunder methods and names are exempt, since Python and
its packaging tools read them.
Tests do not count: code that only a test calls belongs in the test.
Every parameter of every function in ``src/grainforge``, nested ones
included, is read in that function's body, unless its name starts with
``_``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grainforge"
READERS = ("src", "perfbench", "scripts")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


def names_read(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def parts(stmt: ast.stmt) -> list[tuple[int | None, ast.AST]]:
    """(index in the class body or None, node) pairs; only a class splits into several."""
    if not isinstance(stmt, ast.ClassDef):
        return [(None, stmt)]
    header = stmt.bases + stmt.keywords + stmt.decorator_list
    return [(None, node) for node in header] + list(enumerate(stmt.body))


def assigned_names(stmt: ast.stmt) -> list[str]:
    """The non-dunder names a module-level assignment binds, unpacked targets included."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and not sub.id.startswith("__")
    ]


def test_every_module_level_definition_is_read_outside_itself():
    # (file, top-level index, class-body index) -> the names that part reads
    reads = {}
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for i, stmt in enumerate(tree.body):
                for j, node in parts(stmt):
                    reads.setdefault((path, i, j), set()).update(names_read(node))
    unused = []

    def read_outside(name, own):
        return any(name in names for key, names in reads.items() if not own(key))

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for i, stmt in enumerate(tree.body):
            names = assigned_names(stmt) if isinstance(stmt, ASSIGNMENTS) else []
            if isinstance(stmt, DEFINITIONS):
                names.append(stmt.name)
            for name in names:
                if not read_outside(name, lambda key: key[:2] == (path, i)):
                    unused.append(f"{path.name}: {name}")
            methods = enumerate(stmt.body) if isinstance(stmt, ast.ClassDef) else ()
            for j, method in methods:
                if not isinstance(method, METHODS) or method.name.startswith("__"):
                    continue
                if not read_outside(method.name, lambda key: key == (path, i, j)):
                    unused.append(f"{path.name}: {stmt.name}.{method.name}")
    assert unused == []


def test_every_parameter_is_read_in_its_function():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (*METHODS, ast.Lambda)):
                continue
            args = func.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            name = getattr(func, "name", "<lambda>")
            unread += [
                f"{path.name}: {name}({param.arg})"
                for param in params
                if param.arg not in read and not param.arg.startswith("_")
            ]
    assert unread == []
