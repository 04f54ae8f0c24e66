"""Every module-level function and class in the package has a reader.

A definition counts as used when its name is read (as a name or as an
attribute) somewhere in ``src/``, ``perfbench/`` or ``scripts/`` outside
the definition itself.  Tests do not count: code that only a test calls
belongs in the test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grainforge"
READERS = ("src", "perfbench", "scripts")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_module_level_definition_is_read_outside_itself():
    # (file, index of the top-level statement) -> the names that statement reads
    reads = {}
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for i, stmt in enumerate(tree.body):
                reads[path, i] = names_read(stmt)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, DEFINITIONS):
                continue
            if not any(stmt.name in names for key, names in reads.items() if key != (path, i)):
                unused.append(f"{path.name}: {stmt.name}")
    assert unused == []
