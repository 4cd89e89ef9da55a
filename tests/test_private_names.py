"""Every module-level private name of the package is used inside the package.

A deletion that leaves a helper without callers fails here, so unreachable
code goes in the change that makes it so.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "minuexp"


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assignments named _x, not __x__."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Names read or deleted, and attributes accessed; an import alone is no use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_private_module_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert "structure.py" in trees
    used = set().union(*(_references(tree) for tree in trees.values()))
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert dead == []
