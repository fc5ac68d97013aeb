import ast
from pathlib import Path

import daqc

#: exported for the tests alone; none since the LP's brute-force oracle moved into tests/lp_oracle.py
TEST_ONLY_EXPORTS: set[str] = set()


def test_every_exported_name_exists():
    missing = [name for name in daqc.__all__ if not hasattr(daqc, name)]
    assert missing == []


def _names_read(tree: ast.AST) -> set[str]:
    """Names read as ``Name`` or ``Attribute`` nodes, outside the def or class of that name."""
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_every_exported_name_is_used_inside_the_package():
    """A public name that no module of the package reads is dead API.

    Docstrings and comments do not count: uses are read off the syntax tree.
    """
    package = Path(daqc.__file__).parent
    used: set[str] = set()
    for module in sorted(package.glob("*.py")):
        if module.name != "__init__.py":
            used |= _names_read(ast.parse(module.read_text(encoding="utf-8")))
    unused = sorted(set(daqc.__all__) - used - TEST_ONLY_EXPORTS)
    assert unused == []
