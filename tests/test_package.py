import ast
from pathlib import Path

import daqc

PACKAGE = Path(daqc.__file__).parent


def _public_names(tree: ast.Module) -> set[str]:
    """Module-level defs, classes and assigned names that do not start with ``_``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


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


def test_every_public_name_is_used_inside_the_package():
    """A public module-level name that no module of the package reads is dead API.

    Every module's defs, classes and assignments count, with no exception;
    docstrings and comments do not count as uses: uses are read off the
    syntax tree.
    """
    public: dict[str, str] = {}
    used: set[str] = set()
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        public.update(dict.fromkeys(_public_names(tree), module.name))
        used |= _names_read(tree)
    assert public, "no public names found"
    unused = sorted(f"{public[name]}:{name}" for name in set(public) - used)
    assert unused == []
