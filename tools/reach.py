"""The defs of a package that a run never enters, found with the standard library only.

    python3 tools/reach.py PACKAGE_DIR RUNNER.py:FUNCTION [ARG ...]

Installs a ``sys.setprofile`` hook that records the code object of every
Python call, loads RUNNER.py with its directory first on ``sys.path``, calls
FUNCTION(ARG, ...), and prints, one per line, each def that ``ast`` finds in
PACKAGE_DIR/*.py (methods and nested defs included) whose code the run never
entered, as ``module.py:Qualified.name``.  Exits 1 if it printed any, and
also, printing nothing, if the run raised.  The hook is in place before
RUNNER.py is loaded, so calls made at import count too; run it in a fresh
process, so that no cache filled by an earlier run hides a def.  The run's
own output to stdout is dropped.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from types import CodeType


def _defs(node: ast.AST, prefix: str) -> Iterator[str]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def package_defs(package: Path) -> list[str]:
    """Every def of the package's modules as ``module.py:qualified name``, in file and source order."""
    return [
        f"{module.name}:{name}"
        for module in sorted(package.glob("*.py"))
        for name in _defs(ast.parse(module.read_text(encoding="utf-8")), "")
    ]


def entered_during(run: Callable[[], None]) -> set[CodeType]:
    """The code objects of every Python function called while ``run`` runs."""
    codes: set[CodeType] = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return codes


def never_entered(package: Path, run: Callable[[], None]) -> list[str]:
    """The defs of ``package_defs`` that no call made while ``run`` runs enters."""
    package = package.resolve()
    entered = {
        f"{Path(code.co_filename).name}:{code.co_qualname}"
        for code in entered_during(run)
        if Path(code.co_filename).resolve().parent == package
    }
    return [name for name in package_defs(package) if name not in entered]


def _call(runner: str, function: str, args: list[str]) -> None:
    sys.path.insert(0, str(Path(runner).resolve().parent))  # as for a script: its own directory first
    spec = importlib.util.spec_from_file_location(Path(runner).stem, runner)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        getattr(module, function)(*args)


def main(argv: list[str] | None = None) -> int:
    package, target, *args = sys.argv[1:] if argv is None else argv
    runner, _, function = target.rpartition(":")
    unreached = never_entered(Path(package), lambda: _call(runner, function, args))
    for name in unreached:
        print(name)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
