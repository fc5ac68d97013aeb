"""Readers that only the tests need: equality, entries and the coupling-file text of daqc values, and the README.

The package compares no ``CouplingVector``, ``PauliMasks`` or ``Schedule``
and writes no coupling file, so these types have no ``__eq__`` and vectors no
writer: ``==`` on them is identity.  Every test that compares them goes
through ``same``, so no assertion passes on identity alone.
"""

import re
from pathlib import Path

import numpy as np

from daqc.blocks import PauliMasks
from daqc.pauli import FLOAT_DIGITS, CouplingVector
from daqc.schedule import Schedule


def same(a, b) -> bool:
    """Whether two vectors, mask sets or schedules hold the same keys, bits and numbers."""
    if type(a) is not type(b):
        raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if isinstance(a, CouplingVector):
        return (a.n_qubits, a.keys()) == (b.n_qubits, b.keys()) and np.array_equal(a.values_array(), b.values_array())
    if isinstance(a, PauliMasks):
        return a.n_qubits == b.n_qubits and np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    if isinstance(a, Schedule):
        numbers = (a.n_qubits, a.times, a.target_time, a.mode)
        return numbers == (b.n_qubits, b.times, b.target_time, b.mode) and same(a.patterns, b.patterns)
    raise TypeError(f"no comparison for {type(a).__name__}")


def entries(vector: CouplingVector) -> dict:
    """Key to value, in canonical key order."""
    return dict(zip(vector.keys(), vector.values_array().tolist()))


def coupling_text(vector: CouplingVector) -> str:
    """The coupling-file text ``CouplingVector.from_text`` reads, values at 17 significant digits."""
    lines = [f"n_qubits={vector.n_qubits}"]
    lines += [f"{i} {j} {mu} {nu} {value:.{FLOAT_DIGITS}g}" for (i, j, mu, nu), value in entries(vector).items()]
    return "\n".join(lines) + "\n"


def write_couplings(vector: CouplingVector, path) -> None:
    path.write_text(coupling_text(vector), encoding="ascii")


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_blocks(language: str) -> list[str]:
    """The README's fenced code blocks in ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def readme_cli_example() -> tuple[str, dict[str, str]]:
    """The README's shell block that writes the input files, and those files' names and texts."""
    (block,) = [block for block in readme_blocks("sh") if "<<EOF" in block]
    return block, dict(re.findall(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", block, flags=re.M | re.S))
