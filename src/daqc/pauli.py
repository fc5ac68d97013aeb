"""Two-body Pauli Hamiltonians as sparse coupling vectors and interaction graphs.

A Hamiltonian of the form  sum_{i<j} sum_{mu,nu} h[i,j,mu,nu] s_i^mu s_j^nu
(s^mu the Pauli matrices, hbar = 1) is stored as a mapping from keys
``(i, j, mu, nu)`` to real coupling strengths.  Keys are kept in lexicographic
order on ``(i, j, mu, nu)`` with the axis ordering x < y < z, which fixes a
stable position for every coupling in the vectorized form.  Absent keys mean
a coupling of exactly zero; explicitly stored zeros are allowed and count as
part of the declared support.

A ``CouplingKey`` is valid by construction, so the containers check only
what a key cannot know: ``j < n_qubits`` and, for vectors, finite values.
Raw tuples handed to a container become ``CouplingKey``s on the way in.

The connectivity of a Hamiltonian is a weighted multigraph: one edge per key,
labeled by the axis pair, so a qubit pair may carry up to nine edges.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import SimulabilityError, ValidationError

AXES = ("x", "y", "z")

#: Significant digits used when printing coupling strengths; 17 digits
#: round-trip any IEEE double exactly.
FLOAT_DIGITS = 17


class _KeyFields(NamedTuple):
    i: int
    j: int
    mu: str
    nu: str


class CouplingKey(_KeyFields):
    """Identifier of one two-body term: qubits ``i < j`` and axes ``mu``, ``nu``.

    Every way of building one, ``_make`` and ``_replace`` included, checks
    integer indices with ``0 <= i < j`` and axes in ``AXES``.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, mu: str, nu: str) -> "CouplingKey":
        key = super().__new__(cls, i, j, mu, nu)
        if not (isinstance(i, int) and isinstance(j, int)):
            raise ValidationError(f"qubit indices must be integers, got {key}")
        if mu not in AXES or nu not in AXES:
            raise ValidationError(f"axes must be in {AXES}, got {key}")
        if not 0 <= i < j:
            raise ValidationError(f"key requires 0 <= i < j, got {key}")
        return key

    @classmethod
    def _make(cls, iterable: Iterable) -> "CouplingKey":
        return cls(*iterable)

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.mu},{self.nu})"


def _key_in_range(raw: tuple, n_qubits: int) -> CouplingKey:
    """``raw`` as a ``CouplingKey``, checked to address one of ``n_qubits`` qubits."""
    key = raw if isinstance(raw, CouplingKey) else CouplingKey(*raw)
    if key.j >= n_qubits:
        raise ValidationError(f"key {key} out of range for {n_qubits} qubits")
    return key


class CouplingVector:
    """Immutable sparse vector of two-body coupling strengths.

    Entries iterate in canonical (lexicographic) key order.  Lookups of
    absent keys return 0.0.
    """

    __slots__ = ("_n_qubits", "_entries")

    def __init__(self, n_qubits: int, entries: Mapping[CouplingKey, float] = {}):
        if not isinstance(n_qubits, int) or n_qubits < 1:
            raise ValidationError(f"n_qubits must be a positive integer, got {n_qubits!r}")
        cleaned: dict[CouplingKey, float] = {}
        for raw_key, raw_value in entries.items():
            key = _key_in_range(raw_key, n_qubits)
            value = float(raw_value)
            if not math.isfinite(value):
                raise ValidationError(f"coupling {key} has non-finite value {value!r}")
            cleaned[key] = value
        keys = list(cleaned)
        in_order = all(a < b for a, b in zip(keys, keys[1:]))
        self._n_qubits = n_qubits
        self._entries = cleaned if in_order else dict(sorted(cleaned.items()))

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    def keys(self) -> tuple[CouplingKey, ...]:
        """All declared keys in canonical order (including explicit zeros)."""
        return tuple(self._entries)

    def items(self) -> tuple[tuple[CouplingKey, float], ...]:
        return tuple(self._entries.items())

    def values_array(self) -> np.ndarray:
        """Declared values as a float array, in canonical key order."""
        return np.array(list(self._entries.values()), dtype=float)

    def support(self) -> tuple[CouplingKey, ...]:
        """Keys with a nonzero coupling, in canonical order."""
        return tuple(k for k, v in self._entries.items() if v != 0.0)

    def support_graph(self) -> "InteractionGraph":
        return InteractionGraph(self._n_qubits, self.support())

    def restricted(self, keys: Iterable[CouplingKey]) -> "CouplingVector":
        """Sub-vector declaring exactly the given keys (absent ones become 0)."""
        return CouplingVector(self._n_qubits, {k: self[k] for k in keys})

    def __getitem__(self, key: CouplingKey) -> float:
        return self._entries.get(key, 0.0)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CouplingKey]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingVector):
            return NotImplemented
        return self._n_qubits == other._n_qubits and self._entries == other._entries

    def __repr__(self) -> str:
        return f"CouplingVector(n_qubits={self._n_qubits}, entries={self._entries!r})"

    def _combined(self, other: "CouplingVector", sign: float, verb: str) -> "CouplingVector":
        if not isinstance(other, CouplingVector):
            return NotImplemented
        if other._n_qubits != self._n_qubits:
            raise ValidationError(f"cannot {verb} coupling vectors of different system sizes")
        merged = dict(self._entries)
        for key, value in other._entries.items():
            merged[key] = merged.get(key, 0.0) + sign * value
        return CouplingVector(self._n_qubits, merged)

    def __add__(self, other: "CouplingVector") -> "CouplingVector":
        return self._combined(other, 1.0, "add")

    def __sub__(self, other: "CouplingVector") -> "CouplingVector":
        return self._combined(other, -1.0, "subtract")

    # -- plain-text serialization ------------------------------------------

    def to_text(self) -> str:
        """Record format: header ``n_qubits=N`` then ``i j mu nu value`` lines."""
        lines = [f"n_qubits={self._n_qubits}"]
        for (i, j, mu, nu), value in self._entries.items():
            lines.append(f"{i} {j} {mu} {nu} {value:.{FLOAT_DIGITS}g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CouplingVector":
        n_qubits = None
        entries: dict[CouplingKey, float] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("n_qubits="):
                if n_qubits is not None:
                    raise ValidationError(f"line {lineno}: duplicate n_qubits header")
                try:
                    n_qubits = int(line.split("=", 1)[1])
                except ValueError as exc:
                    raise ValidationError(f"line {lineno}: bad n_qubits header {line!r}") from exc
                continue
            if n_qubits is None:
                raise ValidationError(f"line {lineno}: coupling before n_qubits header")
            parts = line.split()
            if len(parts) != 5:
                raise ValidationError(f"line {lineno}: expected 'i j mu nu value', got {line!r}")
            try:
                key = CouplingKey(int(parts[0]), int(parts[1]), parts[2], parts[3])
                value = float(parts[4])
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: cannot parse {line!r}: {exc}") from exc
            if key in entries:
                raise ValidationError(f"line {lineno}: duplicate coupling key {key}")
            entries[key] = value
        if n_qubits is None:
            raise ValidationError("missing n_qubits header")
        return cls(n_qubits, entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "CouplingVector":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


@dataclass(frozen=True)
class InteractionGraph:
    """Edge set of a coupling vector, viewed as a weighted multigraph support.

    Each key is one edge; parallel edges with different axis labels are
    distinct.  Degrees count edge endpoints, so every key incident to a
    vertex contributes 1.
    """

    n_qubits: int
    edges: frozenset[CouplingKey]

    def __init__(self, n_qubits: int, edges: Iterable[CouplingKey] = ()):
        if not isinstance(n_qubits, int) or n_qubits < 1:
            raise ValidationError(f"n_qubits must be a positive integer, got {n_qubits!r}")
        edge_set = frozenset(_key_in_range(e, n_qubits) for e in edges)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "edges", edge_set)

    @classmethod
    def from_declared(cls, vector: CouplingVector) -> "InteractionGraph":
        """Graph of every declared key, zeros included (defect-support reading)."""
        return cls(vector.n_qubits, vector.keys())

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[CouplingKey, ...]:
        return tuple(sorted(self.edges))

    def degree(self) -> int:
        """Maximum multigraph degree over all vertices (0 for an empty graph)."""
        counts = [0] * self.n_qubits
        for e in self.edges:
            counts[e.i] += 1
            counts[e.j] += 1
        return max(counts, default=0)


def is_zz_only(keys: Iterable[CouplingKey]) -> bool:
    """Whether every key couples Z to Z (true for no keys)."""
    return all(k.mu == "z" and k.nu == "z" for k in keys)


def vector_p_norm(vector: CouplingVector, p: float) -> float:
    """p-norm of the declared entries: (sum |v|^p)^(1/p).

    ``p=inf`` gives the maximum absolute entry; any other ``p`` must be
    finite and positive (0, nan and -inf are rejected).
    """
    values = np.abs(vector.values_array())
    if p == math.inf:
        return float(values.max()) if values.size else 0.0
    p = float(p)
    if not math.isfinite(p) or p <= 0:
        raise ValidationError(f"norm order must be positive or inf, got {p!r}")
    if not values.size:
        return 0.0
    if p == 1.0:
        return float(values.sum())
    if p == 2.0:
        # np.linalg.norm's sqrt(x . x) of x scaled by 2^-e, e the largest's exponent: exact, and no overflow
        e = math.frexp(values.max())[1]
        scaled = np.ldexp(values, -e)
        return math.ldexp(math.sqrt(scaled.dot(scaled)), e)
    # rescale for overflow safety on large p
    top = values.max()
    if top == 0.0:
        return 0.0
    return float(top * np.power(np.power(values / top, p).sum(), 1.0 / p))


def hadamard_divide(a: CouplingVector, b: CouplingVector) -> CouplingVector:
    """Elementwise division a/b over the declared keys of ``b``.

    Keys where both entries are zero are indeterminate (0/0) and left out,
    so they read as 0 and add nothing to any p-norm.  A nonzero numerator
    over a zero denominator raises: the target coupling would not be
    reachable from the source.
    """
    if a.n_qubits != b.n_qubits:
        raise ValidationError("hadamard division requires matching system sizes")
    for key in a.support():
        if b[key] == 0.0:
            raise SimulabilityError(f"nonzero coupling {key} divided by zero source coupling")
    return CouplingVector(a.n_qubits, {key: a[key] / den for key, den in b.items() if den != 0.0})


def graph_difference(d: InteractionGraph, s: InteractionGraph) -> InteractionGraph:
    """Edges of ``d`` that are not in ``s``; the vertex set is unchanged."""
    if d.n_qubits != s.n_qubits:
        raise ValidationError("graph difference requires matching system sizes")
    return InteractionGraph(d.n_qubits, d.edges - s.edges)
