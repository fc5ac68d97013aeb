"""Two-body Pauli Hamiltonians as sparse coupling vectors, and edge sets as key tuples.

A Hamiltonian of the form  sum_{i<j} sum_{mu,nu} h[i,j,mu,nu] s_i^mu s_j^nu
(s^mu the Pauli matrices, hbar = 1) is stored as a mapping from keys
``(i, j, mu, nu)`` to real coupling strengths.  Keys are kept in lexicographic
order on ``(i, j, mu, nu)`` with the axis ordering x < y < z, which fixes a
stable position for every coupling in the vectorized form.  Absent keys mean
a coupling of exactly zero; explicitly stored zeros are allowed and count as
part of the declared support.

A ``CouplingKey`` is valid by construction, so the containers check only
what a key cannot know: ``j < n_qubits`` and, for vectors, finite values.
``CouplingVector``'s constructor takes raw tuples too and makes
``CouplingKey``s of them.  A vector stores its canonical key tuple and a
read-only value array.  Vectors derived inside the package go through
``from_sorted``, which rebuilds no key: it checks their order and range in
one pass and every value for finiteness.  A sum or difference on an
operand's own keys checks only its values.

The connectivity of a Hamiltonian is a weighted multigraph: one edge per key,
labeled by the axis pair, so a qubit pair may carry up to nine edges.  Every
edge set, the declared defect support included, is a canonical key tuple:
``CouplingKey``s in strictly increasing canonical order, as ``keys()`` and
``support()`` return them.  A public function that takes one checks it once
with ``_check_sorted``, which rejects anything else, and ``max_degree`` reads
its largest vertex degree.
"""

import math
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import SimulabilityError, ValidationError

AXES = ("x", "y", "z")

#: Significant digits of every float the package writes (schedule times, CSV
#: cells); 17 digits round-trip any IEEE double exactly.
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


def _check_sorted(keys: tuple[CouplingKey, ...], n_qubits: int) -> None:
    """Raise unless ``keys`` is a tuple of ``CouplingKey``s in strictly increasing canonical order on ``n_qubits``."""
    if not isinstance(n_qubits, int) or n_qubits < 1:
        raise ValidationError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    if type(keys) is not tuple:
        raise ValidationError(f"coupling keys must come as a tuple, got {type(keys).__name__}")
    before = None
    for key in keys:
        if type(key) is not CouplingKey:
            raise ValidationError(f"{key!r} is not a CouplingKey")
        if key.j >= n_qubits:
            raise ValidationError(f"key {key} out of range for {n_qubits} qubits")
        if before is not None and not before < key:
            raise ValidationError(f"key {key} repeats or precedes {before} in canonical order")
        before = key


class CouplingVector:
    """Immutable sparse vector of two-body coupling strengths.

    Entries iterate in canonical (lexicographic) key order.  Lookups of
    absent keys return 0.0.
    """

    __slots__ = ("_n_qubits", "_keys", "_values", "_lookup")

    def __init__(self, n_qubits: int, entries: Mapping[CouplingKey, float] = {}):
        cleaned = {CouplingKey(*key): float(value) for key, value in entries.items()}
        keys = tuple(sorted(cleaned))
        _check_sorted(keys, n_qubits)
        self._set(n_qubits, keys, np.array([cleaned[key] for key in keys], dtype=float))

    @classmethod
    def from_sorted(cls, n_qubits: int, keys: tuple[CouplingKey, ...], values) -> "CouplingVector":
        """Vector of ``values`` on ``CouplingKey``s already in strictly increasing canonical order.

        For a key tuple read off a checked vector or edge set: its order and
        range are checked in one pass, and every value for finiteness, but no
        key is rebuilt.
        """
        _check_sorted(keys, n_qubits)
        return cls.__new__(cls)._set(n_qubits, keys, np.array(values, dtype=float))

    def _set(self, n_qubits: int, keys: tuple[CouplingKey, ...], values: np.ndarray) -> "CouplingVector":
        if values.shape != (len(keys),):
            raise ValidationError(f"{values.shape} values for {len(keys)} coupling keys")
        if not all(map(math.isfinite, values.tolist())):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(f"coupling {keys[bad]} has non-finite value {float(values[bad])!r}")
        values.setflags(write=False)
        self._n_qubits = n_qubits
        self._keys = keys
        self._values = values
        self._lookup = None
        return self

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    def keys(self) -> tuple[CouplingKey, ...]:
        """All declared keys in canonical order (including explicit zeros)."""
        return self._keys

    def values_array(self) -> np.ndarray:
        """Declared values as a read-only float array, in canonical key order."""
        return self._values

    def values_at(self, keys: tuple[CouplingKey, ...]) -> np.ndarray:
        """The value at each of ``keys``, 0.0 where absent, as ``__getitem__`` reads them."""
        if keys == self._keys:
            return self._values
        lookup = self._lookup_table()
        return np.array([lookup.get(key, 0.0) for key in keys], dtype=float)

    def support(self) -> tuple[CouplingKey, ...]:
        """Keys with a nonzero coupling, in canonical order."""
        return tuple(compress(self._keys, (self._values != 0.0).tolist()))

    def restricted(self, keys: Iterable[CouplingKey]) -> "CouplingVector":
        """Sub-vector declaring exactly the given keys (absent ones become 0)."""
        return CouplingVector(self._n_qubits, {k: self[k] for k in keys})

    def _lookup_table(self) -> dict[CouplingKey, float]:
        if self._lookup is None:
            self._lookup = dict(zip(self._keys, self._values.tolist()))
        return self._lookup

    def __getitem__(self, key: CouplingKey) -> float:
        return self._lookup_table().get(key, 0.0)

    def __iter__(self) -> Iterator[CouplingKey]:
        return iter(self._keys)

    def _combined(self, other: "CouplingVector", sign: float, verb: str) -> "CouplingVector":
        if not isinstance(other, CouplingVector):
            return NotImplemented
        if other._n_qubits != self._n_qubits:
            raise ValidationError(f"cannot {verb} coupling vectors of different system sizes")
        if self._keys == other._keys:
            keys, values = self._keys, self._values + sign * other._values  # keys checked when built
        else:
            # usually the longer key tuple, checked when built, holds the shorter;
            # a key of one side only keeps its value, or gets 0.0 + sign * value
            shorter, keys = sorted((self._keys, other._keys), key=len)
            position = dict(zip(keys, range(len(keys))))
            if not all(map(position.__contains__, shorter)):
                keys = tuple(sorted({*keys, *shorter}))
                _check_sorted(keys, self._n_qubits)
                position = dict(zip(keys, range(len(keys))))
            values = np.zeros(len(keys))
            values[[position[key] for key in self._keys]] = self._values
            values[[position[key] for key in other._keys]] += sign * other._values
        return CouplingVector.__new__(CouplingVector)._set(self._n_qubits, keys, values)

    def __add__(self, other: "CouplingVector") -> "CouplingVector":
        return self._combined(other, 1.0, "add")

    def __sub__(self, other: "CouplingVector") -> "CouplingVector":
        return self._combined(other, -1.0, "subtract")

    # -- plain-text reading --------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "CouplingVector":
        """Record format (``_read_line_records``): header ``n_qubits=N``, then ``i j mu nu value`` lines."""
        entries: dict[CouplingKey, float] = {}

        def coupling(n_qubits: int, i: str, j: str, mu: str, nu: str, value: str) -> None:
            key, value = CouplingKey(int(i), int(j), mu, nu), float(value)
            cls.from_sorted(n_qubits, (key,), [value])  # a one-entry vector: range and finiteness, at this line
            if key in entries:
                raise ValidationError(f"duplicate coupling key {key}")
            entries[key] = value

        header = _read_line_records(text, {}, "i j mu nu value", "coupling", coupling)
        return cls(header["n_qubits"], entries)

    @classmethod
    def load(cls, path) -> "CouplingVector":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _read_line_records(text: str, header_parsers: Mapping[str, Callable[[str], object]], shape: str, noun: str,
                       record: Callable[..., None]) -> dict[str, object]:
    """Read a line-record file: the ``key=value`` headers, returned, then ``record(n_qubits, *fields)`` per record.

    Blank and ``#`` lines are skipped.  The headers, ``n_qubits`` (a positive
    integer) and then ``header_parsers``' keys, each read by its parser, come
    once and before any record.  A record is the whitespace-split fields of
    ``shape``.  Every ``ValueError`` a line raises comes out naming the line.
    """
    parsers = {"n_qubits": int, **header_parsers}
    expected = " or ".join(", ".join(parsers).rsplit(", ", 1))  # "n_qubits, T or mode"
    header: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, is_header, value = line.partition("=")
        try:
            if is_header:
                if key not in parsers:
                    raise ValidationError(f"unknown header {key!r}, expected {expected}")
                if key in header:
                    raise ValidationError(f"duplicate {key} header")
                header[key] = parsers[key](value)
                if key == "n_qubits" and header[key] < 1:
                    raise ValidationError(f"n_qubits must be a positive integer, got {header[key]}")
                continue
            if missing := [name for name in parsers if name not in header]:
                raise ValidationError(f"{noun} before {missing[0]} header")
            fields = line.split()
            if len(fields) != len(shape.split()):
                raise ValidationError(f"expected {shape!r}, got {line!r}")
            record(header["n_qubits"], *fields)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:  # int() or float() refused a field
            what = f"bad {key} header {line!r}" if is_header else f"cannot parse {line!r}: {exc}"
            raise ValidationError(f"line {lineno}: {what}") from exc
    if missing := [name for name in parsers if name not in header]:
        raise ValidationError(f"missing {missing[0]} header")
    return header


def max_degree(keys: Iterable[CouplingKey], n_qubits: int) -> int:
    """Maximum multigraph degree of the edges ``keys`` on ``n_qubits`` vertices: each key adds 1 at i and at j."""
    counts = [0] * n_qubits
    for key in keys:
        counts[key.i] += 1
        counts[key.j] += 1
    return max(counts, default=0)


def is_zz_only(keys: Iterable[CouplingKey]) -> bool:
    """Whether every key couples Z to Z (true for no keys)."""
    return all(k.mu == "z" and k.nu == "z" for k in keys)


def vector_p_norm(vector: CouplingVector, p: float) -> float:
    """p-norm of the declared entries: (sum |v|^p)^(1/p).

    ``p=inf`` gives the maximum absolute entry; any other ``p`` must be
    finite and at least 1, where the triangle inequality holds (nan and -inf are rejected).
    """
    values = np.abs(vector.values_array())
    if p == math.inf:
        return float(values.max()) if values.size else 0.0
    p = float(p)
    if not 1 <= p < math.inf:
        raise ValidationError(f"norm order must be at least 1 or inf, got {p!r}")
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
    numerators = a.values_at(b.keys())
    denominators = b.values_array()
    kept = denominators != 0.0
    # every nonzero of a must land on a nonzero denominator
    if np.count_nonzero(numerators[kept]) != np.count_nonzero(a.values_array()):
        key = next(key for key in a.support() if b[key] == 0.0)
        raise SimulabilityError(f"nonzero coupling {key} divided by zero source coupling")
    keys = tuple(compress(b.keys(), kept.tolist()))
    return CouplingVector.from_sorted(a.n_qubits, keys, numerators[kept] / denominators[kept])
