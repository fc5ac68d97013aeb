"""Single-qubit-gate block patterns and the resulting coupling sign matrix.

Sandwiching an analog evolution between layers of Pauli gates conjugates the
interaction Hamiltonian, which can only flip the sign of each two-body term.
Every Pauli string, be it a gate layer (pattern), a two-body term or an
observable, is a pair of bit masks (x, z), packed by ``PauliMasks`` in one
layout for every size; letters exist only in text, read by ``from_text``
and written by ``to_text``.  A term (tx, tz) under a layer (x, z) picks up
the sign (-1)^popcount((x & tz) ^ (z & tx)) (Dehaene & De Moor 2003;
Aaronson & Gottesman 2004).  ``sign_weights`` sums those signs over a
schedule, w_alpha = sum_k t_k s_alpha(P_k): the schedule implements
w_alpha h_alpha / T on coupling alpha.  Every sign in the package comes from
that parity, ``_symplectic_signs``; the dense replay conjugates by each gate
layer's index flip and phase instead, independently of it.  Up to N = 9 the
signs of every ZZ pair under every IX layer are kept per N, read-only, and
ZZ rows under z-free layers gather them.  ``canonical_patterns`` lists a
whole pattern space without a seed; the seeded stream only samples part of it.
"""

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .pauli import AXES, CouplingKey, _check_sorted, is_zz_only

GATES = "IXYZ"

#: when the pattern space is at most this big, the LP sees every pattern;
#: beyond it, candidates start at 2*|defect edges|+1 and double on infeasibility
EXHAUSTIVE_PATTERN_LIMIT = 512


def check_pattern(label: str, n_qubits: int) -> str:
    """``label``, checked to be a string of ``n_qubits`` letters over ``GATES``."""
    if not (isinstance(label, str) and label and set(label) <= set(GATES)):
        raise ValidationError(f"pattern must be a nonempty string over {GATES}, got {label!r}")
    if len(label) != n_qubits:
        raise ValidationError(f"pattern {label!r} has length {len(label)}, expected {n_qubits}")
    return label


@dataclass(frozen=True, eq=False)
class PauliMasks:
    """Pauli strings as rows of packed uint8 bit masks ``x`` and ``z``, shape (count, ceil(n_qubits / 8)).

    Qubit 0 is the top bit of the first byte (``np.packbits``), the order in which ``dense`` indexes basis states."""

    n_qubits: int
    x: np.ndarray
    z: np.ndarray

    @classmethod
    def _from_gates(cls, gates: np.ndarray) -> "PauliMasks":
        """Rows of indices into ``GATES``; the table holds the x bit (top row) and the z bit of I, X, Y, Z."""
        x, z = np.packbits(np.take(np.array([[0, 1, 1, 0], [0, 0, 1, 1]], dtype=bool), gates, axis=1), axis=-1)
        return cls(gates.shape[1], x, z)

    @classmethod
    def from_text(cls, labels: Sequence[str], n_qubits: int | None = None) -> "PauliMasks":
        """Strings over ``GATES``, qubit 0 leftmost, each ``n_qubits`` long (default: the first's length)."""
        n = len(labels[0]) if n_qubits is None and isinstance(labels[0], str) else n_qubits
        for label in labels:
            check_pattern(label, n)
        gates = np.array([[GATES.index(gate) for gate in label] for label in labels], dtype=np.uint8)
        return cls._from_gates(gates.reshape(len(labels), n))

    @classmethod
    def from_axes(cls, shape: tuple[int, int], rows, qubits, axes: Sequence[str]) -> "PauliMasks":
        """(count, n_qubits) strings, axis ``axes[k]`` on qubit ``qubits[k]`` of row ``rows[k]``, else I."""
        gates = np.zeros(shape, dtype=np.uint8)
        gates[rows, np.asarray(qubits, dtype=np.intp)] = [1 + AXES.index(a) for a in axes]  # X, Y, Z follow I
        return cls._from_gates(gates)

    def to_text(self) -> list[str]:
        x = np.unpackbits(self.x, axis=-1, count=self.n_qubits)
        z = np.unpackbits(self.z, axis=-1, count=self.n_qubits)
        letters = np.array(list(GATES))[np.where(z, 3 - x, x)]  # the inverse of _from_gates
        return ["".join(row) for row in letters]

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, rows) -> "PauliMasks":
        width = self.x.shape[1]
        return PauliMasks(self.n_qubits, self.x[rows].reshape(-1, width), self.z[rows].reshape(-1, width))


def term_masks(keys: Sequence[CouplingKey], n_qubits: int) -> PauliMasks:
    """The two-body Pauli string of each coupling key, read off its bits: x unless the axis is z, z unless it is x.

    Qubit q is bit ``8 * width - 1 - q`` of a big-endian row of ``width`` bytes, the ``np.packbits`` layout."""
    width = -(-n_qubits // 8)
    top = 8 * width - 1
    x, z = bytearray(), bytearray()
    for i, j, mu, nu in keys:
        x += ((mu != "z") << top - i | (nu != "z") << top - j).to_bytes(width, "big")
        z += ((mu != "x") << top - i | (nu != "x") << top - j).to_bytes(width, "big")
    return PauliMasks(n_qubits, *(np.frombuffer(bits, np.uint8).reshape(-1, width) for bits in (x, z)))


def _symplectic_signs(terms: PauliMasks, layers: PauliMasks) -> np.ndarray:
    """int8 (-1)^popcount((x & tz) ^ (z & tx)), one row per term and one column per layer.

    Byte b of every (term, layer) pair is xor-ed into one (terms, layers) uint8 array, one b at a time:
    its parity is that of the whole row, so the bits are counted once."""
    acc = np.zeros((len(terms), len(layers)), dtype=np.uint8)
    for b in range(terms.x.shape[1]):
        acc ^= (terms.x[:, b, None] & layers.z[:, b]) ^ (terms.z[:, b, None] & layers.x[:, b])
    return np.array([1, -1], dtype=np.int8)[np.bitwise_count(acc) & 1]


@functools.cache
def _ix_masks(n_qubits: int) -> np.ndarray:
    """Read-only packed x masks of 0..2^N-1: k's big-endian bytes, qubit 0 its top bit, cut to the packed width."""
    width = -(-n_qubits // 8)
    words = np.arange(2**n_qubits, dtype=np.uint64) << np.uint64(8 * width - n_qubits)
    masks = np.ascontiguousarray(words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width :])
    masks.setflags(write=False)
    return masks


@functools.cache
def _zz_signs(n_qubits: int) -> np.ndarray:
    """Read-only int8 signs of ZZ pair (i, j), row i (2N - i - 1) / 2 + j - i - 1, under the IX layer of k, column k."""
    pairs = [CouplingKey(i, j, "z", "z") for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    x = _ix_masks(n_qubits)
    signs = _symplectic_signs(term_masks(pairs, n_qubits), PauliMasks(n_qubits, x, np.zeros_like(x)))
    signs.setflags(write=False)
    return signs


def basis_indices(bits: np.ndarray, n_qubits: int) -> np.ndarray:
    """Each row of packed masks ``bits`` as the integer with qubit q at bit N - 1 - q (at most 16 qubits).

    The x mask of the IX layer of k reads as k, and a string's masks as the basis-index masks of ``dense``."""
    width = bits.shape[1]
    return np.ascontiguousarray(bits).view(f">u{width}")[:, 0] >> 8 * width - n_qubits


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Dense +/-1 matrix: rows are coupling keys, columns are gate patterns."""

    entries: np.ndarray  # shape (len(rows), len(patterns)), values in {+1, -1}


def build_sign_matrix(patterns: PauliMasks, rows: Sequence[CouplingKey]) -> SignMatrix:
    """Entry-complete sign matrix; a repeated pattern (a schedule's text may list one twice) repeats its column."""
    if not rows:
        raise ValidationError("at least one coupling row is required")
    top = max(k.j for k in rows)
    if top >= patterns.n_qubits:
        raise ValidationError(f"rows up to qubit {top} exceed the {patterns.n_qubits}-qubit patterns")
    n = patterns.n_qubits
    pairs = [i * (2 * n - i - 1) // 2 + j - i - 1 for i, j, mu, nu in rows if mu == nu == "z"]
    if len(pairs) == len(rows) and 2**n <= EXHAUSTIVE_PATTERN_LIMIT and not patterns.z.any():
        entries = _zz_signs(n).take(pairs, 0).take(basis_indices(patterns.x, n), 1)
    else:
        entries = _symplectic_signs(term_masks(rows, n), patterns)
    entries.setflags(write=False)
    return SignMatrix(entries)


def sign_weights(patterns: PauliMasks, times: Sequence[float], keys: Sequence[CouplingKey]) -> np.ndarray:
    """Time-weighted sign sums w_alpha = sum_k t_k * s_alpha(P_k), one per key.

    The blocks are added left to right, in schedule order, onto 0.0: one
    ``np.cumsum`` along the blocks behind a zero column, so every weight is
    bit-identical to the sequential per-key sum, signed zeros included; a
    matrix-vector product would reorder the additions.  An empty schedule or
    key list gives zeros.
    """
    if len(times) != len(patterns):
        raise ValidationError("patterns and times must have equal length")
    if not len(patterns) or not keys:
        return np.zeros(len(keys))
    terms = np.zeros((len(keys), len(times) + 1))
    terms[:, 1:] = build_sign_matrix(patterns, keys).entries * np.asarray(times, dtype=float)
    return np.cumsum(terms, axis=1)[:, -1]


def pattern_alphabet(support: Sequence[CouplingKey]) -> str:
    """Per-qubit gate alphabet needed to flip signs on the given support; only its axes are read.

    ZZ-only supports need only ``IX`` (an X on either endpoint flips a ZZ
    term); anything with other axes gets the full Pauli alphabet.
    """
    if is_zz_only(support):
        return "IX"
    return GATES


def pattern_space_size(n_qubits: int, support: tuple[CouplingKey, ...]) -> int:
    """How many patterns on ``n_qubits`` qubits flip signs on ``support``, a canonical key tuple."""
    _check_sorted(support, n_qubits)
    return len(pattern_alphabet(support)) ** n_qubits


def canonical_patterns(n_qubits: int, alphabet: str) -> PauliMasks:
    """The space over ``alphabet`` (``pattern_alphabet``) in digit order, the identity first; reads no seed.

    Over ``IX`` only the masks of 0..2^(N-1)-1, qubit 0 unflipped: one
    pattern of each global X flip pair, whose ZZ signs agree."""
    if alphabet == "IX":
        x = _ix_masks(n_qubits)[: 2 ** (n_qubits - 1)]
        return PauliMasks(n_qubits, x, np.zeros_like(x))
    return PauliMasks._from_gates(np.arange(4**n_qubits)[:, None] // 4 ** np.arange(n_qubits - 1, -1, -1) % 4)


def generate_candidate_patterns(n_qubits: int, support: tuple[CouplingKey, ...], requested: int,
                                rng_seed: int) -> PauliMasks:
    """A seeded, duplicate-free part of the pattern space of ``support``, a canonical key tuple, the identity first.

    The ``rng.integers`` rows follow the identity, deduplicated in
    first-occurrence order, so a larger request extends a smaller one (prefix
    property).  No row is ever one integer, which would overflow at 4^32
    patterns.  ``canonical_patterns`` lists the whole space.
    """
    _check_sorted(support, n_qubits)
    if requested < 1:
        raise ValidationError(f"requested must be >= 1, got {requested}")
    alphabet = pattern_alphabet(support)
    base = len(alphabet)
    total = base**n_qubits
    if requested >= total:
        raise ValidationError(f"requested must be below {total}, all of {alphabet!r}^{n_qubits}, got {requested}")
    rng = np.random.default_rng(rng_seed)
    gates = np.zeros((1, n_qubits), dtype=np.int64)  # the identity
    while len(first := np.unique(gates, axis=0, return_index=True)[1]) < requested:
        gates = np.concatenate([gates, rng.integers(0, base, size=(max(64, requested), n_qubits))])
    # both alphabets begin GATES, so a digit is a gate index
    return PauliMasks._from_gates(gates[np.sort(first)[:requested]])
