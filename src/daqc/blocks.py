"""Single-qubit-gate block patterns and the resulting coupling sign matrix.

Sandwiching an analog evolution between layers of Pauli gates conjugates the
interaction Hamiltonian, which can only flip the sign of each two-body term:
g s^a g' = +/- s^a for g a Pauli or the identity.  A pattern is a string over
``IXYZ`` with one gate per qubit; the sign matrix collects the sign picked up
by every coupling under every pattern.  ``sign_weights`` turns it into the
time-weighted sign sum of a schedule, w_alpha = sum_k t_k s_alpha(P_k): the
schedule implements w_alpha h_alpha / T on coupling alpha.  Every sign in the
package comes from ``_SIGN_TABLE`` through ``build_sign_matrix``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PatternExhaustionError, ValidationError
from .pauli import AXES, CouplingKey, InteractionGraph

GATES = "IXYZ"

#: sign of g s^a g' for gate g (rows, order IXYZ) and axis a (cols, order xyz)
_SIGN_TABLE = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
    dtype=np.int8,
)
_GATE_INDEX = {g: k for k, g in enumerate(GATES)}
_AXIS_INDEX = {a: k for k, a in enumerate(AXES)}


def validate_pattern(pattern: str, n_qubits: int | None = None) -> str:
    if not isinstance(pattern, str) or not pattern:
        raise ValidationError(f"pattern must be a nonempty string, got {pattern!r}")
    bad = set(pattern) - set(GATES)
    if bad:
        raise ValidationError(f"pattern {pattern!r} uses gates outside {GATES}: {sorted(bad)}")
    if n_qubits is not None and len(pattern) != n_qubits:
        raise ValidationError(f"pattern {pattern!r} has length {len(pattern)}, expected {n_qubits}")
    return pattern


def _pattern_columns(patterns: Sequence[str], rows: Sequence[CouplingKey]) -> np.ndarray:
    """Sign matrix entries, one vectorized column per pattern."""
    i_idx = np.array([k.i for k in rows], dtype=np.intp)
    j_idx = np.array([k.j for k in rows], dtype=np.intp)
    mu_idx = np.array([_AXIS_INDEX[k.mu] for k in rows], dtype=np.intp)
    nu_idx = np.array([_AXIS_INDEX[k.nu] for k in rows], dtype=np.intp)
    out = np.empty((len(rows), len(patterns)), dtype=np.int8)
    for col, pattern in enumerate(patterns):
        gates = np.array([_GATE_INDEX[g] for g in pattern], dtype=np.intp)
        out[:, col] = _SIGN_TABLE[gates[i_idx], mu_idx] * _SIGN_TABLE[gates[j_idx], nu_idx]
    return out


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Dense +/-1 matrix: rows are coupling keys, columns are gate patterns."""

    rows: tuple[CouplingKey, ...]
    patterns: tuple[str, ...]
    entries: np.ndarray  # shape (len(rows), len(patterns)), values in {+1, -1}

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.patterns))


def build_sign_matrix(patterns: Sequence[str], rows: Sequence[CouplingKey]) -> SignMatrix:
    """Entry-complete sign matrix for the given patterns and coupling keys."""
    if not patterns:
        raise ValidationError("at least one pattern is required")
    if not rows:
        raise ValidationError("at least one coupling row is required")
    n_min = max(k.j for k in rows) + 1
    for p in patterns:
        validate_pattern(p)
        if len(p) < n_min:
            raise ValidationError(f"pattern {p!r} too short for rows up to qubit {n_min - 1}")
    if len(set(patterns)) != len(patterns):
        raise ValidationError("duplicate gate patterns add no expressive power")
    entries = _pattern_columns(patterns, rows)
    entries.setflags(write=False)
    return SignMatrix(tuple(rows), tuple(patterns), entries)


def sign_columns(patterns: Sequence[str], keys: Sequence[CouplingKey]) -> np.ndarray:
    """Signs of every key (rows) under every block (columns), in block order.

    Unlike ``build_sign_matrix`` this takes an empty block list or key list
    and repeated patterns (a schedule read from text may repeat a block);
    repeats share one column of the sign matrix.
    """
    unique = list(dict.fromkeys(patterns))
    if not unique or not keys:
        return np.zeros((len(keys), len(patterns)), dtype=np.int8)
    column = {p: c for c, p in enumerate(unique)}
    return build_sign_matrix(unique, keys).entries[:, [column[p] for p in patterns]]


def sign_weights(
    patterns: Sequence[str], times: Sequence[float], keys: Sequence[CouplingKey]
) -> np.ndarray:
    """Time-weighted sign sums w_alpha = sum_k t_k * s_alpha(P_k), one per key.

    The blocks are added left to right, in schedule order, so every weight is
    bit-identical to the sequential per-key sum; a matrix-vector product
    would reorder the additions.
    """
    if len(times) != len(patterns):
        raise ValidationError("patterns and times must have equal length")
    columns = sign_columns(patterns, keys)
    weights = np.zeros(len(keys))
    for k, time in enumerate(times):
        weights += float(time) * columns[:, k]
    return weights


def pattern_alphabet(source_support: InteractionGraph) -> str:
    """Per-qubit gate alphabet needed to flip signs on the given support.

    ZZ-only supports need only ``IX`` (an X on either endpoint flips a ZZ
    term); anything with other axes gets the full Pauli alphabet.
    """
    if all(e.mu == "z" and e.nu == "z" for e in source_support.edges):
        return "IX"
    return GATES


def pattern_space_size(source_support: InteractionGraph) -> int:
    return len(pattern_alphabet(source_support)) ** source_support.n_qubits


def generate_candidate_patterns(
    source_support: InteractionGraph,
    requested: int,
    rng_seed: int,
) -> list[str]:
    """Deterministic, duplicate-free pattern list with the identity first.

    The identity pattern is always element 0; the rest are sampled from the
    seeded stream, so growing ``requested`` with the same seed extends the
    previous list (prefix property).
    """
    if requested < 1:
        raise ValidationError(f"requested must be >= 1, got {requested}")
    n = source_support.n_qubits
    alphabet = pattern_alphabet(source_support)
    total = len(alphabet) ** n
    if requested > total:
        raise PatternExhaustionError(
            f"requested {requested} patterns but only {total} exist over {alphabet!r}^{n}"
        )
    identity = "I" * n
    patterns = [identity]
    seen = {identity}
    rng = np.random.default_rng(rng_seed)
    chunk = max(64, requested)
    while len(patterns) < requested:
        draws = rng.integers(0, len(alphabet), size=(chunk, n))
        for row in draws:
            candidate = "".join(alphabet[g] for g in row)
            if candidate not in seen:
                seen.add(candidate)
                patterns.append(candidate)
                if len(patterns) == requested:
                    break
    return patterns
