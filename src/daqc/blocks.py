"""Single-qubit-gate block patterns and the resulting coupling sign matrix.

Sandwiching an analog evolution between layers of Pauli gates conjugates the
interaction Hamiltonian, which can only flip the sign of each two-body term:
g s^a g' = +/- s^a for g a Pauli or the identity.  A pattern is a string over
``IXYZ`` with one gate per qubit; the sign matrix collects the sign picked up
by every coupling under every pattern.  ``sign_weights`` turns it into the
time-weighted sign sum of a schedule, w_alpha = sum_k t_k s_alpha(P_k): the
schedule implements w_alpha h_alpha / T on coupling alpha.  Every sign weight
in the package comes from ``_SIGN_TABLE`` through ``build_sign_matrix``, one
gather over a (qubit, pattern) array of gate indices; the dense replay
conjugates by each gate layer's index flip and phase instead, independently
of it.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .pauli import AXES, CouplingKey, InteractionGraph, is_zz_only

GATES = "IXYZ"

#: sign of g s^a g' for gate g (rows, order IXYZ) and axis a (cols, order xyz)
_SIGN_TABLE = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
    dtype=np.int8,
)
#: gate index of each ASCII letter in GATES, read by the letter's byte value
_GATE_INDEX = np.zeros(128, dtype=np.intp)
_GATE_INDEX[list(GATES.encode())] = range(len(GATES))
_AXIS_INDEX = {a: k for k, a in enumerate(AXES)}


def validate_pattern(pattern: str, n_qubits: int) -> str:
    if not isinstance(pattern, str) or not pattern:
        raise ValidationError(f"pattern must be a nonempty string, got {pattern!r}")
    bad = set(pattern) - set(GATES)
    if bad:
        raise ValidationError(f"pattern {pattern!r} uses gates outside {GATES}: {sorted(bad)}")
    if len(pattern) != n_qubits:
        raise ValidationError(f"pattern {pattern!r} has length {len(pattern)}, expected {n_qubits}")
    return pattern


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Dense +/-1 matrix: rows are coupling keys, columns are gate patterns."""

    entries: np.ndarray  # shape (len(rows), len(patterns)), values in {+1, -1}


def build_sign_matrix(patterns: Sequence[str], rows: Sequence[CouplingKey]) -> SignMatrix:
    """Entry-complete sign matrix for the given patterns and coupling keys.

    A repeated pattern repeats its column (a schedule read from text may list
    a block twice).  The patterns are checked in one pass, every letter in
    ``GATES`` and the shortest at least ``n_min`` long; the entries come from
    one gather over their first ``n_min`` letters, where ``n_min`` is one past
    the highest qubit the rows touch.
    """
    if not patterns:
        raise ValidationError("at least one pattern is required")
    if not rows:
        raise ValidationError("at least one coupling row is required")
    n_min = max(k.j for k in rows) + 1
    non_strings = [p for p in patterns if not isinstance(p, str)]
    if non_strings:
        raise ValidationError(f"pattern must be a nonempty string, got {non_strings[0]!r}")
    bad = set("".join(patterns)) - set(GATES)
    if bad:
        raise ValidationError(f"patterns use gates outside {GATES}: {sorted(bad)}")
    shortest = min(patterns, key=len)
    if len(shortest) < n_min:
        raise ValidationError(f"pattern {shortest!r} too short for rows up to qubit {n_min - 1}")
    # gates[q, col]: gate index of qubit q in pattern col; one gather gives every entry
    letters = np.frombuffer("".join(p[:n_min] for p in patterns).encode("ascii"), dtype=np.uint8)
    gates = _GATE_INDEX[letters.reshape(len(patterns), n_min).T]
    i_idx = np.array([k.i for k in rows], dtype=np.intp)
    j_idx = np.array([k.j for k in rows], dtype=np.intp)
    mu_idx = np.array([_AXIS_INDEX[k.mu] for k in rows], dtype=np.intp)[:, None]
    nu_idx = np.array([_AXIS_INDEX[k.nu] for k in rows], dtype=np.intp)[:, None]
    entries = _SIGN_TABLE[gates[i_idx], mu_idx] * _SIGN_TABLE[gates[j_idx], nu_idx]
    entries.setflags(write=False)
    return SignMatrix(entries)


def sign_weights(
    patterns: Sequence[str], times: Sequence[float], keys: Sequence[CouplingKey]
) -> np.ndarray:
    """Time-weighted sign sums w_alpha = sum_k t_k * s_alpha(P_k), one per key.

    The blocks are added left to right, in schedule order, so every weight is
    bit-identical to the sequential per-key sum; a matrix-vector product
    would reorder the additions.  An empty schedule or key list gives zeros.
    """
    if len(times) != len(patterns):
        raise ValidationError("patterns and times must have equal length")
    weights = np.zeros(len(keys))
    if not patterns or not keys:
        return weights
    columns = build_sign_matrix(patterns, keys).entries
    for k, time in enumerate(times):
        weights += float(time) * columns[:, k]
    return weights


def pattern_alphabet(source_support: InteractionGraph) -> str:
    """Per-qubit gate alphabet needed to flip signs on the given support.

    ZZ-only supports need only ``IX`` (an X on either endpoint flips a ZZ
    term); anything with other axes gets the full Pauli alphabet.
    """
    if is_zz_only(source_support.edges):
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

    The identity pattern is always element 0.  A request for the whole space
    lists it: the rest of ``itertools.product(alphabet, repeat=n)`` follows in
    the seed's permutation, so Dantzig's first-index ties fall differently
    from seed to seed.  Below the whole space the rest are sampled from the
    seeded stream, so growing ``requested`` with the same seed extends the
    previous list (prefix property), up to but not including the whole space.
    Sampled candidates stay fixed-width byte rows, one letter per qubit, until
    the returned ones are decoded; they are never packed into an integer,
    which would overflow at 4^32 patterns.
    """
    if requested < 1:
        raise ValidationError(f"requested must be >= 1, got {requested}")
    n = source_support.n_qubits
    alphabet = pattern_alphabet(source_support)
    total = len(alphabet) ** n
    if requested > total:
        raise ValidationError(f"requested {requested} patterns but only {total} exist over {alphabet!r}^{n}")
    if requested == total:
        space = ["".join(p) for p in itertools.product(alphabet, repeat=n)]
        order = np.random.default_rng(rng_seed).permutation(total - 1) + 1
        return [space[0]] + [space[k] for k in order]
    # each chunk's rows become fixed-width byte strings by one gather into the
    # alphabet's letters; a dict keeps them in first-occurrence order
    letters = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)
    seen = dict.fromkeys([b"I" * n])
    rng = np.random.default_rng(rng_seed)
    chunk = max(64, requested)
    while len(seen) < requested:
        draws = rng.integers(0, len(alphabet), size=(chunk, n))
        seen.update(dict.fromkeys(letters[draws].view(f"S{n}").ravel().tolist()))
    return [row.decode("ascii") for row in list(seen)[:requested]]
