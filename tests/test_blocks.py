import itertools

import numpy as np
import pytest

from daqc.blocks import (
    GATES,
    build_sign_matrix,
    generate_candidate_patterns,
    pattern_alphabet,
    sign_weights,
)
from daqc.errors import PatternExhaustionError, ValidationError
from daqc.pauli import AXES, CouplingKey, InteractionGraph

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_AXIS_MAT = {"x": _MATS["X"], "y": _MATS["Y"], "z": _MATS["Z"]}


def conjugation_sign_oracle(gate: str, axis: str) -> int:
    """Explicit 2x2 conjugation g s g^dag = +/- s."""
    g, s = _MATS[gate], _AXIS_MAT[axis]
    conj = g @ s @ g.conj().T
    if np.allclose(conj, s):
        return 1
    assert np.allclose(conj, -s)
    return -1


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


def oracle_sign(pattern: str, key: CouplingKey) -> int:
    return conjugation_sign_oracle(pattern[key.i], key.mu) * conjugation_sign_oracle(
        pattern[key.j], key.nu
    )


def test_conjugation_sign_matches_matrix_oracle():
    # with the identity on qubit 1, the block sign is qubit 0's conjugation sign
    patterns = [gate + "I" for gate in GATES]
    rows = [CouplingKey(0, 1, axis, "z") for axis in AXES]
    sm = build_sign_matrix(patterns, rows)
    for col, gate in enumerate(GATES):
        for alpha, axis in enumerate(AXES):
            assert sm.entries[alpha, col] == conjugation_sign_oracle(gate, axis)


def test_block_sign_matches_oracle_on_all_gate_and_axis_pairs():
    patterns = [gi + gj for gi, gj in itertools.product(GATES, repeat=2)]
    rows = [CouplingKey(0, 1, mu, nu) for mu, nu in itertools.product(AXES, repeat=2)]
    sm = build_sign_matrix(patterns, rows)
    assert sm.shape == (9, 16)
    for col, pattern in enumerate(patterns):
        for alpha, key in enumerate(rows):
            assert sm.entries[alpha, col] == oracle_sign(pattern, key)


def test_block_sign_identity_pattern():
    assert build_sign_matrix(["III"], [zz(0, 2)]).entries[0, 0] == 1


def test_block_sign_single_and_double_flip():
    assert build_sign_matrix(["XI", "XX"], [zz(0, 1)]).entries.tolist() == [[-1, 1]]


def test_block_sign_pattern_too_short():
    with pytest.raises(ValidationError):
        build_sign_matrix(["XI"], [zz(0, 2)])


def test_three_qubit_sign_matrix_worked_example():
    rows = [zz(0, 1), zz(0, 2), zz(1, 2)]
    patterns = ["III", "IXX", "IXI", "IIX"]
    sm = build_sign_matrix(patterns, rows)
    expected = np.array([[1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1]])
    assert np.array_equal(sm.entries, expected)


def test_single_identity_pattern_gives_all_plus_column():
    rows = [zz(0, 1), zz(1, 2), CouplingKey(0, 2, "x", "y")]
    sm = build_sign_matrix(["III"], rows)
    assert np.array_equal(sm.entries, np.ones((3, 1), dtype=int))


def test_mixed_axis_entry():
    sm = build_sign_matrix(["ZZ"], [CouplingKey(0, 1, "z", "x")])
    assert sm.entries[0, 0] == -1


def test_duplicate_patterns_rejected():
    with pytest.raises(ValidationError):
        build_sign_matrix(["II", "II"], [zz(0, 1)])


def test_ix_columns_equal_cut_signs():
    # every {I,X} pattern acts on ZZ rows as the product of endpoint signs
    for n in (2, 3, 4):
        rows = [zz(i, j) for i in range(n) for j in range(i + 1, n)]
        patterns = ["".join(p) for p in itertools.product("IX", repeat=n)]
        sm = build_sign_matrix(patterns, rows)
        for col, pattern in enumerate(patterns):
            x = np.array([-1 if g == "X" else 1 for g in pattern])
            expected = [x[k.i] * x[k.j] for k in rows]
            assert np.array_equal(sm.entries[:, col], expected)


def test_sign_matrix_determinism():
    rows = [zz(0, 1), zz(1, 2)]
    patterns = ["III", "XIX"]
    a = build_sign_matrix(patterns, rows)
    b = build_sign_matrix(patterns, rows)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_sign_weights_of_empty_schedule_are_zero():
    keys = [zz(0, 1), zz(1, 2)]
    assert sign_weights([], [], keys).tolist() == [0.0, 0.0]
    assert sign_weights(["XIX"], [0.5], []).shape == (0,)


def test_sign_weights_match_sequential_oracle_bit_for_bit():
    rng = np.random.default_rng(5)
    n = 4
    keys = sorted(CouplingKey(i, j, mu, nu)
                  for i in range(n) for j in range(i + 1, n) for mu in AXES for nu in AXES)
    for _ in range(20):
        patterns = ["".join(rng.choice(list(GATES), size=n)) for _ in range(rng.integers(1, 12))]
        patterns.append(patterns[0])  # a schedule read from text may repeat a block
        times = rng.uniform(0.0, 3.0, size=len(patterns)).tolist()
        weights = sign_weights(patterns, times, keys)
        for alpha, key in enumerate(keys):
            expected = sum(t * oracle_sign(p, key) for p, t in zip(patterns, times))
            assert weights[alpha] == expected


# ---- candidate generation ---------------------------------------------------


def zz_graph(n, edges):
    return InteractionGraph(n, [zz(i, j) for i, j in edges])


def test_alphabet_restriction():
    assert pattern_alphabet(zz_graph(3, [(0, 1), (1, 2)])) == "IX"
    mixed = InteractionGraph(3, [CouplingKey(0, 1, "x", "z")])
    assert pattern_alphabet(mixed) == "IXYZ"


def test_candidates_start_with_identity_and_are_unique():
    g = zz_graph(3, [(0, 1), (0, 2), (1, 2)])
    pats = generate_candidate_patterns(g, 4, rng_seed=9)
    assert pats[0] == "III"
    assert len(set(pats)) == 4
    assert all(set(p) <= {"I", "X"} for p in pats)


def test_single_candidate_is_identity():
    g = zz_graph(2, [(0, 1)])
    assert generate_candidate_patterns(g, 1, rng_seed=0) == ["II"]


def test_exhaustive_request_covers_whole_alphabet():
    g = zz_graph(3, [(0, 1), (1, 2)])
    pats = generate_candidate_patterns(g, 8, rng_seed=123)
    assert pats[0] == "III"
    assert sorted(pats) == sorted("".join(p) for p in itertools.product("IX", repeat=3))


def test_request_beyond_alphabet_exhausts():
    g = zz_graph(3, [(0, 1)])
    with pytest.raises(PatternExhaustionError):
        generate_candidate_patterns(g, 9, rng_seed=0)


def test_candidates_deterministic_and_prefix_stable():
    g = zz_graph(4, [(0, 1), (1, 2), (2, 3)])
    small = generate_candidate_patterns(g, 5, rng_seed=77)
    again = generate_candidate_patterns(g, 5, rng_seed=77)
    grown = generate_candidate_patterns(g, 11, rng_seed=77)
    assert small == again
    assert grown[:5] == small
