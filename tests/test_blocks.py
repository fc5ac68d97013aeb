import hashlib
import itertools

import numpy as np
import pytest

from daqc import blocks
from daqc.blocks import (
    GATES,
    PauliMasks,
    build_sign_matrix,
    generate_candidate_patterns,
    pattern_alphabet,
    sign_weights,
    term_masks,
)
from daqc.errors import ValidationError
from daqc.pauli import AXES, CouplingKey
from daqc.schedule import Schedule
from helpers import same

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
    sm = build_sign_matrix(PauliMasks.from_text(patterns), rows)
    for col, gate in enumerate(GATES):
        for alpha, axis in enumerate(AXES):
            assert sm.entries[alpha, col] == conjugation_sign_oracle(gate, axis)


#: the gather table the parity kernel replaced: sign of g s^a g' for gate g
#: (rows, order IXYZ) and axis a (columns, order xyz)
_SIGN_TABLE = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.int8)


def table_sign(pattern: str, key: CouplingKey) -> int:
    gate_i, gate_j = GATES.index(pattern[key.i]), GATES.index(pattern[key.j])
    return int(_SIGN_TABLE[gate_i, AXES.index(key.mu)] * _SIGN_TABLE[gate_j, AXES.index(key.nu)])


def test_parity_kernel_matches_the_gate_table_on_every_three_qubit_pattern():
    # all 27 two-body axis rows on three qubits, under all 64 IXYZ^3 patterns
    rows = [CouplingKey(i, j, mu, nu) for i, j in itertools.combinations(range(3), 2) for mu in AXES for nu in AXES]
    patterns = ["".join(p) for p in itertools.product(GATES, repeat=3)]
    sm = build_sign_matrix(PauliMasks.from_text(patterns), rows)
    assert sm.entries.shape == (27, 64) and sm.entries.dtype == np.int8
    for col, pattern in enumerate(patterns):
        for alpha, key in enumerate(rows):
            assert sm.entries[alpha, col] == table_sign(pattern, key), (pattern, key)


def test_text_round_trips_through_the_masks_above_64_qubits():
    rng = np.random.default_rng(3)
    labels = ["".join(rng.choice(list(GATES), size=70)) for _ in range(5)]
    masks = PauliMasks.from_text(labels)
    assert masks.x.shape == (5, 9) and masks.to_text() == labels
    assert masks[[4, 0]].to_text() == [labels[4], labels[0]]
    # qubit 69 is the sixth bit of the last byte; a term on it flips under X there
    far = PauliMasks.from_text(["I" * 69 + "X", "I" * 70])
    assert build_sign_matrix(far, [zz(0, 69)]).entries.tolist() == [[-1, 1]]


@pytest.mark.parametrize("n", [2, 8, 9, 16, 17, 70])
def test_term_masks_match_the_gate_table_across_byte_boundaries(n):
    pairs = {(0, 1), (0, n - 1), (n - 2, n - 1), (min(7, n - 2), min(8, n - 1)), (min(7, n - 2), n - 1)}
    keys = [CouplingKey(i, j, mu, nu) for i, j in sorted(pairs) for mu in AXES for nu in AXES]
    rows = [*range(len(keys))] * 2
    expected = PauliMasks.from_axes((len(keys), n), rows, [k.i for k in keys] + [k.j for k in keys],
                                    [k.mu for k in keys] + [k.nu for k in keys])
    assert same(term_masks(keys, n), expected)
    assert same(term_masks([], n), PauliMasks.from_axes((0, n), [], [], []))
    assert term_masks([], n).x.shape == (0, -(-n // 8))


@pytest.mark.parametrize("n", [9, 16, 17, 70])
def test_parity_kernel_matches_the_gate_table_across_byte_boundaries(n):
    # the kernel xors the packed bytes one column at a time; every byte must count
    rng = np.random.default_rng(n)
    keys = sorted({CouplingKey(*sorted(map(int, rng.choice(n, 2, replace=False))), *rng.choice(list(AXES), 2))
                   for _ in range(40)})
    labels = ["".join(rng.choice(list(GATES), size=n)) for _ in range(30)]
    signs = blocks._symplectic_signs(term_masks(keys, n), PauliMasks.from_text(labels))
    assert signs.dtype == np.int8
    assert signs.tolist() == [[table_sign(label, key) for label in labels] for key in keys]


@pytest.mark.parametrize("n", [1, 5, 8, 9, 13, 16])
def test_basis_indices_read_qubit_zero_as_the_top_bit(n):
    rng = np.random.default_rng(n)
    labels = ["".join(rng.choice(list(GATES), size=n)) for _ in range(20)]
    masks = PauliMasks.from_text(labels)
    assert blocks.basis_indices(masks.x, n).tolist() == [int("".join("01"[g in "XY"] for g in label), 2)
                                                          for label in labels]
    assert blocks.basis_indices(masks.z, n).tolist() == [int("".join("01"[g in "YZ"] for g in label), 2)
                                                          for label in labels]


def test_parser_rejects_patterns_of_unequal_lengths():
    with pytest.raises(ValidationError, match="expected 2"):
        PauliMasks.from_text(["XI", "XII"])
    with pytest.raises(ValidationError, match="expected 3"):
        PauliMasks.from_text(["XI"], 3)


def test_block_sign_matches_oracle_on_all_gate_and_axis_pairs():
    patterns = [gi + gj for gi, gj in itertools.product(GATES, repeat=2)]
    rows = [CouplingKey(0, 1, mu, nu) for mu, nu in itertools.product(AXES, repeat=2)]
    sm = build_sign_matrix(PauliMasks.from_text(patterns), rows)
    assert sm.entries.shape == (9, 16)
    for col, pattern in enumerate(patterns):
        for alpha, key in enumerate(rows):
            assert sm.entries[alpha, col] == oracle_sign(pattern, key)


def test_block_sign_identity_pattern():
    assert build_sign_matrix(PauliMasks.from_text(["III"]), [zz(0, 2)]).entries[0, 0] == 1


def test_block_sign_single_and_double_flip():
    assert build_sign_matrix(PauliMasks.from_text(["XI", "XX"]), [zz(0, 1)]).entries.tolist() == [[-1, 1]]


def test_block_sign_pattern_too_short():
    with pytest.raises(ValidationError):
        build_sign_matrix(PauliMasks.from_text(["XI"]), [zz(0, 2)])


@pytest.mark.parametrize("patterns", [
    [["I", "X"]], [b"IX"], [None], [""], ["ix"], ["IQ"], ["I\u00cf"], ["XI"], ["XIIQ"], ["XIX", 3],
], ids=["list", "bytes", "none", "empty", "lowercase", "unknown", "non-ascii", "too-short",
        "bad-letter-beyond-rows", "one-non-string"])
def test_malformed_patterns_rejected(patterns):
    # the parser rejects what is not a string over IXYZ; the sign matrix, rows beyond the patterns
    with pytest.raises(ValidationError):
        build_sign_matrix(PauliMasks.from_text(patterns), [zz(0, 2)])


def test_patterns_of_unequal_lengths_match_oracle():
    # every width packs qubits 0 and 1 into the same two bits
    patterns = ["XY", "ZIX", "IYZI", "YX"]
    rows = [CouplingKey(0, 1, mu, nu) for mu, nu in itertools.product(AXES, repeat=2)]
    for pattern in patterns:
        sm = build_sign_matrix(PauliMasks.from_text([pattern]), rows)
        for alpha, key in enumerate(rows):
            assert sm.entries[alpha, 0] == oracle_sign(pattern, key)


def test_three_qubit_sign_matrix_worked_example():
    rows = [zz(0, 1), zz(0, 2), zz(1, 2)]
    patterns = ["III", "IXX", "IXI", "IIX"]
    sm = build_sign_matrix(PauliMasks.from_text(patterns), rows)
    expected = np.array([[1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1]])
    assert np.array_equal(sm.entries, expected)


def test_single_identity_pattern_gives_all_plus_column():
    rows = [zz(0, 1), zz(1, 2), CouplingKey(0, 2, "x", "y")]
    sm = build_sign_matrix(PauliMasks.from_text(["III"]), rows)
    assert np.array_equal(sm.entries, np.ones((3, 1), dtype=int))


def test_mixed_axis_entry():
    sm = build_sign_matrix(PauliMasks.from_text(["ZZ"]), [CouplingKey(0, 1, "z", "x")])
    assert sm.entries[0, 0] == -1


def test_repeated_pattern_repeats_its_column():
    # a schedule read from text may list a block twice
    rows = [zz(0, 1), CouplingKey(0, 1, "x", "z")]
    sm = build_sign_matrix(PauliMasks.from_text(["XI", "II", "XI"]), rows)
    assert np.array_equal(sm.entries[:, 0], sm.entries[:, 2])
    assert np.array_equal(sm.entries[:, :2], build_sign_matrix(PauliMasks.from_text(["XI", "II"]), rows).entries)


def test_ix_columns_equal_cut_signs():
    # every {I,X} pattern acts on ZZ rows as the product of endpoint signs
    for n in (2, 3, 4):
        rows = [zz(i, j) for i in range(n) for j in range(i + 1, n)]
        patterns = ["".join(p) for p in itertools.product("IX", repeat=n)]
        sm = build_sign_matrix(PauliMasks.from_text(patterns), rows)
        for col, pattern in enumerate(patterns):
            x = np.array([-1 if g == "X" else 1 for g in pattern])
            expected = [x[k.i] * x[k.j] for k in rows]
            assert np.array_equal(sm.entries[:, col], expected)


def test_sign_matrix_determinism():
    rows = [zz(0, 1), zz(1, 2)]
    patterns = PauliMasks.from_text(["III", "XIX"])
    a = build_sign_matrix(patterns, rows)
    b = build_sign_matrix(patterns, rows)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_sign_weights_of_empty_schedule_are_zero():
    keys = [zz(0, 1), zz(1, 2)]
    assert sign_weights(PauliMasks.from_text([], 3), [], keys).tolist() == [0.0, 0.0]
    assert sign_weights(PauliMasks.from_text(["XIX"]), [0.5], []).shape == (0,)


def test_sign_weights_match_sequential_oracle_bit_for_bit():
    rng = np.random.default_rng(5)
    n = 4
    keys = sorted(CouplingKey(i, j, mu, nu)
                  for i in range(n) for j in range(i + 1, n) for mu in AXES for nu in AXES)

    def assert_sequential(patterns, times, masks):
        weights = sign_weights(masks, times, keys)
        for alpha, key in enumerate(keys):
            expected = sum(t * oracle_sign(p, key) for p, t in zip(patterns, times))
            # the bytes, so a -0.0 where the sum from 0 gives +0.0 fails
            assert weights[alpha].tobytes() == np.float64(expected).tobytes()

    for _ in range(20):
        patterns = ["".join(rng.choice(list(GATES), size=n)) for _ in range(rng.integers(1, 12))]
        patterns.append(patterns[0])  # a schedule read from text may repeat a block
        times = rng.uniform(0.0, 3.0, size=len(patterns)).tolist()
        assert_sequential(patterns, times, PauliMasks.from_text(patterns))
    # zero-time blocks alone: t * s is -0.0 on every negative sign, and the weight is +0.0
    assert_sequential(["XYZI", "ZZXI"], [0.0, 0.0], PauliMasks.from_text(["XYZI", "ZZXI"]))
    text = "n_qubits=4\nT=2\nmode=remove\nXYZI 0.75\nIZZX 0\nXYZI 0.3\nYIXZ 1.25\n"
    sched = Schedule.from_text(text)
    assert_sequential(["XYZI", "IZZX", "XYZI", "YIXZ"], sched.times, sched.patterns)


# ---- candidate generation ---------------------------------------------------


def zz_support(n, edges):
    """(n_qubits, canonical key tuple) of the ZZ pairs ``edges``."""
    return n, tuple(sorted(zz(i, j) for i, j in edges))


def test_alphabet_restriction():
    assert pattern_alphabet(zz_support(3, [(0, 1), (1, 2)])[1]) == "IX"
    assert pattern_alphabet((CouplingKey(0, 1, "x", "z"),)) == "IXYZ"


def test_candidates_start_with_identity_and_are_unique():
    support = zz_support(3, [(0, 1), (0, 2), (1, 2)])
    pats = generate_candidate_patterns(*support, 4, rng_seed=9).to_text()
    assert pats[0] == "III"
    assert len(set(pats)) == 4
    assert all(set(p) <= {"I", "X"} for p in pats)


def test_single_candidate_is_identity():
    support = zz_support(2, [(0, 1)])
    assert generate_candidate_patterns(*support, 1, rng_seed=0).to_text() == ["II"]


def test_exhaustive_request_covers_whole_alphabet():
    support = zz_support(3, [(0, 1), (1, 2)])
    pats = generate_candidate_patterns(*support, 8, rng_seed=123).to_text()
    assert pats[0] == "III"
    assert sorted(pats) == sorted("".join(p) for p in itertools.product("IX", repeat=3))


def test_request_beyond_alphabet_exhausts():
    support = zz_support(3, [(0, 1)])
    with pytest.raises(ValidationError, match="only 8 exist"):
        generate_candidate_patterns(*support, 9, rng_seed=0)


def test_candidates_deterministic_and_prefix_stable():
    support = zz_support(4, [(0, 1), (1, 2), (2, 3)])
    small = generate_candidate_patterns(*support, 5, rng_seed=77).to_text()
    again = generate_candidate_patterns(*support, 5, rng_seed=77).to_text()
    grown = generate_candidate_patterns(*support, 11, rng_seed=77).to_text()
    assert small == again
    assert grown[:5] == small


def xz_support(n):
    return n, (CouplingKey(0, n - 1, "x", "z"),)


@pytest.mark.parametrize("support", [zz_support(5, [(0, 1)]), xz_support(3)], ids=["IX", "IXYZ"])
def test_whole_space_request_is_a_seeded_permutation_of_the_space(support):
    n, keys = support
    space = ["".join(p) for p in itertools.product(pattern_alphabet(keys), repeat=n)]
    pats = generate_candidate_patterns(*support, len(space), rng_seed=3).to_text()
    assert pats[0] == "I" * n
    assert sorted(pats) == sorted(space) and len(set(pats)) == len(space)
    assert generate_candidate_patterns(*support, len(space), rng_seed=3).to_text() == pats
    assert generate_candidate_patterns(*support, len(space), rng_seed=4).to_text() != pats


def sampled_stream(support, requested, seed):
    """The first ``requested`` distinct patterns of the sampler's seeded stream.

    A whole-space request is listed, not sampled, so its stream is the sampled
    list one short of the whole space followed by the one pattern it lacks.
    """
    n, keys = support
    alphabet = pattern_alphabet(keys)
    total = len(alphabet) ** n
    if requested < total:
        return generate_candidate_patterns(*support, requested, rng_seed=seed).to_text()
    patterns = generate_candidate_patterns(*support, total - 1, rng_seed=seed).to_text()
    space = {"".join(p) for p in itertools.product(alphabet, repeat=n)}
    return patterns + sorted(space - set(patterns))


def pattern_digest(patterns):
    return hashlib.sha256(",".join(patterns).encode("ascii")).hexdigest()


# SHA-256 of ",".join(patterns), recorded from the sampler that built each
# candidate letter by letter; the draws consumed are in the comments
@pytest.mark.parametrize("graph, requested, seed, digest", [
    # IX, every pattern: 1, 2, 2, 3, 7 and 6 chunks of max(64, requested) rows
    (zz_support(3, [(0, 1)]), 8, 2024, "f1779596aa1c9a55ac7ee36684aee0d4893209c0ea48f66df3957c1398c4c35f"),
    (zz_support(4, [(0, 1)]), 16, 2024, "1f15191d941526038d4795ea663fbaf90fffdc1759a64b58afa429aff27d2850"),
    (zz_support(5, [(0, 1)]), 32, 2024, "dc6f46865f43dd9fc51f986d259e17b1ca90c049b8a9ddfffafa4640cb6d6935"),
    (zz_support(6, [(0, 1)]), 64, 2024, "62e7c0315245854824676c39190f1bb09f301481c41911a4891ed273bf393927"),
    (zz_support(7, [(0, 1)]), 128, 2024, "68f49754c66d57ee05109364809de122cf52677e5b67d84461035070d69c7f8a"),
    (zz_support(8, [(0, 1)]), 256, 2024, "1f9280e11a2e9df94ba76345a706b82f4397131bb37576b5674f9a95678ca522"),
    # stops at row 26 of the second chunk of 100
    (xz_support(4), 100, 5, "ec3533d62cfd76d55b4223428006317e86098b8e3b53015985bba1b776cd9ec7"),
    # three chunks of 120, stopping at row 72 of the third
    (zz_support(7, [(0, 1)]), 120, 31, "98e11e5fd76d8469abfb161aec5daaf74516cd74f633d128a4a08c6d6db5724e"),
    # 4^32 and 4^40 patterns: the sampler must not encode a pattern as one integer
    (xz_support(32), 5, 7, "acd0c474d10166bb16a703a1b3f687cdba4f25e7c1d55101bb299a58c198d59a"),
    (xz_support(40), 9, 7, "8a6f1d20e44d2a05af9a754051e7ae1d1008b78bedf22b275d723e9179f62a8c"),
    (xz_support(40), 70, 8, "2b2c64b025569dfa108808c6d55257227fa4f541d909c8195941ecb21cf7e733"),
])
def test_candidates_match_the_recorded_stream(graph, requested, seed, digest):
    patterns = sampled_stream(graph, requested, seed)
    assert len(patterns) == requested
    assert pattern_digest(patterns) == digest


# SHA-256 of ",".join(patterns): the identity, then the seed's permutation of
# the other 2^N - 1 IX patterns
@pytest.mark.parametrize("n, digest", [
    (3, "51dfce3e80bbc1f633d05b5542f43455fb7194610239a9be773a9ce679bfa0e1"),
    (4, "8760fe8f4a8ec5efdf236c444eabfd837e2341b22aaedb86cd6da198c0d56dfa"),
    (5, "48a433881fd70ea0edd69b95b04ed65dc2466f954cccc5a02f04e5e00707ed55"),
    (6, "1936b079dabbddc31651ac2f005968b043ef1a72682f252d37baf2c1c74c2345"),
    (7, "686516565a783a55428864885dc8ee2f29c37176375d8ea20d38ab7c8aa52b0b"),
    (8, "082e349cbbb27820e486acee7aca13f00565bf6b841d8ae68094a3efd0878e96"),
])
def test_whole_space_request_matches_the_recorded_permutation(n, digest):
    patterns = generate_candidate_patterns(*zz_support(n, [(0, 1)]), 2**n, rng_seed=2024).to_text()
    assert len(patterns) == 2**n
    assert pattern_digest(patterns) == digest


# ---- the per-size ZZ sign table -------------------------------------------------


@pytest.mark.parametrize("n", range(2, 10))
def test_zz_rows_under_ix_layers_gather_the_kernel_signs(monkeypatch, n):
    # the table holds the kernel's signs, so a gather equals the kernel bit for bit, in C order
    rng = np.random.default_rng(100 + n)
    pairs = [zz(i, j) for i, j in itertools.combinations(range(n), 2)]
    layer_sets = [
        generate_candidate_patterns(n, tuple(pairs), 2**n, rng_seed=n),  # whole space, seeded order
        generate_candidate_patterns(n, tuple(pairs), 2 ** (n - 1) + 1, rng_seed=n),  # sampled
        PauliMasks.from_text(["".join(rng.choice(["I", "X"], n)) for _ in range(9)]),  # repeats allowed
    ]
    row_sets = [pairs, [pairs[k] for k in rng.permutation(len(pairs))[: max(1, len(pairs) // 2)]], [pairs[-1]]]
    kernel = blocks._symplectic_signs
    blocks._zz_signs(n)

    def no_kernel(terms, layers):
        raise AssertionError("ZZ rows under IX layers read the kernel")

    for layers, rows in itertools.product(layer_sets, row_sets):
        with monkeypatch.context() as patch:
            patch.setattr(blocks, "_symplectic_signs", no_kernel)
            gathered = build_sign_matrix(layers, rows).entries
        assert gathered.dtype == np.int8 and gathered.flags.c_contiguous
        assert np.array_equal(gathered, kernel(term_masks(rows, n), layers))


def test_other_rows_and_layers_take_the_kernel(monkeypatch):
    calls = []
    kernel = blocks._symplectic_signs

    def counted(terms, layers):
        calls.append(len(layers))
        return kernel(terms, layers)

    monkeypatch.setattr(blocks, "_symplectic_signs", counted)
    ix = PauliMasks.from_text(["IXI", "XXI", "III"])
    build_sign_matrix(ix, [zz(0, 1), CouplingKey(1, 2, "x", "z")])  # a row that is not ZZ
    build_sign_matrix(PauliMasks.from_text(["IXI", "XZI"]), [zz(0, 1)])  # a layer with z bits
    ten = generate_candidate_patterns(*zz_support(10, [(0, 9)]), 20, rng_seed=1)  # 2^10 > the whole-space limit
    build_sign_matrix(ten, [zz(0, 9)])
    assert calls == [3, 2, 20]


@pytest.mark.parametrize("n", range(2, 10))
def test_size_tables_are_read_only_and_keyed_by_size(n):
    masks, signs = blocks._ix_masks(n), blocks._zz_signs(n)
    assert blocks._ix_masks(n) is masks and blocks._zz_signs(n) is signs
    assert masks.shape == (2**n, -(-n // 8)) and signs.shape == (n * (n - 1) // 2, 2**n)
    assert PauliMasks(n, masks, np.zeros_like(masks)).to_text() == ["".join(p) for p in itertools.product("IX", repeat=n)]
    for table in (masks, signs):
        with pytest.raises(ValueError):
            table[0, 0] = 1
