import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from daqc import blocks, bounds, dense
from daqc.blocks import PauliMasks
from daqc.errors import ValidationError
from daqc.harness import TopologySpec, derive_seed, generate_problem
from daqc.pauli import CouplingKey, CouplingVector
from daqc.schedule import Schedule, SynthesisMode, effective_couplings, synthesize
from helpers import combined, entries, same


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def kron_string(letters):
    """Independent oracle: the Pauli string's matrix as a Kronecker product, qubit 0 leftmost."""
    return functools.reduce(np.kron, [_SIGMA[g] for g in letters])


def kron_hamiltonian(h):
    """Sum of the Kronecker-built two-body terms of ``h``, in key order."""
    n = h.n_qubits
    total = np.zeros((2**n, 2**n), dtype=complex)
    for key, value in entries(h).items():
        letters = ["I"] * n
        letters[key.i], letters[key.j] = key.mu.upper(), key.nu.upper()
        total += value * kron_string(letters)
    return total


def random_two_body(n, rng, mixed=True):
    axes = ("x", "y", "z") if mixed else ("z",)
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            for mu in axes:
                for nu in axes:
                    if rng.random() < 0.4:
                        entries[CouplingKey(i, j, mu, nu)] = float(rng.normal())
    if not entries:
        entries[zz(0, 1)] = float(rng.normal())
    return CouplingVector(n, entries)


# ---- building ---------------------------------------------------------------


def test_single_zz_term_is_diagonal():
    h = CouplingVector(2, {zz(0, 1): 1.0})
    built = dense.build_dense(h)
    # a ZZ-only Hamiltonian is kept as its diagonal
    assert np.array_equal(built.matrix, [1.0, -1.0, -1.0, 1.0])


def test_empty_vector_builds_zero_matrix():
    assert not dense.build_dense(CouplingVector(3)).matrix.any()


def test_zz_triangle_energies():
    h = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): 1.0, zz(1, 2): 1.0})
    diag = dense.build_dense(h).matrix
    assert np.abs(diag).max() == pytest.approx(3.0)
    assert sorted(set(np.round(diag, 12))) == [-1.0, 3.0]


def test_mixed_axis_build_matches_kron_oracle():
    h = CouplingVector(2, {CouplingKey(0, 1, "x", "y"): 0.5, zz(0, 1): 2.0})
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    expected = 0.5 * np.kron(x, y) + 2.0 * np.kron(z, z)
    assert np.allclose(dense.build_dense(h).matrix, expected)


def test_non_zz_build_equals_the_kron_sum():
    # each term lands on the entries of its flip and phase, with the values of its Kronecker product
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(5):
            h = random_two_body(n, rng, mixed=True)
            built = dense.build_dense(h).matrix
            assert built.ndim == 2
            assert np.array_equal(built, kron_hamiltonian(h)), h


def per_key_zz_diagonal(h):
    """Reference: the ZZ diagonal as a table of Z signs, one term added at a time in key order."""
    n = h.n_qubits
    z = 1.0 - 2.0 * ((np.arange(2**n)[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)
    diag = np.zeros(2**n)
    for key, value in entries(h).items():
        diag += value * z[key.i] * z[key.j]
    return diag


@pytest.mark.parametrize("n", range(2, 11))
def test_zz_build_equals_the_per_key_sum(n):
    # the rows of the sign array are added in key order, so the arithmetic is the loop's
    rng = np.random.default_rng(100 + n)
    vectors = [CouplingVector(n)] + [random_two_body(n, rng, mixed=False) for _ in range(5)]
    for h in vectors:
        assert np.array_equal(dense.build_dense(h).matrix, per_key_zz_diagonal(h)), h


def two_row_zz_diagonal(h):
    """Reference: rows Z_i and Z_j of each key gathered and multiplied, then summed down the keys in key order."""
    n = h.n_qubits
    z = 1.0 - 2.0 * ((np.arange(2**n)[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)
    pairs = np.array([key[:2] for key in h.keys()], dtype=np.intp).reshape(-1, 2).T
    return (h.values_array()[:, None] * (z[pairs[0]] * z[pairs[1]])).sum(axis=0)


@pytest.mark.parametrize("n", range(2, 11))
def test_zz_build_from_the_pair_table_equals_the_two_row_product(n):
    rng = np.random.default_rng(200 + n)
    pairs = [zz(i, j) for i in range(n) for j in range(i + 1, n)]
    for count in (1, len(pairs) // 2, len(pairs)):
        keys = sorted(rng.choice(len(pairs), size=max(1, count), replace=False))
        h = CouplingVector(n, {pairs[k]: float(rng.normal()) for k in keys})
        assert np.array_equal(dense.build_dense(h).matrix, two_row_zz_diagonal(h)), h
    with pytest.raises(ValueError):
        dense._zz_rows(n)[0, 0] = 2.0


def test_qubit_cap_enforced():
    with pytest.raises(ValidationError):
        dense.build_dense(CouplingVector(dense.DEFAULT_QUBIT_CAP + 1, {zz(0, 1): 1.0}))


# ---- norms ------------------------------------------------------------------


def test_operator_norm_single_term_is_coupling_magnitude():
    for coupling in (1.0, -2.5, 0.3):
        h = CouplingVector(3, {CouplingKey(0, 2, "x", "z"): coupling})
        assert dense.operator_norm(dense.build_dense(h)) == pytest.approx(abs(coupling))


def test_diagonal_fast_path_matches_eigendecomposition():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = random_two_body(4, rng, mixed=False)
        built = dense.build_dense(h)
        fast = dense.operator_norm(built)
        full = float(np.abs(np.linalg.eigvalsh(np.diag(built.matrix))).max())
        assert fast == pytest.approx(full, abs=1e-10)


def power_iteration_norm(matrix, iters=4000, seed=1):
    """Independent spectral-radius oracle: power iteration on H @ H."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=matrix.shape[0]) + 1j * rng.normal(size=matrix.shape[0])
    vec /= np.linalg.norm(vec)
    squared = matrix @ matrix
    estimate = 0.0
    for _ in range(iters):
        vec = squared @ vec
        estimate = np.linalg.norm(vec)
        vec /= estimate
    return float(np.sqrt(estimate))


def test_operator_norm_matches_power_iteration():
    rng = np.random.default_rng(31)
    for _ in range(10):
        h = random_two_body(3, rng, mixed=True)
        built = dense.build_dense(h)
        assert dense.operator_norm(built) == pytest.approx(
            power_iteration_norm(built.matrix), abs=1e-8
        )


def test_operator_norm_rejects_non_hermitian():
    bad = dense.DenseHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValidationError):
        dense.operator_norm(bad)


def test_frobenius_single_term():
    for n in (2, 3, 5):
        h = CouplingVector(n, {zz(0, 1): -3.0})
        assert dense.frobenius_norm(dense.build_dense(h)) == pytest.approx(3.0 * 2 ** (n / 2))


def test_frobenius_zero_matrix():
    assert dense.frobenius_norm(dense.build_dense(CouplingVector(2))) == 0.0


def test_frobenius_orthogonality_identity():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5, 6):
        h = random_two_body(n, rng, mixed=True)
        built = dense.build_dense(h)
        closed = 2 ** (n / 2) * np.linalg.norm(h.values_array())
        assert dense.frobenius_norm(built) == pytest.approx(closed, rel=1e-10)


def test_operator_norm_below_coupling_one_norm():
    rng = np.random.default_rng(44)
    for n in (2, 3, 4, 5, 6):
        h = random_two_body(n, rng, mixed=True)
        built = dense.build_dense(h)
        assert dense.operator_norm(built) <= np.abs(h.values_array()).sum() + 1e-9


# ---- observables and states --------------------------------------------------


def test_single_qubit_observable_support_and_norm():
    # a single Pauli string has eigenvalues +/-1: its norm is 1, not stored
    obs = dense.single_qubit_observable("x", 1, 3)
    assert same(obs.string, PauliMasks.from_text(["IXI"]))
    assert obs.support == {1}
    assert obs.n_qubits == 3


@pytest.mark.parametrize("label", ["XQ", ""], ids=["bad-letter", "empty-label"])
def test_malformed_observable_rejected(label):
    with pytest.raises(ValidationError):
        dense.ObservableSpec(PauliMasks.from_text([label]))


def test_observable_above_the_cap_builds_no_matrix():
    # the dense cap holds the evolution, not the spec
    n = dense.DEFAULT_QUBIT_CAP + 1
    assert dense.single_qubit_observable("x", 0, n).n_qubits == n
    assert dense.ObservableSpec(PauliMasks.from_text(["X" * n])).support == frozenset(range(n))


def test_flip_and_phase_matches_the_string_matrix():
    rng = np.random.default_rng(17)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    for letters in itertools.product("IXYZ", repeat=3):
        label = "".join(letters)
        expected = kron_string(label) @ psi
        observable = dense.ObservableSpec(PauliMasks.from_text([label]))
        source, phase = dense._flip_and_phase(*observable.index_masks, psi.size)
        assert np.array_equal(phase * psi[source], expected), label


def test_closed_form_commutator_matches_svd():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = 1 + trial % 4
        d = rng.normal(size=2**n)
        label = "".join(rng.choice(list("IXYZ"), size=n))
        p = kron_string(label)
        oracle = np.linalg.norm(np.diag(d) @ p - p @ np.diag(d), 2)
        closed = dense.commutator_norm(d, dense.ObservableSpec(PauliMasks.from_text([label])))
        assert closed == pytest.approx(oracle, abs=1e-12), label


def test_commutator_norm_rejects_a_full_matrix():
    with pytest.raises(ValidationError):
        dense.commutator_norm(np.eye(4), dense.ObservableSpec(PauliMasks.from_text(["XI"])))


def test_two_term_observable_matches_its_matrix(chain_problem):
    # a two-qubit string measured from |+>, against its Kronecker matrix
    h_problem, h_source, sched = chain_problem
    h_real = combined(h_source, CouplingVector(3, {zz(0, 1): 0.3, zz(0, 2): -0.2}))
    obs = dense.ObservableSpec(PauliMasks.from_text(["YYI"]))
    o = kron_string("YYI")
    d = dense.build_dense(combined(effective_couplings(sched, h_real), h_problem, -1.0)).matrix
    assert dense.commutator_norm(d, obs) == pytest.approx(
        np.linalg.norm(np.diag(d) @ o - o @ np.diag(d), 2), abs=1e-12
    )
    ideal = dense.evolution_unitary(h_problem, 1.0)
    faulty = dense.replay_unitary(sched, h_real)
    oracle = abs(np.vdot(ideal, o @ ideal).real - np.vdot(faulty, o @ faulty).real)
    assert oracle > 1e-3
    assert dense.expectation_deviation(h_problem, sched, h_real, obs) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("mode", list(SynthesisMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
def test_sigma_x_deviation_on_plus_is_a_difference_of_cosine_products(kind, mode):
    # On |+>, <X_0> after exp(-iTH) for H = sum J_ij Z_i Z_j is
    # prod_j cos(2T J_0j).  The ZZ replay commutes, so it realizes the
    # effective couplings exactly and the deviation is a difference of two
    # such products.
    n, target_time = 7, 1.0
    obs = dense.single_qubit_observable("x", 0, n)
    for trial in range(3):
        seed = derive_seed("cosines", kind, mode.value, trial)
        h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(seed, "p"))
        sched = synthesize(h_p, h_s, defect, target_time, mode, derive_seed(seed, "s"))
        h_real = combined(h_s, bounds.sample_defect(n, defect, 10.0, derive_seed(seed, "d")).h_delta)
        h_eff = effective_couplings(sched, h_real)

        def x0(h):
            return math.prod(math.cos(2 * target_time * h[zz(0, j)]) for j in range(1, n))

        dev = dense.expectation_deviation(h_p, sched, h_real, obs)
        assert dev == pytest.approx(abs(x0(h_p) - x0(h_eff)), abs=1e-12), trial


def test_size_tables_and_cached_observables_are_read_only():
    observable = dense.single_qubit_observable("y", 1, 3)
    assert dense.single_qubit_observable("y", 1, 3) is observable
    z_rows = dense._z_rows(3)
    assert np.array_equal(z_rows, [np.diag(kron_string(label)).real for label in ("ZII", "IZI", "IIZ")])
    tables = [dense._basis(8), z_rows, dense.plus_state(3), observable.string.x, observable.string.z]
    for array in tables + list(observable.flip_and_phase):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_states_are_normalized():
    assert np.linalg.norm(dense.plus_state(3)) == pytest.approx(1.0)


# ---- replay -----------------------------------------------------------------


def amplitude_gap(a, b):
    """Largest |a - b| over two evolved |+> states, in units of the |+> amplitude 2^(-N/2).

    For diagonal unitaries U, V this is the largest entry of |U - V|, their spectral distance.
    """
    return float(np.abs(a - b).max()) * math.sqrt(a.size)


@pytest.fixture
def chain_problem():
    h_source = CouplingVector(3, {zz(0, 1): 1.5, zz(1, 2): -2.0})
    h_problem = CouplingVector(3, {zz(0, 1): -0.75, zz(1, 2): 1.0})
    defect = (zz(0, 1), zz(0, 2), zz(1, 2))
    sched = synthesize(h_problem, h_source, defect, 1.0, SynthesisMode.REMOVE_ZEROS, rng_seed=7)
    return h_problem, h_source, sched


def test_zero_time_schedule_replays_to_identity():
    sched = Schedule(2, PauliMasks.from_text([], 2), (), 1.0, SynthesisMode.REMOVE_ZEROS)
    h = CouplingVector(2, {zz(0, 1): 5.0})
    # the replay returns the evolved |+>, here |+> itself
    assert np.array_equal(dense.replay_unitary(sched, h), np.full(4, 0.5, dtype=complex))


def test_repeated_block_replays_like_one_longer_block():
    # schedules read from text may list a pattern twice
    h = CouplingVector(2, {zz(0, 1): 1.0, CouplingKey(0, 1, "x", "z"): 0.7})
    repeated = Schedule(2, PauliMasks.from_text(["XI", "XI", "II"]), (0.3, 0.2, 0.5), 1.0, SynthesisMode.REMOVE_ZEROS)
    merged = Schedule(2, PauliMasks.from_text(["XI", "II"]), (0.5, 0.5), 1.0, SynthesisMode.REMOVE_ZEROS)
    state = dense.replay_unitary(repeated, h)
    assert amplitude_gap(state, dense.replay_unitary(merged, h)) <= 1e-12
    assert same(effective_couplings(repeated, h), effective_couplings(merged, h))


def test_replay_does_not_read_the_sign_kernel(chain_problem, monkeypatch):
    # the replay is the independent check of the block signs: with every sign
    # of the parity kernel forced to +1 it must still reproduce the target evolution
    h_problem, h_source, sched = chain_problem
    monkeypatch.setattr(blocks, "_symplectic_signs", lambda terms, layers: np.ones((len(terms), len(layers)), np.int8))
    # the per-size sign tables are built by the kernel: emptied so the poisoned
    # kernel builds them, and emptied again so no poisoned table outlives the test
    tables = (blocks._ix_masks, blocks._zz_signs)
    for table in tables:
        table.cache_clear()
    try:
        poisoned = blocks.sign_weights(sched.patterns, sched.times, [zz(0, 1)])[0]
        assert poisoned == pytest.approx(sched.total_analog_time)
        state = dense.replay_unitary(sched, h_source)
        assert amplitude_gap(state, dense.evolution_unitary(h_problem, 1.0)) <= 1e-10
    finally:
        for table in tables:
            table.cache_clear()


@pytest.mark.parametrize("q", [1, 3])
def test_diagonal_and_full_replay_agree(q):
    zz_couplings = {zz(0, 1): 0.8, zz(1, 2): -1.3, zz(0, 2): 0.4}
    diagonal = CouplingVector(3, zz_couplings)
    # a zero-valued XX key keeps the couplings off the ZZ-only (diagonal) path
    full = CouplingVector(3, {**zz_couplings, CouplingKey(0, 1, "x", "x"): 0.0})
    assert dense.build_dense(diagonal).matrix.ndim == 1
    assert dense.build_dense(full).matrix.ndim == 2
    patterns = ("XYZ", "IXI", "XYZ", "YIZ")  # one block repeated
    sched = Schedule(3, PauliMasks.from_text(patterns), (0.2, 0.3, 0.1, 0.4), 1.0, SynthesisMode.REMOVE_ZEROS)
    state_diagonal = dense.replay_unitary(sched, diagonal, q=q)
    state_full = dense.replay_unitary(sched, full, q=q)
    assert state_diagonal.shape == state_full.shape == (8,)
    assert amplitude_gap(state_diagonal, state_full) <= 1e-12
    # the full path's unitary, formed by the oracle, is the diagonal path's phases
    u_full = dense_block_product_replay(sched, full, q)
    assert np.abs(u_full - np.diag(state_diagonal / dense.plus_state(3))).max() <= 1e-12


def block_product_replay(sched, h_real, q):
    """Reference: the ZZ replay's diagonal unitary as a product of one exponential per block, to the power q."""
    d = per_key_zz_diagonal(h_real)
    n, idx = h_real.n_qubits, np.arange(d.size)
    cycle = np.ones(d.size, dtype=complex)
    for pattern, time in zip(sched.patterns.to_text(), sched.times):
        flips = sum(1 << (n - 1 - k) for k, gate in enumerate(pattern) if gate in "XY")
        cycle = np.exp(-1j * time / q * d[idx ^ flips]) * cycle
    return cycle**q


@pytest.mark.parametrize("mode", list(SynthesisMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
def test_zz_replay_is_one_phase_for_every_q(kind, mode):
    # diagonal blocks commute: the summed phase is the block product at every q, and one diagonal
    n = 7
    seed = derive_seed("one-phase", kind, mode.value)
    h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(seed, "p"))
    sched = synthesize(h_p, h_s, defect, 1.0, mode, derive_seed(seed, "s"))
    h_real = combined(h_s, bounds.sample_defect(n, defect, 10.0, derive_seed(seed, "d")).h_delta)
    replayed = {q: dense.replay_unitary(sched, h_real, q=q) for q in (1, 3)}
    assert np.array_equal(replayed[1], replayed[3])
    for q, state in replayed.items():
        expected = block_product_replay(sched, h_real, q) * dense.plus_state(n)
        assert amplitude_gap(state, expected) <= 1e-12, q


def test_replay_is_unitary(chain_problem):
    _, h_source, sched = chain_problem
    state = dense.replay_unitary(sched, h_source)
    # a diagonal unitary on |+>: every amplitude keeps its modulus 1/sqrt(8)
    assert amplitude_gap(np.abs(state), dense.plus_state(3)) <= 1e-10
    full = CouplingVector(3, {**entries(h_source), CouplingKey(0, 1, "x", "y"): 0.6})
    assert np.linalg.norm(dense.replay_unitary(sched, full, q=2)) == pytest.approx(1.0, abs=1e-12)


def test_commuting_replay_matches_exact_evolution(chain_problem):
    h_problem, h_source, sched = chain_problem
    replayed = dense.replay_unitary(sched, h_source, q=1)
    exact = dense.evolution_unitary(h_problem, 1.0)
    assert amplitude_gap(replayed, exact) <= 1e-10


def test_trotter_error_shrinks_with_q():
    h_real = CouplingVector(2, {zz(0, 1): 1.0, CouplingKey(0, 1, "x", "z"): 0.7})
    sched = Schedule(2, PauliMasks.from_text(["II", "XI"]), (0.4, 0.6), 1.0, SynthesisMode.REMOVE_ZEROS)
    # both are states: the distance between the replayed and the target evolution of |+>
    target = dense.evolution_unitary(effective_couplings(sched, h_real), 1.0)
    distances = [
        np.linalg.norm(dense.replay_unitary(sched, h_real, q=q) - target)
        for q in (1, 2, 4, 8)
    ]
    assert all(a > b for a, b in zip(distances, distances[1:]))


def test_replay_rejects_bad_q(chain_problem):
    _, h_source, sched = chain_problem
    with pytest.raises(ValidationError):
        dense.replay_unitary(sched, h_source, q=0)


# ---- expectation deviation ---------------------------------------------------


def test_deviation_vanishes_without_defect(chain_problem):
    h_problem, h_source, sched = chain_problem
    obs = dense.single_qubit_observable("x", 0, 3)
    dev = dense.expectation_deviation(h_problem, sched, h_source, obs)
    assert dev <= 1e-10


def test_deviation_vanishes_for_commuting_observable(chain_problem):
    h_problem, h_source, sched = chain_problem
    h_real = combined(h_source, CouplingVector(3, {zz(0, 1): 0.3, zz(0, 2): -0.2}))
    obs = dense.single_qubit_observable("z", 1, 3)
    dev = dense.expectation_deviation(h_problem, sched, h_real, obs)
    assert dev <= 1e-10


def test_deviation_bounded_by_commutator_and_triviality(chain_problem):
    h_problem, h_source, sched = chain_problem
    h_delta = CouplingVector(3, {zz(0, 1): 0.05, zz(1, 2): -0.02, zz(0, 2): 0.04})
    h_real = combined(h_source, h_delta)
    obs = dense.single_qubit_observable("x", 1, 3)
    dev = dense.expectation_deviation(h_problem, sched, h_real, obs)
    h_eps = combined(effective_couplings(sched, h_real), h_problem, -1.0)
    commutator = dense.commutator_norm(dense.build_dense(h_eps).matrix, obs)
    assert dev <= sched.target_time * commutator + 1e-12
    assert dev <= 2  # twice the norm of a Pauli string


def test_observable_of_the_wrong_size_rejected(chain_problem):
    h_problem, h_source, sched = chain_problem
    with pytest.raises(ValidationError):
        dense.expectation_deviation(h_problem, sched, h_source, dense.single_qubit_observable("x", 0, 4))


def dense_block_product_replay(sched, h_real, q):
    """The Trotterized block unitary of a non-ZZ ``h_real`` from ``build_dense``'s matrix: one
    eigendecomposition, each block G exp(-itH) G conjugated entrywise by its gate layer's flip and
    phase, the first block acting first, the sequence raised to the power q."""
    n = h_real.n_qubits
    eigvals, eigvecs = np.linalg.eigh(dense.build_dense(h_real).matrix)
    cycle = np.eye(2**n, dtype=complex)
    layers = zip(blocks.basis_indices(sched.patterns.x, n), blocks.basis_indices(sched.patterns.z, n))
    for (x, z), time in zip(layers, sched.times):
        source, phase = dense._flip_and_phase(x, z, 2**n)
        block = (eigvecs * np.exp(-1j * time / q * eigvals)) @ eigvecs.conj().T
        # (G B G)[a, b] = phase[a] * B[source[a], source[b]] * conj(phase[b])
        cycle = (phase[:, None] * block[np.ix_(source, source)] * phase.conj()) @ cycle
    return np.linalg.matrix_power(cycle, q)


def _kron_oracle_replay(sched, h_real, q):
    """The Trotterized block product by np.kron and expm, the first block acting first."""
    h = kron_hamiltonian(h_real)
    cycle = np.eye(h.shape[0], dtype=complex)
    for pattern, time in zip(sched.patterns.to_text(), sched.times):
        g = kron_string(pattern)
        cycle = g @ scipy.linalg.expm(-1j * time / q * h) @ g @ cycle
    return np.linalg.matrix_power(cycle, q)


def _kron_oracle_deviation(h_problem, sched, h_real, label, q):
    """<P> from |+> after exp(-iT H_problem) and after the Trotterized replay, by np.kron and expm."""
    faulty = _kron_oracle_replay(sched, h_real, q)
    plus = np.full(faulty.shape[0], 1 / np.sqrt(faulty.shape[0]))
    ideal = scipy.linalg.expm(-1j * sched.target_time * kron_hamiltonian(h_problem)) @ plus
    faulty = faulty @ plus
    o = kron_string(label)
    return abs(np.vdot(ideal, o @ ideal).real - np.vdot(faulty, o @ faulty).real)


def _non_zz_couplings(entries):
    return CouplingVector(3, {CouplingKey(i, j, *axes): value for (i, j, axes), value in entries.items()})


# XX, YY and XZ couplings take the full-matrix evolution
_NON_ZZ_REAL = _non_zz_couplings(
    {(0, 1, "xx"): 0.9, (0, 1, "yy"): -0.6, (1, 2, "xz"): 1.2, (1, 2, "yy"): 0.4, (0, 2, "xx"): -0.3}
)
_NON_ZZ_SCHEDULE = Schedule(
    3, PauliMasks.from_text(["III", "ZIY", "XZI", "IYX"]), (0.3, 0.25, 0.2, 0.25), 1.0, SynthesisMode.REMOVE_ZEROS
)


@pytest.mark.parametrize("q", [1, 3])
def test_non_zz_replay_matches_the_kron_expm_block_product(q):
    oracle = _kron_oracle_replay(_NON_ZZ_SCHEDULE, _NON_ZZ_REAL, q)
    assert np.abs(dense_block_product_replay(_NON_ZZ_SCHEDULE, _NON_ZZ_REAL, q) - oracle).max() <= 1e-12
    state = dense.replay_unitary(_NON_ZZ_SCHEDULE, _NON_ZZ_REAL, q=q)
    assert amplitude_gap(state, oracle @ dense.plus_state(3)) <= 1e-12


def test_non_zz_replay_diagonalizes_h_once(monkeypatch):
    # every block is exp(-itH) conjugated by its gate layer, from one eigendecomposition
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    dense.replay_unitary(_NON_ZZ_SCHEDULE, _NON_ZZ_REAL)
    assert calls == [(8, 8)]


@pytest.mark.parametrize("q", [1, 3])
def test_non_zz_deviation_matches_kron_oracle(q):
    h_problem = _non_zz_couplings({(0, 1, "xx"): 0.5, (1, 2, "yy"): -0.8, (1, 2, "xz"): 0.7})
    obs = dense.single_qubit_observable("x", 1, 3)
    oracle = _kron_oracle_deviation(h_problem, _NON_ZZ_SCHEDULE, _NON_ZZ_REAL, "IXI", q)
    assert oracle > 1e-3
    deviation = dense.expectation_deviation(h_problem, _NON_ZZ_SCHEDULE, _NON_ZZ_REAL, obs, q=q)
    assert deviation == pytest.approx(oracle, abs=1e-12)


def test_non_zz_deviation_peaks_below_four_matrices():
    # the ideal and the faulty evolution act on |+>^N: the largest arrays alive at once are H and
    # its eigenvectors, never a block product (XX+YY chain, chain plus second-neighbour defects)
    n = 9
    rng = np.random.default_rng(n)

    def chain():
        return CouplingVector(n, {
            CouplingKey(i, i + 1, axis, axis): float(rng.uniform(0.5, 1.5) * rng.choice([-1, 1]))
            for i in range(n - 1)
            for axis in "xy"
        })

    h_source, h_problem = chain(), chain()
    defect = tuple(CouplingKey(i, j, a, a) for i in range(n) for j in (i + 1, i + 2) if j < n for a in "xy")
    sched = synthesize(h_problem, h_source, defect, 1.0, SynthesisMode.REMOVE_ZEROS, rng_seed=3)
    h_real = combined(h_source, CouplingVector(n, {key: 0.05 for key in defect}))
    observable = dense.single_qubit_observable("x", 0, n)
    tracemalloc.start()
    try:
        deviation = dense.expectation_deviation(h_problem, sched, h_real, observable, q=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deviation > 1e-3
    assert peak <= 4 * 16 * 4**n
