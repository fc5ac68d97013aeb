import numpy as np
import pytest

from daqc import blocks, dense
from daqc.errors import ValidationError
from daqc.pauli import CouplingKey, CouplingVector, InteractionGraph
from daqc.schedule import Schedule, SynthesisMode, effective_couplings, synthesize


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


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


def test_qubit_cap_enforced():
    with pytest.raises(ValidationError):
        dense.build_dense(CouplingVector(4, {zz(0, 1): 1.0}), cap=3)


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
    bad = dense.DenseHamiltonian(1, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
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
    obs = dense.single_qubit_observable("x", 1, 3)
    assert obs.support == {1}
    assert obs.op_norm == pytest.approx(1.0)
    assert obs.terms == ((1.0, "IXI"),)


def test_composite_observable():
    obs = dense.make_observable([(0.5, "ZZ"), (-1.5, "XI")])
    assert obs.support == {0, 1}
    assert obs.op_norm == pytest.approx(np.abs(np.linalg.eigvalsh(obs.matrix)).max())


def test_states_are_normalized():
    for state in (dense.zero_state(3), dense.plus_state(3), dense.random_product_state(3, 5)):
        assert np.linalg.norm(state) == pytest.approx(1.0)
    assert np.array_equal(dense.random_product_state(4, 9), dense.random_product_state(4, 9))


# ---- replay -----------------------------------------------------------------


@pytest.fixture
def chain_problem():
    h_source = CouplingVector(3, {zz(0, 1): 1.5, zz(1, 2): -2.0})
    h_problem = CouplingVector(3, {zz(0, 1): -0.75, zz(1, 2): 1.0})
    defect = InteractionGraph(3, [zz(0, 1), zz(1, 2), zz(0, 2)])
    sched = synthesize(h_problem, h_source, defect, 1.0, SynthesisMode.REMOVE_ZEROS, rng_seed=7)
    return h_problem, h_source, sched


def test_zero_time_schedule_replays_to_identity():
    sched = Schedule(2, (), (), 1.0, SynthesisMode.REMOVE_ZEROS)
    h = CouplingVector(2, {zz(0, 1): 5.0})
    assert np.array_equal(dense.replay_unitary(sched, h), np.eye(4, dtype=complex))


def test_repeated_block_replays_like_one_longer_block():
    # schedules read from text may list a pattern twice
    h = CouplingVector(2, {zz(0, 1): 1.0, CouplingKey(0, 1, "x", "z"): 0.7})
    repeated = Schedule(2, ("XI", "XI", "II"), (0.3, 0.2, 0.5), 1.0, SynthesisMode.REMOVE_ZEROS)
    merged = Schedule(2, ("XI", "II"), (0.5, 0.5), 1.0, SynthesisMode.REMOVE_ZEROS)
    u = dense.replay_unitary(repeated, h)
    assert np.abs(u - dense.replay_unitary(merged, h)).max() <= 1e-12
    assert effective_couplings(repeated, h) == effective_couplings(merged, h)


def test_replay_does_not_read_the_sign_kernel(chain_problem, monkeypatch):
    # the replay is the independent check of the block signs: with every sign
    # of the kernel forced to +1 it must still reproduce the target evolution
    h_problem, h_source, sched = chain_problem
    monkeypatch.setattr(blocks, "_SIGN_TABLE", np.ones_like(blocks._SIGN_TABLE))
    u = dense.replay_unitary(sched, h_source)
    assert np.abs(u - dense.evolution_unitary(h_problem, 1.0)).max() <= 1e-10


@pytest.mark.parametrize("q", [1, 3])
def test_diagonal_and_full_replay_agree(q):
    zz_couplings = {zz(0, 1): 0.8, zz(1, 2): -1.3, zz(0, 2): 0.4}
    diagonal = CouplingVector(3, zz_couplings)
    # a zero-valued XX key keeps the couplings off the ZZ-only (diagonal) path
    full = CouplingVector(3, {**zz_couplings, CouplingKey(0, 1, "x", "x"): 0.0})
    assert dense.build_dense(diagonal).matrix.ndim == 1
    assert dense.build_dense(full).matrix.ndim == 2
    patterns = ("XYZ", "IXI", "XYZ", "YIZ")  # one block repeated
    sched = Schedule(3, patterns, (0.2, 0.3, 0.1, 0.4), 1.0, SynthesisMode.REMOVE_ZEROS)
    u_diagonal = dense.replay_unitary(sched, diagonal, q=q)
    u_full = dense.replay_unitary(sched, full, q=q)
    assert np.abs(u_diagonal - u_full).max() <= 1e-12


def test_replay_is_unitary(chain_problem):
    _, h_source, sched = chain_problem
    u = dense.replay_unitary(sched, h_source)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-10


def test_commuting_replay_matches_exact_evolution(chain_problem):
    h_problem, h_source, sched = chain_problem
    u = dense.replay_unitary(sched, h_source, q=1)
    v = dense.evolution_unitary(h_problem, 1.0)
    assert dense.spectral_norm(u - v) <= 1e-10


def test_trotter_error_shrinks_with_q():
    h_real = CouplingVector(2, {zz(0, 1): 1.0, CouplingKey(0, 1, "x", "z"): 0.7})
    sched = Schedule(2, ("II", "XI"), (0.4, 0.6), 1.0, SynthesisMode.REMOVE_ZEROS)
    target = dense.evolution_unitary(effective_couplings(sched, h_real), 1.0)
    distances = [
        dense.spectral_norm(dense.replay_unitary(sched, h_real, q=q) - target)
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
    dev = dense.expectation_deviation(h_problem, sched, h_source, dense.plus_state(3), obs)
    assert dev <= 1e-10


def test_deviation_vanishes_for_commuting_observable(chain_problem):
    h_problem, h_source, sched = chain_problem
    h_real = h_source + CouplingVector(3, {zz(0, 1): 0.3, zz(0, 2): -0.2})
    obs = dense.single_qubit_observable("z", 1, 3)
    dev = dense.expectation_deviation(h_problem, sched, h_real, dense.plus_state(3), obs)
    assert dev <= 1e-10


def test_deviation_bounded_by_commutator_and_triviality(chain_problem):
    h_problem, h_source, sched = chain_problem
    h_delta = CouplingVector(3, {zz(0, 1): 0.05, zz(1, 2): -0.02, zz(0, 2): 0.04})
    h_real = h_source + h_delta
    obs = dense.single_qubit_observable("x", 1, 3)
    for state in (dense.plus_state(3), dense.random_product_state(3, 2)):
        dev = dense.expectation_deviation(h_problem, sched, h_real, state, obs)
        h_eps = effective_couplings(sched, h_real) - h_problem
        commutator = dense.commutator_norm(dense.build_dense(h_eps).matrix, obs.matrix)
        assert dev <= sched.target_time * commutator + 1e-12
        assert dev <= 2 * obs.op_norm


def test_density_matrix_input(chain_problem):
    h_problem, h_source, sched = chain_problem
    obs = dense.single_qubit_observable("x", 0, 3)
    psi = dense.plus_state(3)
    rho = np.outer(psi, psi.conj())
    dev_vec = dense.expectation_deviation(h_problem, sched, h_source, psi, obs)
    dev_mat = dense.expectation_deviation(h_problem, sched, h_source, rho, obs)
    assert dev_mat == pytest.approx(dev_vec, abs=1e-12)


def test_invalid_states_rejected(chain_problem):
    h_problem, h_source, sched = chain_problem
    obs = dense.single_qubit_observable("x", 0, 3)
    with pytest.raises(ValidationError):
        dense.expectation_deviation(h_problem, sched, h_source, np.ones(8), obs)
    bad_rho = np.eye(8, dtype=complex)  # trace 8
    with pytest.raises(ValidationError):
        dense.expectation_deviation(h_problem, sched, h_source, bad_rho, obs)
