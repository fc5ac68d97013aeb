"""Exact dense ground truth for small systems.

Builds Hermitian operators from coupling vectors, evaluates the two matrix
norms used by the stability analysis, replays schedules as products of block
unitaries, and measures exact observable deviations between the ideal and the
faulty evolution.  Qubit 0 is the leftmost Kronecker factor.

Everything here is a ground-truth provider: correctness over speed.  A ZZ-only
Hamiltonian is diagonal, so it is kept as its real 2^N diagonal and its norms,
exponentials and block conjugations are elementwise.  The replay conjugates
by the gate layers themselves, independently of the sign kernel in ``blocks``.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .pauli import CouplingVector

DEFAULT_QUBIT_CAP = 10
HERMITICITY_TOL = 1e-12

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_AXIS_TO_GATE = {"x": "X", "y": "Y", "z": "Z"}


def _check_cap(n_qubits: int, cap: int) -> None:
    if n_qubits > cap:
        raise ValidationError(f"{n_qubits} qubits exceeds the dense backend cap of {cap}")


@dataclass(frozen=True, eq=False)
class DenseHamiltonian:
    """``matrix``: the real diagonal, shape (2^N,), if ZZ-only, else the full matrix."""

    n_qubits: int
    matrix: np.ndarray


def _z_sign_columns(n_qubits: int) -> np.ndarray:
    """signs[i, s] = +/-1 value of Z on qubit i in computational basis state s."""
    states = np.arange(2**n_qubits)
    shifts = n_qubits - 1 - np.arange(n_qubits)
    bits = (states[None, :] >> shifts[:, None]) & 1
    return 1.0 - 2.0 * bits


def is_zz_only(h: CouplingVector) -> bool:
    return all(k.mu == "z" and k.nu == "z" for k in h.keys())


def kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def pauli_string_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string such as ``IXZ`` (qubit 0 leftmost)."""
    try:
        return kron_chain([_SIGMA[g] for g in label])
    except KeyError as exc:
        raise ValidationError(f"pauli string {label!r} uses letters outside IXYZ") from exc


def build_dense(h: CouplingVector, cap: int = DEFAULT_QUBIT_CAP) -> DenseHamiltonian:
    """Sum of Kronecker-placed two-body terms; Hermitian by construction."""
    _check_cap(h.n_qubits, cap)
    n = h.n_qubits
    dim = 2**n
    if is_zz_only(h):
        z = _z_sign_columns(n)
        diag = np.zeros(dim)
        for key, value in h.items():
            diag += value * z[key.i] * z[key.j]
        return DenseHamiltonian(n, diag)
    matrix = np.zeros((dim, dim), dtype=complex)
    for key, value in h.items():
        factors = [_SIGMA["I"]] * n
        factors[key.i] = _SIGMA[_AXIS_TO_GATE[key.mu]]
        factors[key.j] = _SIGMA[_AXIS_TO_GATE[key.nu]]
        matrix += value * kron_chain(factors)
    return DenseHamiltonian(n, matrix)


def _require_hermitian(matrix: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    asymmetry = float(np.abs(matrix - matrix.conj().T).max(initial=0.0))
    if asymmetry > HERMITICITY_TOL * scale:
        raise ValidationError(f"matrix is not Hermitian (asymmetry {asymmetry:.3e})")


def operator_norm(h: DenseHamiltonian) -> float:
    """Largest eigenvalue magnitude; a diagonal is its own spectrum."""
    if h.matrix.ndim == 1:
        return float(np.abs(h.matrix).max())
    _require_hermitian(h.matrix)
    return float(np.abs(np.linalg.eigvalsh(h.matrix)).max())


def frobenius_norm(h: DenseHamiltonian) -> float:
    """sqrt(Tr(H^dag H)).

    Summed with numpy's pairwise reduction rather than ``np.linalg.norm``,
    whose BLAS dot product rounds differently with the BLAS thread count.
    """
    m = h.matrix
    return float(np.sqrt(np.sum(np.square(m.real)) + np.sum(np.square(m.imag))))


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of an arbitrary (not necessarily Hermitian) matrix."""
    return float(np.linalg.norm(matrix, 2))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of [A, B]; ``a`` may be a diagonal given as a vector."""
    if a.ndim == 1:
        return spectral_norm(a[:, None] * b - b * a)
    return spectral_norm(a @ b - b @ a)


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Weighted sum of Pauli strings with its support and exact operator norm."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]
    support: frozenset[int]
    op_norm: float
    matrix: np.ndarray


def make_observable(
    terms: Sequence[tuple[float, str]],
    cap: int = DEFAULT_QUBIT_CAP,
) -> ObservableSpec:
    if not terms:
        raise ValidationError("an observable needs at least one Pauli term")
    n = len(terms[0][1])
    _check_cap(n, cap)
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    support: set[int] = set()
    frozen: list[tuple[float, str]] = []
    for coeff, label in terms:
        coeff = float(coeff)
        if len(label) != n:
            raise ValidationError("all Pauli strings of an observable must share one length")
        matrix += coeff * pauli_string_matrix(label)
        support |= {q for q, g in enumerate(label) if g != "I"}
        frozen.append((coeff, label))
    _require_hermitian(matrix)
    norm = float(np.abs(np.linalg.eigvalsh(matrix)).max())
    matrix.setflags(write=False)
    return ObservableSpec(n, tuple(frozen), frozenset(support), norm, matrix)


def single_qubit_observable(axis: str, qubit: int, n_qubits: int) -> ObservableSpec:
    """sigma^axis acting on one qubit, identity elsewhere."""
    gate = _AXIS_TO_GATE.get(axis)
    if gate is None:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= qubit < n_qubits:
        raise ValidationError(f"qubit {qubit} out of range for {n_qubits} qubits")
    label = "".join(gate if q == qubit else "I" for q in range(n_qubits))
    return make_observable([(1.0, label)])


# -- initial states ---------------------------------------------------------


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def plus_state(n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def random_product_state(n_qubits: int, rng_seed: int) -> np.ndarray:
    """Seeded Haar-random single-qubit states, tensored together."""
    rng = np.random.default_rng(rng_seed)
    factors = []
    for _ in range(n_qubits):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        factors.append(amp / np.linalg.norm(amp))
    return kron_chain(factors)


def _validate_state(rho0: np.ndarray, dim: int) -> np.ndarray:
    state = np.asarray(rho0, dtype=complex)
    if state.ndim == 1:
        if state.shape[0] != dim:
            raise ValidationError(f"state vector has dimension {state.shape[0]}, expected {dim}")
        if abs(np.linalg.norm(state) - 1.0) > 1e-10:
            raise ValidationError("state vector is not normalized")
        return state
    if state.shape != (dim, dim):
        raise ValidationError(f"density matrix has shape {state.shape}, expected {(dim, dim)}")
    _require_hermitian(state)
    if abs(np.trace(state).real - 1.0) > 1e-10:
        raise ValidationError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(state).min() < -1e-10:
        raise ValidationError("density matrix has a negative eigenvalue")
    return state


def _expm_hermitian(matrix: np.ndarray, scale: float) -> np.ndarray:
    """exp(-1j * scale * H) for Hermitian H; elementwise on a diagonal vector."""
    if matrix.ndim == 1:
        return np.exp(-1j * scale * matrix)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return (eigvecs * np.exp(-1j * scale * eigvals)) @ eigvecs.conj().T


def evolution_unitary(h: CouplingVector, time: float, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """exp(-i * time * H) for the Hamiltonian built from ``h``, as a matrix."""
    u = _expm_hermitian(build_dense(h, cap=cap).matrix, time)
    return np.diag(u) if u.ndim == 1 else u


def _conjugate(h: np.ndarray, pattern: str) -> np.ndarray:
    """G H G for the gate layer G of ``pattern``; on a diagonal, X and Y flip bits."""
    if h.ndim == 2:
        g = pauli_string_matrix(pattern)
        return g @ h @ g
    flips = int("".join("1" if gate in "XY" else "0" for gate in pattern), 2)
    return h[np.arange(h.size) ^ flips]


def replay_unitary(schedule, h_real: CouplingVector, q: int = 1, cap: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Exact unitary of the block sequence run on the couplings ``h_real``.

    With ``q = 1`` this is the plain product of block unitaries, the first
    block acting first.  With ``q > 1`` every block time is divided by ``q``
    and the whole sequence is repeated ``q`` times (first-order interleaving).
    Block k evolves under G_k H G_k, with H built once from ``h_real`` and
    G_k the gate layer of pattern k.
    """
    if q < 1 or int(q) != q:
        raise ValidationError(f"trotter step count must be a positive integer, got {q!r}")
    n = h_real.n_qubits
    if schedule.n_qubits != n:
        raise ValidationError("schedule and couplings disagree on the number of qubits")
    _check_cap(n, cap)
    h = build_dense(h_real, cap=cap).matrix
    cycle = np.eye(2**n, dtype=complex)
    for pattern, time in zip(schedule.patterns, schedule.times):
        block = _expm_hermitian(_conjugate(h, pattern), time / q)
        # earlier blocks act first
        cycle = block[:, None] * cycle if block.ndim == 1 else block @ cycle
    return np.linalg.matrix_power(cycle, int(q))


def expectation_deviation(
    h_problem: CouplingVector,
    schedule,
    h_real: CouplingVector,
    rho0: np.ndarray,
    observable: ObservableSpec,
    target_time: float | None = None,
    q: int = 1,
    cap: int = DEFAULT_QUBIT_CAP,
) -> float:
    """|<O> under exp(-iT H_problem) - <O> under the replayed faulty schedule|."""
    n = h_problem.n_qubits
    _check_cap(n, cap)
    if observable.n_qubits != n:
        raise ValidationError("observable and Hamiltonian disagree on the number of qubits")
    time = schedule.target_time if target_time is None else float(target_time)
    state = _validate_state(rho0, 2**n)
    u_ideal = evolution_unitary(h_problem, time, cap=cap)
    u_faulty = replay_unitary(schedule, h_real, q=q, cap=cap)
    obs = observable.matrix
    if state.ndim == 1:
        ideal = np.vdot(u_ideal @ state, obs @ (u_ideal @ state)).real
        faulty = np.vdot(u_faulty @ state, obs @ (u_faulty @ state)).real
    else:
        ideal = np.trace(obs @ u_ideal @ state @ u_ideal.conj().T).real
        faulty = np.trace(obs @ u_faulty @ state @ u_faulty.conj().T).real
    return float(abs(ideal - faulty))
