"""Exact dense ground truth for small systems.

Builds Hermitian operators from coupling vectors, evaluates the two matrix
norms used by the stability analysis, replays schedules as products of block
unitaries, and measures the exact deviation of one observable between the
ideal and the faulty evolution of |+>^N.  Qubit 0 is the top bit of a basis
index, and every dense path is held to ``DEFAULT_QUBIT_CAP`` qubits by
``build_dense``, which each of them goes through.

Everything here is a ground-truth provider: correctness over speed.  A Pauli
string, whether a two-body term, a gate layer or the observable, is never a
matrix here: it acts by an index flip and a phase, (P v)[t] = phase[t] *
v[source[t]], and its Z signs are bit parities of the index.  A ZZ-only
Hamiltonian is diagonal, so it is kept as its real 2^N diagonal; its norms
and evolution are vectors of that length, and its replay adds up one real
phase, sum_k t_k G_k d G_k, and takes one exponential, since diagonal blocks
commute.  On ZZ couplings nothing here allocates a 2^N x 2^N array.  Any
other Hamiltonian is diagonalized once per replay, and each block's
exponential is that of H conjugated by its gate layer G: exp(-it GHG) =
G exp(-itH) G.  The replay conjugates by the gate layers themselves,
independently of the sign kernel in ``blocks``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import CouplingVector, is_zz_only

DEFAULT_QUBIT_CAP = 10
HERMITICITY_TOL = 1e-12

_AXIS_TO_GATE = {"x": "X", "y": "Y", "z": "Z"}


def _check_cap(n_qubits: int) -> None:
    if n_qubits > DEFAULT_QUBIT_CAP:
        raise ValidationError(f"{n_qubits} qubits exceeds the dense backend cap of {DEFAULT_QUBIT_CAP}")


@dataclass(frozen=True, eq=False)
class DenseHamiltonian:
    """``matrix``: the real diagonal, shape (2^N,), if ZZ-only, else the full matrix."""

    n_qubits: int
    matrix: np.ndarray


def _parity_sign(bits: np.ndarray) -> np.ndarray:
    """(-1)^(number of set bits), as floats: the product of Z on the qubits of ``bits``."""
    return 1.0 - 2.0 * (np.bitwise_count(bits) & 1)


def _mask(label: str, letters: str) -> int:
    """Bit mask of the qubits whose letter is in ``letters``; qubit 0 is the top bit."""
    n = len(label)
    return sum(1 << (n - 1 - q) for q, gate in enumerate(label) if gate in letters)


def _flip_and_phase(label: str) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P v)[t] = phase[t] * v[source[t]] for the string P.

    ``source`` flips the X and Y qubits; phase[t] = i^(#Y) * (-1)^(parity of
    source[t] on the Y and Z qubits).
    """
    source = np.arange(2 ** len(label)) ^ _mask(label, "XY")
    return source, 1j ** (label.count("Y") % 4) * _parity_sign(source & _mask(label, "YZ"))


def apply_pauli_string(label: str, state: np.ndarray) -> np.ndarray:
    """P @ state for the Pauli string ``label``, by index flip and phase."""
    source, phase = _flip_and_phase(label)
    return phase * state[source]


def build_dense(h: CouplingVector) -> DenseHamiltonian:
    """Sum of the two-body terms, each added at its flip and phase; Hermitian by construction."""
    _check_cap(h.n_qubits)
    n = h.n_qubits
    dim = 2**n
    if is_zz_only(h.keys()):
        pairs = np.array([(1 << (n - 1 - key.i)) | (1 << (n - 1 - key.j)) for key in h.keys()], dtype=np.int64)
        # one row per term; the sum down axis 0 adds the rows in key order
        terms = h.values_array()[:, None] * _parity_sign(np.arange(dim) & pairs[:, None])
        return DenseHamiltonian(n, terms.sum(axis=0))
    matrix = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for key, value in h.items():
        label = ["I"] * n
        label[key.i], label[key.j] = _AXIS_TO_GATE[key.mu], _AXIS_TO_GATE[key.nu]
        source, phase = _flip_and_phase("".join(label))
        matrix[rows, source] += value * phase
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


@dataclass(frozen=True)
class ObservableSpec:
    """One Pauli string of unit norm, such as ``IXI`` (qubit 0 leftmost)."""

    label: str

    def __post_init__(self):
        if not self.label or not set(self.label) <= set("IXYZ"):
            raise ValidationError(f"pauli string {self.label!r} must be non-empty and use only IXYZ")

    @property
    def n_qubits(self) -> int:
        return len(self.label)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(q for q, gate in enumerate(self.label) if gate != "I")


def commutator_norm(h: np.ndarray, observable: ObservableSpec) -> float:
    """Spectral norm of [D, P] for a ZZ-only Hamiltonian's diagonal ``h`` = D.

    [D, P] = (D - P D P) P is a diagonal times a phased permutation, so its
    norm is max |d - d[idx ^ flips]| with ``flips`` the X and Y qubits of P.
    """
    if h.ndim != 1:
        raise ValidationError("the commutator norm takes a ZZ-only Hamiltonian's diagonal, not a full matrix")
    return float(np.abs(h - _conjugate(h, observable.label)).max(initial=0.0))


def single_qubit_observable(axis: str, qubit: int, n_qubits: int) -> ObservableSpec:
    """sigma^axis acting on one qubit, identity elsewhere."""
    gate = _AXIS_TO_GATE.get(axis)
    if gate is None:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= qubit < n_qubits:
        raise ValidationError(f"qubit {qubit} out of range for {n_qubits} qubits")
    label = "".join(gate if q == qubit else "I" for q in range(n_qubits))
    return ObservableSpec(label)


# -- the initial state -------------------------------------------------------


def plus_state(n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def _propagator(matrix: np.ndarray):
    """time -> exp(-1j * time * H) for Hermitian H, diagonalized once; elementwise on a diagonal."""
    if matrix.ndim == 1:
        return lambda time: np.exp(-1j * time * matrix)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    inverse = eigvecs.conj().T
    return lambda time: (eigvecs * np.exp(-1j * time * eigvals)) @ inverse


def evolution_unitary(h: CouplingVector, time: float) -> np.ndarray:
    """exp(-i * time * H) for the Hamiltonian built from ``h``.

    Like ``DenseHamiltonian.matrix``: the diagonal, shape (2^N,), if ``h`` is
    ZZ-only, else the full matrix.
    """
    return _propagator(build_dense(h).matrix)(time)


def _conjugate(h: np.ndarray, pattern: str) -> np.ndarray:
    """G H G for the gate layer G of ``pattern``; on a diagonal, X and Y flip bits."""
    if h.ndim == 1:
        return h[np.arange(h.size) ^ _mask(pattern, "XY")]
    # (G H G)[a, b] = phase[a] * H[source[a], source[b]] * conj(phase[b])
    source, phase = _flip_and_phase(pattern)
    return phase[:, None] * h[np.ix_(source, source)] * phase.conj()


def check_trotter_steps(q: int) -> None:
    if q < 1 or int(q) != q:
        raise ValidationError(f"trotter step count must be a positive integer, got {q!r}")


def replay_unitary(schedule, h_real: CouplingVector, q: int = 1) -> np.ndarray:
    """Exact unitary of the block sequence run on the couplings ``h_real``.

    With ``q = 1`` this is the plain product of block unitaries, the first
    block acting first.  With ``q > 1`` every block time is divided by ``q``
    and the whole sequence is repeated ``q`` times (first-order interleaving).
    Block k evolves under G_k H G_k, with H built and diagonalized once from
    ``h_real`` and G_k the gate layer of pattern k, so the block unitary is
    G_k exp(-i t_k H) G_k.  On ZZ couplings the blocks commute, so for every
    ``q`` the result is exp(-i sum_k t_k G_k d G_k), the diagonal as a vector;
    else a matrix, as in ``evolution_unitary``.
    """
    check_trotter_steps(q)
    n = h_real.n_qubits
    if schedule.n_qubits != n:
        raise ValidationError("schedule and couplings disagree on the number of qubits")
    h = build_dense(h_real).matrix
    if h.ndim == 1:
        flips = np.array([_mask(pattern, "XY") for pattern in schedule.patterns], dtype=np.int64)
        phase = (np.array(schedule.times)[:, None] * h[np.arange(h.size) ^ flips[:, None]]).sum(axis=0)
        return np.exp(-1j * phase)
    evolve = _propagator(h)
    cycle = np.eye(2**n, dtype=complex)
    for pattern, time in zip(schedule.patterns, schedule.times):
        # earlier blocks act first
        cycle = _conjugate(evolve(time / q), pattern) @ cycle
    return np.linalg.matrix_power(cycle, int(q))


def _expectation(observable: ObservableSpec, u: np.ndarray) -> float:
    """<+|U^dag P U|+> for the string P; ``u`` may be a diagonal given as a vector."""
    plus = plus_state(observable.n_qubits)
    state = u * plus if u.ndim == 1 else u @ plus
    return float(np.vdot(state, apply_pauli_string(observable.label, state)).real)


def expectation_deviation(
    h_problem: CouplingVector,
    schedule,
    h_real: CouplingVector,
    observable: ObservableSpec,
    q: int = 1,
) -> float:
    """|<O> after exp(-iT H_problem) - <O> after the replayed faulty schedule|, both from |+>^N."""
    if observable.n_qubits != h_problem.n_qubits:
        raise ValidationError("observable and Hamiltonian disagree on the number of qubits")
    ideal = _expectation(observable, evolution_unitary(h_problem, schedule.target_time))
    faulty = _expectation(observable, replay_unitary(schedule, h_real, q=q))
    return float(abs(ideal - faulty))
