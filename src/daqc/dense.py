"""Exact dense ground truth for small systems.

Builds Hermitian operators from coupling vectors, evaluates the two matrix
norms used by the stability analysis, replays schedules, and measures the
exact deviation of one observable between the ideal and the faulty
evolution of |+>^N.  Every dense path goes through ``build_dense``, which
holds it to ``DEFAULT_QUBIT_CAP`` qubits; correctness over speed.

A Pauli string, be it a two-body term, a gate layer or the observable, is
never a matrix here.  Its ``PauliMasks`` become basis-index masks, qubit 0
the top bit, and it acts by an index flip and a phase, (P v)[t] = phase[t] *
v[source[t]].  A ZZ-only Hamiltonian is kept as its real 2^N diagonal, and
its replay adds up one real phase, sum_k t_k G_k d G_k, since diagonal
blocks commute; on ZZ couplings nothing here allocates a 2^N x 2^N array.
Any other Hamiltonian is diagonalized once per replay, each block being
exp(-it GHG) = G exp(-itH) G for its gate layer G.  The replay conjugates by
the gate layers themselves, independently of the sign kernel in ``blocks``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import PauliMasks, term_masks
from .errors import ValidationError
from .pauli import AXES, CouplingVector, is_zz_only

DEFAULT_QUBIT_CAP = 10
HERMITICITY_TOL = 1e-12


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


def _index_masks(bits: np.ndarray, n_qubits: int) -> np.ndarray:
    """Packed ``PauliMasks`` rows as basis-index masks: qubit q is bit N - 1 - q."""
    return np.unpackbits(bits, axis=-1, count=n_qubits) @ (1 << np.arange(n_qubits - 1, -1, -1))


def _flip_and_phase(x: int, z: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P v)[t] = phase[t] * v[source[t]] for the string of index masks x, z.

    ``source`` flips the qubits of x; phase[t] = i^(#Y) * (-1)^(parity of source[t] & z), Y = x & z.
    """
    source = np.arange(dim) ^ x
    return source, 1j ** (int(x & z).bit_count() % 4) * _parity_sign(source & z)


def build_dense(h: CouplingVector) -> DenseHamiltonian:
    """Sum of the two-body terms, each added at its flip and phase; Hermitian by construction."""
    _check_cap(h.n_qubits)
    n = h.n_qubits
    dim = 2**n
    terms = term_masks(h.keys(), n)
    phases = _index_masks(terms.z, n)
    if is_zz_only(h.keys()):
        # one row per term; the sum down axis 0 adds the rows in key order
        signed = h.values_array()[:, None] * _parity_sign(np.arange(dim) & phases[:, None])
        return DenseHamiltonian(n, signed.sum(axis=0))
    matrix = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for value, x, z in zip(h.values_array(), _index_masks(terms.x, n), phases):
        source, phase = _flip_and_phase(x, z, dim)
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
    """sqrt(Tr(H^dag H)), of the entries scaled by 2^-e, e the exponent of the largest.

    A power of two scales exactly, and the squares cannot overflow.  Summed
    with numpy's pairwise reduction rather than ``np.linalg.norm``, whose BLAS
    dot product rounds differently with the BLAS thread count.
    """
    m = h.matrix
    e = math.frexp(np.abs(m).max(initial=0.0))[1]
    squares = np.sum(np.square(np.ldexp(m.real, -e))) + np.sum(np.square(np.ldexp(m.imag, -e)))
    return math.ldexp(math.sqrt(squares), e)


@dataclass(frozen=True)
class ObservableSpec:
    """One Pauli string of unit norm, one row of ``PauliMasks`` (``PauliMasks.from_text(["IXI"])``)."""

    string: PauliMasks

    @property
    def n_qubits(self) -> int:
        return self.string.n_qubits

    @property
    def support(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(np.unpackbits(self.string.x | self.string.z, count=self.n_qubits)).tolist())

    @functools.cached_property
    def index_masks(self) -> tuple[int, int]:
        return int(_index_masks(self.string.x, self.n_qubits)[0]), int(_index_masks(self.string.z, self.n_qubits)[0])


def commutator_norm(h: np.ndarray, observable: ObservableSpec) -> float:
    """Spectral norm of [D, P] for a ZZ-only Hamiltonian's diagonal ``h`` = D.

    [D, P] = (D - P D P) P is a diagonal times a phased permutation, so its
    norm is max |d - d[idx ^ flips]| with ``flips`` the X and Y qubits of P.
    """
    if h.ndim != 1:
        raise ValidationError("the commutator norm takes a ZZ-only Hamiltonian's diagonal, not a full matrix")
    return float(np.abs(h - _conjugate(h, *observable.index_masks)).max(initial=0.0))


def single_qubit_observable(axis: str, qubit: int, n_qubits: int) -> ObservableSpec:
    """sigma^axis acting on one qubit, identity elsewhere."""
    if axis not in AXES:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= qubit < n_qubits:
        raise ValidationError(f"qubit {qubit} out of range for {n_qubits} qubits")
    return ObservableSpec(PauliMasks.from_axes((1, n_qubits), [0], [qubit], [axis]))


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


def _conjugate(h: np.ndarray, x: int, z: int) -> np.ndarray:
    """G H G for the gate layer G of index masks x, z; on a diagonal, x flips bits."""
    if h.ndim == 1:
        return h[np.arange(h.size) ^ x]
    # (G H G)[a, b] = phase[a] * H[source[a], source[b]] * conj(phase[b])
    source, phase = _flip_and_phase(x, z, h.shape[0])
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
    flips = _index_masks(schedule.patterns.x, n)
    if h.ndim == 1:
        phase = (np.array(schedule.times)[:, None] * h[np.arange(h.size) ^ flips[:, None]]).sum(axis=0)
        return np.exp(-1j * phase)
    evolve = _propagator(h)
    cycle = np.eye(2**n, dtype=complex)
    for x, z, time in zip(flips, _index_masks(schedule.patterns.z, n), schedule.times):
        # earlier blocks act first
        cycle = _conjugate(evolve(time / q), x, z) @ cycle
    return np.linalg.matrix_power(cycle, int(q))


def _expectation(observable: ObservableSpec, u: np.ndarray) -> float:
    """<+|U^dag P U|+> for the string P; ``u`` may be a diagonal given as a vector."""
    plus = plus_state(observable.n_qubits)
    state = u * plus if u.ndim == 1 else u @ plus
    source, phase = _flip_and_phase(*observable.index_masks, state.size)
    return float(np.vdot(state, phase * state[source]).real)


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
