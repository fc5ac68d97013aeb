"""Exact dense ground truth for small systems.

Builds Hermitian operators from coupling vectors, evaluates the two matrix
norms used by the stability analysis, replays schedules on |+>^N, and
measures the exact deviation of one observable between the ideal and the
faulty evolution of that state.  No unitary is ever formed: every evolution
acts on the state vector.  Every dense path goes through ``build_dense``, which
holds it to ``DEFAULT_QUBIT_CAP`` qubits; correctness over speed.

A Pauli string, be it a two-body term, a gate layer or the observable, is
never a matrix here.  ``blocks.basis_indices`` reads its ``PauliMasks`` as
basis-index masks, qubit 0 the top bit, and it acts by an index flip and a
phase, (P v)[t] = phase[t] * v[source[t]].  The per-qubit Z sign rows, the basis index range, |+>^N and
each single-qubit observable depend on N alone, so each is built once per N,
read-only.  A ZZ-only Hamiltonian is kept as its real 2^N diagonal, the sum
of h_ij Z_i Z_j in key order, and its replay adds up one real phase,
sum_k t_k G_k d G_k, since diagonal blocks commute; on ZZ couplings nothing
here allocates a 2^N x 2^N array.
Any other Hamiltonian is diagonalized once per replay, each block being
exp(-it GHG) = G exp(-itH) G for its gate layer G, applied to the state as
G (V exp(-it lambda) (V^dag (G psi))).  The replay conjugates by
the gate layers themselves, independently of the sign kernel in ``blocks``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import PauliMasks, basis_indices, term_masks
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

    matrix: np.ndarray


def _parity_sign(bits: np.ndarray) -> np.ndarray:
    """(-1)^(number of set bits), as floats: the product of Z on the qubits of ``bits``."""
    return 1.0 - 2.0 * (np.bitwise_count(bits) & 1)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.cache
def _basis(dim: int) -> np.ndarray:
    return _read_only(np.arange(dim))


@functools.cache
def _z_rows(n_qubits: int) -> np.ndarray:
    """Row q: the sign of Z on qubit q, bit N - 1 - q of the basis index."""
    return _read_only(_parity_sign(_basis(2**n_qubits) & (1 << np.arange(n_qubits - 1, -1, -1))[:, None]))


def _flip_and_phase(x: int, z: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P v)[t] = phase[t] * v[source[t]] for the string of index masks x, z.

    ``source`` flips the qubits of x; phase[t] = i^(#Y) * (-1)^(parity of source[t] & z), Y = x & z.
    """
    source = _basis(dim) ^ x
    return source, 1j ** (int(x & z).bit_count() % 4) * _parity_sign(source & z)


def build_dense(h: CouplingVector) -> DenseHamiltonian:
    """Sum of the two-body terms, each added at its flip and phase; Hermitian by construction."""
    _check_cap(h.n_qubits)
    n = h.n_qubits
    dim = 2**n
    if is_zz_only(h.keys()):
        # one row per term, Z_i Z_j exactly +/-1; the sum down axis 0 adds the rows in key order
        z = _z_rows(n)[np.array([key[:2] for key in h.keys()], dtype=np.intp).reshape(-1, 2).T]  # rows Z_i, Z_j
        return DenseHamiltonian((h.values_array()[:, None] * (z[0] * z[1])).sum(axis=0))
    terms = term_masks(h.keys(), n)
    matrix = np.zeros((dim, dim), dtype=complex)
    for value, x, z in zip(h.values_array(), basis_indices(terms.x, n), basis_indices(terms.z, n)):
        source, phase = _flip_and_phase(x, z, dim)
        matrix[_basis(dim), source] += value * phase
    return DenseHamiltonian(matrix)


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
    squares = np.sum(np.square(np.ldexp(m.real, -e)))
    if np.iscomplexobj(m):  # a real matrix's imaginary part would add +0.0
        squares += np.sum(np.square(np.ldexp(m.imag, -e)))
    return math.ldexp(math.sqrt(squares), e)


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """One Pauli string of unit norm, one row of ``PauliMasks`` (``PauliMasks.from_text(["IXI"])``)."""

    string: PauliMasks

    @property
    def n_qubits(self) -> int:
        return self.string.n_qubits

    @functools.cached_property
    def support(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(np.unpackbits(self.string.x | self.string.z, count=self.n_qubits)).tolist())

    @functools.cached_property
    def index_masks(self) -> tuple[int, int]:
        return tuple(int(basis_indices(bits, self.n_qubits)[0]) for bits in (self.string.x, self.string.z))

    @functools.cached_property
    def flip_and_phase(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_read_only, _flip_and_phase(*self.index_masks, 2**self.n_qubits)))


def commutator_norm(h: np.ndarray, observable: ObservableSpec) -> float:
    """Spectral norm of [D, P] for a ZZ-only Hamiltonian's diagonal ``h`` = D.

    [D, P] = (D - P D P) P is a diagonal times a phased permutation, so its
    norm is max |d - d[idx ^ flips]| with ``flips`` the X and Y qubits of P.
    """
    if h.ndim != 1:
        raise ValidationError("the commutator norm takes a ZZ-only Hamiltonian's diagonal, not a full matrix")
    return float(np.abs(h - h[_basis(h.size) ^ observable.index_masks[0]]).max(initial=0.0))


@functools.cache
def single_qubit_observable(axis: str, qubit: int, n_qubits: int) -> ObservableSpec:
    """sigma^axis acting on one qubit, identity elsewhere; one read-only spec per (axis, qubit, N)."""
    if axis not in AXES:
        raise ValidationError(f"axis must be one of x, y, z, got {axis!r}")
    if not 0 <= qubit < n_qubits:
        raise ValidationError(f"qubit {qubit} out of range for {n_qubits} qubits")
    string = PauliMasks.from_axes((1, n_qubits), [0], [qubit], [axis])
    _read_only(string.x)
    _read_only(string.z)
    return ObservableSpec(string)


# -- the initial state and its evolution --------------------------------------


@functools.cache
def plus_state(n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    return _read_only(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))


def _propagator(matrix: np.ndarray):
    """(time, psi) -> exp(-1j * time * H) psi for Hermitian H, diagonalized once; elementwise on a diagonal."""
    if matrix.ndim == 1:
        return lambda time, psi: np.exp(-1j * time * matrix) * psi
    eigvals, eigvecs = np.linalg.eigh(matrix)
    # V^dag psi as conj(V^T conj(psi)), so no conjugate copy of V is made
    return lambda time, psi: eigvecs @ (np.exp(-1j * time * eigvals) * (eigvecs.T @ psi.conj()).conj())


def evolution_unitary(h: CouplingVector, time: float) -> np.ndarray:
    """The state exp(-i * time * H)|+>^N for the Hamiltonian built from ``h``; the unitary is never formed."""
    return _propagator(build_dense(h).matrix)(time, plus_state(h.n_qubits))


def check_trotter_steps(q: int) -> None:
    if q < 1 or int(q) != q:
        raise ValidationError(f"trotter step count must be a positive integer, got {q!r}")


def replay_unitary(schedule, h_real: CouplingVector, q: int = 1) -> np.ndarray:
    """The state U|+>^N for U the block sequence run on the couplings ``h_real``.

    With ``q = 1`` the blocks act once each, the first block first.  With
    ``q > 1`` every block time is divided by ``q`` and the whole sequence is
    repeated ``q`` times (first-order interleaving).  Block k evolves under
    G_k H G_k, with H built and diagonalized once from ``h_real`` and G_k the
    gate layer of pattern k, so it acts as G_k exp(-i t_k H) G_k, each factor
    applied to the state.  On ZZ couplings the blocks commute, so for every
    ``q`` U is exp(-i sum_k t_k G_k d G_k), one phase per basis state.
    """
    check_trotter_steps(q)
    n = h_real.n_qubits
    if schedule.n_qubits != n:
        raise ValidationError("schedule and couplings disagree on the number of qubits")
    h = build_dense(h_real).matrix
    flips = basis_indices(schedule.patterns.x, n)
    state = plus_state(n)
    if h.ndim == 1:
        phase = (np.array(schedule.times)[:, None] * h[_basis(h.size) ^ flips[:, None]]).sum(axis=0)
        return np.exp(-1j * phase) * state
    evolve = _propagator(h)
    layers = [_flip_and_phase(x, z, state.size) for x, z in zip(flips, basis_indices(schedule.patterns.z, n))]
    for _ in range(int(q)):
        for (source, phase), time in zip(layers, schedule.times):
            # G v is phase * v[source]
            state = phase * evolve(time / q, phase * state[source])[source]
    return state


def _expectation(observable: ObservableSpec, state: np.ndarray) -> float:
    """<psi|P|psi> for the string P."""
    source, phase = observable.flip_and_phase
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
