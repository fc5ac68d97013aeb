"""Schedule synthesis: from target and source couplings to timed gate blocks.

The block times solve  M t = T * (h_P / h_S)  elementwise over a chosen row
set, minimizing the total analog time with t >= 0.  The LP solves for t / T
against the ratio h_P / h_S alone, so its tolerances hold at every
T, and the kept times are then multiplied by T.  The ratio is divided once,
by ``pauli.hadamard_divide``, which leaves the 0/0 indeterminate forms out,
so a row whose source entry is zero has a zero right-hand side.  Two row
policies exist for those couplings:

* ``RemoveZeros`` drops those rows, which minimizes the total time;
* ``MitigateZeros`` keeps every edge of the declared defect support with a
  zero right-hand side, forcing the block signs to cancel there so unmeasured
  couplings average away during the run.

Both modes take their candidate patterns, bit masks, from the defect support
alone, so paired syntheses of one problem differ only in their row sets, and
the removed-rows optimum is provably no longer than the mitigated one
whenever both solve over the same candidates: the whole space, as
``canonical_patterns`` lists it without a seed, while that listing
(``pattern_space_size``) holds at most ``EXHAUSTIVE_PATTERN_LIMIT`` patterns,
and above it a seeded sample, doubled on infeasibility up to the listing.

Patterns with equal sign columns are one variable to the LP, and every
copy reaches ``lp.solve`` as listed.  Row operations keep the copies
bit-identical to their first, and Dantzig's ``argmin``, Bland's first
negative index and the drive-out's ``argmax`` all take the first of equal
entries, so the simplex never enters a later copy: it times it zero and
makes the pivots and vertex of the program with each column once.
The whole space reaches the LP by decreasing alignment s(z) . (h_P / h_S),
ties in listing order, so each copy still follows its first, and the order
spares pivots; that sum is a numpy reduction, not a BLAS product, so the
order is the same at any thread count.

The program over the whole pattern space is always feasible: its rows are
distinct Walsh characters of the pattern group, so it has full row rank, and
its columns sum to zero, so any solution shifts to a nonnegative one.  An LP
verdict other than optimal there is a solver fault, not an infeasible target.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .blocks import EXHAUSTIVE_PATTERN_LIMIT, PauliMasks, build_sign_matrix, canonical_patterns, check_pattern
from .blocks import generate_candidate_patterns, pattern_alphabet, pattern_space_size, sign_weights
from .errors import InternalConsistencyError, ValidationError
from .pauli import FLOAT_DIGITS, CouplingKey, CouplingVector, _read_line_records, check_finite, hadamard_divide

#: a replay residual may be this fraction of the terms it sums (``within_replay_tol``);
#: on the default-scale acceptance sweeps (g = 100) those terms stay below 1300,
#: so every check there is below 1e-9 absolute
REPLAY_TOL = 5e-13


class SynthesisMode(enum.Enum):
    REMOVE_ZEROS = "remove"
    MITIGATE_ZEROS = "mitigate"

    @classmethod
    def from_name(cls, name: str) -> "SynthesisMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValidationError(f"unknown synthesis mode {name!r}; use 'remove' or 'mitigate'")


def _check_block_times(times) -> None:
    bad = [t for t in times if not (t >= 0 and math.isfinite(t))]
    if bad:
        raise ValidationError(f"block times must be finite and nonnegative, got {bad[0]}")


def _target_time(time: float) -> float:
    if not (time > 0 and math.isfinite(time)):
        raise ValidationError(f"target time must be positive and finite, got {time}")
    return time


@dataclass(frozen=True, eq=False)
class Schedule:
    """Timed sequence of gate patterns targeting ``h_P`` for time ``target_time``.

    The blocks are all it holds, so a schedule read back from its text has
    the blocks of the one written; the text is the only place its patterns
    are letters.
    """

    n_qubits: int
    patterns: PauliMasks
    times: tuple[float, ...]
    target_time: float
    mode: SynthesisMode

    def __post_init__(self):
        if (self.patterns.n_qubits, len(self.patterns)) != (self.n_qubits, len(self.times)):
            raise ValidationError(f"{len(self.patterns)} patterns on {self.patterns.n_qubits} qubits, expected "
                                  f"one per time ({len(self.times)}) on {self.n_qubits}")
        _check_block_times(self.times)
        _target_time(self.target_time)

    @property
    def n_blocks(self) -> int:
        return len(self.patterns)

    @functools.cached_property
    def total_analog_time(self) -> float:
        return float(np.sum(self.times)) if self.times else 0.0

    def to_text(self) -> str:
        lines = [
            f"n_qubits={self.n_qubits}",
            f"T={self.target_time:.{FLOAT_DIGITS}g}",
            f"mode={self.mode.value}",
        ]
        for pattern, time in zip(self.patterns.to_text(), self.times):
            lines.append(f"{pattern} {time:.{FLOAT_DIGITS}g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Schedule":
        """``to_text``'s format (``pauli._read_line_records``): headers ``n_qubits``, ``T``, ``mode``, then blocks."""
        patterns: list[str] = []
        times: list[float] = []

        def block(n_qubits: int, pattern: str, time: str) -> None:
            patterns.append(check_pattern(pattern, n_qubits))
            times.append(float(time))
            _check_block_times(times[-1:])

        parsers = {"T": lambda value: _target_time(float(value)), "mode": SynthesisMode.from_name}
        header = _read_line_records(text, parsers, "pattern time", "block", block)
        n_qubits = header["n_qubits"]
        return cls(n_qubits, PauliMasks.from_text(patterns, n_qubits), tuple(times), header["T"], header["mode"])

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Schedule":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _candidate_counts(total: int, defect_edge_count: int):
    if total <= EXHAUSTIVE_PATTERN_LIMIT:
        yield total
        return
    count = min(total, max(1, 2 * defect_edge_count + 1))
    while True:
        yield count
        if count >= total:
            return
        count = min(total, 2 * count)


def synthesize(
    h_problem: CouplingVector,
    h_source: CouplingVector,
    defect_support: tuple[CouplingKey, ...],
    target_time: float,
    mode: SynthesisMode,
    rng_seed: int,
) -> Schedule:
    """Build a schedule reproducing ``h_problem`` from ``h_source`` blocks.

    ``defect_support`` is the declared defect support, a canonical key tuple
    on the problem's qubits.  Requires the nonzero problem couplings to sit
    inside the nonzero source couplings, and those inside the defect support.
    ``rng_seed`` is read only to sample candidates from a listing above ``EXHAUSTIVE_PATTERN_LIMIT`` patterns.
    Raises ``InternalConsistencyError`` if even the whole pattern space admits
    no nonnegative solution, which the module docstring shows cannot happen.
    """
    _target_time(target_time)
    n = h_problem.n_qubits
    if h_source.n_qubits != n:
        raise ValidationError("problem and source disagree on system size")
    total = pattern_space_size(n, defect_support)  # checks the key tuple
    source_support = h_source.support()
    edges = frozenset(defect_support)
    if not edges.issuperset(source_support):
        missing = next(key for key in source_support if key not in edges)
        raise ValidationError(f"source coupling {missing} missing from the defect support")

    if mode is SynthesisMode.REMOVE_ZEROS:
        rows = source_support
    elif mode is SynthesisMode.MITIGATE_ZEROS:
        rows = defect_support
    else:
        raise ValidationError(f"unknown synthesis mode {mode!r}")
    # raises SimulabilityError for a problem coupling outside the source support;
    # a row without a source coupling is a 0/0 ratio, absent, so its rhs is 0
    rhs = hadamard_divide(h_problem, h_source).values_at(rows)

    if not rows:
        return Schedule(n, PauliMasks.from_text([], n), (), float(target_time), mode)

    alphabet = pattern_alphabet(defect_support)
    solution = None
    for requested in _candidate_counts(total, len(defect_support)):
        if whole := requested == total:
            patterns = canonical_patterns(n, alphabet)
        else:
            patterns = generate_candidate_patterns(n, defect_support, requested, rng_seed)
        entries = build_sign_matrix(patterns, rows).entries
        # copies of a column go in as listed: the LP enters only the first (module docstring)
        order = np.arange(len(patterns))
        if whole:  # most aligned with the target first, ties in listing order
            order = np.argsort(-(entries * rhs[:, None]).sum(axis=0), kind="stable")
            entries = entries[:, order]
        candidate = lp.solve(lp.LinearProgram(entries, rhs))
        if candidate.is_optimal:
            solution = candidate
            break
    if solution is None:
        raise InternalConsistencyError(
            f"the LP found no nonnegative block times over all {total} patterns, which always admit them"
        )

    kept = solution.times > 0.0
    schedule = Schedule(
        n_qubits=n,
        patterns=patterns[order[kept]],
        times=tuple((solution.times[kept] * target_time).tolist()),
        target_time=float(target_time),
        mode=mode,
    )
    _verify_schedule(schedule, rows, entries[:, kept], h_source, rhs)
    return schedule


def within_replay_tol(residual, schedule: Schedule, coupling):
    """Whether ``residual`` is the round-off of a replay through ``schedule``.

    A replay multiplies ``coupling`` by a sign weight w / T = sum_k t_k s_k / T,
    whose terms add up to t_A / T in magnitude, so the residual is measured
    against REPLAY_TOL * |coupling| * max(1, t_A / T).  A unit-free sign
    weight / T passes the coupling 1.  Elementwise on arrays.
    """
    spread = max(1.0, schedule.total_analog_time / schedule.target_time)
    return abs(residual) <= REPLAY_TOL * spread * abs(coupling)


def _verify_schedule(
    schedule: Schedule, rows: tuple[CouplingKey, ...], entries: np.ndarray, h_source, rhs: np.ndarray
) -> None:
    """Replay and cancellation invariants on ``rows``, from the kept blocks' sign columns ``entries``.

    ``rhs`` is the ratio h_P / h_S on the rows, so each sign weight is divided by T
    and the residual is unit-free: ``within_replay_tol`` takes it with the coupling 1.
    """
    residual = entries @ np.array(schedule.times) / schedule.target_time - rhs
    failed = (~within_replay_tol(residual, schedule, 1.0)).nonzero()[0]
    if failed.size:
        alpha = failed[0]
        key = rows[alpha]
        if h_source[key] != 0.0:
            what = f"replayed coupling {key} misses its target by {abs(residual[alpha] * h_source[key]):.3e}"
        else:
            what = f"mitigated row {key} has uncancelled sign weight/T {abs(residual[alpha]):.3e}"
        raise InternalConsistencyError(f"{what}, t_A/T {schedule.total_analog_time / schedule.target_time:.3e}")


def effective_couplings(schedule: Schedule, h_real: CouplingVector) -> CouplingVector:
    """First-order couplings the schedule realizes when run on ``h_real``.

    Entry alpha is (1/T) * sum_k t_k * sign(pattern_k, alpha) * h_real[alpha],
    evaluated over the keys ``h_real`` declares.
    """
    if h_real.n_qubits != schedule.n_qubits:
        raise ValidationError("couplings and schedule disagree on system size")
    keys = h_real.keys()
    weights = sign_weights(schedule.patterns, schedule.times, keys)
    return CouplingVector.from_sorted(h_real.n_qubits, keys, weights * h_real.values_array() / schedule.target_time)


def error_vector(
    schedule: Schedule,
    keys: tuple[CouplingKey, ...],
    weights: np.ndarray,
    problem: np.ndarray,
    source: np.ndarray,
    delta: np.ndarray,
    *,
    real: np.ndarray,
) -> CouplingVector:
    """Coupling error h_eps on ``keys`` of the schedule run on ``real`` = ``source + delta``.

    ``weights`` are the schedule's sign weights on ``keys`` (``sign_weights``)
    and the other arrays the couplings there, in key order.  Computed from the
    block-sum definition, then cross-checked on measured couplings against the
    closed form target_ratio * delta; disagreement signals a synthesis bug.
    On unmeasured couplings the real coupling equals delta, so a closed form
    would only repeat the block sum through the same sign kernel; the check
    independent of that kernel there is the exact replay of |+>^N through the
    gate layers themselves, ``dense.replay_unitary``.  The block sum
    multiplies the real coupling and the closed form delta, so the gap is
    measured against the source and the real coupling.
    """
    effective = weights * real / schedule.target_time
    check_finite(keys, effective)
    h_eps = CouplingVector.from_sorted(schedule.n_qubits, keys, effective - problem)
    measured = source != 0.0
    source, real = source[measured], real[measured]
    gap = h_eps.values_array()[measured] - problem[measured] * delta[measured] / source
    failed = (~within_replay_tol(gap, schedule, np.maximum(np.abs(source), np.abs(real)))).nonzero()[0]
    if failed.size:
        at = failed[0]
        raise InternalConsistencyError(
            f"error vector at {keys[measured.nonzero()[0][at]]} deviates {abs(gap[at]):.3e} from its closed form"
            f" (source {source[at]:.3e}, real {real[at]:.3e})"
        )
    return h_eps
