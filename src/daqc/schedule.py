"""Schedule synthesis: from target and source couplings to timed gate blocks.

The block times solve  M t = T * (h_P / h_S)  elementwise over a chosen row
set, minimizing the total analog time with t >= 0.  Two row policies exist
for couplings whose source entry is zero (the 0/0 indeterminate forms):

* ``RemoveZeros`` drops those rows, which minimizes the total time;
* ``MitigateZeros`` keeps every edge of the declared defect support with a
  zero right-hand side, forcing the block signs to cancel there so unmeasured
  couplings average away during the run.

Both modes draw their candidate patterns from the same seeded stream over
the defect support, so paired syntheses of one problem differ only in their
row sets.  That makes the removed-rows optimum provably no longer than the
mitigated one whenever both solve over the same candidate set.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .blocks import (
    build_sign_matrix,
    generate_candidate_patterns,
    pattern_space_size,
    sign_weights,
    validate_pattern,
)
from .errors import (
    InternalConsistencyError,
    SynthesisInfeasibleError,
    ValidationError,
)
from .pauli import FLOAT_DIGITS, CouplingKey, CouplingVector, InteractionGraph, hadamard_divide

#: schedules must reproduce their targets to this absolute tolerance
REPLAY_TOL = 1e-9

#: when the pattern space is at most this big, the LP sees every pattern;
#: beyond it, candidates start at 2*|defect edges|+1 and double on infeasibility
EXHAUSTIVE_PATTERN_LIMIT = 512


class SynthesisMode(enum.Enum):
    REMOVE_ZEROS = "remove"
    MITIGATE_ZEROS = "mitigate"

    @classmethod
    def from_name(cls, name: str) -> "SynthesisMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValidationError(f"unknown synthesis mode {name!r}; use 'remove' or 'mitigate'")


@dataclass(frozen=True)
class Schedule:
    """Timed sequence of gate patterns targeting ``h_P`` for time ``target_time``.

    ``rows`` records which couplings were constrained at synthesis time; it is
    ``None`` for schedules read back from text, where only the blocks survive.
    """

    n_qubits: int
    patterns: tuple[str, ...]
    times: tuple[float, ...]
    target_time: float
    mode: SynthesisMode
    rows: tuple[CouplingKey, ...] | None = None

    def __post_init__(self):
        if len(self.patterns) != len(self.times):
            raise ValidationError("patterns and times must have equal length")
        for p in self.patterns:
            validate_pattern(p, self.n_qubits)
        if any(t < 0 for t in self.times):
            raise ValidationError("block times must be nonnegative")
        if not (self.target_time > 0 and math.isfinite(self.target_time)):
            raise ValidationError(f"target time must be positive, got {self.target_time}")

    @property
    def n_blocks(self) -> int:
        return len(self.patterns)

    @property
    def total_analog_time(self) -> float:
        return float(np.sum(self.times)) if self.times else 0.0

    def to_text(self) -> str:
        lines = [
            f"n_qubits={self.n_qubits}",
            f"T={self.target_time:.{FLOAT_DIGITS}g}",
            f"mode={self.mode.value}",
        ]
        for pattern, time in zip(self.patterns, self.times):
            lines.append(f"{pattern} {time:.{FLOAT_DIGITS}g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Schedule":
        header: dict[str, str] = {}
        blocks: list[tuple[str, float]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line and not blocks:
                key, _, value = line.partition("=")
                if key in header:
                    raise ValidationError(f"line {lineno}: duplicate header {key!r}")
                header[key] = value
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(f"line {lineno}: expected 'pattern time', got {line!r}")
            try:
                blocks.append((parts[0], float(parts[1])))
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: bad block time in {line!r}") from exc
        missing = {"n_qubits", "T", "mode"} - set(header)
        if missing:
            raise ValidationError(f"schedule text lacks headers: {sorted(missing)}")
        try:
            n_qubits = int(header["n_qubits"])
            target_time = float(header["T"])
        except ValueError as exc:
            raise ValidationError("bad n_qubits or T header") from exc
        return cls(
            n_qubits=n_qubits,
            patterns=tuple(p for p, _ in blocks),
            times=tuple(t for _, t in blocks),
            target_time=target_time,
            mode=SynthesisMode.from_name(header["mode"]),
            rows=None,
        )

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
    defect_support: InteractionGraph,
    target_time: float,
    mode: SynthesisMode,
    rng_seed: int,
) -> Schedule:
    """Build a schedule reproducing ``h_problem`` from ``h_source`` blocks.

    Requires the nonzero problem couplings to sit inside the nonzero source
    couplings, and those inside the declared defect support.  Raises
    ``SynthesisInfeasibleError`` once every available pattern has been offered
    to the LP without finding a nonnegative solution.
    """
    if not (target_time > 0 and math.isfinite(target_time)):
        raise ValidationError(f"target time must be positive and finite, got {target_time}")
    if not (h_problem.n_qubits == h_source.n_qubits == defect_support.n_qubits):
        raise ValidationError("problem, source and defect support disagree on system size")
    source_support = set(h_source.support())
    if not source_support <= defect_support.edges:
        missing = sorted(source_support - defect_support.edges)[0]
        raise ValidationError(f"source coupling {missing} missing from the defect support")

    if mode is SynthesisMode.REMOVE_ZEROS:
        rows = tuple(sorted(source_support))
    elif mode is SynthesisMode.MITIGATE_ZEROS:
        rows = defect_support.sorted_edges()
    else:
        raise ValidationError(f"unknown synthesis mode {mode!r}")
    # raises SimulabilityError for a problem coupling outside the source support
    rhs = target_time * hadamard_divide(h_problem, h_source.restricted(rows), "zero").values_array()

    if not rows:
        return Schedule(h_problem.n_qubits, (), (), float(target_time), mode, rows)

    total = pattern_space_size(defect_support)
    solution = None
    patterns: list[str] = []
    for requested in _candidate_counts(total, defect_support.edge_count):
        patterns = generate_candidate_patterns(defect_support, requested, rng_seed)
        sign_entries = build_sign_matrix(patterns, rows).entries.astype(float)
        candidate = lp.solve(lp.LinearProgram(sign_entries, rhs))
        if candidate.is_optimal:
            solution = candidate
            break
    if solution is None:
        raise SynthesisInfeasibleError(
            f"no nonnegative block times reproduce the target even with all {total} patterns"
        )

    kept = [(p, float(t)) for p, t in zip(patterns, solution.times) if t > 0.0]
    schedule = Schedule(
        n_qubits=h_problem.n_qubits,
        patterns=tuple(p for p, _ in kept),
        times=tuple(t for _, t in kept),
        target_time=float(target_time),
        mode=mode,
        rows=rows,
    )
    _verify_schedule(schedule, sign_entries[:, solution.times > 0.0], h_source, rhs)
    return schedule


def _verify_schedule(schedule: Schedule, entries: np.ndarray, h_source, rhs: np.ndarray) -> None:
    """Replay and cancellation invariants, from the kept blocks' sign columns ``entries``."""
    residual = entries @ np.array(schedule.times) - rhs
    T = schedule.target_time
    for alpha, key in enumerate(schedule.rows):
        if h_source[key] != 0.0:
            err = abs(residual[alpha] * h_source[key] / T)
            what = f"replayed coupling {key} misses its target by {err:.3e}"
        else:
            err = abs(residual[alpha])
            what = f"mitigated row {key} has uncancelled sign weight {err:.3e}"
        if err > REPLAY_TOL:
            raise InternalConsistencyError(what)


def effective_couplings(schedule: Schedule, h_real: CouplingVector) -> CouplingVector:
    """First-order couplings the schedule realizes when run on ``h_real``.

    Entry alpha is (1/T) * sum_k t_k * sign(pattern_k, alpha) * h_real[alpha],
    evaluated over the union of the real support and the constrained rows.
    """
    if h_real.n_qubits != schedule.n_qubits:
        raise ValidationError("couplings and schedule disagree on system size")
    keys = sorted(set(h_real.keys()) | set(schedule.rows or ()))
    T = schedule.target_time
    weights = sign_weights(schedule.patterns, schedule.times, keys)
    return CouplingVector(
        h_real.n_qubits, {key: w * h_real[key] / T for key, w in zip(keys, weights)}
    )


def error_vector(
    schedule: Schedule,
    h_problem: CouplingVector,
    h_source: CouplingVector,
    h_delta: CouplingVector,
) -> CouplingVector:
    """Coupling error h_eps of the schedule run on ``h_source + h_delta``.

    Computed from the block-sum definition, then cross-checked against the
    closed forms (target_ratio * delta on measured couplings, block sign sum
    times delta elsewhere); disagreement signals a synthesis bug.  On
    unmeasured couplings h_real equals h_delta, so the closed form repeats the
    block sum through the same sign kernel and cannot catch a sign fault there;
    the check independent of that kernel is the exact replay,
    ``dense.replay_unitary``.
    """
    h_real = h_source + h_delta
    h_eps = effective_couplings(schedule, h_real) - h_problem
    T = schedule.target_time
    unmeasured = [key for key in h_eps.keys() if h_source[key] == 0.0]
    weights = dict(zip(unmeasured, sign_weights(schedule.patterns, schedule.times, unmeasured)))
    for key in h_eps.keys():
        if key in weights:
            closed = weights[key] * h_delta[key] / T
        else:
            closed = h_problem[key] * h_delta[key] / h_source[key]
        gap = abs(h_eps[key] - closed)
        if gap > REPLAY_TOL:
            raise InternalConsistencyError(
                f"error vector at {key} deviates {gap:.3e} from its closed form"
            )
    return h_eps
