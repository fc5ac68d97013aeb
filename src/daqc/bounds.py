"""Defect sampling and the analytic error bounds, with exact counterparts.

The bounds are scalar formulas in the schedule-level numbers: the total
analog time t_A, the target time T, the unmeasured edge count |E|, the
degrees deg(P) and deg(D\\S), and norms of the ratio vector h_P/h_S from
``pauli.hadamard_divide``, which leaves 0/0 ratios out.  They return upper
bounds on norms of the coupling error and on the deviation of an
observable's expectation value.  ``evaluate_bounds`` packages one full
evaluation: it forms each of those numbers once, hands the same floats to
the formulas and to the report, and pairs every bound with its exact dense
value when the system is small enough.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dense
from .blocks import sign_weights
from .errors import ValidationError
from .pauli import CouplingKey, CouplingVector, _check_sorted, hadamard_divide, max_degree, vector_p_norm
from .schedule import Schedule, SynthesisMode, error_vector, within_replay_tol

#: "much smaller than" thresholds used for the validity-regime flags
SMALL_DEFECT_FACTOR = 1e-2
SHORT_TIME_LIMIT = 0.1


@dataclass(frozen=True)
class DefectSample:
    """One draw of unknown coupling deviations, entrywise bounded by ``delta``: a larger one raises."""

    h_delta: CouplingVector
    delta: float

    def __post_init__(self):
        magnitudes = np.abs(self.h_delta.values_array())
        if magnitudes.max(initial=0.0) > self.delta:
            bad = int(np.flatnonzero(magnitudes > self.delta)[0])
            key = self.h_delta.keys()[bad]
            raise ValidationError(f"defect coupling {key} exceeds delta {self.delta} in magnitude")


def sample_defect(n_qubits: int, support: tuple[CouplingKey, ...], delta: float, rng_seed: int) -> DefectSample:
    """Uniform entries in [-delta, delta] on every edge of ``support``, a canonical key tuple on ``n_qubits`` qubits.

    ``CouplingVector.from_sorted`` checks the key tuple.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    rng = np.random.default_rng(rng_seed)
    values = rng.uniform(-delta, delta, size=len(support))
    return DefectSample(CouplingVector.from_sorted(n_qubits, support, values), float(delta))


def _edge_count_root(e_ds: int, p: float) -> float:
    # |E|^(1/p), so 1 at p = inf for any |E| > 0; 0^0 would be 1
    if e_ds == 0:
        return 0.0
    return float(e_ds) ** (1.0 / p)


def p_norm_error_bound(
    ratio_norm: float,
    delta: float,
    target_time: float,
    total_analog_time: float,
    e_ds: int,
    p: float,
) -> float:
    """Bound on the p-norm of the coupling error vector, from ``ratio_norm`` = ||h_P/h_S||_p.

    delta * ||h_P/h_S||_p over the measured couplings, plus
    delta * (t_A/T) * |E|^(1/p) for the |E| unmeasured defect edges.  At
    p = 1 it bounds the operator norm of the error Hamiltonian, a sum of
    Pauli strings of unit norm.  Adding the two parts is the triangle
    inequality, which fails below p = 1, so such orders are rejected.
    """
    if not target_time > 0:
        raise ValidationError(f"target time must be positive, got {target_time}")
    if not p >= 1:  # also -inf and nan
        raise ValidationError(f"norm order must be at least 1 or inf, got {p!r}")
    return delta * ratio_norm + delta * (total_analog_time / target_time) * _edge_count_root(e_ds, p)


def frobenius_stability_factor(
    ratio_norm_2: float,
    total_analog_time: float,
    target_time: float,
    e_ds: int,
) -> float:
    """Dimensionless multiplier f with ||H_eps||_F <= f * ||H_delta||_F.

    f = sqrt(||h_P/h_S||_2^2 + |E| * (t_A/T)^2), from ``ratio_norm_2`` = ||h_P/h_S||_2.
    """
    if not target_time > 0:
        raise ValidationError(f"target time must be positive, got {target_time}")
    return math.sqrt(ratio_norm_2**2 + e_ds * (total_analog_time / target_time) ** 2)


def expectation_error_bound(
    supp_observable: int,
    op_norm_observable: float,
    deg_problem: int,
    deg_defect_only: int,
    h_ratio_inf: float,
    delta: float,
    target_time: float,
    total_analog_time: float,
) -> float:
    """Small-defect, short-time bound on the expectation-value deviation.

    6*T*delta*supp(O)*deg(P)*||O||*||h_P/h_S||_inf for the measured couplings
    plus 6*t_A*delta*supp(O)*deg(D\\S)*||O|| for the unmeasured ones.  Once
    the unmeasured couplings cancel exactly (mitigated), deg(D\\S) = 0 and
    t_A = 0 leave the first term alone.  The validity regime (defects far
    below the source couplings, T*||H_S|| << 1) is the caller's responsibility.
    """
    first = 6.0 * target_time * delta * supp_observable * deg_problem * op_norm_observable * h_ratio_inf
    second = 6.0 * total_analog_time * delta * supp_observable * deg_defect_only * op_norm_observable
    return first + second


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds next to exact dense values for one schedule + defect.

    For mitigated schedules the coupling-error bounds keep only their
    measured-coupling term, after verifying that the block signs cancel on
    every unmeasured edge; ``frobenius_factor`` always carries the full
    protocol-level expression.  ``exact_op_norm`` is absent above the dense
    cap, while ``exact_frobenius`` then falls back to the orthogonality
    identity 2^(N/2) * ||h_eps||_2, which is exact for two-body sums.
    """

    n_qubits: int
    mode: str
    delta: float
    target_time: float
    total_analog_time: float
    source_edge_count: int
    defect_edge_count: int
    defect_only_edge_count: int
    problem_degree: int
    defect_only_degree: int
    ratio_norm_1: float
    ratio_norm_2: float
    ratio_norm_inf: float
    requested_p: float
    p_norm_bound: float
    op_norm_bound: float
    frobenius_factor: float
    defect_frobenius: float
    frobenius_bound: float
    observable_support: int
    observable_norm: float
    expectation_bound: float
    expectation_bound_mitigated: float
    exact_op_norm: float | None
    exact_frobenius: float | None
    exact_delta_o: float | None
    commutator_bound: float | None
    small_defect: bool
    short_time: bool


def evaluate_bounds(
    h_problem: CouplingVector,
    h_source: CouplingVector,
    defect_support: tuple[CouplingKey, ...],
    schedule: Schedule,
    defect: DefectSample,
    observable: dense.ObservableSpec | None = None,
    requested_p: float = 2.0,
    q: int = 1,
) -> BoundReport:
    """Evaluate every bound for one (problem, source, schedule, defect) tuple.

    ``defect_support`` is the declared defect support, a canonical key tuple
    on the problem's qubits, and holds every key of the defect sample.
    The observable is one Pauli string, so ||O|| = 1; without one the
    expectation bounds are reported for a generic single-site string.  Exact
    dense quantities (operator and Frobenius norm, the deviation of the
    observable measured from |+>^N after ``q`` Trotter steps, and the
    commutator bound on ZZ-only couplings) are computed only up to
    ``dense.DEFAULT_QUBIT_CAP`` qubits.  The ``short_time`` flag,
    ``T ||H_S||_op < SHORT_TIME_LIMIT``, is decided by the bounds
    ``||h_S||_2 <= ||H_S||_op <= ||h_S||_1`` at any size, and by the dense
    norm up to the cap where they straddle the limit; above the cap a
    straddled flag is False.  A mitigated schedule whose block signs do not
    cancel on an unmeasured edge, to ``schedule.within_replay_tol``, is not
    one synthesized for this support: that raises ``ValidationError``.
    """
    dense.check_trotter_steps(q)
    n = h_problem.n_qubits
    _check_sorted(defect_support, n)
    if not frozenset(defect_support).issuperset(defect.h_delta.keys()):
        raise ValidationError("defect sample declares couplings outside the defect support")

    measured = frozenset(h_source.support())
    unmeasured = tuple(key for key in defect_support if key not in measured)
    e_ds = len(unmeasured)
    t_a = schedule.total_analog_time
    target_time = schedule.target_time
    delta = defect.delta

    mitigated = schedule.mode is SynthesisMode.MITIGATE_ZEROS
    if mitigated:
        weights = sign_weights(schedule.patterns, schedule.times, unmeasured)
        uncancelled = (~within_replay_tol(weights / target_time, schedule, 1.0)).nonzero()[0]
        if uncancelled.size:
            at = uncancelled[0]
            raise ValidationError(
                f"mitigated schedule leaves sign weight {weights[at]:.3e} on unmeasured edge {unmeasured[at]}"
            )
    effective_e_ds = 0 if mitigated else e_ds

    h_real = h_source + defect.h_delta
    h_eps = error_vector(schedule, h_problem, h_source, defect.h_delta, h_real=h_real)
    ratios = hadamard_divide(h_problem, h_source)
    # each distinct order once; the formulas and the report read the same floats
    ratio_norm = {p: vector_p_norm(ratios, p) for p in dict.fromkeys((1.0, 2.0, math.inf, requested_p))}

    p_bound = p_norm_error_bound(ratio_norm[requested_p], delta, target_time, t_a, effective_e_ds, requested_p)
    op_bound = p_norm_error_bound(ratio_norm[1.0], delta, target_time, t_a, effective_e_ds, 1.0)
    frob_factor = frobenius_stability_factor(ratio_norm[2.0], t_a, target_time, e_ds)
    defect_frob = 2.0 ** (n / 2.0) * vector_p_norm(defect.h_delta, 2.0)
    frob_bound = frob_factor * defect_frob

    supp_o = len(observable.support) if observable is not None else 1
    norm_o = 1.0
    deg_p = max_degree(h_problem.support(), n)
    deg_ds = max_degree(unmeasured, n)
    exp_bound = expectation_error_bound(
        supp_o, norm_o, deg_p, deg_ds, ratio_norm[math.inf], delta, target_time, t_a
    )
    exp_bound_mit = expectation_error_bound(supp_o, norm_o, deg_p, 0, ratio_norm[math.inf], delta, target_time, 0.0)

    exact_op = exact_frob = exact_delta_o = commutator_bound = None
    if n <= dense.DEFAULT_QUBIT_CAP:
        h_eps_dense = dense.build_dense(h_eps)
        exact_op = dense.operator_norm(h_eps_dense)
        exact_frob = dense.frobenius_norm(h_eps_dense)
        if observable is not None:
            exact_delta_o = dense.expectation_deviation(h_problem, schedule, h_real, observable, q=q)
            # h_eps declares every key of h_problem, h_source and h_delta: diagonal iff all three are ZZ-only
            if h_eps_dense.matrix.ndim == 1:
                commutator_bound = target_time * dense.commutator_norm(h_eps_dense.matrix, observable)
    else:
        exact_frob = 2.0 ** (n / 2.0) * vector_p_norm(h_eps, 2.0)

    source_values = [abs(value) for value in h_source.values_array().tolist() if value != 0.0]
    small_defect = bool(source_values) and delta < SMALL_DEFECT_FACTOR * min(source_values)
    # ||h_S||_2 <= ||H_S||_op <= ||h_S||_1 for a sum of distinct Pauli strings;
    # the dense norm decides only where these two straddle the limit
    short_time = target_time * vector_p_norm(h_source, 1.0) < SHORT_TIME_LIMIT
    straddled = not short_time and target_time * vector_p_norm(h_source, 2.0) < SHORT_TIME_LIMIT
    if straddled and n <= dense.DEFAULT_QUBIT_CAP:
        short_time = target_time * dense.operator_norm(dense.build_dense(h_source)) < SHORT_TIME_LIMIT

    return BoundReport(
        n_qubits=n,
        mode=schedule.mode.value,
        delta=delta,
        target_time=target_time,
        total_analog_time=t_a,
        source_edge_count=len(measured),
        defect_edge_count=len(defect_support),
        defect_only_edge_count=e_ds,
        problem_degree=deg_p,
        defect_only_degree=deg_ds,
        ratio_norm_1=ratio_norm[1.0],
        ratio_norm_2=ratio_norm[2.0],
        ratio_norm_inf=ratio_norm[math.inf],
        requested_p=float(requested_p),
        p_norm_bound=p_bound,
        op_norm_bound=op_bound,
        frobenius_factor=frob_factor,
        defect_frobenius=defect_frob,
        frobenius_bound=frob_bound,
        observable_support=supp_o,
        observable_norm=norm_o,
        expectation_bound=exp_bound,
        expectation_bound_mitigated=exp_bound_mit,
        exact_op_norm=exact_op,
        exact_frobenius=exact_frob,
        exact_delta_o=exact_delta_o,
        commutator_bound=commutator_bound,
        small_defect=small_defect,
        short_time=short_time,
    )
