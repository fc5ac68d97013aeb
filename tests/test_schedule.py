import itertools
import math

import numpy as np
import pytest

from daqc import bounds, lp, schedule
from daqc.blocks import PauliMasks, build_sign_matrix, canonical_patterns, generate_candidate_patterns
from daqc.blocks import pattern_space_size, sign_weights
from daqc.errors import InternalConsistencyError, SimulabilityError, ValidationError
from daqc.harness import TopologySpec, derive_seed, generate_problem
from daqc.pauli import AXES, CouplingKey, CouplingVector, hadamard_divide
from daqc.schedule import (
    EXHAUSTIVE_PATTERN_LIMIT,
    REPLAY_TOL,
    Schedule,
    _verify_schedule,
    within_replay_tol,
    SynthesisMode,
    effective_couplings,
    synthesize,
)
from helpers import error_vector_of, same

REMOVE = SynthesisMode.REMOVE_ZEROS
MITIGATE = SynthesisMode.MITIGATE_ZEROS


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


@pytest.fixture
def three_qubit_setup():
    h_source = CouplingVector(3, {zz(0, 1): 2.0, zz(0, 2): 3.0})
    defect = (zz(0, 1), zz(0, 2), zz(1, 2))
    return h_source, defect


def test_mitigated_three_qubit_time(three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0, MITIGATE, rng_seed=5)
    assert sched.total_analog_time == pytest.approx(2.0, abs=1e-9)
    # the unmeasured edge is a constrained row: its block signs cancel
    assert abs(sign_weights(sched.patterns, sched.times, [zz(1, 2)])[0]) <= 1e-9


def test_removed_three_qubit_time(three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0, REMOVE, rng_seed=5)
    assert sched.total_analog_time == pytest.approx(1.0, abs=1e-9)
    # only the source support is constrained, and it is reproduced
    realized = effective_couplings(sched, h_source)
    assert all(realized[key] == pytest.approx(h_source[key], abs=1e-9) for key in h_source.support())


def test_identity_target_takes_unit_time():
    h = CouplingVector(4, {zz(i, i + 1): 1.0 + 0.5 * i for i in range(3)})
    sched = synthesize(h, h, h.support(), 1.0, REMOVE, rng_seed=1)
    assert sched.total_analog_time == pytest.approx(1.0, abs=1e-9)
    replay = effective_couplings(sched, h)
    for key in h.keys():
        assert replay[key] == pytest.approx(h[key], abs=1e-9)


def test_simulability_violations_raise(three_qubit_setup):
    h_source, defect = three_qubit_setup
    h_problem = CouplingVector(3, {zz(1, 2): 1.0})
    with pytest.raises(SimulabilityError):
        synthesize(h_problem, h_source, defect, 1.0, REMOVE, rng_seed=0)
    small_defect = (zz(0, 1),)
    with pytest.raises(ValidationError):
        synthesize(h_source, h_source, small_defect, 1.0, REMOVE, rng_seed=0)


def test_bad_target_time(three_qubit_setup):
    h_source, defect = three_qubit_setup
    with pytest.raises(ValidationError):
        synthesize(h_source, h_source, defect, 0.0, REMOVE, rng_seed=0)


def test_empty_problem_yields_empty_schedule():
    h = CouplingVector(3)
    sched = synthesize(h, h, (), 1.0, REMOVE, rng_seed=0)
    assert sched.n_blocks == 0
    assert sched.total_analog_time == 0.0


def test_replay_identity_on_source(three_qubit_setup):
    h_source, defect = three_qubit_setup
    h_problem = CouplingVector(3, {zz(0, 1): -1.0, zz(0, 2): 1.5})
    for mode in (REMOVE, MITIGATE):
        sched = synthesize(h_problem, h_source, defect, 1.0, mode, rng_seed=3)
        replay = effective_couplings(sched, h_source)
        for key in h_source.support():
            assert replay[key] == pytest.approx(h_problem[key], abs=1e-9)


@pytest.mark.parametrize("scale", [1.0, 100.0, 2e7, 1e200])
def test_verify_schedule_measures_each_row_against_its_couplings(scale):
    # row (0,1) is measured and realizes ratio 1; row (1,2) is mitigated and cancels
    rows = (zz(0, 1), zz(1, 2))
    entries = np.array([[1.0, 1.0], [1.0, -1.0]])
    h_source = CouplingVector(3, {zz(0, 1): scale})
    sched = Schedule(3, PauliMasks.from_text(["III", "IXI"]), (0.5, 0.5), 1.0, REMOVE)
    _verify_schedule(sched, rows, entries, h_source, np.array([1.0 + 0.5 * REPLAY_TOL, 0.0]))
    with pytest.raises(InternalConsistencyError, match="replayed coupling \\(0,1,z,z\\) misses its target"):
        _verify_schedule(sched, rows, entries, h_source, np.array([1.0 + 2 * REPLAY_TOL, 0.0]))
    uneven = Schedule(3, PauliMasks.from_text(["III", "IXI"]), (0.5, 0.5 + 2 * REPLAY_TOL), 1.0, REMOVE)
    with pytest.raises(InternalConsistencyError, match="mitigated row \\(1,2,z,z\\) has uncancelled"):
        _verify_schedule(uneven, rows, entries, h_source, np.array([1.0 + 2 * REPLAY_TOL, 0.0]))


def test_replay_tolerance_grows_with_the_analog_time():
    # the terms of a sign weight w / T add up to t_A / T, here 1e4
    sched = Schedule(3, PauliMasks.from_text(["III", "IXI"]), (5e3, 5e3), 1.0, MITIGATE)
    assert within_replay_tol(0.9e4 * REPLAY_TOL, sched, 1.0)
    assert not within_replay_tol(1.1e4 * REPLAY_TOL, sched, 1.0)
    assert within_replay_tol(0.9e4 * REPLAY_TOL * 50.0, sched, -50.0)
    assert not within_replay_tol(1.1e4 * REPLAY_TOL * 50.0, sched, -50.0)
    short = Schedule(3, PauliMasks.from_text(["III"]), (0.25,), 1.0, REMOVE)
    assert not within_replay_tol(1.1 * REPLAY_TOL, short, 1.0)


def test_mitigated_schedule_for_a_source_far_weaker_than_the_problem():
    # ratios h_P / h_S near 1e4 make t_A / T near 1e4, and the cancelled sign
    # weights carry round-off in proportion (6.4e-12 per unit of T here)
    trial_seed = derive_seed(5, "nn", 7, 24)
    h_problem, h_source, defect_support = generate_problem(
        TopologySpec("nn", 7), 100.0, derive_seed(trial_seed, "problem")
    )
    h_source = CouplingVector(7, {key: 1e-4 * h_source[key] for key in h_source.keys()})
    sched = synthesize(h_problem, h_source, defect_support, 1.0, MITIGATE, derive_seed(trial_seed, "patterns"))
    assert sched.total_analog_time > 1e4
    defect = bounds.sample_defect(7, defect_support, 1e-6, derive_seed(trial_seed, "defect"))
    report = bounds.evaluate_bounds(h_problem, h_source, defect_support, sched, defect)
    assert report.exact_op_norm <= report.op_norm_bound


def test_effective_couplings_vanish_on_mitigated_rows(three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0, MITIGATE, rng_seed=8)
    ghost = CouplingVector(3, {zz(1, 2): 7.0})  # lives only on the unmeasured edge
    assert abs(effective_couplings(sched, ghost)[zz(1, 2)]) <= 1e-9


def test_error_vector_zero_defect(three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0, REMOVE, rng_seed=2)
    h_eps = error_vector_of(sched, h_source, h_source, CouplingVector(3))
    assert all(abs(v) <= 1e-9 for v in h_eps.values_array())


def test_error_vector_single_coupling_closed_form():
    h_source = CouplingVector(2, {zz(0, 1): 2.0})
    h_problem = CouplingVector(2, {zz(0, 1): 1.0})
    sched = synthesize(h_problem, h_source, (zz(0, 1),), 1.0, REMOVE, rng_seed=0)
    h_delta = CouplingVector(2, {zz(0, 1): 0.1})
    h_eps = error_vector_of(sched, h_problem, h_source, h_delta)
    assert h_eps[zz(0, 1)] == pytest.approx(0.05, abs=1e-12)


def test_error_vector_mitigated_defect_only_is_zero(three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0, MITIGATE, rng_seed=4)
    h_delta = CouplingVector(3, {zz(1, 2): 9.9})
    h_eps = error_vector_of(sched, h_source, h_source, h_delta)
    assert all(abs(v) <= 1e-9 for v in h_eps.values_array())


def test_error_vector_on_source_support_closed_form(three_qubit_setup):
    h_source, defect = three_qubit_setup
    h_problem = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): -2.0})
    sched = synthesize(h_problem, h_source, defect, 1.0, MITIGATE, rng_seed=4)
    h_delta = CouplingVector(3, {zz(0, 1): 0.2, zz(0, 2): -0.4, zz(1, 2): 3.0})
    h_eps = error_vector_of(sched, h_problem, h_source, h_delta)
    assert h_eps[zz(0, 1)] == pytest.approx(1.0 * 0.2 / 2.0, abs=1e-10)
    assert h_eps[zz(0, 2)] == pytest.approx(-2.0 * -0.4 / 3.0, abs=1e-10)
    assert h_eps[zz(1, 2)] == pytest.approx(0.0, abs=1e-9)


def test_error_vector_cross_check_fires_on_a_schedule_for_another_problem(three_qubit_setup):
    # the schedule realizes h_other, so on (0,1) its block sum misses the
    # closed form h_P * h_delta / h_S of the problem it is handed
    h_source, defect = three_qubit_setup
    h_problem = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): -2.0})
    h_other = CouplingVector(3, {zz(0, 1): -1.0, zz(0, 2): -2.0})
    sched = synthesize(h_other, h_source, defect, 1.0, MITIGATE, rng_seed=4)
    h_delta = CouplingVector(3, {zz(0, 1): 0.2, zz(0, 2): -0.4, zz(1, 2): 3.0})
    with pytest.raises(InternalConsistencyError, match=r"error vector at \(0,1,z,z\) deviates"):
        error_vector_of(sched, h_problem, h_source, h_delta)


def test_error_vector_cross_check_names_a_later_measured_key():
    # the schedule matches the problem on (0,1) and (0,3) but realizes the
    # other sign on (2,3); unmeasured keys (0,2) and (1,3) come in between
    h_source = CouplingVector(4, {zz(0, 1): 2.0, zz(0, 3): -1.5, zz(2, 3): 3.0})
    defect = (zz(0, 1), zz(0, 2), zz(0, 3), zz(1, 3), zz(2, 3))
    h_problem = CouplingVector(4, {zz(0, 1): 1.0, zz(0, 3): 0.5, zz(2, 3): -2.0})
    h_other = CouplingVector(4, {zz(0, 1): 1.0, zz(0, 3): 0.5, zz(2, 3): 2.0})
    sched = synthesize(h_other, h_source, defect, 1.0, MITIGATE, rng_seed=4)
    h_delta = CouplingVector(4, {key: 0.1 * (k + 1) for k, key in enumerate(defect)})
    error_vector_of(sched, h_other, h_source, h_delta)
    with pytest.raises(InternalConsistencyError, match=r"error vector at \(2,3,z,z\) deviates .* \(source 3\.000e\+00, real 3\.500e\+00\)"):
        error_vector_of(sched, h_problem, h_source, h_delta)


def test_mode_time_ordering_and_ata_coincidence():
    rng = np.random.default_rng(17)
    for trial in range(30):
        kind = ("nn", "random", "ata")[trial % 3]
        spec = TopologySpec(kind, int(rng.integers(3, 6)))
        h_p, h_s, defect = generate_problem(spec, 100.0, int(rng.integers(0, 2**32)))
        seed = int(rng.integers(0, 2**32))
        removed = synthesize(h_p, h_s, defect, 1.0, REMOVE, seed)
        mitigated = synthesize(h_p, h_s, defect, 1.0, MITIGATE, seed)
        assert removed.total_analog_time <= mitigated.total_analog_time + 1e-9
        if kind == "ata":
            assert removed.total_analog_time == pytest.approx(
                mitigated.total_analog_time, abs=1e-9
            )


def test_target_time_homogeneity(three_qubit_setup):
    h_source, defect = three_qubit_setup
    h_problem = CouplingVector(3, {zz(0, 1): 1.2, zz(0, 2): -0.8})
    base = synthesize(h_problem, h_source, defect, 1.0, MITIGATE, rng_seed=6)
    doubled = synthesize(h_problem, h_source, defect, 2.0, MITIGATE, rng_seed=6)
    assert doubled.total_analog_time == pytest.approx(2 * base.total_analog_time, rel=1e-9)


def test_schedule_text_round_trip_is_bit_exact(three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0 / 3.0, MITIGATE, rng_seed=12)
    again = Schedule.from_text(sched.to_text())
    assert same(again.patterns, sched.patterns)
    assert again.times == sched.times
    assert again.target_time == sched.target_time
    assert again.mode == sched.mode
    assert same(again, sched)
    assert again.to_text() == sched.to_text()


def test_schedule_save_load(tmp_path, three_qubit_setup):
    h_source, defect = three_qubit_setup
    sched = synthesize(h_source, h_source, defect, 1.0, REMOVE, rng_seed=12)
    path = tmp_path / "schedule.txt"
    sched.save(path)
    assert Schedule.load(path).to_text() == sched.to_text()


def test_schedule_text_validation():
    with pytest.raises(ValidationError):
        Schedule.from_text("n_qubits=2\nT=1\n")  # missing mode
    with pytest.raises(ValidationError):
        Schedule.from_text("n_qubits=2\nT=1\nmode=remove\nIX not_a_number\n")
    with pytest.raises(ValidationError):
        Schedule.from_text("n_qubits=2\nT=1\nmode=sideways\n")


def test_schedule_invariant_checks():
    with pytest.raises(ValidationError):
        Schedule(2, PauliMasks.from_text(["II"]), (-0.5,), 1.0, REMOVE)
    with pytest.raises(ValidationError):
        Schedule(2, PauliMasks.from_text(["II", "IX"]), (0.5,), 1.0, REMOVE)
    with pytest.raises(ValidationError):
        Schedule(2, PauliMasks.from_text(["II"]), (0.5,), math.inf, REMOVE)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="block times must be finite and nonnegative"):
            Schedule(2, PauliMasks.from_text(["II", "IX"]), (0.5, bad), 1.0, REMOVE)


def test_synthesis_determinism(three_qubit_setup):
    h_source, defect = three_qubit_setup
    a = synthesize(h_source, h_source, defect, 1.0, MITIGATE, rng_seed=33)
    b = synthesize(h_source, h_source, defect, 1.0, MITIGATE, rng_seed=33)
    assert a.to_text() == b.to_text()


def _recorded_programs(monkeypatch):
    """Every (program, solution) of ``lp.solve`` from here on, in call order."""
    solve = lp.solve
    solved = []

    def recording_solve(program):
        solved.append((program, solve(program)))
        return solved[-1][1]

    monkeypatch.setattr(lp, "solve", recording_solve)
    return solved


def _whole_space_listing(n, defect):
    """The whole pattern space in digit order; on ZZ supports, the half with qubit 0 unflipped."""
    if all(key.mu == key.nu == "z" for key in defect):
        return ["I" + "".join(p) for p in itertools.product("IX", repeat=n - 1)]
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


def _check_the_whole_space_program(program, solution, sched, listing, rows):
    """The program holds every pattern of ``listing``, copies of a sign column included, by
    non-increasing alignment with the ratio rhs, ties in listing order; returns its column count."""
    entries = build_sign_matrix(PauliMasks.from_text(listing), rows).entries.astype(float)
    alignment = (entries * program.rhs[:, None]).sum(axis=0).tolist()
    order = sorted(range(len(listing)), key=lambda k: (-alignment[k], k))
    assert program.constraint_matrix.tobytes() == entries[:, order].tobytes()
    assert sched.patterns.to_text() == [listing[k] for k, t in zip(order, solution.times) if t > 0.0]
    return program.n_cols


def _xx_yy_problem():
    """An XX+YY chain on three qubits, with the (0, 2) pair unmeasured."""
    rng = np.random.default_rng(3)
    chain = [CouplingKey(i, i + 1, a, a) for i in range(2) for a in "xy"]
    h_source = CouplingVector(3, {key: rng.uniform(1.0, 2.0) for key in chain})
    h_problem = CouplingVector(3, {key: rng.uniform(-1.0, 1.0) for key in chain})
    return h_problem, h_source, tuple(sorted(chain + [CouplingKey(0, 2, a, a) for a in "xy"]))


@pytest.mark.parametrize("kind", ["nn", "random", "ata", "xx+yy"])
@pytest.mark.parametrize("mode", [REMOVE, MITIGATE])
def test_whole_space_synthesis_reads_no_seed(monkeypatch, kind, mode):
    solved = _recorded_programs(monkeypatch)
    for n in [3] if kind == "xx+yy" else range(2, 11):
        trial_seed = derive_seed(17, n, 0)
        if kind == "xx+yy":
            h_p, h_s, defect = _xx_yy_problem()
        else:
            h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(trial_seed, "problem"))
        solved.clear()
        seeds = (derive_seed(trial_seed, "patterns"), derive_seed(trial_seed, "other"))
        first, second = (synthesize(h_p, h_s, defect, 1.0, mode, seed) for seed in seeds)
        assert first.to_text() == second.to_text()
        assert len(solved) == 2
        rows = h_s.support() if mode is REMOVE else defect
        for program, solution in solved:
            _check_the_whole_space_program(program, solution, first, _whole_space_listing(n, defect), rows)


#: (N, source pairs, pairs only in the defect, distinct columns over the removed rows)
PARTIAL_SUPPORTS = [
    (6, [(0, 1), (1, 2), (3, 4), (4, 5)], [], 2**4),  # two components
    (5, [(0, 1), (1, 2), (2, 3)], [], 2**3),  # qubit 4 untouched
    (4, [(1, 2), (2, 3)], [], 2**2),  # qubit 0 untouched
    (6, [(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4)], 2**3),  # removed rows fall apart, the defect does not
]


def _partial_support_problem(n, source_pairs, defect_pairs):
    rng = np.random.default_rng(n)
    h_source = CouplingVector(n, {zz(i, j): rng.uniform(1.0, 2.0) for i, j in source_pairs})
    h_problem = CouplingVector(n, {zz(i, j): rng.uniform(-1.0, 1.0) for i, j in source_pairs})
    return h_problem, h_source, tuple(sorted(zz(i, j) for i, j in source_pairs + defect_pairs))


@pytest.mark.parametrize("n, source_pairs, defect_pairs, columns", PARTIAL_SUPPORTS)
@pytest.mark.parametrize("mode", [REMOVE, MITIGATE])
def test_a_partial_support_program_is_the_whole_listing_copies_included(monkeypatch, mode, n, source_pairs,
                                                                         defect_pairs, columns):
    # rows that leave qubits unconnected give more than the flip pairs equal columns
    h_problem, h_source, defect = _partial_support_problem(n, source_pairs, defect_pairs)
    solved = _recorded_programs(monkeypatch)
    sched = synthesize(h_problem, h_source, defect, 1.0, mode, 5)
    ((program, solution),) = solved
    rows = h_source.support() if mode is REMOVE else defect
    n_cols = _check_the_whole_space_program(program, solution, sched, _whole_space_listing(n, defect), rows)
    assert n_cols == 2 ** (n - 1)
    distinct = len({column.tobytes() for column in program.constraint_matrix.T})
    assert distinct == (columns if mode is REMOVE or not defect_pairs else 2 ** (n - 1))


def _deduplicated_solve(solve, copies):
    """``solve`` over each distinct sign column once, at its first; the times come back zero on
    every copy, and each program's copy count goes to ``copies``."""
    def solve_once_each(program):
        first = {}
        for k, column in enumerate(program.constraint_matrix.T):
            first.setdefault(column.tobytes(), k)
        keep = list(first.values())
        copies.append(program.n_cols - len(keep))
        solution = solve(lp.LinearProgram(program.constraint_matrix[:, keep], program.rhs))
        times = np.zeros(program.n_cols)
        times[keep] = solution.times
        return lp.LpSolution(times, solution.is_optimal)

    return solve_once_each


#: (case, mode) whose programs hold copies.  The split removed rows' mitigated program
#: constrains the connected defect, whose columns are all distinct.  The N = 11 samples
#: draw flip pairs, and in mitigate mode the first is infeasible, so a second is drawn.
COPY_CASES = [
    *[(f"partial{k}", mode) for k in range(4) for mode in (REMOVE, MITIGATE) if not (k == 3 and mode is MITIGATE)],
    *[(case, mode) for case in ("xx+yy", "sampled-n11") for mode in (REMOVE, MITIGATE)],
]


@pytest.mark.parametrize("case, mode", COPY_CASES, ids=lambda v: getattr(v, "value", v))
def test_synthesis_over_copies_gives_the_deduplicated_programs_schedule(monkeypatch, case, mode):
    # the simplex enters only the first of equal columns, so the program without the
    # later ones, the reference, gives the same patterns and every bit of the times
    trial = derive_seed(11, 11, 1)
    if case.startswith("partial"):
        h_problem, h_source, defect = _partial_support_problem(*PARTIAL_SUPPORTS[int(case[-1])][:3])
    elif case == "xx+yy":
        h_problem, h_source, defect = _xx_yy_problem()
    else:
        h_problem, h_source, defect = generate_problem(TopologySpec("random", 11), 100.0, derive_seed(trial, "problem"))
    seed = derive_seed(trial, "patterns")
    sched = synthesize(h_problem, h_source, defect, 1.0, mode, seed)
    copies = []
    monkeypatch.setattr(lp, "solve", _deduplicated_solve(lp.solve, copies))
    reference = synthesize(h_problem, h_source, defect, 1.0, mode, seed)
    assert copies and all(copies)
    assert sched.patterns.to_text() == reference.patterns.to_text()
    assert sched.times == reference.times


@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
@pytest.mark.parametrize("mode", [REMOVE, MITIGATE])
def test_dropping_duplicate_columns_keeps_the_lp_answer(monkeypatch, kind, mode):
    # every {I, X}^N pattern, global X flips included, in the same alignment order: a
    # later copy of a column has the reduced cost of its first, so neither pricing rule
    # enters it first, and the drive-out's argmax takes the first of equal entries
    solve = lp.solve
    solved = _recorded_programs(monkeypatch)
    for n in range(3, 9):
        for index in range(2):
            trial_seed = derive_seed(11, n, index)
            h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(trial_seed, "problem"))
            solved.clear()
            sched = synthesize(h_p, h_s, defect, 1.0, mode, derive_seed(trial_seed, "patterns"))
            ((program, solution),) = solved
            assert program.n_cols == 2 ** (n - 1)

            rows = h_s.support() if mode is REMOVE else defect
            rhs = hadamard_divide(h_p, h_s).values_at(rows)
            patterns = ["".join(p) for p in itertools.product("IX", repeat=n)]
            entries = build_sign_matrix(PauliMasks.from_text(patterns), rows).entries.astype(float)
            order = np.argsort(-(entries * rhs[:, None]).sum(axis=0), kind="stable")
            reference = solve(lp.LinearProgram(entries[:, order], rhs))
            kept = [(patterns[k], t) for k, t in zip(order, reference.times) if t > 0.0]
            assert sched.patterns.to_text() == [p for p, _ in kept]
            assert sched.times == tuple(t for _, t in kept)
            # the total sums times vectors of different lengths, which numpy's
            # pairwise summation may group differently, so only it may move in the last place
            assert solution.times.sum() == pytest.approx(reference.times.sum(), rel=2 * np.finfo(float).eps, abs=0)


@pytest.mark.parametrize("mode", [REMOVE, MITIGATE])
def test_times_scale_exactly_with_a_power_of_two_target_time(mode):
    # the LP solves for t/T, so its answer does not depend on T
    for kind in ("nn", "random", "ata"):
        for n in (3, 5, 7):
            seed = derive_seed("scaling", kind, n)
            h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(seed, "problem"))
            unit = synthesize(h_p, h_s, defect, 1.0, mode, seed)
            scaled = synthesize(h_p, h_s, defect, 2.0**20, mode, seed)
            assert same(scaled.patterns, unit.patterns)
            assert scaled.times == tuple(t * 2.0**20 for t in unit.times)


def test_whole_space_programs_always_solve_optimal():
    # distinct Walsh-character rows have full row rank and the columns sum to
    # zero, so any right-hand side has a nonnegative solution over every pattern
    rng = np.random.default_rng(29)
    for trial in range(40):
        zz_only = trial % 2 == 0
        n = 2 + (trial // 2) % (6 if zz_only else 4)
        axes = ("z",) if zz_only else AXES
        keys = [CouplingKey(i, j, mu, nu) for i, j in itertools.combinations(range(n), 2) for mu in axes for nu in axes]
        rows = [key for key in keys if rng.random() < 0.5] or keys[:1]
        patterns = PauliMasks.from_text(["".join(p) for p in itertools.product("IX" if zz_only else "IXYZ", repeat=n)])
        rhs = rng.normal(size=len(rows))
        rhs[rng.random(len(rows)) < 0.3] = 0.0
        program = lp.LinearProgram(build_sign_matrix(patterns, rows).entries, rhs)
        assert lp.solve(program).is_optimal, (trial, rows, rhs)


def test_synthesis_requests_the_whole_pattern_space_before_it_gives_up(monkeypatch):
    # a chain at N = 11 lists 2^10 ZZ patterns, one of each global X flip pair, above the
    # exhaustive limit, so requests start at 2m+1 for its m defect edges and double up to the listing
    h_problem, h_source, defect = generate_problem(TopologySpec("nn", 11), 100.0, rng_seed=3)
    assert pattern_space_size(11, defect) == 1024 > EXHAUSTIVE_PATTERN_LIMIT
    assert len(defect) == 19
    requested = []

    def recording(n_qubits, support, count, rng_seed):
        requested.append(count)
        return generate_candidate_patterns(n_qubits, support, count, rng_seed)

    def listing(n_qubits, alphabet):
        requested.append(alphabet)
        return canonical_patterns(n_qubits, alphabet)

    def refuse(program):
        return lp.LpSolution(np.zeros(program.n_cols), False)

    monkeypatch.setattr(schedule, "generate_candidate_patterns", recording)
    monkeypatch.setattr(schedule, "canonical_patterns", listing)
    monkeypatch.setattr(lp, "solve", refuse)
    with pytest.raises(InternalConsistencyError, match="over all 1024 patterns"):
        synthesize(h_problem, h_source, defect, 1.0, REMOVE, rng_seed=5)
    assert requested == [39, 78, 156, 312, 624, "IX"]  # the whole space is listed, not sampled
