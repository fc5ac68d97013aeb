import hashlib
import itertools
import math

import numpy as np
import pytest

from daqc import cli, lp
from daqc.blocks import PauliMasks, build_sign_matrix, generate_candidate_patterns
from daqc.errors import ValidationError
from daqc.harness import ExperimentConfig, TopologySpec, all_pair_edges, derive_seed, generate_problem, run_trial
from daqc.lp import (
    FEASIBILITY_TOL,
    LinearProgram,
    solve,
)
from daqc.pauli import CouplingVector, hadamard_divide
from daqc.schedule import SynthesisMode, synthesize
from helpers import entries
from lp_oracle import OracleLimitError, brute_force_optimum, numpy_dantzig_iterate

THREE_QUBIT_MATRIX = [
    [1, -1, -1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
]


def test_three_row_system_total_time_is_rhs_one_norm():
    # with the third row pinned to zero, the optimum is |b1| + |b2|
    lp = LinearProgram(THREE_QUBIT_MATRIX, [1.0, 1.0, 0.0])
    sol = solve(lp)
    assert sol.is_optimal
    assert sol.times.sum() == pytest.approx(2.0, abs=1e-9)


def test_two_row_system_total_time_is_rhs_max():
    lp = LinearProgram(THREE_QUBIT_MATRIX[:2], [1.0, 1.0])
    sol = solve(lp)
    assert sol.times.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("b1,b2", [(1.0, 1.0), (-0.5, 2.0), (1.5, -1.5), (-2.0, -0.25)])
def test_closed_forms_for_any_signs(b1, b2):
    full = solve(LinearProgram(THREE_QUBIT_MATRIX, [b1, b2, 0.0]))
    short = solve(LinearProgram(THREE_QUBIT_MATRIX[:2], [b1, b2]))
    assert full.times.sum() == pytest.approx(abs(b1) + abs(b2), abs=1e-9)
    assert short.times.sum() == pytest.approx(max(abs(b1), abs(b2)), abs=1e-9)


def test_single_variable():
    sol = solve(LinearProgram([[1.0]], [0.5]))
    assert sol.is_optimal
    assert sol.times == pytest.approx([0.5])


def test_infeasible_sign():
    sol = solve(LinearProgram([[1.0]], [-1.0]))
    assert not sol.is_optimal
    assert sol.times.tolist() == [0.0]


def test_non_finite_input_rejected():
    with pytest.raises(ValidationError):
        LinearProgram([[math.inf]], [1.0])
    with pytest.raises(ValidationError):
        LinearProgram([[1.0]], [math.nan])


def test_redundant_rows_are_harmless():
    lp = LinearProgram([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
    sol = solve(lp)
    assert sol.is_optimal
    assert sol.times.sum() == pytest.approx(2.0, abs=1e-9)


def test_zero_matrix():
    zero = solve(LinearProgram([[0.0, 0.0]], [0.0]))
    assert zero.is_optimal and zero.times.sum() == 0.0
    assert not solve(LinearProgram([[0.0, 0.0]], [1.0])).is_optimal


def test_feasibility_residual_invariant():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = rng.integers(1, 5)
        n = rng.integers(1, 9)
        matrix = rng.choice([-1.0, 1.0], size=(m, n))
        rhs = rng.uniform(-2, 2, size=m)
        sol = solve(LinearProgram(matrix, rhs))
        if sol.is_optimal:
            assert np.abs(matrix @ sol.times - rhs).max() <= 1e-9
            assert sol.times.min() >= 0.0


def test_objective_scaling_covariance():
    rng = np.random.default_rng(1)
    matrix = rng.choice([-1.0, 1.0], size=(3, 6))
    rhs = rng.uniform(-2, 2, size=3)
    base = solve(LinearProgram(matrix, rhs))
    assert base.is_optimal
    for c in (0.5, 2.0, 17.0):
        scaled = solve(LinearProgram(matrix, c * rhs))
        assert scaled.times.sum() == pytest.approx(c * base.times.sum(), rel=1e-9)


# ---- brute-force oracle ------------------------------------------------------


def test_oracle_agrees_on_worked_example():
    lp = LinearProgram(THREE_QUBIT_MATRIX, [1.0, 1.0, 0.0])
    assert brute_force_optimum(lp).times.sum() == pytest.approx(2.0, abs=1e-9)


def test_oracle_identity_instance():
    sol = brute_force_optimum(LinearProgram(np.eye(2), [2.0, 3.0]))
    assert sol.is_optimal
    assert sol.times == pytest.approx([2.0, 3.0])


def test_oracle_detects_infeasibility():
    assert not brute_force_optimum(LinearProgram([[1.0]], [-1.0])).is_optimal


def test_oracle_refuses_large_instances():
    with pytest.raises(OracleLimitError):
        brute_force_optimum(LinearProgram(np.ones((7, 2)), np.ones(7)))
    with pytest.raises(OracleLimitError):
        brute_force_optimum(LinearProgram(np.ones((2, 13)), np.ones(2)))


def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        m = rng.integers(1, 5)
        n = rng.integers(1, 9)
        matrix = rng.choice([-1.0, 1.0], size=(m, n))
        rhs = rng.uniform(-2, 2, size=m)
        lp = LinearProgram(matrix, rhs)
        fast = solve(lp)
        slow = brute_force_optimum(lp)
        assert fast.is_optimal == slow.is_optimal
        if fast.is_optimal:
            assert fast.times.sum() == pytest.approx(slow.times.sum(), abs=1e-9)
            checked += 1
    assert checked > 50  # sanity: most random instances should be feasible


def test_tolerance_validation():
    # relative to max(1, ||b||_inf); at most 1e-9 absolute wherever ||b||_inf <= 3, the default scale
    assert FEASIBILITY_TOL == 3e-10


# ---- regressions pinned to their seeds -----------------------------------------

# (master seed, topology, mode, N, trial) -> t_A of the HiGHS optimum.  Each
# once ended in "simplex detected an unbounded direction": round-off in a
# tableau carried through hundreds of pivots.  With rebuilding alone, N = 13
# trial 16 stalled past MAX_PIVOTS: the ratio test took entries near 1e-10 as pivots.
# The N = 10 trial failed on a sampled program; it now solves its 512-pattern canonical listing.
PINNED_TRIALS = {
    (11, "ata", "remove", 10, 11): 6.5649757486930165,
    (11, "random", "mitigate", 12, 6): 6.726727403712697,
    (11, "random", "mitigate", 13, 16): 14.756128915129446,
    (13, "random", "mitigate", 9, 18): 3.7696203772336747,
}


def _run_pinned(seed, kind, mode, n, index):
    config = ExperimentConfig(
        topology=TopologySpec(kind, n),
        n_range=(n,),
        trials=index + 1,
        mode=SynthesisMode.from_name(mode),
        master_seed=seed,
    )
    return run_trial(config, n, index)


@pytest.mark.parametrize("trial", list(PINNED_TRIALS), ids=lambda t: "-".join(map(str, t)))
def test_pinned_trial_reaches_the_highs_optimum(trial):
    assert _run_pinned(*trial).t_a == pytest.approx(PINNED_TRIALS[trial], rel=1e-9, abs=0)


def test_sweep_that_hit_an_unbounded_direction_exits_zero(tmp_path):
    out = tmp_path / "ata10.csv"
    args = ["sweep", "--topology", "ata", "--n-min", "10", "--n-max", "10",
            "--trials", "12", "--seed", "11", "--out", str(out)]
    assert cli.main(args) == 0
    assert out.read_text().count("\n") == 1 + 12


# (topology, mode, N, trial) at master seed 11 that, with every source coupling
# scaled by 1e-6, once ended in "the LP found no nonnegative block times": the
# rhs h_P/h_S reaches 3e6, and phase one was held to 1e-9 absolute
SMALL_SOURCE_TRIALS = [
    ("nn", "remove", 7, 31),
    ("random", "remove", 4, 4),
    ("random", "mitigate", 6, 20),
    ("ata", "remove", 5, 0),
    ("ata", "mitigate", 7, 0),
]


@pytest.mark.parametrize("trial", SMALL_SOURCE_TRIALS, ids=lambda t: "-".join(map(str, t)))
def test_lp_tolerance_follows_the_rhs_scale(trial):
    kind, mode, n, index = trial
    seed = derive_seed(11, n, index)
    h_problem, h_source, defects = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(seed, "problem"))
    small = CouplingVector(n, {key: 1e-6 * value for key, value in entries(h_source).items()})
    rest = (defects, 1.0, SynthesisMode.from_name(mode), derive_seed(seed, "patterns"))
    reference = synthesize(h_problem, h_source, *rest).total_analog_time
    assert synthesize(h_problem, small, *rest).total_analog_time == pytest.approx(1e6 * reference, rel=1e-9)


# ---- cross-check against HiGHS -------------------------------------------------


def _assert_agrees_with_highs(program, optimize):
    fast = solve(program)
    ref = optimize.linprog(np.ones(program.n_cols), A_eq=program.constraint_matrix,
                           b_eq=program.rhs, bounds=(0, None), method="highs")
    assert ref.status in (0, 2), ref.message
    assert fast.is_optimal == (ref.status == 0)
    if fast.is_optimal:
        assert fast.times.sum() == pytest.approx(ref.fun, rel=1e-9, abs=0)
    return fast


@pytest.mark.parametrize("trial", list(PINNED_TRIALS), ids=lambda t: "-".join(map(str, t)))
def test_pinned_trial_programs_match_highs(trial, monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    programs = []

    def recording(program):
        programs.append(program)
        return solve(program)

    monkeypatch.setattr(lp, "solve", recording)
    _run_pinned(*trial)
    assert programs
    for program in programs:
        _assert_agrees_with_highs(program, optimize)


def test_replay_shaped_programs_match_highs(monkeypatch):
    """Every program of trial 0 at N = 7, 8, each topology and mode, master seed 11.

    On nn and random, mitigate rows carry a zero rhs, so pivots there run
    degenerate and pricing falls back from Dantzig's rule to Bland's.
    """
    optimize = pytest.importorskip("scipy.optimize")
    programs = []

    def recording(program):
        programs.append(program)
        return solve(program)

    monkeypatch.setattr(lp, "solve", recording)
    for kind in ("nn", "random", "ata"):
        for mode in ("remove", "mitigate"):
            for n in (7, 8):
                _run_pinned(11, kind, mode, n, 0)
    assert len(programs) == 12
    for program in programs:
        assert _assert_agrees_with_highs(program, optimize).is_optimal


def test_sign_programs_above_the_oracle_limit_match_highs():
    """Seeded +/-1 programs over 10-12 qubits, some rows zeroed as mitigation zeroes them."""
    optimize = pytest.importorskip("scipy.optimize")
    verdicts = set()
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        n_qubits = 10 + k % 3
        edges = all_pair_edges(n_qubits)
        rows = edges[: int(rng.integers(n_qubits, len(edges) + 1))]
        patterns = generate_candidate_patterns(n_qubits, edges, int(rng.integers(2, 5)) * len(rows), 7 + k)
        matrix = build_sign_matrix(patterns, rows).entries.astype(float)
        t0 = np.where(rng.random(len(patterns)) < 0.1, rng.uniform(0.0, 1.0, len(patterns)), 0.0)
        rhs = matrix @ t0
        if k % 2:
            rhs[rng.random(len(rows)) < 0.3] = 0.0
        verdicts.add(_assert_agrees_with_highs(LinearProgram(matrix, rhs), optimize).is_optimal)
    assert verdicts == {True, False}


# ---- the simplex's arithmetic, pinned ---------------------------------------------


def _pinned_sign_programs():
    """Seeded +/-1 programs that no sampler order enters.

    Fourteen sampled programs over 10-12 qubits, requests far below the whole
    space, rows zeroed on odd seeds; then the program of every topology and
    mode at N = 3..8, over all {I, X}^N patterns in ``itertools.product`` order.
    """
    for k in range(14):
        rng = np.random.default_rng(2000 + k)
        n_qubits = 10 + k % 3
        edges = all_pair_edges(n_qubits)
        rows = edges[: int(rng.integers(n_qubits, len(edges) + 1))]
        patterns = generate_candidate_patterns(n_qubits, edges, int(rng.integers(2, 5)) * len(rows), 40 + k)
        matrix = build_sign_matrix(patterns, rows).entries.astype(float)
        t0 = np.where(rng.random(len(patterns)) < 0.1, rng.uniform(0.0, 1.0, len(patterns)), 0.0)
        rhs = matrix @ t0
        if k % 2:
            rhs[rng.random(len(rows)) < 0.3] = 0.0
        yield LinearProgram(matrix, rhs)
    for kind in ("nn", "random", "ata"):
        for n in range(3, 9):
            h_problem, h_source, defect = generate_problem(TopologySpec(kind, n), 100.0, 100 * n + 7)
            ratios = hadamard_divide(h_problem, h_source)
            patterns = PauliMasks.from_text(["".join(p) for p in itertools.product("IX", repeat=n)])
            for rows in (h_source.support(), defect):
                matrix = build_sign_matrix(patterns, rows).entries.astype(float)
                yield LinearProgram(matrix, [ratios[key] for key in rows])


def test_sign_program_solutions_are_pinned_bit_for_bit():
    """SHA-256 of every verdict, as the word ``optimal`` or ``infeasible``, and ``times.tobytes()``.

    A change that reorders the simplex's floating-point operations, or takes
    another pivot, changes this digest; a change of pricing or tie rules
    re-records it and says why.
    """
    digest = hashlib.sha256()
    verdicts = set()
    for program in _pinned_sign_programs():
        solution = solve(program)
        verdicts.add(solution.is_optimal)
        digest.update(b"optimal" if solution.is_optimal else b"infeasible")
        digest.update(solution.times.tobytes())
    assert verdicts == {True, False}
    assert digest.hexdigest() == "56a322f24e5e68a99710c58f8e4361d82e9b65ea6274118f8e7ef9a63cb446ea"


@pytest.mark.parametrize("layout", ["a copy after every column", "all copies appended"])
def test_the_simplex_never_enters_a_later_copy_of_a_column(monkeypatch, layout):
    """Every pinned program and the redundant-row one, with each column doubled.

    Row operations keep a copy bit-identical to its first, and Dantzig's
    ``argmin``, Bland's first negative index and the drive-out's ``argmax``
    take the first of equal entries, so the doubled program enters the
    columns the original enters, in the same order, never a later copy; the
    verdict and every bit of the original times stay, and each copy keeps time zero.
    """
    entered = []  # every pivot's entering column, in order
    priced = [0]  # pivots of the pricing loop; the rest are the drive-out's
    pivot = lp._pivot
    iterate = lp._dantzig_iterate

    def recording_pivot(tableau, basis, leave, enter, factors):
        entered.append(enter)
        pivot(tableau, basis, leave, enter, factors)

    def counting_iterate(*args):
        made = iterate(*args)
        priced[0] += made
        return made

    def solve_recorded(program):
        entered.clear()
        priced[0] = 0
        return solve(program), list(entered)

    monkeypatch.setattr(lp, "_pivot", recording_pivot)
    monkeypatch.setattr(lp, "_dantzig_iterate", counting_iterate)
    programs = [*_pinned_sign_programs(), LinearProgram([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])]
    verdicts = set()
    driven_out = []
    for k, program in enumerate(programs):
        n = program.n_cols
        interleaved = layout == "a copy after every column"
        order = np.repeat(np.arange(n), 2) if interleaved else np.tile(np.arange(n), 2)
        originals = 2 * np.arange(n) if interleaved else np.arange(n)
        solution, columns = solve_recorded(program)
        if len(columns) > priced[0]:
            driven_out.append(k)
        doubled, doubled_columns = solve_recorded(LinearProgram(program.constraint_matrix[:, order], program.rhs))
        assert doubled.is_optimal == solution.is_optimal
        assert doubled_columns == originals[columns].tolist()
        assert doubled.times[originals].tobytes() == solution.times.tobytes()
        assert not np.delete(doubled.times, originals).any()
        verdicts.add(solution.is_optimal)
    assert len(programs) == 51 and verdicts == {True, False}
    assert driven_out == [0, 10]  # the drive-out's argmax is exercised too


# ---- the ratio test on Python floats, against the numpy reference -----------------

#: (topology, mode, N, trial) at master seed 11, in the shapes of the four
#: benchmark workloads: N = 3..7 (sweep_small), 8 (replay_obs), 10 (exact_n10)
#: and 11..13 (ladder_large), where random/mitigate pivots mostly on Bland's rule.
TWIN_TRIALS = [
    *[(kind, mode, n, 0) for kind in ("nn", "random", "ata") for mode in ("remove", "mitigate") for n in (3, 5, 7, 8)],
    ("nn", "remove", 10, 1), ("random", "mitigate", 10, 0), ("ata", "mitigate", 10, 1),
    ("random", "remove", 12, 0), ("ata", "mitigate", 11, 0), ("random", "mitigate", 11, 0),
    ("random", "mitigate", 12, 0),
]
#: its second program (78 x 308) finds no pivot in an entering column once, from
#: round-off, so ``_dantzig_iterate`` rebuilds its tableau and goes on
REBUILD_TRIAL = ("random", "mitigate", 13, 0)


def test_python_float_ratio_test_makes_the_numpy_pivots(monkeypatch):
    """Every program of the trials, solved as it is and with the numpy loop of ``lp_oracle``.

    Same verdict, bitwise-equal times and the same number of pivots.
    """
    spent = [0]
    rebuilds = [0]
    spend = lp._PivotBudget.spend
    iterate = lp._dantzig_iterate

    def counting_spend(budget):
        spent[0] += 1
        spend(budget)

    def counting_rebuilds(tableau, basis, cost_row, budget, rebuild):
        def counted():
            rebuilds[0] += 1
            rebuild()
        return iterate(tableau, basis, cost_row, budget, counted)

    def solve_with(loop, program):
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_dantzig_iterate", loop)
            before = spent[0]
            solution = solve(program)
        return solution, spent[0] - before

    def twin(program):
        ours, pivots = solve_with(counting_rebuilds, program)
        reference, reference_pivots = solve_with(numpy_dantzig_iterate, program)
        assert (ours.is_optimal, pivots) == (reference.is_optimal, reference_pivots)
        assert ours.times.tobytes() == reference.times.tobytes()
        return ours

    monkeypatch.setattr(lp._PivotBudget, "spend", counting_spend)
    monkeypatch.setattr(lp, "solve", twin)
    for trial in TWIN_TRIALS:
        _run_pinned(11, *trial)
    assert rebuilds[0] == 0
    _run_pinned(11, *REBUILD_TRIAL)
    assert rebuilds[0] == 1

