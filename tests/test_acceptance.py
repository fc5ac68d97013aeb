"""Acceptance suite: the package's headline guarantees at fixed tolerances.

Each test prints one ``ACCEPTANCE <id>: PASS`` line (run with ``-rA`` or
``-s`` to see them); a failing criterion surfaces as a regular pytest
failure.  The paired sweeps are the desk-scale Monte Carlo experiment:
three topologies, N in 3..7, 500 trials per point, delta=10, g=100, T=1.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from daqc import bounds, dense, lp
from daqc.cli import main as cli_main
from daqc.harness import (
    ExperimentConfig,
    TopologySpec,
    derive_seed,
    generate_problem,
    run_experiment,
)
from daqc.pauli import CouplingKey, CouplingVector, hadamard_divide
from daqc.schedule import SynthesisMode, error_vector, synthesize
from lp_oracle import brute_force_optimum

MASTER_SEED = 11
SIZES = (3, 4, 5, 6, 7)
TRIALS = 500
KINDS = ("nn", "random", "ata")
REMOVE = SynthesisMode.REMOVE_ZEROS
MITIGATE = SynthesisMode.MITIGATE_ZEROS
#: absolute tolerance of the paired comparisons, above what synthesis guarantees
#: on these sweeps: ``schedule.within_replay_tol`` scales ``schedule.REPLAY_TOL``
#: by a coupling times t_A / T, at most 1243 here, so 6.2e-10
REPLAY_TOL = 1e-9


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
#: g s^a g^dag = +/- s^a, worked out from the 2x2 matrices, independently of daqc
_CONJUGATION_SIGN = {
    (gate, axis.lower()): 1 if np.allclose(g @ s @ g.conj().T, s) else -1
    for gate, g in _PAULI.items()
    for axis, s in _PAULI.items()
    if axis != "I"
}


def _oracle_weight(sched, key) -> float:
    """Sequential time-weighted sign sum of ``key`` over the schedule's blocks."""
    return sum(
        t * _CONJUGATION_SIGN[p[key.i], key.mu] * _CONJUGATION_SIGN[p[key.j], key.nu]
        for p, t in zip(sched.patterns.to_text(), sched.times)
    )


def _pass(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


@pytest.fixture(scope="session")
def sweeps():
    """Paired remove/mitigate sweeps for every topology, plus wall time."""
    started = time.time()
    records = {}
    for kind in KINDS:
        for mode in (REMOVE, MITIGATE):
            config = ExperimentConfig(
                topology=TopologySpec(kind, SIZES[0]),
                n_range=SIZES,
                trials=TRIALS,
                mode=mode,
                master_seed=MASTER_SEED,
            )
            records[(kind, mode.value)] = run_experiment(config)
    records["elapsed_seconds"] = time.time() - started
    return records


def test_c1_operator_norm_bound_soundness(sweeps):
    """Criterion 1: exact ||H_eps||_op <= bound on 100% of unmitigated trials."""
    total = 0
    for kind in KINDS:
        records = sweeps[(kind, "remove")]
        assert len(records) == TRIALS * len(SIZES)
        for record in records:
            assert record.exact_op_norm is not None
            assert record.exact_op_norm <= record.bound_op_norm, (
                f"unsound bound: {kind} N={record.n_qubits} seed={record.seed}"
            )
        for n in SIZES:
            group = [r for r in records if r.n_qubits == n]
            assert np.mean([r.bound_op_norm for r in group]) >= np.mean(
                [r.exact_op_norm for r in group]
            )
        total += len(records)
    assert sweeps["elapsed_seconds"] < 600, "sweeps exceeded the 10 minute budget"
    _pass("C1", f"({total} unmitigated trials sound; sweeps took "
                f"{sweeps['elapsed_seconds']:.0f}s)")


def _regenerate(kind: str, record):
    spec = TopologySpec(kind, record.n_qubits)
    return generate_problem(spec, 100.0, derive_seed(record.seed, "problem"))


def test_c2_mitigated_bound_tightening(sweeps):
    """Criterion 2 (bound part): mitigated bound is the first term only, still sound."""
    checked = 0
    for kind in KINDS:
        records = sweeps[(kind, "mitigate")]
        for record in records:
            assert record.exact_op_norm <= record.bound_op_norm, (
                f"unsound mitigated bound: {kind} N={record.n_qubits} seed={record.seed}"
            )
        # recompute a spread of trials: first-term equality and exact cancellation
        for record in records[:: len(records) // 25]:
            h_p, h_s, defect = _regenerate(kind, record)
            sched = synthesize(h_p, h_s, defect, 1.0, MITIGATE, derive_seed(record.seed, "patterns"))
            ratios = hadamard_divide(h_p, h_s)
            first_term = 10.0 * float(np.abs(ratios.values_array()).sum())
            assert record.bound_op_norm == pytest.approx(first_term, rel=1e-12)
            for key in sorted(set(defect) - set(h_s.support())):
                weight = _oracle_weight(sched, key)
                assert abs(weight) <= 1e-9, f"uncancelled edge {key} at seed {record.seed}"
            checked += 1
    _pass("C2-bound", f"(first-term bound verified on {checked} recomputed trials)")


def _paired_error_vectors(kind: str, r_rm, r_mi):
    """Recompute one swept pair's error vectors in both modes under its shared defect draw."""
    h_p, h_s, defect = _regenerate(kind, r_rm)
    sample = bounds.sample_defect(h_s.n_qubits, defect, 10.0, derive_seed(r_rm.seed, "defect"))
    vectors = []
    for record, mode in ((r_rm, REMOVE), (r_mi, MITIGATE)):
        sched = synthesize(h_p, h_s, defect, 1.0, mode, derive_seed(r_rm.seed, "patterns"))
        assert sched.total_analog_time == record.t_a, f"not the swept schedule: seed {record.seed}"
        vectors.append(error_vector(sched, h_p, h_s, sample.h_delta, h_real=h_s + sample.h_delta))
    return h_s, defect, vectors


def test_c2_per_seed_suppression(sweeps):
    """Criterion 2 (suppression part): per seed, mitigation never enlarges the error.

    The mitigated coupling error is the unmitigated one, A + B, with its
    unmeasured-edge part B cancelled and its measured-edge part A unchanged.
    So on every paired remove/mitigate trial:

    * entrywise, |h_eps| shrinks: measured entries agree across the modes and
      mitigated unmeasured entries vanish (recomputed on a spread of pairs per
      topology; replaying every pair would cost half a minute);
    * the exact Frobenius norm, 2^(N/2) * ||h_eps||_2, never rises;
    * on chains with second-neighbour defects (nn) the exact operator norm
      never rises either.  Proof sketch: the bond variables b_i = z_i z_{i+1}
      are free, A = sum a_i b_i is odd in them and B = sum c_i b_i b_{i+1}
      (the z_i z_{i+2} chords) is even, so flipping every b_i turns A + B
      into -A + B, and max(|A+B|, |A-B|) = |A| + |B| >= |A| pointwise.

    Off chains the per-seed operator norm is not guaranteed: B can cancel part
    of A at A's maximizing basis state.  With N = 4, A = Z0Z1 + Z1Z2 + Z2Z3
    and B = -0.5 Z0Z3 give ||A||_op = 3 but ||A+B||_op = 2.5 (checked below).
    The sweep hits this on a few percent of random-topology pairs, so there
    only the per-N mean operator norm over pairs with unmeasured edges is
    asserted to drop, and the per-seed flips are counted in the PASS line.
    All-to-all supports have no unmeasured edges, so their two modes coincide.
    Every comparison allows REPLAY_TOL (1e-9) absolute, above the tolerance to
    which synthesis guarantees replayed couplings and cancelled sign weights.
    """
    a = CouplingVector(4, {zz(0, 1): 1.0, zz(1, 2): 1.0, zz(2, 3): 1.0})
    b = CouplingVector(4, {zz(0, 3): -0.5})
    assert dense.operator_norm(dense.build_dense(a)) == pytest.approx(3.0, abs=REPLAY_TOL)
    assert dense.operator_norm(dense.build_dense(a + b)) == pytest.approx(2.5, abs=REPLAY_TOL)

    unmeasured = {}  # per topology: the pairs whose defect support has unmeasured edges
    recomputed = 0
    for kind in KINDS:
        paired = list(zip(sweeps[(kind, "remove")], sweeps[(kind, "mitigate")]))
        unmeasured[kind] = []
        for r_rm, r_mi in paired:
            assert r_rm.seed == r_mi.seed
            assert r_mi.exact_frob <= r_rm.exact_frob + REPLAY_TOL, (
                f"Frobenius norm rose: {kind} N={r_rm.n_qubits} seed={r_rm.seed}"
            )
            _, h_s, defect = _regenerate(kind, r_rm)
            if set(defect) - set(h_s.support()):
                unmeasured[kind].append((r_rm, r_mi))

        for r_rm, r_mi in paired[:: len(paired) // 25]:
            h_s, defect, (eps_rm, eps_mi) = _paired_error_vectors(kind, r_rm, r_mi)
            measured = set(h_s.support())
            for key in defect:
                where = f"{kind} N={r_rm.n_qubits} seed={r_rm.seed} {key}"
                if key in measured:
                    assert abs(eps_mi[key] - eps_rm[key]) <= REPLAY_TOL, f"modes differ: {where}"
                else:
                    assert abs(eps_mi[key]) <= REPLAY_TOL, f"uncancelled: {where}"
                assert abs(eps_mi[key]) <= abs(eps_rm[key]) + REPLAY_TOL, f"grew: {where}"
            recomputed += 1

    for r_rm, r_mi in unmeasured["nn"]:
        assert r_mi.exact_op_norm <= r_rm.exact_op_norm + REPLAY_TOL, (
            f"operator norm rose on a chain: N={r_rm.n_qubits} seed={r_rm.seed}"
        )
    random_pairs = unmeasured["random"]
    for n in SIZES:
        group = [(r_rm, r_mi) for r_rm, r_mi in random_pairs if r_rm.n_qubits == n]
        mean_rm = np.mean([r_rm.exact_op_norm for r_rm, _ in group])
        mean_mi = np.mean([r_mi.exact_op_norm for _, r_mi in group])
        assert mean_mi < mean_rm, f"random N={n}: mitigated mean {mean_mi:.2f} >= {mean_rm:.2f}"
    flips = sum(r_mi.exact_op_norm > r_rm.exact_op_norm for r_rm, r_mi in random_pairs)
    pairs = sum(len(group) for group in unmeasured.values())
    _pass(
        "C2-suppression",
        f"({pairs} paired trials with unmeasured edges, {len(unmeasured['nn'])} nn per-seed "
        f"op-norm; {recomputed} recomputed error vectors; random-topology per-seed op-norm "
        f"flips {flips}/{len(random_pairs)}, per-N means drop)",
    )


def test_c3_total_time_ordering(sweeps):
    """Criterion 3: t_A ordering per seed, ATA equality, and the 3-qubit closed forms."""
    for kind in KINDS:
        removed = sweeps[(kind, "remove")]
        mitigated = sweeps[(kind, "mitigate")]
        for r_rm, r_mi in zip(removed, mitigated):
            assert r_rm.seed == r_mi.seed
            assert r_rm.t_a <= r_mi.t_a + 1e-9
            if kind == "ata":
                assert abs(r_rm.t_a - r_mi.t_a) <= 1e-9

    rng = np.random.default_rng(MASTER_SEED)
    defect = CouplingVector(3, {zz(0, 1): 0.0, zz(0, 2): 0.0, zz(1, 2): 0.0}).keys()
    for trial in range(100):
        source_values = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        b = rng.uniform(-3.0, 3.0, size=2)
        h_s = CouplingVector(3, {zz(0, 1): source_values[0], zz(0, 2): source_values[1]})
        h_p = CouplingVector(3, {zz(0, 1): b[0] * source_values[0],
                                 zz(0, 2): b[1] * source_values[1]})
        removed = synthesize(h_p, h_s, defect, 1.0, REMOVE, rng_seed=trial)
        mitigated = synthesize(h_p, h_s, defect, 1.0, MITIGATE, rng_seed=trial)
        assert removed.total_analog_time == pytest.approx(max(abs(b[0]), abs(b[1])), abs=1e-9)
        assert mitigated.total_analog_time == pytest.approx(abs(b[0]) + abs(b[1]), abs=1e-9)
    _pass("C3", "(per-seed ordering, ATA equality, 100 closed-form instances)")


#: the first rung of the C3 ladder above the acceptance sizes: its canonical listing,
#: 2^(N-1) ZZ patterns, is the largest the LP takes whole (``blocks.EXHAUSTIVE_PATTERN_LIMIT``)
LADDER_N = 10
LADDER_TRIALS = 20
#: trials whose t_A is checked against HiGHS over the same listing
LADDER_HIGHS_TRIALS = 3


def _highs_listing_optimum(optimize, kind, mode, trial_seed) -> float:
    """HiGHS over every ZZ sign column with qubit 0 unflipped, signs from the mask bits, not from daqc."""
    h_p, h_s, defect = generate_problem(TopologySpec(kind, LADDER_N), 100.0, derive_seed(trial_seed, "problem"))
    rows = h_s.support() if mode is REMOVE else defect
    rhs = [h_p[key] / h_s[key] if h_s[key] != 0.0 else 0.0 for key in rows]
    bits = (np.arange(2 ** (LADDER_N - 1))[None, :] >> (LADDER_N - 1 - np.arange(LADDER_N))[:, None]) & 1
    signs = np.array([1.0 - 2.0 * (bits[key.i] ^ bits[key.j]) for key in rows])
    ref = optimize.linprog(np.ones(signs.shape[1]), A_eq=signs, b_eq=rhs, bounds=(0, None), method="highs")
    assert ref.status == 0, ref.message
    return ref.fun


def test_c3_total_time_ordering_at_n10():
    """Criterion 3 at N = 10: per-seed ordering and ATA equality, and t_A the optimum over the whole listing."""
    optimize = pytest.importorskip("scipy.optimize")
    for kind in KINDS:
        paired = [
            run_experiment(ExperimentConfig(TopologySpec(kind, LADDER_N), (LADDER_N,), trials=LADDER_TRIALS,
                                            mode=mode, master_seed=MASTER_SEED))
            for mode in (REMOVE, MITIGATE)
        ]
        for r_rm, r_mi in zip(*paired):
            assert r_rm.seed == r_mi.seed
            assert r_rm.t_a <= r_mi.t_a + REPLAY_TOL, (kind, r_rm.trial_id, r_rm.t_a, r_mi.t_a)
            if kind == "ata":
                assert abs(r_rm.t_a - r_mi.t_a) <= REPLAY_TOL, (r_rm.trial_id, r_rm.t_a, r_mi.t_a)
        for mode, records in zip((REMOVE, MITIGATE), paired):
            for record in records[:LADDER_HIGHS_TRIALS]:
                optimum = _highs_listing_optimum(optimize, kind, mode, record.seed)
                assert record.t_a == pytest.approx(optimum, rel=1e-9, abs=0), (kind, mode, record.trial_id)
    _pass("C3", f"(N = {LADDER_N}, {LADDER_TRIALS} paired trials per topology, HiGHS on {LADDER_HIGHS_TRIALS})")


def test_exact_n10_workload_runs_clean_in_either_order(monkeypatch):
    """The benchmark's ``exact_n10`` pass: no trial fails, every row meets C1 and C5, and order changes no byte."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import bench
    workload = bench.WORKLOADS["exact_n10"]
    trials = workload.trials()
    forward = bench.run_pass(workload, trials, list(range(len(trials))))
    backward = bench.run_pass(workload, trials, list(reversed(range(len(trials)))))
    for result in (forward, backward):
        assert result.failures == [] and result.problems == []
    assert backward.digest == forward.digest
    _pass("C1/C5", f"(exact_n10, {len(trials)} trials in both orders)")


def test_ladder_large_workload_runs_clean_to_its_recorded_rows(monkeypatch):
    """The benchmark's ``ladder_large`` pass, N = 11..14 above the dense cap: its sampled programs keep
    copies of sign columns, and its LP rebuilds tableaux, yet no trial fails and no row byte moves."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import bench
    workload = bench.WORKLOADS["ladder_large"]
    trials = workload.trials()
    result = bench.run_pass(workload, trials, list(range(len(trials))))
    assert result.failures == [] and result.problems == []
    assert result.digest == "79e6866e617ddf974737d8823e8922aef3a6c64f4ac5ac2c6127ff159634a17a"
    _pass("C1/C5", f"(ladder_large, {len(trials)} trials)")


def test_c4_error_vector_closed_forms():
    """Criterion 4: block-sum error vector matches the closed forms to 1e-12."""
    worst = 0.0
    for trial in range(1000):
        n = 2 + trial % 5
        kind = KINDS[trial % 3]
        mode = (REMOVE, MITIGATE)[trial % 2]
        seed = derive_seed("closed-forms", trial)
        h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(seed, "p"))
        sched = synthesize(h_p, h_s, defect, 1.0, mode, derive_seed(seed, "s"))
        sample = bounds.sample_defect(n, defect, 10.0, derive_seed(seed, "d"))
        h_eps = error_vector(sched, h_p, h_s, sample.h_delta, h_real=h_s + sample.h_delta)
        for key in h_eps.keys():
            if h_s[key] != 0.0:
                closed = h_p[key] * sample.h_delta[key] / h_s[key]
            else:
                closed = _oracle_weight(sched, key) * sample.h_delta[key] / sched.target_time
            gap = abs(h_eps[key] - closed)
            worst = max(worst, gap)
            assert gap <= 1e-12, f"trial {trial} key {key}: gap {gap:.3e}"
    _pass("C4", f"(1000 instances, worst gap {worst:.2e})")


def test_c5_frobenius_identity_and_stability(sweeps):
    """Criterion 5: dense Frobenius equals 2^(N/2)*||h||_2; Def.-1 inequality per trial."""
    rng = np.random.default_rng(23)
    axes = ("x", "y", "z")
    for trial in range(200):
        n = 2 + trial % 5
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                for mu in axes:
                    for nu in axes:
                        if rng.random() < 0.35:
                            entries[CouplingKey(i, j, mu, nu)] = float(rng.normal())
        if not entries:
            entries[zz(0, 1)] = 1.0
        h = CouplingVector(n, entries)
        closed = 2 ** (n / 2) * float(np.linalg.norm(h.values_array()))
        exact = dense.frobenius_norm(dense.build_dense(h))
        assert exact == pytest.approx(closed, rel=1e-10)

    checked = 0
    for kind in KINDS:
        for mode in ("remove", "mitigate"):
            for record in sweeps[(kind, mode)]:
                assert record.exact_frob is not None
                assert record.exact_frob <= record.frob_bound, (
                    f"Def.-1 violation: {kind}/{mode} seed={record.seed}"
                )
                checked += 1
    _pass("C5", f"(200 identity checks, {checked} per-trial stability inequalities)")


def test_c6_expectation_bound_regime():
    """Criterion 6: small-defect short-time chains, sigma_x deviation under both bounds."""
    trials_per_size = 200
    for n in (3, 4, 5):
        observable = dense.single_qubit_observable("x", 0, n)
        for trial in range(trials_per_size):
            seed = derive_seed("regime", n, trial)
            h_p, h_s, defect = generate_problem(
                TopologySpec("nn", n), 100.0, derive_seed(seed, "p")
            )
            h_s_norm = dense.operator_norm(dense.build_dense(h_s))
            target_time = 0.09 / h_s_norm
            sched = synthesize(h_p, h_s, defect, target_time, REMOVE, derive_seed(seed, "s"))
            sample = bounds.sample_defect(n, defect, 0.1, derive_seed(seed, "d"))
            report = bounds.evaluate_bounds(
                h_p, h_s, defect, sched, sample, observable=observable
            )
            assert report.small_defect and report.short_time
            assert report.exact_delta_o <= report.expectation_bound, (
                f"N={n} trial={trial}: deviation {report.exact_delta_o:.3e} "
                f"beats bound {report.expectation_bound:.3e}"
            )
            assert report.exact_delta_o <= report.commutator_bound, (
                f"N={n} trial={trial}: deviation above the commuting-case bound"
            )
    _pass("C6", f"({3 * trials_per_size} regime trials under both bounds)")


def test_c7_lp_against_brute_force():
    """Criterion 7: simplex agrees with vertex enumeration on 1000 random instances."""
    rng = np.random.default_rng(37)
    optimal = 0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        matrix = rng.choice([-1.0, 1.0], size=(m, n))
        rhs = rng.uniform(-2.0, 2.0, size=m)
        program = lp.LinearProgram(matrix, rhs)
        fast = lp.solve(program)
        slow = brute_force_optimum(program)
        assert fast.is_optimal == slow.is_optimal
        if fast.is_optimal:
            assert abs(fast.times.sum() - slow.times.sum()) <= 1e-9
            optimal += 1
    _pass("C7", f"(1000 instances, {optimal} optimal, rest infeasible)")


def test_c8_commuting_replay_exactness():
    """Criterion 8: ZZ replay equals the exact target evolution to 1e-10."""
    worst = 0.0
    for trial in range(100):
        n = 3 + trial % 6  # sizes 3..8
        kind = KINDS[trial % 3]
        seed = derive_seed("replay", trial)
        h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(seed, "p"))
        sched = synthesize(h_p, h_s, defect, 1.0, REMOVE, derive_seed(seed, "s"))
        # both are the evolved |+>; for diagonal unitaries, the largest amplitude
        # gap over 2^(-N/2) is the spectral distance of the unitaries
        distance = np.abs(
            dense.replay_unitary(sched, h_s, q=1) - dense.evolution_unitary(h_p, 1.0)
        ).max() * 2 ** (n / 2)
        worst = max(worst, distance)
        assert distance <= 1e-10, f"trial {trial} N={n}: distance {distance:.3e}"
    _pass("C8", f"(100 instances to N=8, worst distance {worst:.2e})")


def test_c9_sweep_determinism(tmp_path):
    """Criterion 9: the sweep CLI is byte-deterministic for identical flags."""
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    flags = [
        "sweep", "--topology", "random", "--n-min", "3", "--n-max", "5",
        "--trials", "25", "--seed", "123",
    ]
    assert cli_main(flags + ["--out", str(out_a)]) == 0
    assert cli_main(flags + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert cli_main(flags + ["--out", str(out_a)]) == 0  # overwrite in place
    assert out_a.read_bytes() == out_b.read_bytes()
    _pass("C9", "(byte-identical CSV across reruns)")
