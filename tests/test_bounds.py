import math
import re

import numpy as np
import pytest

from daqc import bounds, dense
from daqc.errors import SimulabilityError, ValidationError
from daqc.harness import TopologySpec, derive_seed, generate_problem
from daqc.pauli import CouplingKey, CouplingVector, hadamard_divide, vector_p_norm
from daqc.schedule import SynthesisMode, error_vector, synthesize
from helpers import entries, same


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


TRIANGLE = (zz(0, 1), zz(0, 2), zz(1, 2))


# ---- defect sampling ---------------------------------------------------------


def test_sample_defect_range_and_support():
    sample = bounds.sample_defect(3, TRIANGLE, 10.0, rng_seed=3)
    assert sample.h_delta.keys() == TRIANGLE
    values = sample.h_delta.values_array()
    assert len(values) == 3
    assert np.abs(values).max() <= 10.0


def test_sample_defect_deterministic():
    a = bounds.sample_defect(3, TRIANGLE, 2.0, rng_seed=123)
    b = bounds.sample_defect(3, TRIANGLE, 2.0, rng_seed=123)
    assert same(a.h_delta, b.h_delta)


def test_sample_defect_validates_delta():
    with pytest.raises(ValidationError):
        bounds.sample_defect(3, TRIANGLE, 0.0, rng_seed=0)


def test_defect_sample_above_its_delta_is_rejected_naming_the_first_key():
    # evaluate_bounds took this random N = 5 sample, scaled x100 past its delta, silently:
    # exact_op_norm 3889.3 against op_norm_bound 126.7 on the remove-mode schedule of seed 3
    defect = generate_problem(TopologySpec("random", 5), 100.0, 7)[2]
    sample = bounds.sample_defect(5, defect, 10.0, 5)
    scaled = CouplingVector.from_sorted(5, sample.h_delta.keys(), 100.0 * sample.h_delta.values_array())
    first = next(key for key, value in entries(scaled).items() if abs(value) > 10.0)
    with pytest.raises(ValidationError, match=f"defect coupling {re.escape(str(first))} exceeds delta 10.0"):
        bounds.DefectSample(scaled, 10.0)
    bounds.DefectSample(CouplingVector(3, {zz(0, 1): -0.5, zz(1, 2): 0.5}), 0.5)  # |h_delta| = delta is allowed


# ---- closed-form bounds --------------------------------------------------------


def ratio_pair():
    h_s = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): 1.0})
    h_p = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): 1.0})
    return h_p, h_s


def unit_ratios():
    return hadamard_divide(*ratio_pair())


def unit_norm(p):
    return vector_p_norm(unit_ratios(), p)


def test_p_norm_bound_zero_delta():
    assert bounds.p_norm_error_bound(unit_norm(2.0), 0.0, 1.0, 1.0, 1, p=2.0) == 0.0


def test_p_norm_bound_direct_evaluation():
    # ratio one-norm 2, t_A/T = 1, one extra edge, delta 0.1 -> 0.1*2 + 0.1*1
    value = bounds.p_norm_error_bound(unit_norm(1.0), 0.1, 1.0, 1.0, 1, p=1.0)
    assert value == pytest.approx(0.3)
    # ratio inf-norm 1, and |E|^(1/inf) = 1 for four extra edges -> 0.1*1 + 0.1*1
    value = bounds.p_norm_error_bound(unit_norm(math.inf), 0.1, 1.0, 1.0, 4, p=math.inf)
    assert value == pytest.approx(0.2)


def test_p_norm_bound_no_defect_only_edges():
    for p in (1.0, 2.0, math.inf):
        value = bounds.p_norm_error_bound(unit_norm(p), 0.5, 1.0, 7.0, 0, p=p)
        assert value == pytest.approx(0.5 * unit_norm(p))


def test_ratio_bounds_reject_problem_coupling_without_source():
    # its ratio is unbounded, so a bound that dropped the coupling would be unsound
    _, h_s = ratio_pair()
    h_p = CouplingVector(3, {zz(0, 1): 1.0, zz(1, 2): 1.0})
    with pytest.raises(SimulabilityError):
        hadamard_divide(h_p, h_s)
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS)
    unmeasured = sorted(set(defect) - set(h_s.support()))[0]
    h_p = h_p + CouplingVector(h_p.n_qubits, {unmeasured: 1.0})
    with pytest.raises(SimulabilityError):
        bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)


def test_p_norm_bound_rejects_minus_inf():
    with pytest.raises(ValidationError):
        bounds.p_norm_error_bound(unit_norm(1.0), 0.1, 1.0, 1.0, 1, p=-math.inf)


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, 0.5, 0.99])
def test_p_norm_bound_rejects_an_order_below_one(p):
    # below 1 the p-"norm" breaks the triangle inequality the bound adds its two parts by:
    # at p = 0.5, nn N = 3 trial 0 of master seed 11 (remove) had ||h_eps||_p 79.48 against a bound of 57.27
    with pytest.raises(ValidationError, match="norm order must be at least 1 or inf"):
        bounds.p_norm_error_bound(1.0, 0.1, 1.0, 1.0, 1, p=p)
    with pytest.raises(ValidationError, match="norm order must be at least 1 or inf"):
        vector_p_norm(unit_ratios(), p)


@pytest.mark.parametrize("mode", [SynthesisMode.REMOVE_ZEROS, SynthesisMode.MITIGATE_ZEROS])
def test_op_norm_bound_is_one_norm_case(mode):
    # a mitigated schedule cancels the unmeasured edges, so their term drops out
    h_p, h_s, defect, sched, sample = make_case(mode, seed=4)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    e_ds = 0 if mode is SynthesisMode.MITIGATE_ZEROS else report.defect_only_edge_count
    assert report.defect_only_edge_count > 0
    assert report.op_norm_bound == bounds.p_norm_error_bound(
        report.ratio_norm_1, sample.delta, 1.0, sched.total_analog_time, e_ds, 1.0
    )


def test_op_norm_bound_three_qubit_path():
    assert bounds.p_norm_error_bound(unit_norm(1.0), 0.1, 1.0, 1.0, 1, 1.0) == pytest.approx(0.3)


def test_frobenius_factor_single_ratio():
    h_s = CouplingVector(2, {zz(0, 1): 2.0})
    h_p = CouplingVector(2, {zz(0, 1): -3.0})
    assert bounds.frobenius_stability_factor(vector_p_norm(hadamard_divide(h_p, h_s), 2.0), 1.0, 1.0, 0) == \
        pytest.approx(1.5)


def test_frobenius_factor_equal_ratios():
    m = 4
    h_s = CouplingVector(5, {zz(i, i + 1): 2.0 for i in range(m)})
    h_p = CouplingVector(5, {zz(i, i + 1): 1.0 for i in range(m)})
    assert bounds.frobenius_stability_factor(vector_p_norm(hadamard_divide(h_p, h_s), 2.0), 1.0, 1.0, 0) == \
        pytest.approx(0.5 * math.sqrt(m))


def test_frobenius_factor_two_couplings_max_min_form():
    h_s = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): 2.0})
    h_p = CouplingVector(3, {zz(0, 1): 3.0, zz(0, 2): 1.0})
    ratios = hadamard_divide(h_p, h_s)
    expected = math.sqrt(
        vector_p_norm(ratios, math.inf) ** 2 + np.abs(ratios.values_array()).min() ** 2
    )
    assert bounds.frobenius_stability_factor(vector_p_norm(ratios, 2.0), 1.0, 1.0, 0) == pytest.approx(expected)


def test_expectation_bound_zero_delta():
    assert bounds.expectation_error_bound(1, 1.0, 2, 2, 1.0, 0.0, 1.0, 1.0) == 0.0


def test_expectation_bound_direct_evaluation():
    # 6 * T * delta * supp * deg_P * |O| * ratio + 6 * t_A * delta * supp * deg_DS * |O|
    value = bounds.expectation_error_bound(2, 0.5, 3, 1, 2.0, 0.01, 1.0, 4.0)
    assert value == pytest.approx(6 * 1.0 * 0.01 * 2 * 3 * 0.5 * 2.0 + 6 * 4.0 * 0.01 * 2 * 1 * 0.5)


@pytest.mark.parametrize("mode", [SynthesisMode.REMOVE_ZEROS, SynthesisMode.MITIGATE_ZEROS])
def test_mitigated_bound_is_first_term(mode):
    # the general bound with no unmeasured degree and t_A = 0, in either mode
    h_p, h_s, defect, sched, sample = make_case(mode, seed=4)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    assert report.defect_only_degree > 0
    assert report.expectation_bound_mitigated == bounds.expectation_error_bound(
        1, 1.0, report.problem_degree, 0, report.ratio_norm_inf, sample.delta, 1.0, 0.0
    )
    assert report.expectation_bound_mitigated < report.expectation_bound


def test_mitigated_bound_worked_example():
    assert bounds.expectation_error_bound(1, 1.0, 2, 0, 1.0, 0.01, 1.0, 0.0) == pytest.approx(0.12)


def test_bound_monotonicity_under_perturbation():
    norm_1, norm_2 = unit_norm(1.0), unit_norm(2.0)
    rng = np.random.default_rng(9)
    base = dict(delta=0.3, t=1.0, t_a=2.0, e_ds=2)
    b0 = bounds.p_norm_error_bound(norm_1, base["delta"], base["t"], base["t_a"], base["e_ds"], 1.0)
    f0 = bounds.frobenius_stability_factor(norm_2, base["t_a"], base["t"], base["e_ds"])
    e0 = bounds.expectation_error_bound(1, 1.0, 2, 1, 1.0, base["delta"], base["t"], base["t_a"])
    for _ in range(25):
        bump = float(rng.uniform(0, 1))
        assert bounds.p_norm_error_bound(norm_1, base["delta"] + bump, base["t"], base["t_a"], base["e_ds"], 1.0) >= b0
        assert bounds.p_norm_error_bound(norm_1, base["delta"], base["t"], base["t_a"] + bump, base["e_ds"], 1.0) >= b0
        assert bounds.frobenius_stability_factor(norm_2, base["t_a"] + bump, base["t"], base["e_ds"]) >= f0
        assert bounds.frobenius_stability_factor(norm_2, base["t_a"], base["t"], base["e_ds"] + 1) >= f0
        assert bounds.expectation_error_bound(1, 1.0, 2, 1, 1.0, base["delta"] + bump, base["t"], base["t_a"]) >= e0


# ---- full report ---------------------------------------------------------------


def make_case(mode, seed=0, kind="nn", n=4):
    spec = TopologySpec(kind, n)
    h_p, h_s, defect = generate_problem(spec, 100.0, seed)
    sched = synthesize(h_p, h_s, defect, 1.0, mode, seed + 1)
    sample = bounds.sample_defect(n, defect, 10.0, seed + 2)
    return h_p, h_s, defect, sched, sample


def test_report_soundness_and_echoes():
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS)
    obs = dense.single_qubit_observable("x", 0, 4)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample, observable=obs)
    assert report.exact_op_norm <= report.op_norm_bound
    assert report.exact_frobenius <= report.frobenius_bound
    assert report.n_qubits == 4
    assert report.mode == "remove"
    assert report.defect_only_edge_count == len(defect) - len(h_s.support())
    assert report.total_analog_time == pytest.approx(sched.total_analog_time)
    assert report.observable_support == 1
    assert report.exact_delta_o is not None
    assert report.commutator_bound is not None
    assert report.exact_delta_o <= report.commutator_bound + 1e-12


def test_a_zero_xx_key_on_the_problem_alone_drops_the_commutator_bound():
    # h_eps declares the problem's keys too, so the zero XX key makes its
    # dense build a full matrix: no ZZ commutator, the same operator norm
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS)
    h_p_xx = CouplingVector(4, {**entries(h_p), CouplingKey(0, 1, "x", "x"): 0.0})
    obs = dense.single_qubit_observable("x", 0, 4)
    zz_only, with_xx = (bounds.evaluate_bounds(p, h_s, defect, sched, sample, observable=obs) for p in (h_p, h_p_xx))
    assert zz_only.commutator_bound is not None
    assert with_xx.commutator_bound is None
    assert with_xx.exact_op_norm == pytest.approx(zz_only.exact_op_norm, rel=1e-13)


@pytest.mark.parametrize("mode", [SynthesisMode.REMOVE_ZEROS, SynthesisMode.MITIGATE_ZEROS])
def test_inf_norm_bound_holds_with_unmeasured_edges(mode):
    h_p, h_s, defect, sched, sample = make_case(mode, seed=4)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample, requested_p=math.inf)
    assert report.defect_only_edge_count > 0
    h_eps = error_vector(sched, h_p, h_s, sample.h_delta, h_real=h_s + sample.h_delta)
    assert report.p_norm_bound >= vector_p_norm(h_eps, math.inf)


@pytest.mark.parametrize("mode", [SynthesisMode.REMOVE_ZEROS, SynthesisMode.MITIGATE_ZEROS])
def test_p_norm_bound_holds_at_every_order_it_accepts(mode):
    # the sweep's trials 0..9 at N = 3..6, master seed 11: 600 cases per mode
    worst = 0.0
    for kind in ("nn", "random", "ata"):
        for n in range(3, 7):
            for trial in range(10):
                trial_seed = derive_seed(11, n, trial)
                h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, derive_seed(trial_seed, "problem"))
                sched = synthesize(h_p, h_s, defect, 1.0, mode, derive_seed(trial_seed, "patterns"))
                sample = bounds.sample_defect(n, defect, 10.0, derive_seed(trial_seed, "defect"))
                h_eps = error_vector(sched, h_p, h_s, sample.h_delta, h_real=h_s + sample.h_delta)
                for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                    bound = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample, requested_p=p).p_norm_bound
                    norm = vector_p_norm(h_eps, p)
                    assert norm <= bound, (kind, n, trial, p)
                    worst = max(worst, norm / bound)
    assert worst > 0.9  # some cases come close, so the check is not vacuous


@pytest.mark.parametrize("requested_p", [2.0, 3.0, math.inf])
def test_each_norm_is_formed_once_per_distinct_order(monkeypatch, requested_p):
    # the parent normed the ratio vector six times at the default p = 2, three of them at p = 2
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS, seed=4)
    calls = []
    norm = bounds.vector_p_norm

    def counted(vector, p):
        calls.append((vector, p))
        return norm(vector, p)

    monkeypatch.setattr(bounds, "vector_p_norm", counted)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample, requested_p=requested_p)
    pairs = [(id(vector), p) for vector, p in calls]
    assert len(pairs) == len(set(pairs))
    ratios = hadamard_divide(h_p, h_s)
    assert [p for vector, p in calls if same(vector, ratios)] == list(dict.fromkeys([1.0, 2.0, math.inf, requested_p]))
    assert (report.ratio_norm_1, report.ratio_norm_2, report.ratio_norm_inf) == tuple(
        norm(ratios, p) for p in (1.0, 2.0, math.inf)
    )
    e_ds = report.defect_only_edge_count
    assert report.p_norm_bound == bounds.p_norm_error_bound(
        norm(ratios, requested_p), sample.delta, 1.0, sched.total_analog_time, e_ds, requested_p
    )


def test_report_mitigated_bound_keeps_first_term_only():
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.MITIGATE_ZEROS, seed=5)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    first_term = sample.delta * report.ratio_norm_1
    assert report.op_norm_bound == pytest.approx(first_term)
    assert report.exact_op_norm <= report.op_norm_bound
    # the factor itself stays protocol-generic
    assert report.frobenius_factor == pytest.approx(
        bounds.frobenius_stability_factor(
            vector_p_norm(hadamard_divide(h_p, h_s), 2.0), sched.total_analog_time, 1.0, report.defect_only_edge_count
        )
    )


@pytest.mark.parametrize("mode", [SynthesisMode.REMOVE_ZEROS, SynthesisMode.MITIGATE_ZEROS])
def test_declared_zero_source_coupling_reads_as_absent(mode):
    # a 0.0 source entry on a defect edge is a 0/0 ratio, like the absent key
    h_p, h_s, defect, _, sample = make_case(mode, seed=7)
    unmeasured = sorted(set(defect) - set(h_s.support()))
    assert unmeasured
    h_s_zeros = CouplingVector(h_s.n_qubits, {**entries(h_s), **{k: 0.0 for k in unmeasured}})
    assert h_s_zeros.keys() == defect
    obs = dense.single_qubit_observable("x", 0, h_s.n_qubits)
    schedules, reports = [], []
    for source in (h_s, h_s_zeros):
        sched = synthesize(h_p, source, defect, 1.0, mode, 8)
        schedules.append(sched.to_text())
        reports.append(bounds.evaluate_bounds(h_p, source, defect, sched, sample, observable=obs))
    assert schedules[0] == schedules[1]
    assert reports[0] == reports[1]


def test_report_counts_and_degrees_read_the_unmeasured_keys_of_a_multigraph():
    # the defect support declares all nine axis pairs of the triangle; only its ZZ edges are measured
    pairs = ((0, 1), (0, 2), (1, 2))
    defect = tuple(CouplingKey(i, j, mu, nu) for i, j in pairs for mu in "xyz" for nu in "xyz")
    h_s = CouplingVector(3, {zz(0, 1): 2.0, zz(0, 2): 1.0, zz(1, 2): 4.0})
    h_p = CouplingVector(3, {zz(0, 1): 1.0, zz(0, 2): -1.0})
    sched = synthesize(h_p, h_s, defect, 1.0, SynthesisMode.REMOVE_ZEROS, 1)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, bounds.sample_defect(3, defect, 0.1, 2))
    assert (report.source_edge_count, report.defect_edge_count, report.defect_only_edge_count) == (3, 27, 24)
    # 2 pairs x 9 axis pairs at every vertex, less its 2 measured ZZ edges; problem edges 01 and 02 meet at 0
    assert (report.defect_only_degree, report.problem_degree) == (16, 2)


def test_report_without_observable_uses_unit_observable():
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS, seed=2)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    assert report.observable_support == 1
    assert report.observable_norm == 1.0
    assert report.exact_delta_o is None
    assert report.commutator_bound is None


def test_report_flags_reflect_regime():
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS, seed=3)
    loud = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    assert not loud.small_defect  # delta=10 vs couplings ~100
    norm = dense.operator_norm(dense.build_dense(h_s))
    short_t = 0.05 / norm
    quiet_sched = synthesize(h_p, h_s, defect, short_t, SynthesisMode.REMOVE_ZEROS, 11)
    tiny = bounds.sample_defect(h_p.n_qubits, defect, 1e-3 * 50.0, 12)
    quiet = bounds.evaluate_bounds(h_p, h_s, defect, quiet_sched, tiny)
    assert quiet.small_defect
    assert quiet.short_time


def _short_time_case(kind, n, target_time, seed=3):
    h_p, h_s, defect = generate_problem(TopologySpec(kind, n), 100.0, seed)
    sched = synthesize(h_p, h_s, defect, target_time, SynthesisMode.REMOVE_ZEROS, seed + 1)
    return h_s, bounds.evaluate_bounds(h_p, h_s, defect, sched, bounds.sample_defect(n, defect, 1.0, seed + 2))


def _record_dense_builds(monkeypatch):
    built = []
    build_dense = dense.build_dense

    def recording(h):
        built.append(h)
        return build_dense(h)

    monkeypatch.setattr(dense, "build_dense", recording)
    return built


def test_short_time_decided_false_by_the_two_norm_builds_no_dense_source(monkeypatch):
    built = _record_dense_builds(monkeypatch)
    h_s, report = _short_time_case("ata", 4, 1.0)
    assert 1.0 * vector_p_norm(h_s, 2.0) >= bounds.SHORT_TIME_LIMIT
    assert not report.short_time
    assert report.exact_op_norm is not None and not any(same(h_s, h) for h in built)


def test_short_time_decided_true_by_the_one_norm_above_the_cap(monkeypatch):
    n = dense.DEFAULT_QUBIT_CAP + 1
    built = _record_dense_builds(monkeypatch)
    h_s = generate_problem(TopologySpec("random", n), 100.0, 3)[1]
    target_time = 0.9 * bounds.SHORT_TIME_LIMIT / vector_p_norm(h_s, 1.0)
    _, report = _short_time_case("random", n, target_time)
    assert report.short_time
    assert report.exact_op_norm is None and not built


@pytest.mark.parametrize("factor, expected", [(0.99, True), (1.01, False)])
def test_straddled_short_time_is_the_dense_answer(factor, expected, monkeypatch):
    h_s = generate_problem(TopologySpec("ata", 4), 100.0, 3)[1]
    norm = dense.operator_norm(dense.build_dense(h_s))
    target_time = factor * bounds.SHORT_TIME_LIMIT / norm
    # on all-to-all couplings the triangles frustrate, so ||H_S||_op < ||h_S||_1
    assert target_time * vector_p_norm(h_s, 2.0) < bounds.SHORT_TIME_LIMIT
    assert target_time * vector_p_norm(h_s, 1.0) >= bounds.SHORT_TIME_LIMIT
    built = _record_dense_builds(monkeypatch)
    _, report = _short_time_case("ata", 4, target_time)
    assert report.short_time == (target_time * norm < bounds.SHORT_TIME_LIMIT) == expected
    assert any(same(h_s, h) for h in built)


def test_report_above_cap_marks_exact_op_absent():
    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS, seed=4, n=dense.DEFAULT_QUBIT_CAP + 1)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    assert report.exact_op_norm is None
    assert report.exact_delta_o is None
    # closed-form Frobenius stays available and sound
    assert report.exact_frobenius is not None
    assert report.exact_frobenius <= report.frobenius_bound


def test_report_json_round_trip():
    import dataclasses
    import json

    h_p, h_s, defect, sched, sample = make_case(SynthesisMode.REMOVE_ZEROS, seed=6)
    report = bounds.evaluate_bounds(h_p, h_s, defect, sched, sample)
    payload = json.loads(json.dumps(dataclasses.asdict(report)))
    assert payload["op_norm_bound"] == report.op_norm_bound
    assert payload["exact_op_norm"] == report.exact_op_norm


def test_report_rejects_defects_outside_support():
    h_p, h_s, defect, sched, _ = make_case(SynthesisMode.REMOVE_ZEROS, seed=7)
    alien = bounds.DefectSample(CouplingVector(4, {CouplingKey(0, 1, "x", "x"): 0.1}), 0.1)
    with pytest.raises(ValidationError):
        bounds.evaluate_bounds(h_p, h_s, defect, sched, alien)
