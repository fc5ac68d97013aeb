import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from daqc import blocks, bounds, dense, harness, pauli
from daqc.errors import ValidationError
from daqc.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TopologySpec,
    TrialRecord,
    derive_seed,
    generate_problem,
    run_experiment,
    run_trial,
    summarize,
)
from daqc.pauli import CouplingKey
from daqc.schedule import SynthesisMode
from helpers import same


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


# ---- topologies and problem generation ----------------------------------------


def test_nn_problem_shape():
    h_p, h_s, defect = generate_problem(TopologySpec("nn", 4), 100.0, rng_seed=1)
    assert h_p.keys() == (zz(0, 1), zz(1, 2), zz(2, 3))
    assert h_s.keys() == h_p.keys()
    for vec in (h_p, h_s):
        mags = np.abs(vec.values_array())
        assert mags.min() >= 50.0 and mags.max() <= 150.0
    # defect support adds exactly the second neighbours
    assert defect == tuple(sorted({*h_p.keys(), zz(0, 2), zz(1, 3)}))


def test_ata_problem_defects_equal_support():
    h_p, h_s, defect = generate_problem(TopologySpec("ata", 4), 100.0, rng_seed=2)
    assert len(h_p.keys()) == 6
    assert defect == h_p.keys()


def test_random_problem_with_zero_probability_is_chain():
    spec = TopologySpec("random", 5, extra_edge_prob=0.0)
    h_p, _, defect = generate_problem(spec, 100.0, rng_seed=3)
    assert h_p.keys() == tuple(zz(i, i + 1) for i in range(4))
    assert len(defect) == 10  # all-to-all defects


def test_random_problem_with_unit_probability_is_complete():
    spec = TopologySpec("random", 5, extra_edge_prob=1.0)
    h_p, _, _ = generate_problem(spec, 100.0, rng_seed=3)
    assert len(h_p.keys()) == 10


def test_problem_generation_deterministic_and_independent():
    spec = TopologySpec("random", 5)
    a = generate_problem(spec, 100.0, rng_seed=11)
    b = generate_problem(spec, 100.0, rng_seed=11)
    c = generate_problem(spec, 100.0, rng_seed=12)
    assert same(a[0], b[0]) and same(a[1], b[1]) and a[2] == b[2]
    assert not same(a[0], c[0])
    # problem and source values differ (independent draws)
    assert not same(a[0], a[1])


def test_topology_validation():
    with pytest.raises(ValidationError):
        TopologySpec("ring", 4)
    with pytest.raises(ValidationError):
        TopologySpec("nn", 1)
    with pytest.raises(ValidationError):
        TopologySpec("random", 4, extra_edge_prob=1.5)
    with pytest.raises(ValidationError):
        TopologySpec("nn", 4, defect_kind="everything")


def test_defect_kind_defaults():
    assert TopologySpec("nn", 4).defect_kind == "second"
    assert TopologySpec("random", 4).defect_kind == "ata"
    assert TopologySpec("ata", 4).defect_kind == "ata"


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(0, 3, 1)
    assert a == derive_seed(0, 3, 1)
    assert a != derive_seed(0, 3, 2)
    assert a != derive_seed(1, 3, 1)
    assert 0 <= a < 2**64


# ---- experiment driver ----------------------------------------------------------


def tiny_config(**overrides):
    defaults = dict(
        topology=TopologySpec("nn", 3),
        n_range=(3, 4),
        trials=4,
        mode=SynthesisMode.REMOVE_ZEROS,
        master_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_zero_trials_gives_empty_list():
    assert run_experiment(tiny_config(trials=0)) == []


def test_run_experiment_is_deterministic():
    records_a = run_experiment(tiny_config())
    records_b = run_experiment(tiny_config())
    assert records_a == records_b


def test_records_satisfy_bound_inequalities():
    for mode in SynthesisMode:
        for record in run_experiment(tiny_config(mode=mode)):
            assert record.exact_op_norm <= record.bound_op_norm
            assert record.exact_frob <= record.frob_bound
            assert record.t_a >= 0.0


def test_run_trial_matches_experiment_rows():
    config = tiny_config()
    records = run_experiment(config)
    assert run_trial(config, 4, 2) == [r for r in records if r.n_qubits == 4][2]


def test_observable_config_populates_exact_delta():
    config = tiny_config(observable_axis="x", trials=2)
    for record in run_experiment(config):
        assert record.exact_delta_o is not None
        assert record.exact_delta_o <= record.expectation_bound + 1e-9


def test_observable_trial_at_the_cap_allocates_no_full_matrix():
    # one complex 1024 x 1024 matrix is 16 MB; the ZZ, sigma-x, state-vector
    # path works on vectors of length 1024 only
    config = ExperimentConfig(TopologySpec("nn", 10), (10,), trials=1, master_seed=11, observable_axis="x")
    tracemalloc.start()
    try:
        record = run_trial(config, 10, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.exact_delta_o is not None
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("mode", list(SynthesisMode))
@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
def test_a_repeated_trial_builds_and_checks_no_key(monkeypatch, kind, mode):
    # the edge lists are built once per N; every vector and key tuple a trial
    # derives from them takes its keys as they are, without rebuilding them
    config = ExperimentConfig(TopologySpec(kind, 7), (7,), trials=1, mode=mode, master_seed=11, observable_axis="x")
    first = run_trial(config, 7, 0)
    # CouplingVector(...) rebuilds every key it is given, so a call of it counts here too
    calls = {"CouplingKey.__new__": 0}
    build_key = CouplingKey.__new__

    def counted_new(cls, *args, **kwargs):
        calls["CouplingKey.__new__"] += 1
        return build_key(cls, *args, **kwargs)

    monkeypatch.setattr(CouplingKey, "__new__", counted_new)
    assert run_trial(config, 7, 0) == first
    assert calls == {"CouplingKey.__new__": 0}


@pytest.mark.parametrize("mode", list(SynthesisMode))
@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
def test_a_repeated_trial_checks_key_order_nine_times(monkeypatch, kind, mode):
    # the defect support is checked by each public function a trial passes it
    # to: synthesize (in pattern_space_size), sample_defect (in from_sorted) and
    # evaluate_bounds, which builds h_eps and, for the replay, h_real on it; the
    # two sampled vectors and the two ratio vectors make the other four, and
    # the whole space is listed, not sampled
    config = ExperimentConfig(TopologySpec(kind, 7), (7,), trials=1, mode=mode, master_seed=11, observable_axis="x")
    first = run_trial(config, 7, 0)
    calls = []
    check_sorted = pauli._check_sorted

    def counted(keys, n_qubits):
        calls.append(keys)
        return check_sorted(keys, n_qubits)

    for module in (pauli, blocks, bounds):
        monkeypatch.setattr(module, "_check_sorted", counted)
    assert run_trial(config, 7, 0) == first
    assert len(calls) == 9


@pytest.mark.parametrize("mode", list(SynthesisMode))
@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
def test_a_repeated_whole_space_trial_reads_the_sign_tables_only(monkeypatch, kind, mode):
    # every sign of a ZZ trial at N <= 9 is gathered from the per-size tables, built on the first trial
    config = ExperimentConfig(TopologySpec(kind, 7), (7,), trials=1, mode=mode, master_seed=11, observable_axis="x")
    first = run_trial(config, 7, 0)
    tables = (blocks._ix_masks, blocks._zz_signs)
    misses = [table.cache_info().misses for table in tables]
    calls = []
    kernel = blocks._symplectic_signs

    def counted(terms, layers):
        calls.append(len(layers))
        return kernel(terms, layers)

    monkeypatch.setattr(blocks, "_symplectic_signs", counted)
    assert run_trial(config, 7, 0) == first
    assert [table.cache_info().misses for table in tables] == misses
    assert calls == []


@pytest.mark.parametrize("mode", list(SynthesisMode))
@pytest.mark.parametrize("kind", ["nn", "random", "ata"])
def test_a_repeated_observable_trial_misses_no_size_table(kind, mode):
    # dense and synthesis build their size-only arrays once per N
    config = ExperimentConfig(TopologySpec(kind, 7), (7,), trials=1, mode=mode, master_seed=11, observable_axis="x")
    first = run_trial(config, 7, 0)
    tables = (dense._basis, dense._z_rows, dense._zz_rows, dense.plus_state, dense.single_qubit_observable,
              blocks.canonical_patterns)
    misses = [table.cache_info().misses for table in tables]
    assert run_trial(config, 7, 0) == first
    assert [table.cache_info().misses for table in tables] == misses


def test_sweep_csv_digest_is_pinned():
    """SHA-256 of a fixed sweep's CSV; a change to these bytes edits this test.

    3 topologies x 2 modes x N = 3..8, one trial each, sigma-x observable;
    the same digest at one and two BLAS threads.
    """
    records = [
        record
        for kind in ("nn", "random", "ata")
        for mode in SynthesisMode
        for record in run_experiment(ExperimentConfig(
            TopologySpec(kind, 3), tuple(range(3, 9)), trials=1, mode=mode,
            master_seed=11, observable_axis="x",
        ))
    ]
    rows = io.StringIO()
    harness.write_records(records, rows)
    digest = hashlib.sha256(rows.getvalue().encode("ascii")).hexdigest()
    assert digest == "c284e6a719f0d5a407b19053bbf62477e36ab163e540886773f074d7200c6f21"


def test_trial_failure_names_the_seed(monkeypatch):
    config = tiny_config()

    def boom(*args, **kwargs):
        raise ValidationError("injected")

    monkeypatch.setattr(harness, "generate_problem", boom)
    with pytest.raises(ValidationError, match="seed="):
        run_trial(config, 3, 0)


# ---- CSV round-trips -------------------------------------------------------------


def test_csv_round_trip_is_lossless():
    records = run_experiment(tiny_config())
    buf = io.StringIO()
    harness.write_records(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    again = harness.read_records(io.StringIO(text))
    assert again == records


def test_csv_empty_cells_for_missing_exacts():
    record = TrialRecord(0, 12, "nn", "remove", 42, 1.0, None, 2.0, None, 3.0, 4.0, 5.0, None, True, False)
    row = record.to_row()
    assert row[6] == "" and row[12] == ""
    assert TrialRecord.from_row(row) == record


def test_csv_rejects_malformed_rows():
    with pytest.raises(ValidationError):
        TrialRecord.from_row(["1", "2", "nn"])
    with pytest.raises(ValidationError):
        harness.read_records(io.StringIO("not,a,results,file\n"))
    # a flag cell is 0 or 1; anything else is not read as False
    row = TrialRecord(0, 3, "nn", "remove", 42, 1.0, None, 2.0, None, 3.0, 4.0, 5.0, None, True, False).to_row()
    for cell in ("yes", "maybe", "", "2"):
        with pytest.raises(ValidationError, match="flag"):
            TrialRecord.from_row(row[:-1] + [cell])


# ---- summaries --------------------------------------------------------------------


def record_with(t_a, exact=1.0, bound=2.0, n=3):
    return TrialRecord(0, n, "nn", "remove", 0, t_a, exact, bound, exact, bound, 0.0, 0.0, None, False, False)


def test_summary_single_record():
    rows = summarize([record_with(2.5)])
    stats = rows[0].stats
    assert stats["t_A_mean"] == stats["t_A_median"] == stats["t_A_q25"] == stats["t_A_q75"] == 2.5
    assert rows[0].count == 1


def test_summary_quartiles_linear_interpolation():
    rows = summarize([record_with(v) for v in (1.0, 2.0, 3.0, 4.0)])
    stats = rows[0].stats
    assert stats["t_A_median"] == pytest.approx(2.5)
    assert stats["t_A_q25"] == pytest.approx(1.75)
    assert stats["t_A_q75"] == pytest.approx(3.25)


def test_summary_groups_and_means():
    records = run_experiment(tiny_config())
    rows = summarize(records)
    assert [r.n_qubits for r in rows] == [3, 4]
    for row in rows:
        assert row.stats["bound_op_norm_mean"] >= row.stats["exact_op_norm_mean"]


def test_summary_warns_on_missing_metric():
    record = TrialRecord(0, 3, "nn", "remove", 0, 1.0, None, 2.0, None, 3.0, 0.0, 0.0, None, False, False)
    with pytest.warns(UserWarning, match="exact_op_norm"):
        rows = summarize([record])
    assert rows[0].stats["exact_op_norm_mean"] is None
    cells = rows[0].to_row()
    assert "" in cells


def test_summary_csv_shape():
    buf = io.StringIO()
    harness.write_summary(summarize([record_with(1.0)]), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("N,topology,mode,count,exact_op_norm_mean")
    assert len(lines) == 2
