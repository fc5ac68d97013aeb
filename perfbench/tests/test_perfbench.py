"""Tests of the benchmark's own machinery: tracer, trial loop, metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench
import layertrace
from daqc import bounds, harness, schedule
from daqc.errors import InternalConsistencyError

BENCH_DIR = Path(bench.__file__).resolve().parent
ROOT = BENCH_DIR.parent
TINY = bench.Workload("tiny", "smallest sweep shape", ("nn",), (3,), 2)
TINY_OBS = bench.Workload("tiny_obs", "smallest replay shape", ("nn",), (3,), 1, observable_axis="x")


def _daqc_functions():
    return {
        (module.__name__, attr): value
        for module in layertrace._daqc_modules()
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    }


def _in_order(workload):
    trials = workload.trials()
    return trials, list(range(len(trials)))


def test_tracer_patches_caller_namespaces_and_restores_them():
    before = _daqc_functions()
    tracer = layertrace.Tracer()
    with tracer:
        # names bound by ``from ... import`` are wrapped where the caller looks them up
        assert schedule.build_sign_matrix.__wrapped__ is before[("daqc.blocks", "build_sign_matrix")]
        assert bounds.error_vector.__wrapped__ is before[("daqc.schedule", "error_vector")]
        assert harness.synthesize.__wrapped__ is before[("daqc.schedule", "synthesize")]
        bench.run_pass(TINY_OBS, *_in_order(TINY_OBS), tracer)
    assert _daqc_functions() == before
    assert {s.name for s in tracer.spans} >= {"blocks.build_sign_matrix", "dense.replay_unitary", "lp.solve"}

    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert _daqc_functions() == before


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        layertrace.Span("root", 0, None, start=0, end=100),
        layertrace.Span("a", 0, 0, start=10, end=30),
        layertrace.Span("b", 0, 0, start=20, end=50),  # overlaps a
        layertrace.Span("c", 0, 1, start=12, end=18),  # grandchild, inside a
        layertrace.Span("d", 0, 0, start=90, end=120),  # runs past its parent
    ]
    assert layertrace.self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 30]


def test_injected_daqc_error_fails_only_its_trial(monkeypatch):
    real = harness.run_trial

    def flaky(config, n_qubits, trial_index):
        if trial_index == 1:
            raise InternalConsistencyError("injected")
        return real(config, n_qubits, trial_index)

    monkeypatch.setattr(harness, "run_trial", flaky)
    trials, order = _in_order(TINY)
    result = bench.run_pass(TINY, trials, order)
    assert result.attempted == len(trials) == 4
    assert len(result.failures) == 2
    assert all("index=1" in line and "injected" in line for line in result.failures)
    assert {"mode=remove", "mode=mitigate"} == {w for line in result.failures for w in line.split() if w.startswith("mode=")}
    assert result.problems == []


def test_digest_is_the_same_traced_untraced_and_in_any_order():
    trials, order = _in_order(TINY_OBS)
    plain = bench.run_pass(TINY_OBS, trials, order)
    with layertrace.Tracer() as tracer:
        traced = bench.run_pass(TINY_OBS, trials, order[::-1], tracer)
    assert bench.consistency_problems([plain, traced]) == []
    metrics = layertrace.layer_metrics(tracer.spans, 1)
    assert metrics.keys() == layertrace.layer_metric_units().keys()
    assert metrics["harness.run_trial.calls"] == len(trials)
    assert metrics["dense.replay_unitary.self_s"] <= metrics["dense.replay_unitary.busy_s"]


def test_broken_invariant_is_reported():
    trial = TINY.trials()[0]
    record = harness.run_trial(trial.config, trial.n_qubits, trial.index)
    broken = dataclasses.replace(record, exact_op_norm=2 * record.bound_op_norm, exact_delta_o=0.5)
    problems = bench.check_record(TINY, trial, broken)
    assert len(problems) == 2
    assert "exact_op_norm" in problems[0] and "exact_delta_O" in problems[1]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == bench.END_TO_END_UNITS
    assert declared_layer == layertrace.layer_metric_units() | {"trace.overhead_frac": "frac"}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS) - {"exact_n10", "ladder_large"}
    for name in [*declared_e2e, *declared_layer]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and len(name) <= 64, name


def test_run_refuses_a_directory_without_daqc_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_small", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
