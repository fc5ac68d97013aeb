"""The committed measurement scripts under ``tools/`` run as documented."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inprocess_times_the_working_tree_against_itself_for_one_round():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT), "--rounds", "1"],
        capture_output=True, text=True, timeout=600, check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    timings = json.loads(done.stdout)["mean_best_us"]
    assert sorted(timings) == ["replay_obs", "sweep_small"]
    assert "expectation_deviation" in timings["replay_obs"]
    assert "expectation_deviation" not in timings["sweep_small"]
    for calls in timings.values():
        assert {"run_trial", "error_vector", "build_dense"} <= set(calls)
        assert all(times["a"] > 0 and times["b"] > 0 for times in calls.values())
