import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from daqc import cli, harness, lp
from daqc.errors import InternalConsistencyError
from daqc.pauli import CouplingKey, CouplingVector
from daqc.schedule import Schedule, SynthesisMode
from helpers import same, write_couplings


def zz(i, j):
    return CouplingKey(i, j, "z", "z")


@pytest.fixture
def workspace(tmp_path):
    problem = CouplingVector(3, {zz(0, 1): 55.0, zz(0, 2): -80.0})
    source = CouplingVector(3, {zz(0, 1): 110.0, zz(0, 2): 64.0})
    defects = CouplingVector(3, {zz(0, 1): 0.0, zz(0, 2): 0.0, zz(1, 2): 0.0})
    paths = {
        "problem": tmp_path / "problem.txt",
        "source": tmp_path / "source.txt",
        "defects": tmp_path / "defects.txt",
        "schedule": tmp_path / "schedule.txt",
    }
    write_couplings(problem, paths["problem"])
    write_couplings(source, paths["source"])
    write_couplings(defects, paths["defects"])
    return tmp_path, paths


def run_synth(paths, mode="mitigate", seed=3):
    return cli.main([
        "synth",
        "--problem", str(paths["problem"]),
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--time", "1.0",
        "--mode", mode,
        "--seed", str(seed),
        "--out", str(paths["schedule"]),
    ])


def test_synth_writes_parseable_schedule(workspace, capsys):
    _, paths = workspace
    assert run_synth(paths) == 0
    sched = Schedule.load(paths["schedule"])
    assert sched.n_qubits == 3
    assert sched.mode.value == "mitigate"
    assert "t_A=" in capsys.readouterr().out


def test_synth_deterministic_output_bytes(workspace):
    _, paths = workspace
    run_synth(paths)
    first = paths["schedule"].read_bytes()
    run_synth(paths)
    assert paths["schedule"].read_bytes() == first


def test_analyze_json_report(workspace, capsys):
    _, paths = workspace
    run_synth(paths)
    capsys.readouterr()
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--delta", "10",
        "--seed", "4",
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "mitigate"
    assert payload["exact_op_norm"] <= payload["op_norm_bound"]
    assert payload["defect_only_edge_count"] == 1


def test_analyze_defaults_to_all_to_all_defects(workspace, capsys):
    _, paths = workspace
    run_synth(paths, mode="remove")
    capsys.readouterr()
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--problem", str(paths["problem"]),
        "--delta", "5",
        "--seed", "4",
        "--observable-x", "0",
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defect_edge_count"] == 3
    assert payload["exact_delta_o"] is not None


def test_analyze_plain_text_output(workspace, capsys):
    _, paths = workspace
    run_synth(paths)
    capsys.readouterr()
    assert cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--delta", "1",
        "--seed", "0",
    ]) == 0
    out = capsys.readouterr().out
    assert "op_norm_bound:" in out


def test_sweep_and_summarize_round_trip(workspace, tmp_path, capsys):
    _, paths = workspace
    results = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    args = [
        "sweep", "--topology", "nn", "--n-min", "3", "--n-max", "4",
        "--trials", "5", "--seed", "9", "--out", str(results),
    ]
    assert cli.main(args) == 0
    first = results.read_bytes()
    assert cli.main(args) == 0
    assert results.read_bytes() == first  # byte-identical rerun
    assert cli.main(["summarize", "--in", str(results), "--out", str(summary)]) == 0
    assert summary.read_text().splitlines()[0].startswith("N,topology,mode,count")


def test_sweep_csv_does_not_depend_on_blas_threads(tmp_path):
    """Same bytes at one and two BLAS threads.

    exact_frob once went through a threaded BLAS dot product, which rounded
    differently at two threads on the 128 x 128 matrices of N = 7.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    csv_bytes = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, PYTHONPATH=pythonpath,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "daqc.cli", "sweep", "--topology", "ata",
             "--n-min", "3", "--n-max", "7", "--trials", "4", "--seed", "11",
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        csv_bytes.append(out.read_bytes())
    assert csv_bytes[0].count(b"\n") == 1 + 5 * 4
    assert csv_bytes[0] == csv_bytes[1]


def test_observable_sweep_above_the_dense_cap_exits_zero(tmp_path):
    # the bounds need only the observable's support and norm, not its matrix
    out = tmp_path / "o.csv"
    assert cli.main([
        "sweep", "--topology", "nn", "--n-min", "11", "--n-max", "11",
        "--trials", "1", "--observable-x", "0", "--out", str(out),
    ]) == 0
    (record,) = harness.load_records(out)
    assert record.exact_delta_o is None
    assert record.expectation_bound is not None


def test_analyze_observable_on_an_eleven_qubit_source(tmp_path, capsys):
    n = 11
    chain = [zz(i, i + 1) for i in range(n - 1)]
    paths = {name: tmp_path / f"{name}.txt" for name in ("problem", "source", "defects", "schedule")}
    write_couplings(CouplingVector(n, {key: 40.0 + 3.0 * k for k, key in enumerate(chain)}), paths["problem"])
    write_couplings(CouplingVector(n, {key: 90.0 - 2.0 * k for k, key in enumerate(chain)}), paths["source"])
    write_couplings(CouplingVector(n, {key: 0.0 for key in chain}), paths["defects"])
    assert run_synth(paths, mode="remove") == 0
    capsys.readouterr()
    assert cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--delta", "1", "--seed", "0",
        "--observable-x", "0",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_delta_o"] is None
    assert payload["observable_norm"] == 1.0
    assert payload["expectation_bound"] > 0.0


def test_missing_file_exits_validation(workspace):
    _, paths = workspace
    code = cli.main([
        "synth",
        "--problem", str(paths["problem"]) + ".nope",
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--time", "1.0", "--mode", "remove", "--seed", "1",
        "--out", str(paths["schedule"]),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_a_defect_support_on_other_qubits_exits_validation(workspace, capsys, command):
    # its keys fit the source's 3 qubits, but the file declares 4
    _, paths = workspace
    run_synth(paths)
    write_couplings(CouplingVector(4, {zz(0, 1): 0.0, zz(0, 2): 0.0, zz(1, 2): 0.0}), paths["defects"])
    capsys.readouterr()
    if command == "synth":
        code = run_synth(paths)
    else:
        code = cli.main(["analyze", "--schedule", str(paths["schedule"]), "--source", str(paths["source"]),
                         "--defects", str(paths["defects"]), "--delta", "10", "--seed", "4"])
    assert code == 2
    assert "error: the defect support is on 4 qubits, the source on 3" in capsys.readouterr().err


def test_unsimulatable_problem_exits_validation(workspace, tmp_path):
    _, paths = workspace
    bad = tmp_path / "bad_problem.txt"
    write_couplings(CouplingVector(3, {zz(1, 2): 10.0}), bad)
    code = cli.main([
        "synth",
        "--problem", str(bad),
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--time", "1.0", "--mode", "remove", "--seed", "1",
        "--out", str(paths["schedule"]),
    ])
    assert code == 2


@pytest.mark.parametrize("bad_time", ["nan", "inf"])
def test_analyze_rejects_non_finite_block_time(workspace, capsys, bad_time):
    _, paths = workspace
    paths["schedule"].write_text(f"n_qubits=3\nT=1\nmode=remove\nIII 0.5\nXII {bad_time}\n")
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--delta", "10",
        "--seed", "4",
    ])
    assert code == 2
    assert f"block times must be finite and nonnegative, got {bad_time}" in capsys.readouterr().err


@pytest.mark.parametrize("observable", [[], ["--observable-x", "1"]], ids=["plain", "observable"])
@pytest.mark.parametrize("q", ["0", "-2"])
def test_analyze_rejects_a_nonpositive_trotter_count(workspace, capsys, q, observable):
    # the step count is checked whether or not an exact replay uses it
    _, paths = workspace
    run_synth(paths)
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--delta", "10",
        "--seed", "4",
        "--q", q,
        *observable,
    ])
    assert code == 2
    assert f"trotter step count must be a positive integer, got {q}" in capsys.readouterr().err


def test_analyze_rejects_a_problem_the_schedule_does_not_realize(workspace, tmp_path, capsys):
    _, paths = workspace
    run_synth(paths, seed=7)
    other = tmp_path / "other_problem.txt"
    write_couplings(CouplingVector(3, {zz(0, 1): 30.0, zz(0, 2): -80.0}), other)
    capsys.readouterr()
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--problem", str(other),
        "--delta", "10", "--seed", "3",
    ])
    assert code == 2
    assert "coupling (0,1,z,z), the problem asks 30" in capsys.readouterr().err


def test_analyze_rejects_a_mitigated_schedule_that_leaves_an_edge(workspace, capsys):
    _, paths = workspace
    paths["schedule"].write_text("n_qubits=3\nT=1\nmode=mitigate\nIII 0.5\n")
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--delta", "10", "--seed", "3",
    ])
    assert code == 2
    assert "sign weight 5.000e-01 on unmeasured edge (1,2,z,z)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_a_defect_support_without_a_source_coupling_exits_validation(workspace, capsys, command):
    # the source couples (0,2), which the defect file leaves out
    _, paths = workspace
    run_synth(paths)
    write_couplings(CouplingVector(3, {zz(0, 1): 0.0, zz(1, 2): 0.0}), paths["defects"])
    capsys.readouterr()
    if command == "synth":
        code = run_synth(paths)
    else:
        code = cli.main(["analyze", "--schedule", str(paths["schedule"]), "--source", str(paths["source"]),
                         "--defects", str(paths["defects"]), "--delta", "10", "--seed", "4"])
    assert code == 2
    assert "error: source coupling (0,2,z,z) missing from the defect support" in capsys.readouterr().err


@pytest.mark.parametrize("n, expected", [(1500, 0), (2046, 2), (2048, 2)])
def test_analyze_exits_validation_where_the_frobenius_norms_overflow(tmp_path, capsys, n, expected):
    # sqrt(2^N) overflows a float at N = 2048, and times ||h_delta||_2 a little below it
    paths = {name: tmp_path / f"{name}.txt" for name in ("source", "defects", "schedule")}
    write_couplings(CouplingVector(n, {zz(0, 1): 90.0, zz(1, 2): -70.0}), paths["source"])
    write_couplings(CouplingVector(n, {zz(0, 1): 0.0, zz(0, 2): 0.0, zz(1, 2): 0.0}), paths["defects"])
    paths["schedule"].write_text(f"n_qubits={n}\nT=1\nmode=remove\n{'I' * n} 1\n")
    code = cli.main(["analyze", "--schedule", str(paths["schedule"]), "--source", str(paths["source"]),
                     "--defects", str(paths["defects"]), "--delta", "10", "--seed", "0", "--json"])
    out, err = capsys.readouterr()
    assert code == expected, err
    if expected:
        assert f"error: the Frobenius norms overflow a float at N = {n}" in err
    else:
        payload = json.loads(out)
        assert all(math.isfinite(payload[name]) for name in ("defect_frobenius", "frobenius_bound", "exact_frobenius"))


MALFORMED_FILES = {
    "schedule-duplicate-header": ("schedule", "n_qubits=3\nT=1\nT=2\nmode=remove\nIII 1\n",
                                  "line 3: duplicate T header"),
    "schedule-block-not-pattern-time": ("schedule", "n_qubits=3\nT=1\nmode=remove\nIII 0.5\nXXI 0.5 1\n",
                                        "line 5: expected 'pattern time', got 'XXI 0.5 1'"),
    "schedule-non-numeric-n-qubits": ("schedule", "n_qubits=three\nT=1\nmode=remove\nIII 1\n",
                                      "line 1: bad n_qubits header 'n_qubits=three'"),
    "schedule-zero-n-qubits": ("schedule", "n_qubits=0\nT=1\nmode=remove\nIII 1\n",
                               "line 1: n_qubits must be a positive integer, got 0"),
    "schedule-negative-n-qubits-no-blocks": ("schedule", "T=1\nmode=remove\n\nn_qubits=-1\n",
                                             "line 4: n_qubits must be a positive integer, got -1"),
    "schedule-non-numeric-T": ("schedule", "n_qubits=3\n\nT=1 s\nmode=remove\nIII 1\n",
                               "line 3: bad T header 'T=1 s'"),
    "schedule-unknown-header": ("schedule", "n_qubits=3\nT=1\nmode=remove\nIXX=0.5\n",
                                "line 4: unknown header 'IXX', expected n_qubits, T or mode"),
    "couplings-duplicate-header": ("source", "n_qubits=3\n0 1 z z 110\nn_qubits=3\n",
                                   "line 3: duplicate n_qubits header"),
    "couplings-non-integer-header": ("source", "# device\nn_qubits=3.0\n0 1 z z 110\n",
                                     "line 2: bad n_qubits header 'n_qubits=3.0'"),
    "couplings-unparseable-line": ("source", "n_qubits=3\n0 1 z z 110\n0 two z z 64\n",
                                   "line 3: cannot parse '0 two z z 64'"),
    "couplings-before-header": ("source", "\n0 1 z z 110\nn_qubits=3\n",
                                "line 2: coupling before n_qubits header"),
    "couplings-missing-header": ("source", "# no header\n\n", "missing n_qubits header"),
    "couplings-zero-n-qubits": ("source", "n_qubits=0\n", "line 1: n_qubits must be a positive integer, got 0"),
    "couplings-negative-n-qubits": ("source", "n_qubits=-2\n0 1 z z 110\n",
                                    "line 1: n_qubits must be a positive integer, got -2"),
    "couplings-key-past-n-qubits": ("source", "n_qubits=3\n0 1 z z 110\n0 5 z z 64\n",
                                    "line 3: key (0,5,z,z) out of range for 3 qubits"),
    "couplings-infinite-value": ("source", "n_qubits=3\n0 1 z z inf\n",
                                 "line 2: coupling (0,1,z,z) has non-finite value inf"),
    "schedule-pattern-letter": ("schedule", "n_qubits=3\nT=1\nmode=remove\nIXQ 1\n",
                                "line 4: pattern must be a nonempty string over IXYZ, got 'IXQ'"),
    "schedule-pattern-length": ("schedule", "n_qubits=3\nT=1\nmode=remove\nIII 0.5\nIX 0.5\n",
                                "line 5: pattern 'IX' has length 2, expected 3"),
    "schedule-negative-time": ("schedule", "n_qubits=3\nT=1\nmode=remove\nIII -0.5\n",
                               "line 4: block times must be finite and nonnegative, got -0.5"),
    "schedule-nan-time": ("schedule", "n_qubits=3\nT=1\nmode=remove\n# first block\nIII nan\n",
                          "line 5: block times must be finite and nonnegative, got nan"),
    "schedule-unknown-mode": ("schedule", "n_qubits=3\nT=1\nmode=both\nIII 1\n",
                              "line 3: unknown synthesis mode 'both'; use 'remove' or 'mitigate'"),
    "schedule-negative-T": ("schedule", "n_qubits=3\nT=-1\nmode=remove\nIII 1\n",
                            "line 2: target time must be positive and finite, got -1.0"),
}


@pytest.mark.parametrize("which, text, message", list(MALFORMED_FILES.values()), ids=list(MALFORMED_FILES))
def test_malformed_input_file_exits_validation_naming_the_line(workspace, capsys, which, text, message):
    _, paths = workspace
    run_synth(paths)
    paths[which].write_text(text)
    capsys.readouterr()
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--delta", "10", "--seed", "4",
    ])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


BAD_CSV_ROWS = {
    "short-row": (lambda row: row[:-1], "line 3: expected 15 CSV fields, got 14"),
    "flag-cell": (lambda row: row[:-1] + ["yes"], "line 3: expected a 0 or 1 flag cell, got 'yes'"),
    "number-cell": (lambda row: row[:5] + ["fast"] + row[6:], "line 3: could not convert string to float: 'fast'"),
    "n-below-two": (lambda row: row[:1] + ["1"] + row[2:], "line 3: topologies need at least 2 qubits"),
    "unknown-topology": (lambda row: row[:2] + ["ring"] + row[3:],
                         "line 3: topology kind must be one of ('nn', 'random', 'ata'), got 'ring'"),
    "unknown-mode": (lambda row: row[:3] + ["both"] + row[4:],
                     "line 3: unknown synthesis mode 'both'; use 'remove' or 'mitigate'"),
    "nan-t_A": (lambda row: row[:5] + ["nan"] + row[6:], "line 3: expected a nonnegative number cell, got 'nan'"),
    "negative-bound": (lambda row: row[:7] + ["-2"] + row[8:], "line 3: expected a nonnegative number cell, got '-2'"),
    "negative-seed": (lambda row: row[:4] + ["-42"] + row[5:], "line 3: expected a nonnegative number cell, got '-42'"),
}


@pytest.mark.parametrize("spoil, message", list(BAD_CSV_ROWS.values()), ids=list(BAD_CSV_ROWS))
def test_summarize_names_the_line_of_a_bad_csv_row(tmp_path, capsys, spoil, message):
    row = harness.TrialRecord(0, 3, "nn", "remove", 42, 1.0, None, 2.0, None, 3.0, 4.0, 5.0, None, True, False).to_row()
    results = tmp_path / "results.csv"
    results.write_text("\n".join(",".join(cells) for cells in [harness.CSV_COLUMNS, row, spoil(row)]) + "\n")
    assert cli.main(["summarize", "--in", str(results), "--out", str(tmp_path / "summary.csv")]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_comment_and_blank_lines_between_blocks_are_skipped(workspace):
    _, paths = workspace
    run_synth(paths)
    schedule = Schedule.load(paths["schedule"])
    lines = schedule.to_text().splitlines()  # three headers, then the blocks
    assert schedule.n_blocks >= 2
    annotated = ["# by hand", *lines[:1], "", *lines[1:4], "", "# the rest", *lines[4:6], "  ", *lines[6:]]
    paths["schedule"].write_text("\n".join(annotated) + "\n")
    assert same(Schedule.load(paths["schedule"]), schedule)
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--defects", str(paths["defects"]),
        "--delta", "10", "--seed", "4",
    ])
    assert code == 0


def test_infeasible_synthesis_exit_code(workspace, monkeypatch, capsys):
    # the canonical listing always admits block times, so an "infeasible" LP verdict
    # over it is a solver fault; at N = 3 on ZZ it lists 2^2 patterns
    _, paths = workspace

    def refuse(program):
        return lp.LpSolution(np.zeros(program.n_cols), False)

    monkeypatch.setattr(lp, "solve", refuse)
    assert run_synth(paths) == 4
    assert "over all 4 patterns" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "1.2e+308"])
def test_sweep_rejects_a_coupling_scale_that_overflows(tmp_path, capsys, scale):
    # magnitudes are drawn up to 3/2 of the scale, which must stay finite
    code = cli.main([
        "sweep", "--topology", "nn", "--n-min", "3", "--n-max", "3", "--trials", "1",
        "--g", scale, "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert f"finite at 3/2 of it, got {scale}" in capsys.readouterr().err


def test_sweep_at_a_long_target_time_exits_zero(tmp_path):
    # the LP solves for t/T, so its tolerances do not scale with T
    out = tmp_path / "r.csv"
    assert cli.main([
        "sweep", "--topology", "nn", "--n-min", "3", "--n-max", "3", "--trials", "1",
        "--seed", "11", "--time", "1e7", "--out", str(out),
    ]) == 0
    (record,) = harness.load_records(out)
    assert record.t_a > 1e7


@pytest.mark.parametrize("time, delta", [("5e-6", "2e6"), ("5e-8", "2e5")], ids=["replay", "error-vector"])
def test_sweep_in_other_units_exits_zero(tmp_path, time, delta):
    # g = 2e7 is a default-scale problem in other units: every replay check
    # measures its residual against the couplings it compares
    assert cli.main([
        "sweep", "--topology", "nn", "--n-min", "3", "--n-max", "3", "--trials", "1",
        "--seed", "11", "--g", "2e7", "--time", time, "--delta", delta, "--out", str(tmp_path / "r.csv"),
    ]) == 0


def test_synth_and_analyze_a_problem_at_a_large_coupling_scale(tmp_path):
    paths = {name: tmp_path / f"{name}.txt" for name in ("problem", "source", "defects", "schedule")}
    write_couplings(CouplingVector(3, {zz(0, 1): 55.3e9, zz(0, 2): -80.1e9}), paths["problem"])
    write_couplings(CouplingVector(3, {zz(0, 1): 110.7e9, zz(0, 2): 64.9e9}), paths["source"])
    write_couplings(CouplingVector(3, {zz(0, 1): 0.0, zz(0, 2): 0.0, zz(1, 2): 0.0}), paths["defects"])
    assert run_synth(paths) == 0
    assert cli.main([
        "analyze", "--schedule", str(paths["schedule"]), "--source", str(paths["source"]),
        "--defects", str(paths["defects"]), "--problem", str(paths["problem"]),
        "--delta", "1e9", "--seed", "3",
    ]) == 0


@pytest.mark.parametrize("zero", [{zz(0, 2): 0.0}, {}], ids=["zero", "absent"])
def test_analyze_a_problem_that_asks_zero_on_a_source_coupling(tmp_path, zero):
    # the schedule cancels (0,2) to round-off (2.8e-15), which is measured
    # against the source coupling it multiplies, not against the target 0
    paths = {name: tmp_path / f"{name}.txt" for name in ("problem", "source", "defects", "schedule")}
    write_couplings(CouplingVector(3, {zz(0, 1): 135.7, zz(1, 2): -123.0, **zero}), paths["problem"])
    write_couplings(CouplingVector(3, {zz(0, 1): 104.4, zz(0, 2): 50.3, zz(1, 2): -143.5}), paths["source"])
    write_couplings(CouplingVector(3, {zz(0, 1): 0.0, zz(0, 2): 0.0, zz(1, 2): 0.0}), paths["defects"])
    assert run_synth(paths) == 0
    assert cli.main([
        "analyze", "--schedule", str(paths["schedule"]), "--source", str(paths["source"]),
        "--defects", str(paths["defects"]), "--problem", str(paths["problem"]), "--delta", "1.0", "--seed", "3",
    ]) == 0


def extreme_scale_record(tmp_path):
    out = tmp_path / "r.csv"
    assert cli.main([
        "sweep", "--topology", "nn", "--n-min", "3", "--n-max", "3", "--trials", "1",
        "--seed", "11", "--g", "1e200", "--out", str(out),
    ]) == 0
    (record,) = harness.load_records(out)
    return record


def test_chain_sweep_above_64_qubits_is_pinned(tmp_path):
    """SHA-256 of a 70-qubit chain sweep's CSV, where a pattern fits no 64-bit integer."""
    out = tmp_path / "n70.csv"
    assert cli.main([
        "sweep", "--topology", "nn", "--n-min", "70", "--n-max", "70", "--trials", "2",
        "--seed", "11", "--out", str(out),
    ]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "4c24c2ad5cdf3f1e6d1eb20fedde7df5b079e9189eaca74197e154b414226003"


def test_sweep_at_an_extreme_coupling_scale_exits_zero(tmp_path):
    assert extreme_scale_record(tmp_path).t_a > 0


def test_extreme_scale_frobenius_norm_is_finite(tmp_path):
    assert math.isfinite(extreme_scale_record(tmp_path).exact_frob)


@pytest.mark.xfail(strict=True, reason="known fault: delta = 10 is below the resolution of couplings near 1e200")
def test_extreme_scale_exact_norm_is_within_its_bound(tmp_path):
    record = extreme_scale_record(tmp_path)
    assert record.exact_op_norm <= record.bound_op_norm


@pytest.mark.xfail(strict=True, reason="known fault: at N = 2 the Frobenius bound is tight, and round-off decides it")
def test_two_qubit_exact_frobenius_norm_is_within_its_bound():
    # nn, N = 2, master seed 11, trial 1 (seed 8835928214518424301): exact_frob
    # 5.215176175561538 against frob_bound 5.215176175561526 in both modes
    records = [
        harness.run_trial(harness.ExperimentConfig(harness.TopologySpec("nn", 2), (2,), trials=2, mode=mode,
                                                   master_seed=11), 2, 1)
        for mode in SynthesisMode
    ]
    assert [record.seed for record in records] == [8835928214518424301] * 2
    assert all(record.exact_frob <= record.frob_bound for record in records)


def test_internal_consistency_exit_code(workspace, monkeypatch):
    _, paths = workspace
    run_synth(paths)

    def disagree(*args, **kwargs):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(cli.bounds, "evaluate_bounds", disagree)
    code = cli.main([
        "analyze",
        "--schedule", str(paths["schedule"]),
        "--source", str(paths["source"]),
        "--delta", "1", "--seed", "0",
    ])
    assert code == 4
