"""Every def in ``src/daqc`` is entered from an entry point: the public API and the CLI.

``run_entry_points`` runs a fixed set of them; ``tools/reach.py`` runs it in a
fresh process under a call recorder and names each def of the package that
no call entered.  Such a def is dead code and is deleted, unless ``KEPT``
names it with the reason it stays.
"""

import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr
from itertools import combinations, product
from pathlib import Path

from daqc import cli
from helpers import readme_blocks, readme_cli_example

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "daqc"

#: never entered by an entry point, kept for the reason given
KEPT = {
    "pauli.py:CouplingKey._make": "the namedtuple's _replace builds through _make; this one validates the new key",
}

#: an XX+YY chain pair on 4 qubits, with every XX and YY pair as its defect support
XX_YY_FILES = {
    "source.txt": "n_qubits=4\n0 1 x x 1.5\n0 1 y y -0.8\n1 2 x x 1.1\n1 2 y y 0.9\n2 3 x x -1.3\n2 3 y y 1.2\n",
    "problem.txt": "n_qubits=4\n0 1 x x 0.6\n0 1 y y 0.4\n1 2 x x -0.5\n1 2 y y 0.7\n2 3 x x 0.3\n2 3 y y -0.6\n",
    "defects.txt": "n_qubits=4\n" + "".join(f"{i} {j} {a} {a} 0\n" for i, j in combinations(range(4), 2) for a in "xy"),
}


def _main(expected: int, *argv: str) -> None:
    with redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    assert code == expected, (argv, code, err.getvalue())


def _synth_and_analyze(work: Path, files: dict[str, str], observable: str) -> None:
    """``synth`` in both modes, then ``analyze`` with and without each of its options."""
    work.mkdir()
    for name, text in files.items():
        (work / name).write_text(text)
    problem, source, defects, schedule = (str(work / f) for f in ("problem.txt", "source.txt", "defects.txt", "s.txt"))
    for mode in ("remove", "mitigate"):
        _main(0, "synth", "--problem", problem, "--source", source, "--defects", defects,
              "--time", "1.0", "--mode", mode, "--seed", "7", "--out", schedule)
    base = ["analyze", "--schedule", schedule, "--source", source, "--delta", "0.1", "--seed", "3"]
    _main(0, *base)
    _main(0, *base, "--defects", defects, "--json")
    _main(0, *base, "--problem", problem, "--observable-x", observable, "--p", "3", "--q", "2")


def _exit_two_inputs(work: Path) -> None:
    """One input of each kind that exits 2, from a working README pair."""
    work.mkdir()
    for name, text in readme_cli_example()[1].items():
        (work / name).write_text(text)
    bad = {
        "missing.txt": None,
        "unparseable.txt": "n_qubits=3\n0 1 z z 110\n0 two z z 64\n",
        "bad-key.txt": "n_qubits=3\n1 0 z z 110\n",
        "zero-qubits.txt": "n_qubits=0\n",
        "no-header.txt": "0 1 z z 110\n",
        "far-problem.txt": "n_qubits=3\n1 2 z z 10\n",
        "other-problem.txt": "n_qubits=3\n0 1 z z 30\n0 2 z z -80\n",
        "small-defects.txt": "n_qubits=3\n0 1 z z 0\n",
        "wide-defects.txt": "n_qubits=4\n0 1 z z 0\n0 2 z z 0\n",
        "schedule-bad.txt": "n_qubits=3\nT=1\nmode=remove\nIXQ 1\n",
        "leftover.txt": "n_qubits=3\nT=1\nmode=mitigate\nIII 1\n",
        "results-bad.csv": "not,a,results,header\n",
    }
    for name, text in bad.items():
        if text is not None:
            (work / name).write_text(text)
    path = {name: str(work / name) for name in [*bad, "problem.txt", "source.txt", "defects.txt", "s.txt"]}

    def synth(problem="problem.txt", source="source.txt", defects="defects.txt", mode="mitigate", time="1.0"):
        return ("synth", "--problem", path[problem], "--source", path[source], "--defects", path[defects],
                "--time", time, "--mode", mode, "--seed", "7", "--out", path["s.txt"])

    def analyze(*extra, schedule="s.txt"):
        return ("analyze", "--schedule", path[schedule], "--source", path["source.txt"], "--delta", "10",
                "--seed", "3", *extra)

    for problem in ("missing.txt", "unparseable.txt", "bad-key.txt", "zero-qubits.txt", "no-header.txt",
                    "far-problem.txt"):
        _main(2, *synth(problem=problem))
    for defects in ("small-defects.txt", "wide-defects.txt"):
        _main(2, *synth(defects=defects))
    _main(2, *synth(time="0"))
    _main(0, *synth())
    for extra in (("--problem", path["other-problem.txt"]), ("--q", "0"), ("--p", "0"), ("--p", "0.5"),
                  ("--observable-x", "5"), ("--defects", path["wide-defects.txt"])):
        _main(2, *analyze(*extra))
    _main(2, *analyze("--defects", path["defects.txt"], schedule="leftover.txt"))  # sign weight left on (1,2)
    _main(2, *analyze(schedule="schedule-bad.txt"))
    _main(2, "sweep", "--topology", "nn", "--n-min", "3", "--n-max", "3", "--trials", "1", "--g", "1e308",
          "--out", str(work / "r.csv"))
    _main(2, "sweep", "--topology", "nn", "--n-min", "1", "--n-max", "1", "--trials", "1",
          "--out", str(work / "r.csv"))
    _main(2, "summarize", "--in", path["results-bad.csv"], "--out", str(work / "sum.csv"))


def _sweeps_and_summary(work: Path) -> None:
    """One trial per topology, mode, defect kind and observable at N = 2, 3, 9, 10 and 11, then ``summarize``."""
    work.mkdir()
    for k, (kind, mode, defects, observable) in enumerate(product(("nn", "random", "ata"), ("remove", "mitigate"),
                                                                  ("second", "ata"), (None, "1"))):
        for n_min, n_max in ((2, 3), (9, 11)):
            out = str(work / f"{k}-{n_min}.csv")
            argv = ["sweep", "--topology", kind, "--n-min", str(n_min), "--n-max", str(n_max), "--trials", "1",
                    "--mode", mode, "--defect-kind", defects, "--seed", "11", "--out", out]
            _main(0, *argv, *(["--observable-x", observable] if observable else []))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N = 11 rows have no exact operator norm
        _main(0, "summarize", "--in", str(work / "0-9.csv"), "--out", str(work / "summary.csv"))


def _benchmark_passes() -> None:
    """A plain ``replay_obs`` pass, and a ``sweep_small`` pass under the layer tracer, which reads attributes too."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench
    import layertrace

    replay = bench.WORKLOADS["replay_obs"]
    trials = replay.trials()
    result = bench.run_pass(replay, trials, list(range(len(trials))))
    assert not result.failures and not result.problems
    small = bench.WORKLOADS["sweep_small"]
    trials = small.trials()
    tracer = layertrace.Tracer()
    with tracer:
        result = bench.run_pass(small, trials, list(range(len(trials))), tracer)
    assert not result.failures and not result.problems
    assert layertrace.layer_metrics(tracer.spans, 1)["lp.rows_mean"] > 0


def run_entry_points(workdir: str) -> None:
    """The README library block, the CLI (README and XX+YY pairs, exit-2 inputs, sweeps), the benchmark passes."""
    work = Path(workdir)
    (library,) = readme_blocks("python")
    exec(compile(library, "README.md", "exec"), {})
    _synth_and_analyze(work / "readme", readme_cli_example()[1], observable="0")
    _synth_and_analyze(work / "xx-yy", XX_YY_FILES, observable="1")
    _exit_two_inputs(work / "exit-2")
    _sweeps_and_summary(work / "sweeps")
    _benchmark_passes()


def test_every_def_is_entered_from_an_entry_point(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), str(PACKAGE), f"{__file__}:run_entry_points",
         str(tmp_path)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    unreached = done.stdout.split()
    assert done.returncode == (1 if unreached else 0), done.stderr  # a failed entry point exits 1 printing nothing
    assert sorted(set(KEPT) - set(unreached)) == []  # a kept def that is entered now needs no reason
    assert [name for name in unreached if name not in KEPT] == []
