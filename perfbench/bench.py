"""Workloads, the trial loop and the output checks of the daqc benchmark.

A workload is a fixed set of trials: its topologies x both synthesis modes x
its sizes x trial indices ``0..trials_per_point-1``, all under master seed 11,
the seed of the acceptance sweep and of the ROADMAP reproducers.  The library
sees only the per-trial seeds ``harness.run_trial`` derives from it.  The
benchmark's ``--seed`` fixes the order in which each pass visits the trials,
so a workload's rows, failures and digest are the same on every run.

Trials run one at a time through ``harness.run_trial``, not through
``run_experiment``, which aborts a sweep at its first failing trial: here a
``DaqcError`` counts as one failed trial and the pass goes on.
"""

import hashlib
import io
import time
from dataclasses import dataclass

from daqc import harness
from daqc.errors import DaqcError
from daqc.schedule import SynthesisMode

MASTER_SEED = 11

#: end-to-end metrics of an untraced run, with their units
END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "completed_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Trial:
    config: harness.ExperimentConfig
    n_qubits: int
    index: int

    def describe(self) -> str:
        seed = harness.derive_seed(self.config.master_seed, self.n_qubits, self.index)
        return (
            f"topology={self.config.topology.kind} mode={self.config.mode.value} "
            f"N={self.n_qubits} index={self.index} seed={seed}"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topologies: tuple[str, ...]
    sizes: tuple[int, ...]
    trials_per_point: int
    observable_axis: str | None = None

    def trials(self) -> list[Trial]:
        """Every trial of the workload, in canonical (topology, mode, N, index) order."""
        out = []
        for kind in self.topologies:
            for mode in SynthesisMode:
                config = harness.ExperimentConfig(
                    topology=harness.TopologySpec(kind, self.sizes[0]),
                    n_range=self.sizes,
                    trials=self.trials_per_point,
                    mode=mode,
                    master_seed=MASTER_SEED,
                    observable_axis=self.observable_axis,
                )
                out += [Trial(config, n, i) for n in self.sizes for i in range(self.trials_per_point)]
        return out

    def warmup_trials(self) -> list[Trial]:
        """One trial per (topology, mode) at the smallest size."""
        return [t for t in self.trials() if t.n_qubits == self.sizes[0] and t.index == 0]


#: every workload ``run.py`` accepts.  BENCHMARK.json gates only ``sweep_small``
#: and ``replay_obs``, whose trials are short enough for each to meet a fast
#: phase of the shared host in every run, and each run can last long enough
#: to outlast the slow ones.  ``exact_n10`` follows the host's memory bandwidth
#: too closely to gate on, and ``ladder_large`` gets about ten samples of
#: trials up to a second long per run, too few to find those fast phases; run
#: them by hand for the dense norms' trace and for the LP failures.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_small",
            "acceptance-sweep shape (N=3..7, no observable); cost spread over LP, sampler, sign matrix, dense norms",
            ("nn", "random", "ata"),
            (3, 4, 5, 6, 7),
            5,
        ),
        Workload(
            "exact_n10",
            "N=10, top of the dense cap: 1024x1024 norm scans in dense.operator_norm dominate, then the LP",
            ("nn", "random", "ata"),
            (10,),
            2,
        ),
        Workload(
            "replay_obs",
            "N=7..8 with a sigma-x observable: the only workload using block-unitary replay and the commutator norm",
            ("nn", "random", "ata"),
            (7, 8),
            1,
            observable_axis="x",
        ),
        Workload(
            "ladder_large",
            "N=11..14 random/ata above the dense cap: the LP dominates, incl. its seed-fixed unbounded-direction failures",
            ("random", "ata"),
            (11, 12, 13, 14),
            1,
        ),
    )
}


@dataclass
class PassResult:
    """One pass over every trial of a workload."""

    latencies: list[float]  # seconds, one per attempted trial, in canonical order
    failures: list[str]  # one line per failed trial, in canonical order
    problems: list[str]  # broken output invariants
    digest: str  # SHA-256 of the completed rows as harness.write_records renders them
    render_s: float  # seconds spent rendering the rows
    elapsed: float  # seconds, trials plus rendering the rows

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def check_record(workload: Workload, trial: Trial, record: harness.TrialRecord) -> list[str]:
    """Invariants every completed row must satisfy."""
    where = f"{workload.name} {trial.describe()}"
    problems = []
    if record.exact_op_norm is not None and not record.exact_op_norm <= record.bound_op_norm:
        problems.append(f"{where}: exact_op_norm {record.exact_op_norm!r} > bound_op_norm {record.bound_op_norm!r}")
    if not record.exact_frob <= record.frob_bound:
        problems.append(f"{where}: exact_frob {record.exact_frob!r} > frob_bound {record.frob_bound!r}")
    want_delta_o = workload.observable_axis is not None and trial.n_qubits <= trial.config.qubit_cap
    if (record.exact_delta_o is not None) != want_delta_o:
        problems.append(f"{where}: exact_delta_O is {record.exact_delta_o!r}, expected it {'set' if want_delta_o else 'empty'}")
    return problems


def run_pass(workload: Workload, trials: list[Trial], order: list[int], tracer=None) -> PassResult:
    """Run every trial once in ``order``; a ``DaqcError`` fails only its trial."""
    records: list[harness.TrialRecord | None] = [None] * len(trials)
    failures: dict[int, str] = {}
    latencies = [0.0] * len(trials)
    started = time.perf_counter()
    for k in order:
        trial = trials[k]
        if tracer is not None:
            tracer.trial = k
        t0 = time.perf_counter()
        try:
            records[k] = harness.run_trial(trial.config, trial.n_qubits, trial.index)
        except DaqcError as exc:
            failures[k] = f"{workload.name} {trial.describe()}: {type(exc).__name__}: {exc}"
        latencies[k] = time.perf_counter() - t0
    if tracer is not None:
        tracer.trial = None
    rows = io.StringIO()
    t0 = time.perf_counter()
    harness.write_records([r for r in records if r is not None], rows)
    render_s = time.perf_counter() - t0
    elapsed = time.perf_counter() - started
    problems = [
        problem
        for trial, record in zip(trials, records)
        if record is not None
        for problem in check_record(workload, trial, record)
    ]
    return PassResult(
        latencies=latencies,
        failures=[failures[k] for k in sorted(failures)],
        problems=problems,
        digest=hashlib.sha256(rows.getvalue().encode("ascii")).hexdigest(),
        render_s=render_s,
        elapsed=elapsed,
    )


def consistency_problems(passes: list[PassResult]) -> list[str]:
    """Broken invariants, plus any pass whose digest or failures differ from the first."""
    problems = [p for result in passes for p in result.problems]
    first = passes[0]
    for k, result in enumerate(passes[1:], start=1):
        if result.digest != first.digest:
            problems.append(f"pass {k} digest {result.digest} differs from pass 0 digest {first.digest}")
        if result.failures != first.failures:
            problems.append(f"pass {k} failed trials differ from pass 0")
    return problems
