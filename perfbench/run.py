"""Run one workload of the daqc benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 0 --seconds 20 --trace 0

The run imports ``daqc`` from the checkout's ``src/``, warms up, then makes
whole passes over the workload's trials (see ``bench.py``) until ``--seconds``
have gone by.  With ``--trace 0`` every pass is untraced and the run reports
the end-to-end metrics, timed by each trial's fastest latency over the passes
(see ``main``).  With ``--trace 1`` untraced and traced passes
alternate; the run reports the per-layer metrics of one traced pass, the
tracing overhead, and writes the spans to ``perfbench/out/``.

Every run checks the invariants of each completed row, that every pass gives
the same digest and the same failed trials, and compares the digest with the
one recorded in ``baseline.json`` ("outputs changed" does not fail the run).
A human-readable report goes to stderr; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 on success, 1 on a broken invariant or an unexpected
exception, 2 when the checkout has no daqc sources or the arguments are bad.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any other import

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
#: trials run one at a time on matrices of at most 1024 x 1024, so OpenBLAS
#: gets one thread: more mostly adds scheduling noise on a shared machine
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
SPANS_DIR = HERE / "out"
#: setup_s is the median of this run's own set-up and of this many fresh processes
SETUP_PROBES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="orders the trials of each pass")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print the set-up time and exit")
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload."""
    cmd = [
        sys.executable, "-B", str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def log(text: str = "") -> None:
    print(text, file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "daqc" / "__init__.py").is_file():
        log(f"error: no daqc sources under {SRC}; run from the root of a repository checkout")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy

    import bench
    import layertrace
    from daqc import harness
    from daqc.errors import DaqcError

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
        return 2
    for trial in workload.warmup_trials():
        try:
            harness.run_trial(trial.config, trial.n_qubits, trial.index)
        except DaqcError:
            pass  # counted when the measured passes reach it
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(repr(setup_s))
        return 0

    log(
        f"machine: nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    trials = workload.trials()
    rng = random.Random(args.seed)
    tracer = layertrace.Tracer() if args.trace else None
    plain: list[bench.PassResult] = []
    traced: list[bench.PassResult] = []
    setup_samples = [setup_s]
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < args.seconds:
        plain.append(bench.run_pass(workload, trials, rng.sample(range(len(trials)), len(trials))))
        if tracer is not None:
            with tracer:
                order = rng.sample(range(len(trials)), len(trials))
                traced.append(bench.run_pass(workload, trials, order, tracer))
        elif (
            len(setup_samples) <= SETUP_PROBES
            and time.perf_counter() - started >= args.seconds * (len(setup_samples) - 1) / SETUP_PROBES
        ):
            # probes spread over the run, so their median spans the host's speed phases
            setup_samples.append(probe_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    problems = bench.consistency_problems(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    first = passes[0]
    log(
        f"{workload.name}: {len(plain)} untraced + {len(traced)} traced passes of {len(trials)} trials, "
        f"{len(first.failures)} failing per pass (failed_frac {failed / attempted:.6g})"
    )
    for line in first.failures:
        log(f"failed trial: {line}")
    reference = json.loads(BASELINE.read_text())["digests"].get(workload.name)
    verdict = "no reference digest" if reference is None else (
        "outputs unchanged" if reference == first.digest else f"outputs changed (reference {reference})"
    )
    log(f"digest {first.digest}: {verdict}")

    if tracer is None:
        # Each trial's fastest latency over the run's passes: the host's slow
        # phases, which last seconds to a minute, stretch every pass they
        # cover, so means and pooled percentiles follow the host, not the code.
        fastest = [min(times) for times in zip(*(p.latencies for p in plain))]
        best_pass = sum(fastest) + min(p.render_s for p in plain)
        log(f"timings: fastest of {len(plain)} passes for each of {len(fastest)} trials")
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES + 1 - len(setup_samples))]
        log(f"setup_s: median of {len(setup_samples)} set-ups")
        values = {
            "trials_per_s": len(fastest) / best_pass,
            "trial_p50_ms": 1000.0 * statistics.median(fastest),
            "completed_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = bench.END_TO_END_UNITS
    else:
        values = layertrace.layer_metrics(tracer.spans, len(traced))
        per_trial_plain = sum(p.elapsed for p in plain) / sum(p.attempted for p in plain)
        per_trial_traced = sum(p.elapsed for p in traced) / sum(p.attempted for p in traced)
        values["trace.overhead_frac"] = per_trial_traced / per_trial_plain - 1.0
        units = layertrace.layer_metric_units() | {"trace.overhead_frac": "frac"}
        top = max((n for n in values if n.endswith(".self_s")), key=values.get)
        log(f"largest layer self time: {top} = {values[top]:.6g} s per pass")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        log(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")

    for name, value in values.items():
        log(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        log(f"BROKEN: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
