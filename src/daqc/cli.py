"""Command-line surface: synth, analyze, sweep, summarize.

Exit codes: 0 on success, 2 for validation or file-format problems, 4 when
an internal cross-check or the LP solver fails.
"""

import argparse
import dataclasses
import json
import sys

from . import blocks, bounds, dense, harness
from .errors import InternalConsistencyError, LpSolverStallError, ValidationError
from .pauli import CouplingKey, CouplingVector
from .schedule import Schedule, SynthesisMode, effective_couplings, synthesize, within_replay_tol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 4


def _cmd_synth(args: argparse.Namespace) -> int:
    h_problem = CouplingVector.load(args.problem)
    h_source = CouplingVector.load(args.source)
    defect_support = _declared_defects(args.defects, h_source.n_qubits)
    mode = SynthesisMode.from_name(args.mode)
    sched = synthesize(h_problem, h_source, defect_support, args.time, mode, args.seed)
    sched.save(args.out)
    print(f"wrote {args.out}: {sched.n_blocks} blocks, t_A={sched.total_analog_time:.17g}")
    return EXIT_OK


def _declared_defects(path, n_qubits: int) -> tuple[CouplingKey, ...]:
    """The declared keys of a defect-support file, which must be on the source's ``n_qubits`` qubits."""
    defects = CouplingVector.load(path)
    if defects.n_qubits != n_qubits:
        raise ValidationError(f"the defect support is on {defects.n_qubits} qubits, the source on {n_qubits}")
    return defects.keys()


def _default_defect_keys(h_source: CouplingVector) -> tuple[CouplingKey, ...]:
    """All-to-all defects over the axis pairs present in the source, in canonical order."""
    axes = sorted({(k.mu, k.nu) for k in h_source.keys()} or {("z", "z")})
    n = h_source.n_qubits
    return tuple(CouplingKey(i, j, mu, nu) for i in range(n) for j in range(i + 1, n) for mu, nu in axes)


def _cmd_analyze(args: argparse.Namespace) -> int:
    sched = Schedule.load(args.schedule)
    h_source = CouplingVector.load(args.source)
    # files the schedule was not synthesized for are bad input, not a failed cross-check
    realized = effective_couplings(sched, h_source).restricted(h_source.support())
    h_problem = CouplingVector.load(args.problem) if args.problem else realized
    for key in realized:
        if not within_replay_tol(h_problem[key] - realized[key], sched, h_source[key]):
            raise ValidationError(
                f"schedule realizes {realized[key]:.17g} on coupling {key}, the problem asks {h_problem[key]:.17g}"
            )
    if args.defects:
        defect_support = _declared_defects(args.defects, h_source.n_qubits)
    else:
        defect_support = _default_defect_keys(h_source)
    defect = bounds.sample_defect(h_source.n_qubits, defect_support, args.delta, args.seed)
    observable = None
    if args.observable_x is not None:
        observable = dense.single_qubit_observable("x", args.observable_x, h_source.n_qubits)
    report = bounds.evaluate_bounds(
        h_problem, h_source, defect_support, sched, defect,
        observable=observable, requested_p=args.p, q=args.q,
    )
    payload = dataclasses.asdict(report)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = harness.TopologySpec(
        kind=args.topology,
        n_qubits=max(2, args.n_min),
        extra_edge_prob=args.extra_edge_prob,
        defect_kind=args.defect_kind,
    )
    config = harness.ExperimentConfig(
        topology=spec,
        n_range=tuple(range(args.n_min, args.n_max + 1)),
        trials=args.trials,
        target_time=args.time,
        coupling_scale=args.g,
        delta=args.delta,
        mode=SynthesisMode.from_name(args.mode),
        master_seed=args.seed,
        observable_axis="x" if args.observable_x is not None else None,
        observable_qubit=args.observable_x or 0,
    )
    records = harness.run_experiment(config)
    harness.save_records(records, args.out)
    print(f"wrote {args.out}: {len(records)} trials")
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = harness.load_records(args.infile)
    rows = harness.summarize(records)
    harness.save_summary(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} groups")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daqc",
        description="Digital-analog schedule synthesis and calibration-error bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a schedule from coupling files")
    p_synth.add_argument("--problem", required=True, help="target coupling vector file")
    p_synth.add_argument("--source", required=True, help="measured source coupling vector file")
    p_synth.add_argument("--defects", required=True,
                         help="coupling file whose declared keys form the defect support")
    p_synth.add_argument("--time", type=float, required=True, help="target evolution time T")
    p_synth.add_argument("--mode", choices=["remove", "mitigate"], required=True)
    p_synth.add_argument("--seed", type=int, required=True, help="pattern sampling seed, read only when the "
                         f"canonical pattern listing exceeds {blocks.EXHAUSTIVE_PATTERN_LIMIT} patterns "
                         "(2^(N-1) on ZZ couplings, 4^N otherwise)")
    p_synth.add_argument("--out", required=True, help="schedule output file")
    p_synth.set_defaults(func=_cmd_synth)

    p_an = sub.add_parser("analyze", help="evaluate bounds for a schedule and one defect draw")
    p_an.add_argument("--schedule", required=True)
    p_an.add_argument("--source", required=True)
    p_an.add_argument("--delta", type=float, required=True, help="entrywise defect bound")
    p_an.add_argument("--seed", type=int, required=True, help="defect sampling seed")
    p_an.add_argument("--problem", help="target couplings; reconstructed from the schedule if omitted")
    p_an.add_argument("--defects", help="defect support file; defaults to all-to-all")
    p_an.add_argument("--observable-x", type=int, metavar="QUBIT",
                      help="also evaluate the exact deviation of sigma_x on this qubit")
    p_an.add_argument("--p", type=float, default=2.0, help="order of the reported p-norm bound")
    p_an.add_argument("--q", type=int, default=1, help="Trotter steps for the exact replay")
    p_an.add_argument("--json", action="store_true", help="emit one JSON report")
    p_an.set_defaults(func=_cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep over sizes and trials")
    p_sweep.add_argument("--topology", choices=list(harness.TOPOLOGY_KINDS), required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--trials", type=int, default=harness.DEFAULT_TRIALS)
    p_sweep.add_argument("--delta", type=float, default=harness.DEFAULT_DELTA)
    p_sweep.add_argument("--g", type=float, default=harness.DEFAULT_COUPLING_SCALE,
                         help="coupling magnitude scale")
    p_sweep.add_argument("--time", type=float, default=harness.DEFAULT_TARGET_TIME)
    p_sweep.add_argument("--mode", choices=["remove", "mitigate"], default="remove")
    p_sweep.add_argument("--seed", type=int, default=0, help="master seed")
    p_sweep.add_argument("--extra-edge-prob", type=float, default=0.2)
    p_sweep.add_argument("--defect-kind", choices=list(harness.DEFECT_KINDS), default=None)
    p_sweep.add_argument("--observable-x", type=int, metavar="QUBIT", default=None,
                         help="track the exact sigma_x deviation on this qubit")
    p_sweep.add_argument("--out", required=True, help="results CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sum = sub.add_parser("summarize", help="per-group statistics of a results CSV")
    p_sum.add_argument("--in", dest="infile", required=True)
    p_sum.add_argument("--out", required=True)
    p_sum.set_defaults(func=_cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InternalConsistencyError, LpSolverStallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
