"""In-process A/B timing of two daqc trees, imported side by side in one process.

    OPENBLAS_NUM_THREADS=1 python3 tools/ab_inprocess.py TREE_A TREE_B --rounds 40
    OPENBLAS_NUM_THREADS=1 python3 tools/ab_inprocess.py TREE_B TREE_A --rounds 40

Each tree's ``src/daqc`` is copied to a temporary directory as ``daqc_a`` or
``daqc_b``.  The trials are those of the workloads ``BENCHMARK.json`` gates, as
``perfbench/bench.py`` defines them, inputs built once per tree.  Each round
runs the trees in turn, A first on even rounds, making each call in ``CALLS``
once per trial.  Prints JSON: the mean of each trial's best time in us.  Run
both orders, as above: a function that neither tree changed still reads 2-8%
apart between the sides of one run, so only a gap that keeps its sign when
the trees swap sides is the change's.

Both trees must take the arguments ``CALLS`` passes: the defect support as a
canonical key tuple, with ``n_qubits`` before it in ``sample_defect`` and
``generate_candidate_patterns``.  A tree from before the defect support was
a key tuple cannot be timed with this script.  ``error_vector`` is called as
each tree's ``evaluate_bounds`` calls it: on vectors and the ``h_real`` it
formed, or on arrays over the defect support and the sign weights formed
before it, which its time then leaves out.  ``lp.solve`` re-solves the
programs that the trial's ``synthesize`` handed it, captured once per tree.
"""

import argparse
import importlib
import inspect
import itertools
import json
import shutil
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from perfbench.bench import MASTER_SEED, WORKLOADS  # noqa: E402
SETS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

CALLS = {
    "run_trial": lambda m, t: m.harness.run_trial(t.config, t.n, t.index),
    "generate_problem": lambda m, t: m.harness.generate_problem(t.config.topology, t.config.coupling_scale, t.seeds[0]),
    "synthesize": lambda m, t: m.schedule.synthesize(t.h_p, t.h_s, t.support, t.config.target_time, t.config.mode, t.seeds[1]),
    "sample_defect": lambda m, t: m.bounds.sample_defect(t.n, t.support, t.config.delta, t.seeds[2]),
    "evaluate_bounds": lambda m, t: m.bounds.evaluate_bounds(t.h_p, t.h_s, t.support, t.sched, t.defect, t.obs),
    # as evaluate_bounds calls it: on the h_real it formed, or on arrays over the defect support
    "error_vector": lambda m, t: m.schedule.error_vector(t.sched, t.h_p, t.h_s, t.defect.h_delta, h_real=t.h_real)
    if m.vector_error_vector else m.schedule.error_vector(t.sched, t.support, t.weights, *t.arrays, real=t.real),
    "lp.solve": lambda m, t: [m.lp.solve(program) for program in t.programs],
    "effective_couplings": lambda m, t: m.schedule.effective_couplings(t.sched, t.h_real),
    # as effective_couplings calls it
    "sign_weights": lambda m, t: m.blocks.sign_weights(t.sched.patterns, t.sched.times, t.h_real.keys()),
    # a sample the size of synthesize's first above EXHAUSTIVE_PATTERN_LIMIT, kept below the alphabet^N
    # patterns the sampler draws from, which it refuses (synthesize lists canonical_patterns at these sizes)
    "generate_candidate_patterns": lambda m, t: m.blocks.generate_candidate_patterns(
        t.n, t.support, min(2 * len(t.support) + 1, len(m.blocks.pattern_alphabet(t.support)) ** t.n - 1), t.seeds[1]),
    "build_dense": lambda m, t: m.dense.build_dense(t.h_eps),
    "frobenius_norm": lambda m, t: m.dense.frobenius_norm(t.h_eps_dense),
    "expectation_deviation": lambda m, t: m.dense.expectation_deviation(t.h_p, t.sched, t.h_real, t.obs),
}


def load(tree: str, name: str, into: Path) -> SimpleNamespace:
    shutil.copytree(Path(tree) / "src" / "daqc", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    m = SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                           for m in ("harness", "schedule", "bounds", "dense", "blocks", "lp", "pauli")})
    m.vector_error_vector = "h_real" in inspect.signature(m.schedule.error_vector).parameters
    return m


def trials(m: SimpleNamespace, set_name: str) -> Iterator[SimpleNamespace]:
    """Every trial of the workload with its inputs, built from the tree's own classes."""
    w = WORKLOADS[set_name]
    for kind, mode, n, index in itertools.product(w.topologies, m.schedule.SynthesisMode, w.sizes, range(w.trials_per_point)):
        config = m.harness.ExperimentConfig(m.harness.TopologySpec(kind, n), (n,), trials=w.trials_per_point, mode=mode,
                                            master_seed=MASTER_SEED, observable_axis=w.observable_axis)
        seed = m.harness.derive_seed(MASTER_SEED, n, index)  # mirrors harness.run_trial's seed derivation
        t = SimpleNamespace(config=config, n=n, index=index,
                            seeds=[m.harness.derive_seed(seed, part) for part in ("problem", "patterns", "defect")])
        t.h_p, t.h_s, t.support = CALLS["generate_problem"](m, t)
        t.programs, solve = [], m.lp.solve
        m.lp.solve = lambda program: t.programs.append(program) or solve(program)
        try:
            t.sched = CALLS["synthesize"](m, t)
        finally:
            m.lp.solve = solve
        t.defect = CALLS["sample_defect"](m, t)
        t.obs = m.dense.single_qubit_observable(w.observable_axis, config.observable_qubit, n) if w.observable_axis else None
        t.arrays = [h.values_at(t.support) for h in (t.h_p, t.h_s, t.defect.h_delta)]  # problem, source, defect
        t.real = t.arrays[1] + t.arrays[2]
        t.h_real = m.pauli.CouplingVector.from_sorted(n, t.support, t.real)
        t.weights = m.blocks.sign_weights(t.sched.patterns, t.sched.times, t.support)
        t.h_eps = CALLS["error_vector"](m, t)
        t.h_eps_dense = m.dense.build_dense(t.h_eps)
        yield t


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        trees = {side: load(tree, f"daqc_{side}", Path(scratch)) for side, tree in (("a", args.tree_a), ("b", args.tree_b))}
        sets = {(side, s): list(trials(m, s)) for side, m in trees.items() for s in SETS}
        best: dict = {}
        for r in range(args.rounds):
            for side in ("ab" if r % 2 == 0 else "ba"):
                for set_name in SETS:
                    for k, t in enumerate(sets[side, set_name]):
                        for fn, call in CALLS.items():
                            if t.obs is not None or fn != "expectation_deviation":
                                t0 = time.perf_counter()
                                call(trees[side], t)
                                elapsed, key = time.perf_counter() - t0, (set_name, fn, side, k)
                                best[key] = min(best.get(key, elapsed), elapsed)
    means: dict = {}
    for (set_name, fn, side, _), seconds in best.items():
        means.setdefault(set_name, {}).setdefault(fn, {}).setdefault(side, []).append(seconds)
    for sides in (sides for fns in means.values() for sides in fns.values()):
        sides.update({side: round(1e6 * sum(v) / len(v), 2) for side, v in sides.items()})
    print(json.dumps({"tree_a": args.tree_a, "tree_b": args.tree_b, "rounds": args.rounds, "mean_best_us": means}, indent=1))


if __name__ == "__main__":
    main()
