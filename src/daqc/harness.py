"""Topology generators, the Monte Carlo experiment driver, and CSV plumbing.

A sweep draws random problem/source couplings on a chosen topology, builds a
schedule, samples a calibration defect, and records the analytic bounds next
to the exact dense norms, one CSV row per trial.  Everything is keyed off a
master seed: per-trial seeds (and the per-purpose streams inside one trial)
come from SHA-256, so any row can be replayed in isolation on any platform.
"""

import csv
import functools
import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import bounds, dense
from .errors import DaqcError, ValidationError
from .pauli import FLOAT_DIGITS, CouplingKey, CouplingVector
from .schedule import SynthesisMode, synthesize

TOPOLOGY_KINDS = ("nn", "random", "ata")
DEFECT_KINDS = ("second", "ata")

DEFAULT_TRIALS = 500
DEFAULT_TARGET_TIME = 1.0
DEFAULT_COUPLING_SCALE = 100.0
DEFAULT_DELTA = 10.0


@dataclass(frozen=True)
class TopologySpec:
    """Problem topology plus the defect-support convention that goes with it.

    ``defect_kind`` defaults to second-neighbour edges for chains and to
    all-to-all for the other kinds.  Random graphs always contain the full
    chain, so they stay connected by construction.
    """

    kind: str
    n_qubits: int
    extra_edge_prob: float = 0.2
    defect_kind: str | None = None

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValidationError(f"topology kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}")
        if self.n_qubits < 2:
            raise ValidationError("topologies need at least 2 qubits")
        if not 0.0 <= self.extra_edge_prob <= 1.0:
            raise ValidationError(f"extra edge probability must be in [0, 1], got {self.extra_edge_prob}")
        if self.defect_kind is None:
            object.__setattr__(self, "defect_kind", "second" if self.kind == "nn" else "ata")
        if self.defect_kind not in DEFECT_KINDS:
            raise ValidationError(f"defect kind must be one of {DEFECT_KINDS}, got {self.defect_kind!r}")


@functools.cache
def chain_edges(n_qubits: int) -> tuple[CouplingKey, ...]:
    return tuple(CouplingKey(i, i + 1, "z", "z") for i in range(n_qubits - 1))


@functools.cache
def second_neighbour_edges(n_qubits: int) -> tuple[CouplingKey, ...]:
    return tuple(CouplingKey(i, i + 2, "z", "z") for i in range(n_qubits - 2))


@functools.cache
def all_pair_edges(n_qubits: int) -> tuple[CouplingKey, ...]:
    """Every ZZ pair, in canonical order."""
    return tuple(CouplingKey(i, j, "z", "z") for i in range(n_qubits) for j in range(i + 1, n_qubits))


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a label path (SHA-256, platform independent)."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def _sample_couplings(edges: tuple[CouplingKey, ...], scale: float, rng: np.random.Generator, n_qubits: int) -> CouplingVector:
    magnitudes = rng.uniform(scale / 2.0, 3.0 * scale / 2.0, size=len(edges))
    signs = 2.0 * rng.integers(0, 2, size=len(edges)) - 1.0
    return CouplingVector.from_sorted(n_qubits, edges, magnitudes * signs)


def generate_problem(
    spec: TopologySpec,
    coupling_scale: float,
    rng_seed: int,
) -> tuple[CouplingVector, CouplingVector, tuple[CouplingKey, ...]]:
    """Random problem and source couplings on a shared support, plus the defect support.

    Magnitudes are uniform in [scale/2, 3*scale/2] with a fair random sign,
    drawn independently for the problem and the source.  The defect support,
    a canonical key tuple, adds second-neighbour or all remaining pairs on
    top of the shared support.
    """
    if not (coupling_scale > 0 and math.isfinite(3.0 * coupling_scale / 2.0)):
        raise ValidationError(f"coupling scale must be positive, and finite at 3/2 of it, got {coupling_scale}")
    n = spec.n_qubits
    rng = np.random.default_rng(rng_seed)
    # every edge set is a subset of all_pair_edges(n), filtered from it in canonical order
    support = chain_edges(n)
    if spec.kind == "ata":
        support = all_pair_edges(n)
    elif spec.kind == "random":
        # one draw per pair off the chain, in canonical order
        off_chain = iter(rng.random(len(all_pair_edges(n)) - len(support)) < spec.extra_edge_prob)
        support = tuple(e for e in all_pair_edges(n) if e.j == e.i + 1 or next(off_chain))
    h_problem = _sample_couplings(support, coupling_scale, rng, n)
    h_source = _sample_couplings(support, coupling_scale, rng, n)
    if spec.defect_kind == "ata":
        defect_edges = all_pair_edges(n)
    else:
        in_defect = frozenset(support).union(second_neighbour_edges(n))
        defect_edges = tuple(e for e in all_pair_edges(n) if e in in_defect)
    return h_problem, h_source, defect_edges


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible sweep: topology template, sizes, trial count, knobs."""

    topology: TopologySpec
    n_range: tuple[int, ...]
    trials: int = DEFAULT_TRIALS
    target_time: float = DEFAULT_TARGET_TIME
    coupling_scale: float = DEFAULT_COUPLING_SCALE
    delta: float = DEFAULT_DELTA
    mode: SynthesisMode = SynthesisMode.REMOVE_ZEROS
    master_seed: int = 0
    observable_axis: str | None = None
    observable_qubit: int = 0

    def __post_init__(self):
        if self.trials < 0:
            raise ValidationError("trial count cannot be negative")
        if not self.n_range or any(n < 2 for n in self.n_range):
            raise ValidationError("n_range must list system sizes of at least 2 qubits")

    @property
    def qubit_cap(self) -> int:
        """Largest N with exact columns: the dense backend's fixed cap."""
        return dense.DEFAULT_QUBIT_CAP


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row of a sweep; optional exact fields are None above the cap."""

    trial_id: int
    n_qubits: int
    topology: str
    mode: str
    seed: int
    t_a: float
    exact_op_norm: float | None
    bound_op_norm: float
    exact_frob: float | None
    frob_bound: float
    expectation_bound: float
    expectation_bound_mitigated: float
    exact_delta_o: float | None
    small_defect: bool
    short_time: bool

    def to_row(self) -> list[str]:
        return [write(getattr(self, name)) for name, write in _ROW_WRITERS]

    @classmethod
    def from_row(cls, row: Sequence[str]) -> "TrialRecord":
        if len(row) != len(CSV_COLUMNS):
            raise ValidationError(f"expected {len(CSV_COLUMNS)} CSV fields, got {len(row)}")
        return cls(**{f.name: _READ_CELL[f.type](cell) for f, cell in zip(fields(cls), row)})


#: the CSV header: the TrialRecord fields in order, three of them renamed
_CSV_RENAMES = {"n_qubits": "N", "t_a": "t_A", "exact_delta_o": "exact_delta_O"}
CSV_COLUMNS = tuple(_CSV_RENAMES.get(f.name, f.name) for f in fields(TrialRecord))


def _num_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.{FLOAT_DIGITS}g}"


def _flag_cell(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValidationError(f"expected a 0 or 1 flag cell, got {cell!r}")
    return cell == "1"


#: CSV cell codecs by TrialRecord field type, and (name, writer) of each field in CSV_COLUMNS order
_WRITE_CELL = {
    int: str,
    str: str,
    float: _num_cell,
    float | None: _num_cell,
    bool: lambda value: "1" if value else "0",
}
_ROW_WRITERS = tuple((f.name, _WRITE_CELL[f.type]) for f in fields(TrialRecord))
_READ_CELL = {
    int: int,
    str: str,
    float: float,
    float | None: lambda cell: None if cell == "" else float(cell),
    bool: _flag_cell,
}


def run_trial(config: ExperimentConfig, n_qubits: int, trial_index: int) -> TrialRecord:
    """Generate, synthesize, perturb and grade a single seeded trial."""
    spec = replace(config.topology, n_qubits=n_qubits)
    trial_seed = derive_seed(config.master_seed, n_qubits, trial_index)
    try:
        h_problem, h_source, defect_support = generate_problem(
            spec, config.coupling_scale, derive_seed(trial_seed, "problem")
        )
        sched = synthesize(
            h_problem,
            h_source,
            defect_support,
            config.target_time,
            config.mode,
            derive_seed(trial_seed, "patterns"),
        )
        defect = bounds.sample_defect(n_qubits, defect_support, config.delta, derive_seed(trial_seed, "defect"))
        observable = None
        if config.observable_axis is not None:
            observable = dense.single_qubit_observable(
                config.observable_axis, config.observable_qubit, n_qubits
            )
        report = bounds.evaluate_bounds(
            h_problem,
            h_source,
            defect_support,
            sched,
            defect,
            observable=observable,
        )
    except DaqcError as exc:
        raise type(exc)(
            f"trial N={n_qubits} index={trial_index} seed={trial_seed} failed: {exc}"
        ) from exc
    return TrialRecord(
        trial_id=trial_index,
        n_qubits=n_qubits,
        topology=spec.kind,
        mode=config.mode.value,
        seed=trial_seed,
        t_a=report.total_analog_time,
        exact_op_norm=report.exact_op_norm,
        bound_op_norm=report.op_norm_bound,
        exact_frob=report.exact_frobenius,
        frob_bound=report.frobenius_bound,
        expectation_bound=report.expectation_bound,
        expectation_bound_mitigated=report.expectation_bound_mitigated,
        exact_delta_o=report.exact_delta_o,
        small_defect=report.small_defect,
        short_time=report.short_time,
    )


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """All trials of a sweep, in (N, trial) order; trials are independent."""
    return [run_trial(config, n_qubits, trial_index) for n_qubits in config.n_range
            for trial_index in range(config.trials)]


def write_records(records: Iterable[TrialRecord], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(record.to_row() for record in records)


def read_records(stream: io.TextIOBase) -> list[TrialRecord]:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ValidationError("unrecognized results CSV header")
    try:
        return [TrialRecord.from_row(row) for row in reader]
    except ValueError as exc:  # the comprehension stops at the bad row, the reader's last line
        raise ValidationError(f"line {reader.line_num}: {exc}") from exc


def save_records(records: Iterable[TrialRecord], path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        write_records(records, fh)


def load_records(path) -> list[TrialRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return read_records(fh)


SUMMARY_METRICS = ("exact_op_norm", "bound_op_norm", "t_a")
SUMMARY_COLUMNS = ("N", "topology", "mode", "count") + tuple(
    f"{metric}_{stat}"
    for metric in ("exact_op_norm", "bound_op_norm", "t_A")
    for stat in ("mean", "median", "q25", "q75")
)


@dataclass(frozen=True)
class SummaryRow:
    n_qubits: int
    topology: str
    mode: str
    count: int
    stats: dict[str, float | None] = field(compare=False)

    def to_row(self) -> list[str]:
        cells = [str(self.n_qubits), self.topology, self.mode, str(self.count)]
        for column in SUMMARY_COLUMNS[4:]:
            value = self.stats[column]
            cells.append("" if value is None else f"{value:.{FLOAT_DIGITS}g}")
        return cells


def summarize(records: Sequence[TrialRecord]) -> list[SummaryRow]:
    """Mean, median and quartiles per (N, topology, mode) group.

    Percentiles interpolate linearly between order statistics.  Metrics with
    no values in a group (for example exact norms above the dense cap) emit
    empty cells and a warning.
    """
    groups: dict[tuple[int, str, str], list[TrialRecord]] = {}
    for record in records:
        groups.setdefault((record.n_qubits, record.topology, record.mode), []).append(record)
    rows = []
    for (n_qubits, topology, mode), members in sorted(groups.items()):
        stats: dict[str, float | None] = {}
        for metric, column in zip(SUMMARY_METRICS, ("exact_op_norm", "bound_op_norm", "t_A")):
            values = [getattr(r, metric) for r in members if getattr(r, metric) is not None]
            if not values:
                warnings.warn(
                    f"group N={n_qubits} {topology}/{mode} has no {column} values; cells left empty"
                )
                for stat in ("mean", "median", "q25", "q75"):
                    stats[f"{column}_{stat}"] = None
                continue
            data = np.array(values)
            stats[f"{column}_mean"] = float(data.mean())
            stats[f"{column}_median"] = float(np.percentile(data, 50))
            stats[f"{column}_q25"] = float(np.percentile(data, 25))
            stats[f"{column}_q75"] = float(np.percentile(data, 75))
        rows.append(SummaryRow(n_qubits, topology, mode, len(members), stats))
    return rows


def write_summary(rows: Iterable[SummaryRow], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(row.to_row() for row in rows)


def save_summary(rows: Iterable[SummaryRow], path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        write_summary(rows, fh)
