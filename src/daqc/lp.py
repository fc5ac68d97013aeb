"""Self-contained solver for  min ||t||_1  s.t.  M t = b,  t >= 0.

Since every variable carries unit cost, the objective is the total analog
time of the schedule.  The solver is a dense two-phase primal simplex, Dantzig
pricing with Bland's rule on degenerate runs, pivoting one tableau B^-1 [A | b]
over two reduced-cost rows (unit time, then the sum of the artificials).  Per
pivot, numpy prices, copies the entering column and makes the rank-1 update;
the O(m) ratio test runs on Python floats, with the same IEEE arithmetic.  Every
"unbounded" or "infeasible" verdict is re-checked on that tableau rebuilt from
the original data, so round-off carried through many pivots cannot end a
feasible program, and the reported times are the final basis re-solved against
the original matrix with one step of iterative refinement.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, LpSolverStallError, ValidationError

#: relative to max(1, ||b||_inf): at most 9e-10 absolute wherever ||b||_inf <= 3
FEASIBILITY_TOL = 3e-10
PIVOT_TOL = 1e-10
MAX_PIVOTS = 10**6

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    """Equality-constrained program with implicit all-ones objective."""

    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __init__(self, constraint_matrix, rhs):
        matrix = np.array(constraint_matrix, dtype=float)
        rhs = np.array(rhs, dtype=float).ravel()
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValidationError(f"constraint matrix must be 2-D and nonempty, got shape {matrix.shape}")
        if rhs.shape[0] != matrix.shape[0]:
            raise ValidationError(
                f"rhs length {rhs.shape[0]} does not match {matrix.shape[0]} constraint rows"
            )
        if not np.all(np.isfinite(matrix)) or not np.all(np.isfinite(rhs)):
            raise ValidationError("linear program contains non-finite entries")
        matrix.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "constraint_matrix", matrix)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.constraint_matrix.shape[1]


@dataclass(frozen=True)
class LpSolution:
    times: np.ndarray
    objective_value: float
    status: str

    @property
    def is_optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _infeasible(n_cols: int) -> LpSolution:
    return LpSolution(np.zeros(n_cols), math.inf, STATUS_INFEASIBLE)


class _PivotBudget:
    def __init__(self):
        self.left = MAX_PIVOTS

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise LpSolverStallError(f"simplex exceeded {MAX_PIVOTS} pivots")


def _basis_solve(system: np.ndarray, basis: list[int], rhs: np.ndarray) -> np.ndarray:
    """B^-1 rhs for the basis columns B of ``system``, with one refinement step."""
    sub = system.take(basis, axis=1)  # row-major, which fixes the residual's summation order
    try:
        x = np.linalg.solve(sub, rhs)
        return x + np.linalg.solve(sub, rhs - sub @ x)
    except np.linalg.LinAlgError as exc:
        raise InternalConsistencyError("simplex basis became singular") from exc


def _tableau(system: np.ndarray, costs: np.ndarray, basis: list[int]) -> np.ndarray:
    """B^-1 ``system`` over one reduced-cost row per row of ``costs``.

    Each cost is zero under b, so its row holds minus its objective value there.
    """
    body = _basis_solve(system, basis, system)
    return np.vstack([body, costs - costs[:, basis] @ body])


def _pivot(tableau: np.ndarray, basis: list[int], leave: int, enter: int, factors: np.ndarray) -> None:
    """Gauss-Jordan step: column ``enter``, copied into ``factors``, replaces the basic variable of row ``leave``."""
    row = tableau[leave]
    row /= row[enter]
    factors[leave] = 0.0
    tableau -= factors[:, None] * row
    tableau[:, enter] = 0.0
    tableau[leave, enter] = 1.0
    basis[leave] = enter


def _dantzig_iterate(tableau: np.ndarray, basis: list[int], cost_row: int, budget: _PivotBudget,
                     rebuild: Callable[[], None]) -> int:
    """Pivots until the reduced costs in ``cost_row`` are nonnegative; returns how many.

    Enters the first most negative reduced cost (Dantzig), or after a pivot of
    round-off-level step the smallest negative index (Bland) until a step moves
    the objective.  A column with no usable pivot is re-checked on a tableau
    ``rebuild`` makes from the original data before it is declared unbounded.
    Numpy prices, copies the entering column and makes the rank-1 update; the
    round-off floor, the ratio test, its ties and the Bland switch run on
    Python floats, whose IEEE division and comparisons are numpy's, so the
    pivot rule and every bit of the tableau are as they were in numpy.
    """
    m = len(basis)
    reduced = tableau[cost_row, :-1]  # a view: pivots and rebuilds write into the tableau
    values = tableau[:m, -1].tolist()
    pivots = 0
    fresh = False
    bland = False
    while True:
        enter = int((reduced < -PIVOT_TOL).argmax() if bland else reduced.argmin())
        if reduced[enter] >= -PIVOT_TOL:
            return pivots
        factors = tableau[:, enter].copy()
        column = factors[:m].tolist()
        # entries tiny against their column are round-off; pivoting on them inflates the tableau
        floor = PIVOT_TOL * max(max(column), -min(column))
        step, leave = math.inf, -1
        for r, entry in enumerate(column):
            if entry > floor:
                ratio = values[r] / entry
                # smallest basis var among equal ratios: Bland's leaving rule
                if ratio < step or ratio == step and basis[r] < basis[leave]:
                    step, leave = ratio, r
        if leave < 0:
            if fresh:
                # cannot happen for these programs (objective bounded below by 0)
                raise InternalConsistencyError("simplex detected an unbounded direction")
            rebuild()
            values = tableau[:m, -1].tolist()
            fresh = True
            continue
        budget.spend()
        _pivot(tableau, basis, leave, enter, factors)
        values = tableau[:m, -1].tolist()
        pivots += 1
        fresh = False
        bland = step <= PIVOT_TOL * max(1.0, max(values))


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex; optimal solutions are global LP minima.

    Returns status ``infeasible`` when the phase-one artificial objective
    cannot be driven below ``FEASIBILITY_TOL * max(1, ||b||_inf)``, the tolerance
    the final residual and times are held to as well, so every check is in
    the units of the right-hand side.  Raises on non-finite input
    (at program construction) and ``LpSolverStallError`` once ``MAX_PIVOTS``
    pivots are spent.
    """
    matrix = lp.constraint_matrix
    rhs = lp.rhs
    m, n = matrix.shape
    budget = _PivotBudget()
    tol = FEASIBILITY_TOL * max(1.0, float(np.abs(rhs).max()))

    # [A | b | I] with rows flipped so b >= 0; column n + 1 + r is row r's artificial
    flip = np.where(rhs < 0, -1.0, 1.0)
    system = np.hstack([matrix * flip[:, None], (rhs * flip)[:, None], np.eye(m)])
    # tableau row m: unit time on the structural variables; row m + 1: sum of the artificials
    costs = np.zeros((2, n + 1 + m))
    costs[0, :n] = 1.0
    costs[1, n + 1:] = 1.0
    basis = list(range(n + 1, n + 1 + m))
    # the [A | b] columns of _tableau(system, costs, basis) for the all-artificial
    # basis, written out; an artificial that leaves the basis never re-enters
    tableau = np.vstack([system[:, :n + 1], costs[:, :n + 1]])
    tableau[m + 1] -= system[:, :n + 1].sum(axis=0)

    def rebuild() -> None:
        tableau[:] = _tableau(system, costs, basis)[:, :n + 1]

    # ---- phase one: minimize the sum of the artificials ----
    _dantzig_iterate(tableau, basis, m + 1, budget, rebuild)
    while -tableau[m + 1, -1] > tol:
        rebuild()
        if not _dantzig_iterate(tableau, basis, m + 1, budget, rebuild):
            return _infeasible(n)

    # drive leftover artificials out of the basis (largest entry, not Bland: a
    # one-shot cleanup); a row with no real pivot is redundant, and its
    # artificial stays basic at zero, out of every ratio test
    for r in range(m):
        if basis[r] < n:
            continue
        row = tableau[r, :n]
        enter = int(np.argmax(np.abs(row)))
        if abs(row[enter]) > PIVOT_TOL:
            budget.spend()
            _pivot(tableau, basis, r, enter, tableau[:, enter].copy())

    # ---- phase two: unit cost on every structural variable ----
    _dantzig_iterate(tableau, basis, m, budget, rebuild)

    x = np.zeros(n + 1 + m)
    x[basis] = _basis_solve(system, basis, system[:, n])
    times = x[:n]
    residual = np.abs(matrix @ times - rhs).max()
    if residual > tol:
        raise InternalConsistencyError(
            f"optimal basis violates the constraints: residual {residual:.3e} > {tol:.1e}"
        )
    if times.min() < -tol:
        raise InternalConsistencyError(
            f"optimal vertex has a negative time {times.min():.3e} beyond tolerance"
        )
    times = np.clip(times, 0.0, None)
    return LpSolution(times, float(times.sum()), STATUS_OPTIMAL)
