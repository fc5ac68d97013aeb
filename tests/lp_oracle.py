"""The LP's oracles for the tests.

``brute_force_optimum`` enumerates every basic feasible solution; it is
exponential in the number of columns, so it refuses instances above
``BRUTE_FORCE_MAX_ROWS`` x ``BRUTE_FORCE_MAX_COLS``.  ``numpy_dantzig_iterate``
is the simplex loop with its ratio test on numpy arrays, the reference for the
pivots ``lp._dantzig_iterate`` makes on Python floats.
"""

import math
from collections.abc import Callable
from itertools import combinations

import numpy as np

from daqc.errors import InternalConsistencyError, ValidationError
from daqc.lp import FEASIBILITY_TOL, PIVOT_TOL, LinearProgram, LpSolution, _PivotBudget

BRUTE_FORCE_MAX_COLS = 12
BRUTE_FORCE_MAX_ROWS = 6


class OracleLimitError(ValidationError):
    """Brute-force oracle refused an instance above its size limits."""


def brute_force_optimum(lp: LinearProgram) -> LpSolution:
    """Enumerate every basic feasible solution; test oracle for tiny instances."""
    m, n = lp.constraint_matrix.shape
    if n > BRUTE_FORCE_MAX_COLS or m > BRUTE_FORCE_MAX_ROWS:
        raise OracleLimitError(
            f"instance {m}x{n} exceeds the brute-force limits "
            f"{BRUTE_FORCE_MAX_ROWS}x{BRUTE_FORCE_MAX_COLS}"
        )
    matrix = lp.constraint_matrix
    rhs = lp.rhs
    rank = int(np.linalg.matrix_rank(matrix))
    if rank == 0:
        return LpSolution(np.zeros(n), bool(np.abs(rhs).max() <= FEASIBILITY_TOL))
    best_obj = math.inf
    best_x = None
    for cols in combinations(range(n), rank):
        sub = matrix[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        x_sub = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        if np.abs(sub @ x_sub - rhs).max() > FEASIBILITY_TOL:
            continue
        if x_sub.min() < -FEASIBILITY_TOL:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(x_sub, 0.0, None)
        obj = float(x.sum())
        if obj < best_obj:
            best_obj = obj
            best_x = x
    if best_x is None:
        return LpSolution(np.zeros(n), False)
    return LpSolution(best_x, True)


def _numpy_pivot(tableau: np.ndarray, basis: list[int], leave: int, enter: int) -> None:
    """Gauss-Jordan step: column ``enter`` replaces the basic variable of row ``leave``."""
    row = tableau[leave]
    row /= row[enter]
    factors = tableau[:, enter].copy()
    factors[leave] = 0.0
    tableau -= factors[:, None] * row
    tableau[:, enter] = 0.0
    tableau[leave, enter] = 1.0
    basis[leave] = enter


def numpy_dantzig_iterate(tableau: np.ndarray, basis: list[int], cost_row: int, budget: _PivotBudget,
                          rebuild: Callable[[], None]) -> int:
    """``lp._dantzig_iterate`` with the round-off floor, the ratio test and its ties on numpy arrays."""
    m = len(basis)
    reduced = tableau[cost_row, :-1]  # views: pivots and rebuilds write into the tableau
    values = tableau[:m, -1]
    pivots = 0
    fresh = False
    bland = False
    while True:
        enter = int((reduced < -PIVOT_TOL).argmax() if bland else reduced.argmin())
        if reduced[enter] >= -PIVOT_TOL:
            return pivots
        column = tableau[:m, enter]
        positive = (column > PIVOT_TOL * max(column.max(), -column.min())).nonzero()[0]
        if positive.size == 0:
            if fresh:
                raise InternalConsistencyError("simplex detected an unbounded direction")
            rebuild()
            fresh = True
            continue
        ratios = values[positive] / column[positive]
        step = ratios.min()
        ties = positive[ratios == step]
        leave = int(ties[0] if ties.size == 1 else min(ties, key=basis.__getitem__))
        budget.spend()
        _numpy_pivot(tableau, basis, leave, enter)
        pivots += 1
        fresh = False
        bland = step <= PIVOT_TOL * max(1.0, values.max())
