"""The LP's independent oracle for the tests: enumerate every basic feasible solution.

Exponential in the number of columns, so it refuses instances above
``BRUTE_FORCE_MAX_ROWS`` x ``BRUTE_FORCE_MAX_COLS``.
"""

import math
from itertools import combinations

import numpy as np

from daqc.errors import ValidationError
from daqc.lp import FEASIBILITY_TOL, STATUS_OPTIMAL, LinearProgram, LpSolution, _infeasible

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
        if np.abs(rhs).max() <= FEASIBILITY_TOL:
            return LpSolution(np.zeros(n), 0.0, STATUS_OPTIMAL)
        return _infeasible(n)
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
        return _infeasible(n)
    return LpSolution(best_x, best_obj, STATUS_OPTIMAL)
