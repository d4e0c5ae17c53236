"""The LP of an explicit coefficient matrix: the solver tests' fixture."""

import numpy as np

from maxent_effects import lp_solver
from maxent_effects.errors import ParameterError


class DenseProblem(lp_solver.LpProblem):
    """An LP whose columns are those of a dense matrix, its pool seeded
    with the column ids ``seed``, set after construction as
    :class:`grid_lp.DiscretizedProblem` sets its own."""

    def __init__(self, objective, matrix, lower, upper, seed=()):
        self._a = np.asarray(matrix, dtype=float)
        self._c = np.asarray(objective, dtype=float)
        if self._a.ndim != 2 or self._a.shape != (np.size(lower), self._c.size):
            raise ParameterError("matrix shape does not match rows/objective")
        super().__init__(lower, upper, self._c.size)
        self.seed = lp_solver._seed_ids(seed, self.n_columns)

    def _columns(self, idx):
        return self._a[:, idx]

    def _objective(self, idx):
        return self._c[idx]

    def _reduced_costs(self, duals, start, stop, include_objective, out):
        idx = np.arange(start, stop)
        rc = -(duals @ self._a[:, idx])  # the dense columns, as columns() returns them
        return rc + self._c[idx] if include_objective else rc
