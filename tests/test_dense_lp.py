"""The dense test LP: its shape check and its pricing kernel."""

import numpy as np
import pytest
from dense_lp import DenseProblem

from maxent_effects.errors import ParameterError


def test_shape_mismatch():
    with pytest.raises(ParameterError):
        DenseProblem([1.0, 2.0], [[1.0]], [0.0], [1.0])


def test_kernel_matches_dense_formula():
    rng = np.random.default_rng(90216)
    objective, matrix = rng.normal(size=50), rng.normal(size=(4, 50))
    problem = DenseProblem(objective, matrix, [-1.0] * 4, [1.0] * 4)
    for _ in range(20):
        duals = rng.normal(size=4)
        start = int(rng.integers(0, 50))
        stop = int(rng.integers(start + 1, 51))
        idx = np.arange(start, stop)
        columns = problem.columns(idx)
        out = np.empty(stop - start)
        np.testing.assert_array_equal(
            problem.reduced_costs(duals, start, stop, True, out),
            objective[idx] - duals @ columns,
        )
        np.testing.assert_array_equal(
            problem.reduced_costs(duals, start, stop, False, out), -(duals @ columns)
        )
