"""Revised-simplex solver: exact optima, randomized cross-checks, staging."""

import copy
import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.optimize import linprog

from maxent_effects import lp_solver
from maxent_effects.errors import (
    DegenerateTableError,
    DomainError,
    EstimationError,
    ParameterError,
)
from maxent_effects.grid_lp import build_problem
from maxent_effects.lp_solver import (
    FEASIBILITY_TOL,
    ROW_CAP,
    LpProblem,
    price_columns,
    relax_and_retry,
    solve,
)
from maxent_effects.model import StratifiedTable
from maxent_effects.tables import resample_table

RNG_SEED = 90210


def bounds(rows):
    """``(lower, upper)`` arrays of ``(lo, hi)`` row pairs; ``hi = inf``
    makes a row the inequality ``a.w >= lo``."""
    return np.array(rows, dtype=float).reshape(-1, 2).T


def dense(objective, matrix, rows, seed=()):
    return LpProblem.from_dense(objective, matrix, *bounds(rows), seed=seed)


def reseeded(grid, seed):
    """The LP of ``grid``, a :class:`DiscretizedProblem`, with the pool
    seed ``seed`` in place of its own."""
    return LpProblem(
        grid.lower,
        grid.upper,
        grid.n_columns,
        columns_fn=grid._columns,
        objective_fn=grid._objective,
        reduced_cost_fn=grid._reduced_costs,
        seed=seed,
    )


def assert_identical(a, b):
    """Every field of two solutions is bit-identical."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def reference_solve(objective, matrix, lower, upper):
    """scipy HiGHS solve of the same maximization, for cross-checking."""
    a_ub, b_ub = [], []
    for coef, lo, hi in zip(matrix, lower, upper):
        coef = np.asarray(coef, dtype=float)
        if np.isfinite(hi):
            a_ub.append(coef)
            b_ub.append(hi)
        a_ub.append(-coef)
        b_ub.append(-lo)
    return linprog(
        -np.asarray(objective, dtype=float),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=(0, None),
        method="highs",
    )


def feasible_instance(rng, negative=False):
    """Random short-and-wide LP built around a known feasible point.

    With ``negative`` every row but the first has nonpositive
    coefficients, so its right-hand side is negative; the positive first
    row keeps the problem bounded.
    """
    n_rows = int(rng.integers(2, 7))
    n_cols = int(rng.integers(n_rows + 2, 41))
    matrix = rng.uniform(0.05, 1.0, size=(n_rows, n_cols))
    if negative:
        matrix[1:] *= -1.0
    x0 = np.zeros(n_cols)
    support = rng.choice(n_cols, size=int(rng.integers(1, n_rows + 1)), replace=False)
    x0[support] = rng.uniform(0.2, 1.0, size=support.size)
    activity = matrix @ x0
    rows = []
    for i in range(n_rows):
        if i > 0 and rng.uniform() < 0.3:
            rows.append((activity[i] - rng.uniform(0.0, 0.1), np.inf))
        else:
            rows.append((activity[i] - rng.uniform(0.0, 0.05), activity[i] + rng.uniform(0.0, 0.05)))
    objective = rng.uniform(-1.0, 1.0, size=n_cols)
    return objective, matrix, rows


def degenerate_instance(rng):
    """Random LP with one row pinned at 1 and every other row at 0.

    The zero rows have mixed-sign coefficients and hold at a known
    nonnegative point; the positive first row keeps the problem bounded.
    """
    n_rows = int(rng.integers(3, 7))
    n_cols = int(rng.integers(n_rows + 2, 31))
    matrix = rng.uniform(-1.0, 1.0, size=(n_rows, n_cols))
    matrix[0] = rng.uniform(0.05, 1.0, size=n_cols)
    x0 = np.zeros(n_cols)
    support = rng.choice(n_cols, size=n_rows, replace=False)
    x0[support] = rng.uniform(0.2, 1.0, size=n_rows)
    matrix[1:, support[0]] -= (matrix[1:] @ x0) / x0[support[0]]
    rows = [(1.0, 1.0)] + [(0.0, 0.0)] * (n_rows - 1)
    return rng.uniform(-1.0, 1.0, size=n_cols), matrix, rows


def assert_matches_reference(objective, matrix, rows):
    """Optimal, equal to HiGHS, feasible and sparse at the returned vertex."""
    sol = solve(dense(objective, matrix, rows))
    lower, upper = bounds(rows)
    ref = reference_solve(objective, matrix, lower, upper)
    assert sol.status == "optimal"
    assert ref.status == 0
    assert sol.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
    # vertex feasibility, recomputed from the reported columns (upper = inf
    # for an inequality row)
    x = np.zeros(len(objective))
    x[sol.columns] = sol.masses
    act = matrix @ x
    assert np.all((lower - 1e-7 <= act) & (act <= upper + 1e-7))
    # vertex sparsity: nonzero columns never exceed row count
    assert sol.columns.size <= len(rows)


class TestExactSmallProblems:
    def test_single_equality(self):
        # max x0 + 2 x1 with x0 + x1 = 1
        sol = solve(dense([1.0, 2.0], [[1.0, 1.0]], [(1.0, 1.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        assert sol.columns.tolist() == [1]
        assert sol.masses == pytest.approx([1.0])

    def test_range_row_upper_binds(self):
        sol = solve(dense([1.0], [[1.0]], [(2.0, 5.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-12)

    def test_inequality_row_binds_from_below(self):
        sol = solve(dense([-1.0], [[1.0]], [(3.0, np.inf)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-3.0, abs=1e-12)

    def test_two_row_vertex(self):
        # max x0 + x1 with x0 + 2 x1 = 4 and x0 >= 1; optimum at (4 - 2t, t)
        # pushes all mass to x0: (4, 0) with objective 4
        sol = solve(
            dense(
                [1.0, 1.0],
                [[1.0, 2.0], [1.0, 0.0]],
                [(4.0, 4.0), (1.0, np.inf)],
            )
        )
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(4.0, abs=1e-12)
        assert sol.columns.tolist() == [0]
        assert sol.masses == pytest.approx([4.0])

    def test_contradictory_rows_infeasible(self):
        sol = solve(
            dense(
                [1.0, 1.0],
                [[1.0, 1.0], [1.0, 1.0]],
                [(1.0, 1.0), (3.0, 3.0)],
            )
        )
        assert sol.status == "infeasible"
        assert sol.infeasible_rows
        assert set(sol.infeasible_rows) <= {0, 1}

    def test_unbounded_ray(self):
        sol = solve(dense([1.0], [[1.0]], [(1.0, np.inf)]))
        assert sol.status == "unbounded"

    def test_iteration_limit_reports_violated_rows(self, monkeypatch):
        monkeypatch.setattr(lp_solver, "MAX_ITERATIONS", 1)
        sol = solve(
            dense(
                [1.0, 1.0],
                [[1.0, 2.0], [1.0, 0.0]],
                [(4.0, 4.0), (1.0, np.inf)],
            )
        )
        assert sol.status == "iteration_limit"
        assert sol.iterations == 1
        assert sol.infeasible_rows == (0,)

    def test_row_activity_reported(self):
        sol = solve(
            dense(
                [0.0, 1.0],
                [[1.0, 1.0], [0.0, 1.0]],
                [(1.0, 1.0), (0.0, 0.4)],
            )
        )
        assert sol.status == "optimal"
        assert sol.row_activity == pytest.approx([1.0, 0.4], abs=1e-12)


class TestValidation:
    def test_row_cap(self):
        lower, upper = np.zeros(ROW_CAP + 1), np.ones(ROW_CAP + 1)
        with pytest.raises(ParameterError, match="row cap"):
            LpProblem(lower, upper, 1, None, None, None)

    def test_empty_rows_and_columns(self):
        with pytest.raises(ParameterError):
            LpProblem([], [], 1, None, None, None)
        with pytest.raises(ParameterError):
            LpProblem([0.0], [1.0], 0, None, None, None)

    def test_bounds_need_equal_lengths(self):
        with pytest.raises(ParameterError, match="equal length"):
            LpProblem([0.0, 0.0], [1.0], 1, None, None, None)

    def test_range_row_ordering(self):
        for row in ((2.0, 1.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ParameterError, match=r"row 0 needs lower <= upper"):
                dense([1.0], [[1.0]], [row])

    def test_from_dense_shape_mismatch(self):
        with pytest.raises(ParameterError):
            LpProblem.from_dense([1.0, 2.0], [[1.0]], [0.0], [1.0])

    def test_columns_fn_shape_checked(self):
        p = LpProblem(
            [0.0],
            [1.0],
            3,
            columns_fn=lambda idx: np.ones((2, idx.size)),
            objective_fn=lambda idx: np.zeros(idx.size),
            reduced_cost_fn=None,
        )
        with pytest.raises(ParameterError):
            p.columns([0])

    def test_rows_need_finite_right_hand_side(self):
        # an inequality row with a NaN or infinite bound, or a range row
        # with two infinite ones
        for row in ((np.nan, np.inf), (np.inf, np.inf), (-np.inf, np.inf)):
            with pytest.raises(ParameterError, match="right-hand side"):
                dense([1.0], [[1.0]], [row])

    def test_rows_need_finite_width(self):
        rows = [(0.0, 1.0), (-1e308, 1e308)]  # the width overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="row 1 needs a finite width"):
                dense([1.0], [[1.0], [1.0]], rows)
        # a <= row: one infinite bound, so its slack has no upper bound
        sol = solve(dense([1.0], [[1.0]], [(-np.inf, 1.0)]))
        assert sol.status == "optimal" and sol.objective == 1.0

    def test_positive_tolerances_required(self):
        p = dense([1.0], [[1.0]], [(0.0, 1.0)])
        for schedule in ((0.0,), (-FEASIBILITY_TOL,)):
            with pytest.raises(ParameterError):
                relax_and_retry(p, schedule)


class TestRandomizedCrossCheck:
    def test_agrees_with_reference_solver(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            assert_matches_reference(*feasible_instance(rng))

    def test_negative_right_hand_sides_agree_with_reference(self):
        # a negative right-hand side gives the row's artificial sign -1
        rng = np.random.default_rng(RNG_SEED + 9)
        for _ in range(30):
            objective, matrix, rows = feasible_instance(rng, negative=True)
            lower, upper = bounds(rows)
            assert np.where(np.isfinite(upper), upper, lower).min() < 0.0
            assert_matches_reference(objective, matrix, rows)

    def test_detects_infeasibility(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(15):
            objective, matrix, rows = feasible_instance(rng)
            # duplicate row 0's activity into a far-away disjoint band
            matrix = np.vstack([matrix, matrix[0]])
            rows = list(rows) + [(rows[0][1] + 10.0, rows[0][1] + 10.01)]
            sol = solve(dense(objective, matrix, rows))
            ref = reference_solve(objective, matrix, *bounds(rows))
            assert sol.status == "infeasible"
            assert ref.status == 2
            assert sol.infeasible_rows

    def test_dual_feasibility_certificate(self):
        # at optimality no structural column prices above tolerance
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(20):
            objective, matrix, rows = feasible_instance(rng)
            problem = dense(objective, matrix, rows)
            sol = solve(problem)
            assert sol.status == "optimal"
            scan = price_columns(problem, sol.duals)
            assert scan.entering is None
            # the solution records its certifying scan's maximum
            assert sol.max_reduced_cost == scan.max_rc <= lp_solver.OPTIMALITY_TOL


class TestDeterminism:
    def test_bit_identical_repeats(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(10):
            objective, matrix, rows = feasible_instance(rng)
            problem = dense(objective, matrix, rows)
            assert_identical(solve(problem), solve(problem))

    def test_column_permutation_preserves_objective(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(10):
            objective, matrix, rows = feasible_instance(rng)
            base = solve(dense(objective, matrix, rows))
            perm = rng.permutation(len(objective))
            permuted = solve(dense(np.asarray(objective)[perm], np.asarray(matrix)[:, perm], rows))
            assert base.status == permuted.status == "optimal"
            assert permuted.objective == pytest.approx(base.objective, abs=1e-9)

    def test_custom_reduced_cost_path_matches_default(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        objective, matrix, rows = feasible_instance(rng)
        matrix = np.asarray(matrix)
        objective = np.asarray(objective)

        def fast_rc(duals, start, stop, include_objective, out):
            rc = -(duals @ matrix[:, start:stop])
            if include_objective:
                rc = rc + objective[start:stop]
            return rc

        plain = dense(objective, matrix, rows)
        fast = LpProblem(
            *bounds(rows),
            objective.size,
            columns_fn=lambda idx: matrix[:, idx],
            objective_fn=lambda idx: objective[idx],
            reduced_cost_fn=fast_rc,
        )
        a, b = solve(plain), solve(fast)
        assert a.status == b.status == "optimal"
        assert np.array_equal(a.columns, b.columns)
        assert np.array_equal(a.masses, b.masses)
        assert a.objective == b.objective

    def test_from_dense_kernel_matches_dense_formula(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        objective, matrix = rng.normal(size=50), rng.normal(size=(4, 50))
        problem = dense(objective, matrix, [(-1.0, 1.0)] * 4)
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


class TestBlandMode:
    def test_degenerate_instances_reach_bland_and_optimum(self, monkeypatch):
        # switch to Bland's rule after the first degenerate step
        monkeypatch.setattr(lp_solver, "_STALL_PER_ROW", 0)
        rules = []
        real = lp_solver.price_columns

        def spy(*args, **kwargs):
            rules.append(kwargs["bland"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "price_columns", spy)
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(12):
            objective, matrix, rows = degenerate_instance(rng)
            rules.clear()
            sol = solve(dense(objective, matrix, rows))
            ref = reference_solve(objective, matrix, *bounds(rows))
            assert True in rules
            assert sol.status == "optimal"
            assert ref.status == 0
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)


class TestEnteringRule:
    """The choice between the best structural column and the best slack:
    the largest |reduced cost|, the structural on a tie; under Bland's
    rule the lower working id, which is always the structural."""

    @staticmethod
    def watch(monkeypatch):
        """Record every entering working id and, for every full scan,
        whether it ran under Bland's rule."""
        entered, rules = [], []
        real_entering, real_scan = lp_solver._Simplex._entering, lp_solver.price_columns

        def entering(self, y, bland):
            k = real_entering(self, y, bland)
            if k is not None:
                entered.append(int(self.pool.ids[k]))
            return k

        def scan(*args, **kwargs):
            rules.append(kwargs["bland"])
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(lp_solver._Simplex, "_entering", entering)
        monkeypatch.setattr(lp_solver, "price_columns", scan)
        return entered, rules

    def test_pool_member_and_slack_tied_the_structural_enters(self, monkeypatch):
        entered, rules = self.watch(monkeypatch)
        # phase one starts with y = -1: the pool member w0 and the row's
        # slack (working id 1) both price at exactly 1
        sol = solve(dense([1.0], [[1.0]], [(0.5, 1.0)], seed=[0]))
        assert entered[0] == 0 and rules == [False]  # one scan, in phase two
        assert sol.status == "optimal" and sol.iterations == 1
        assert sol.columns.tolist() == [0] and sol.masses.tolist() == [1.0]

    @pytest.mark.parametrize("w2", [1.0, 0.5])
    def test_bland_takes_the_lower_working_id(self, monkeypatch, w2):
        monkeypatch.setattr(lp_solver, "_STALL_PER_ROW", 0)  # Bland after one stall
        entered, rules = self.watch(monkeypatch)
        # phase one: w0 enters at row 1's zero artificial, then w1 replaces
        # it, again without a step, so Bland's rule takes over at y = (-1, 6).
        # There w2 prices at w2 and row 0's slack (working id 3) at 1.
        problem = dense(
            [0.0, 0.0, 0.0],
            [[1.0, 1.5, w2], [1.0, 0.25, 0.0]],
            [(0.5, 1.0), (-1.0, 0.0)],
        )
        sol = solve(problem)
        assert entered[:3] == [0, 1, 2]
        assert rules[:2] == [False, True]
        assert sol.status == "optimal"


    def test_bland_takes_the_lowest_improving_slack(self):
        # no structural improves; the slacks gain -y_i from their lower bounds
        p = dense([-10.0, -10.0], np.ones((2, 2)), [(0.0, 1.0)] * 2)
        s = lp_solver._Simplex(p)
        s._enter_phase(2)
        y = np.array([-0.5, -2.0])
        assert s._entering(y, False) == 1  # the larger gain
        assert s._entering(y, True) == 0  # the lower working id
        # at its upper bound, slack 0 may only fall: it no longer improves
        s.at_upper[0] = True
        s._load_basis()
        assert s.pool.dirn[:2].tolist() == [-1.0, 1.0]
        assert s._entering(y, True) == 1


class TestPricing:
    def test_dantzig_picks_largest_with_lowest_index_ties(self):
        p = dense([1.0, 3.0, 3.0], [[1.0, 1.0, 1.0]], [(0.0, 1.0)])
        assert price_columns(p, np.zeros(1)).entering == (1, 3.0)

    def test_tolerance_is_optimality_tol(self):
        tol = lp_solver.OPTIMALITY_TOL
        p = dense([tol, 2.0 * tol, tol], [[1.0, 1.0, 1.0]], [(0.0, 1.0)])
        assert price_columns(p, np.zeros(1)).entering == (1, 2.0 * tol)
        assert price_columns(p, np.array([tol])).entering is None

    def test_bland_returns_first_improving(self):
        p = dense([-1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [(0.0, 1.0)])
        assert price_columns(p, np.zeros(1), bland=True).entering == (1, 2.0)
        with pytest.raises(TypeError):  # the rule is a flag, not a name
            price_columns(p, np.zeros(1), rule="bland")

    def test_duals_shape_validated(self):
        p = dense([1.0], [[1.0]], [(0.0, 1.0)])
        with pytest.raises(ParameterError):
            price_columns(p, np.zeros(2))

    def test_objective_toggle(self):
        p = dense([5.0], [[2.0]], [(0.0, 1.0)])
        duals = np.array([1.0])
        assert price_columns(p, duals).entering == (0, 3.0)
        assert price_columns(p, duals, include_objective=False).entering is None


class TestScanRecord:
    """A scan's ``max_rc`` and :func:`near_columns` against a brute-force
    reduced-cost vector."""

    def test_grid_lp_in_both_phases(self, monkeypatch):
        monkeypatch.setattr(lp_solver, "PRICE_CHUNK", 100)  # cuts the 64-column j-slices
        grid = build_problem(
            TestPoolPricing.TABLE, 8, r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2
        )
        problem = grid.as_lp()
        ids = np.arange(problem.n_columns)
        columns, objective = problem.columns(ids), problem.objective(ids)
        rng = np.random.default_rng(RNG_SEED + 28)
        for duals in (rng.normal(size=problem.n_rows), solve(problem).duals):
            for include in (True, False):
                rc = (objective if include else 0.0) - duals @ columns
                scan = price_columns(problem, duals, include_objective=include)
                assert scan.max_rc == pytest.approx(rc.max(), abs=1e-12)
                assert (scan.entering is None) == (rc.max() <= lp_solver.OPTIMALITY_TOL)
            rc = objective - duals @ columns
            ranked = np.sort(rc)
            # thresholds midway in gaps of the sorted costs, so rounding cannot
            # move them; the last gap lies just below the largest costs
            gaps = np.flatnonzero(np.diff(ranked) > 1e-9)
            for i in gaps[[gaps.size // 2, 9 * gaps.size // 10, -1]]:
                delta = -(ranked[i] + ranked[i + 1]) / 2.0
                near = lp_solver.near_columns(problem, duals, delta)
                assert near.tolist() == np.flatnonzero(rc > -delta).tolist()
                assert 0 < near.size < rc.size

    def test_a_chunk_peaking_at_the_tolerance_is_dead(self, monkeypatch):
        monkeypatch.setattr(lp_solver, "PRICE_CHUNK", 3)
        tol = lp_solver.OPTIMALITY_TOL
        zero = np.zeros(1)
        # the second chunk's maximum is exactly tol: no column improves,
        # and that chunk still holds the maximum
        p = dense([-1.0, -2.0, -1.0, 0.0, tol, -3.0, -1.0], np.ones((1, 7)), [(0.0, 1.0)])
        for bland in (False, True):
            scan = price_columns(p, zero, bland=bland)
            assert scan.entering is None and scan.candidates.size == 0
            assert scan.max_rc == tol
        assert lp_solver.near_columns(p, zero, 1.0).tolist() == [3, 4]  # rc > -1, strictly
        # an improving column in the next chunk: both rules take it
        p = dense([-1.0, -2.0, -1.0, 0.0, tol, -3.0, 2 * tol, -1.0], np.ones((1, 8)),
                  [(0.0, 1.0)])
        assert price_columns(p, zero, bland=True).entering == (6, 2 * tol)
        scan = price_columns(p, zero)
        assert scan.entering == (6, 2 * tol) and scan.candidates.tolist() == [6]
        assert scan.max_rc == 2 * tol


class TestBestImproving:
    """``_best_improving`` against a full sort of the improving entries."""

    @pytest.mark.parametrize("keep", (32, 3))
    def test_matches_a_full_sort(self, monkeypatch, keep):
        monkeypatch.setattr(lp_solver, "POOL_PER_CHUNK", keep)
        rng = np.random.default_rng(RNG_SEED + 20)
        for trial in range(1500):
            n = int(rng.integers(1, 4000))
            tol = (0.0, 1e-9)[trial % 2]
            # entries at or below tol, a fifth of them excluded (-inf) ...
            rc = np.where(rng.random(n) < 0.2, -np.inf, rng.integers(-3, 1, size=n) * 0.5)
            rc[rc == 0.0] = tol
            # ... and any number of improving ones, with ties or without
            hits = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            if trial % 3:
                rc[hits] = tol + rng.integers(1, 6, size=hits.size) * 0.25
            else:
                rc[hits] = tol + rng.random(hits.size) + 1e-12
            improving = np.flatnonzero(rc > tol)
            order = np.lexsort((improving, -rc[improving]))  # best first, ties low
            expected = improving[order][:keep]
            assert np.array_equal(lp_solver._best_improving(rc, tol), expected)


def scan_candidates(objective, keep, chunk, tol=lp_solver.OPTIMALITY_TOL):
    """Expected candidate ids of a zero-dual scan, computed one column at a time."""
    picked = []
    for start in range(0, len(objective), chunk):
        ids = [i for i in range(start, min(start + chunk, len(objective))) if objective[i] > tol]
        picked += sorted(ids, key=lambda i: (-objective[i], i))[:keep]
    return sorted(picked, key=lambda i: (-objective[i], i))


class TestPoolPricing:
    # three categories at m=8 with both variance rows: 14 rows, 1,536 columns
    TABLE = StratifiedTable.from_counts(
        {"a": (55, 117, 165, 63), "b": (39, 77, 221, 63), "c": (30, 90, 200, 80)}
    )

    @pytest.mark.parametrize("keep", (32, 2))
    def test_candidates_best_first_across_chunks(self, monkeypatch, keep):
        monkeypatch.setattr(lp_solver, "PRICE_CHUNK", 7)
        monkeypatch.setattr(lp_solver, "POOL_PER_CHUNK", keep)
        rng = np.random.default_rng(RNG_SEED + 10)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            # few distinct values: ties within and across chunks
            objective = rng.integers(-2, 4, size=n).astype(float)
            p = dense(objective, np.ones((1, n)), [(0.0, 1.0)])
            expected = scan_candidates(objective, keep, 7)
            scan = price_columns(p, np.zeros(1))
            assert scan.candidates.tolist() == expected
            assert scan.max_rc == objective.max()
            if scan.entering is not None:
                assert scan.entering == (expected[0], objective[expected[0]])
            else:
                assert expected == []

    def test_bland_scan_candidate_is_its_entering_id(self):
        p = dense([-1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [(0.0, 1.0)])
        scan = price_columns(p, np.zeros(1), bland=True)
        assert scan.entering == (1, 2.0)
        assert scan.candidates.tolist() == [1]

    def test_pool_prices_members_at_phase_costs_ties_low(self):
        objective = np.array([1.0, 5.0, 2.0, 5.0, 5.0, 0.5])
        p = dense(objective, np.ones((1, 6)), [(0.0, 1.0)])
        s = lp_solver._Simplex(p)  # the row's artificial is basic
        s._enter_phase(2)
        s.pool.add([4, 1, 5])
        s.pool.add([3, 1, 0])  # 1 is already a member
        # the slack (working id 6) first, then the members as they joined
        assert s.pool.ids.tolist() == [6, 4, 1, 5, 3, 0]
        assert s.pool.dirn.tolist() == [1.0] * 6
        # 1, 3 and 4 tie at the best rc: the lowest id enters
        assert s._entering(np.zeros(1), False) == 2
        assert s._entering(np.array([4.5]), False) == 2
        assert s._entering(np.array([5.0]), False) is None  # after a scan finds nothing
        s._enter_phase(1)  # structural columns cost 0
        s.pool.add([4, 1])
        # w1, w4 and the slack all price at 2: the lowest structural id enters
        assert s._entering(np.array([-2.0]), False) == 2
        assert s._entering(np.zeros(1), False) is None

    def test_grid_lp_matches_reference_with_fewer_scans(self, monkeypatch):
        grid = build_problem(
            self.TABLE, 8, r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2
        )
        problem = grid.as_lp()
        scans = []
        real = lp_solver.price_columns

        def spy(*args, **kwargs):
            scans.append(kwargs["include_objective"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "price_columns", spy)
        sol = solve(problem)
        monkeypatch.undo()

        ids = np.arange(problem.n_columns)
        ref = reference_solve(
            problem.objective(ids), problem.columns(ids), grid.lower, grid.upper
        )
        assert sol.status == "optimal"
        assert ref.status == 0
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)
        assert False in scans and True in scans  # both phases scanned
        assert len(scans) < sol.iterations
        # the certificate: at the returned duals no column prices out
        assert price_columns(problem, sol.duals).entering is None


class TestBasicColumnsPriceToZero:
    """Pricing skips no column, so every basic structural column must price
    to 0 within rounding, far below ``OPTIMALITY_TOL``: in full scans and
    in pool pricing, in both primal phases and in the dual loop."""

    @staticmethod
    def watch(monkeypatch):
        """Record, per (pricing, loop), the largest |reduced cost| of a
        basic structural column and how many such prices were seen."""
        state = {"scanning": False, "dual": False}
        seen = {}
        real_solution, real_dual = lp_solver._Simplex._basic_solution, lp_solver._Simplex._run_dual
        real_scan, real_chunk = lp_solver.price_columns, LpProblem.reduced_costs
        real_pool = lp_solver._Pool.reduced_costs

        def record(where, rc):
            key = (where, "dual" if state["dual"] else state["phase"])
            worst, count = seen.get(key, (0.0, 0))
            seen[key] = (max(worst, float(np.abs(rc).max(initial=0.0))), count + rc.size)

        def basic_solution(self):
            x, y = real_solution(self)
            state.update(basic=self.basis[self.basis < self.n], phase=self.phase)
            return x, y

        def run_dual(self, start):
            state["dual"] = True
            try:
                return real_dual(self, start)
            finally:
                state["dual"] = False

        def scan(*args, **kwargs):
            state["scanning"] = True
            try:
                return real_scan(*args, **kwargs)
            finally:
                state["scanning"] = False

        def chunk(self, duals, start, stop, include_objective=True, out=None):
            rc = real_chunk(self, duals, start, stop, include_objective, out)
            if state["scanning"]:
                basic = state["basic"]
                record("scan", rc[basic[(basic >= start) & (basic < stop)] - start])
            return rc

        def pool_costs(self, y):
            rc = real_pool(self, y)
            at = self.positions(state["basic"])
            record("pool", rc[at[at >= 0]])
            return rc

        monkeypatch.setattr(lp_solver._Simplex, "_basic_solution", basic_solution)
        monkeypatch.setattr(lp_solver._Simplex, "_run_dual", run_dual)
        monkeypatch.setattr(lp_solver, "price_columns", scan)
        monkeypatch.setattr(LpProblem, "reduced_costs", chunk)
        monkeypatch.setattr(lp_solver._Pool, "reduced_costs", pool_costs)
        return seen

    def test_grid_lps(self, monkeypatch):
        table = TestPoolPricing.TABLE
        constrained = dict(r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2)
        base = solve(build_problem(table, 8, **constrained).as_lp())
        assert base.status == "optimal"
        seen = self.watch(monkeypatch)
        for options in (constrained, dict(epsilon=1e-2)):
            assert solve(build_problem(table, 8, **options).as_lp()).status == "optimal"
        replicate = resample_table(table, np.random.default_rng(RNG_SEED + 21))
        warm = solve(build_problem(replicate, 8, **constrained).as_lp(), start=base)
        assert warm.status == "optimal"
        for key in (("scan", 1), ("scan", 2), ("pool", 1), ("pool", 2), ("pool", "dual")):
            worst, count = seen[key]
            assert count > 0, key
            assert worst <= 1e-12, key


class TestSeededPool:
    TABLE = TestPoolPricing.TABLE

    def grid_lp(self, seed=()):
        """The R2 grid LP, which has no seed of its own, seeded with ``seed``."""
        grid = build_problem(self.TABLE, 8, r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2)
        return reseeded(grid, seed)

    @staticmethod
    def count_scans(monkeypatch):
        scans = []
        real = lp_solver.price_columns

        def spy(*args, **kwargs):
            scans.append(kwargs["include_objective"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "price_columns", spy)
        return scans

    @staticmethod
    def assert_same_optimum(problem, seeded, unseeded):
        assert seeded.status == unseeded.status == "optimal"
        assert seeded.objective == pytest.approx(unseeded.objective, abs=1e-9)
        # the certificate still covers every column
        assert price_columns(problem, seeded.duals).entering is None
        assert set(seeded.columns.tolist()) <= set(seeded.pool.tolist())
        assert np.array_equal(seeded.pool, np.unique(seeded.pool))

    @pytest.mark.parametrize(
        "pool, message",
        [
            ([0, 5, 40], "lie in"),
            ([-1, 3], "lie in"),
            ([1.0, 2.0], "integer"),
            ([[1, 2]], "integer"),
            (["3"], "integer"),
        ],
        ids=["out-of-range", "negative", "float", "2-d", "string"],
    )
    def test_bad_ids_rejected(self, pool, message):
        args = [1.0] * 40, np.ones((1, 40)), [(1.0, 1.0)]
        with pytest.raises(ParameterError, match=message):
            dense(*args, seed=pool)
        # a start's pool joins the seed: it is checked alike
        p = dense(*args)
        start = dataclasses.replace(solve(p), pool=np.array(pool))
        with pytest.raises(ParameterError, match=message):
            relax_and_retry(p, [1e-9], start=start)

    def test_duplicates_and_dtypes_accepted(self):
        for pool in ([1, 1, 0, 1], np.array([2, 2], dtype=np.uint8), np.array([], dtype=float)):
            p = dense([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [(1.0, 1.0)], seed=pool)
            assert p.seed.dtype == np.int64
            assert np.array_equal(p.seed, np.unique(np.asarray(pool, dtype=np.int64)))
            sol = solve(p)
            assert sol.status == "optimal"
            assert sol.objective == 3.0
            assert np.array_equal(sol.columns, [2])
            assert sol.pool.dtype == np.int64

    def test_sorted_unique_matches_numpy(self):
        rng = np.random.default_rng(RNG_SEED + 27)
        for size in (0, 1, 2, 5, 100):
            ids = rng.integers(0, 10, size=size)
            assert np.array_equal(lp_solver._sorted_unique(ids), np.unique(ids))

    def test_random_lps_reach_unseeded_optimum(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        for _ in range(30):
            objective, matrix, rows = feasible_instance(rng)
            problem = dense(objective, matrix, rows)
            base = solve(problem)
            n = len(objective)
            seeds = (
                base.pool,
                base.columns,
                rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False),
                np.arange(n),
            )
            for seed in seeds:
                seeded = dense(objective, matrix, rows, seed=seed)
                self.assert_same_optimum(seeded, solve(seeded), base)

    def test_grid_lp_reaches_unseeded_optimum_with_fewer_scans(self, monkeypatch):
        problem = self.grid_lp()
        scans = self.count_scans(monkeypatch)
        base = solve(problem)
        base_scans = len(scans)
        scans.clear()
        seeded = solve(self.grid_lp(base.pool))
        self.assert_same_optimum(problem, seeded, base)
        assert len(scans) < base_scans
        # optimality is still declared by a full phase-2 scan
        assert scans[-1] is True
        rng = np.random.default_rng(RNG_SEED + 12)
        unrelated = rng.choice(problem.n_columns, size=200, replace=False)
        self.assert_same_optimum(problem, solve(self.grid_lp(unrelated)), base)

    def test_pool_frees_the_problem_without_the_cyclic_collector(self):
        # no reference cycle may keep a solved problem's grid alive
        # until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            grid = build_problem(self.TABLE, 8, r2_propensity=0.1, epsilon=1e-2)
            alive = weakref.ref(grid)
            problem = reseeded(grid, solve(grid.as_lp()).pool)
            sol = solve(problem)
            assert sol.status == "optimal"
            del grid, problem, sol
            assert alive() is None
        finally:
            gc.enable()


class TestPoolShedding:
    """A refill first drops the structural members that price below
    ``-SHED_TOL``; basic members price at 0, so they stay, and the slacks
    are never shed."""

    def test_refills_drop_dead_members_and_keep_basic_ones(self, monkeypatch):
        state, dropped = {}, []
        real_solution = lp_solver._Simplex._basic_solution
        real_shed, real_add = lp_solver._Pool.shed, lp_solver._Pool.add

        def basic_solution(self):
            x, y = real_solution(self)
            state["basis"], state["slacks"] = self.basis.copy(), self.n + np.arange(self.R)
            return x, y

        def shed(pool, y):
            at = pool.positions(state["basis"])
            basic = pool.ids[at[at >= 0]]
            before = pool.n
            real_shed(pool, y)
            dropped.append(before - pool.n)
            assert set(basic.tolist()) <= set(pool.ids.tolist())
            assert np.array_equal(pool.ids[: state["slacks"].size], state["slacks"])
            state["y"] = y

        def add(pool, ids):
            real_add(pool, ids)
            y = state.pop("y", None)
            if y is not None:  # the refill that follows a shed
                structural = pool.reduced_costs(y)[state["slacks"].size :]
                assert structural.min() >= -lp_solver.SHED_TOL

        monkeypatch.setattr(lp_solver._Simplex, "_basic_solution", basic_solution)
        monkeypatch.setattr(lp_solver._Pool, "shed", shed)
        monkeypatch.setattr(lp_solver._Pool, "add", add)
        table = TestPoolPricing.TABLE
        constrained = dict(r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2)
        base = solve(build_problem(table, 8, **constrained).as_lp())
        replicate = resample_table(table, np.random.default_rng(RNG_SEED + 26))
        warm = solve(build_problem(replicate, 8, **constrained).as_lp(), start=base)
        unconstrained = solve(build_problem(table, 8, epsilon=1e-2).as_lp())
        assert base.status == warm.status == unconstrained.status == "optimal"
        assert sum(d > 0 for d in dropped) > 1


class TestKeptBasisState:
    """Each phase's basis matrix, basic costs, basic bounds, basis
    inverse, effective right-hand side, basic pool positions and pool
    directions are kept in place across pivots; at every pivot all but
    the inverse must equal a rebuild and the inverse must invert the
    matrix."""

    @staticmethod
    def watch(monkeypatch):
        """Check the kept state before every pivot's basic solution;
        return one ``(phase, iterations, basis, updates)`` record per
        pivot, where ``updates`` counts the rank-one updates since the
        last factorization."""
        records = []
        real = lp_solver._Simplex._basic_solution

        def checked(self):
            rebuilt = copy.copy(self)
            rebuilt.pool = copy.copy(self.pool)  # the rebuild writes its directions
            rebuilt.pool._dirn = self.pool._dirn.copy()
            rebuilt._load_basis()
            for name in ("bmat", "c_basis", "ub_basis", "rhs", "basis_pos"):
                assert np.array_equal(getattr(self, name), getattr(rebuilt, name)), name
            assert np.array_equal(self.pool.dirn, rebuilt.pool.dirn)
            assert np.array_equal(self.basis_pos, self.pool.positions(self.basis))
            basic = self.basis_pos[self.basis_pos >= 0]
            assert not self.pool.dirn[basic].any()  # basic members have direction 0
            residual = self.binv @ self.bmat - np.eye(self.R)
            assert np.abs(residual).sum(axis=1).max() <= 1e-9
            records.append((self.phase, self.iterations, self.basis.copy(), self.updates))
            return real(self)

        monkeypatch.setattr(lp_solver._Simplex, "_basic_solution", checked)
        return records

    @staticmethod
    def bound_flips(records):
        """Pivots that changed no basic variable: the entering one flipped bounds."""
        return sum(
            a[0] == b[0] and b[1] == a[1] + 1 and np.array_equal(a[2], b[2])
            for a, b in zip(records, records[1:])
        )

    def test_random_lps_with_bound_flips(self, monkeypatch):
        records = self.watch(monkeypatch)
        rng = np.random.default_rng(RNG_SEED + 13)
        for _ in range(30):
            objective, matrix, rows = feasible_instance(rng, negative=rng.uniform() < 0.3)
            sol = solve(dense(objective, matrix, rows))
            assert sol.status == "optimal"
            assert sol.pool.max() < len(objective)  # structural ids only, no slack
        assert {phase for phase, *_ in records} == {1, 2}
        assert self.bound_flips(records) > 0

    def test_bland_mode(self, monkeypatch):
        monkeypatch.setattr(lp_solver, "_STALL_PER_ROW", 0)
        records = self.watch(monkeypatch)
        rules = []
        real = lp_solver.price_columns

        def spy(*args, **kwargs):
            rules.append(kwargs["bland"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "price_columns", spy)
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(12):
            objective, matrix, rows = degenerate_instance(rng)
            assert solve(dense(objective, matrix, rows)).status == "optimal"
        assert True in rules
        assert records

    def test_phase_switch_on_a_grid_lp(self, monkeypatch):
        grid = build_problem(
            TestPoolPricing.TABLE, 8, r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2
        )
        problem = grid.as_lp()
        records = self.watch(monkeypatch)
        entered = []
        real_entering = lp_solver._Simplex._entering

        def entering(self, y, bland):
            k = real_entering(self, y, bland)
            if k is not None:
                # the entering member's cached id, column and cost
                enter = int(self.pool.ids[k])
                column, cost = self.pool._cols[:, k], self.pool._cost[k]
                if k < self.R:
                    assert enter == self.n + k and cost == 0.0
                    assert np.array_equal(column, self.sign[k] * np.eye(self.R)[k])
                else:
                    assert np.array_equal(column, problem.columns([enter])[:, 0])
                    assert cost == (problem.objective([enter])[0] if self.phase == 2 else 0.0)
                entered.append(k < self.R)
            return k

        monkeypatch.setattr(lp_solver._Simplex, "_entering", entering)
        sol = solve(problem)
        assert sol.status == "optimal"
        phases = [phase for phase, *_ in records]
        assert phases[0] == 1 and phases[-1] == 2
        assert False in entered and True in entered  # structurals and slacks entered

    def test_grid_lp_runs_past_the_refactorization_count(self, monkeypatch):
        grid = build_problem(
            TestPoolPricing.TABLE, 8, r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2
        )
        base = solve(grid.as_lp())
        records = self.watch(monkeypatch)
        sol = solve(grid.as_lp())
        assert_identical(sol, base)
        updates = [u for *_, u in records]
        assert max(updates) == lp_solver._REFACTOR_EVERY
        # the pivot after the last allowed update factorizes afresh
        assert updates[updates.index(max(updates)) + 1] == 0

    def test_tiny_pivot_elements_refactorize(self, monkeypatch):
        rng = np.random.default_rng(RNG_SEED + 24)
        instances = [feasible_instance(rng) for _ in range(10)]
        expected = [solve(dense(*instance)) for instance in instances]
        monkeypatch.setattr(lp_solver, "_TINY_PIVOT", np.inf)  # every pivot element is tiny
        records = self.watch(monkeypatch)
        for instance, base in zip(instances, expected):
            sol = solve(dense(*instance))
            assert sol.status == base.status == "optimal"
            assert sol.objective == pytest.approx(base.objective, abs=1e-9)
        assert records and all(u == 0 for *_, u in records)

    def test_pool_member_is_the_cached_column(self):
        matrix = np.arange(12.0).reshape(2, 6)
        p = dense(np.arange(6.0), matrix, [(0.0, 1.0), (1.0, np.inf)])
        pool = lp_solver._Pool(p, 2, np.array([1.0, -1.0]))
        pool.add([4, 1])
        pool.add([5, 0, 1])
        # the two slacks (working ids 6 and 7), then the members as they joined
        assert pool.ids.tolist() == [6, 7, 4, 1, 5, 0]
        slacks = np.array([[1.0, 0.0], [0.0, -1.0]])
        for k, column in enumerate(pool.ids.tolist()):
            expected = slacks[:, k] if k < 2 else matrix[:, column]
            assert np.array_equal(pool._cols[:, k], expected)
            assert pool._cost[k] == (0.0 if k < 2 else column)
        assert pool.dirn.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]  # until a basis loads
        # working ids 2 and 8 (row 0's artificial) are no members
        assert pool.positions(np.array([2, 5, 6, 4, 7, 8])).tolist() == [-1, 4, 0, 2, 1, -1]

    def test_pool_grows_and_sheds_in_place(self):
        rng = np.random.default_rng(RNG_SEED + 25)
        matrix = rng.uniform(-1.0, 1.0, size=(3, 500))
        objective = rng.uniform(-1.0, 1.0, size=500)
        signs = np.array([1.0, -1.0, 1.0])
        p = dense(objective, matrix, [(0.0, 1.0), (0.0, np.inf), (0.0, 1.0)])
        pool = lp_solver._Pool(p, 2, signs)
        slacks = [500, 501, 502]  # working ids n + i, at positions i
        joined = []
        for size in (1, 2, 7, 40, 3, 150, 90):  # several capacity doublings
            ids = rng.choice(500, size=size, replace=False)
            pool.add(ids)
            joined += [i for i in ids.tolist() if i not in joined]
            assert pool.ids.tolist() == slacks + joined
        # the slacks price at -0.3, -0.2 and -0.1, all below -SHED_TOL
        y = np.array([0.3, -0.2, 0.1])
        pool.dirn[:] = np.arange(pool.n) % 3 - 1.0  # directions move with their members
        dirn = dict(zip(pool.ids.tolist(), pool.dirn.tolist()))
        pool.shed(y)
        kept = [i for i in joined if objective[i] - y @ matrix[:, i] >= -lp_solver.SHED_TOL]
        assert 0 < len(kept) < len(joined)
        assert pool.ids.tolist() == slacks + kept
        assert pool.dirn.tolist() == [dirn[i] for i in slacks + kept]
        expected = np.concatenate([-signs * y, objective[kept] - y @ matrix[:, kept]])
        assert (expected[:3] < -lp_solver.SHED_TOL).all()
        assert np.allclose(pool.reduced_costs(y), expected, rtol=0.0, atol=1e-15)
        members = slacks + kept
        assert pool.positions(np.arange(504)).tolist() == [
            members.index(i) if i in members else -1 for i in range(504)
        ]
        for k, column in enumerate(kept, start=3):
            assert np.array_equal(pool._cols[:, k], matrix[:, column])
            assert pool._cost[k] == objective[column]

    def test_singular_basis_raises_estimation_error(self):
        p = dense([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [(0.0, 1.0)] * 2)
        s = lp_solver._Simplex(p)
        s.basis = np.array([0, 1])  # two equal columns: exactly singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="basis factorization failed"):
                s._enter_phase(1)
                s._run_phase()


class TestWarmStart:
    """``solve(..., start=solution)``: dual simplex pivots from a related
    solution's basis, then phase two; a start that cannot be used gives
    the cold two-phase solve."""

    @staticmethod
    def shifted(rng, rows, scale=0.2):
        """The rows with every range row's bounds moved by one random step."""
        steps = rng.uniform(-scale, scale, size=len(rows))
        return [
            (lo + step, hi + step) if np.isfinite(hi) else (lo, hi)
            for (lo, hi), step in zip(rows, steps)
        ]

    @staticmethod
    def watch_phases(monkeypatch):
        """Record ``(phase, iterations before, iterations after)`` of every
        primal phase and ``("dual", accepted)`` of every dual phase."""
        records = []
        real_phase, real_dual = lp_solver._Simplex._run_phase, lp_solver._Simplex._run_dual

        def run_phase(self):
            before = self.iterations
            outcome = real_phase(self)
            records.append((self.phase, before, self.iterations))
            return outcome

        def run_dual(self, start):
            accepted = real_dual(self, start)
            records.append(("dual", accepted))
            return accepted

        monkeypatch.setattr(lp_solver._Simplex, "_run_phase", run_phase)
        monkeypatch.setattr(lp_solver._Simplex, "_run_dual", run_dual)
        return records

    def test_dual_ratio_ties_within_noise_enter_the_lowest_id(self, monkeypatch):
        records = self.watch_phases(monkeypatch)
        # from the basis {w0}, w0 = -1 violates w0 >= 0; w1 and w2 can
        # enter with ratios 1e-17 (d = -1e-17) and exactly 0 (d = 0)
        problem = dense([0.0, -1e-17, 0.0], [[1.0, -1.0, -1.0]], [(-2.0, -1.0)])
        start = lp_solver.LpSolution(
            status="optimal",
            columns=np.array([0]),
            masses=np.array([1.0]),
            objective=0.0,
            row_activity=np.array([1.0]),
            duals=np.zeros(1),
            iterations=0,
            pool=np.arange(3),
            basis=np.array([0]),
            at_upper=np.zeros(2, dtype=bool),
        )
        sol = solve(problem, start=start)  # the start's pool seeds all three
        assert records == [("dual", True), (2, 1, 1)]
        assert sol.status == "optimal"
        assert sol.columns.tolist() == [1] and sol.masses.tolist() == [1.0]

    def test_shifted_rows_reach_the_cold_optimum(self, monkeypatch):
        records = self.watch_phases(monkeypatch)
        rng = np.random.default_rng(RNG_SEED + 14)
        outcomes = []
        for _ in range(30):
            objective, matrix, rows = feasible_instance(rng)
            first = solve(dense(objective, matrix, rows))
            assert first.status == "optimal"
            shifted = self.shifted(rng, rows)
            every_column = np.arange(len(objective))
            for pool in (first.pool, every_column):
                problem = dense(objective, matrix, shifted, seed=pool)
                cold = solve(problem)
                records.clear()
                warm = solve(problem, start=first)
                outcomes.append(cold.status)
                if cold.status == "infeasible":
                    assert_identical(warm, cold)
                    continue
                assert warm.status == cold.status == "optimal"
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert price_columns(problem, warm.duals).entering is None
                if pool is every_column:
                    # no cold start, and the dual phase ends at the optimum
                    dual, (phase, before, after) = records
                    assert dual == ("dual", True) and phase == 2 and before == after
        assert outcomes.count("optimal") >= 40 and "infeasible" in outcomes

    def test_dual_pivots_keep_the_basis_state(self, monkeypatch):
        TestKeptBasisState.watch(monkeypatch)
        rng = np.random.default_rng(RNG_SEED + 15)
        iterations = 0
        for _ in range(30):
            objective, matrix, rows = feasible_instance(rng)
            first = solve(dense(objective, matrix, rows))
            warm = solve(dense(objective, matrix, self.shifted(rng, rows)), start=first)
            iterations += warm.iterations
        assert iterations > 0

    def test_infeasible_shift_ends_as_cold(self):
        rng = np.random.default_rng(RNG_SEED + 16)
        for _ in range(15):
            objective, matrix, rows = feasible_instance(rng)
            first = solve(dense(objective, matrix, rows))
            # row 0 has positive coefficients: no w >= 0 reaches a negative band
            problem = dense(objective, matrix, [(-2.0, -1.0), *rows[1:]], seed=first.pool)
            cold = solve(problem)
            warm = solve(problem, start=first)
            assert cold.status == "infeasible" and cold.infeasible_rows
            assert_identical(warm, cold)

    def test_start_that_is_not_dual_feasible_gives_the_cold_solve(self, monkeypatch):
        records = self.watch_phases(monkeypatch)
        rng = np.random.default_rng(RNG_SEED + 17)
        for _ in range(15):
            objective, matrix, rows = feasible_instance(rng)
            first = solve(dense(objective, matrix, rows))
            problem = dense(-np.asarray(objective), matrix, rows, seed=np.arange(len(objective)))
            cold = solve(problem)
            records.clear()
            warm = solve(problem, start=first)
            assert records[0] == ("dual", False)
            assert_identical(warm, cold)

    def test_bad_start_rejected(self):
        two = dense([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [(1.0, 1.0), (0.0, 1.0)])
        three = dense([1.0, 2.0], np.ones((3, 2)), [(1.0, 1.0)] * 3)
        start = solve(two)
        with pytest.raises(ParameterError, match="basis of 3 ids"):
            solve(three, start=start)
        with pytest.raises(ParameterError, match="basis of 3 ids"):
            relax_and_retry(three, [1e-9], start=start)
        outside = dataclasses.replace(start, basis=start.basis + 6)
        with pytest.raises(ParameterError, match="lie in"):
            solve(two, start=outside)

    def test_warm_solves_are_bit_identical(self):
        rng = np.random.default_rng(RNG_SEED + 18)
        for _ in range(10):
            objective, matrix, rows = feasible_instance(rng)
            first = solve(dense(objective, matrix, rows))
            problem = dense(objective, matrix, self.shifted(rng, rows))
            assert_identical(solve(problem, start=first), solve(problem, start=first))

    def test_grid_lp_replicates(self, monkeypatch):
        # resampled tables: another right-hand side and variance marginals, the same grid
        table = TestPoolPricing.TABLE
        options = dict(r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2)
        base_problem = build_problem(table, 8, **options).as_lp()
        base = solve(base_problem)
        assert base.status == "optimal"
        records = self.watch_phases(monkeypatch)
        rng = np.random.default_rng(RNG_SEED + 19)
        warm_pivots = cold_pivots = 0
        for _ in range(4):
            grid = build_problem(resample_table(table, rng), 8, **options)
            problem = grid.as_lp()
            cold = solve(reseeded(grid, base.pool))
            records.clear()
            warm = solve(problem, start=base)
            assert records[0] == ("dual", True)
            assert cold.status == warm.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert price_columns(problem, warm.duals).entering is None
            assert warm.pool.max() < problem.n_columns  # structural ids only, no slack
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
        assert warm_pivots < cold_pivots
        # a replicate's solution seeds the next one
        assert solve(base_problem, start=warm).status == "optimal"


class TestGridFuzz:
    """Seeded random grid LPs, each solved cold, warm-started from the
    solution of a resampled table of the same shape, seeded with its
    optimal columns and under Bland's rule: every path agrees with HiGHS
    on the status and, at an optimum, on the objective."""

    @staticmethod
    def random_grid(rng):
        """A random grid LP and its table, resolution and build options;
        None where the table or its variance rows cannot be built."""
        d = int(rng.integers(1, 4))
        counts = rng.integers(1, 60, size=(d, 4)).astype(float)
        counts[rng.random((d, 4)) < 0.2] = 0.0
        m, epsilon = int(rng.integers(2, 11)), 0.2 * rng.random() ** 4
        # exact rows (epsilon 0) make degenerate pivots, so Bland's rule engages
        options = dict(epsilon=0.0 if rng.random() < 0.3 else epsilon)
        if rng.random() < 0.5:
            options.update(r2_propensity=rng.uniform(0.0, 0.5), r2_prognosis=rng.uniform(0.0, 0.5))
        try:
            labels = [f"c{c}" for c in range(d)]
            table = StratifiedTable.from_counts(dict(zip(labels, map(tuple, counts))))
            return build_problem(table, m, **options), table, m, options
        except (DegenerateTableError, DomainError):
            return None

    def test_paths_agree_with_reference(self, monkeypatch):
        rng = np.random.default_rng(RNG_SEED + 29)
        accepted, bland_scans = [], []
        real_dual, real_scan = lp_solver._Simplex._run_dual, lp_solver.price_columns

        def run_dual(self, start):
            accepted.append(real_dual(self, start))
            return accepted[-1]

        def scan(*args, **kwargs):
            bland_scans.append(kwargs["bland"])
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(lp_solver._Simplex, "_run_dual", run_dual)
        monkeypatch.setattr(lp_solver, "price_columns", scan)
        statuses = []
        while len(statuses) < 60:
            built = self.random_grid(rng)
            if built is None:
                continue
            grid, table, m, options = built
            problem = grid.as_lp()
            ids = np.arange(problem.n_columns)
            ref = reference_solve(
                problem.objective(ids), problem.columns(ids), grid.lower, grid.upper
            )
            expected = {0: "optimal", 2: "infeasible"}[ref.status]
            cold = solve(problem)
            paths = [cold, solve(reseeded(grid, cold.columns))]
            try:
                replicate = build_problem(resample_table(table, rng), m, **options)
            except (DegenerateTableError, DomainError):
                replicate = None
            if replicate is not None:
                paths.append(solve(problem, start=solve(replicate.as_lp())))
            with monkeypatch.context() as forced:
                forced.setattr(lp_solver, "_STALL_PER_ROW", 0)  # Bland after one stall
                paths.append(solve(problem))
            for sol in paths:
                assert sol.status == expected
                if expected == "optimal":
                    assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)
                assert sol.pool.size == 0 or sol.pool.max() < problem.n_columns
            statuses.append(expected)
        assert 15 <= statuses.count("optimal") <= 45
        assert accepted.count(True) >= 10  # the dual loop ran to primal feasibility
        assert sum(bland_scans) >= 100  # Bland's rule took over


class TestRelaxAndRetry:
    def test_schedule_validation(self):
        p = dense([1.0], [[1.0]], [(0.0, 1.0)])
        for schedule in ([], (), [1e-6, 1e-6], [1e-9, 1e-6], (1e-3, 1e-9), (1e-6,)):
            with pytest.raises(ParameterError):
                relax_and_retry(p, schedule)

    def test_one_stage_schedule_is_solve(self):
        rng = np.random.default_rng(RNG_SEED + 23)
        for _ in range(5):
            problem = dense(*feasible_instance(rng))
            cold = solve(problem)
            assert cold.status == "optimal"
            assert_identical(relax_and_retry(problem, (1e-9,)), cold)
            assert_identical(
                relax_and_retry(problem, [FEASIBILITY_TOL], start=cold),
                solve(problem, start=cold),
            )
