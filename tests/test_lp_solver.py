"""Revised-simplex solver: exact optima, randomized cross-checks, staging."""

import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.optimize import linprog

from maxent_effects import lp_solver
from maxent_effects.errors import EstimationError, ParameterError
from maxent_effects.grid_lp import build_problem
from maxent_effects.lp_solver import (
    FEASIBILITY_TOL,
    ROW_CAP,
    InequalityRow,
    LpProblem,
    RangeRow,
    price_columns,
    relax_and_retry,
    solve,
)
from maxent_effects.model import StratifiedTable
from maxent_effects.tables import resample_table

RNG_SEED = 90210


def dense(objective, matrix, rows, seed=()):
    return LpProblem.from_dense(objective, matrix, rows, seed=seed)


def reseeded(grid, seed):
    """The LP of ``grid``, a :class:`DiscretizedProblem`, with the pool
    seed ``seed`` in place of its own."""
    return LpProblem(
        grid.rows,
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


def reference_solve(objective, matrix, rows):
    """scipy HiGHS solve of the same maximization, for cross-checking."""
    a_ub, b_ub = [], []
    for coef, row in zip(matrix, rows):
        coef = np.asarray(coef, dtype=float)
        if isinstance(row, RangeRow):
            a_ub.append(coef)
            b_ub.append(row.upper)
            a_ub.append(-coef)
            b_ub.append(-row.lower)
        else:
            a_ub.append(-coef)
            b_ub.append(-row.rhs)
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
            rows.append(InequalityRow(activity[i] - rng.uniform(0.0, 0.1)))
        else:
            rows.append(
                RangeRow(
                    activity[i] - rng.uniform(0.0, 0.05),
                    activity[i] + rng.uniform(0.0, 0.05),
                )
            )
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
    rows = [RangeRow(1.0, 1.0)] + [RangeRow(0.0, 0.0)] * (n_rows - 1)
    return rng.uniform(-1.0, 1.0, size=n_cols), matrix, rows


def assert_matches_reference(objective, matrix, rows):
    """Optimal, equal to HiGHS, feasible and sparse at the returned vertex."""
    sol = solve(dense(objective, matrix, rows))
    ref = reference_solve(objective, matrix, rows)
    assert sol.status == "optimal"
    assert ref.status == 0
    assert sol.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
    # vertex feasibility, recomputed from the reported columns
    x = np.zeros(len(objective))
    x[sol.columns] = sol.masses
    act = matrix @ x
    for i, row in enumerate(rows):
        if isinstance(row, RangeRow):
            assert row.lower - 1e-7 <= act[i] <= row.upper + 1e-7
        else:
            assert act[i] >= row.rhs - 1e-7
    # vertex sparsity: nonzero columns never exceed row count
    assert sol.columns.size <= len(rows)


class TestExactSmallProblems:
    def test_single_equality(self):
        # max x0 + 2 x1 with x0 + x1 = 1
        sol = solve(dense([1.0, 2.0], [[1.0, 1.0]], [RangeRow(1.0, 1.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        assert sol.columns.tolist() == [1]
        assert sol.masses == pytest.approx([1.0])

    def test_range_row_upper_binds(self):
        sol = solve(dense([1.0], [[1.0]], [RangeRow(2.0, 5.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-12)

    def test_inequality_row_binds_from_below(self):
        sol = solve(dense([-1.0], [[1.0]], [InequalityRow(3.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-3.0, abs=1e-12)

    def test_two_row_vertex(self):
        # max x0 + x1 with x0 + 2 x1 = 4 and x0 >= 1; optimum at (4 - 2t, t)
        # pushes all mass to x0: (4, 0) with objective 4
        sol = solve(
            dense(
                [1.0, 1.0],
                [[1.0, 2.0], [1.0, 0.0]],
                [RangeRow(4.0, 4.0), InequalityRow(1.0)],
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
                [RangeRow(1.0, 1.0), RangeRow(3.0, 3.0)],
            )
        )
        assert sol.status == "infeasible"
        assert sol.infeasible_rows
        assert set(sol.infeasible_rows) <= {0, 1}

    def test_unbounded_ray(self):
        sol = solve(dense([1.0], [[1.0]], [InequalityRow(1.0)]))
        assert sol.status == "unbounded"

    def test_iteration_limit_reports_violated_rows(self, monkeypatch):
        monkeypatch.setattr(lp_solver, "MAX_ITERATIONS", 1)
        sol = solve(
            dense(
                [1.0, 1.0],
                [[1.0, 2.0], [1.0, 0.0]],
                [RangeRow(4.0, 4.0), InequalityRow(1.0)],
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
                [RangeRow(1.0, 1.0), RangeRow(0.0, 0.4)],
            )
        )
        assert sol.status == "optimal"
        assert sol.row_activity == pytest.approx([1.0, 0.4], abs=1e-12)


class TestValidation:
    def test_row_cap(self):
        rows = [RangeRow(0.0, 1.0)] * (ROW_CAP + 1)
        with pytest.raises(ParameterError):
            LpProblem(
                rows, 1, lambda i: np.ones((len(rows), i.size)), lambda i: np.zeros(i.size), None
            )

    def test_empty_rows_and_columns(self):
        with pytest.raises(ParameterError):
            LpProblem([], 1, None, None, None)
        with pytest.raises(ParameterError):
            LpProblem([RangeRow(0.0, 1.0)], 0, None, None, None)

    def test_range_row_ordering(self):
        with pytest.raises(ParameterError):
            RangeRow(2.0, 1.0)

    def test_from_dense_shape_mismatch(self):
        with pytest.raises(ParameterError):
            LpProblem.from_dense([1.0, 2.0], [[1.0]], [RangeRow(0.0, 1.0)])

    def test_columns_fn_shape_checked(self):
        p = LpProblem(
            [RangeRow(0.0, 1.0)],
            3,
            columns_fn=lambda idx: np.ones((2, idx.size)),
            objective_fn=lambda idx: np.zeros(idx.size),
            reduced_cost_fn=None,
        )
        with pytest.raises(ParameterError):
            p.columns([0])

    def test_rows_need_finite_right_hand_side(self):
        for row in (
            InequalityRow(np.nan),
            InequalityRow(np.inf),
            InequalityRow(-np.inf),
            RangeRow(-np.inf, np.inf),
            RangeRow(np.inf, np.inf),
        ):
            with pytest.raises(ParameterError, match="right-hand side"):
                dense([1.0], [[1.0]], [row])

    def test_rows_need_finite_width(self):
        rows = [RangeRow(0.0, 1.0), RangeRow(-1e308, 1e308)]  # the width overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="row 1 needs a finite width"):
                dense([1.0], [[1.0], [1.0]], rows)
        # a <= row: one infinite bound, so its slack has no upper bound
        sol = solve(dense([1.0], [[1.0]], [RangeRow(-np.inf, 1.0)]))
        assert sol.status == "optimal" and sol.objective == 1.0

    def test_positive_tolerances_required(self):
        p = dense([1.0], [[1.0]], [RangeRow(0.0, 1.0)])
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
            rhs = [r.upper if isinstance(r, RangeRow) else r.rhs for r in rows]
            assert min(rhs) < 0.0
            assert_matches_reference(objective, matrix, rows)

    def test_detects_infeasibility(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(15):
            objective, matrix, rows = feasible_instance(rng)
            # duplicate row 0's activity into a far-away disjoint band
            matrix = np.vstack([matrix, matrix[0]])
            rows = list(rows) + [RangeRow(rows[0].upper + 10.0, rows[0].upper + 10.01)]
            sol = solve(dense(objective, matrix, rows))
            ref = reference_solve(objective, matrix, rows)
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
            assert price_columns(problem, sol.duals) is None


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
            rows,
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
        problem = dense(objective, matrix, [RangeRow(-1.0, 1.0)] * 4)
        for _ in range(20):
            duals = rng.normal(size=4)
            start = int(rng.integers(0, 50))
            stop = int(rng.integers(start + 1, 51))
            idx = np.arange(start, stop)
            columns = problem.columns(idx)
            np.testing.assert_array_equal(
                problem.reduced_costs(duals, start, stop), objective[idx] - duals @ columns
            )
            np.testing.assert_array_equal(
                problem.reduced_costs(duals, start, stop, include_objective=False),
                -(duals @ columns),
            )


class TestBlandMode:
    def test_degenerate_instances_reach_bland_and_optimum(self, monkeypatch):
        # switch to Bland's rule after the first degenerate step
        monkeypatch.setattr(lp_solver, "_STALL_PER_ROW", 0)
        rules = []
        real = lp_solver.price_columns

        def spy(*args, **kwargs):
            rules.append(kwargs["rule"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "price_columns", spy)
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(12):
            objective, matrix, rows = degenerate_instance(rng)
            rules.clear()
            sol = solve(dense(objective, matrix, rows))
            ref = reference_solve(objective, matrix, rows)
            assert "bland" in rules
            assert sol.status == "optimal"
            assert ref.status == 0
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)


class TestEnteringRule:
    """The choice between the best structural column and the best slack:
    the largest |reduced cost|, the structural on a tie; under Bland's
    rule the lower working id, which is always the structural."""

    @staticmethod
    def watch(monkeypatch):
        """Record every entering working id and the rule of every full scan."""
        entered, rules = [], []
        real_entering, real_scan = lp_solver._Simplex._entering, lp_solver.price_columns

        def entering(self, enter):
            entered.append(enter)
            return real_entering(self, enter)

        def scan(*args, **kwargs):
            rules.append(kwargs["rule"])
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(lp_solver._Simplex, "_entering", entering)
        monkeypatch.setattr(lp_solver, "price_columns", scan)
        return entered, rules

    def test_pool_member_and_slack_tied_the_structural_enters(self, monkeypatch):
        entered, rules = self.watch(monkeypatch)
        # phase one starts with y = -1: the pool member w0 and the row's
        # slack (working id 1) both price at exactly 1
        sol = solve(dense([1.0], [[1.0]], [RangeRow(0.5, 1.0)], seed=[0]))
        assert entered[0] == 0 and rules == ["dantzig"]  # one scan, in phase two
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
            [RangeRow(0.5, 1.0), RangeRow(-1.0, 0.0)],
        )
        sol = solve(problem)
        assert entered[:3] == [0, 1, 2]
        assert rules[:2] == ["dantzig", "bland"]
        assert sol.status == "optimal"


class TestPricing:
    def test_dantzig_picks_largest_with_lowest_index_ties(self):
        p = dense([1.0, 3.0, 3.0], [[1.0, 1.0, 1.0]], [RangeRow(0.0, 1.0)])
        assert price_columns(p, np.zeros(1))[0] == (1, 3.0)

    def test_tolerance_is_optimality_tol(self):
        tol = lp_solver.OPTIMALITY_TOL
        p = dense([tol, 2.0 * tol, tol], [[1.0, 1.0, 1.0]], [RangeRow(0.0, 1.0)])
        assert price_columns(p, np.zeros(1))[0] == (1, 2.0 * tol)
        assert price_columns(p, np.array([tol])) is None

    def test_bland_returns_first_improving(self):
        p = dense([-1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [RangeRow(0.0, 1.0)])
        assert price_columns(p, np.zeros(1), rule="bland")[0] == (1, 2.0)

    def test_duals_shape_validated(self):
        p = dense([1.0], [[1.0]], [RangeRow(0.0, 1.0)])
        with pytest.raises(ParameterError):
            price_columns(p, np.zeros(2))

    def test_objective_toggle(self):
        p = dense([5.0], [[2.0]], [RangeRow(0.0, 1.0)])
        duals = np.array([1.0])
        with_obj = price_columns(p, duals)
        assert with_obj[0] == (0, 3.0)
        assert price_columns(p, duals, include_objective=False) is None


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
            p = dense(objective, np.ones((1, n)), [RangeRow(0.0, 1.0)])
            expected = scan_candidates(objective, keep, 7)
            scan = price_columns(p, np.zeros(1))
            if scan is None:
                assert expected == []
            else:
                best, found = scan
                assert found.tolist() == expected
                assert best == (found[0], objective[found[0]])

    def test_bland_scan_gathers_no_candidates(self):
        p = dense([-1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [RangeRow(0.0, 1.0)])
        best, found = price_columns(p, np.zeros(1), rule="bland")
        assert best == (1, 2.0)
        assert found.size == 0

    def test_pool_prices_members_at_phase_costs_ties_low(self):
        objective = np.array([1.0, 5.0, 2.0, 5.0, 5.0, 0.5])
        p = dense(objective, np.ones((1, 6)), [RangeRow(0.0, 1.0)])
        pool = lp_solver._Pool(p, 2)
        pool.add([4, 1, 5])
        pool.add([3, 1, 0])  # 1 is already a member
        assert sorted(pool.ids.tolist()) == [0, 1, 3, 4, 5]
        assert pool.price(np.zeros(1)) == (1, 5.0)
        assert pool.price(np.array([4.5])) == (1, 0.5)
        assert pool.price(np.array([5.0])) is None
        phase_one = lp_solver._Pool(p, 1)  # structural columns cost 0
        phase_one.add([4, 1])
        assert phase_one.price(np.array([-2.0])) == (1, 2.0)
        assert phase_one.price(np.zeros(1)) is None

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
        ref = reference_solve(problem.objective(ids), problem.columns(ids), grid.rows)
        assert sol.status == "optimal"
        assert ref.status == 0
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-9)
        assert False in scans and True in scans  # both phases scanned
        assert len(scans) < sol.iterations
        # the certificate: at the returned duals no column prices out
        assert price_columns(problem, sol.duals) is None


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
            record("pool", rc[self.positions(state["basic"])])
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
        assert price_columns(problem, seeded.duals) is None
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
        args = [1.0] * 40, np.ones((1, 40)), [RangeRow(1.0, 1.0)]
        with pytest.raises(ParameterError, match=message):
            dense(*args, seed=pool)
        # a start's pool joins the seed: it is checked alike
        p = dense(*args)
        start = dataclasses.replace(solve(p), pool=np.array(pool))
        with pytest.raises(ParameterError, match=message):
            relax_and_retry(p, [1e-9], start=start)

    def test_duplicates_and_dtypes_accepted(self):
        for pool in ([1, 1, 0, 1], np.array([2, 2], dtype=np.uint8), np.array([], dtype=float)):
            p = dense([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [RangeRow(1.0, 1.0)], seed=pool)
            assert p.seed.dtype == np.int64
            assert np.array_equal(p.seed, np.unique(np.asarray(pool, dtype=np.int64)))
            sol = solve(p)
            assert sol.status == "optimal"
            assert sol.objective == 3.0
            assert np.array_equal(sol.columns, [2])
            assert sol.pool.dtype == np.int64

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


class TestKeptBasisState:
    """Each phase's basis matrix, basic costs and basic bounds are kept
    in place across pivots; at every pivot they must equal a rebuild."""

    @staticmethod
    def watch(monkeypatch):
        """Check the kept state before every basis solve; return one
        ``(phase, iterations, basis)`` record per pivot."""
        records = []
        real = lp_solver._Simplex._solve

        def checked(self, rhs, transpose=False):
            assert np.array_equal(self.bmat, self._work_columns(self.basis))
            assert np.array_equal(self.c_basis, self._work_cost(self.basis))
            assert np.array_equal(self.ub_basis, self._work_ub(self.basis))
            if transpose:  # once per pivot, before pricing
                records.append((self.phase, self.iterations, self.basis.copy()))
            return real(self, rhs, transpose)

        monkeypatch.setattr(lp_solver._Simplex, "_solve", checked)
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
            assert solve(dense(objective, matrix, rows)).status == "optimal"
        assert {phase for phase, _, _ in records} == {1, 2}
        assert self.bound_flips(records) > 0

    def test_bland_mode(self, monkeypatch):
        monkeypatch.setattr(lp_solver, "_STALL_PER_ROW", 0)
        records = self.watch(monkeypatch)
        rules = []
        real = lp_solver.price_columns

        def spy(*args, **kwargs):
            rules.append(kwargs["rule"])
            return real(*args, **kwargs)

        monkeypatch.setattr(lp_solver, "price_columns", spy)
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(12):
            objective, matrix, rows = degenerate_instance(rng)
            assert solve(dense(objective, matrix, rows)).status == "optimal"
        assert "bland" in rules
        assert records

    def test_phase_switch_on_a_grid_lp(self, monkeypatch):
        grid = build_problem(
            TestPoolPricing.TABLE, 8, r2_propensity=0.1, r2_prognosis=0.05, epsilon=1e-2
        )
        records = self.watch(monkeypatch)
        cached = []
        real_member = lp_solver._Pool.member

        def member(pool, column):
            found = real_member(pool, column)
            cached.append(found is not None)
            return found

        monkeypatch.setattr(lp_solver._Pool, "member", member)
        sol = solve(grid.as_lp())
        assert sol.status == "optimal"
        phases = [phase for phase, _, _ in records]
        assert phases[0] == 1 and phases[-1] == 2
        assert sum(cached) > 0  # entering columns came from the pool's cache

    def test_pool_member_is_the_cached_column(self):
        matrix = np.arange(12.0).reshape(2, 6)
        p = dense(np.arange(6.0), matrix, [RangeRow(0.0, 1.0)] * 2)
        pool = lp_solver._Pool(p, 2)
        pool.add([4, 1])
        pool.add([5, 0, 1])
        for column in (0, 1, 4, 5):
            col, cost = pool.member(column)
            assert np.array_equal(col, matrix[:, column])
            assert cost == column
        assert pool.member(2) is None
        assert pool.member(6) is None

    def test_singular_basis_raises_estimation_error(self):
        p = dense([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [RangeRow(0.0, 1.0)] * 2)
        s = lp_solver._Simplex(p, 1e-9)
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
            RangeRow(r.lower + step, r.upper + step) if isinstance(r, RangeRow) else r
            for r, step in zip(rows, steps)
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
        problem = dense([0.0, -1e-17, 0.0], [[1.0, -1.0, -1.0]], [RangeRow(-2.0, -1.0)])
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
                assert price_columns(problem, warm.duals) is None
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
            problem = dense(objective, matrix, [RangeRow(-2.0, -1.0), *rows[1:]], seed=first.pool)
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
        two = dense([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0]], [RangeRow(1.0, 1.0), RangeRow(0.0, 1.0)])
        three = dense([1.0, 2.0], np.ones((3, 2)), [RangeRow(1.0, 1.0)] * 3)
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
        base = solve(build_problem(table, 8, **options).as_lp())
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
            assert price_columns(problem, warm.duals) is None
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
        assert warm_pivots < cold_pivots


class TestRelaxAndRetry:
    def test_schedule_validation(self):
        p = dense([1.0], [[1.0]], [RangeRow(0.0, 1.0)])
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
