"""Cube discretization: rows, columns, pricing, and transfer guarantees."""

import math

import numpy as np
import pytest

from maxent_effects import lp_solver
from maxent_effects.closed_form import r2_to_variance_bound, solve_homogeneous
from maxent_effects.cli import main
from maxent_effects.datasets import marginal_table, stratified_table
from maxent_effects.errors import ParameterError
from maxent_effects.grid_lp import (
    MASS_FLOOR,
    MAX_RESOLUTION,
    Atom,
    CubeGrid,
    DiscretizedProblem,
    atoms_from_solution,
    build_problem,
    mean_atoms,
)
from maxent_effects.lp_solver import LpProblem, LpSolution, solve
from maxent_effects.model import (
    StratifiedTable,
    cell_entropy,
    cell_probs,
    entropy,
    joint_probs,
)

RNG_SEED = 7261

# single category whose exact solution triple (0.45, 0.25, 0.65) lies on
# the centers of every grid with m divisible by 10
TABLE_A = StratifiedTable.from_counts({"a": (55, 117, 165, 63)})

# two categories, exact triples (0.45, 0.25, 0.65) and (0.35, 0.15, 0.55)
TABLE_B = StratifiedTable.from_counts(
    {"a": (55, 117, 165, 63), "b": (39, 77, 221, 63)}
)


def snap_atom(problem, triple, category=0, mass=1.0):
    m = problem.grid.m
    j, k, l = (min(int(x * m), m - 1) for x in triple.as_tuple())
    centers = problem.grid.centers
    return Atom(
        category=category,
        label=problem.table.labels[category],
        j=j,
        k=k,
        l=l,
        pi=float(centers[j]),
        r0=float(centers[k]),
        r1=float(centers[l]),
        mass=mass,
    )


class TestCubeGrid:
    def test_centers_and_width(self):
        g = CubeGrid(4)
        assert g.centers == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert np.diff(g.centers) == pytest.approx([0.25] * 3)  # width 1/m
        assert g.n_cells == 64

    def test_ravel_round_trip(self):
        rng = np.random.default_rng(RNG_SEED)
        g = CubeGrid(13)
        for _ in range(200):
            j, k, l = (int(v) for v in rng.integers(0, 13, size=3))
            assert g.unravel(g.ravel(j, k, l)) == (j, k, l)

    def test_validation(self):
        with pytest.raises(ParameterError):
            CubeGrid(0)
        with pytest.raises(ParameterError):
            CubeGrid(MAX_RESOLUTION + 1)
        with pytest.raises(ParameterError):
            CubeGrid(2.5)
        with pytest.raises(ParameterError):
            CubeGrid(True)


class TestBlockSeed:
    """An unconstrained problem seeds its LP's pool with each category's
    2 x 2 x 2 cell block around its continuum point."""

    @staticmethod
    def assert_blocks(problem):
        """Every seed id is a column of the grid, and each category holds
        between 1 and 8 of them."""
        seed = problem.seed
        n_cells = problem.grid.n_cells
        assert seed.dtype == np.int64 and np.array_equal(seed, np.unique(seed))
        assert seed.min() >= 0 and seed.max() < problem.n_columns
        per_category = np.bincount(seed // n_cells, minlength=problem.table.n_categories)
        assert per_category.size == problem.table.n_categories
        assert np.all((1 <= per_category) & (per_category <= 8))
        return seed

    @pytest.mark.parametrize("m", (25, 50, 75))
    @pytest.mark.parametrize(
        "table, epsilon",
        [(stratified_table, 1.5e-3), (marginal_table, 1e-3)],
        ids=["table1", "table2"],
    )
    def test_optimal_support_lies_in_the_seed(self, table, epsilon, m):
        problem = build_problem(table(), m, epsilon=epsilon)
        seed = self.assert_blocks(problem)
        assert seed.size == 8 * problem.table.n_categories
        sol = solve(problem)
        assert sol.status == "optimal"
        assert set(sol.columns.tolist()) <= set(seed.tolist())

    def test_block_surrounds_the_continuum_point(self):
        # TABLE_B's exact triples, (0.45, 0.25, 0.65) and (0.35, 0.15, 0.55),
        # lie on bin edges at m = 20, halfway between two centers per axis
        problem = build_problem(TABLE_B, 20, epsilon=0.0)
        grid = problem.grid
        expected = [
            c * grid.n_cells + grid.ravel(j + dj, k + dk, l + dl)
            for c, (j, k, l) in enumerate([(8, 4, 12), (6, 2, 10)])
            for dj in (0, 1)
            for dk in (0, 1)
            for dl in (0, 1)
        ]
        assert problem.seed.tolist() == expected

    @pytest.mark.parametrize(
        "options",
        [dict(r2_propensity=0.1), dict(r2_prognosis=0.05), dict(r2_propensity=0.1, r2_prognosis=0.05)],
        ids=["exposure", "outcome", "both"],
    )
    def test_r2_problem_has_no_seed(self, options):
        assert build_problem(TABLE_B, 10, **options).seed.size == 0

    @pytest.mark.parametrize("m", (1, 2))
    def test_tiny_grids(self, m):
        seed = self.assert_blocks(build_problem(TABLE_B, m))
        assert seed.size == 2 * min(m, 2) ** 3

    @pytest.mark.parametrize(
        "counts",
        [(30, 0, 70, 0), (0, 30, 0, 70)],
        ids=["nobody-exposed", "everybody-exposed"],
    )
    def test_one_arm_empty_at_zero_epsilon(self, counts, tmp_path, capsys):
        table = StratifiedTable.from_counts({"a": (55, 117, 165, 63), "b": counts})
        for m in (1, 2, 10):
            self.assert_blocks(build_problem(table, m, epsilon=0.0))
        path = tmp_path / "table.csv"
        rows = [
            f"{label},{e},{d},{n}"
            for label, cells in (("a", (55, 117, 165, 63)), ("b", counts))
            for (e, d), n in zip(((0, 1), (1, 1), (0, 0), (1, 0)), cells)
        ]
        path.write_text("category,exposure,outcome,count\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        for m in ("2", "10"):
            code = main(["estimate", "--input", str(path), "--m", m, "--epsilon", "0",
                         "--json-out", str(tmp_path / "report.json")])
            assert code in (0, 2), capsys.readouterr().err


class TestProblemAssembly:
    def test_problem_is_its_own_lp(self, monkeypatch):
        checked = []
        real = lp_solver.check_bounds

        def check_bounds(lower, upper):
            checked.append(len(lower))
            return real(lower, upper)

        monkeypatch.setattr(lp_solver, "check_bounds", check_bounds)
        for options in ({}, {"r2_propensity": 0.05, "r2_prognosis": 0.02}):
            checked.clear()
            p = build_problem(TABLE_B, 5, **options)
            assert isinstance(p, LpProblem) and p.as_lp() is p
            assert checked == [p.n_rows]  # bounds validated once per problem
            assert solve(p).status == "optimal"
            assert checked == [p.n_rows]  # and not again by the solve

    def test_row_layout_and_bounds(self):
        eps = 1e-3
        p = build_problem(TABLE_B, 10, epsilon=eps)
        assert p.n_rows == 8
        n = TABLE_B.total
        targets = TABLE_B.counts_matrix() / n
        for c in range(2):
            for cell in range(4):
                i = p.row_index[c, cell]
                assert i == 4 * c + cell
                assert p.lower[i] == pytest.approx(targets[c, cell] - eps, abs=1e-15)
                assert p.upper[i] == pytest.approx(targets[c, cell] + eps, abs=1e-15)
        assert (p.row_index[:, 4:] == p.n_rows).all()  # no variance row: the padding slot

    def test_variance_rows_appended(self):
        p = build_problem(TABLE_B, 10, r2_propensity=0.05, r2_prognosis=0.02)
        assert p.n_rows == 10
        assert (p.row_index[:, 4] == 8).all()
        assert (p.row_index[:, 5] == 9).all()
        assert p.marginal_exposure == pytest.approx(0.4)
        assert p.marginal_outcome == pytest.approx(0.36)
        assert np.isinf(p.upper[8:]).all()  # inequality rows
        assert p.lower[8] == pytest.approx(r2_to_variance_bound(0.05, 0.4), abs=1e-15)
        assert p.lower[9] == pytest.approx(r2_to_variance_bound(0.02, 0.36), abs=1e-15)
        # the outcome row alone takes row 8; the absent exposure row pads
        p = build_problem(TABLE_B, 10, r2_prognosis=0.02)
        assert p.n_rows == 9 and p.row_index[:, 4:].tolist() == [[9, 8], [9, 8]]

    def test_column_count_and_split_round_trip(self):
        p = build_problem(TABLE_B, 7)
        assert p.n_columns == 2 * 343
        rng = np.random.default_rng(RNG_SEED + 1)
        cols = rng.integers(0, p.n_columns, size=100)
        for col, c, j, k, l in zip(cols, *p.cells(cols)):
            assert c * p.grid.n_cells + p.grid.ravel(j, k, l) == int(col)
        # an id outside [0, n_columns) raises, in the LP's columns and
        # objective too, rather than wrapping round to another cell
        for outside in (p.n_columns, -1):
            for decode in (p.cells, p.columns, p.objective):
                with pytest.raises(ParameterError):
                    decode(np.array([0, outside]))

    def test_column_coefficients_match_center_formulas(self):
        p = build_problem(TABLE_B, 5)
        pv = build_problem(TABLE_B, 5, r2_propensity=0.05, r2_prognosis=0.02)
        rng = np.random.default_rng(RNG_SEED + 2)
        cols = rng.integers(0, p.n_columns, size=20)
        block = p.columns(cols)
        variance_block = pv.columns(cols)
        pe, pd = pv.marginal_exposure, pv.marginal_outcome
        for pos, (c, j, k, l) in enumerate(zip(*p.cells(cols))):
            pi, r0, r1 = (x / 5 + 0.1 for x in (j, k, l))
            expected = np.zeros(p.n_rows)
            expected[4 * c + 0] = (1 - pi) * r0
            expected[4 * c + 1] = pi * r1
            expected[4 * c + 2] = (1 - pi) * (1 - r0)
            expected[4 * c + 3] = pi * (1 - r1)
            assert block[:, pos] == pytest.approx(expected, abs=1e-12)
            # the variance rows against the formulas of their definition
            assert variance_block[:8, pos] == pytest.approx(expected, abs=1e-12)
            assert abs(variance_block[8, pos] - (pi - pe) ** 2) <= 1e-15
            risk = (1 - pi) * r0 + pi * r1
            assert abs(variance_block[9, pos] - (risk - pd) ** 2) <= 1e-15

    def test_objective_is_cell_entropy(self):
        p = build_problem(TABLE_A, 6)
        rng = np.random.default_rng(RNG_SEED + 3)
        cols = rng.integers(0, p.n_columns, size=30)
        values = p.objective(cols)
        centers = p.grid.centers
        for pos, (_, j, k, l) in enumerate(zip(*p.cells(cols))):
            t = Atom(0, "a", j, k, l, centers[j], centers[k], centers[l], 1.0).triple()
            assert values[pos] == pytest.approx(entropy(t), abs=1e-12)

    def test_fast_pricing_matches_generic(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        # both variance rows, only the outcome row, and none
        for r2 in ({"r2_propensity": 0.05, "r2_prognosis": 0.02},
                   {"r2_prognosis": 0.02}, {}):
            p = build_problem(TABLE_B, 6, **r2)
            random_duals = rng.normal(size=p.n_rows)
            sparse_duals = random_duals.copy()
            sparse_duals[[1, 4, 5, p.n_rows - 1]] = 0.0  # exact zeros
            # span crossing the category boundary at 216
            start, stop = 150, 350
            idx = np.arange(start, stop)
            for duals in (random_duals, sparse_duals, np.zeros(p.n_rows)):
                for include in (True, False):
                    fast = p._reduced_costs(duals, start, stop, include, np.empty(stop - start))
                    generic = -(duals @ p._columns(idx))
                    if include:
                        generic = generic + p._objective(idx)
                    assert fast == pytest.approx(generic, abs=1e-12)

    def test_scan_prices_every_column_by_the_direct_formula(self, monkeypatch):
        # chunks of 100 columns cut the 49-column j-slices and the
        # 343-column categories at shifting offsets
        monkeypatch.setattr(lp_solver, "PRICE_CHUNK", 100)
        chunks = []
        real = LpProblem.reduced_costs

        def record(self, duals, start, stop, include_objective=True, out=None):
            out.fill(np.nan)  # an entry the kernel leaves unwritten shows as NaN
            rc = real(self, duals, start, stop, include_objective, out=out)
            assert rc is out
            chunks.append(rc.copy())
            return rc

        monkeypatch.setattr(LpProblem, "reduced_costs", record)
        rng = np.random.default_rng(RNG_SEED + 5)
        for r2 in ({}, {"r2_prognosis": 0.02}, {"r2_propensity": 0.05},
                   {"r2_propensity": 0.05, "r2_prognosis": 0.02}):
            p = build_problem(TABLE_B, 7, epsilon=0.01, **r2)
            # O(m**2) state: at most the ten m x m pricing tables per array
            for value in vars(p).values():
                assert not (isinstance(value, np.ndarray) and value.size > 10 * 7**2)
            idx = np.arange(p.n_columns)
            cats, cells = np.divmod(idx, p.grid.n_cells)
            pi, r0, r1 = (p.grid.centers[axis] for axis in p.grid.unravel(cells))
            coefficients = p._coefficients(pi, r0, r1)
            entropies = cell_entropy(cell_probs(pi, r0, r1))
            for duals in (rng.normal(size=p.n_rows), np.zeros(p.n_rows)):
                y = np.append(duals, 0.0)[p.row_index[cats]].T
                for include in (True, False):
                    chunks.clear()
                    lp_solver.price_columns(p, duals, include_objective=include)
                    priced = np.concatenate(chunks)
                    expected = (entropies if include else 0.0) - (y * coefficients).sum(axis=0)
                    assert priced.shape == expected.shape
                    assert np.abs(priced - expected).max() <= 1e-13
        large = build_problem(TABLE_B, 25, r2_propensity=0.05, r2_prognosis=0.02)
        for value in vars(large).values():
            assert not (isinstance(value, np.ndarray) and value.size >= 25**3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            build_problem(TABLE_A, 10, epsilon=-1e-9)
        for eps in (np.inf, np.nan):
            with pytest.raises(ParameterError, match="epsilon"):
                build_problem(TABLE_A, 10, epsilon=eps)
        with pytest.raises(ParameterError):
            build_problem(TABLE_A, 0)


class TestFeasibilityTransfer:
    def test_exact_table_solves_to_closed_form(self):
        # zero slack, solution triple on the grid: the LP must find the
        # single-cell optimum and tie the analytic entropy
        p = build_problem(TABLE_A, 10, epsilon=0.0)
        sol = solve(p)
        assert sol.status == "optimal"
        reference = solve_homogeneous(joint_probs(TABLE_A))
        assert sol.objective == pytest.approx(
            reference.entropy_per_individual, abs=1e-9
        )
        atoms = atoms_from_solution(p, sol)
        assert len(atoms) == 1
        atom = atoms[0]
        assert (atom.j, atom.k, atom.l) == (4, 2, 6)
        assert atom.mass == pytest.approx(1.0, abs=1e-9)

    def test_snapped_solution_residual_shrinks_with_m(self):
        table = marginal_table()
        triple = solve_homogeneous(joint_probs(table)).triple
        for m in (10, 20, 40, 80):
            p = build_problem(table, m, epsilon=0.0)
            atom = snap_atom(p, triple)
            residual = p.residuals(p.activities([atom])).max()
            assert residual <= 1.5 / m

    def test_on_center_snap_is_exact(self):
        p = build_problem(TABLE_A, 10, epsilon=0.0)
        triple = solve_homogeneous(joint_probs(TABLE_A)).triple
        atom = snap_atom(p, triple)
        assert p.residuals(p.activities([atom])).max() <= 1e-12


class TestOptimumStructure:
    def test_nested_grid_monotone(self):
        # centers of the m-grid are a subset of the 3m-grid's centers, so
        # every coarse solution stays available and the optimum cannot drop
        table = StratifiedTable.from_counts({"x": (13.0, 37.0, 61.0, 23.0)})
        entropies = {}
        for m in (6, 18):
            sol = solve(build_problem(table, m, epsilon=1e-3))
            assert sol.status == "optimal"
            entropies[m] = sol.objective
        assert entropies[18] >= entropies[6] - 1e-12

    def test_bounded_by_closed_form_plus_slack_allowance(self):
        # relaxing each cell by eps can lift the optimum by at most
        # 4 h(eps) + 8 eps per category (entropy modulus of continuity)
        table = marginal_table()
        eps = 1e-3
        sol = solve(build_problem(table, 45, epsilon=eps))
        assert sol.status == "optimal"
        reference = solve_homogeneous(joint_probs(table)).entropy_per_individual
        allowance = 4 * (-eps * math.log(eps)) + 8 * eps
        assert sol.objective <= reference + allowance + 1e-9

    def test_variance_rows_never_raise_entropy(self):
        plain = solve(build_problem(TABLE_B, 10, epsilon=1e-3))
        constrained_problem = build_problem(
            TABLE_B, 10, r2_propensity=0.05, r2_prognosis=0.02, epsilon=1e-3
        )
        constrained = solve(constrained_problem)
        assert plain.status == constrained.status == "optimal"
        assert constrained.objective <= plain.objective + 1e-9
        # the reported vertex satisfies the variance rows when recomputed
        atoms = atoms_from_solution(constrained_problem, constrained)
        residuals = constrained_problem.residuals(constrained_problem.activities(atoms))
        assert residuals.max() <= 1e-8

    def test_infeasible_when_grid_cannot_reach_targets(self):
        # baseline risk 0.0189 is below the smallest m=10 center 0.05 and
        # the tiny slack cannot bridge the gap
        sol = solve(build_problem(marginal_table(), 10, epsilon=1e-6))
        assert sol.status == "infeasible"
        assert sol.infeasible_rows

    def test_exposure_swap_maps_exact_solution(self):
        # zero slack pins the unique point-mass optimum per category, so
        # the swapped vertex is exactly the mirrored one
        m = 10
        base_problem = build_problem(TABLE_B, m, epsilon=0.0)
        swapped_problem = build_problem(TABLE_B.swap_exposure(), m, epsilon=0.0)
        base = solve(base_problem)
        swapped = solve(swapped_problem)
        assert base.status == swapped.status == "optimal"
        assert swapped.objective == pytest.approx(base.objective, abs=1e-9)
        base_atoms = {
            (a.category, a.j, a.k, a.l): a.mass
            for a in atoms_from_solution(base_problem, base)
        }
        swapped_atoms = {
            (a.category, m - 1 - a.j, a.l, a.k): a.mass
            for a in atoms_from_solution(swapped_problem, swapped)
        }
        assert set(base_atoms) == set(swapped_atoms)
        for key, mass in base_atoms.items():
            assert swapped_atoms[key] == pytest.approx(mass, abs=1e-6)

    def test_exposure_swap_preserves_optimum_off_grid(self):
        # blend solutions admit mirrored alternative vertices, so only the
        # objective and per-category aggregates are pinned at atom level
        m = 25
        table = marginal_table()
        base_problem = build_problem(table, m, epsilon=1e-3)
        swapped_problem = build_problem(table.swap_exposure(), m, epsilon=1e-3)
        base = solve(base_problem)
        swapped = solve(swapped_problem)
        assert base.status == swapped.status == "optimal"
        assert swapped.objective == pytest.approx(base.objective, abs=1e-9)
        base_atoms = atoms_from_solution(base_problem, base)
        swapped_atoms = atoms_from_solution(swapped_problem, swapped)
        mass_b = sum(a.mass for a in base_atoms)
        mass_s = sum(a.mass for a in swapped_atoms)
        assert mass_s == pytest.approx(mass_b, abs=1e-9)
        mean_pi_b = sum(a.mass * a.pi for a in base_atoms) / mass_b
        mean_pi_s = sum(a.mass * (1 - a.pi) for a in swapped_atoms) / mass_s
        assert mean_pi_s == pytest.approx(mean_pi_b, abs=2.0 / m)


class TestAtomsAndEvaluation:
    def test_mass_floor_drops_noise(self):
        p = build_problem(TABLE_A, 10)
        fake = LpSolution(
            status="optimal",
            columns=np.array([5, 426]),
            masses=np.array([MASS_FLOOR / 10, 0.5]),
            objective=0.0,
            row_activity=np.zeros(p.n_rows),
            duals=np.zeros(p.n_rows),
            iterations=0,
            pool=np.array([5, 426]),
        )
        atoms = atoms_from_solution(p, fake)
        assert len(atoms) == 1
        assert atoms[0].mass == 0.5
        assert (atoms[0].j, atoms[0].k, atoms[0].l) == p.grid.unravel(426)
        assert atoms[0].label == "a"
        # a mean of two solutions: each drops its own noise, then every id
        # sums its masses at weight 1/2
        pooled = mean_atoms(p, [(np.array([5, 426]), np.array([0.5, 0.5])),
                                (fake.columns, fake.masses)])
        assert [(a.j, a.k, a.l, a.mass) for a in pooled] == [
            (*p.grid.unravel(5), 0.25), (*p.grid.unravel(426), 0.5)
        ]

    def test_mean_atoms_rejects_no_solutions(self):
        with pytest.raises(ParameterError, match="at least one solution"):
            mean_atoms(build_problem(TABLE_A, 10), [])

    def test_mean_atoms_rejects_unequal_columns_and_masses(self):
        ids = np.array([5, 426])
        pairs = [(ids, np.array([0.5, 0.5])), (ids, np.array([0.5]))]
        with pytest.raises(ParameterError, match="same shape"):
            mean_atoms(build_problem(TABLE_A, 10), pairs)

    def test_activities_match_manual_computation(self):
        p = build_problem(TABLE_B, 10, r2_propensity=0.05, r2_prognosis=0.02)
        atoms = [
            Atom(0, "a", 0, 0, 0, 0.41, 0.21, 0.63, 0.3),
            Atom(1, "b", 0, 0, 0, 0.37, 0.12, 0.52, 0.5),
            Atom(0, "a", 0, 0, 0, 0.93, 0.07, 0.18, 0.2),
        ]
        act = p.activities(atoms)
        manual = np.zeros(p.n_rows)
        for atom in atoms:
            c, w = atom.category, atom.mass
            manual[4 * c + 0] += w * (1 - atom.pi) * atom.r0
            manual[4 * c + 1] += w * atom.pi * atom.r1
            manual[4 * c + 2] += w * (1 - atom.pi) * (1 - atom.r0)
            manual[4 * c + 3] += w * atom.pi * (1 - atom.r1)
        assert act[:8] == pytest.approx(manual[:8], abs=1e-15)
        var_e = sum(a.mass * (a.pi - p.marginal_exposure) ** 2 for a in atoms)
        assert act[8] == pytest.approx(var_e, abs=1e-15)
        risk = lambda a: (1 - a.pi) * a.r0 + a.pi * a.r1
        var_d = sum(a.mass * (risk(a) - p.marginal_outcome) ** 2 for a in atoms)
        assert act[9] == pytest.approx(var_d, abs=1e-15)

    def test_activities_reject_bad_category(self):
        p = build_problem(TABLE_A, 10)
        with pytest.raises(ParameterError):
            p.activities([Atom(3, "x", 0, 0, 0, 0.5, 0.5, 0.5, 1.0)])

    def test_residual_semantics(self):
        p = build_problem(TABLE_A, 10, r2_propensity=0.05)
        act = np.zeros(p.n_rows)
        res = p.residuals(act)
        for i, (lower, upper) in enumerate(zip(p.lower, p.upper)):
            if np.isfinite(upper):
                assert res[i] == pytest.approx(max(lower, 0.0), abs=1e-15)
            else:  # an inequality row
                assert res[i] == pytest.approx(lower, abs=1e-15)
        res = p.residuals(np.ones(p.n_rows))
        for i, (lower, upper) in enumerate(zip(p.lower, p.upper)):
            if np.isfinite(upper):
                assert res[i] == pytest.approx(1.0 - upper, abs=1e-15)
            else:
                assert res[i] == pytest.approx(max(lower - 1.0, 0.0), abs=1e-15)
        with pytest.raises(ParameterError):
            p.residuals(np.zeros(3))

    def test_entropy_of_matches_model_entropy(self):
        p = build_problem(TABLE_A, 10)
        atoms = [
            Atom(0, "a", 0, 0, 0, 0.41, 0.21, 0.63, 0.3),
            Atom(0, "a", 0, 0, 0, 0.11, 0.02, 0.16, 0.7),
        ]
        manual = sum(a.mass * entropy(a.triple()) for a in atoms)
        assert p.entropy_of(atoms) == pytest.approx(manual, abs=1e-12)
