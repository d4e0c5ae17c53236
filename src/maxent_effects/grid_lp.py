"""Discretization of the mixture-estimation problem onto a cube grid.

The estimand is a distribution over individual-level triples
(propensity, baseline risk, exposed risk) in the unit cube, one
distribution per covariate category.  Discretizing each axis into ``m``
equal bins and placing candidate mass only at bin centers turns maximum
entropy estimation into a linear program: each candidate cell contributes
its center's per-individual entropy to the objective, and its center's
joint outcome probabilities to the matching rows.

Rows, in fixed order:

* per category, four interval rows tying the weighted cell probabilities
  (unexposed-case, exposed-case, unexposed-noncase, exposed-noncase) to
  the observed joint frequencies, relaxed by ``epsilon`` on both sides;
  frequencies are normalized by the grand total, so per-category activity
  totals the category's population share;
* optionally one inequality row forcing the across-individual variance of
  the propensity (or of the expected risk) to reach the level implied by
  a target discrimination R-squared.

Columns are indexed ``((category * m + j) * m + k) * m + l`` where j, k, l
index the propensity, baseline-risk, and exposed-risk bins.  The grid is
stored once per m, shared by all categories and all tables, as a
``(6, m**3)`` coefficient matrix ``coef`` over the cells in (j, k, l)
order:

* rows 0-3: the center's four cell probabilities q (:func:`model.cell_probs`);
* row 4: ``pi**2``;
* row 5: ``r**2`` with ``r = q0 + q1 = (1-pi) r0 + pi r1``;

plus the vector ``entropy`` of the centers' entropies.  The table enters
only through ``fold``, a 6 x 6 matrix that is the identity on rows 0-3.
Since ``pi = q1 + q3``, ``r = q0 + q1`` and ``sum(q) = 1``, the variance
contributions are ``(pi - P(e=1))**2 = pi**2 - 2 P(e=1) (q1 + q3) +
P(e=1)**2 sum(q)`` and likewise for ``r`` with ``P(d=1)``, so ``fold @
coef[:, cell]`` holds the cell's exposure- and outcome-variance
contributions in rows 4-5.  Column ``(c, cell)`` is that folded column
spread onto LP rows ``row_index[c]``: category c's four frequency rows,
then the two variance rows.  An absent variance row points at index
``n_rows``, a padding slot that is never part of the LP, so pricing one
category's span is ``entropy[a:b] - (y_c @ fold) @ coef[:, a:b]`` with
``y_c`` the duals at ``row_index[c]`` (zero at the padding).  Memory is
about ``7 * 8 * m**3`` bytes regardless of how many categories or
problems there are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .closed_form import r2_to_variance_bound
from .errors import ParameterError
from .lp_solver import InequalityRow, LpProblem, LpSolution, RangeRow, row_bounds
from .model import PropensityPrognosisTriple, StratifiedTable, cell_entropy, cell_probs

__all__ = [
    "CubeGrid",
    "Atom",
    "DiscretizedProblem",
    "build_problem",
    "atoms_from_solution",
    "nearest_columns",
    "MAX_RESOLUTION",
    "MASS_FLOOR",
]

#: Largest grid resolution; the 6 coefficient rows and the entropy vector
#: at m=256 are ~940 MB.
MAX_RESOLUTION = 256

#: Solution masses below this are numerical noise, not atoms.
MASS_FLOOR = 1e-9


@dataclass(frozen=True)
class CubeGrid:
    """Uniform m x m x m grid over the open unit cube, cells at centers."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or isinstance(self.m, bool):
            raise ParameterError("grid resolution must be an integer")
        if not (1 <= self.m <= MAX_RESOLUTION):
            raise ParameterError(
                f"grid resolution must be in [1, {MAX_RESOLUTION}], got {self.m}"
            )

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.m) + 0.5) / self.m

    @property
    def n_cells(self) -> int:
        return self.m**3

    def ravel(self, j: int, k: int, l: int) -> int:
        return (j * self.m + k) * self.m + l

    def unravel(self, cell: int) -> tuple[int, int, int]:
        m = self.m
        return cell // (m * m), (cell // m) % m, cell % m


@dataclass(frozen=True)
class Atom:
    """One mass point of a discrete mixture, tagged with its grid cell."""

    category: int
    label: str
    j: int
    k: int
    l: int
    pi: float
    r0: float
    r1: float
    mass: float

    def triple(self) -> PropensityPrognosisTriple:
        return PropensityPrognosisTriple(self.pi, self.r0, self.r1)


@functools.lru_cache(maxsize=1)
def _grid_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(coef, entropy)`` of the m-grid (see the module
    docstring); only the last m asked for stays cached."""
    ctr = CubeGrid(m).centers
    coef = np.empty((6, m, m, m))
    pi = ctr[:, None, None]
    cell_probs(pi, ctr[None, :, None], ctr[None, None, :], out=coef[:4])
    coef[4] = pi**2
    np.square(np.add(coef[0], coef[1], out=coef[5]), out=coef[5])
    coef = coef.reshape(6, m**3)
    entropy = cell_entropy(coef[:4])
    coef.flags.writeable = entropy.flags.writeable = False
    return coef, entropy


class DiscretizedProblem:
    """The grid LP for one stratified table.

    Immutable once built; exposes the LP via :meth:`as_lp` and exact
    (non-discretized) row activities for arbitrary atom sets via
    :meth:`activities`, which is what residual reporting uses after
    cluster centroids move off the grid.  ``rows`` holds the row objects
    and ``lower``/``upper`` their bounds (:func:`lp_solver.row_bounds`).

    ``coef`` and ``entropy`` depend on m alone: every problem on one m
    shares the same read-only arrays, and the last-built grid stays
    cached, so building a problem on a known m costs O(rows).  The
    table's marginals enter through ``fold``.
    """

    def __init__(
        self,
        table: StratifiedTable,
        grid: CubeGrid,
        r2_propensity: float | None = None,
        r2_prognosis: float | None = None,
        epsilon: float = 1e-3,
    ):
        if not 0.0 <= epsilon < np.inf:
            raise ParameterError(f"epsilon must be finite and nonnegative, got {epsilon}")
        self.table = table
        self.grid = grid
        self.epsilon = float(epsilon)

        n = table.total
        d = table.n_categories
        self.rhs = table.counts_matrix() / n  # (d, 4), grand-total normalized
        pooled = table.pooled()
        self.marginal_exposure = (pooled.n11 + pooled.n10) / n
        self.marginal_outcome = (pooled.n01 + pooled.n11) / n

        rows: list[RangeRow | InequalityRow] = []
        for c in range(d):
            for cell in range(4):
                target = self.rhs[c, cell]
                rows.append(RangeRow(target - self.epsilon, target + self.epsilon))
        self.variance_row_exposure: int | None = None
        self.variance_row_outcome: int | None = None
        if r2_propensity is not None:
            variance_bound_exposure = r2_to_variance_bound(
                r2_propensity, self.marginal_exposure
            )
            self.variance_row_exposure = len(rows)
            rows.append(InequalityRow(variance_bound_exposure))
        if r2_prognosis is not None:
            variance_bound_outcome = r2_to_variance_bound(
                r2_prognosis, self.marginal_outcome
            )
            self.variance_row_outcome = len(rows)
            rows.append(InequalityRow(variance_bound_outcome))
        self.rows = tuple(rows)
        self.lower, self.upper = row_bounds(self.rows)
        self.n_columns = d * grid.n_cells

        # LP rows of each category's six coefficient rows; n_rows pads.
        self.row_index = np.full((d, 6), len(rows))
        self.row_index[:, :4] = 4 * np.arange(d)[:, None] + np.arange(4)
        if self.variance_row_exposure is not None:
            self.row_index[:, 4] = self.variance_row_exposure
        if self.variance_row_outcome is not None:
            self.row_index[:, 5] = self.variance_row_outcome

        self.coef, self.entropy = _grid_rows(grid.m)
        pe, pd = self.marginal_exposure, self.marginal_outcome
        self.fold = np.eye(6)
        self.fold[4, :4] = pe * pe - 2 * pe * np.array([0, 1, 0, 1])
        self.fold[5, :4] = pd * pd - 2 * pd * np.array([1, 1, 0, 0])

    def _coefficients(self, pi, r0, r1) -> np.ndarray:
        """The six coefficient rows of triples (pi, r0, r1), broadcast,
        with the variance rows evaluated directly rather than folded."""
        pi, r0, r1 = (np.asarray(x, dtype=float) for x in (pi, r0, r1))
        out = np.empty((6, *np.broadcast_shapes(pi.shape, r0.shape, r1.shape)))
        cell_probs(pi, r0, r1, out=out[:4])
        out[4] = (pi - self.marginal_exposure) ** 2
        out[5] = (out[0] + out[1] - self.marginal_outcome) ** 2
        return out

    # -- LP plumbing --------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def split_column(self, column: int) -> tuple[int, int, int, int]:
        """Global column index -> (category, j, k, l)."""
        if not (0 <= column < self.n_columns):
            raise ParameterError(f"column {column} out of range")
        category, cell = divmod(int(column), self.grid.n_cells)
        j, k, l = self.grid.unravel(cell)
        return category, j, k, l

    def _columns(self, idx: np.ndarray) -> np.ndarray:
        cats, cells = np.divmod(idx, self.grid.n_cells)
        out = np.zeros((self.n_rows + 1, idx.size))
        out[self.row_index[cats].T, np.arange(idx.size)] = self.fold @ self.coef[:, cells]
        return out[:-1]

    def _objective(self, idx: np.ndarray) -> np.ndarray:
        return self.entropy[idx % self.grid.n_cells]

    def _reduced_costs(
        self, duals: np.ndarray, start: int, stop: int, include_objective: bool = True
    ) -> np.ndarray:
        """Fast pricing over [start, stop): ``entropy - (y_c @ fold) @ coef``
        per category."""
        n_cells = self.grid.n_cells
        padded = np.append(duals, 0.0)
        rc = np.empty(stop - start)
        for c in range(start // n_cells, (stop - 1) // n_cells + 1):
            lo = max(start, c * n_cells)
            hi = min(stop, (c + 1) * n_cells)
            a, b = lo - c * n_cells, hi - c * n_cells
            seg = rc[lo - start : hi - start]
            np.matmul(padded[self.row_index[c]] @ self.fold, self.coef[:, a:b], out=seg)
            if include_objective:
                np.subtract(self.entropy[a:b], seg, out=seg)
            else:
                np.negative(seg, out=seg)
        return rc

    def as_lp(self) -> LpProblem:
        return LpProblem(
            self.rows,
            self.n_columns,
            columns_fn=self._columns,
            objective_fn=self._objective,
            reduced_cost_fn=self._reduced_costs,
        )

    # -- exact evaluation of arbitrary atom sets ----------------------

    def activities(self, atoms) -> np.ndarray:
        """Row activities of an atom set, evaluated without discretization.

        Accepts any iterable of objects with category, pi, r0, r1, mass
        attributes, on or off the grid.
        """
        cats, pi, r0, r1, mass = self._atom_arrays(atoms)
        act = np.zeros(self.n_rows + 1)
        # unbuffered: each row sums its atoms in order, as a loop would
        np.add.at(act, self.row_index[cats].T, mass * self._coefficients(pi, r0, r1))
        return act[:-1]

    def residuals(self, activities: np.ndarray) -> np.ndarray:
        """Per-row constraint violation (0 where satisfied)."""
        activities = np.asarray(activities, dtype=float)
        if activities.shape != (self.n_rows,):
            raise ParameterError("activity vector length must equal the row count")
        excess = np.maximum(self.lower - activities, activities - self.upper)
        return np.maximum(excess, 0.0)

    def entropy_of(self, atoms) -> float:
        """Mass-weighted per-individual entropy of an atom set."""
        _, pi, r0, r1, mass = self._atom_arrays(atoms)
        return float(mass @ cell_entropy(cell_probs(pi, r0, r1)))

    def _atom_arrays(self, atoms):
        """(category, pi, r0, r1, mass) columns of an atom set, validated."""
        fields = np.array(
            [(a.category, a.pi, a.r0, a.r1, a.mass) for a in atoms], dtype=float
        ).reshape(-1, 5)
        cats = fields[:, 0].astype(np.int64)
        bad = (cats < 0) | (cats >= self.table.n_categories)
        if bad.any():
            raise ParameterError(f"atom category {cats[bad][0]} out of range")
        return (cats, *fields[:, 1:].T)


def build_problem(
    table: StratifiedTable,
    m: int,
    r2_propensity: float | None = None,
    r2_prognosis: float | None = None,
    epsilon: float = 1e-3,
) -> DiscretizedProblem:
    """Discretize a stratified table onto an m-resolution cube grid."""
    return DiscretizedProblem(
        table,
        CubeGrid(m),
        r2_propensity=r2_propensity,
        r2_prognosis=r2_prognosis,
        epsilon=epsilon,
    )


def atoms_from_solution(
    problem: DiscretizedProblem,
    solution: LpSolution,
    mass_floor: float = MASS_FLOOR,
) -> tuple[Atom, ...]:
    """Decode LP columns into grid atoms, dropping numerical-noise masses."""
    atoms = []
    labels = problem.table.labels
    centers = problem.grid.centers
    for col, mass in zip(solution.columns, solution.masses):
        if mass < mass_floor:
            continue
        category, j, k, l = problem.split_column(int(col))
        atoms.append(
            Atom(
                category=category,
                label=labels[category],
                j=j,
                k=k,
                l=l,
                pi=float(centers[j]),
                r0=float(centers[k]),
                r1=float(centers[l]),
                mass=float(mass),
            )
        )
    return tuple(atoms)


def nearest_columns(columns, m_from: int, m_to: int) -> np.ndarray:
    """Columns of an m_from-grid problem moved to the nearest cells of an
    m_to grid: each axis index j becomes ``floor((j + 0.5) * m_to / m_from)``
    and the category is kept.  Returns sorted unique column ids, say to
    seed the pool of a solve at the new resolution."""
    old, new = CubeGrid(m_from), CubeGrid(m_to)
    cats, cells = np.divmod(np.asarray(columns, dtype=np.int64), old.n_cells)
    j, k, l = ((2 * axis + 1) * m_to // (2 * m_from) for axis in old.unravel(cells))
    return np.unique(cats * new.n_cells + new.ravel(j, k, l))
