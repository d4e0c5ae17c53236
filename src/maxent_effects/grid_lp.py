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
index the propensity, baseline-risk, and exposed-risk bins.  A column is
one triple ``(pi, r0, r1)`` of bin centers; its cells are ``a = (1-pi)
r0``, ``b = pi r1``, ``(1-pi) - a`` and ``pi - b``, its expected risk is
``r = a + b``, and by the chain rule of entropy (Cover & Thomas,
*Elements of Information Theory*, 2nd ed., 2.5) its objective is

    H = h(pi) + (1-pi) h(r0) + pi h(r1),

with ``h`` the binary entropy.  Pricing a column of category c against
duals ``y`` at ``row_index[c]`` (category c's four frequency rows, then
the two variance rows; an absent variance row points at index
``n_rows``, a padding slot whose dual is 0) therefore separates along the
grid axes, because ``(r - P(d=1))**2 = (a - P(d=1))**2 + 2 (a - P(d=1)) b
+ b**2``:

    P[j, k] = h(pi) + (1-pi) h(r0)
              - [(y0 - y2) a + y2 (1-pi) + y4 (pi - P(e=1))**2 + y5 (a - P(d=1))**2]
    Q[j, l] = pi h(r1) - [(y1 - y3) b + y3 pi + y5 b**2]
    rc[j, k, l] = P[j, k] + Q[j, l] - 2 y5 (a[j, k] - P(d=1)) b[j, l]

(without the entropy terms in phase one).  P, Q and the cross factor are
weighted sums of ten m x m tables of the grid, which are all a problem
keeps: nothing it holds has m**3 entries.  Each j-slice of m x m reduced
costs is the rank-3 product ``[P, 1, -2 y5 (a - P(d=1))] @ [1; Q; b]``,
whose cross row is zero when ``y5 = 0``.  Pricing a span of columns
weights the tables of the j-slices it touches only, fills the slices it
covers whole with one batched product written straight into the output,
and computes the rows it needs of the at most two slices it cuts.  The
objective of a column (:meth:`DiscretizedProblem.objective`) comes from
the same tables; its LP coefficients (:meth:`DiscretizedProblem.columns`),
like :meth:`DiscretizedProblem.activities`, from the direct formula
(:meth:`DiscretizedProblem._coefficients`).  Both take any sequence of
integer column ids.  :func:`build_problem` is :class:`DiscretizedProblem`
itself, under the name the pipeline calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import r2_to_variance_bound
from .errors import ParameterError
from .lp_solver import LpProblem, LpSolution, _sorted_unique
from .model import PropensityPrognosisTriple, StratifiedTable, cell_entropy, cell_probs

__all__ = [
    "CubeGrid",
    "Atom",
    "DiscretizedProblem",
    "build_problem",
    "atoms_from_solution",
    "mean_atoms",
    "MAX_RESOLUTION",
    "MASS_FLOOR",
]

#: Largest grid resolution.  A problem holds only m x m tables (5 MB at
#: m=256), but its LP has m**3 columns per category (16.8 million at 256),
#: which every full pricing scan visits.
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


class DiscretizedProblem(LpProblem):
    """The grid LP of one stratified table on an m-resolution cube grid,
    which the solver takes as is; :func:`build_problem` is this class.

    Immutable once built.  The resolution ``m`` is validated (by
    :class:`CubeGrid`) before ``epsilon``, the relaxation of the frequency
    rows.  Its pricing pool is seeded with
    :meth:`_block_cells` when it has no variance row; a binding variance
    row spreads the optimum beyond those blocks, so such a problem has no
    seed.  Exact (non-discretized) row activities for arbitrary atom sets
    come from :meth:`activities`, which is what residual reporting uses
    after cluster centroids move off the grid.  Three arrays describe the
    rows: their bounds ``lower`` and ``upper`` (``upper = +inf`` for a
    variance floor), and ``row_index``, whose row c holds the LP rows of
    category c's six coefficient rows (``n_rows`` for an absent variance
    row).
    Pricing and the objective come from ten m x m tables of the grid (see
    the module docstring), so building a problem costs O(m**2).
    """

    def __init__(
        self,
        table: StratifiedTable,
        m: int,
        r2_propensity: float | None = None,
        r2_prognosis: float | None = None,
        epsilon: float = 1e-3,
    ):
        self.grid = grid = CubeGrid(m)
        if not 0.0 <= epsilon < np.inf:
            raise ParameterError(f"epsilon must be finite and nonnegative, got {epsilon}")
        self.table = table
        self.epsilon = float(epsilon)

        n = table.total
        d = table.n_categories
        targets = table.counts_matrix().ravel() / n  # grand-total normalized
        pooled = table.pooled()
        self.marginal_exposure = (pooled.n11 + pooled.n10) / n
        self.marginal_outcome = (pooled.n01 + pooled.n11) / n

        # each category's four frequency rows, then the variance floors asked
        # for, keyed by their coefficient row (see _coefficients)
        floors = {
            row: r2_to_variance_bound(r2, marginal)
            for row, r2, marginal in (
                (4, r2_propensity, self.marginal_exposure),
                (5, r2_prognosis, self.marginal_outcome),
            )
            if r2 is not None
        }
        super().__init__(
            np.concatenate([targets - self.epsilon, list(floors.values())]),
            np.concatenate([targets + self.epsilon, np.full(len(floors), np.inf)]),
            d * grid.n_cells,
        )
        if not floors:  # the block cells need the bounds validated first
            self.seed = _sorted_unique(self._block_cells())

        # LP rows of each category's six coefficient rows; n_rows pads.
        self.row_index = np.full((d, 6), self.n_rows)
        self.row_index[:, :4] = np.arange(4 * d).reshape(d, 4)
        self.row_index[:, list(floors)] = 4 * d + np.arange(len(floors))

        # the ten m x m tables of the separable reduced cost, indexed [j, k]
        # or [j, l]: P's five, Q's four and the cross factor, in the order
        # of the weights in _price_span
        ctr = grid.centers
        pi, rest = ctr[:, None], 1.0 - ctr[:, None]
        h = cell_entropy(np.stack([ctr, 1.0 - ctr]))  # binary entropy
        a, b = cell_probs(pi, ctr, ctr)[:2]  # (1-pi) r0 and pi r1
        a_dev = a - self.marginal_outcome
        ones = np.ones(grid.m)
        self._tables = np.stack([
            h[:, None] + rest * h, a, rest * ones,
            (pi - self.marginal_exposure) ** 2 * ones, a_dev * a_dev,
            pi * h, b, pi * ones, b * b,
            -2.0 * a_dev,
        ])

    def _coefficients(self, pi, r0, r1) -> np.ndarray:
        """The six coefficient rows of triples (pi, r0, r1), broadcast: the
        four cells, then the exposure- and outcome-variance contributions."""
        pi, r0, r1 = (np.asarray(x, dtype=float) for x in (pi, r0, r1))
        out = np.empty((6, *np.broadcast_shapes(pi.shape, r0.shape, r1.shape)))
        out[:4] = cell_probs(pi, r0, r1)
        out[4] = (pi - self.marginal_exposure) ** 2
        out[5] = (out[0] + out[1] - self.marginal_outcome) ** 2
        return out

    # -- LP plumbing --------------------------------------------------

    def cells(self, columns) -> tuple[np.ndarray, ...]:
        """Column ids -> their (category, j, k, l) arrays; non-integer ids
        (a float or bool array), or an id outside [0, n_columns), raise
        :class:`ParameterError`."""
        columns = np.asarray(columns)
        if columns.size and columns.dtype.kind not in "iu":
            raise ParameterError("column ids must be integers")
        columns = columns.astype(np.int64, copy=False)
        if columns.size and not 0 <= columns.min() <= columns.max() < self.n_columns:
            raise ParameterError(f"column ids must lie in [0, {self.n_columns})")
        cats, cell = np.divmod(columns, self.grid.n_cells)
        return (cats, *self.grid.unravel(cell))

    def columns(self, ids) -> np.ndarray:
        """Dense coefficients of column ids, n_rows x len(ids)."""
        cats, j, k, l = self.cells(ids)
        ctr = self.grid.centers
        out = np.zeros((self.n_rows + 1, cats.size))
        out[self.row_index[cats].T, np.arange(cats.size)] = self._coefficients(
            ctr[j], ctr[k], ctr[l]
        )
        return out[:-1]

    def objective(self, ids) -> np.ndarray:
        """Objective coefficients of column ids."""
        _, j, k, l = self.cells(ids)
        # h(pi) + (1-pi) h(r0), then pi h(r1)
        return self._tables[0, j, k] + self._tables[5, j, l]

    def _reduced_costs(
        self, duals: np.ndarray, start: int, stop: int, include_objective: bool, out: np.ndarray
    ) -> np.ndarray:
        """Reduced costs of columns [start, stop), written into ``out``, one
        category's span at a time."""
        n_cells = self.grid.n_cells
        padded = np.append(duals, 0.0)
        for c in range(start // n_cells, (stop - 1) // n_cells + 1):
            lo, hi = max(start, c * n_cells), min(stop, (c + 1) * n_cells)
            self._price_span(
                padded[self.row_index[c]],
                include_objective,
                lo - c * n_cells,
                hi - c * n_cells,
                out[lo - start : hi - start],
            )
        return out

    def _price_span(self, y, include_objective, lo, hi, out) -> None:
        """Reduced costs of one category's cells [lo, hi) into ``out``, from
        its six duals ``y`` by the separable form of the module docstring."""
        m = self.grid.m
        size = m * m
        first, last = lo // size, (hi - 1) // size  # j-slices touched
        y0, y1, y2, y3, y4, y5 = y
        h = float(include_objective)
        weights = np.array([
            [h, y2 - y0, -y2, -y4, -y5, 0.0, 0.0, 0.0, 0.0, 0.0],  # P
            [0.0, 0.0, 0.0, 0.0, 0.0, h, y3 - y1, -y3, -y5, 0.0],  # Q
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, y5],  # -2 y5 (a - P(d=1))
        ])
        tables = self._tables[:, first : last + 1].reshape(10, -1)
        u = (weights @ tables).reshape(3, -1, m)  # P, Q, cross per slice
        v = np.empty_like(u)
        v[0] = 1.0
        v[1] = u[1]
        u[1] = 1.0
        v[2] = self._tables[6, first : last + 1]  # b
        # slice s of the span is u[s] @ v[s]: [P, 1, cross] @ [1; Q; b]
        u, v = u.transpose(1, 2, 0), v.transpose(1, 0, 2)
        whole_lo, whole_hi = -(-lo // size), hi // size  # slices covered whole
        if whole_lo < whole_hi:
            np.matmul(
                u[whole_lo - first : whole_hi - first],
                v[whole_lo - first : whole_hi - first],
                out=out[whole_lo * size - lo : whole_hi * size - lo].reshape(-1, m, m),
            )
        for s in sorted({first, last}):
            if whole_lo <= s < whole_hi:
                continue
            # a cut slice: the rows holding its cells [a, b)
            a, b = max(lo - s * size, 0), min(hi - s * size, size)
            k0, k1 = a // m, -(-b // m)
            rows = u[s - first, k0:k1] @ v[s - first]
            at = s * size + a - lo
            out[at : at + b - a] = rows.ravel()[a - k0 * m : b - k0 * m]

    def as_lp(self) -> DiscretizedProblem:
        """The problem itself, which is its own LP; kept for callers of the
        older form ``relax_and_retry(problem.as_lp(), ...)``."""
        return self

    def _block_cells(self) -> np.ndarray:
        """Column ids of each category's 2 x 2 x 2 block of cells around
        its continuum point, 8 per category (fewer where m < 2; ids repeat
        at m = 1).

        A category's four upper row bounds, normalized to sum 1, are the
        cells q of one triple (pi, r0, r1) = (q1 + q3, q0 / (1 - pi),
        q1 / pi), a risk whose arm is empty taken as 0.5.  Without variance
        rows the optimal activity sits at that corner, and the grid reaches
        each coordinate x only by mixing its two nearest bin centers, so
        the optimal support lies in the block whose lower index on each
        axis is floor(x m - 0.5), clipped to the grid.
        """
        m, d = self.grid.m, self.table.n_categories
        q = self.upper[: 4 * d].reshape(d, 4)
        q = q / q.sum(axis=1, keepdims=True)
        pi = q[:, 1] + q[:, 3]
        arm = np.stack([1.0 - pi, pi])
        with np.errstate(divide="ignore", invalid="ignore"):
            risk = np.where(arm > 0.0, q[:, :2].T / arm, 0.5)
        x = np.stack([pi, *risk])  # (3, d): the continuum point per category
        low = np.clip(np.floor(x * m - 0.5), 0, max(m - 2, 0)).astype(np.int64)
        corner = np.minimum(low[:, :, None] + np.indices((2, 2, 2)).reshape(3, 1, 8), m - 1)
        cells = self.grid.ravel(*corner)  # (d, 8)
        return (np.arange(d)[:, None] * self.grid.n_cells + cells).ravel()

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


#: Discretize a stratified table onto an m-resolution cube grid: the
#: problem's constructor, under the name the pipeline calls.
build_problem = DiscretizedProblem


def atoms_from_solution(problem: DiscretizedProblem, solution: LpSolution) -> tuple[Atom, ...]:
    """Decode one LP solution into grid atoms (see :func:`mean_atoms`)."""
    return mean_atoms(problem, [(solution.columns, solution.masses)])


def mean_atoms(problem: DiscretizedProblem, solutions) -> tuple[Atom, ...]:
    """The mean of one or more solutions of the problem's grid, as atoms.

    ``solutions`` is a sequence of ``(columns, masses)`` pairs.  Each
    pair's masses below ``MASS_FLOOR`` are numerical noise and dropped;
    the rest count at weight ``1 / len(solutions)``, summed per column id
    in pair order.  One atom per id, in column order.  No pairs, or a
    pair whose arrays differ in shape, raise :class:`ParameterError`.
    """
    if not solutions:
        raise ParameterError("mean_atoms needs at least one solution")
    if any(np.shape(c) != np.shape(m) for c, m in solutions):
        raise ParameterError("a solution's columns and masses must have the same shape")
    weight = 1.0 / len(solutions)
    columns = np.concatenate([c[m >= MASS_FLOOR] for c, m in solutions])
    masses = np.concatenate([m[m >= MASS_FLOOR] * weight for _, m in solutions])
    ids = _sorted_unique(columns)
    total = np.zeros(ids.size)
    np.add.at(total, np.searchsorted(ids, columns), masses)  # unbuffered: in pair order
    labels, centers = problem.table.labels, problem.grid.centers.tolist()
    return tuple(
        Atom(c, labels[c], j, k, l, centers[j], centers[k], centers[l], mass)
        for c, j, k, l, mass in zip(*(x.tolist() for x in problem.cells(ids)), total.tolist())
    )
