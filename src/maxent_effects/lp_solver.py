"""Primal revised simplex for very wide, very short linear programs.

Solves  maximize c.w  subject to per-row constraints and w >= 0, where a
row is either an interval  lo <= a.w <= hi  or an inequality  a.w >= rhs.
The problems this package builds have a handful of rows (a few dozen) and
up to tens of millions of columns, so the solver never materializes the
constraint matrix: columns are generated on demand, and the entering
variable comes from a small pool of cached candidate columns, which a
chunked pricing scan over the column generator refills when the pool
prices out.

Implementation notes
--------------------
* :class:`LpProblem` converts its rows once into ``lower``/``upper``
  bound arrays (``upper = +inf`` for an inequality row).
* With n structural columns and R rows, the working variables are the
  structurals ``0..n-1`` followed by 2R logicals ``n..n+2R-1``.  Logical
  ``i`` (counted from n) is ``sign[i]`` times the unit column of row
  ``i % R``, with upper bound ``upper[i]``: logicals ``0..R-1`` are the
  slacks, ``R..2R-1`` the artificials.
* Interval rows are handled as range rows with one bounded slack each
  (a.w + s = hi, 0 <= s <= hi - lo) instead of being split in two; an
  inequality row's slack has sign -1 and no upper bound.
* Feasibility comes from a big-M-free two-phase start with one artificial
  variable per row.  Phase one is accepted as soon as the total artificial
  mass drops below ``FEASIBILITY_TOL``; surviving artificial values become
  the artificials' upper bounds so phase two cannot drift further from
  feasibility.  Artificials never re-enter the basis.
* Each phase keeps its basis state in place: the rows x rows basis
  matrix, the basic costs and the basic upper bounds are built once when
  the phase starts, and a pivot overwrites one column or entry of each.
  The entering column comes from the pool's cached block when the pool
  holds it, else from one ``columns_fn`` call for that column.  Every
  pivot still solves afresh from the kept matrix (``numpy.linalg.solve``,
  LU with partial pivoting, three solves per pivot): the basis is tiny,
  so that is cheaper than bookkeeping and numerically safer than
  product-form or eta updates.  An exactly singular basis raises
  :class:`EstimationError`.
* Pricing is pool first (partial pricing, column generation inside the
  one running simplex).  Each phase owns a pool of structural columns:
  their ids, dense columns and phase costs, one block per refill.  A
  pivot prices only the pool, ``cost - y @ columns``, while some member
  improves (ties by lowest id).  When none does, a full scan of all
  columns (:func:`price_columns`, ``PRICE_CHUNK`` columns at a time,
  priced into one buffer that every chunk reuses) returns the entering
  column and the ``POOL_PER_CHUNK`` best improving columns of every
  chunk, which join the pool.  Neither skips the basic columns: they
  price to 0 within rounding (B^T y = c_B), far below
  ``OPTIMALITY_TOL``, so they never enter.  ``optimal`` is declared only
  when a full scan and the slacks find nothing, so the certificate
  covers every column.
* A problem can carry a seed (``LpProblem(..., seed=ids)``): structural
  ids that join each phase's pool, with that phase's costs, when the
  phase starts, so the solve finds a support it can predict (say, the
  grid cells around a continuum optimum) without discovering it through
  full scans.  A warm-started solve adds its start's
  :attr:`LpSolution.pool`, the final phase's pool plus the returned
  columns, to the seed.  Seeding changes the path, never the
  certificate.
* A solve can warm-start from a related solution's final basis
  (``solve(..., start=solution)``), typically the same grid with another
  right-hand side, whose optimal basis stays dual feasible.  A dual
  simplex phase with phase-two costs and the artificials fixed at 0
  pivots from that basis until it is primal feasible: the most
  primal-infeasible basic variable leaves; its row of the basis inverse,
  ``e_r B^-1`` (one transposed solve), times the pool's cached blocks and
  the slacks gives the pivot row; and a bounded ratio test (smallest
  ``|d_j / alpha_j|`` over the eligible nonbasics, ties within a relative
  1e-9 by lowest id) picks the entering column.  Phase two then runs as
  after phase one, so its full scan still certifies the optimum over
  every column.  A start that holds a basic artificial or is not dual
  feasible over the pool and the slacks, a pivot row with no eligible
  entering column, or the iteration limit sends the solve back to the
  cold two-phase start.
* The primal and the dual loop share their steps, one method each:
  building the kept basis state, the basic solution with its non-finite
  check, the pivot-in update, the slacks' free/flip rule and the
  ratio-test tie rule (within a relative 1e-9 of the minimum).
* Pivot selection is largest reduced cost above ``OPTIMALITY_TOL`` with
  lowest-index tie-breaking, a structural column before a slack of equal
  ``|reduced cost|``; after a stall of ``10 * n_rows`` consecutive
  degenerate steps the solver switches to Bland's rule, which skips the
  pool and takes the first improving column of a full scan, until the
  objective moves again.  A solve stops with ``iteration_limit`` after
  ``MAX_ITERATIONS`` pivots.  All scan and reduction orders are fixed, so
  identical inputs give identical output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, ParameterError

__all__ = [
    "RangeRow",
    "InequalityRow",
    "LpProblem",
    "LpSolution",
    "solve",
    "price_columns",
    "relax_and_retry",
    "row_bounds",
    "ROW_CAP",
    "OPTIMALITY_TOL",
    "FEASIBILITY_TOL",
    "MAX_ITERATIONS",
]

#: This solver is specialized to short problems; refuse anything taller.
ROW_CAP = 1024

#: Columns priced per block during a full pricing scan.
PRICE_CHUNK = 1 << 16

#: Improving columns of each scanned chunk that join the pricing pool.
POOL_PER_CHUNK = 32

#: A column enters only if its reduced cost exceeds this.
OPTIMALITY_TOL = 1e-9

#: Rows are satisfied, and phase one ends, within this.
FEASIBILITY_TOL = 1e-9

#: Pivots per solve before it stops with ``iteration_limit``.
MAX_ITERATIONS = 50_000

_PIVOT_TOL = 1e-10
_DEGENERATE_STEP = 1e-12
# Bland's rule takes over after this many degenerate steps per row.
_STALL_PER_ROW = 10


@dataclass(frozen=True)
class RangeRow:
    """Interval constraint lower <= activity <= upper."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.upper):
            raise ParameterError(
                f"range row needs lower <= upper, got [{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class InequalityRow:
    """One-sided constraint activity >= rhs."""

    rhs: float


Row = RangeRow | InequalityRow


class LpProblem:
    """A wide LP described by row metadata and column generators.

    Parameters
    ----------
    rows : sequence of RangeRow | InequalityRow
        Converted once into the bound arrays ``lower`` and ``upper``
        (``upper = +inf`` for an inequality row).
    n_columns : int
        Total number of structural columns.
    columns_fn : callable(indices) -> ndarray (n_rows, len(indices))
        Dense coefficients of the requested columns.
    objective_fn : callable(indices) -> ndarray (len(indices),)
        Objective coefficients of the requested columns.
    reduced_cost_fn : callable(duals, start, stop, include_objective, out)
        ``objective - duals @ columns`` (without the objective when
        ``include_objective`` is false) for the contiguous index span
        [start, stop), the kernel of every full pricing scan.  ``out`` is
        None or a buffer of ``stop - start`` floats it may write the
        result into; it returns the result.
    seed : sequence of int, optional
        Structural column ids (duplicates allowed) that every phase's
        pricing pool starts with; kept as the sorted unique int64 array
        ``seed``.
    """

    def __init__(self, rows, n_columns: int, columns_fn, objective_fn, reduced_cost_fn, seed=()):
        self.lower, self.upper = row_bounds(rows)
        if n_columns <= 0:
            raise ParameterError("problem needs at least one column")
        self.n_columns = int(n_columns)
        self.seed = _seed_ids(seed, self.n_columns)
        self._columns_fn = columns_fn
        self._objective_fn = objective_fn
        self._reduced_cost_fn = reduced_cost_fn

    @property
    def n_rows(self) -> int:
        return self.lower.size

    def columns(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        out = np.asarray(self._columns_fn(idx), dtype=float)
        if out.shape != (self.n_rows, idx.size):
            raise ParameterError(
                f"columns_fn returned shape {out.shape}, "
                f"expected {(self.n_rows, idx.size)}"
            )
        return out

    def objective(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        return np.asarray(self._objective_fn(idx), dtype=float)

    def reduced_costs(
        self,
        duals: np.ndarray,
        start: int,
        stop: int,
        include_objective: bool = True,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``objective - duals @ columns`` for columns [start, stop); ``out``
        (``stop - start`` floats), when given, may receive the result in
        place of a new array."""
        return self._reduced_cost_fn(duals, start, stop, include_objective, out)

    @classmethod
    def from_dense(cls, objective, matrix, rows, seed=()) -> LpProblem:
        """Convenience constructor from an explicit coefficient matrix."""
        a = np.asarray(matrix, dtype=float)
        c = np.asarray(objective, dtype=float)
        if a.ndim != 2 or a.shape[0] != len(tuple(rows)) or a.shape[1] != c.size:
            raise ParameterError("matrix shape does not match rows/objective")

        def reduced_costs(duals, start, stop, include_objective, out):
            idx = np.arange(start, stop)
            rc = -(duals @ a[:, idx])  # the dense columns, as columns() returns them
            return rc + c[idx] if include_objective else rc

        return cls(
            rows,
            c.size,
            columns_fn=lambda idx: a[:, idx],
            objective_fn=lambda idx: c[idx],
            reduced_cost_fn=reduced_costs,
            seed=seed,
        )


def row_bounds(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` arrays of a row sequence, validated.

    An inequality row has ``upper = +inf``.  Every row needs a finite
    right-hand side: ``upper`` where it is finite, else ``lower`` (NaN
    counts as infinite).  A row with two finite bounds also needs a
    finite width ``upper - lower``, its slack's upper bound.
    """
    rows = tuple(rows)
    if not rows:
        raise ParameterError("problem needs at least one row")
    if len(rows) > ROW_CAP:
        raise ParameterError(
            f"{len(rows)} rows exceeds the {ROW_CAP}-row cap of this solver"
        )
    lower, upper = np.array(
        [(r.lower, r.upper) if isinstance(r, RangeRow) else (r.rhs, np.inf) for r in rows],
        dtype=float,
    ).T.copy()
    bad = np.flatnonzero(~np.isfinite(_rhs(lower, upper)))
    if bad.size:
        i = bad[0]
        raise ParameterError(
            f"row {i} needs a finite right-hand side, got [{float(lower[i])}, {float(upper[i])}]"
        )
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isfinite(lower) & np.isfinite(upper) & np.isinf(upper - lower))
    if wide.size:
        i = wide[0]
        raise ParameterError(
            f"row {i} needs a finite width, got [{float(lower[i])}, {float(upper[i])}]"
        )
    return lower, upper


def _rhs(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Right-hand side of each row's equality form: upper, else lower."""
    return np.where(np.isfinite(upper), upper, lower)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver output.

    ``columns``/``masses`` hold only the nonzero structural variables of
    the final vertex, sorted by column index; at optimality their count
    never exceeds the row count.  ``pool`` holds the sorted ids of the
    final phase's candidate pool and the returned columns, the seed for
    a related solve.  ``basis`` (the R basic working ids) and
    ``at_upper`` (the 2R logicals' bound flags) hold the final basis
    state, the start of a warm-started related solve.
    """

    status: str  # optimal | infeasible | iteration_limit | unbounded
    columns: np.ndarray
    masses: np.ndarray
    objective: float
    row_activity: np.ndarray
    duals: np.ndarray
    iterations: int
    pool: np.ndarray
    infeasible_rows: tuple[int, ...] = ()
    basis: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    at_upper: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))


def price_columns(
    problem: LpProblem,
    dual_values: np.ndarray,
    *,
    rule: str = "dantzig",
    include_objective: bool = True,
):
    """Scan all structural columns for entering candidates.

    Returns ``None`` when no column's reduced cost exceeds
    ``OPTIMALITY_TOL``, which certifies dual feasibility of
    ``dual_values`` over the whole column set.  Else it returns
    ``((column_index, reduced_cost), candidates)``: ``candidates`` holds
    the ids of the ``POOL_PER_CHUNK`` best improving columns of every
    chunk, best first over the whole scan (ties by lowest index), and the
    returned column is its first entry.  Under ``rule="bland"`` the first
    improving index is returned instead, with no candidates.  The scan
    visits fixed-size chunks in index order and never materializes the
    full matrix.
    """
    duals = np.asarray(dual_values, dtype=float)
    if duals.shape != (problem.n_rows,):
        raise ParameterError("dual vector length must equal the row count")
    # Bland's rule gathers nothing: the empty blocks make its result None
    found_ids, found_rcs = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    # one buffer for every chunk: fresh chunk-sized temporaries make the
    # allocator return and re-fault their pages chunk after chunk
    buffer = np.empty(min(PRICE_CHUNK, problem.n_columns))
    for start in range(0, problem.n_columns, PRICE_CHUNK):
        stop = min(start + PRICE_CHUNK, problem.n_columns)
        rc = problem.reduced_costs(
            duals, start, stop, include_objective, out=buffer[: stop - start]
        )
        if rule == "bland":
            hits = np.flatnonzero(rc > OPTIMALITY_TOL)
            if hits.size:
                j = int(hits[0])
                return (start + j, float(rc[j])), np.empty(0, dtype=np.int64)
            continue
        top = _best_improving(rc, OPTIMALITY_TOL)
        found_ids.append(start + top)
        found_rcs.append(rc[top])
    ids, rcs = np.concatenate(found_ids), np.concatenate(found_rcs)
    if not ids.size:
        return None
    # stable: equal costs keep their ascending-id order
    order = np.argsort(-rcs, kind="stable")
    return (int(ids[order[0]]), float(rcs[order[0]])), ids[order]


def _best_improving(rc: np.ndarray, tol: float) -> np.ndarray:
    """Positions of the ``POOL_PER_CHUNK`` largest entries above ``tol``,
    best first, ties by lowest position.  ``rc`` holds no NaN."""
    # every 64th entry is a subset of rc, so its POOL_PER_CHUNK-th largest
    # is at most rc's own: only entries at or above it can be selected
    sample = rc[::64]
    at = sample.size - POOL_PER_CHUNK
    floor = np.partition(sample, at)[at] if at >= 0 else -np.inf
    hits = np.flatnonzero(rc >= floor) if floor > tol else np.flatnonzero(rc > tol)
    if hits.size > POOL_PER_CHUNK:
        improving = rc[hits]
        kth = hits.size - POOL_PER_CHUNK
        hits = hits[improving >= np.partition(improving, kth)[kth]]
    return hits[np.argsort(-rc[hits], kind="stable")[:POOL_PER_CHUNK]]


class _Pool:
    """Candidate structural columns of one phase.

    ``ids`` holds the members in the order they joined; ``_sorted`` is
    ``ids[_order]``, ascending.  Each refill's dense columns and phase
    costs (the objective in phase two, 0 in phase one) stay one block,
    starting at position ``_starts[b]`` of ``ids``, so a refill never
    copies the pool.  Basic members are priced like the rest: their
    reduced costs are 0 within rounding.
    """

    def __init__(self, problem: LpProblem, phase: int):
        self._problem = problem
        self._phase = phase
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._starts: list[int] = []
        self.ids = self._sorted = self._order = np.empty(0, dtype=np.int64)

    def add(self, ids) -> None:
        new = np.setdiff1d(ids, self._sorted, assume_unique=True)
        if new.size:
            cost = self._problem.objective(new) if self._phase == 2 else np.zeros(new.size)
            self._blocks.append((self._problem.columns(new), cost))
            self._starts.append(self.ids.size)
            self.ids = np.concatenate([self.ids, new])
            self._order = np.argsort(self.ids, kind="stable")
            self._sorted = self.ids[self._order]

    def positions(self, columns: np.ndarray) -> np.ndarray:
        """Positions in ``ids`` of the members among ``columns``."""
        if not self.ids.size:
            return self.ids
        pos = np.minimum(np.searchsorted(self._sorted, columns), self.ids.size - 1)
        return self._order[pos[self._sorted[pos] == columns]]

    def reduced_costs(self, y: np.ndarray) -> np.ndarray:
        """``cost - y @ column`` of every member, in ``ids`` order."""
        parts = [cost - y @ cols for cols, cost in self._blocks]
        return np.concatenate(parts) if parts else np.empty(0)

    def row(self, rho: np.ndarray) -> np.ndarray:
        """``rho @ column`` of every member, in ``ids`` order."""
        parts = [rho @ cols for cols, _ in self._blocks]
        return np.concatenate(parts) if parts else np.empty(0)

    def price(self, y: np.ndarray):
        """Best member above ``OPTIMALITY_TOL`` as ``(column_index,
        reduced_cost)`` (ties by lowest index), or None."""
        if not self.ids.size:
            return None
        rc = self.reduced_costs(y)
        best = rc.max()
        if best > OPTIMALITY_TOL:
            return int(self.ids[rc == best].min()), float(best)
        return None

    def member(self, column: int):
        """Cached ``(dense column, phase cost)`` of a member, or None."""
        pos = int(np.searchsorted(self._sorted, column))
        if pos == self._sorted.size or self._sorted[pos] != column:
            return None
        k = int(self._order[pos])
        b = bisect_right(self._starts, k) - 1
        cols, cost = self._blocks[b]
        k -= self._starts[b]
        return cols[:, k], cost[k]


class _Simplex:
    """One solve: working problem, state, the current phase's pool, and
    the pivot loop."""

    def __init__(self, problem, seed=()):
        self.p = problem
        self.R = problem.n_rows
        self.n = problem.n_columns
        self.art0 = self.n + self.R  # first artificial's working id

        lower, upper = problem.lower, problem.upper
        ranged = np.isfinite(upper)
        self.b = _rhs(lower, upper)
        art_sign = np.where(self.b >= 0.0, 1.0, -1.0)
        self.sign = np.concatenate([np.where(ranged, 1.0, -1.0), art_sign])
        self.upper = np.concatenate(
            [np.where(ranged, upper - lower, np.inf), np.full(self.R, np.inf)]
        )
        self.at_upper = np.zeros(2 * self.R, dtype=bool)

        self.basis = np.arange(self.art0, self.art0 + self.R, dtype=np.int64)
        self.iterations = 0
        self.seed = seed
        self.x_basis = np.zeros(self.R)
        self.duals = np.zeros(self.R)

    def _enter_phase(self, phase: int) -> None:
        """Start ``phase`` (1 or 2) with a pool of the seed ids at its costs."""
        self.phase = phase
        self.pool = _Pool(self.p, phase)
        self.pool.add(self.seed)

    # -- working-variable helpers ------------------------------------

    def _work_columns(self, ids: np.ndarray) -> np.ndarray:
        out = np.zeros((self.R, ids.size))
        struct = ids < self.n
        if struct.any():
            out[:, struct] = self.p.columns(ids[struct])
        pos = np.flatnonzero(~struct)
        logical = ids[pos] - self.n
        out[logical % self.R, pos] = self.sign[logical]
        return out

    def _work_cost(self, ids: np.ndarray) -> np.ndarray:
        out = np.zeros(ids.size)
        if self.phase == 1:
            out[ids >= self.art0] = -1.0
        else:
            struct = ids < self.n
            if struct.any():
                out[struct] = self.p.objective(ids[struct])
        return out

    def _work_ub(self, ids: np.ndarray) -> np.ndarray:
        out = np.full(ids.size, np.inf)
        logical = ids >= self.n
        out[logical] = self.upper[ids[logical] - self.n]
        return out

    def _effective_rhs(self) -> np.ndarray:
        shift = np.where(self.at_upper, self.sign * self.upper, 0.0)
        return self.b - shift[: self.R] - shift[self.R :]

    # -- steps shared by the primal and the dual loop ---------------

    def _solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve with the kept basis matrix (or its transpose), afresh."""
        try:
            return np.linalg.solve(self.bmat.T if transpose else self.bmat, rhs)
        except np.linalg.LinAlgError as exc:  # exactly singular basis
            raise EstimationError(f"basis factorization failed: {exc}") from exc

    def _load_basis(self) -> None:
        """Build the kept basis state of ``basis``: a pivot then overwrites
        one column of the matrix and one entry of the costs and bounds."""
        self.bmat = self._work_columns(self.basis)
        self.c_basis = self._work_cost(self.basis)
        self.ub_basis = self._work_ub(self.basis)

    def _basic_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Basic values ``x`` and duals ``y`` of the kept basis, also kept
        as ``x_basis`` and ``duals``."""
        x = self._solve(self._effective_rhs())
        if not np.all(np.isfinite(x)):
            raise EstimationError("numerical breakdown: non-finite basic solution")
        self.x_basis = x
        self.duals = self._solve(self.c_basis, transpose=True)
        return x, self.duals

    def _entering(self, enter: int):
        """Working column and phase cost of the entering variable: the
        pool's cached copy when it holds one, else built for it alone."""
        cached = self.pool.member(enter) if enter < self.n else None
        if cached is not None:
            return cached
        ids = np.array([enter], dtype=np.int64)
        return self._work_columns(ids)[:, 0], self._work_cost(ids)[0]

    def _replace(self, pos: int, enter: int, entering, to_upper: bool) -> None:
        """Pivot ``enter``, with its ``(column, cost)``, into basis position
        ``pos``; the leaving variable goes to its upper bound if
        ``to_upper``, else to 0."""
        leaving = int(self.basis[pos])
        if leaving >= self.n:
            self.at_upper[leaving - self.n] = to_upper
        elif to_upper:
            raise EstimationError("structural variable cannot leave at +inf")
        if enter >= self.n:
            self.at_upper[enter - self.n] = False
        self.basis[pos] = enter
        self.bmat[:, pos], self.c_basis[pos] = entering
        self.ub_basis[pos] = self.upper[enter - self.n] if enter >= self.n else np.inf

    def _slacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Which slacks can move (nonbasic, with room between their
        bounds), and each slack's flip: -1 at its upper bound, else 1, so
        ``flip * rc > 0`` means moving it off its bound improves."""
        free = self.upper[: self.R] > 0.0
        logical = self.basis[self.basis >= self.n] - self.n
        free[logical[logical < self.R]] = False
        return free, np.where(self.at_upper[: self.R], -1.0, 1.0)

    @staticmethod
    def _near_min(v: np.ndarray) -> np.ndarray:
        """Entries within a relative 1e-9 of the minimum: ratio-test ties,
        so that last-bit noise cannot pick the pivot."""
        return v <= v.min() * (1.0 + 1e-9) + 1e-15

    # -- the primal loop ---------------------------------------------

    def _price_slacks(self, y: np.ndarray, rule: str):
        """Best nonbasic slack candidate as (work_id, reduced_cost) or None.

        Slacks cost 0, so a slack's reduced cost is ``-sign * y``; it
        improves by rising from its lower bound or falling from its upper.
        """
        rc = -self.sign[: self.R] * y
        free, flip = self._slacks()
        cands = np.flatnonzero(free & (flip * rc > OPTIMALITY_TOL))
        if not cands.size:
            return None
        i = cands[0] if rule == "bland" else cands[np.argmax(np.abs(rc[cands]))]
        return self.n + int(i), rc[i]

    def _infeasibility(self) -> float:
        art = self.basis >= self.art0
        return float(np.sum(np.maximum(self.x_basis[art], 0.0)))

    def _run_phase(self) -> str:
        stall = 0
        bland = False
        last_objective = -np.inf
        self._load_basis()

        while True:
            x, y = self._basic_solution()
            objective = float(self.c_basis @ x)

            if self.phase == 1 and self._infeasibility() <= FEASIBILITY_TOL:
                return "feasible"

            if self.iterations >= MAX_ITERATIONS:
                return "iteration_limit"

            # -- entering variable: the pool first, all columns if it prices out
            rule = "bland" if bland else "dantzig"
            cand_struct = None if bland else self.pool.price(y)
            if cand_struct is None:
                scan = price_columns(self.p, y, rule=rule, include_objective=(self.phase == 2))
                if scan is not None:
                    cand_struct, found = scan
                    self.pool.add(found)
            cands = [c for c in (cand_struct, self._price_slacks(y, rule)) if c is not None]
            if not cands:
                return "optimal"
            # Bland: the lowest id; else the largest |rc|, the structural on a tie
            enter = min(cands)[0] if bland else max(cands, key=lambda c: abs(c[1]))[0]

            enter_at_upper = enter >= self.n and self.at_upper[enter - self.n]
            entering = self._entering(enter)
            d = self._solve(entering[0])
            if not np.all(np.isfinite(d)):
                raise EstimationError("numerical breakdown: non-finite direction")
            step = -d if enter_at_upper else d

            # -- ratio test: x_basis(t) = x_basis - t*step, t >= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                t_low = np.where(
                    step > _PIVOT_TOL, np.maximum(x, 0.0) / step, np.inf
                )
                room = self.ub_basis - x
                t_upp = np.where(
                    (step < -_PIVOT_TOL) & np.isfinite(self.ub_basis),
                    np.maximum(room, 0.0) / (-step),
                    np.inf,
                )
            t_leave = np.minimum(t_low, t_upp)
            t_basic = float(t_leave.min())
            ub_enter = float(self.upper[enter - self.n]) if enter >= self.n else np.inf

            if ub_enter <= t_basic:
                # Bound flip: the entering variable traverses its own range.
                if not np.isfinite(ub_enter):
                    return "unbounded"
                i = enter - self.n
                self.at_upper[i] = not self.at_upper[i]
                t = ub_enter
            else:
                if not np.isfinite(t_basic):
                    return "unbounded"
                tie_pos = np.flatnonzero(self._near_min(t_leave))
                if bland:
                    pos = int(tie_pos[np.argmin(self.basis[tie_pos])])
                else:
                    pos = int(tie_pos[np.argmax(np.abs(step[tie_pos]))])
                self._replace(pos, enter, entering, t_upp[pos] < t_low[pos])
                t = t_basic

            self.iterations += 1
            if t > _DEGENERATE_STEP or objective > last_objective + 1e-12:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > _STALL_PER_ROW * self.R:
                    bland = True
            last_objective = max(last_objective, objective)

    # -- the dual loop -----------------------------------------------

    def _run_dual(self, start: LpSolution) -> bool:
        """Dual simplex from ``start``'s basis, with phase-two costs and
        the artificials fixed at 0, until the basis is primal feasible
        (True).  False asks for a cold start: the start holds a basic
        artificial or is not dual feasible over the pool and the slacks,
        a pivot row has no eligible entering column, or the iteration
        limit is hit."""
        R, n = self.R, self.n
        at_upper = start.at_upper.copy()
        at_upper[R:] = False
        if np.any(start.basis >= self.art0) or np.any(at_upper & np.isinf(self.upper)):
            return False
        self.basis = start.basis.copy()
        self.at_upper = at_upper
        self._freeze_artificials()  # no artificial is basic: all fixed at 0
        self._load_basis()
        # candidates: the pool's members, then the slacks; flip is -1 for a
        # slack at its upper bound, so flip * d <= 0 is dual feasibility
        # for each nonbasic one
        members = self.pool.ids.size
        ids = np.concatenate([self.pool.ids, np.arange(n, n + R)])
        free, flip = np.ones(ids.size, dtype=bool), np.ones(ids.size)
        d, alpha = np.empty(ids.size), np.empty(ids.size)
        while True:
            x, y = self._basic_solution()
            free[:members] = True
            free[self.pool.positions(self.basis[self.basis < n])] = False
            free[members:], flip[members:] = self._slacks()
            d[:members] = self.pool.reduced_costs(y)
            d[members:] = -self.sign[:R] * y
            if self.iterations == 0 and np.any(flip[free] * d[free] > OPTIMALITY_TOL):
                return False  # checked once, at the start's basis

            infeasibility = np.maximum(-x, x - self.ub_basis)
            r = int(np.argmax(infeasibility))
            if infeasibility[r] <= FEASIBILITY_TOL:
                return True
            if self.iterations >= MAX_ITERATIONS:
                return False

            # -- pivot row alpha = e_r B^-1 a over the candidates
            unit = np.zeros(R)
            unit[r] = 1.0
            rho = self._solve(unit, transpose=True)
            alpha[:members] = self.pool.row(rho)
            alpha[members:] = self.sign[:R] * rho
            # a candidate may enter only if moving it off its own bound pushes
            # x_r back towards the bound it violates (0 from below, or its upper)
            below = x[r] < 0.0
            eligible = free & ((alpha if below else -alpha) * flip < -_PIVOT_TOL)
            if not eligible.any():
                return False
            ratio = np.maximum(-flip[eligible] * d[eligible], 0.0) / np.abs(alpha[eligible])
            enter = int(ids[eligible][self._near_min(ratio)].min())
            self._replace(r, enter, self._entering(enter), not below)
            self.iterations += 1

    # -- phase transitions and extraction ----------------------------

    def _freeze_artificials(self):
        """Clamp artificials so phase two cannot regrow any infeasibility."""
        art = self.basis >= self.art0
        self.upper[self.R :] = 0.0
        self.upper[self.basis[art] - self.n] = np.maximum(self.x_basis[art], 0.0)

    def _violation_rows(self) -> tuple[int, ...]:
        violated = (self.basis >= self.art0) & (self.x_basis > FEASIBILITY_TOL)
        return tuple(int(i) for i in np.sort(self.basis[violated] - self.art0))

    def extract(self, status: str, infeasible_rows=()) -> LpSolution:
        struct = self.basis < self.n
        ids = self.basis[struct]
        vals = np.maximum(self.x_basis[struct], 0.0)
        keep = vals > 0.0
        ids, vals = ids[keep], vals[keep]
        order = np.argsort(ids, kind="stable")
        ids, vals = ids[order], vals[order]
        if ids.size:
            activity = self.p.columns(ids) @ vals
            objective = float(self.p.objective(ids) @ vals)
        else:
            activity = np.zeros(self.R)
            objective = 0.0
        return LpSolution(
            status=status,
            columns=ids,
            masses=vals,
            objective=objective,
            row_activity=activity,
            duals=self.duals.copy(),
            iterations=self.iterations,
            pool=np.union1d(self.pool.ids, ids),
            infeasible_rows=tuple(infeasible_rows),
            basis=self.basis.copy(),
            at_upper=self.at_upper.copy(),
        )


def solve(problem: LpProblem, start=None) -> LpSolution:
    """Maximize the problem's objective over its rows and w >= 0.

    Returns an :class:`LpSolution` whose status is ``optimal`` when no
    column prices above ``OPTIMALITY_TOL`` and all rows are satisfied
    within ``FEASIBILITY_TOL``; ``infeasible`` and ``iteration_limit``
    carry the rows phase one left violated.  Each phase's pricing pool
    starts with the problem's ``seed``.  ``start``, a solution of a
    problem with the same rows and columns, adds its ``pool`` to that
    seed and warm-starts the solve from its final basis with dual
    simplex pivots over the seeded pool; when that basis cannot be used
    (see the module notes) the solve starts cold.  Identical inputs
    produce bit-identical solutions.
    """
    seed = problem.seed
    if start is not None:
        _check_start(start, problem)
        seed = np.union1d(seed, _seed_ids(start.pool, problem.n_columns))
        s = _Simplex(problem, seed)
        s._enter_phase(2)
        if s._run_dual(start):
            return s.extract(s._run_phase())
    s = _Simplex(problem, seed)
    s._enter_phase(1)
    outcome = s._run_phase()
    if outcome == "iteration_limit":
        return s.extract("iteration_limit", s._violation_rows())
    if outcome != "feasible" and s._infeasibility() > FEASIBILITY_TOL:
        return s.extract("infeasible", s._violation_rows())
    s._freeze_artificials()
    s._enter_phase(2)
    return s.extract(s._run_phase())


def _check_start(start: LpSolution, problem: LpProblem) -> None:
    """Reject a start whose basis state cannot belong to ``problem``."""
    rows, n_work = problem.n_rows, problem.n_columns + 2 * problem.n_rows
    if start.basis.shape != (rows,) or start.at_upper.shape != (2 * rows,):
        raise ParameterError(f"start needs a basis of {rows} ids and {2 * rows} bound flags")
    if start.basis.min() < 0 or start.basis.max() >= n_work:
        raise ParameterError(f"start basis ids must lie in [0, {n_work})")


def _seed_ids(ids, n_columns: int) -> np.ndarray:
    """Sorted unique int64 ids of a pool seed, validated against the
    problem's column count."""
    ids = np.asarray(ids)
    if not ids.size:
        return np.empty(0, dtype=np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ParameterError("a pool seed must be a sequence of integer column ids")
    if ids.min() < 0 or ids.max() >= n_columns:
        raise ParameterError(f"pool seed ids must lie in [0, {n_columns})")
    return np.unique(ids.astype(np.int64))


def relax_and_retry(problem: LpProblem, schedule, start=None) -> LpSolution:
    """:func:`solve` under the name and call form the pipeline uses:
    ``relax_and_retry(problem, (1e-9,))``.

    ``schedule`` is a sequence of feasibility tolerances and must hold
    the one value ``FEASIBILITY_TOL``; any other schedule raises
    :class:`ParameterError`.
    """
    if [float(t) for t in schedule] != [FEASIBILITY_TOL]:
        raise ParameterError(
            f"the only tolerance schedule is ({FEASIBILITY_TOL:g},), got {tuple(schedule)}"
        )
    return solve(problem, start=start)
