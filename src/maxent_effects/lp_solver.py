"""Primal revised simplex for very wide, very short linear programs.

Solves  maximize c.w  subject to  lower <= A w <= upper  and w >= 0, row
by row, where ``upper = +inf`` makes a row the inequality  a.w >= lower.
The problems this package builds have a handful of rows (a few dozen) and
up to tens of millions of columns, so the solver never materializes the
constraint matrix: columns are generated on demand, and the entering
variable comes from a small pool of cached candidate columns, which a
chunked pricing scan over the column generator refills when the pool
prices out.

Implementation notes
--------------------
* Two float arrays, ``lower`` and ``upper``, are the only description of
  the rows; :func:`check_bounds` validates them when an
  :class:`LpProblem` is built.
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
  mass drops below ``FEASIBILITY_TOL``.  Each artificial still basic at
  exactly 0 then hands its basis position to its row's slack, whose
  column is parallel and whose value it keeps.  A nonzero residue becomes
  its artificial's upper bound instead (a slack outside its own bounds
  would leave at them and push the residue onto the entering column), so
  phase two cannot drift further from feasibility.  The other artificials
  are fixed at 0 and never re-enter.
* Each phase keeps its basis state: the basis matrix, basic costs and
  upper bounds, the effective right-hand side (``b`` shifted by the
  logicals at their upper bounds), each basic variable's pool position
  and the basis inverse, built when it starts (``numpy.linalg.inv``; an
  exactly singular basis raises :class:`EstimationError`).  A pivot
  overwrites one column or entry of the first three and changes the
  right-hand side only where a bound flag moved.
  Its solves are products with the inverse (``B^-1 b``, ``B^-1 a``,
  ``c_B B^-1``), which it updates in the product form of Dantzig and
  Orchard-Hays (1954): with ``d = B^-1 a`` entering at position p,
  ``B^-1 -= outer(d - e_p, B^-1[p] / d[p])``, refactorizing after
  ``_REFACTOR_EVERY`` updates or for a pivot element below
  ``_TINY_PIVOT``.  Reported masses come from one fresh LU solve.
* Pricing is pool first (partial pricing, column generation inside the
  one running simplex).  Each phase owns a pool of every variable that
  can enter: the R slacks at positions 0..R-1, then candidate structural
  columns; ids, dense columns, phase costs and one bound direction per
  member (+1 at its lower bound, -1 at its upper, 0 basic or fixed) in
  four arrays sized exactly to the members, which a refill replaces.
  A pivot prices the pool, one ``cost - y @ columns``; a member's gain
  is its direction times its reduced cost.  When no structural member
  improves, a full scan (:func:`price_columns`, ``PRICE_CHUNK`` columns
  at a time) returns the entering column, the ``POOL_PER_CHUNK`` best
  improving columns of each chunk whose maximum is above
  ``OPTIMALITY_TOL``, and the largest reduced cost; structural members
  pricing below ``-SHED_TOL`` leave the pool first.  Basic columns
  price to 0 (B^T y = c_B) and are never shed.  ``optimal`` needs a full
  scan and the slacks to find nothing, certifying every column.
* A problem's ``seed``, the column ids a subclass sets (empty by
  default), plus a warm start's ``pool``, joins each phase's pool when
  it starts, so a predictable support (say, the cells around a continuum
  optimum) needs no full scan.  Seeding changes the path, never the
  certificate.
* A solve can warm-start from a related solution's final basis
  (``solve(..., start=solution)``), typically the same grid with another
  right-hand side, whose optimal basis stays dual feasible.  A dual
  simplex phase with phase-two costs and the artificials fixed at 0
  pivots over the phase's pool until the basis is primal feasible.
  The most primal-infeasible basic variable leaves; its row of the
  inverse times the pool gives the pivot row; and a bounded ratio test
  (smallest ``|d_j / alpha_j|`` over the eligible nonbasics, ties within
  a relative 1e-9 by lowest id) picks the entering member.  Phase two
  goes on from the kept state, so its full scan still certifies the
  optimum.  A start that holds a basic artificial (an infeasible solve's
  basis, or one whose artificial kept a residue) or is not dual feasible
  over the pool, a pivot row with no eligible entering member, or the
  iteration limit sends the solve to the cold start.  A start basis that
  names an id twice, or a row's slack and its artificial both (parallel
  columns), is singular and raises :class:`ParameterError`.
* Pivot selection takes the best improving structural (the pool's, else
  the full scan's) and the best slack, each by largest gain above
  ``OPTIMALITY_TOL`` with lowest-id tie-breaking, and enters the larger,
  the structural on a tie; after a stall of ``10 * n_rows`` consecutive
  degenerate steps (a step no longer than ``_DEGENERATE_STEP``) the
  solver switches to Bland's rule (Bland 1977), which takes the lowest
  improving working id: the first improving column of a full scan, which
  joins the pool, else the first improving slack, until a longer step
  ends the stall.  A solve stops with ``iteration_limit`` after
  ``MAX_ITERATIONS`` pivots.  All scan and reduction orders are fixed, so
  identical inputs give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, ParameterError

__all__ = [
    "LpProblem",
    "LpSolution",
    "solve",
    "price_columns",
    "relax_and_retry",
    "check_bounds",
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

#: A pool refill first drops the members pricing below ``-SHED_TOL``.
SHED_TOL = 3e-2

_PIVOT_TOL = 1e-10
# The kept basis inverse is refactorized after this many rank-one updates,
# and instead of an update whose pivot element is smaller than _TINY_PIVOT.
_REFACTOR_EVERY = 64
_TINY_PIVOT = 1e-7
_DEGENERATE_STEP = 1e-12
# Bland's rule takes over after this many degenerate steps per row.
_STALL_PER_ROW = 10


class LpProblem:
    """A wide LP: its row bounds and column count, with the columns
    generated by a subclass.

    Parameters
    ----------
    lower, upper : sequence of float
        Row ``i`` is ``lower[i] <= a_i.w <= upper[i]``, or the inequality
        ``a_i.w >= lower[i]`` where ``upper[i] = +inf``; kept as the float
        arrays ``lower`` and ``upper``, validated by :func:`check_bounds`.
    n_columns : int
        Total number of structural columns.

    ``seed``, the sorted unique int64 structural column ids that every
    phase's pricing pool starts with, is empty unless a subclass sets it.
    A subclass supplies the columns through three methods, which the
    public :meth:`columns`, :meth:`objective` and :meth:`reduced_costs`
    call with int64 ids: ``_columns(indices)``, the dense coefficients
    (n_rows x len(indices)); ``_objective(indices)``, the objective
    coefficients; and ``_reduced_costs(duals, start, stop,
    include_objective, out)``, the kernel of every full pricing scan (see
    :meth:`reduced_costs`).
    """

    def __init__(self, lower, upper, n_columns: int):
        self.lower, self.upper = check_bounds(lower, upper)
        if n_columns <= 0:
            raise ParameterError("problem needs at least one column")
        self.n_columns = int(n_columns)
        self.seed = np.empty(0, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        return self.lower.size

    def columns(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        out = np.asarray(self._columns(idx), dtype=float)
        if out.shape != (self.n_rows, idx.size):
            raise ParameterError(
                f"_columns returned shape {out.shape}, expected {(self.n_rows, idx.size)}"
            )
        return out

    def objective(self, indices) -> np.ndarray:
        return np.asarray(self._objective(np.asarray(indices, dtype=np.int64)), dtype=float)

    def reduced_costs(
        self, duals: np.ndarray, start: int, stop: int, include_objective: bool, out: np.ndarray
    ) -> np.ndarray:
        """``objective - duals @ columns`` (without the objective when
        ``include_objective`` is false) for columns [start, stop); ``out``
        (``stop - start`` floats) may receive the result in place of a new
        array.  Every scan calls the kernel through this one method, which
        subclasses leave as is, so that a wrapper around it (as the
        benchmark's tracer installs) sees every kernel call."""
        return self._reduced_costs(duals, start, stop, include_objective, out)


def check_bounds(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds ``lower`` and ``upper`` as new float arrays, validated.

    The arrays need equal lengths and at most ``ROW_CAP`` rows.  Every
    row needs ``lower <= upper`` (NaN fails) and a finite right-hand
    side: ``upper`` where it is finite, else ``lower``.  A row with two
    finite bounds also needs a finite width ``upper - lower``, its
    slack's upper bound.
    """
    lower, upper = np.array(lower, dtype=float), np.array(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape:
        raise ParameterError(
            f"row bounds need two 1-d arrays of equal length, got shapes {lower.shape} "
            f"and {upper.shape}"
        )
    if not lower.size:
        raise ParameterError("problem needs at least one row")
    if lower.size > ROW_CAP:
        raise ParameterError(
            f"{lower.size} rows exceeds the {ROW_CAP}-row cap of this solver"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        failures = (
            ("a finite right-hand side", ~np.isfinite(_rhs(lower, upper))),
            ("lower <= upper", ~(lower <= upper)),
            ("a finite width", np.isfinite(lower) & np.isfinite(upper) & np.isinf(upper - lower)),
        )
    for need, bad in failures:
        if bad.any():
            i = int(bad.argmax())
            raise ParameterError(
                f"row {i} needs {need}, got [{float(lower[i])}, {float(upper[i])}]"
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
    never exceeds the row count.  ``pool`` holds the sorted structural
    ids of the final phase's pool (no slack) and the returned columns,
    the seed for a related solve.  ``basis`` (the R basic working ids) and
    ``at_upper`` (the 2R logicals' bound flags) hold the final basis
    state, the start of a warm-started related solve.
    ``max_reduced_cost``, the final phase's last full scan's ``max_rc``
    (NaN if none), is at optimality at most ``OPTIMALITY_TOL``.
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
    max_reduced_cost: float = np.nan


@dataclass(frozen=True, eq=False)
class PricingScan:
    """What a full pricing scan saw (see :func:`price_columns`)."""

    entering: tuple[int, float] | None
    candidates: np.ndarray
    max_rc: float


def _chunks(problem: LpProblem, dual_values, include_objective: bool):
    """``(start, reduced costs)`` of each ``PRICE_CHUNK`` span in index
    order, in one reused buffer (fresh ones would re-fault their pages)."""
    duals = np.asarray(dual_values, dtype=float)
    if duals.shape != (problem.n_rows,):
        raise ParameterError("dual vector length must equal the row count")
    buffer = np.empty(min(PRICE_CHUNK, problem.n_columns))
    for start in range(0, problem.n_columns, PRICE_CHUNK):
        stop = min(start + PRICE_CHUNK, problem.n_columns)
        yield start, problem.reduced_costs(
            duals, start, stop, include_objective, out=buffer[: stop - start]
        )


def price_columns(
    problem: LpProblem,
    dual_values: np.ndarray,
    *,
    bland: bool = False,
    include_objective: bool = True,
) -> PricingScan:
    """Scan all structural columns, a chunk at a time, for entering ones.

    ``entering`` is ``(column_index, reduced_cost)``, or None, which
    certifies dual feasibility of ``dual_values`` over every column;
    ``max_rc`` is the largest reduced cost scanned.  ``candidates`` holds
    the ``POOL_PER_CHUNK`` best improving ids of every chunk, best first
    (ties by lowest index), and ``entering`` is its first.  Under
    ``bland`` the first improving column enters, as the only candidate,
    and the scan stops there.
    """
    found_ids, found_rcs = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    max_rc = -np.inf
    for start, rc in _chunks(problem, dual_values, include_objective):
        top = float(rc.max())
        max_rc = max(max_rc, top)
        if not top > OPTIMALITY_TOL:
            continue
        if bland:
            j = int(np.argmax(rc > OPTIMALITY_TOL))
            return PricingScan((start + j, float(rc[j])), np.array([start + j]), max_rc)
        picked = _best_improving(rc, OPTIMALITY_TOL)
        found_ids.append(start + picked)
        found_rcs.append(rc[picked])
    ids, rcs = np.concatenate(found_ids), np.concatenate(found_rcs)
    if not ids.size:
        return PricingScan(None, ids, max_rc)
    # stable: equal costs keep their ascending-id order
    order = np.argsort(-rcs, kind="stable")
    return PricingScan((int(ids[order[0]]), float(rcs[order[0]])), ids[order], max_rc)


def near_columns(problem: LpProblem, duals: np.ndarray, delta: float) -> np.ndarray:
    """Sorted ids of the columns whose phase-two reduced cost at ``duals``
    is above ``-delta``, from one pass over all columns."""
    return np.concatenate(
        [start + np.flatnonzero(rc > -delta) for start, rc in _chunks(problem, duals, True)]
    )


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
    """Every variable of one phase that can enter: the R slacks, then
    candidate structural columns.

    Member ``i < R`` is slack ``i``: working id ``n + i``, column
    ``sign[i]`` times the unit column of row ``i``, cost 0; slacks keep
    these positions and are never shed.  The structural members follow in
    the order they joined.  Four arrays sized exactly to the members hold
    them: ``ids``, ``cols`` (rows x members), ``cost`` (the objective in
    phase two, 0 in phase one) and ``dirn``; :meth:`add` and :meth:`shed`
    replace all four, so a reader must not keep one across a refill.
    ``_sorted`` is ``ids[_order]``, ascending.  A member's direction is +1
    if it may rise from its lower bound, -1 if it may fall from its upper
    bound and 0 if it is basic or fixed, so ``dirn * reduced_costs(y)`` is
    its gain; a new structural member starts at +1.  Basic members are
    priced like the rest: their reduced costs are 0 within rounding, so
    :meth:`shed` never drops one.
    """

    def __init__(self, problem: LpProblem, phase: int, signs: np.ndarray):
        self._problem = problem
        self._phase = phase
        self._slacks = signs.size
        self.ids = np.arange(problem.n_columns, problem.n_columns + signs.size)
        self.cols = np.diag(signs)
        self.cost = np.zeros(signs.size)
        self.dirn = np.zeros(signs.size)
        self._index()

    def _index(self) -> None:
        """Sort the member ids again after they changed."""
        self._order = np.argsort(self.ids, kind="stable")
        self._sorted = self.ids[self._order]

    def positions(self, work_ids) -> np.ndarray:
        """Position in ``ids`` of each of ``work_ids``, -1 for one that is
        no member."""
        at = np.minimum(np.searchsorted(self._sorted, work_ids), self.ids.size - 1)
        return np.where(self._sorted[at] == work_ids, self._order[at], -1)

    def add(self, ids) -> None:
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        new = ids[self.positions(ids) < 0]
        if not new.size:
            return
        cost = self._problem.objective(new) if self._phase == 2 else np.zeros(new.size)
        self.ids = np.concatenate([self.ids, new])
        self.cols = np.concatenate([self.cols, self._problem.columns(new)], axis=1)
        self.cost = np.concatenate([self.cost, cost])
        self.dirn = np.concatenate([self.dirn, np.ones(new.size)])
        self._index()

    def shed(self, y: np.ndarray) -> None:
        """Drop the structural members whose reduced cost is below ``-SHED_TOL``."""
        keep = self.reduced_costs(y) >= -SHED_TOL
        keep[: self._slacks] = True
        if not keep.all():
            self.ids, self.cost, self.dirn = self.ids[keep], self.cost[keep], self.dirn[keep]
            self.cols = self.cols[:, keep]
            self._index()

    def reduced_costs(self, y: np.ndarray) -> np.ndarray:
        """``cost - y @ column`` of every member, in ``ids`` order."""
        return self.cost - y @ self.cols

    def row(self, rho: np.ndarray) -> np.ndarray:
        """``rho @ column`` of every member, in ``ids`` order."""
        return rho @ self.cols


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
        """Start ``phase`` (1 or 2) at ``basis``: a seeded pool, the kept state."""
        self.phase = phase
        self.pool = _Pool(self.p, phase, self.sign[: self.R])
        self.pool.add(self.seed)
        self.max_rc = np.nan  # until the phase's first full scan
        self._load_basis()

    def _effective_rhs(self) -> np.ndarray:
        shift = np.where(self.at_upper, self.sign * self.upper, 0.0)
        return self.b - shift[: self.R] - shift[self.R :]

    # -- steps shared by the primal and the dual loop ---------------

    def _factor(self) -> None:
        """Invert the kept basis matrix afresh."""
        try:
            self.binv = np.linalg.inv(self.bmat)
        except np.linalg.LinAlgError as exc:  # exactly singular basis
            raise EstimationError(f"basis factorization failed: {exc}") from exc
        self.updates = 0

    def _load_basis(self) -> None:
        """Build the kept basis state of ``basis`` (see the module notes)."""
        basis, R = self.basis, self.R
        struct = basis < self.n
        logical = basis[~struct] - self.n  # logical i is sign[i] e_(i % R)
        self.bmat = np.zeros((R, R))
        self.bmat[logical % R, np.flatnonzero(~struct)] = self.sign[logical]
        self.c_basis = np.where(basis >= self.art0, -1.0 if self.phase == 1 else 0.0, 0.0)
        if struct.any():
            self.bmat[:, struct] = self.p.columns(basis[struct])
            if self.phase == 2:
                self.c_basis[struct] = self.p.objective(basis[struct])
        self.ub_basis = np.full(R, np.inf)
        self.ub_basis[~struct] = self.upper[logical]
        self.rhs = self._effective_rhs()
        self.basis_pos = self.pool.positions(basis)
        dirn = self.pool.dirn
        dirn[R:] = 1.0
        dirn[:R] = np.where(self.at_upper[:R], -1.0, 1.0) * (self.upper[:R] > 0.0)
        dirn[self.basis_pos[self.basis_pos >= 0]] = 0.0
        self._factor()

    def _basic_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Basic values ``x`` and duals ``y`` of the kept basis, also kept
        as ``x_basis`` and ``duals``."""
        x = self.binv @ self.rhs
        if not np.isfinite(x).all():
            raise EstimationError("numerical breakdown: non-finite basic solution")
        self.x_basis = x
        self.duals = self.c_basis @ self.binv
        return x, self.duals

    def _replace(self, pos: int, k: int, d: np.ndarray, to_upper: bool) -> None:
        """Pivot the pool member at position ``k`` (``d = B^-1 column``) into
        basis position ``pos``; the leaving variable goes to its upper bound
        if ``to_upper``, else to 0."""
        pool, R = self.pool, self.R
        dirn = pool.dirn
        leaving, out = int(self.basis[pos]), int(self.basis_pos[pos])
        if leaving >= self.n:
            i = leaving - self.n
            self.at_upper[i] = to_upper
            if i < R:  # a slack, at pool position i
                dirn[i] = (-1.0 if to_upper else 1.0) if self.upper[i] > 0.0 else 0.0
        elif to_upper:
            raise EstimationError("structural variable cannot leave at +inf")
        elif out >= 0:
            dirn[out] = 1.0
        flags_changed = to_upper
        if k < R:
            flags_changed |= bool(self.at_upper[k])
            self.at_upper[k] = False
        dirn[k] = 0.0
        if flags_changed:
            self.rhs = self._effective_rhs()
        self.basis[pos], self.basis_pos[pos] = pool.ids[k], k
        self.bmat[:, pos], self.c_basis[pos] = pool.cols[:, k], pool.cost[k]
        self.ub_basis[pos] = self.upper[k] if k < R else np.inf
        if self.updates < _REFACTOR_EVERY and abs(d[pos]) >= _TINY_PIVOT:
            # product form: B'^-1 = E B^-1, E the identity but for column pos
            row = self.binv[pos] / d[pos]
            self.binv -= np.outer(d, row)
            self.binv[pos] = row
            self.updates += 1
        else:
            self._factor()

    @staticmethod
    def _near_min(v: np.ndarray) -> np.ndarray:
        """Entries within a relative 1e-9 of the minimum: ratio-test ties,
        so that last-bit noise cannot pick the pivot."""
        return v <= v.min() * (1.0 + 1e-9) + 1e-15

    # -- the primal loop ---------------------------------------------

    def _entering(self, y: np.ndarray, bland: bool):
        """Pool position of the entering variable at duals ``y``, or None:
        the best improving structural member (else a refilling full scan's
        entering column) against the best slack, by the selection rule of
        the module notes."""
        pool, R = self.pool, self.R
        gain = pool.dirn * pool.reduced_costs(y)
        struct = gain[R:]
        found = None  # (position, reduced cost) of the best structural
        if not bland and struct.size:
            k = int(struct.argmax())
            best = struct[k]
            if best > OPTIMALITY_TOL:
                ties = (struct == best).nonzero()[0]
                if ties.size > 1:
                    k = int(ties[pool.ids[R + ties].argmin()])
                found = R + k, best
        if found is None:
            scan = price_columns(self.p, y, bland=bland, include_objective=self.phase == 2)
            self.max_rc = scan.max_rc
            if scan.entering is not None:
                pool.shed(y)
                pool.add(scan.candidates)
                self.basis_pos = pool.positions(self.basis)
                enter, rc = scan.entering
                found = int(pool.positions(enter)), rc
        slack = gain[:R]
        i = int((slack > OPTIMALITY_TOL).argmax() if bland else slack.argmax())
        if found is not None and (bland or found[1] >= slack[i]):
            return found[0]
        return i if slack[i] > OPTIMALITY_TOL else None

    def _infeasibility(self) -> float:
        art = self.basis >= self.art0
        return float(np.sum(np.maximum(self.x_basis[art], 0.0)))

    def _run_phase(self) -> str:
        """Primal pivots from the kept basis state until the phase ends."""
        stall = 0  # consecutive degenerate steps
        bland = False
        unbounded = np.full(self.R, np.inf)

        while True:
            x, y = self._basic_solution()

            if self.phase == 1 and self._infeasibility() <= FEASIBILITY_TOL:
                return "feasible"

            if self.iterations >= MAX_ITERATIONS:
                return "iteration_limit"

            k = self._entering(y, bland)
            if k is None:
                return "optimal"
            d = self.binv @ self.pool.cols[:, k]
            if not np.isfinite(d).all():
                raise EstimationError("numerical breakdown: non-finite direction")
            step = d if self.pool.dirn[k] > 0.0 else -d  # -1: a slack at its upper bound

            # -- ratio test: x_basis(t) = x_basis - t*step, t >= 0 (no upper bound: room inf)
            positive, negative = step > _PIVOT_TOL, step < -_PIVOT_TOL
            t_low = np.divide(np.maximum(x, 0.0), step, out=unbounded.copy(), where=positive)
            room = np.maximum(self.ub_basis - x, 0.0)
            t_upp = np.divide(room, -step, out=unbounded.copy(), where=negative)
            t_leave = np.minimum(t_low, t_upp)
            t_basic = float(t_leave.min())
            ub_enter = float(self.upper[k]) if k < self.R else np.inf

            if ub_enter <= t_basic:
                # Bound flip: the entering slack traverses its own range.
                if not np.isfinite(ub_enter):
                    return "unbounded"
                self.at_upper[k] = not self.at_upper[k]
                self.pool.dirn[k] = -self.pool.dirn[k]
                self.rhs = self._effective_rhs()
                t = ub_enter
            else:
                tie_pos = np.flatnonzero(self._near_min(t_leave))
                if bland:
                    pos = int(tie_pos[np.argmin(self.basis[tie_pos])])
                else:
                    pos = int(tie_pos[np.argmax(np.abs(step[tie_pos]))])
                self._replace(pos, k, d, t_upp[pos] < t_low[pos])
                t = t_basic

            self.iterations += 1
            stall = stall + 1 if t <= _DEGENERATE_STEP else 0
            bland = stall > _STALL_PER_ROW * self.R

    # -- the dual loop -----------------------------------------------

    def _run_dual(self, start: LpSolution) -> bool:
        """Dual simplex from ``start``'s basis (see the module notes) until
        the basis is primal feasible (True), so phase two can go on from
        the kept state.  False asks for a cold start."""
        R = self.R
        at_upper = start.at_upper.copy()
        at_upper[R:] = False  # a start's residue bounds do not carry over
        if np.any(start.basis >= self.art0) or np.any(at_upper & np.isinf(self.upper)):
            return False
        self.basis = start.basis.copy()
        self.at_upper = at_upper
        self._enter_phase(2)  # no artificial is basic, and none enters
        pool = self.pool
        dirn = pool.dirn  # no refill in this loop: the array stays the pool's
        while True:
            x, y = self._basic_solution()
            d = pool.reduced_costs(y)
            # dirn * d <= 0 is dual feasibility for each member
            if self.iterations == 0 and np.any(dirn * d > OPTIMALITY_TOL):
                return False  # checked once, at the start's basis

            infeasibility = np.maximum(-x, x - self.ub_basis)
            r = int(infeasibility.argmax())
            if infeasibility[r] <= FEASIBILITY_TOL:
                return True
            if self.iterations >= MAX_ITERATIONS:
                return False

            # -- pivot row alpha = e_r B^-1 a over the members
            alpha = pool.row(self.binv[r])
            # a member may enter only if moving it off its own bound pushes
            # x_r back towards the bound it violates (0 from below, or its upper)
            below = x[r] < 0.0
            eligible = ((alpha if below else -alpha) * dirn < -_PIVOT_TOL).nonzero()[0]
            if not eligible.size:
                return False
            ratio = np.maximum(-dirn[eligible] * d[eligible], 0.0) / np.abs(alpha[eligible])
            ties = eligible[self._near_min(ratio)]
            k = int(ties[pool.ids[ties].argmin()])
            self._replace(r, k, self.binv @ pool.cols[:, k], not below)
            self.iterations += 1

    # -- phase transitions and extraction ----------------------------

    def _drop_artificials(self) -> None:
        """End phase one: each basic artificial at exactly 0 gives its basis
        position to its row's slack, whose column is parallel; a residue
        bounds its own artificial, and the others are fixed at 0."""
        art = self.basis >= self.art0
        zero = art & (self.x_basis == 0.0)
        self.basis[zero] -= self.R
        self.at_upper[self.basis[zero] - self.n] = False  # the slack is basic now
        self.upper[self.R :] = 0.0
        self.upper[self.basis[art & ~zero] - self.n] = np.maximum(self.x_basis[art & ~zero], 0.0)

    def _violation_rows(self) -> tuple[int, ...]:
        violated = (self.basis >= self.art0) & (self.x_basis > FEASIBILITY_TOL)
        return tuple(int(i) for i in np.sort(self.basis[violated] - self.art0))

    def extract(self, status: str, infeasible_rows=()) -> LpSolution:
        # the reported masses come from one fresh LU solve of the kept
        # matrix, not from the updated inverse
        x = np.linalg.solve(self.bmat, self.rhs)
        struct = self.basis < self.n
        ids = self.basis[struct]
        vals = np.maximum(x[struct], 0.0)
        keep = vals > 0.0
        ids, vals = ids[keep], vals[keep]
        order = np.argsort(ids, kind="stable")
        ids, vals = ids[order], vals[order]
        return LpSolution(
            status=status,
            columns=ids,
            masses=vals,
            objective=float(self.p.objective(ids) @ vals),
            row_activity=self.p.columns(ids) @ vals,
            duals=self.duals.copy(),
            iterations=self.iterations,
            pool=_sorted_unique(np.concatenate([self.pool.ids[self.R :], ids])),
            infeasible_rows=tuple(infeasible_rows),
            basis=self.basis.copy(),
            at_upper=self.at_upper.copy(),
            max_reduced_cost=self.max_rc,
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
        seed = _sorted_unique(np.concatenate([seed, _seed_ids(start.pool, problem.n_columns)]))
        s = _Simplex(problem, seed)
        if s._run_dual(start):
            return s.extract(s._run_phase())
    s = _Simplex(problem, seed)
    s._enter_phase(1)
    outcome = s._run_phase()
    if outcome == "iteration_limit":
        return s.extract("iteration_limit", s._violation_rows())
    if outcome != "feasible" and s._infeasibility() > FEASIBILITY_TOL:
        return s.extract("infeasible", s._violation_rows())
    s._drop_artificials()
    s._enter_phase(2)
    return s.extract(s._run_phase())


def _check_start(start: LpSolution, problem: LpProblem) -> None:
    """Reject a start whose basis state cannot belong to ``problem``."""
    rows, n_work = problem.n_rows, problem.n_columns + 2 * problem.n_rows
    if start.basis.shape != (rows,) or start.at_upper.shape != (2 * rows,):
        raise ParameterError(f"start needs a basis of {rows} ids and {2 * rows} bound flags")
    if start.basis.min() < 0 or start.basis.max() >= n_work:
        raise ParameterError(f"start basis ids must lie in [0, {n_work})")
    # a row's slack and artificial are parallel columns
    swapped = np.where(start.basis >= n_work - rows, start.basis - rows, start.basis)
    if _sorted_unique(swapped).size != rows:
        raise ParameterError("start basis names an id twice, or a row's slack and artificial both")


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
    return _sorted_unique(ids.astype(np.int64))


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted unique entries of a 1-d array: ``np.unique`` without the
    import of ``numpy.ma`` that its first call costs."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return ids[keep]


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
