"""Command-line entry point and report assembly.

Subcommands
-----------
estimate
    Closed-form or grid-LP estimation on one CSV table, emitting a JSON
    report and optionally an SVG mixture plot.
converge
    Re-solve the unconstrained LP over a sweep of grid resolutions and
    report each achieved entropy against the closed-form maximum of the
    unrelaxed problem; the epsilon relaxation can let the LP exceed it.
bootstrap
    Resample the table, re-estimate per replicate, pool the atoms, and
    re-cluster; deterministic for a fixed seed.
plot
    Re-render the SVG from a previously written JSON report.

Exit codes: 0 for a successful (optimal/complete) run, 2 when the problem
is infeasible, 1 for usage, I/O, or data errors (including R2 targets in
closed-form mode, whose solution is the unconstrained one).

Reports are dictionaries serialized as JSON with ``schema_version`` 2.
Each starts with ``schema_version``, ``command``, ``config`` and
``input``; ``timing`` holds only the iteration count.  Every float is
rounded to 6 significant digits before serialization, and no clock
enters the report, so reruns of a config and input on one machine with
one BLAS kernel produce byte-identical output; wall-clock time goes to
stderr.  Another BLAS kernel (say, ``OPENBLAS_CORETYPE=Haswell``) can
round pricing sums differently and take other pivots to the same
optimum, which changes the iteration counts.  The grid entropies come
from numpy's ``log``, which numpy dispatches to a kernel for the CPU it
runs on; another CPU can round some entropies a last bit apart, with
the same effect.

Every LP is solved once, through :func:`lp_solver.relax_and_retry` with
its only schedule ``(1e-9,)``: the solver's fixed feasibility tolerance
``lp_solver.FEASIBILITY_TOL``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .closed_form import HomogeneousSolution, solve_conditional_homogeneous
from .errors import DegenerateTableError, EstimationError, ParameterError, UndefinedStatisticError
from .grid_lp import CubeGrid, atoms_from_solution, build_problem
from .lp_solver import near_columns, relax_and_retry
from .model import StratifiedTable, odds_ratio
from .postprocess import ADJACENCIES, MixtureSolution, cluster_atoms
from .svgplot import convergence_svg, mixture_svg
from .tables import load_table, resample_table, smooth_table

__all__ = [
    "RunConfig",
    "run_estimate",
    "run_convergence",
    "run_bootstrap",
    "emit_plot",
    "main",
]

SCHEMA_VERSION = 2

DEFAULT_M_SWEEP = tuple(range(25, 100, 5))

#: Replicates are seeded with the columns pricing above -NEAR_DELTA at the baseline.
NEAR_DELTA = 3e-3


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; validated at construction."""

    input_path: str
    mode: str = "lp"  # "closed-form" | "lp"
    m: int = 75
    r2_propensity: float | None = None
    r2_prognosis: float | None = None
    epsilon: float = 1e-3
    adjacency: str = "vertex"
    smooth: bool = False
    replicates: int = 0
    seed: int | None = None
    json_out: str | None = None
    svg_out: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("closed-form", "lp"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ParameterError(
                f"epsilon must be finite and nonnegative, got {self.epsilon}"
            )
        if self.mode == "lp" and self.m < 2:
            raise ParameterError("lp mode requires a grid resolution m >= 2")
        if self.mode == "closed-form" and (
            self.r2_propensity is not None or self.r2_prognosis is not None
        ):
            raise ParameterError(
                "the closed form is the unconstrained solution; R2 targets need lp mode"
            )
        if self.replicates < 0:
            raise ParameterError("replicate count must be >= 0")
        if self.replicates > 0 and self.seed is None:
            raise ParameterError("a seed is required when replicates > 0")
        if self.seed is not None and self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.adjacency not in ADJACENCIES:
            raise ParameterError(
                f"adjacency must be one of {ADJACENCIES}, got {self.adjacency!r}"
            )

    def as_dict(self) -> dict:
        return {
            "input": str(self.input_path),
            "mode": self.mode,
            "m": self.m,
            "r2_propensity": self.r2_propensity,
            "r2_prognosis": self.r2_prognosis,
            "epsilon": self.epsilon,
            "adjacency": self.adjacency,
            "smooth": self.smooth,
            "replicates": self.replicates,
            "seed": self.seed,
        }


def _round6(value):
    """Round every float to 6 significant digits, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ParameterError(f"non-finite value {v} cannot enter a report")
        return float(f"{v:.6g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_round6(v) for v in value.tolist()]
    return value


def _load_input(config: RunConfig) -> StratifiedTable:
    table = load_table(config.input_path)
    if config.smooth:
        table = smooth_table(table)
    return table


def _input_summary(table: StratifiedTable) -> dict:
    pooled = table.pooled()
    try:
        oratio = odds_ratio(pooled)
    except UndefinedStatisticError:
        oratio = None
    return {
        "n_total": table.total,
        "n_categories": table.n_categories,
        "categories": [
            {
                "label": c.label,
                "n01": c.n01,
                "n11": c.n11,
                "n00": c.n00,
                "n10": c.n10,
                "total": c.total,
            }
            for c in table.categories
        ],
        "marginal_exposure": (pooled.n11 + pooled.n10) / pooled.total,
        "marginal_outcome": (pooled.n01 + pooled.n11) / pooled.total,
        "odds_ratio": oratio,
    }


def _homogeneous_dict(label: str, weight: float, sol: HomogeneousSolution) -> dict:
    t = sol.triple
    return {
        "label": label,
        "weight": weight,
        "pi": t.pi,
        "r0": t.r0,
        "r1": t.r1,
        "relative_risk": sol.relative_risk,
        "risk_difference": sol.risk_difference,
        "entropy": sol.entropy_per_individual,
    }


def _closed_form_dict(table: StratifiedTable, strict: bool = False) -> dict | None:
    """Per-category closed form; ``None`` on a degenerate table unless strict."""
    try:
        cond = solve_conditional_homogeneous(table)
    except (DegenerateTableError, UndefinedStatisticError):
        if strict:
            raise
        return None
    return {
        "entropy": cond.entropy_per_individual,
        "components": [
            _homogeneous_dict(label, weight, sol)
            for label, weight, sol in cond.components
        ],
    }


def _cluster_dict(cluster) -> dict:
    return {
        "category": cluster.category,
        "label": cluster.label,
        "mass": cluster.mass,
        "pi": cluster.pi,
        "r0": cluster.r0,
        "r1": cluster.r1,
        "relative_risk": cluster.relative_risk,
        "risk_difference": cluster.risk_difference,
        "n_atoms": len(cluster.atoms),
    }


def _mixture_dict(mix: MixtureSolution) -> dict:
    return {
        "clusters": [_cluster_dict(c) for c in mix.clusters],
        "dust": [_cluster_dict(c) for c in mix.dust],
        "entropy": mix.entropy,
        "entropy_raw": mix.entropy_raw,
        "max_residual": mix.max_residual,
        "residuals": mix.residuals,
    }


def _atom_dict(atom) -> dict:
    return {
        "category": atom.category,
        "label": atom.label,
        "j": atom.j,
        "k": atom.k,
        "l": atom.l,
        "pi": atom.pi,
        "r0": atom.r0,
        "r1": atom.r1,
        "mass": atom.mass,
    }


def _solve_lp(config: RunConfig, table: StratifiedTable, start=None):
    """Shared LP pipeline: build the grid problem and solve it, from the
    solution ``start`` when given (see :func:`lp_solver.solve`)."""
    problem = build_problem(
        table,
        config.m,
        r2_propensity=config.r2_propensity,
        r2_prognosis=config.r2_prognosis,
        epsilon=config.epsilon,
    )
    solution = relax_and_retry(problem.as_lp(), (1e-9,), start=start)
    return problem, solution


def _report(command: str, settings: dict, table: StratifiedTable, **fields) -> dict:
    """A rounded report: the keys every command starts with, then
    ``fields`` in the order given."""
    return _round6(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": settings,
            "input": _input_summary(table),
            **fields,
        }
    )


def run_estimate(config: RunConfig) -> dict:
    """One estimation run; see the module docstring for the report shape."""
    table = _load_input(config)
    closed_form = _closed_form_dict(table, strict=config.mode == "closed-form")

    if config.mode == "closed-form":
        entropy = closed_form["entropy"]
        return _report(
            "estimate", config.as_dict(), table,
            closed_form=closed_form,
            status="optimal",
            solution={"kind": "homogeneous", "components": closed_form["components"]},
            entropy={"achieved": entropy, "closed_form_bound": entropy},
            timing={"iterations": 0},
        )

    problem, solution = _solve_lp(config, table)
    lp_info = {
        "status": solution.status,
        "objective": solution.objective,
        "iterations": solution.iterations,
        "n_rows": problem.n_rows,
        "n_columns": problem.n_columns,
        "infeasible_rows": list(solution.infeasible_rows),
    }
    solution_dict = {"kind": "mixture", "lp": lp_info}
    optimal_only = {}
    if solution.status == "optimal":
        atoms = atoms_from_solution(problem, solution)
        mix = cluster_atoms(problem, atoms, adjacency=config.adjacency)
        atom_residuals = problem.residuals(problem.activities(atoms))
        lp_info["max_residual_atoms"] = float(np.max(atom_residuals, initial=0.0))
        solution_dict["atoms"] = [_atom_dict(a) for a in atoms]
        solution_dict["mixture"] = _mixture_dict(mix)
        bound = closed_form["entropy"] if closed_form else None
        optimal_only["entropy"] = {
            "achieved": solution.objective,
            "closed_form_bound": bound,
            "gap": (bound - solution.objective) if bound is not None else None,
        }
    return _report(
        "estimate", config.as_dict(), table,
        closed_form=closed_form,
        status=solution.status,
        timing={"iterations": solution.iterations},
        solution=solution_dict,
        **optimal_only,
    )


def run_convergence(config: RunConfig, m_values=DEFAULT_M_SWEEP) -> dict:
    """Entropy-vs-resolution sweep of the unconstrained LP.

    Requires a config without variance targets so the closed-form
    conditional solution is the exact continuum optimum of the unrelaxed
    problem.  Each point's ``gap`` is that closed form minus the LP's
    entropy.  It is measured against the unrelaxed closed form, so it
    goes negative when the epsilon relaxation lets the LP exceed it:
    table1 at epsilon 1.5e-3 gives -0.1195, -0.1218 and -0.1223 at
    m = 25, 50 and 75.  Each resolution is solved on its own, its pool
    seeded with the cell block around each category's continuum point
    (see :meth:`grid_lp.DiscretizedProblem.as_lp`).
    """
    if config.r2_propensity is not None or config.r2_prognosis is not None:
        raise ParameterError(
            "the convergence study uses the unconstrained problem; "
            "remove the R2 targets"
        )
    m_values = [int(m) for m in m_values]
    if not m_values:
        raise ParameterError("at least one m value is needed")
    if any(m < 2 for m in m_values):
        raise ParameterError("m values must all be >= 2")
    for m in m_values:
        CubeGrid(m)  # rejects a resolution above MAX_RESOLUTION before any solve
    table = _load_input(config)
    reference = solve_conditional_homogeneous(table).entropy_per_individual
    series = []
    total_iterations = 0
    n_ok = 0
    for m in m_values:
        _, solution = _solve_lp(dataclasses.replace(config, m=m), table)
        total_iterations += solution.iterations
        point = {
            "m": m,
            "status": solution.status,
            "entropy": solution.objective if solution.status == "optimal" else None,
            "gap": (reference - solution.objective)
            if solution.status == "optimal"
            else None,
            "iterations": solution.iterations,
        }
        n_ok += solution.status == "optimal"
        series.append(point)
    settings = config.as_dict()
    del settings["m"], settings["adjacency"]  # the sweep sets m and clusters nothing
    return _report(
        "converge", {**settings, "m_values": m_values}, table,
        reference_entropy=reference,
        series=series,
        status="complete" if n_ok else "infeasible",
        timing={"iterations": total_iterations},
    )


def run_bootstrap(config: RunConfig) -> dict:
    """Pooled-resampling stability study.

    Draws the replicate tables in order from one seeded generator, solves
    each replicate with the same LP config, pools the raw atoms of the
    successful replicates with mass divided by their count, and clusters
    the pool against the original problem's rows (so reported residuals
    measure drift from the observed table, not from any replicate).  A
    replicate whose table cannot be posed (a category or margin drew no
    individuals) is listed as ``degenerate`` and dropped; the draws of
    the others do not change.  Every replicate's solve starts from the
    baseline solution: its pool joins the replicate's seed and, when the
    baseline is optimal, its basis is the warm start.  A replicate
    changes only the right-hand side and the marginals in the variance
    rows, so that basis stays dual feasible and a few dual simplex pivots
    restore primal feasibility.  An optimal baseline's near set
    (:func:`lp_solver.near_columns` at its duals and ``NEAR_DELTA``) joins
    that seed too, so the dual pivots see the columns the replicates'
    duals may price in.  An infeasible baseline holds a basic artificial,
    which sends the replicate to a cold start.
    """
    if config.replicates < 1:
        raise ParameterError("bootstrap needs replicates >= 1")
    if config.mode != "lp":
        raise ParameterError("bootstrap operates on lp mode only")
    table = _load_input(config)
    rng = np.random.default_rng(config.seed)
    base_problem, base_solution = _solve_lp(config, table)
    start, baseline = base_solution, None
    if base_solution.status == "optimal":
        near = near_columns(base_problem.as_lp(), base_solution.duals, NEAR_DELTA)
        start = dataclasses.replace(base_solution, pool=np.concatenate([base_solution.pool, near]))
        base_atoms = atoms_from_solution(base_problem, base_solution)
        baseline = _mixture_dict(
            cluster_atoms(base_problem, base_atoms, adjacency=config.adjacency)
        )

    per_replicate = []
    pooled_atoms = []
    total_iterations = base_solution.iterations
    for index in range(config.replicates):
        try:
            rep_table = resample_table(table, rng)
            # seed and start each solve from the baseline only, so a
            # replicate depends on nothing but the baseline and its own table
            rep_problem, rep_solution = _solve_lp(config, rep_table, start=start)
        except DegenerateTableError:
            per_replicate.append({"replicate": index, "status": "degenerate", "iterations": 0})
            continue
        total_iterations += rep_solution.iterations
        per_replicate.append(
            {
                "replicate": index,
                "status": rep_solution.status,
                "iterations": rep_solution.iterations,
            }
        )
        if rep_solution.status == "optimal":
            pooled_atoms.append(atoms_from_solution(rep_problem, rep_solution))
        del rep_problem, rep_solution  # not alive while the next replicate builds its grid

    n_ok = len(pooled_atoms)
    solution_dict = {"kind": "mixture"}
    status = "infeasible"
    if n_ok:
        # Pool raw atoms at 1/n_ok weight; cells are shared across
        # replicates (same grid), so clustering sees one atom per cell.
        weight = 1.0 / n_ok
        merged: dict[tuple[int, int, int, int], float] = {}
        proto: dict[tuple[int, int, int, int], object] = {}
        for atoms in pooled_atoms:
            for a in atoms:
                key = (a.category, a.j, a.k, a.l)
                merged[key] = merged.get(key, 0.0) + a.mass * weight
                proto[key] = a
        pooled = tuple(
            dataclasses.replace(proto[key], mass=mass)
            for key, mass in sorted(merged.items())
        )
        mix = cluster_atoms(base_problem, pooled, adjacency=config.adjacency)
        solution_dict["mixture"] = _mixture_dict(mix)
        solution_dict["n_pooled_atoms"] = len(pooled)
        status = "optimal"
    return _report(
        "bootstrap", config.as_dict(), table,
        baseline=baseline,
        replicates={
            "requested": config.replicates,
            "succeeded": n_ok,
            "dropped": config.replicates - n_ok,
            "per_replicate": per_replicate,
        },
        status=status,
        solution=solution_dict,
        timing={"iterations": total_iterations},
    )


def emit_plot(report: dict, path) -> None:
    """Write the SVG corresponding to a report dictionary.

    Raises :class:`ParameterError` for anything that is not a plottable
    report.
    """
    if not isinstance(report, dict):
        raise ParameterError("not a report: expected a JSON object")
    try:
        svg = _report_svg(report)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParameterError(
            f"malformed {report.get('command')!r} report: {exc!r}"
        ) from exc
    Path(path).write_text(svg, encoding="utf-8")


def _report_svg(report: dict) -> str:
    command = report.get("command")
    if command in ("estimate", "bootstrap"):
        solution = report.get("solution") or {}
        mixture = solution.get("mixture")
        if mixture is None:
            if command == "estimate" and solution.get("kind") == "homogeneous":
                clusters = [
                    {
                        "pi": comp["pi"],
                        "r0": comp["r0"],
                        "r1": comp["r1"],
                        "mass": comp["weight"],
                    }
                    for comp in solution["components"]
                ]
                svg = mixture_svg(clusters)
            else:
                raise ParameterError("report contains no mixture to plot")
        else:
            svg = mixture_svg(mixture["clusters"])
    elif command == "converge":
        points = [(p["m"], p["entropy"]) for p in report["series"]]
        svg = convergence_svg(points, report["reference_entropy"])
    else:
        raise ParameterError(f"cannot plot a {command!r} report")
    return svg


def _add_common(parser: argparse.ArgumentParser, single_grid: bool = True) -> None:
    """Options of every solving command; ``single_grid`` adds the ones
    that only a run on one fixed grid uses (resolution, R2 targets,
    clustering)."""
    parser.add_argument("--input", required=True, help="input CSV table")
    if single_grid:
        parser.add_argument("--m", type=int, default=75, help="grid resolution")
        parser.add_argument(
            "--r2-propensity", type=float, default=None,
            help="target discrimination R2 of the exposure model",
        )
        parser.add_argument(
            "--r2-prognosis", type=float, default=None,
            help="target discrimination R2 of the outcome model",
        )
        parser.add_argument(
            "--adjacency", choices=ADJACENCIES, default="vertex",
            help="cell adjacency used when merging solution atoms into clusters",
        )
    parser.add_argument(
        "--epsilon", type=float, default=1e-3,
        help="two-sided relaxation of the frequency-matching rows",
    )
    parser.add_argument(
        "--smooth", action="store_true",
        help="add 0.5 to every cell before estimation",
    )
    parser.add_argument("--json-out", default=None, help="report path (default stdout)")
    parser.add_argument("--svg-out", default=None, help="also write an SVG plot")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxent-effects",
        description="Maximum-entropy estimation of heterogeneous exposure "
        "effects from stratified 2x2 tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="closed-form or LP estimation")
    est.add_argument(
        "--mode", choices=("closed-form", "lp"), default="lp",
        help="estimator to run",
    )
    _add_common(est)

    # no prefix matching: "--m" must not silently mean "--m-values"
    conv = sub.add_parser(
        "converge", help="entropy vs grid resolution study", allow_abbrev=False
    )
    _add_common(conv, single_grid=False)
    conv.add_argument(
        "--m-values", default=",".join(str(m) for m in DEFAULT_M_SWEEP),
        help="comma-separated grid resolutions",
    )

    boot = sub.add_parser("bootstrap", help="resampling stability study")
    _add_common(boot)
    boot.add_argument("--replicates", type=int, default=50)
    boot.add_argument("--seed", type=int, required=True)

    plot = sub.add_parser("plot", help="render an SVG from a JSON report")
    plot.add_argument("--input", required=True, help="JSON report path")
    plot.add_argument("--svg-out", required=True, help="output SVG path")
    return parser


def _config_from_args(args) -> RunConfig:
    optional = ("mode", "m", "r2_propensity", "r2_prognosis", "adjacency",
                "replicates", "seed")
    return RunConfig(
        input_path=args.input,
        epsilon=args.epsilon,
        smooth=args.smooth,
        json_out=args.json_out,
        svg_out=args.svg_out,
        **{name: getattr(args, name) for name in optional if hasattr(args, name)},
    )


_EXIT_BY_STATUS = {"optimal": 0, "complete": 0, "infeasible": 2}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_info:
        return 0 if exit_info.code in (0, None) else 1

    started = time.perf_counter()
    try:
        if args.command == "plot":
            report = json.loads(Path(args.input).read_text(encoding="utf-8"))
            emit_plot(report, args.svg_out)
            return 0
        config = _config_from_args(args)
        if args.command == "estimate":
            report = run_estimate(config)
        elif args.command == "converge":
            m_values = [int(v) for v in str(args.m_values).split(",") if v]
            report = run_convergence(config, m_values)
        else:
            report = run_bootstrap(config)
        text = json.dumps(report, indent=2) + "\n"
        if config.json_out:
            Path(config.json_out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        if config.svg_out:
            try:
                emit_plot(report, config.svg_out)
            except ParameterError as exc:
                print(f"plot skipped: {exc}", file=sys.stderr)
    except (EstimationError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - started
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return _EXIT_BY_STATUS.get(report["status"], 1)


if __name__ == "__main__":
    sys.exit(main())
