"""Command-line entry point and report assembly.

Subcommands
-----------
estimate
    Closed-form or grid-LP estimation on one CSV table, emitting a JSON
    report and optionally an SVG mixture plot.
converge
    Re-solve the unconstrained LP over a sweep of grid resolutions and
    report each achieved entropy against the closed-form maximum.
bootstrap
    Resample the table, re-estimate per replicate, pool the atoms, and
    re-cluster; deterministic for a fixed seed.
plot
    Re-render the SVG from a previously written JSON report.

Exit codes: 0 for a successful (optimal/complete) run, 2 when the problem
is infeasible, 1 for usage, I/O, or data errors.

Reports are dictionaries serialized as JSON with ``schema_version`` 2.
Every float is rounded to 6 significant digits before serialization, and
nothing time- or machine-dependent enters the report (iteration counts
stand in for timing), so a given config and input produce byte-identical
output; wall-clock time goes to stderr.

Schema 2 dropped ``config.tol_schedule`` and ``solution.lp.stages`` with
the ``--tol-schedule`` option (every LP is solved at feasibility
tolerance 1e-9), and the ``converge`` command no longer takes or records
``--m`` and ``--adjacency``, which it never used.
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
from .grid_lp import DiscretizedProblem, atoms_from_solution, build_problem
from .lp_solver import relax_and_retry
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
        if self.mode == "lp" and self.m < 2:
            raise ParameterError("lp mode requires a grid resolution m >= 2")
        if self.replicates < 0:
            raise ParameterError("replicate count must be >= 0")
        if self.replicates > 0 and self.seed is None:
            raise ParameterError("a seed is required when replicates > 0")
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


def _solve_lp(config: RunConfig, table: StratifiedTable):
    """Shared LP pipeline: build the grid problem and solve it."""
    problem = build_problem(
        table,
        config.m,
        r2_propensity=config.r2_propensity,
        r2_prognosis=config.r2_prognosis,
        epsilon=config.epsilon,
    )
    solution = relax_and_retry(problem.as_lp(), (1e-9,))  # one stage
    return problem, solution


def run_estimate(config: RunConfig) -> dict:
    """One estimation run; see the module docstring for the report shape."""
    table = _load_input(config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "config": config.as_dict(),
        "input": _input_summary(table),
        "closed_form": _closed_form_dict(table, strict=config.mode == "closed-form"),
    }

    if config.mode == "closed-form":
        closed_form = report["closed_form"]
        entropy = closed_form["entropy"]
        report["status"] = "optimal"
        report["solution"] = {
            "kind": "homogeneous",
            "components": closed_form["components"],
        }
        report["entropy"] = {"achieved": entropy, "closed_form_bound": entropy}
        report["timing"] = {"iterations": 0}
        return _round6(report)

    problem, solution = _solve_lp(config, table)
    lp_info = {
        "status": solution.status,
        "objective": solution.objective,
        "iterations": solution.iterations,
        "n_rows": problem.n_rows,
        "n_columns": problem.n_columns,
        "infeasible_rows": list(solution.infeasible_rows),
    }
    report["status"] = solution.status
    report["timing"] = {"iterations": solution.iterations}
    if solution.status not in ("optimal",):
        report["solution"] = {"kind": "mixture", "lp": lp_info}
        return _round6(report)

    atoms = atoms_from_solution(problem, solution)
    mix = cluster_atoms(problem, atoms, adjacency=config.adjacency)
    atom_residuals = problem.residuals(problem.activities(atoms))
    lp_info["max_residual_atoms"] = float(np.max(atom_residuals, initial=0.0))
    bound = report["closed_form"]["entropy"] if report["closed_form"] else None
    report["solution"] = {
        "kind": "mixture",
        "lp": lp_info,
        "atoms": [_atom_dict(a) for a in atoms],
        "mixture": _mixture_dict(mix),
    }
    report["entropy"] = {
        "achieved": solution.objective,
        "closed_form_bound": bound,
        "gap": (bound - solution.objective) if bound is not None else None,
    }
    return _round6(report)


def run_convergence(config: RunConfig, m_values=DEFAULT_M_SWEEP) -> dict:
    """Entropy-vs-resolution sweep of the unconstrained LP.

    Requires a config without variance targets so the closed-form
    conditional solution is the exact continuum optimum the LP converges
    to from below (up to the epsilon relaxation).
    """
    if config.r2_propensity is not None or config.r2_prognosis is not None:
        raise ParameterError(
            "the convergence study uses the unconstrained problem; "
            "remove the R2 targets"
        )
    m_values = [int(m) for m in m_values]
    if not m_values or any(m < 2 for m in m_values):
        raise ParameterError("m values must all be >= 2")
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
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "converge",
        "config": {**settings, "m_values": m_values},
        "input": _input_summary(table),
        "reference_entropy": reference,
        "series": series,
        "status": "complete" if n_ok else "infeasible",
        "timing": {"iterations": total_iterations},
    }
    return _round6(report)


def run_bootstrap(config: RunConfig) -> dict:
    """Pooled-resampling stability study.

    Draws all replicate tables up front from one seeded generator, solves
    each replicate with the same LP config, pools the raw atoms of the
    successful replicates with mass divided by their count, and clusters
    the pool against the original problem's rows (so reported residuals
    measure drift from the observed table, not from any replicate).
    """
    if config.replicates < 1:
        raise ParameterError("bootstrap needs replicates >= 1")
    if config.mode != "lp":
        raise ParameterError("bootstrap operates on lp mode only")
    table = _load_input(config)
    rng = np.random.default_rng(config.seed)
    replicate_tables = [
        resample_table(table, rng) for _ in range(config.replicates)
    ]

    base_problem, base_solution = _solve_lp(config, table)
    baseline = None
    if base_solution.status == "optimal":
        base_atoms = atoms_from_solution(base_problem, base_solution)
        baseline = _mixture_dict(
            cluster_atoms(base_problem, base_atoms, adjacency=config.adjacency)
        )

    per_replicate = []
    pooled_atoms = []
    total_iterations = base_solution.iterations
    for index, rep_table in enumerate(replicate_tables):
        rep_problem, rep_solution = _solve_lp(config, rep_table)
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
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "bootstrap",
        "config": config.as_dict(),
        "input": _input_summary(table),
        "baseline": baseline,
        "replicates": {
            "requested": config.replicates,
            "succeeded": n_ok,
            "dropped": config.replicates - n_ok,
            "per_replicate": per_replicate,
        },
        "status": status,
        "solution": solution_dict,
        "timing": {"iterations": total_iterations},
    }
    return _round6(report)


def emit_plot(report: dict, path) -> None:
    """Write the SVG corresponding to a report dictionary."""
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
    Path(path).write_text(svg, encoding="utf-8")


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
    except (EstimationError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    elapsed = time.perf_counter() - started
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return _EXIT_BY_STATUS.get(report["status"], 1)


if __name__ == "__main__":
    sys.exit(main())
