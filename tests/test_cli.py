"""Report assembly, determinism, exit codes, and SVG rendering."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import maxent_effects
from maxent_effects import cli, lp_solver
from maxent_effects.cli import (
    RunConfig,
    emit_plot,
    main,
    run_bootstrap,
    run_convergence,
    run_estimate,
)
from maxent_effects.datasets import fixture_path
from maxent_effects.errors import ParameterError
from maxent_effects.grid_lp import DiscretizedProblem
from maxent_effects.svgplot import convergence_svg, mixture_svg

MARGINAL = str(fixture_path("table2.csv"))
STRATIFIED = str(fixture_path("table1.csv"))


def small_lp_config(**overrides):
    base = dict(input_path=MARGINAL, mode="lp", m=16, epsilon=0.01)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig(input_path="x.csv")
        assert config.mode == "lp"
        assert config.adjacency == "vertex"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", mode="bayes")

    def test_tiny_grid_rejected_for_lp(self):
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", m=1)

    def test_negative_replicates_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", replicates=-1)

    def test_replicates_require_a_seed(self):
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", replicates=5)
        RunConfig(input_path="x.csv", replicates=5, seed=1)

    def test_unknown_adjacency_rejected(self):
        with pytest.raises(ParameterError):
            RunConfig(input_path="x.csv", adjacency="corner")

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ParameterError, match="seed"):
            RunConfig(input_path="x.csv", replicates=2, seed=-1)
        assert RunConfig(input_path="x.csv", replicates=2, seed=0).seed == 0

    def test_closed_form_rejects_r2_targets(self):
        # the closed form is the unconstrained optimum; a target would be ignored
        for target in ({"r2_propensity": 0.3}, {"r2_prognosis": 0.2}):
            with pytest.raises(ParameterError, match="R2"):
                RunConfig(input_path="x.csv", mode="closed-form", **target)

    @pytest.mark.parametrize("epsilon", (-1.0, -1e-12, float("inf"), float("nan")))
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        for mode in ("lp", "closed-form"):
            with pytest.raises(ParameterError, match="epsilon"):
                RunConfig(input_path="x.csv", mode=mode, epsilon=epsilon)
        assert RunConfig(input_path="x.csv", epsilon=0.0).epsilon == 0.0

    def test_as_dict_round_trips_through_json(self):
        config = small_lp_config(r2_propensity=0.3, seed=11, replicates=2)
        text = json.dumps(config.as_dict())
        assert json.loads(text)["m"] == 16
        assert json.loads(text)["adjacency"] == "vertex"


HEAD_KEYS = ["schema_version", "command", "config", "input"]

HEADER = "category,exposure,outcome,count\n"

#: Tables every command must reject with one error line, never a traceback,
#: and a fragment of that line.
DEGENERATE_TABLES = {
    "empty-file": ("", "empty input"),
    "header-only": (HEADER, "no data rows"),
    "nan-count": (HEADER + "a,0,0,nan\n", "count must be finite"),
    "category-without-individuals": (
        HEADER + "a,0,0,0\na,1,1,0\nb,0,0,3\nb,1,1,2\n", "'a' has no individuals"
    ),
    # one field longer than the csv module's 131,072-character limit
    "oversized-field": (
        HEADER + "a,0,0," + "1" * 140_000 + "\n", "line 2: field larger than field limit"
    ),
    # each category's total is finite, their sum is not
    "grand-total-overflows": (
        HEADER + "".join(
            f"{c},{e},{d},{1e308 if (e, d) == (0, 0) else 1}\n"
            for c in "ab" for e in (0, 1) for d in (0, 1)
        ),
        "overflows the float range at category 'b'",
    ),
    "category-total-overflows": (
        HEADER + "".join(f"a,{e},{d},1e308\n" for e in (0, 1) for d in (0, 1)),
        "counts of 'a' sum to inf",
    ),
}

COMMANDS = {
    "estimate-lp": ["estimate", "--m", "4"],
    "estimate-closed-form": ["estimate", "--mode", "closed-form"],
    "converge": ["converge", "--m-values", "4"],
    "bootstrap": ["bootstrap", "--m", "4", "--replicates", "2", "--seed", "1"],
}


class TestEstimateReport:
    def test_closed_form_report_shape(self):
        report = run_estimate(
            RunConfig(input_path=MARGINAL, mode="closed-form")
        )
        assert list(report)[:4] == HEAD_KEYS
        assert report["schema_version"] == 2
        assert "tol_schedule" not in report["config"]
        assert report["command"] == "estimate"
        assert report["status"] == "optimal"
        assert report["solution"]["kind"] == "homogeneous"
        (component,) = report["solution"]["components"]
        assert component["pi"] == pytest.approx(0.366381, abs=1e-6)
        assert component["r0"] == pytest.approx(0.018916, abs=1e-6)
        assert component["r1"] == pytest.approx(0.321486, abs=1e-6)
        assert report["entropy"]["achieved"] == pytest.approx(0.946511, abs=1e-6)
        assert report["timing"] == {"iterations": 0}
        # every command writes the same four head keys and an iteration-only
        # timing; the JSON key order is part of the report
        reports = {
            "estimate": run_estimate(small_lp_config()),
            "converge": run_convergence(
                RunConfig(input_path=MARGINAL, epsilon=0.01), m_values=(8, 12)
            ),
            "bootstrap": run_bootstrap(small_lp_config(replicates=2, seed=3)),
        }
        for command, other in reports.items():
            assert list(other)[:4] == HEAD_KEYS
            assert other["schema_version"] == 2
            assert other["command"] == command
            assert other["input"] == report["input"]
            assert list(other["timing"]) == ["iterations"]
            assert other["timing"]["iterations"] > 0
        assert list(reports["estimate"])[4:] == [
            "closed_form", "status", "timing", "solution", "entropy"
        ]
        assert list(reports["converge"])[4:] == [
            "reference_entropy", "series", "status", "timing"
        ]
        assert list(reports["bootstrap"])[4:] == [
            "baseline", "replicates", "status", "solution", "timing"
        ]
        assert list(report)[4:] == [
            "closed_form", "status", "solution", "entropy", "timing"
        ]

    def test_lp_report_carries_mixture_and_gap(self):
        report = run_estimate(small_lp_config())
        assert report["status"] == "optimal"
        lp = report["solution"]["lp"]
        assert lp["n_rows"] == 4
        assert lp["n_columns"] == 16 ** 3
        assert "stages" not in lp
        assert report["solution"]["mixture"]["clusters"]
        # the 0.01 row slack lets the LP beat the continuum optimum by up
        # to the entropy modulus of the drift, and lets total mass drift
        # by up to one slack per row
        slack = 4 * (-0.01 * np.log(0.01)) + 8 * 0.01
        assert report["entropy"]["gap"] >= -slack
        total = sum(a["mass"] for a in report["solution"]["atoms"])
        assert total == pytest.approx(1.0, abs=4 * 0.01 + 1e-5)

    def test_every_float_is_rounded_to_6_significant_digits(self):
        report = run_estimate(small_lp_config())

        def walk(node):
            if isinstance(node, float):
                assert float(f"{node:.6g}") == node
            elif isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(report)

    def test_reports_are_byte_identical_across_runs(self):
        config = small_lp_config()
        first = json.dumps(run_estimate(config), sort_keys=True)
        second = json.dumps(run_estimate(config), sort_keys=True)
        assert first == second

    def test_infeasible_grid_reported_not_raised(self):
        # m=10 cannot reach the marginal baseline risk 81/6758 at eps=1e-6
        report = run_estimate(small_lp_config(m=10, epsilon=1e-6))
        assert report["status"] == "infeasible"
        assert report["solution"]["lp"]["infeasible_rows"]
        assert "mixture" not in report["solution"]

    def test_adjacency_choice_recorded_and_applied(self):
        vertex = run_estimate(small_lp_config())
        face = run_estimate(small_lp_config(adjacency="face"))
        assert vertex["config"]["adjacency"] == "vertex"
        assert face["config"]["adjacency"] == "face"
        n_vertex = len(vertex["solution"]["mixture"]["clusters"])
        n_face = len(face["solution"]["mixture"]["clusters"])
        assert n_vertex <= n_face


    def test_every_optimal_solve_is_certified(self, monkeypatch):
        calls = record_pools(monkeypatch)
        for config in (small_lp_config(), small_lp_config(r2_propensity=0.1, r2_prognosis=0.05),
                       small_lp_config(input_path=STRATIFIED)):
            assert run_estimate(config)["status"] == "optimal"
        assert len(calls) == 3
        for call in calls:
            assert_certified(call.problem, call.solution)


class TestConvergenceReport:
    def test_sweep_records_gap_per_resolution(self):
        config = RunConfig(input_path=MARGINAL, epsilon=0.01)
        report = run_convergence(config, m_values=(16, 24))
        assert report["command"] == "converge"
        assert report["status"] == "complete"
        ms = [point["m"] for point in report["series"]]
        assert ms == [16, 24]
        for point in report["series"]:
            assert point["status"] == "optimal"
            assert point["gap"] == pytest.approx(
                report["reference_entropy"] - point["entropy"], rel=1e-4
            )

    def test_each_resolution_seeded_with_its_cell_block(self, monkeypatch):
        config = RunConfig(input_path=STRATIFIED, epsilon=0.01)
        m_values = (10, 16, 8)
        calls = record_pools(monkeypatch)
        seeded = run_convergence(config, m_values=m_values)
        for call, m in zip(calls, m_values):
            # at most 8 cells of each of the 10 categories, none carried
            # over from another resolution, and no start
            assert 0 < call.problem.seed.size <= 80
            assert call.problem.n_columns == 10 * m**3
            assert call.start is None
        monkeypatch.undo()
        unseeded_calls = record_pools(monkeypatch, seeded=False)
        unseeded = run_convergence(config, m_values=m_values)
        assert all(call.problem.seed.size == 0 for call in unseeded_calls)
        assert without_iterations(seeded) == without_iterations(unseeded)
        assert seeded["timing"]["iterations"] < unseeded["timing"]["iterations"]

    def test_rejects_variance_targets(self):
        config = RunConfig(input_path=MARGINAL, r2_propensity=0.3)
        with pytest.raises(ParameterError):
            run_convergence(config, m_values=(12,))

    def test_rejects_bad_m_values(self):
        config = RunConfig(input_path=MARGINAL)
        with pytest.raises(ParameterError):
            run_convergence(config, m_values=())
        with pytest.raises(ParameterError):
            run_convergence(config, m_values=(12, 1))

    def test_config_omits_settings_the_sweep_ignores(self):
        config = RunConfig(input_path=MARGINAL, epsilon=0.01)
        report = run_convergence(config, m_values=(12,))
        assert "m" not in report["config"]
        assert "adjacency" not in report["config"]
        assert report["config"]["m_values"] == [12]

    def test_infeasible_points_recorded(self):
        config = RunConfig(input_path=MARGINAL, epsilon=1e-6)
        report = run_convergence(config, m_values=(10,))
        assert report["status"] == "infeasible"
        assert report["series"][0]["entropy"] is None


def without_iterations(report):
    """The report with every ``iterations`` field removed, recursively."""
    if isinstance(report, dict):
        return {k: without_iterations(v) for k, v in report.items() if k != "iterations"}
    if isinstance(report, list):
        return [without_iterations(v) for v in report]
    return report


class Call(NamedTuple):
    problem: lp_solver.LpProblem
    start: object
    solution: lp_solver.LpSolution


def record_pools(monkeypatch, seeded=True):
    """Spy on the CLI's solves: record a :class:`Call` (problem, start,
    solution) of each.  When ``seeded`` is false, every grid LP is built
    without a pool seed and solved without the start, a true cold solve."""
    calls = []
    real = cli.relax_and_retry

    def spy(problem, schedule, start=None):
        sol = real(problem, schedule, start=start if seeded else None)
        calls.append(Call(problem, start, sol))
        return sol

    monkeypatch.setattr(cli, "relax_and_retry", spy)
    if not seeded:
        monkeypatch.setattr(DiscretizedProblem, "as_lp", unseeded_lp)
    return calls


def unseeded_lp(grid):
    """The LP of ``grid``, a :class:`DiscretizedProblem`, without a seed."""
    return lp_solver.LpProblem(
        grid.lower,
        grid.upper,
        grid.n_columns,
        columns_fn=grid._columns,
        objective_fn=grid._objective,
        reduced_cost_fn=grid._reduced_costs,
    )


def assert_certified(problem, solution):
    """Check an optimal solve's certificate from its duals y: no column
    prices above ``OPTIMALITY_TOL`` (as its recorded ``max_reduced_cost``
    says), y <= 0 on every inequality row, and the dual bound (y * upper
    where y > 0, else y * lower) is at most 1e-9 above the objective."""
    y = solution.duals
    inequality = np.isinf(problem.upper)
    assert np.all(y[inequality] <= 1e-12)
    upper = np.where(inequality, 0.0, problem.upper)
    bound = np.maximum(y, 0.0) @ upper + np.minimum(y, 0.0) @ problem.lower
    assert bound - solution.objective <= 1e-9
    scan = lp_solver.price_columns(problem, y)
    assert scan.entering is None
    assert solution.max_reduced_cost <= lp_solver.OPTIMALITY_TOL
    assert solution.max_reduced_cost == pytest.approx(scan.max_rc, abs=1e-12)


class TestBootstrapReport:
    def test_pooled_mixture_and_replicate_log(self):
        config = small_lp_config(replicates=3, seed=17)
        report = run_bootstrap(config)
        assert report["command"] == "bootstrap"
        assert report["replicates"]["requested"] == 3
        assert report["replicates"]["succeeded"] == 3
        assert len(report["replicates"]["per_replicate"]) == 3
        assert report["baseline"]["clusters"]
        mixture = report["solution"]["mixture"]
        total = sum(c["mass"] for c in mixture["clusters"] + mixture["dust"])
        # each replicate's mass drifts by at most one 0.01 slack per row
        assert total == pytest.approx(1.0, abs=4 * 0.01 + 1e-4)

    def test_seeded_bootstrap_is_deterministic(self):
        config = small_lp_config(replicates=2, seed=23)
        first = json.dumps(run_bootstrap(config), sort_keys=True)
        second = json.dumps(run_bootstrap(config), sort_keys=True)
        assert first == second

    def test_replicates_seeded_from_the_baseline_pool(self, monkeypatch):
        # both variance rows, as in the benchmark's bootstrap workload
        config = small_lp_config(replicates=4, seed=31, r2_propensity=0.1, r2_prognosis=0.05)
        calls = record_pools(monkeypatch)
        seeded = run_bootstrap(config)
        base, *replicates = calls
        assert base.start is None and len(replicates) == 4
        assert base.solution.status == "optimal"
        for call in [base, *replicates]:
            assert call.problem.seed.size == 0  # R2 rows: no cell-block seed
        # one start for every replicate: the baseline, its pool joined by
        # the near set at its duals
        near = lp_solver.near_columns(base.problem, base.solution.duals, cli.NEAR_DELTA)
        start = replicates[0].start
        assert near.size and set(start.pool.tolist()) == set(base.solution.pool.tolist()) | set(
            near.tolist()
        )
        for field in dataclasses.fields(start):
            if field.name != "pool":
                assert getattr(start, field.name) is getattr(base.solution, field.name)
        for call in replicates:
            assert call.start is start
        monkeypatch.undo()
        record_pools(monkeypatch, seeded=False)
        unseeded = run_bootstrap(config)
        assert without_iterations(seeded) == without_iterations(unseeded)

    @pytest.mark.parametrize("input_path", (MARGINAL, STRATIFIED), ids=("table2", "table1"))
    def test_every_optimal_solve_is_certified(self, monkeypatch, input_path):
        config = small_lp_config(
            input_path=input_path, replicates=4, seed=31, r2_propensity=0.1, r2_prognosis=0.05
        )
        calls = record_pools(monkeypatch)
        run_bootstrap(config)
        optimal = [call for call in calls if call.solution.status == "optimal"]
        assert len(optimal) >= 4 and optimal[0] is calls[0]
        for call in optimal:
            assert_certified(call.problem, call.solution)

    def test_seeding_keeps_each_replicate_optimum(self, monkeypatch):
        # unconstrained, one category: the grid LP has alternative optimal
        # vertices, and a seeded solve may end at another one of them
        config = small_lp_config(replicates=4, seed=31)
        seeded = record_pools(monkeypatch)
        run_bootstrap(config)
        monkeypatch.undo()
        unseeded = record_pools(monkeypatch, seeded=False)
        run_bootstrap(config)
        assert [c.solution.status for c in seeded] == [c.solution.status for c in unseeded]
        for a, b in zip(seeded, unseeded):
            if a.solution.status == "optimal":
                assert a.solution.objective == pytest.approx(b.solution.objective, abs=1e-9)

    @pytest.mark.parametrize(
        "cells, options, degenerate_draw",
        [
            # category b holds 2 of 1102 individuals, so some replicates draw none
            (
                "a,0,0,500\na,0,1,300\na,1,0,200\na,1,1,100\nb,0,0,1\nb,1,1,1\n",
                [],
                lambda drawn: (drawn.sum(axis=1) == 0).any(),
            ),
            # one exposed individual in 21, so some replicates draw nobody
            # exposed, and the R2 target needs an exposure margin inside (0, 1)
            (
                "a,0,0,10\na,0,1,10\na,1,1,1\n",
                ["--r2-propensity", "0.1", "--epsilon", "0.01"],
                lambda drawn: drawn[:, [1, 3]].sum() == 0,
            ),
        ],
        ids=["empty-category", "empty-margin"],
    )
    def test_degenerate_replicate_is_dropped(
        self, cells, options, degenerate_draw, tmp_path, capsys
    ):
        table = tmp_path / "small.csv"
        table.write_text("category,exposure,outcome,count\n" + cells, encoding="utf-8")
        out = tmp_path / "boot.json"
        code = main(["bootstrap", "--input", str(table), "--m", "10", *options,
                     "--replicates", "20", "--seed", "1", "--json-out", str(out)])
        assert code == 0, capsys.readouterr().err
        replicates = json.loads(out.read_text(encoding="utf-8"))["replicates"]
        # the draws are those of resampling alone: one multinomial per replicate
        rng = np.random.default_rng(1)
        counts = cli.load_table(str(table)).counts_matrix()
        expected = [
            i for i in range(20)
            if degenerate_draw(
                rng.multinomial(round(counts.sum()), counts.ravel() / counts.sum())
                .reshape(-1, 4)
            )
        ]
        assert expected  # the seed exercises the degenerate path
        log = replicates["per_replicate"]
        assert [r["replicate"] for r in log if r["status"] == "degenerate"] == expected
        assert all(r["iterations"] == 0 for r in log if r["status"] == "degenerate")
        assert all(r["status"] == "optimal" for r in log if r["replicate"] not in expected)
        assert replicates["dropped"] == len(expected)
        assert replicates["succeeded"] == 20 - len(expected)

    def test_different_seeds_differ(self):
        a = run_bootstrap(small_lp_config(replicates=2, seed=1))
        b = run_bootstrap(small_lp_config(replicates=2, seed=2))
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_requires_replicates_and_lp_mode(self):
        with pytest.raises(ParameterError):
            run_bootstrap(small_lp_config())
        with pytest.raises(ParameterError):
            run_bootstrap(
                RunConfig(
                    input_path=MARGINAL,
                    mode="closed-form",
                    replicates=2,
                    seed=5,
                )
            )


class TestSvg:
    def test_mixture_svg_marks_each_cluster(self):
        clusters = [
            {"pi": 0.4, "r0": 0.02, "r1": 0.3, "mass": 0.8},
            {"pi": 0.9, "r0": 0.1, "r1": 0.6, "mass": 0.2},
        ]
        svg = mixture_svg(clusters)
        assert svg.startswith("<svg ")
        assert svg.count('class="effect-line"') == 2
        assert svg.count('class="cluster-dot"') == 2

    def test_mixture_svg_is_deterministic(self):
        clusters = [{"pi": 0.5, "r0": 0.1, "r1": 0.2, "mass": 1.0}]
        assert mixture_svg(clusters) == mixture_svg(clusters)

    def test_convergence_svg_skips_failed_points(self):
        svg = convergence_svg([(10, None), (20, 0.5), (30, 0.6)], 0.62)
        assert svg.count('class="entropy-dot"') == 2
        assert svg.count('class="reference-line"') == 1

    def test_svgs_are_well_formed_xml(self):
        from xml.etree import ElementTree

        clusters = [{"pi": 0.4, "r0": 0.02, "r1": 0.3, "mass": 0.8}]
        for svg in (mixture_svg(clusters), convergence_svg([(10, None), (20, 0.5)], 0.62)):
            root = ElementTree.fromstring(svg)
            assert root.tag == "{http://www.w3.org/2000/svg}svg"


class TestEmitPlot:
    def test_estimate_report_renders_mixture(self, tmp_path):
        report = run_estimate(small_lp_config())
        out = tmp_path / "mix.svg"
        emit_plot(report, out)
        assert 'class="cluster-dot"' in out.read_text(encoding="utf-8")

    def test_closed_form_report_renders_components(self, tmp_path):
        report = run_estimate(RunConfig(input_path=MARGINAL, mode="closed-form"))
        out = tmp_path / "cf.svg"
        emit_plot(report, out)
        assert out.read_text(encoding="utf-8").count('class="effect-line"') == 1

    def test_convergence_report_renders_series(self, tmp_path):
        config = RunConfig(input_path=MARGINAL, epsilon=0.01)
        report = run_convergence(config, m_values=(12, 24))
        out = tmp_path / "conv.svg"
        emit_plot(report, out)
        assert 'class="reference-line"' in out.read_text(encoding="utf-8")

    def test_unplottable_report_rejected(self, tmp_path):
        report = run_estimate(small_lp_config(m=10, epsilon=1e-6))
        with pytest.raises(ParameterError):
            emit_plot(report, tmp_path / "no.svg")


class TestMainEntry:
    def test_estimate_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate",
                "--input",
                MARGINAL,
                "--m",
                "16",
                "--epsilon",
                "0.01",
                "--json-out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["status"] == "optimal"
        assert report["config"]["adjacency"] == "vertex"

    def test_stdout_when_no_output_path(self, capsys):
        code = main(["estimate", "--input", MARGINAL, "--mode", "closed-form"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "estimate"

    def test_output_bytes_are_stable(self, tmp_path):
        args = [
            "estimate",
            "--input",
            MARGINAL,
            "--m",
            "16",
            "--epsilon",
            "0.01",
            "--json-out",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + [str(first)]) == 0
        assert main(args + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_infeasible_exit_code(self, tmp_path):
        code = main(
            [
                "estimate",
                "--input",
                MARGINAL,
                "--m",
                "10",
                "--epsilon",
                "1e-6",
                "--json-out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_missing_input_exit_code(self, capsys, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ("--json-out", "--svg-out"))
    def test_unwritable_output_exit_code(self, option, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        code = main(["estimate", "--input", MARGINAL, "--mode", "closed-form", option, str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_iteration_limit_exit_code(self, monkeypatch, tmp_path):
        monkeypatch.setattr(lp_solver, "MAX_ITERATIONS", 1)
        out = tmp_path / "r.json"
        code = main(["estimate", "--input", MARGINAL, "--m", "10", "--json-out", str(out)])
        assert code == 1
        assert json.loads(out.read_text(encoding="utf-8"))["status"] == "iteration_limit"

    def test_bad_schedule_exit_code(self, capsys):
        code = main(
            ["estimate", "--input", MARGINAL, "--tol-schedule", "fast"]
        )
        assert code == 1

    @pytest.mark.parametrize("option", (["--m", "50"], ["--adjacency", "face"]))
    def test_converge_rejects_single_grid_options(self, option, capsys):
        code = main(["converge", "--input", MARGINAL, "--m-values", "12", *option])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
    @pytest.mark.parametrize("table", DEGENERATE_TABLES.values(), ids=DEGENERATE_TABLES)
    def test_degenerate_table_ends_in_one_error_line(self, table, command, tmp_path, capsys):
        text, message = table
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        code = main([*command, "--input", str(path), "--json-out", str(tmp_path / "out.json")])
        assert code in (1, 2)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [err.strip()] and message in errors[0]

    def test_degenerate_closed_form_exit_code(self, tmp_path, capsys):
        # nobody exposed: pi = 0 leaves r1 undefined
        table = tmp_path / "unexposed.csv"
        table.write_text(
            "category,exposure,outcome,count\na,0,1,5\na,0,0,20\n", encoding="utf-8"
        )
        code = main(["estimate", "--input", str(table), "--mode", "closed-form"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_r2_target_without_exposed_individuals_exit_code(self, tmp_path, capsys):
        table = tmp_path / "unexposed.csv"
        table.write_text(
            "category,exposure,outcome,count\na,0,0,5\na,0,1,3\n", encoding="utf-8"
        )
        code = main(
            ["estimate", "--input", str(table), "--m", "5", "--r2-propensity", "0.1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "error: marginal must lie strictly inside (0, 1), got 0.0"
        )
        assert captured.out == ""

    def test_closed_form_with_r2_target_exit_code(self, capsys):
        code = main(
            ["estimate", "--input", MARGINAL, "--mode", "closed-form",
             "--r2-propensity", "0.3"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("epsilon", ("-1", "inf", "nan"))
    def test_bad_epsilon_exit_code(self, epsilon, capsys):
        code = main(
            ["estimate", "--input", MARGINAL, "--mode", "closed-form",
             "--epsilon", epsilon]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error: epsilon must be finite and nonnegative" in captured.err
        assert captured.out == ""

    def test_overflowing_epsilon_exit_code(self, capsys):
        # finite frequency bands whose width overflows to inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["estimate", "--input", MARGINAL, "--m", "5", "--epsilon", "1e308"])
        assert code == 1
        assert not caught
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "needs a finite width" in errors[0]
        assert captured.out == ""

    def test_row_errors_print_plain_floats(self, capsys):
        code = main(["estimate", "--input", MARGINAL, "--m", "5", "--epsilon", "1e308"])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "error: row 0 needs a finite width, got [-1e+308, 1e+308]"
        )

    def test_converge_needs_an_m_value(self, capsys):
        code = main(["converge", "--input", MARGINAL, "--m-values", ","])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: at least one m value is needed" in captured.err
        assert captured.out == ""

    def test_converge_rejects_a_too_fine_m_before_solving(self, monkeypatch, capsys):
        calls = record_pools(monkeypatch)
        code = main(["converge", "--input", MARGINAL, "--m-values", "25,50,75,300"])
        assert code == 1
        assert calls == []
        assert "error: grid resolution must be in [1, 256], got 300" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1e300", "1e-300"])
    def test_extreme_counts_report_an_odds_ratio_of_one(self, tmp_path, count):
        table = tmp_path / "table.csv"
        rows = [f"all,{e},{d},{count}" for e, d in ((0, 1), (1, 1), (0, 0), (1, 0))]
        table.write_text("category,exposure,outcome,count\n" + "\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main(["estimate", "--mode", "closed-form", "--input", str(table),
                     "--json-out", str(out)])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["input"]["odds_ratio"] == 1.0

    def test_unrepresentable_odds_ratio_reported_as_null(self, tmp_path):
        # n11 / n01 = 1e600 overflows; pytest turns any RuntimeWarning into an error
        table = tmp_path / "table.csv"
        counts = {(0, 1): "1e-300", (1, 1): "1e300", (0, 0): "1", (1, 0): "1"}
        rows = [f"all,{e},{d},{count}" for (e, d), count in counts.items()]
        table.write_text("category,exposure,outcome,count\n" + "\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main(["estimate", "--mode", "closed-form", "--input", str(table),
                     "--json-out", str(out)])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["input"]["odds_ratio"] is None

    @pytest.mark.parametrize("module", ["maxent_effects", "maxent_effects.cli"])
    def test_package_runs_as_module(self, module):
        src = str(Path(maxent_effects.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", module, "estimate", "--mode", "closed-form",
             "--input", MARGINAL],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stdout)["status"] == "optimal"

    def test_converge_subcommand(self, tmp_path):
        out = tmp_path / "conv.json"
        code = main(
            [
                "converge",
                "--input",
                MARGINAL,
                "--epsilon",
                "0.01",
                "--m-values",
                "12,24",
                "--json-out",
                str(out),
                "--svg-out",
                str(tmp_path / "conv.svg"),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["status"] == "complete"
        assert (tmp_path / "conv.svg").exists()

    def test_bootstrap_subcommand_requires_seed(self, capsys):
        code = main(["bootstrap", "--input", MARGINAL, "--replicates", "2"])
        assert code == 1

    def test_negative_seed_exit_code(self, capsys):
        code = main(
            ["bootstrap", "--input", MARGINAL, "--replicates", "2", "--seed", "-1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error: seed must be nonnegative" in captured.err
        assert captured.out == ""

    def test_bootstrap_of_a_table_too_large_to_resample(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(
            "category,exposure,outcome,count\na,0,1,1e19\na,1,1,3e18\na,0,0,2e18\na,1,0,4e18\n",
            encoding="utf-8",
        )
        argv = ["bootstrap", "--input", str(path), "--m", "8", "--epsilon", "0.01",
                "--replicates", "2", "--seed", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [
            "error: cannot resample a table of 1.9e+19 individuals: "
            "the total exceeds 9223372036854775807"
        ]
        assert "Traceback" not in captured.err and not captured.out

    def test_bootstrap_subcommand_runs(self, tmp_path):
        out = tmp_path / "boot.json"
        code = main(
            [
                "bootstrap",
                "--input",
                MARGINAL,
                "--m",
                "16",
                "--epsilon",
                "0.01",
                "--replicates",
                "2",
                "--seed",
                "17",
                "--json-out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["replicates"]["succeeded"] == 2

    def test_plot_subcommand_round_trips(self, tmp_path):
        report_path = tmp_path / "report.json"
        main(
            [
                "estimate",
                "--input",
                MARGINAL,
                "--m",
                "16",
                "--epsilon",
                "0.01",
                "--json-out",
                str(report_path),
            ]
        )
        svg_path = tmp_path / "replot.svg"
        code = main(
            ["plot", "--input", str(report_path), "--svg-out", str(svg_path)]
        )
        assert code == 0
        assert 'class="cluster-dot"' in svg_path.read_text(encoding="utf-8")

    def test_corrupt_report_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["plot", "--input", str(bad), "--svg-out", str(tmp_path / "x.svg")])
        assert code == 1

    @pytest.mark.parametrize("report", ([1, 2], {"command": "converge"}))
    def test_non_report_json_exit_code(self, report, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        code = main(["plot", "--input", str(path), "--svg-out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_svg_out_written_alongside_report(self, tmp_path):
        svg = tmp_path / "mix.svg"
        code = main(
            [
                "estimate",
                "--input",
                MARGINAL,
                "--m",
                "16",
                "--epsilon",
                "0.01",
                "--json-out",
                str(tmp_path / "r.json"),
                "--svg-out",
                str(svg),
            ]
        )
        assert code == 0
        assert svg.exists()


class TestRuntimeWithoutScipy:
    """The package and its command line run with scipy unimportable, and
    load no module they do not use."""

    SRC = str(Path(maxent_effects.__file__).resolve().parents[1])
    R2 = ["--r2-propensity", "0.30", "--r2-prognosis", "0.20"]

    def run_python(self, code):
        env = {**os.environ, "PYTHONPATH": self.SRC}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_importing_the_cli_loads_no_scipy(self):
        loaded = self.run_python(
            "import json, sys\n"
            "import maxent_effects.cli\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))\n"
        )
        assert loaded == []

    def test_importing_the_cli_loads_no_network_modules(self):
        loaded = self.run_python(
            "import json, sys\n"
            "import maxent_effects.cli\n"
            "heavy = ('urllib.request', 'http.client', 'email', 'ssl')\n"
            "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
        )
        assert loaded == []

    def commands(self, tmp_path):
        """A small estimate, converge and bootstrap, each with its report path."""
        commands = [
            ["estimate", "--input", MARGINAL, "--m", "25", *self.R2, "--epsilon", "3e-3"],
            ["converge", "--input", STRATIFIED, "--epsilon", "1.5e-3", "--m-values", "25"],
            ["bootstrap", "--input", MARGINAL, "--m", "25", *self.R2, "--epsilon", "3e-3",
             "--replicates", "2", "--seed", "7"],
        ]
        return [[*argv, "--json-out", str(tmp_path / f"{argv[0]}.json")] for argv in commands]

    def test_commands_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique's first call imports numpy.ma, about 15 ms of start-up
        loaded = self.run_python(
            "import json, sys\n"
            "from maxent_effects import cli\n"
            f"codes = [cli.main(argv) for argv in {self.commands(tmp_path)!r}]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
        )
        assert loaded == [[0, 0, 0], False]

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        commands = self.commands(tmp_path)
        codes = self.run_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from maxent_effects import cli\n"
            f"print(json.dumps([cli.main(argv) for argv in {commands!r}]))\n"
        )
        assert codes == [0, 0, 0]
        for argv in commands:
            assert json.loads(Path(argv[-1]).read_text(encoding="utf-8"))["status"] in (
                "optimal", "complete"
            )
