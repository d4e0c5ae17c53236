"""Report assembly, determinism, exit codes, and SVG rendering."""

import json

import numpy as np
import pytest

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

    def test_as_dict_round_trips_through_json(self):
        config = small_lp_config(r2_propensity=0.3, seed=11, replicates=2)
        text = json.dumps(config.as_dict())
        assert json.loads(text)["m"] == 16
        assert json.loads(text)["adjacency"] == "vertex"


class TestEstimateReport:
    def test_closed_form_report_shape(self):
        report = run_estimate(
            RunConfig(input_path=MARGINAL, mode="closed-form")
        )
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

    def test_title_is_escaped(self):
        svg = mixture_svg([], title="a < b & c")
        assert "a &lt; b &amp; c" in svg


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

    def test_degenerate_closed_form_exit_code(self, tmp_path, capsys):
        # nobody exposed: pi = 0 leaves r1 undefined
        table = tmp_path / "unexposed.csv"
        table.write_text(
            "category,exposure,outcome,count\na,0,1,5\na,0,0,20\n", encoding="utf-8"
        )
        code = main(["estimate", "--input", str(table), "--mode", "closed-form"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
