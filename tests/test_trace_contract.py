"""The benchmark's trace hooks (``perfbench/child.py``) against the package.

The benchmark wraps names of the package where their callers look them
up, and times the pricing kernel by wrapping the class attribute
``LpProblem.reduced_costs``.  A refactor that renames a hooked function
or calls the kernel around that attribute leaves the benchmark blind;
these tests catch it in the tier-1 suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from maxent_effects import cli
from maxent_effects.datasets import fixture_path
from maxent_effects.grid_lp import DiscretizedProblem
from maxent_effects.lp_solver import LpProblem

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(child):
    for module_name, pairs in child.HOOKS.items():
        module = importlib.import_module(module_name)
        for attr, _span in pairs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_grid_scans_reach_the_kernel_hook(child, monkeypatch, tmp_path):
    # install() replaces the hooked names for good: let monkeypatch put
    # every one of them back after the test
    for module_name, pairs in child.HOOKS.items():
        module = importlib.import_module(module_name)
        for attr, _span in pairs:
            monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(LpProblem, "reduced_costs", LpProblem.reduced_costs)
    tracer = child.Tracer()
    assert child.install(tracer) == []

    calls, kernel_calls = [], []
    hooked, kernel = LpProblem.reduced_costs, DiscretizedProblem._reduced_costs

    def outer(*args, **kwargs):
        calls.append((args, kwargs))
        return hooked(*args, **kwargs)

    def counted(self, *args, **kwargs):
        kernel_calls.append(args[1:3])
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(LpProblem, "reduced_costs", outer)
    monkeypatch.setattr(DiscretizedProblem, "_reduced_costs", counted)
    out = tmp_path / "report.json"
    argv = ["estimate", "--input", str(fixture_path("table1.csv")), "--m", "24",
            "--r2-propensity", "0.30", "--r2-prognosis", "0.20", "--epsilon", "5e-3",
            "--json-out", str(out)]
    assert cli.main(argv) == 0
    n_columns = json.loads(out.read_text(encoding="utf-8"))["solution"]["lp"]["n_columns"]

    # every kernel call went through the class attribute, with the
    # positional arguments that the benchmark's kernel_measure reads
    spans = tracer.spans
    kernel_spans = [s for s in spans if s[0] == child.KERNEL_SPAN]
    assert calls and len(kernel_spans) == len(calls) == len(kernel_calls)
    for (args, _kwargs), span, (start, stop) in zip(calls, kernel_spans, kernel_calls):
        problem, duals, start_arg, stop_arg, include_objective = args
        assert isinstance(problem, DiscretizedProblem) and problem.n_columns == n_columns
        assert isinstance(duals, np.ndarray) and duals.shape == (problem.n_rows,)
        assert (start_arg, stop_arg) == (start, stop)
        assert isinstance(include_objective, bool)
        assert span[4][0] == stop - start

    # the kernel spans of each pricing scan tile [0, n_columns) in order
    scans = {}
    for (args, _kwargs), span in zip(calls, kernel_spans):
        assert spans[span[3]][0] == "lp_solver.pricing"
        scans.setdefault(span[3], []).append(args[2:4])
    assert scans
    for spans_of_scan in scans.values():
        starts, stops = zip(*spans_of_scan)
        assert starts[0] == 0 and stops[-1] == n_columns
        assert list(starts[1:]) == list(stops[:-1])
