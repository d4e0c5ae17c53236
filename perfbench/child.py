"""One benchmarked process: a set-up probe or one ``maxent-effects`` command.

``run.py`` starts this file in a fresh interpreter for every measurement,
so each command pays import and set-up as a user's call does, and no
cache kept inside one process can speed up a later command.  It is not
meant to be run by hand; its only argument is a JSON request::

    {"mode": "setup" | "cli", "spawned": <CLOCK_MONOTONIC at spawn>,
     "table": <csv path>, "argv": [...], "trace": bool, "out": <path>}

``setup`` imports the package and parses the table, then reports the
seconds since ``spawned`` (CLOCK_MONOTONIC is shared by all processes of
the machine).  ``cli`` runs ``maxent_effects.cli.main(argv)``; with
``trace`` on it first wraps the package's entry points where their
callers bind them (see ``HOOKS``) and records one span per call.  Spans
stay in memory and are written, with the result, to ``out`` when the
command ends.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import weakref
from time import perf_counter

# (module attribute, span name) pairs.  Each wrapper replaces the name
# where the caller looks it up, so the library itself is left untouched.
HOOKS = {
    "maxent_effects.cli": (
        ("load_table", "tables.load"),
        ("resample_table", "tables.resample"),
        ("solve_conditional_homogeneous", "closed_form.solve"),
        ("build_problem", "grid_lp.build"),
        ("relax_and_retry", "lp_solver.solve"),
        ("atoms_from_solution", "grid_lp.decode"),
        ("cluster_atoms", "postprocess.cluster"),
        ("emit_plot", "svgplot.render"),
    ),
    "maxent_effects.lp_solver": (("price_columns", "lp_solver.pricing"),),
}
KERNEL_SPAN = "grid_lp.price_kernel"


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, value]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``value`` whatever
    the hook's ``measure`` extracts from the call (a count or a status).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, measure=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced


def _column_rows(problem) -> int:
    """Rows one structural column touches: its 8-byte coefficient reads."""
    return int((problem.columns([0])[:, 0] != 0.0).sum())


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook that exists; return the names that do not."""
    measures = {
        "lp_solver.pricing": lambda a, k, r: bool(k.get("include_objective", True)),
        "lp_solver.solve": lambda a, k, r: [r.status, int(r.iterations)],
        "postprocess.cluster": lambda a, k, r: len(r.clusters),
    }
    missing = []
    for module_name, pairs in HOOKS.items():
        module = importlib.import_module(module_name)
        for attr, span in pairs:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(fn, span, measures.get(span)))

    from maxent_effects.lp_solver import LpProblem

    rows_by_problem = weakref.WeakKeyDictionary()

    def kernel_measure(args, kwargs, result):
        problem, _duals, start, stop = args[:4]
        include_objective = args[4] if len(args) > 4 else kwargs.get(
            "include_objective", True
        )
        rows = rows_by_problem.get(problem)
        if rows is None:
            rows = rows_by_problem[problem] = _column_rows(problem)
        # computed bytes: each coefficient row and the objective read once,
        # the reduced cost written once, 8 bytes each
        return [stop - start, 8 * (stop - start) * (rows + int(include_objective) + 1)]

    LpProblem.reduced_costs = tracer.wrap(
        LpProblem.reduced_costs, KERNEL_SPAN, kernel_measure
    )
    return missing


def _span_cost() -> float:
    """Seconds one traced call adds over a bare call, measured here."""
    probe = Tracer()

    def bare():
        return None

    traced = probe.wrap(bare, "calibration", lambda a, k, r: None)
    best = float("inf")
    for _ in range(5):
        n = 2000
        t0 = perf_counter()
        for _ in range(n):
            traced()
        t1 = perf_counter()
        for _ in range(n):
            bare()
        t2 = perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / n)
        probe.spans.clear()
    return max(best, 0.0)


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    import maxent_effects.cli as cli

    if request["mode"] == "setup":
        cli.load_table(request["table"])
        out = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - request["spawned"]}
    else:
        tracer = Tracer() if request["trace"] else None
        missing = install(tracer) if tracer else []
        t0 = perf_counter()
        code = cli.main(request["argv"])
        main_s = perf_counter() - t0
        out = {
            "exit": code,
            "main_s": main_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer:
            out["spans"] = tracer.spans
            out["span_cost_s"] = _span_cost()
            out["missing_hooks"] = missing
    out["versions"] = _versions()
    with open(request["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
