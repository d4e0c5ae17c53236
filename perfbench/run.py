"""Benchmark of the ``maxent-effects`` command line.

Every command runs in a fresh Python process (``child.py``) that calls
``maxent_effects.cli.main(argv)`` on the package under ``src/`` of the
checkout, writing its JSON report and SVG to a scratch directory under
``.bench_build/perfbench/``.  Load comes from one closed-loop client: one
command at a time, the next one started when the previous one has ended,
with no threads or processes beyond the libraries' defaults.  Every
report is checked for correctness; a nonzero exit, an exception or a
failed check counts the command as failed.

Usage
-----
All workloads, printing wall_s (s), setup_s (s), peak_rss_mb (MB) and
fail_rate (failed/attempted) for each, exiting nonzero if any check
fails::

    python3 perfbench/run.py --workload all

The traced run, printing every per-layer metric of every workload::

    python3 perfbench/run.py --workload all --trace 1

One workload, as the benchmark harness runs it (the last line of standard
output is the JSON result)::

    python3 perfbench/run.py --workload estimate-strat10-r2 --seed 7 --seconds 40 --trace 0

The benchmark's own quick self-test on tiny settings::

    python3 perfbench/run.py --smoke

Workloads
---------
estimate-strat10-r2
    ``estimate`` on table1.csv (10 categories), R2 0.30/0.20, m=75,
    epsilon=1e-3: one 42 x 4,218,750 LP where full-scan pricing dominates
    and grid build is negligible; exercises pricing and column generation.
bootstrap-pooled
    ``bootstrap`` on table2.csv, R2 0.30/0.20, m=75, epsilon=3e-3, 50
    replicates: 51 small 6-row solves that differ only in their right-hand
    side; shows per-solve fixed costs, warm starts and caching across
    replicates.  The only workload that uses ``--seed``.
converge-strat10
    ``converge`` on table1.csv, unconstrained, epsilon=1.5e-3,
    m in {25, 50, 75}: 40 rows, a heavier phase 1, three grid sizes and a
    simplex-overhead-heavy m=25 leg; shows seeding across resolutions.

Metrics
-------
End to end (``--trace 0``), medians over the commands of one run:
``wall_s`` is the wall time of the whole command seen from outside, from
process start to exit; ``setup_s`` the time from process start to the
package imported and the input table parsed, median of several probe
processes; ``peak_rss_mb`` the peak resident memory of the command's
process.  ``fail_rate`` is ``failed / attempted`` of the result line.

Per layer (``--trace 1``): a separate run wraps the package's entry points
(see ``child.HOOKS``) and reports each layer's time, call counts and exact
work counters.  Times are summed over the layer's calls (inclusive of
nested layers), except ``lp_solver.pivot_s`` (solve time outside pricing)
and ``cli.self_s`` (command time outside every traced layer), which are
self times; a layer the workload never calls reads 0.
``grid_lp.price_bytes`` is computed, not measured: the bytes the pricing
kernel must read and write at 8 bytes per value.  ``trace.overhead_s``
is the tracing overhead: the span count times the per-span cost of the
wrapper, measured in the same process after the command.  Exact counters
(iterations, pricing scans, columns priced, build calls, ...) and report
digests must repeat from command to command and from run to run of the
same sources; a run compares them with earlier runs in the checkout.

Each run records its environment (cores, library versions, thread
variables, load average before and after).  The machine may be shared;
the benchmark pins no CPUs and changes no cgroup or kernel setting, and
only reads ``/proc``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from child import KERNEL_SPAN

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_build" / "perfbench"
DATA = "src/maxent_effects/data"
R2 = ["--r2-propensity", "0.30", "--r2-prognosis", "0.20"]

DEFAULT_SEED = 7  # the acceptance gate's bootstrap seed
DEFAULT_SECONDS = 40
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a run never starts a command it cannot finish by then

# Objective of the estimate workload at the seed commit, and the largest
# difference accepted: the report rounds to 6 significant digits.
SEED_OBJECTIVE_ESTIMATE = 0.850802
OBJECTIVE_TOL = 1e-5
RESIDUAL_TOL = 1e-9  # the solver's feasibility tolerance
BOOTSTRAP_REPLICATES = 50
CENTROID_TOL = 0.08  # criterion 10

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "grid_lp.price_kernel_s": "s",
    "grid_lp.price_kernel_calls": "count",
    "grid_lp.columns_priced": "count",
    "grid_lp.price_bytes": "B",
    "grid_lp.price_gbps": "GB/s",
    "lp_solver.pricing_s": "s",
    "lp_solver.pricing_scans.phase1": "count",
    "lp_solver.pricing_scans.phase2": "count",
    "lp_solver.iterations": "count",
    "lp_solver.columns_per_iteration": "columns/iter",
    "lp_solver.solve_s": "s",
    "lp_solver.solves": "count",
    "lp_solver.solve_s.p50": "s",
    "lp_solver.solve_s.p80": "s",
    "lp_solver.nonoptimal": "count",
    "lp_solver.pivot_s": "s",
    "grid_lp.build_s": "s",
    "grid_lp.build_calls": "count",
    "tables.load_s": "s",
    "tables.resample_s": "s",
    "closed_form.solve_s": "s",
    "grid_lp.decode_s": "s",
    "postprocess.cluster_s": "s",
    "postprocess.clusters": "count",
    "svgplot.render_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# counters that must repeat exactly from command to command and run to run
EXACT = (
    "grid_lp.price_kernel_calls",
    "grid_lp.columns_priced",
    "grid_lp.price_bytes",
    "lp_solver.pricing_scans.phase1",
    "lp_solver.pricing_scans.phase2",
    "lp_solver.iterations",
    "lp_solver.solves",
    "lp_solver.nonoptimal",
    "grid_lp.build_calls",
    "postprocess.clusters",
    "trace.spans",
)


# -- correctness checks: each returns the list of failed checks ---------


def check_estimate(report) -> list[str]:
    if report["status"] != "optimal":
        return [f"status {report['status']}, wanted optimal"]
    failures = []
    if report["input"]["n_categories"] != 10:
        failures.append("table1.csv should have 10 categories")
    found = Counter(c["category"] for c in report["solution"]["mixture"]["clusters"])
    failures += [
        f"category {c} has {found[c]} clusters, wanted 2"
        for c in range(report["input"]["n_categories"])
        if found[c] != 2
    ]
    lp = report["solution"]["lp"]
    if not lp["max_residual_atoms"] <= RESIDUAL_TOL:
        failures.append(f"atom residual {lp['max_residual_atoms']} > {RESIDUAL_TOL}")
    if abs(lp["objective"] - SEED_OBJECTIVE_ESTIMATE) > OBJECTIVE_TOL:
        failures.append(
            f"objective {lp['objective']} differs from the seed commit's "
            f"{SEED_OBJECTIVE_ESTIMATE} by more than {OBJECTIVE_TOL}"
        )
    return failures


def _centroid_distance(a, b) -> float:
    return max(abs(a[k] - b[k]) for k in ("pi", "r0", "r1"))


def check_bootstrap(report) -> list[str]:
    if report["status"] != "optimal":
        return [f"status {report['status']}, wanted optimal"]
    failures = []
    reps = report["replicates"]
    if reps["succeeded"] != reps["requested"]:
        failures.append(f"{reps['succeeded']}/{reps['requested']} replicates succeeded")
    baseline = report["baseline"]["clusters"]
    if len(baseline) != 3:
        failures.append(f"baseline has {len(baseline)} clusters, wanted 3")
    pooled = report["solution"]["mixture"]["clusters"]
    dominant = sorted(pooled, key=lambda c: -c["mass"])[:3]
    for mine, theirs, what in ((dominant, baseline, "pooled"), (baseline, dominant, "baseline")):
        for c in mine:
            nearest = min((_centroid_distance(c, o) for o in theirs), default=math.inf)
            if nearest > CENTROID_TOL:
                failures.append(f"a {what} cluster is {nearest:.3g} from its match")
    return failures


def entropy_slack(epsilon: float, n_categories: int) -> float:
    """Entropy the epsilon relaxation can buy, as in the acceptance gate."""
    per_cell = -epsilon * math.log(epsilon)
    per_mass = -(4.0 * epsilon) * math.log(4.0 * epsilon)
    return n_categories * (4.0 * per_cell + per_mass)


def check_converge(report) -> list[str]:
    series = report["series"]
    failures = [f"m={p['m']} came back {p['status']}" for p in series if p["status"] != "optimal"]
    if failures:
        return failures
    reference = report["reference_entropy"]
    allowance = entropy_slack(report["config"]["epsilon"], report["input"]["n_categories"])
    entropy = {p["m"]: p["entropy"] for p in series}
    for m, value in entropy.items():
        if value > reference + 1e-6 + allowance:
            failures.append(f"m={m} entropy {value} above the closed form + allowance")
    low, high = min(entropy), max(entropy)
    if high % low == 0 and entropy[high] < entropy[low]:
        failures.append(f"entropy drops from m={low} to m={high}")
    if not reference - entropy[high] < reference - entropy[low]:
        failures.append(f"gap does not shrink from m={low} to m={high}")
    return failures


def check_status(report) -> list[str]:
    ok = report["status"] in ("optimal", "complete")
    return [] if ok else [f"status {report['status']}"]


@dataclass(frozen=True)
class Workload:
    name: str
    table: str
    argv: Callable[[int], list]  # seed -> command line
    check: Callable[[dict], list]
    uses_seed: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-strat10-r2",
            f"{DATA}/table1.csv",
            lambda seed: ["estimate", "--input", f"{DATA}/table1.csv", "--m", "75", *R2,
                          "--epsilon", "1e-3"],
            check_estimate,
        ),
        Workload(
            "bootstrap-pooled",
            f"{DATA}/table2.csv",
            lambda seed: ["bootstrap", "--input", f"{DATA}/table2.csv", "--m", "75", *R2,
                          "--epsilon", "3e-3", "--replicates", str(BOOTSTRAP_REPLICATES),
                          "--seed", str(seed)],
            check_bootstrap,
            uses_seed=True,
        ),
        Workload(
            "converge-strat10",
            f"{DATA}/table1.csv",
            lambda seed: ["converge", "--input", f"{DATA}/table1.csv", "--epsilon", "1.5e-3",
                          "--m-values", "25,50,75"],
            check_converge,
        ),
    )
}

SMOKE = (
    Workload("estimate-smoke", f"{DATA}/table2.csv",
             lambda seed: ["estimate", "--input", f"{DATA}/table2.csv", "--m", "25", *R2,
                           "--epsilon", "3e-3"], check_status),
    Workload("bootstrap-smoke", f"{DATA}/table2.csv",
             lambda seed: ["bootstrap", "--input", f"{DATA}/table2.csv", "--m", "25", *R2,
                           "--epsilon", "3e-3", "--replicates", "2", "--seed", str(seed)],
             check_status, uses_seed=True),
    Workload("converge-smoke", f"{DATA}/table1.csv",
             lambda seed: ["converge", "--input", f"{DATA}/table1.csv", "--epsilon", "1.5e-3",
                           "--m-values", "25"], check_status),
)


# -- processes -----------------------------------------------------------


class Session:
    """Scratch space and child environment of one benchmark invocation."""

    def __init__(self):
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src
        self.env["TMPDIR"] = str(self.dir)
        self.versions: dict = {}
        self._n = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, request: dict, timeout: float) -> dict:
        """Run child.py on one request; return its result plus outside measures."""
        self._n += 1
        out = self.dir / f"result-{self._n}.json"
        request = {**request, "out": str(out)}
        request["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(request)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f}s", "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"error": f"process exited {proc.returncode}: {' | '.join(tail)}", "wall_s": wall}
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        self.versions = result.pop("versions")
        result["wall_s"] = wall
        return result

    def setup_probe(self, workload: Workload) -> float:
        result = self.spawn({"mode": "setup", "table": workload.table}, RUN_LIMIT_S)
        if "error" in result:
            raise RuntimeError(f"set-up probe failed: {result['error']}")
        return result["setup_s"]

    def command(self, workload: Workload, seed: int, trace: bool, timeout: float) -> dict:
        """One command; ``failures`` lists every failed check."""
        cmd_dir = Path(tempfile.mkdtemp(prefix="cmd-", dir=self.dir))
        report_path, svg_path = cmd_dir / "report.json", cmd_dir / "plot.svg"
        argv = workload.argv(seed) + ["--json-out", str(report_path), "--svg-out", str(svg_path)]
        result = self.spawn({"mode": "cli", "argv": argv, "trace": trace}, timeout)
        failures = [result["error"]] if "error" in result else []
        if not failures and result["exit"] != 0:
            failures.append(f"command exited {result['exit']}")
        report = None
        if report_path.exists():
            text = report_path.read_bytes()
            result["report_sha256"] = hashlib.sha256(text).hexdigest()
            try:
                report = json.loads(text)
                result["iterations"] = report.get("timing", {}).get("iterations")
                failures += workload.check(report)
            except (KeyError, TypeError, ValueError) as exc:
                failures.append(f"report lacks an expected field: {exc!r}")
        elif not failures:
            failures.append("no report written")
        if trace and "spans" in result:
            result["layers"] = layer_metrics(result, report)
            failures += span_failures(result)
        shutil.rmtree(cmd_dir, ignore_errors=True)
        result["failures"] = failures
        return result


# -- trace analysis ----------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a nonempty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _self_times(spans) -> tuple[list, list, float]:
    dur = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    top = 0.0
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += dur[i]
        else:
            top += dur[i]
    return dur, [d - c for d, c in zip(dur, children)], top


def layer_metrics(call: dict, report: dict | None) -> dict:
    """Per-layer metrics of one traced command."""
    spans = call["spans"]
    dur, self_time, top = _self_times(spans)
    groups: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        groups.setdefault(span[0], []).append(i)

    def total(name, times=dur):
        return sum(times[i] for i in groups.get(name, ()))

    def values(name):
        return [spans[i][4] for i in groups.get(name, ())]

    kernel = values(KERNEL_SPAN)
    kernel_s = total(KERNEL_SPAN)
    columns = sum(v[0] for v in kernel)
    price_bytes = sum(v[1] for v in kernel)
    solves = values("lp_solver.solve")
    solve_times = [dur[i] for i in groups.get("lp_solver.solve", ())]
    iterations = sum(v[1] for v in solves)
    phases = Counter(values("lp_solver.pricing"))
    n_spans = len(spans)
    m = {
        "grid_lp.price_kernel_s": kernel_s,
        "grid_lp.price_kernel_calls": len(kernel),
        "grid_lp.columns_priced": columns,
        "grid_lp.price_bytes": price_bytes,
        "grid_lp.price_gbps": price_bytes / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "lp_solver.pricing_s": total("lp_solver.pricing"),
        "lp_solver.pricing_scans.phase1": phases[False],
        "lp_solver.pricing_scans.phase2": phases[True],
        "lp_solver.iterations": iterations,
        "lp_solver.columns_per_iteration": columns / iterations if iterations else 0.0,
        "lp_solver.solve_s": sum(solve_times),
        "lp_solver.solves": len(solves),
        "lp_solver.solve_s.p50": quantile(solve_times, 0.5) if solve_times else 0.0,
        "lp_solver.solve_s.p80": quantile(solve_times, 0.8) if solve_times else 0.0,
        "lp_solver.nonoptimal": sum(v[0] != "optimal" for v in solves),
        "lp_solver.pivot_s": total("lp_solver.solve", self_time),
        "grid_lp.build_s": total("grid_lp.build"),
        "grid_lp.build_calls": len(groups.get("grid_lp.build", ())),
        "tables.load_s": total("tables.load"),
        "tables.resample_s": total("tables.resample"),
        "closed_form.solve_s": total("closed_form.solve"),
        "grid_lp.decode_s": total("grid_lp.decode"),
        "postprocess.cluster_s": total("postprocess.cluster"),
        "postprocess.clusters": sum(values("postprocess.cluster")),
        "svgplot.render_s": total("svgplot.render"),
        "cli.self_s": call["main_s"] - top,
        "trace.spans": n_spans,
        "trace.overhead_s": call["span_cost_s"] * n_spans,
    }
    reported = (report or {}).get("timing", {}).get("iterations")
    if report is not None and iterations != reported:
        call.setdefault("trace_failures", []).append(
            f"solver iterations {iterations} != report timing.iterations {reported}"
        )
    return m


def span_failures(call: dict) -> list[str]:
    """Nesting and accounting checks on one traced command."""
    spans = call["spans"]
    failures = list(call.pop("trace_failures", []))
    failures += [f"untraced hook {name}" for name in call.get("missing_hooks", ())]
    for name, start, end, parent, _ in spans:
        if end < start:
            failures.append(f"span {name} ends before it starts")
        if parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            failures.append(f"span {name} exceeds its parent {spans[parent][0]}")
    _, self_time, top = _self_times(spans)
    main_s = call["main_s"]
    if top > main_s:
        failures.append(f"traced layers take {top:.6f}s of a {main_s:.6f}s command")
    drift = abs(sum(self_time) + (main_s - top) - main_s)
    if drift > call["layers"]["trace.overhead_s"] + 1e-9:
        failures.append(f"self times miss the command's wall time by {drift:.3g}s")
    return failures


# -- runs ----------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code under test."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


class StateFile:
    """Report digests and exact counters of earlier runs of the same code.

    Lets a later run flag drift against an earlier one in the same checkout.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}

    def compare(self, key: str, record: dict) -> list[str]:
        seen = self.data.setdefault(key, {})
        failures = [
            f"{name} was {seen[name]} in an earlier run, now {value}"
            for name, value in record.items()
            if name in seen and seen[name] != value
        ]
        seen.update(record)
        return failures

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


def run_workload(session: Session, state: StateFile, workload: Workload, seed: int,
                 seconds: float, trace: bool, source: str) -> dict:
    """Measure one workload for ``seconds``; return result and details."""
    started = time.monotonic()
    load_before = loadavg()
    setup = [] if trace else [session.setup_probe(workload) for _ in range(SETUP_PROBES)]
    calls = []
    while True:
        elapsed = time.monotonic() - started
        calls.append(session.command(workload, seed, trace, RUN_LIMIT_S - elapsed))
        elapsed = time.monotonic() - started
        last = calls[-1]["wall_s"]
        if elapsed + last > seconds or elapsed + last > RUN_LIMIT_S:
            break

    key = f"{source}:{workload.name}:{seed if workload.uses_seed else '-'}"
    digests = {c["report_sha256"] for c in calls if "report_sha256" in c}
    if len(digests) > 1:
        for c in calls:
            c["failures"].append("reports of repeated commands differ")
    for c in calls:
        record = {"report_sha256": c["report_sha256"]} if "report_sha256" in c else {}
        if "layers" in c:
            record.update({k: c["layers"][k] for k in EXACT})
        c["failures"] += state.compare(key, record)

    ok = [c for c in calls if "main_s" in c]
    if trace:
        layered = [c["layers"] for c in ok if "layers" in c] or [dict.fromkeys(PER_LAYER, 0)]
        metrics = {
            name: (statistics.median_low if name in EXACT else statistics.median)(
                m[name] for m in layered)
            for name in PER_LAYER
        }
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok) if ok else 0.0,
        }
        units = END_TO_END
    failed = sum(bool(c["failures"]) for c in calls)
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **session.versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "note": "shared machine; the benchmark pins no CPUs and changes no cgroup or "
                "kernel setting; it only reads /proc",
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "env": env,
        "samples": {
            "wall_s": [c["wall_s"] for c in calls],
            "setup_s": setup,
            "report_iterations": [c.get("iterations") for c in calls],
        },
        "errors": sorted({f for c in calls for f in c["failures"]}),
        "result": {
            "correct": failed == 0,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def print_run(run: dict) -> None:
    result = run["result"]
    samples = run["samples"]
    print(f"== {run['workload']} (seed {run['seed']}, trace {int(run['trace'])}): "
          f"{len(samples['wall_s'])} commands, {len(samples['setup_s'])} set-up probes")
    print("env " + json.dumps(run["env"], sort_keys=True))
    print("samples " + json.dumps(samples))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'fail_rate':34s} {rate:>16.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    for error in run["errors"]:
        print(f"  FAILED: {error}")


def check_names(results: dict[bool, dict]) -> list[str]:
    """Every metric of BENCHMARK.json is emitted with its unit, and no other."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in results[trace]["metrics"].items()}
        if want != got:
            failures.append(f"{key} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(want.items()) ^ set(got.items()))}")
    return failures


def smoke(session: Session, source: str, seed: int) -> int:
    """Tiny versions of every workload, traced and untraced, with self-checks."""
    failures = []
    state = StateFile(session.dir / "smoke-state.json")
    for workload in SMOKE:
        runs = {t: run_workload(session, state, workload, seed, 0.0, t, source) for t in (False, True)}
        for run in runs.values():
            print_run(run)
            failures += [f"{workload.name}: {e}" for e in run["errors"]]
        failures += [f"{workload.name}: {e}" for e in check_names({t: r["result"] for t, r in runs.items()})]
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="bootstrap resampling seed (default 7, the acceptance gate's)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload; at least one command always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-test of the benchmark on tiny settings")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "maxent_effects" / "cli.py").is_file():
        print(f"error: no maxent_effects package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    session = Session()
    try:
        source = source_digest()
        if args.smoke:
            return smoke(session, source, args.seed)
        state = StateFile(WORK / "state.json")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        runs = []
        for name in names:
            runs.append(run_workload(session, state, WORKLOADS[name], args.seed,
                                     args.seconds, bool(args.trace), source))
            state.save()
            print_run(runs[-1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()

    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in runs}))
    else:
        print(json.dumps(runs[0]["result"]))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
