"""How fast the grid approximation approaches the exact optimum.

Without variance constraints the continuum problem has a closed-form
maximum, so it makes a sharp yardstick: re-solve the discretized problem
at increasing grid resolutions and watch the achieved entropy approach
the reference.  The frequency rows carry a small two-sided slack, which
is why the finest grids can land slightly above the reference line.
"""

from maxent_effects.closed_form import solve_conditional_homogeneous
from maxent_effects.datasets import stratified_table
from maxent_effects.grid_lp import build_problem
from maxent_effects.lp_solver import relax_and_retry
from maxent_effects.svgplot import convergence_svg

EPSILON = 1.5e-3

table = stratified_table()
reference = solve_conditional_homogeneous(table).entropy_per_individual
print(f"closed-form reference: {reference:.6f} nats")
print()
print("    m   entropy    reference - entropy")

series = []
for m in range(25, 80, 10):
    problem = build_problem(table, m, epsilon=EPSILON)
    solution = relax_and_retry(problem, (1e-9,))
    entropy = solution.objective if solution.status == "optimal" else None
    series.append((m, entropy))
    if entropy is None:
        print(f"  {m:3d}   {solution.status}")
    else:
        print(f"  {m:3d}   {entropy:.6f}   {reference - entropy:+.6f}")

# coarser grids than m=25 cannot even represent the smallest observed
# baseline risks, so the sweep starts where the problem is feasible
with open("convergence.svg", "w", encoding="utf-8") as fh:
    fh.write(convergence_svg(series, reference))
print()
print("wrote convergence.svg")
