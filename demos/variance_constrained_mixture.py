"""Heterogeneous effects from one table plus external discrimination values.

The four cells of a 2x2 table cannot identify effect heterogeneity on
their own; the closed-form solution is always homogeneous.  Published
logistic models of the same exposure and outcome, however, report Tjur
R2 values around 0.30 (exposure) and 0.20 (outcome), and a population
with those discrimination levels must spread its triples out.  Imposing
the implied variance lower bounds and re-maximizing entropy over a fine
grid yields a small point-mass mixture instead of a single triple.
"""

from maxent_effects.closed_form import r2_to_variance_bound, solve_homogeneous
from maxent_effects.datasets import marginal_table
from maxent_effects.grid_lp import build_problem
from maxent_effects.lp_solver import relax_and_retry
from maxent_effects.model import joint_probs
from maxent_effects.postprocess import DUST_THRESHOLD, mixture_from_solution
from maxent_effects.svgplot import mixture_svg

R2_EXPOSURE = 0.30
R2_OUTCOME = 0.20
M = 75          # grid resolution per axis
EPSILON = 3e-3  # two-sided slack on the frequency-matching rows

table = marginal_table()
pooled = table.pooled()
p_e = (pooled.n11 + pooled.n10) / pooled.total
p_d = (pooled.n01 + pooled.n11) / pooled.total
print(f"variance floors: propensity >= "
      f"{r2_to_variance_bound(R2_EXPOSURE, p_e):.5f}, "
      f"expected risk >= {r2_to_variance_bound(R2_OUTCOME, p_d):.5f}")

problem = build_problem(
    table, M, r2_propensity=R2_EXPOSURE, r2_prognosis=R2_OUTCOME,
    epsilon=EPSILON,
)
solution = relax_and_retry(problem.as_lp(), (1e-9,))
print(f"LP: {solution.status} in {solution.iterations} iterations, "
      f"{len(solution.columns)} occupied cells")

mixture = mixture_from_solution(problem, solution)
homogeneous = solve_homogeneous(joint_probs(table, 0))
print(f"entropy {mixture.entropy_raw:.4f} nats vs "
      f"{homogeneous.entropy_per_individual:.4f} unconstrained")
print(f"largest constraint residual at the merged centroids: "
      f"{mixture.max_residual:.2e}")
print()

print("cluster  mass    pi     r0     r1     RR     RD")
for i, c in enumerate(mixture.clusters):
    print(f"{i:7d}  {c.mass:.3f}  {c.pi:.3f}  {c.r0:.3f}  {c.r1:.3f}  "
          f"{c.relative_risk:5.2f}  {c.risk_difference:.3f}")
if mixture.dust:
    print(f"(plus {len(mixture.dust)} dust clusters below "
          f"{DUST_THRESHOLD} mass)")

# most individuals sit in a low-exposure cluster with a strong effect;
# a small high-exposure group has weaker per-person effects
with open("mixture.svg", "w", encoding="utf-8") as fh:
    fh.write(mixture_svg(mixture.clusters))
print("wrote mixture.svg")
