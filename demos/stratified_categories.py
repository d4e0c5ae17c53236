"""Per-stratum mixtures when a covariate is observed.

The same 6758 individuals, now split into ten age-by-sex categories.
Conditioning sharpens the estimate twice over: the closed form becomes a
weighted mixture of one triple per category, and the variance-constrained
grid problem resolves each category into its own small mixture.
"""

from maxent_effects.closed_form import solve_conditional_homogeneous
from maxent_effects.datasets import stratified_table
from maxent_effects.grid_lp import build_problem
from maxent_effects.lp_solver import relax_and_retry
from maxent_effects.postprocess import mixture_from_solution

table = stratified_table()
print(f"{table.n_categories} categories, {table.total:.0f} individuals")

# closed form: entropy can only fall when we condition on more detail
conditional = solve_conditional_homogeneous(table)
print(f"conditional closed-form entropy: "
      f"{conditional.entropy_per_individual:.4f} nats")
print()
print("category        weight   pi     r0     r1")
for label, weight, sol in conditional.components:
    t = sol.triple
    print(f"{label:14s}  {weight:.4f}  {t.pi:.3f}  {t.r0:.4f}  {t.r1:.3f}")
print()

# now impose the two external discrimination floors and re-solve on a
# 75-point grid; each category splits into a two-point mixture
problem = build_problem(
    table, 75, r2_propensity=0.30, r2_prognosis=0.20, epsilon=1e-3,
)
solution = relax_and_retry(problem, (1e-9,))
print(f"LP: {solution.status} in {solution.iterations} iterations")

mixture = mixture_from_solution(problem, solution)
print("category        mass     pi     r0     r1     RR")
for c in mixture.clusters:
    rr = "  n/a" if c.relative_risk is None else f"{c.relative_risk:5.2f}"
    print(f"{c.label:14s}  {c.mass:.4f}  {c.pi:.3f}  {c.r0:.4f}  "
          f"{c.r1:.3f}  {rr}")
print(f"residual ceiling across all rows: {mixture.max_residual:.2e}")
