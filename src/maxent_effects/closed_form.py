"""Analytic maximum-entropy solutions and the discrimination/variance bridge.

Without variance constraints the maximum-entropy explanation of a 2x2
table is homogeneous: every individual gets the same latent triple, read
directly off the table margins.  With covariate strata the optimum is the
mixture of the per-stratum homogeneous solutions.  These closed forms are
both user-facing fast paths and the upper-bound oracles against which the
discretized linear program is checked.

The third piece is the identity linking the variance of latent
probabilities to Tjur's coefficient of discrimination,

    D = var(p) / (P * (1 - P)),

where P is the marginal rate of the predicted event.  Inverting it turns
a discrimination coefficient transported from the literature into a lower
bound on the variance of the latent parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateTableError, DomainError
from .model import (
    JointOutcomeProbs,
    PropensityPrognosisTriple,
    StratifiedTable,
    entropy,
    joint_probs,
)

__all__ = [
    "HomogeneousSolution",
    "ConditionalHomogeneousSolution",
    "solve_homogeneous",
    "solve_conditional_homogeneous",
    "r2_to_variance_bound",
]


@dataclass(frozen=True)
class HomogeneousSolution:
    """The single-triple maximum-entropy explanation of one 2x2 table."""

    triple: PropensityPrognosisTriple
    entropy_per_individual: float

    @property
    def relative_risk(self) -> float | None:
        r0, r1 = self.triple.r0, self.triple.r1
        return r1 / r0 if r0 > 0 else None

    @property
    def risk_difference(self) -> float:
        return self.triple.r1 - self.triple.r0


@dataclass(frozen=True)
class ConditionalHomogeneousSolution:
    """Per-category homogeneous solutions mixed by category frequency.

    ``components`` holds (label, weight, solution) with weights N_c / N
    summing to one.
    """

    components: tuple[tuple[str, float, HomogeneousSolution], ...]

    def __post_init__(self) -> None:
        total = math.fsum(w for _, w, _ in self.components)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"component weights must sum to 1, got {total!r}")

    @property
    def entropy_per_individual(self) -> float:
        """Population-average entropy, sum_c (N_c/N) * H_c."""
        return math.fsum(w * s.entropy_per_individual for _, w, s in self.components)


def solve_homogeneous(probs: JointOutcomeProbs) -> HomogeneousSolution:
    """Maximum-entropy single triple consistent with the four joint cells.

    The optimum assigns every individual

        pi = P(e=1),  r0 = P(d=1 | e=0),  r1 = P(d=1 | e=1),

    whose induced joint distribution reproduces ``probs`` exactly; its
    entropy equals the Shannon entropy of ``probs``.

    Raises
    ------
    DegenerateTableError
        If either exposure margin is zero, making a conditional prognosis
        undefined.
    """
    unexposed = probs.p01 + probs.p00
    exposed = probs.p11 + probs.p10
    if exposed <= 0.0 or unexposed <= 0.0:
        raise DegenerateTableError(
            "both exposure margins must be positive to identify (pi, r0, r1)"
        )
    triple = PropensityPrognosisTriple(
        pi=exposed,
        r0=probs.p01 / unexposed,
        r1=probs.p11 / exposed,
    )
    return HomogeneousSolution(triple=triple, entropy_per_individual=entropy(triple))


def solve_conditional_homogeneous(table: StratifiedTable) -> ConditionalHomogeneousSolution:
    """Per-stratum homogeneous solutions weighted by stratum frequency.

    Applies :func:`solve_homogeneous` within each category; the aggregate
    entropy per individual is the weighted average of the per-category
    entropies.
    """
    total = table.total
    components = []
    for index, cat in enumerate(table.categories):
        try:
            solution = solve_homogeneous(joint_probs(table, index))
        except DegenerateTableError as exc:
            raise DegenerateTableError(
                f"category {cat.label!r} is degenerate: {exc}"
            ) from exc
        components.append((cat.label, cat.total / total, solution))
    return ConditionalHomogeneousSolution(components=tuple(components))


def r2_to_variance_bound(r2: float, marginal: float) -> float:
    """Lower bound on latent-parameter variance implied by a reported
    discrimination coefficient.

    Solving the discrimination identity for the variance gives
    ``var >= r2 * marginal * (1 - marginal)``: a model reported to achieve
    discrimination ``r2`` on an event with marginal rate ``marginal``
    certifies at least this much variance in the latent probabilities,
    because a model built from an incomplete covariate set can only
    discriminate less than the idealized model built from all of them.
    """
    if not (0.0 <= r2 <= 1.0):
        raise DomainError(f"r2 must lie in [0, 1], got {r2!r}")
    if not (0.0 < marginal < 1.0):
        raise DegenerateTableError(
            f"marginal must lie strictly inside (0, 1), got {float(marginal)}"
        )
    return r2 * marginal * (1.0 - marginal)
