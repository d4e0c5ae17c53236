"""Condensing raw grid atoms into presentable point-mass mixtures.

An optimal vertex of the grid LP spreads its mass over at most a few
dozen cells, typically a small blend of touching cells per mode.  This
module merges touching cells into clusters, one mixture component per
connected component, with a mass-weighted centroid.

Cells are neighbors when every grid index differs by at most one (26
neighbors).  A mode that straddles cell boundaries on several axes at
once splits into diagonal cell pairs, and this vertex adjacency joins
them into one component again.  Distinct modes sit many cells apart in
practice, so it still keeps them apart.

Merging moves mass off the grid centers, so the equality rows may pick up
violations of order 1/m.  Nothing is re-optimized and nothing is hidden:
the mixture carries row activities and residuals recomputed exactly at
the centroids, alongside the entropy before and after merging.  Clusters
below a small mass threshold are kept, but listed separately as dust so
discretization noise does not read as substantive mixture components.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid_lp import Atom, DiscretizedProblem, atoms_from_solution
from .lp_solver import LpSolution
from .model import PropensityPrognosisTriple

__all__ = [
    "Cluster",
    "MixtureSolution",
    "cluster_atoms",
    "mixture_from_solution",
    "DUST_THRESHOLD",
]

#: Clusters lighter than this are reported as dust, not components.
DUST_THRESHOLD = 1e-4


@dataclass(frozen=True)
class Cluster:
    """A connected component of occupied cells, condensed to one point."""

    category: int
    label: str
    atoms: tuple[Atom, ...]
    mass: float
    pi: float
    r0: float
    r1: float

    @property
    def centroid(self) -> PropensityPrognosisTriple:
        return PropensityPrognosisTriple(self.pi, self.r0, self.r1)

    @property
    def relative_risk(self) -> float | None:
        """r1/r0, or None when the baseline risk is zero."""
        if self.r0 == 0.0:
            return None
        return self.r1 / self.r0

    @property
    def risk_difference(self) -> float:
        return self.r1 - self.r0


@dataclass(frozen=True, eq=False)
class MixtureSolution:
    """Clustered mixture with full residual accounting.

    ``entropy`` is the per-individual entropy of the merged mixture
    (clusters and dust evaluated at their centroids); ``entropy_raw`` is
    the same quantity for the unmerged atoms.  ``activities`` and
    ``residuals`` are recomputed at the centroids, so any violation
    introduced by merging is visible rather than silently discarded.
    """

    clusters: tuple[Cluster, ...]
    dust: tuple[Cluster, ...]
    entropy: float
    entropy_raw: float
    activities: np.ndarray
    residuals: np.ndarray

    @property
    def total_mass(self) -> float:
        return math.fsum(c.mass for c in self.clusters + self.dust)

    def per_category(self, category: int) -> tuple[Cluster, ...]:
        return tuple(c for c in self.clusters if c.category == category)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals, initial=0.0))


_VERTEX_STEPS = tuple(
    (dj, dk, dl)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    for dl in (-1, 0, 1)
    if (dj, dk, dl) != (0, 0, 0)
)


def _components(atoms: list[Atom]) -> list[list[Atom]]:
    """Connected components of occupied cells, neighbors by vertex."""
    by_cell = {(a.j, a.k, a.l): i for i, a in enumerate(atoms)}
    seen = [False] * len(atoms)
    components = []
    for start in range(len(atoms)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        members = []
        while queue:
            i = queue.popleft()
            members.append(atoms[i])
            j, k, l = atoms[i].j, atoms[i].k, atoms[i].l
            for dj, dk, dl in _VERTEX_STEPS:
                nb = by_cell.get((j + dj, k + dk, l + dl))
                if nb is not None and not seen[nb]:
                    seen[nb] = True
                    queue.append(nb)
        components.append(members)
    return components


def _condense(members: list[Atom]) -> Cluster:
    mass = math.fsum(a.mass for a in members)
    if mass <= 0.0:
        raise ParameterError("cluster with nonpositive mass")
    pi = math.fsum(a.mass * a.pi for a in members) / mass
    r0 = math.fsum(a.mass * a.r0 for a in members) / mass
    r1 = math.fsum(a.mass * a.r1 for a in members) / mass
    members = sorted(members, key=lambda a: (a.j, a.k, a.l))
    return Cluster(
        category=members[0].category,
        label=members[0].label,
        atoms=tuple(members),
        mass=mass,
        pi=pi,
        r0=r0,
        r1=r1,
    )


def cluster_atoms(problem: DiscretizedProblem, atoms) -> MixtureSolution:
    """Merge adjacent atoms into clusters, category by category.

    Atoms must lie on cells of ``problem``'s grid (as produced by
    :func:`maxent_effects.grid_lp.atoms_from_solution`).  Components with
    mass below ``DUST_THRESHOLD`` go to the dust list.  Residuals are
    evaluated at the merged representation, dust included, against the
    problem's rows.  Cells are neighbors by vertex (see the module
    docstring).
    """
    atoms = tuple(atoms)
    m = problem.grid.m
    for a in atoms:
        if not all(0 <= v < m for v in (a.j, a.k, a.l)):
            raise ParameterError(f"atom cell {(a.j, a.k, a.l)} off the grid")

    clusters: list[Cluster] = []
    dust: list[Cluster] = []
    for c in range(problem.table.n_categories):
        members = sorted(
            (a for a in atoms if a.category == c), key=lambda a: (a.j, a.k, a.l)
        )
        if not members:
            continue
        for component in _components(members):
            cluster = _condense(component)
            if cluster.mass < DUST_THRESHOLD:
                dust.append(cluster)
            else:
                clusters.append(cluster)

    clusters.sort(key=lambda cl: (cl.category, -cl.mass, cl.pi))
    dust.sort(key=lambda cl: (cl.category, -cl.mass, cl.pi))
    merged = tuple(clusters) + tuple(dust)
    activities = problem.activities(merged)
    return MixtureSolution(
        clusters=tuple(clusters),
        dust=tuple(dust),
        entropy=problem.entropy_of(merged),
        entropy_raw=problem.entropy_of(atoms),
        activities=activities,
        residuals=problem.residuals(activities),
    )


def mixture_from_solution(problem: DiscretizedProblem, solution: LpSolution) -> MixtureSolution:
    """Decode an LP solution and cluster it in one step."""
    return cluster_atoms(problem, atoms_from_solution(problem, solution))
