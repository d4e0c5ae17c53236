"""Merging solution atoms into point-mass mixtures with residual accounting."""

import math

import numpy as np
import pytest

from maxent_effects.closed_form import solve_conditional_homogeneous
from maxent_effects.errors import ParameterError
from maxent_effects.grid_lp import Atom, build_problem
from maxent_effects.lp_solver import relax_and_retry
from maxent_effects.model import StratifiedTable, entropy
from maxent_effects.postprocess import (
    ADJACENCIES,
    DUST_THRESHOLD,
    Cluster,
    cluster_atoms,
    mixture_from_solution,
)

RNG_SEED = 40519

# exact solution triples (0.45, 0.25, 0.65) and (0.35, 0.15, 0.55), both on
# the centers of any grid with m divisible by 10
TABLE = StratifiedTable.from_counts(
    {"a": (55, 117, 165, 63), "b": (39, 77, 221, 63)}
)


def make_problem(m=10, epsilon=0.01):
    return build_problem(TABLE, m=m, epsilon=epsilon)


def make_atom(problem, category, j, k, l, mass):
    centers = problem.grid.centers
    return Atom(
        category=category,
        label=problem.table.labels[category],
        j=j,
        k=k,
        l=l,
        pi=centers[j],
        r0=centers[k],
        r1=centers[l],
        mass=mass,
    )


class TestAdjacency:
    def test_isolated_cells_stay_separate_under_both_rules(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 1, 1, 1, 0.6),
            make_atom(problem, 0, 5, 5, 5, 0.4),
        ]
        for rule in ADJACENCIES:
            mix = cluster_atoms(problem, atoms, adjacency=rule)
            assert len(mix.clusters) == 2

    def test_face_neighbors_merge_under_both_rules(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 2, 2, 2, 0.5),
            make_atom(problem, 0, 3, 2, 2, 0.5),
        ]
        for rule in ADJACENCIES:
            mix = cluster_atoms(problem, atoms, adjacency=rule)
            assert len(mix.clusters) == 1
            assert len(mix.clusters[0].atoms) == 2

    def test_diagonal_neighbors_merge_only_under_vertex(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 3, 3, 3, 0.6),
            make_atom(problem, 0, 4, 4, 4, 0.4),
        ]
        assert len(cluster_atoms(problem, atoms).clusters) == 1
        assert len(cluster_atoms(problem, atoms, adjacency="face").clusters) == 2

    def test_vertex_rule_chains_through_corners(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 2, 2, 2, 0.3),
            make_atom(problem, 0, 3, 3, 3, 0.3),
            make_atom(problem, 0, 4, 4, 4, 0.4),
        ]
        assert len(cluster_atoms(problem, atoms).clusters) == 1
        assert len(cluster_atoms(problem, atoms, adjacency="face").clusters) == 3

    def test_categories_never_merge(self):
        # same cell in both categories, still two clusters
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 4, 4, 4, 0.5),
            make_atom(problem, 1, 4, 4, 4, 0.5),
        ]
        mix = cluster_atoms(problem, atoms)
        assert len(mix.clusters) == 2
        assert {c.category for c in mix.clusters} == {0, 1}
        assert {c.label for c in mix.clusters} == {"a", "b"}

    def test_unknown_rule_rejected(self):
        problem = make_problem()
        atoms = [make_atom(problem, 0, 1, 1, 1, 1.0)]
        with pytest.raises(ParameterError):
            cluster_atoms(problem, atoms, adjacency="corner")

    def test_off_grid_cell_rejected(self):
        problem = make_problem(m=10)
        bad = Atom(0, "a", 10, 0, 0, 1.05, 0.05, 0.05, 1.0)
        with pytest.raises(ParameterError):
            cluster_atoms(problem, [bad])


class TestCondensation:
    def test_centroid_is_mass_weighted_mean(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 2, 2, 2, 0.75),
            make_atom(problem, 0, 3, 2, 2, 0.25),
        ]
        (cluster,) = cluster_atoms(problem, atoms).clusters
        assert cluster.pi == pytest.approx(0.75 * 0.25 + 0.25 * 0.35, abs=1e-15)
        assert cluster.r0 == pytest.approx(0.25, abs=1e-15)
        assert cluster.r1 == pytest.approx(0.25, abs=1e-15)
        assert cluster.mass == pytest.approx(1.0, abs=1e-15)

    def test_single_atom_cluster_reproduces_the_atom(self):
        problem = make_problem()
        atom = make_atom(problem, 1, 6, 2, 8, 1.0)
        (cluster,) = cluster_atoms(problem, [atom]).clusters
        assert (cluster.pi, cluster.r0, cluster.r1) == (atom.pi, atom.r0, atom.r1)
        assert cluster.atoms == (atom,)

    def test_mass_is_conserved(self):
        problem = make_problem(m=20)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            cells = rng.choice(20 ** 3, size=n, replace=False)
            masses = rng.uniform(0.01, 1.0, size=n)
            atoms = []
            for cell, mass in zip(cells, masses):
                j, k, l = np.unravel_index(cell, (20, 20, 20))
                atoms.append(make_atom(problem, 0, int(j), int(k), int(l), mass))
            mix = cluster_atoms(problem, atoms)
            assert mix.total_mass == pytest.approx(math.fsum(masses), abs=1e-12)

    def test_member_atoms_partition_the_input(self):
        problem = make_problem()
        rng = np.random.default_rng(RNG_SEED + 1)
        cells = rng.choice(10 ** 3, size=30, replace=False)
        atoms = []
        for cell in cells:
            j, k, l = np.unravel_index(cell, (10, 10, 10))
            atoms.append(make_atom(problem, 0, int(j), int(k), int(l), 0.02))
        mix = cluster_atoms(problem, atoms)
        seen = [a for c in mix.clusters + mix.dust for a in c.atoms]
        assert len(seen) == len(atoms)
        assert {(a.j, a.k, a.l) for a in seen} == {(a.j, a.k, a.l) for a in atoms}


class TestDustAndOrdering:
    def test_light_components_become_dust(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 2, 2, 2, 1.0 - 5e-5),
            make_atom(problem, 0, 8, 8, 8, 5e-5),
        ]
        mix = cluster_atoms(problem, atoms)
        assert len(mix.clusters) == 1
        assert len(mix.dust) == 1
        assert mix.dust[0].mass == pytest.approx(5e-5, abs=1e-18)
        assert mix.total_mass == pytest.approx(1.0, abs=1e-15)
        # a component of exactly DUST_THRESHOLD is a cluster
        atoms[1] = make_atom(problem, 0, 8, 8, 8, DUST_THRESHOLD)
        assert len(cluster_atoms(problem, atoms).clusters) == 2

    def test_default_threshold_value(self):
        assert DUST_THRESHOLD == 1e-4

    def test_clusters_sorted_by_category_then_mass_then_pi(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 1, 2, 2, 2, 0.2),
            make_atom(problem, 0, 8, 3, 3, 0.3),
            make_atom(problem, 0, 1, 5, 5, 0.3),
            make_atom(problem, 0, 4, 7, 7, 0.6),
            make_atom(problem, 1, 6, 6, 6, 0.4),
        ]
        mix = cluster_atoms(problem, atoms)
        keys = [(c.category, -c.mass, c.pi) for c in mix.clusters]
        assert keys == sorted(keys)
        # the two equal-mass clusters in category 0 tie-break on pi
        tied = [c for c in mix.clusters if c.category == 0 and c.mass == 0.3]
        assert [c.pi for c in tied] == pytest.approx([0.15, 0.85], abs=1e-12)

    def test_per_category_filter(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 2, 2, 2, 0.5),
            make_atom(problem, 1, 7, 7, 7, 0.5),
        ]
        mix = cluster_atoms(problem, atoms)
        assert len(mix.per_category(0)) == 1
        assert len(mix.per_category(1)) == 1
        assert mix.per_category(0)[0].label == "a"


class TestResidualAccounting:
    def test_exact_atom_has_zero_residuals(self):
        # each category holds 400 of the 800 individuals, so its atoms
        # carry mass 0.5 under the grand-total normalization
        problem = build_problem(TABLE, m=10, epsilon=0.0)
        atoms = [
            make_atom(problem, 0, 4, 2, 6, 0.5),
            make_atom(problem, 1, 3, 1, 5, 0.5),
        ]
        mix = cluster_atoms(problem, atoms)
        assert mix.max_residual <= 1e-12
        assert mix.entropy == pytest.approx(mix.entropy_raw, abs=1e-15)

    def test_merge_shift_shows_up_in_residuals(self):
        problem = build_problem(TABLE, m=10, epsilon=0.0)
        # split category a's mass across two face neighbors along pi
        atoms = [
            make_atom(problem, 0, 4, 2, 6, 0.25),
            make_atom(problem, 0, 5, 2, 6, 0.25),
            make_atom(problem, 1, 3, 1, 5, 0.5),
        ]
        mix = cluster_atoms(problem, atoms)
        merged = mix.clusters + mix.dust
        assert np.array_equal(mix.activities, problem.activities(merged))
        assert np.array_equal(mix.residuals, problem.residuals(mix.activities))
        # the blend sits half a cell off the exact pi, and the equality
        # rows report the shift instead of hiding it
        (cluster_a,) = mix.per_category(0)
        assert cluster_a.pi == pytest.approx(0.50, abs=1e-15)
        assert mix.max_residual > 0.0
        assert mix.max_residual < 0.1

    def test_dust_counts_toward_activities(self):
        problem = make_problem()
        heavy = make_atom(problem, 0, 2, 2, 2, 1.0 - 5e-5)
        light = make_atom(problem, 0, 8, 8, 8, 5e-5)
        mix = cluster_atoms(problem, [heavy, light])
        both = problem.activities([heavy, light])
        assert np.allclose(mix.activities, both, atol=1e-15)

    def test_entropy_raw_matches_atom_average(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 3, 3, 3, 0.6),
            make_atom(problem, 0, 4, 4, 4, 0.4),
        ]
        mix = cluster_atoms(problem, atoms)
        expected = math.fsum(a.mass * entropy(a.triple()) for a in atoms)
        assert mix.entropy_raw == pytest.approx(expected, abs=1e-15)
        (cluster,) = mix.clusters
        merged = cluster.mass * entropy(cluster.centroid)
        assert mix.entropy == pytest.approx(merged, abs=1e-15)


class TestEffectSummaries:
    def test_contrasts_are_risk_ratio_and_difference(self):
        problem = make_problem()
        atoms = [
            make_atom(problem, 0, 2, 1, 7, 0.7),
            make_atom(problem, 1, 6, 2, 4, 0.3),
        ]
        mix = cluster_atoms(problem, atoms)
        assert len(mix.clusters) == 2
        for cluster in mix.clusters:
            assert cluster.relative_risk == pytest.approx(
                cluster.r1 / cluster.r0, abs=1e-15
            )
            assert cluster.risk_difference == pytest.approx(
                cluster.r1 - cluster.r0, abs=1e-15
            )

    def test_relative_risk_undefined_at_zero_baseline(self):
        atom = Atom(0, "a", 0, 0, 0, 0.5, 0.0, 0.3, 1.0)
        cluster = Cluster(
            category=0,
            label="a",
            atoms=(atom,),
            mass=1.0,
            pi=0.5,
            r0=0.0,
            r1=0.3,
        )
        assert cluster.relative_risk is None
        assert cluster.risk_difference == pytest.approx(0.3, abs=1e-15)


class TestSolutionIntegration:
    def test_exact_problem_collapses_to_one_point_per_category(self):
        problem = build_problem(TABLE, m=10, epsilon=0.0)
        solution = relax_and_retry(problem.as_lp(), (1e-9,))
        assert solution.status == "optimal"
        mix = mixture_from_solution(problem, solution)
        assert len(mix.clusters) == 2
        assert mix.dust == ()
        by_label = {c.label: c for c in mix.clusters}
        assert by_label["a"].centroid.as_tuple() == pytest.approx(
            (0.45, 0.25, 0.65), abs=1e-9
        )
        assert by_label["b"].centroid.as_tuple() == pytest.approx(
            (0.35, 0.15, 0.55), abs=1e-9
        )
        reference = solve_conditional_homogeneous(TABLE).entropy_per_individual
        assert mix.entropy == pytest.approx(reference, abs=1e-9)
        assert mix.max_residual <= 1e-9

    def test_vertex_never_fragments_more_than_face(self):
        table = StratifiedTable.from_counts({"c": (81, 796, 4201, 1680)})
        problem = build_problem(
            table, m=16, epsilon=0.01, r2_propensity=0.30, r2_prognosis=0.20
        )
        solution = relax_and_retry(problem.as_lp(), (1e-9,))
        assert solution.status == "optimal"
        vertex = mixture_from_solution(problem, solution)
        face = mixture_from_solution(problem, solution, adjacency="face")
        assert len(vertex.clusters) <= len(face.clusters)
        assert vertex.entropy_raw == pytest.approx(face.entropy_raw, abs=1e-15)
        assert vertex.total_mass == pytest.approx(face.total_mass, abs=1e-12)
        # same atoms under both rules, only the grouping differs
        vertex_cells = sorted(
            (a.j, a.k, a.l) for c in vertex.clusters + vertex.dust for a in c.atoms
        )
        face_cells = sorted(
            (a.j, a.k, a.l) for c in face.clusters + face.dust for a in c.atoms
        )
        assert vertex_cells == face_cells

    def test_mixture_from_solution_matches_manual_pipeline(self):
        problem = build_problem(TABLE, m=10, epsilon=0.0)
        solution = relax_and_retry(problem.as_lp(), (1e-9,))
        from maxent_effects.grid_lp import atoms_from_solution

        direct = cluster_atoms(problem, atoms_from_solution(problem, solution))
        wrapped = mixture_from_solution(problem, solution)
        assert wrapped.clusters == direct.clusters
        assert wrapped.entropy == direct.entropy
