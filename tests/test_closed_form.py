"""Homogeneous optima, the per-category mixture, and the variance bridge."""

import math

import numpy as np
import pytest

from maxent_effects.closed_form import (
    r2_to_variance_bound,
    solve_conditional_homogeneous,
    solve_homogeneous,
)
from maxent_effects.datasets import marginal_table, stratified_table
from maxent_effects.errors import DegenerateTableError, DomainError
from maxent_effects.model import (
    PropensityPrognosisTriple,
    StratifiedTable,
    cell_probs,
    entropy,
    joint_probs,
    tjur_r2,
)

RNG_SEED = 48151623

# frozen independently computed values for the packaged single-stratum table
TABLE2_TRIPLE = (0.3663805859721811, 0.018916394208313873, 0.32148626817447495)
TABLE2_ENTROPY = 0.9465106910873986
TABLE2_RISK_DIFFERENCE = 0.3025698739661611
TABLE2_RELATIVE_RISK = 16.995113584235824


def random_table(rng):
    counts = rng.integers(1, 1000, size=4)
    return StratifiedTable.from_counts({"x": tuple(float(c) for c in counts)})


def grid_search_feasible(probs, step=0.05, tol=1e-12):
    """Best entropy among grid triples that reproduce the joint cells."""
    target = probs.as_array()
    values = np.arange(0.0, 1.0 + step / 2, step)
    best = -math.inf
    for pi in values:
        for r0 in values:
            for r1 in values:
                cells = np.array(
                    [
                        (1.0 - pi) * r0,
                        pi * r1,
                        (1.0 - pi) * (1.0 - r0),
                        pi * (1.0 - r1),
                    ]
                )
                if np.max(np.abs(cells - target)) > tol:
                    continue
                h = entropy(PropensityPrognosisTriple(pi, r0, r1))
                best = max(best, h)
    return best


def table_from_grid_triple(pi, r0, r1, scale=400):
    """Integer counts whose joint probabilities sit exactly on the triple."""
    cells = np.array(
        [(1 - pi) * r0, pi * r1, (1 - pi) * (1 - r0), pi * (1 - r1)]
    )
    counts = np.rint(cells * scale)
    assert np.max(np.abs(counts - cells * scale)) < 1e-9
    return StratifiedTable.from_counts({"x": tuple(counts)})


class TestHomogeneous:
    def test_reference_table_values(self):
        sol = solve_homogeneous(joint_probs(marginal_table()))
        assert sol.triple.as_tuple() == pytest.approx(TABLE2_TRIPLE, abs=1e-15)
        assert sol.entropy_per_individual == pytest.approx(TABLE2_ENTROPY, abs=1e-15)
        assert sol.risk_difference == pytest.approx(TABLE2_RISK_DIFFERENCE, abs=1e-15)
        assert sol.relative_risk == pytest.approx(TABLE2_RELATIVE_RISK, abs=1e-12)

    def test_reconstructs_joints(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            probs = joint_probs(random_table(rng))
            sol = solve_homogeneous(probs)
            induced = sol.triple.joint_outcomes().as_array()
            assert np.max(np.abs(induced - probs.as_array())) < 1e-14

    def test_entropy_equals_joint_entropy(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(100):
            probs = joint_probs(random_table(rng))
            sol = solve_homogeneous(probs)
            assert abs(sol.entropy_per_individual - probs.shannon_entropy()) < 1e-12

    def test_expected_risk_is_pooled_outcome_rate(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(100):
            probs = joint_probs(random_table(rng))
            sol = solve_homogeneous(probs)
            # expected risk (1-pi) r0 + pi r1: the two case rows of cell_probs
            risk = cell_probs(*sol.triple.as_tuple())[:2].sum()
            assert abs(risk - probs.marginal_outcome) < 1e-12

    def test_degenerate_margins_rejected(self):
        empty_exposed = StratifiedTable.from_counts({"x": (3, 0, 7, 0)})
        with pytest.raises(DegenerateTableError):
            solve_homogeneous(joint_probs(empty_exposed))
        empty_unexposed = StratifiedTable.from_counts({"x": (0, 3, 0, 7)})
        with pytest.raises(DegenerateTableError):
            solve_homogeneous(joint_probs(empty_unexposed))

    def test_grid_search_never_beats(self):
        # the only feasible single triples are reproductions of the exact
        # optimum, so an exhaustive scan can tie but not win
        for pi, r0, r1 in [(0.45, 0.25, 0.65), (0.3, 0.1, 0.9), (0.55, 0.4, 0.4)]:
            table = table_from_grid_triple(pi, r0, r1)
            probs = joint_probs(table)
            sol = solve_homogeneous(probs)
            best = grid_search_feasible(probs, step=0.05)
            assert best > -math.inf  # triple chosen on the scan grid
            assert sol.entropy_per_individual >= best - 1e-9

    def test_grid_search_empty_off_grid(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        probs = joint_probs(random_table(rng))
        assert grid_search_feasible(probs, step=0.05) == -math.inf

    def test_label_swap(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(100):
            table = random_table(rng)
            sol = solve_homogeneous(joint_probs(table))
            swapped = solve_homogeneous(joint_probs(table.swap_exposure()))
            assert swapped.triple.pi == pytest.approx(1.0 - sol.triple.pi, abs=1e-14)
            assert swapped.triple.r0 == pytest.approx(sol.triple.r1, abs=1e-14)
            assert swapped.triple.r1 == pytest.approx(sol.triple.r0, abs=1e-14)
            assert swapped.entropy_per_individual == pytest.approx(
                sol.entropy_per_individual, abs=1e-12
            )

    def test_relative_risk_none_at_zero_baseline(self):
        sol = solve_homogeneous(joint_probs(StratifiedTable.from_counts({"x": (0, 5, 10, 5)})))
        assert sol.triple.r0 == 0.0
        assert sol.relative_risk is None


class TestConditional:
    def test_weights_and_entropy_average(self):
        table = stratified_table()
        sol = solve_conditional_homogeneous(table)
        assert len(sol.components) == 10
        weights = [w for _, w, _ in sol.components]
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
        manual = math.fsum(
            w * s.entropy_per_individual for _, w, s in sol.components
        )
        assert sol.entropy_per_individual == pytest.approx(manual, abs=1e-15)

    def test_labels_preserved_in_order(self):
        table = stratified_table()
        sol = solve_conditional_homogeneous(table)
        assert tuple(lbl for lbl, _, _ in sol.components) == table.labels

    def test_component_matches_single_category_solve(self):
        table = stratified_table()
        sol = solve_conditional_homogeneous(table)
        for index in range(table.n_categories):
            direct = solve_homogeneous(joint_probs(table, index))
            assert sol.components[index][2] == direct

    def test_conditioning_lowers_entropy(self):
        # concavity: the weighted average of per-category entropies never
        # exceeds the entropy of the pooled table
        table = stratified_table()
        conditional = solve_conditional_homogeneous(table)
        pooled = solve_homogeneous(joint_probs(table))
        assert conditional.entropy_per_individual <= pooled.entropy_per_individual + 1e-12

    def test_degenerate_category_reported_by_label(self):
        table = StratifiedTable.from_counts(
            {"ok": (1, 2, 3, 4), "bad": (3, 0, 7, 0)}
        )
        with pytest.raises(DegenerateTableError, match="bad"):
            solve_conditional_homogeneous(table)


class TestVarianceBridge:
    def test_round_trip(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(300):
            r2 = rng.uniform(0.0, 1.0)
            p = rng.uniform(0.01, 0.99)
            # the discrimination identity D = var / (P (1 - P)) inverts the bound
            recovered = r2_to_variance_bound(r2, p) / (p * (1 - p))
            assert recovered == pytest.approx(r2, abs=1e-12)

    def test_reference_values(self):
        assert r2_to_variance_bound(0.30, 0.3663805859721811) == pytest.approx(
            0.06964375565845869, abs=1e-15
        )
        assert r2_to_variance_bound(0.20, 877.0 / 6758.0) == pytest.approx(
            0.02258626365989262, abs=1e-15
        )

    def test_edge_values(self):
        assert r2_to_variance_bound(0.0, 0.37) == 0.0
        p = 0.37
        # perfect discrimination needs the largest variance a mean-p law allows
        assert r2_to_variance_bound(1.0, p) == pytest.approx(p * (1 - p), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            r2_to_variance_bound(1.5, 0.5)
        with pytest.raises(DomainError):
            r2_to_variance_bound(-0.01, 0.5)
        with pytest.raises(DegenerateTableError):
            r2_to_variance_bound(0.5, 0.0)
        with pytest.raises(DegenerateTableError):
            r2_to_variance_bound(0.5, 1.0)


class TestSamplingIdentity:
    def test_two_point_exposure(self):
        # half pi=0.9, half pi=0.3: discrimination 0.09 / 0.24 = 0.375
        rng = np.random.default_rng(RNG_SEED + 6)
        n = 100000
        pis = np.repeat([0.9, 0.3], n // 2)
        e = (rng.uniform(size=n) < pis).astype(int)
        assert tjur_r2(pis, e) == pytest.approx(0.375, abs=0.02)

    def test_random_propensity_distributions(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        n = 50000
        for _ in range(10):
            support = rng.uniform(0.05, 0.95, size=4)
            pis = rng.choice(support, size=n)
            e = (rng.uniform(size=n) < pis).astype(int)
            p_bar = pis.mean()
            predicted = pis.var() / (p_bar * (1.0 - p_bar))
            assert tjur_r2(pis, e) == pytest.approx(predicted, abs=0.03)

    def test_outcome_analog(self):
        # the same identity with r = expected risk and the outcome variable
        rng = np.random.default_rng(RNG_SEED + 8)
        n = 100000
        triples = [
            PropensityPrognosisTriple(0.2, 0.05, 0.15),
            PropensityPrognosisTriple(0.8, 0.10, 0.50),
        ]
        # expected risk (1-pi) r0 + pi r1: the two case rows of cell_probs
        risks = np.array([cell_probs(*t.as_tuple())[:2].sum() for t in triples])
        assignment = rng.integers(0, len(triples), size=n)
        r = risks[assignment]
        d = (rng.uniform(size=n) < r).astype(int)
        p_bar = r.mean()
        predicted = r.var() / (p_bar * (1.0 - p_bar))
        assert tjur_r2(r, d) == pytest.approx(predicted, abs=0.03)
