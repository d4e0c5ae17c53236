"""Core quantities: entropy, risks, discrimination, table plumbing."""

import math

import numpy as np
import pytest

from maxent_effects.errors import (
    DegenerateTableError,
    DomainError,
    UndefinedStatisticError,
)
from maxent_effects.model import (
    CategoryCounts,
    JointOutcomeProbs,
    PropensityPrognosisTriple,
    StratifiedTable,
    cell_entropy,
    cell_probs,
    entropy,
    joint_probs,
    odds_ratio,
    tjur_r2,
)

RNG_SEED = 20240811


def random_triples(rng, n, margin=0.0):
    lo, hi = margin, 1.0 - margin
    return [
        PropensityPrognosisTriple(*rng.uniform(lo, hi, size=3)) for _ in range(n)
    ]


class TestTriple:
    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            PropensityPrognosisTriple(-0.1, 0.5, 0.5)
        with pytest.raises(DomainError):
            PropensityPrognosisTriple(0.5, 1.2, 0.5)
        with pytest.raises(DomainError):
            PropensityPrognosisTriple(0.5, 0.5, float("nan"))

    def test_closed_cube_admitted(self):
        t = PropensityPrognosisTriple(0.0, 0.0, 1.0)
        assert t.as_tuple() == (0.0, 0.0, 1.0)

    def test_joint_outcomes_sum_to_one(self):
        rng = np.random.default_rng(RNG_SEED)
        for t in random_triples(rng, 200):
            q = t.joint_outcomes().as_array()
            assert abs(q.sum() - 1.0) < 1e-12
            assert np.all(q >= 0.0)

    def test_swapped_involution(self):
        # dyadic components so 1-(1-x) round-trips exactly
        t = PropensityPrognosisTriple(0.25, 0.125, 0.75)
        assert t.swapped().swapped() == t
        assert t.swapped() == PropensityPrognosisTriple(0.75, 0.75, 0.125)


class TestCellProbs:
    def test_arrays_match_explicit_products(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        pi, r0, r1 = rng.uniform(size=(3, 40))
        q = cell_probs(pi, r0, r1)
        assert q.shape == (4, 40)
        for i in range(40):
            expected = [
                (1 - pi[i]) * r0[i],
                pi[i] * r1[i],
                (1 - pi[i]) * (1 - r0[i]),
                pi[i] * (1 - r1[i]),
            ]
            assert q[:, i].tolist() == expected

    def test_broadcasts_axes(self):
        x = np.array([0.1, 0.5, 0.8])
        q = cell_probs(x[:, None, None], x[None, :, None], x[None, None, :])
        assert q.shape == (4, 3, 3, 3)
        assert q[:, 2, 0, 1].tolist() == cell_probs(0.8, 0.1, 0.5).tolist()
        # an axis only one argument spans still broadcasts over every row
        assert cell_probs(0.5, x, 0.5).shape == (4, 3)
        assert cell_probs(0.5, 0.5, 0.5).shape == (4,)


class TestEntropy:
    def test_uniform_maximum(self):
        # the four-cell distribution is uniform only at (0.5, 0.5, 0.5)
        assert entropy(PropensityPrognosisTriple(0.5, 0.5, 0.5)) == pytest.approx(
            math.log(4.0), abs=1e-15
        )

    def test_below_log4_elsewhere(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for t in random_triples(rng, 300):
            if t.as_tuple() == (0.5, 0.5, 0.5):
                continue
            assert entropy(t) < math.log(4.0)

    def test_degenerate_corners_are_zero(self):
        for t in [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 0.5)]:
            assert entropy(PropensityPrognosisTriple(*t)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_decomposed_form(self):
        # two algebraic forms: four-term joint entropy versus
        # h(pi) + (1-pi) h(r0) + pi h(r1); they agree to addition error
        xlogy = pytest.importorskip("scipy.special").xlogy

        def h(p):
            return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))

        rng = np.random.default_rng(RNG_SEED + 2)
        for t in random_triples(rng, 500):
            decomposed = h(t.pi) + (1.0 - t.pi) * h(t.r0) + t.pi * h(t.r1)
            assert abs(entropy(t) - decomposed) < 1e-12

    def test_matches_scipy_on_joint_cells(self):
        scipy_entropy = pytest.importorskip("scipy.stats").entropy
        rng = np.random.default_rng(RNG_SEED + 3)
        for t in random_triples(rng, 100):
            reference = scipy_entropy(t.joint_outcomes().as_array())
            assert abs(entropy(t) - reference) < 1e-12

    def test_swap_invariance(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for t in random_triples(rng, 300):
            assert abs(entropy(t) - entropy(t.swapped())) < 1e-12


class TestCellEntropy:
    # fixed before comparing: a few roundings of one log and four sums
    TOL = 4 * np.finfo(float).eps

    @staticmethod
    def reference(q):
        xlogy = pytest.importorskip("scipy.special").xlogy
        return -sum(xlogy(row, row) for row in q)

    @pytest.mark.parametrize("m", (2, 25, 75))
    def test_matches_xlogy_on_every_grid_cell(self, m):
        c = (np.arange(m) + 0.5) / m
        q = cell_probs(c[:, None, None], c[None, :, None], c[None, None, :])
        np.testing.assert_allclose(
            cell_entropy(q), self.reference(q), rtol=self.TOL, atol=self.TOL
        )

    def test_zero_one_and_tiny_cells(self):
        values = np.array([0.0, 1.0, 1e-300])
        # every assignment of the three values to the four cells
        q = values[np.indices((3,) * 4).reshape(4, -1)]
        h = cell_entropy(q)
        np.testing.assert_allclose(h, self.reference(q), rtol=self.TOL, atol=self.TOL)
        assert np.all(h[np.all(q != 1e-300, axis=0)] == 0.0)
        assert not np.signbit(h).any()  # a certain outcome has entropy +0.0, not -0.0
        assert cell_entropy(np.zeros((4, 3))).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("m", (2, 25, 75))
    def test_chain_rule_on_every_grid_cell(self, m):
        # H(e, d) = H(e) + H(d | e): the form grid pricing is built on
        xlogy = pytest.importorskip("scipy.special").xlogy
        c = (np.arange(m) + 0.5) / m
        h = -xlogy(c, c) - xlogy(1.0 - c, 1.0 - c)
        pi, r0, r1 = c[:, None, None], c[None, :, None], c[None, None, :]
        chain = (h[:, None, None] + (1.0 - pi) * h[None, :, None]) + pi * h[None, None, :]
        q = cell_probs(pi, r0, r1)
        np.testing.assert_allclose(chain, cell_entropy(q), rtol=0, atol=8 * np.finfo(float).eps)

    @staticmethod
    def row_loop(q):
        """The entropy accumulated one row at a time, ``h -= x log x``."""
        h = np.zeros(q.shape[1:])
        for row in q:
            h -= np.where(row != 0.0, row * np.log(np.where(row != 0.0, row, 1.0)), 0.0)
        return h

    def test_matches_the_row_loop_bit_for_bit(self):
        # the same products summed in the same row order: equal bits,
        # the sign of zero included
        rng = np.random.default_rng(RNG_SEED + 9)
        x = rng.uniform(size=(3, 2000))
        x[:, ::7] = rng.choice([0.0, 1.0], size=(3, x[:, ::7].shape[1]))
        c = (np.arange(75) + 0.5) / 75
        for q in (
            cell_probs(*x),
            np.stack([c, 1.0 - c]),
            cell_probs(c[:, None], c, c),
            cell_probs(c[:, None, None], c[None, :, None], c[None, None, :]),
        ):
            np.testing.assert_array_equal(
                cell_entropy(q).view(np.int64), self.row_loop(q).view(np.int64)
            )
        for column in cell_probs(*x[:, :200]).T:  # one distribution at a time
            h, reference = np.float64(cell_entropy(column)), self.row_loop(column)
            assert h.view(np.int64) == reference.view(np.int64)

    def test_scalar_input_returns_float(self):
        h = cell_entropy([0.25, 0.25, 0.5, 0.0])
        assert type(h) is float
        assert h == pytest.approx(1.5 * math.log(2.0), rel=self.TOL)


class TestExpectedRisk:
    """An individual's expected risk (1-pi) r0 + pi r1 is the sum of the
    two case rows (0 and 1) of :func:`cell_probs`."""

    def test_between_risks(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for t in random_triples(rng, 200):
            r = cell_probs(*t.as_tuple())[:2].sum()
            assert min(t.r0, t.r1) - 1e-15 <= r <= max(t.r0, t.r1) + 1e-15

    def test_closed_form_triple_reproduces_pooled_risk(self):
        # the closed-form triple's expected risk is the observed P(d=1)
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(100):
            counts = rng.integers(1, 500, size=4).astype(float)
            c = CategoryCounts("x", *counts)
            p = joint_probs(StratifiedTable((c,)), 0)
            pi = p.p11 + p.p10
            r0 = p.p01 / (p.p01 + p.p00)
            r1 = p.p11 / (p.p11 + p.p10)
            t = PropensityPrognosisTriple(pi, r0, r1)
            assert abs(cell_probs(*t.as_tuple())[:2].sum() - (p.p01 + p.p11)) < 1e-12


class TestTjurR2:
    def test_two_point_example(self):
        # half the population at pi=0.9, half at pi=0.3: the difference of
        # conditional means is sigma^2 / (P (1-P)) = 0.09 / 0.24 = 0.375
        n_half = 100000
        pis = np.repeat([0.9, 0.3], n_half)
        e = np.zeros(2 * n_half)
        # exact counts per group instead of a random draw
        e[: int(0.9 * n_half)] = 1
        e[n_half : n_half + int(0.3 * n_half)] = 1
        assert tjur_r2(pis, e) == pytest.approx(0.375, abs=1e-9)

    def test_identity_against_variance_formula(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(20):
            n = 100000
            pis = rng.choice(rng.uniform(0.05, 0.95, size=5), size=n)
            e = (rng.uniform(size=n) < pis).astype(int)
            if e.min() == e.max():
                continue
            p_bar = e.mean()
            # population identity holds up to sampling noise
            expected = pis.var() / (p_bar * (1.0 - p_bar))
            assert abs(tjur_r2(pis, e) - expected) < 0.02

    def test_mean_preserving_pairs_leave_value_unchanged(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        fitted = rng.uniform(0.1, 0.9, size=50)
        observed = rng.integers(0, 2, size=50)
        if observed.min() == observed.max():
            observed[0] = 1 - observed[0]
        base = tjur_r2(fitted, observed)
        m1 = fitted[observed == 1].mean()
        m0 = fitted[observed == 0].mean()
        fitted2 = np.concatenate([fitted, [m1, m0]])
        observed2 = np.concatenate([observed, [1, 0]])
        assert tjur_r2(fitted2, observed2) == pytest.approx(base, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            tjur_r2([0.5, 0.6], [1, 1])

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            tjur_r2([], [])
        with pytest.raises(DomainError):
            tjur_r2([0.5, 1.5], [0, 1])
        with pytest.raises(DomainError):
            tjur_r2([0.5], [0, 1])
        # an observed value other than 0 or 1 is no outcome, not a failure
        for observed in ([0, 1, 2], [0, 1, np.nan], [0.0, 1.0, 0.5]):
            with pytest.raises(DomainError):
                tjur_r2([0.2, 0.8, 0.5], observed)
        assert tjur_r2([0.2, 0.8], np.array([False, True])) == pytest.approx(0.6)


class TestTables:
    def test_category_validation(self):
        with pytest.raises(DomainError):
            CategoryCounts("x", -1, 0, 1, 2)
        with pytest.raises(DegenerateTableError):
            StratifiedTable(())

    def test_pooled_matches_manual_sum(self):
        t = StratifiedTable.from_counts(
            {"a": (1, 2, 3, 4), "b": (5, 6, 7, 8)}
        )
        pooled = t.pooled()
        assert (pooled.n01, pooled.n11, pooled.n00, pooled.n10) == (6, 8, 10, 12)
        assert t.total == 36

    def test_joint_probs_category_and_pooled(self):
        t = StratifiedTable.from_counts(
            {"a": (1, 2, 3, 4), "b": (5, 6, 7, 8)}
        )
        pa = joint_probs(t, 0)
        assert pa.as_array() == pytest.approx(np.array([1, 2, 3, 4]) / 10.0)
        pp = joint_probs(t)
        assert pp.as_array() == pytest.approx(np.array([6, 8, 10, 12]) / 36.0)
        for outside in (2, -1, -2):
            with pytest.raises(DomainError, match="out of range for 2 categories"):
                joint_probs(t, outside)
        assert joint_probs(t, np.int64(1)).as_array() == pytest.approx(
            np.array([5, 6, 7, 8]) / 26.0
        )
        for not_an_index in (1.5, 1.0, "1", True, False, np.bool_(True)):
            with pytest.raises(DomainError, match="must be an integer"):
                joint_probs(t, not_an_index)

    def test_swap_exposure_roundtrip(self):
        t = StratifiedTable.from_counts({"a": (1, 2, 3, 4)})
        s = t.swap_exposure()
        c = s.categories[0]
        assert (c.n01, c.n11, c.n00, c.n10) == (2, 1, 4, 3)
        assert s.swap_exposure() == t

    def test_odds_ratio(self):
        c = CategoryCounts("all", 81, 796, 4201, 1680)
        assert odds_ratio(c) == pytest.approx(24.573750734861846, abs=1e-12)
        with pytest.raises(UndefinedStatisticError):
            odds_ratio(CategoryCounts("z", 0, 1, 1, 1))

    def test_odds_ratio_at_extreme_counts(self):
        # products of the counts would overflow (1e300) or underflow (1e-300)
        for count in (1e300, 1e-300):
            assert odds_ratio(CategoryCounts("all", count, count, count, count)) == 1.0
        with pytest.raises(UndefinedStatisticError):
            odds_ratio(CategoryCounts("z", 1, 1, 1, 0))

    @pytest.mark.parametrize(
        "counts", [(1e-300, 1e300, 1.0, 1.0), (1e300, 1e-300, 1.0, 1.0)], ids=["over", "under"]
    )
    def test_odds_ratio_outside_the_float_range_is_undefined(self, counts):
        # the ratio is 1e600 or 1e-600: no float holds it
        with pytest.raises(UndefinedStatisticError, match="float range"):
            odds_ratio(CategoryCounts("all", *counts))
        with pytest.raises(UndefinedStatisticError, match="float range"):
            odds_ratio(CategoryCounts("all", *np.array(counts)))


class TestJointOutcomeProbs:
    def test_sum_validation(self):
        with pytest.raises(DomainError):
            JointOutcomeProbs(0.5, 0.5, 0.5, 0.5)

    def test_marginals(self):
        p = JointOutcomeProbs(0.1, 0.2, 0.3, 0.4)
        assert p.marginal_exposure == pytest.approx(0.6)
        assert p.marginal_outcome == pytest.approx(0.3)
