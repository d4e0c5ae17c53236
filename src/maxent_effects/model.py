"""Core domain types for propensity-prognosis analysis of 2x2 tables.

The data-generating model assigns each individual three latent Bernoulli
parameters: a propensity ``pi`` of receiving the exposure, a prognosis
``r0`` of the outcome without exposure, and a prognosis ``r1`` with
exposure.  A single individual therefore induces a distribution over the
four joint (exposure, outcome) cells:

    P(e=0, d=1) = (1-pi) * r0        P(e=1, d=1) = pi * r1
    P(e=0, d=0) = (1-pi) * (1-r0)    P(e=1, d=0) = pi * (1-r1)

This module holds those types, the vectorized four-cell map
:func:`cell_probs` (the only place it is written out) and the entropy of
the induced distribution, Tjur's coefficient of discrimination, and the
normalization of observed counts into joint probabilities.  Everything
here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTableError, DomainError, UndefinedStatisticError

__all__ = [
    "PropensityPrognosisTriple",
    "JointOutcomeProbs",
    "CategoryCounts",
    "StratifiedTable",
    "cell_probs",
    "cell_entropy",
    "entropy",
    "tjur_r2",
    "joint_probs",
    "odds_ratio",
]

#: Additive tolerance used when validating that probabilities sum to one.
_SUM_TOL = 1e-12


def _check_unit_interval(value: float, name: str) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0) or math.isnan(v):
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return v


@dataclass(frozen=True)
class PropensityPrognosisTriple:
    """One individual's latent Bernoulli parameters ``(pi, r0, r1)``.

    ``pi`` is the propensity of exposure, ``r0`` the prognosis without
    exposure, ``r1`` the prognosis with exposure.  Components are
    probabilities in the closed interval [0, 1]; boundary values are
    admitted through the limit convention ``x*log(x) -> 0``.
    """

    pi: float
    r0: float
    r1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", _check_unit_interval(self.pi, "pi"))
        object.__setattr__(self, "r0", _check_unit_interval(self.r0, "r0"))
        object.__setattr__(self, "r1", _check_unit_interval(self.r1, "r1"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.pi, self.r0, self.r1)

    def joint_outcomes(self) -> JointOutcomeProbs:
        """Joint (exposure, outcome) cell probabilities induced by the triple."""
        return JointOutcomeProbs(*cell_probs(*self.as_tuple()).tolist())

    def swapped(self) -> PropensityPrognosisTriple:
        """The same individual under exposure-label swap: (1-pi, r1, r0)."""
        return PropensityPrognosisTriple(1.0 - self.pi, self.r1, self.r0)


@dataclass(frozen=True)
class JointOutcomeProbs:
    """Joint probabilities of the four (exposure, outcome) cells.

    ``pab`` denotes P(e=a, d=b).  Components must be probabilities and sum
    to one within 1e-12.
    """

    p01: float
    p11: float
    p00: float
    p10: float

    def __post_init__(self) -> None:
        for name in ("p01", "p11", "p00", "p10"):
            _check_unit_interval(getattr(self, name), name)
        total = math.fsum(self.as_array())
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"joint probabilities must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        """Cells in constraint order: (e0,d1), (e1,d1), (e0,d0), (e1,d0)."""
        return np.array([self.p01, self.p11, self.p00, self.p10])

    @property
    def marginal_exposure(self) -> float:
        """P(e=1)."""
        return self.p11 + self.p10

    @property
    def marginal_outcome(self) -> float:
        """P(d=1)."""
        return self.p01 + self.p11

    def shannon_entropy(self) -> float:
        """Shannon entropy (nats) of the four-cell distribution."""
        return cell_entropy(self.as_array())


@dataclass(frozen=True)
class CategoryCounts:
    """Observed (exposure, outcome) counts for one covariate category.

    ``nab`` counts individuals with e=a, d=b.  Counts are nonnegative and
    come straight from a published table; they are kept exact and only
    converted to probabilities on demand.
    """

    label: str
    n01: float
    n11: float
    n00: float
    n10: float

    def __post_init__(self) -> None:
        for name in ("n01", "n11", "n00", "n10"):
            if getattr(self, name) < 0:
                raise DomainError(f"count {name} of {self.label!r} is negative")
        if not math.isfinite(self.total):
            raise DomainError(f"counts of {self.label!r} sum to {self.total}, not a finite number")
        if self.total <= 0:
            raise DegenerateTableError(f"category {self.label!r} has no individuals")

    @property
    def total(self) -> float:
        return self.n01 + self.n11 + self.n00 + self.n10

    def as_array(self) -> np.ndarray:
        return np.array([self.n01, self.n11, self.n00, self.n10], dtype=float)

    def swapped(self) -> CategoryCounts:
        """Counts under exposure-label swap (e -> 1-e)."""
        return CategoryCounts(self.label, self.n11, self.n01, self.n10, self.n00)


@dataclass(frozen=True)
class StratifiedTable:
    """Counts of (exposure, outcome) per covariate category.

    The sole data input of every estimator in this package.  Labels are
    opaque: no ordinal structure among categories is used anywhere.
    """

    categories: tuple[CategoryCounts, ...]

    def __post_init__(self) -> None:
        if not self.categories:
            raise DegenerateTableError("table has no categories")
        object.__setattr__(self, "categories", tuple(self.categories))
        try:
            self.total  # fsum raises OverflowError where the exact sum overflows
        except OverflowError:
            running = 0.0
            for c in self.categories:  # name the category where the sum overflows
                running += c.total
                if running == math.inf:
                    break
            raise DomainError(
                f"the table's total count overflows the float range at category {c.label!r}"
            ) from None

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @property
    def total(self) -> float:
        return math.fsum(c.total for c in self.categories)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.categories)

    def counts_matrix(self) -> np.ndarray:
        """(n_categories, 4) array in constraint order."""
        return np.array([c.as_array() for c in self.categories])

    def pooled(self) -> CategoryCounts:
        """All categories collapsed into a single stratum."""
        m = self.counts_matrix().sum(axis=0)
        return CategoryCounts("pooled", *m)

    def swap_exposure(self) -> StratifiedTable:
        """The table with exposure labels 0 and 1 interchanged."""
        return StratifiedTable(tuple(c.swapped() for c in self.categories))

    @classmethod
    def from_counts(
        cls, counts: dict[str, tuple[float, float, float, float]]
    ) -> StratifiedTable:
        """Build from ``{label: (n01, n11, n00, n10)}`` preserving order."""
        return cls(tuple(CategoryCounts(lbl, *cnt) for lbl, cnt in counts.items()))


def cell_probs(pi, r0, r1) -> np.ndarray:
    """Joint cell probabilities of triples, stacked on a new first axis.

    Broadcasts ``pi``, ``r0`` and ``r1`` against each other and returns an
    array of shape ``(4, *broadcast_shape)`` whose rows are, in constraint
    order,

        (1-pi) r0,   pi r1,   (1-pi)(1-r0),   pi (1-r1),

    i.e. P(e=0,d=1), P(e=1,d=1), P(e=0,d=0), P(e=1,d=0).
    """
    pi, r0, r1 = (np.asarray(x, dtype=float) for x in (pi, r0, r1))
    return np.stack(np.broadcast_arrays(
        (1.0 - pi) * r0, pi * r1, (1.0 - pi) * (1.0 - r0), pi * (1.0 - r1)
    ))


def cell_entropy(q) -> np.ndarray | float:
    """Entropy (nats), ``-sum_i q_i log q_i``, over the first axis of ``q``.

    ``q`` stacks distributions as :func:`cell_probs` returns them; zero
    cells contribute 0.
    """
    q = np.asarray(q, dtype=float)
    # 0 - sum, not -sum: a distribution with no uncertainty has entropy +0.0
    h = 0.0 - np.sum(q * np.log(q, out=np.zeros_like(q), where=q != 0.0), axis=0)
    return h if h.ndim else float(h)


def entropy(t: PropensityPrognosisTriple) -> float:
    """Entropy (nats) of the four-cell joint distribution induced by ``t``.

    ``H = -sum_q q log q`` over the cells of :func:`cell_probs`, with the
    convention ``x*log(x) -> 0`` at x = 0, so the closed cube is
    admissible.  The result lies in [0, log 4], with the maximum attained
    only at (0.5, 0.5, 0.5).
    """
    return cell_entropy(cell_probs(*t.as_tuple()))


def tjur_r2(fitted, observed) -> float:
    """Tjur's coefficient of discrimination for a binary-outcome model.

    The difference between the mean fitted value among observed successes
    and the mean fitted value among observed failures:

        D = mean(fitted | observed=1) - mean(fitted | observed=0)

    Parameters
    ----------
    fitted : array-like of float
        Fitted probabilities in [0, 1], one per observation.
    observed : array-like of {0, 1}
        Observed binary outcomes, parallel to ``fitted``.

    Raises
    ------
    UndefinedStatisticError
        If the sample contains no success or no failure.
    DomainError
        On empty input, mismatched lengths, fitted values outside [0, 1],
        or observed values other than 0 and 1.
    """
    fitted = np.asarray(fitted, dtype=float)
    observed = np.asarray(observed)
    if fitted.size == 0:
        raise DomainError("tjur_r2 requires at least one observation")
    if fitted.shape != observed.shape:
        raise DomainError("fitted and observed must have identical shape")
    if np.any(fitted < 0.0) or np.any(fitted > 1.0) or np.any(np.isnan(fitted)):
        raise DomainError("fitted values must lie in [0, 1]")
    if not np.all((observed == 0) | (observed == 1)):
        raise DomainError("observed values must be 0 or 1")
    success = observed == 1
    n1 = int(np.count_nonzero(success))
    if n1 == 0 or n1 == fitted.size:
        raise UndefinedStatisticError(
            "tjur_r2 needs at least one success and one failure"
        )
    return float(fitted[success].mean() - fitted[~success].mean())


def joint_probs(table: StratifiedTable, category: int | None = None) -> JointOutcomeProbs:
    """Normalize a table's counts into joint outcome probabilities.

    ``category`` selects one stratum by index (an ``int`` or numpy
    integer, not a ``bool``); ``None`` pools the whole table.  Counts are
    divided by the corresponding total (category total or grand total),
    so the result always sums to one.
    """
    if category is None:
        cat = table.pooled()
    elif not isinstance(category, (int, np.integer)) or isinstance(category, bool):
        raise DomainError(f"category index must be an integer, got {category!r}")
    elif 0 <= category < table.n_categories:
        cat = table.categories[category]
    else:
        raise DomainError(
            f"category index {category} out of range for "
            f"{table.n_categories} categories"
        )
    n = cat.as_array()
    p = n / cat.total
    return JointOutcomeProbs(p01=p[0], p11=p[1], p00=p[2], p10=p[3])


def odds_ratio(counts: CategoryCounts) -> float:
    """Sample odds ratio (n11 * n00) / (n01 * n10) of one 2x2 table.

    Raises UndefinedStatisticError when any margin cell that enters the
    denominator is zero (apply smoothing first if that is expected), and
    when the ratio lies outside the float range.  The ratio is taken as
    ``(n11 / n01) * (n00 / n10)``, so counts near the ends of the float
    range (1e300, 1e-300) neither overflow nor underflow where the ratio
    itself is representable.
    """
    if counts.n01 == 0.0 or counts.n10 == 0.0:
        raise UndefinedStatisticError(
            "odds ratio undefined: a zero off-diagonal cell"
        )
    n11, n00 = np.float64(counts.n11), np.float64(counts.n00)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ratio = float((n11 / counts.n01) * (n00 / counts.n10))
    if not math.isfinite(ratio) or (ratio == 0.0 and n11 > 0.0 and n00 > 0.0):
        raise UndefinedStatisticError(
            "odds ratio undefined: it lies outside the float range"
        )
    return ratio
