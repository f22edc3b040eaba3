"""Pairwise counting and conditional-probability (transition) estimation.

A transition matrix between two binary observables is row stochastic in
general; the classicality test for triples assumes the bistochastic
one-parameter form.  Each matrix reports how far it is from bistochastic
(``bistochastic_deviation``); the triple test in ``accardi`` decides
whether that is within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import frozen_array
from .errors import EmptyPairData, PairMismatch, ZeroConditioningRow


def check_tolerance(name: str, value: float, positive: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and >= 0 (> 0 if ``positive``)."""
    if not ((value > 0.0 if positive else value >= 0.0) and value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


@dataclass(frozen=True, eq=False)
class CountTable:
    """2x2 pair counts: counts[i][j] = number of trials with A=i and B=j."""

    pair: tuple[str, str]
    counts: np.ndarray

    def __post_init__(self):
        counts = frozen_array(self.counts, np.int64)
        if counts.shape != (2, 2):
            raise ValueError("counts must be a 2x2 table")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def transposed(self) -> CountTable:
        return CountTable((self.pair[1], self.pair[0]), self.counts.T)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Conditional probabilities of one binary observable given another.

    Attributes:
        pair: (conditioning id, conditioned id); entries[i][j] is
            P(conditioned = j | conditioning = i).
        entries: 2x2 row-stochastic matrix.
        priors: P(conditioning = 0), P(conditioning = 1).
        joint: 2x2 table priors[i] * entries[i][j] = P(A=i and B=j).
            Materialized so that downstream consistency checks and joint
            targets use one rounding of the underlying ratios.
    """

    pair: tuple[str, str]
    entries: np.ndarray
    priors: np.ndarray
    joint: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two distinct observables")
        entries = np.asarray(self.entries, dtype=np.float64)
        priors = np.asarray(self.priors, dtype=np.float64)
        if entries.shape != (2, 2) or priors.shape != (2,):
            raise ValueError("entries must be 2x2 and priors length 2")
        if entries.min() < -1e-12 or entries.max() > 1 + 1e-12:
            raise ValueError("entries must lie in [0, 1]")
        if not np.allclose(entries.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            raise ValueError("each row of a transition matrix must sum to 1")
        if not math.isclose(priors.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("priors must sum to 1")
        joint = self.joint
        joint = priors[:, None] * entries if joint is None else np.asarray(joint, np.float64)
        for name, arr in (("entries", entries), ("priors", priors), ("joint", joint)):
            object.__setattr__(self, name, frozen_array(arr, np.float64))

    @property
    def symmetrized_param(self) -> float:
        """(entries[0][0] + entries[1][1]) / 2, the bistochastic parameter."""
        return float((self.entries[0, 0] + self.entries[1, 1]) / 2.0)

    @property
    def bistochastic_deviation(self) -> float:
        """|entries[0][0] - entries[1][1]|: 0 iff the matrix is bistochastic."""
        return float(abs(self.entries[0, 0] - self.entries[1, 1]))


@dataclass(frozen=True)
class ConsistencyReport:
    """Result of a two-orientation Bayes-consistency check."""

    pair: tuple[str, str]
    discrepancy: float
    consistent: bool
    tolerance: float


def count_pairs(dataset, a: str, b: str) -> CountTable:
    """Joint outcome counts of observables ``a`` and ``b``, read from the
    dataset's pair-statistics array (pair logs: entries logged in (b, a)
    orientation count transposed).

    Raises:
        UnknownObservable: an id is not in the dataset.
        EmptyPairData: no records, or no logged entries for this pair.
        TypeError: the source holds probabilities, not counts.
    """
    if a == b:
        raise ValueError("pair must name two distinct observables")
    obs = dataset.observables
    ia, ib = obs.index_of(a), obs.index_of(b)
    stats = dataset.pair_statistics
    if stats.exact:
        raise TypeError(f"cannot count pairs on {type(dataset).__name__}")
    counts = stats.table[ia, ib]
    if not counts.any():
        raise EmptyPairData(f"{stats.missing} ({a!r}, {b!r})")
    return CountTable((a, b), counts)


def estimate_transition(counts: CountTable, smoothing: float = 0.0) -> TransitionMatrix:
    """Estimate conditionals and priors from a pair count table.

    With additive smoothing ``smoothing`` = a:

        entries[i][j] = (counts[i][j] + a) / (row_i + 2a)
        priors[i]     = (row_i + 2a) / (total + 4a)

    Raises:
        ValueError: a is negative or not finite.
        ZeroConditioningRow: a = 0 and some conditioning outcome never
            occurs, so the conditional is undefined.
    """
    check_tolerance("smoothing", smoothing)
    table = counts.counts.astype(np.float64)
    rows = table.sum(axis=1)
    if smoothing == 0.0 and (rows == 0).any():
        i = int(np.argmin(rows))
        raise ZeroConditioningRow(
            f"outcome {i} of {counts.pair[0]!r} never occurs; "
            "conditionals undefined without smoothing"
        )
    denom_rows = rows + 2.0 * smoothing
    denom_total = table.sum() + 4.0 * smoothing
    entries = (table + smoothing) / denom_rows[:, None]
    priors = denom_rows / denom_total
    joint = (table + smoothing) / denom_total
    return TransitionMatrix(counts.pair, entries, priors, joint)


def pair_transition(
    source, conditioning: str, conditioned: str, smoothing: float = 0.0
) -> TransitionMatrix:
    """Transition matrix P(conditioned | conditioning) from any source.

    Exact models are evaluated analytically; empirical datasets are
    counted and estimated with the given smoothing.  The result is
    memoized on ``source.pair_statistics`` per (pair, smoothing); a pair
    that fails is not memoized and raises again on every call.
    """
    stats = source.pair_statistics
    key = (conditioning, conditioned, smoothing)
    found = stats._transitions.get(key)
    if found is not None:
        return found
    if stats.exact:
        ia, ib = source.observables.index_of(conditioning), source.observables.index_of(conditioned)
        if ia == ib:
            raise ValueError("pair must name two distinct observables")
        joint = stats.table[ia, ib]
        rows = joint.sum(axis=1)
        if (rows == 0).any():
            raise ZeroConditioningRow(
                f"outcome {int(np.argmin(rows))} of {conditioning!r} has zero probability; "
                "conditionals undefined"
            )
        found = TransitionMatrix((conditioning, conditioned), joint / rows[:, None], rows, joint)
    else:
        found = estimate_transition(count_pairs(source, conditioning, conditioned), smoothing)
    stats._transitions[key] = found
    return found


def bayes_consistency(
    t_ab: TransitionMatrix, t_ba: TransitionMatrix, tol: float = 1e-9
) -> ConsistencyReport:
    """Check that two orientations of a pair describe one joint distribution.

    The discrepancy is max over outcomes (i, j) of
    |P(A=i) P(B=j|A=i) - P(B=j) P(A=i|B=j)|, i.e. the largest entrywise
    disagreement between the two implied joint tables.

    Raises:
        PairMismatch: the matrices do not cover the same unordered pair
            in opposite orientations.
    """
    if t_ab.pair != (t_ba.pair[1], t_ba.pair[0]):
        raise PairMismatch(
            f"orientations do not match: {t_ab.pair} vs {t_ba.pair}"
        )
    discrepancy = float(np.abs(t_ab.joint - t_ba.joint.T).max())
    return ConsistencyReport(
        pair=t_ab.pair,
        discrepancy=discrepancy,
        consistent=discrepancy <= tol,
        tolerance=tol,
    )
