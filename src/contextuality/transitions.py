"""Transition probabilities P(conditioned | conditioning), estimated from
any source's pair table by the one estimator ``pair_transition``.

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
from .errors import EmptyPairData, ZeroConditioningRow


def check_tolerance(name: str, value: float, positive: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and >= 0 (> 0 if ``positive``)."""
    if not ((value > 0.0 if positive else value >= 0.0) and value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


def check_smoothing(smoothing: float) -> None:
    """As check_tolerance; also 4 * smoothing, which a counted pair total adds, must be finite."""
    check_tolerance("smoothing", smoothing)
    if 4.0 * smoothing == math.inf:
        raise ValueError(f"smoothing overflows a pair total (4 * smoothing), got {smoothing}")


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Conditional probabilities of one binary observable given another.

    Attributes:
        pair: (conditioning id, conditioned id); entries[i][j] is
            P(conditioned = j | conditioning = i).
        entries: 2x2 row-stochastic matrix.
        priors: P(conditioning = 0), P(conditioning = 1).
        joint: 2x2 table priors[i] * entries[i][j] = P(A=i and B=j).
            ``pair_transition`` passes (J + a) / total, rounded once: it is
            the LP target, and priors x entries would change the report bytes.
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


def pair_transition(
    source, conditioning: str, conditioned: str, smoothing: float = 0.0
) -> TransitionMatrix:
    """Transition matrix P(conditioned | conditioning) from any source.

    One formula is applied to the pair's table J, read from
    ``source.pair_statistics.table``, with rows = J.sum(axis=1):

        entries[i][j] = (J[i][j] + a) / (rows[i] + 2a)
        priors[i]     = (rows[i] + 2a) / total
        joint[i][j]   = (J[i][j] + a) / total

    Counted sources use a = ``smoothing`` and total = J.sum() + 4a.  Exact
    models use a = 0 and total = 1: their smoothing is checked like any
    other but ignored, since a pseudo-count vanishes against infinitely
    many samples.  The result is memoized on ``source.pair_statistics``
    per (pair, smoothing); a pair that fails is not memoized and raises
    again on every call.

    Raises:
        ValueError: smoothing is negative, not finite or too large, or the ids are equal.
        UnknownObservable: an id is not in the source.
        EmptyPairData: no records, or no logged entries, for this pair.
        ZeroConditioningRow: a = 0 and a conditioning outcome has no weight.
    """
    stats = source.pair_statistics
    key = (conditioning, conditioned, smoothing)
    found = stats._transitions.get(key)
    if found is not None:
        return found
    check_smoothing(smoothing)
    ia, ib = source.observables.index_of(conditioning), source.observables.index_of(conditioned)
    if ia == ib:
        raise ValueError("pair must name two distinct observables")
    table = stats.table[ia, ib]
    if not table.any():
        raise EmptyPairData(f"{stats.missing} ({conditioning!r}, {conditioned!r})")
    rows = table.sum(axis=1)
    a, total = (0.0, 1.0) if stats.exact else (smoothing, table.sum() + 4.0 * smoothing)
    if a == 0.0 and (rows == 0).any():
        outcome = f"outcome {int(np.argmin(rows))} of {conditioning!r}"
        raise ZeroConditioningRow(
            f"{outcome} has zero probability; conditionals undefined" if stats.exact
            else f"{outcome} never occurs; conditionals undefined without smoothing"
        )
    found = TransitionMatrix(
        (conditioning, conditioned),
        (table + a) / (rows + 2.0 * a)[:, None],
        (rows + 2.0 * a) / total,
        (table + a) / total,
    )
    stats._transitions[key] = found
    return found
