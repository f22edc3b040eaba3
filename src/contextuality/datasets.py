"""Data sources: joint record tables, pairwise measurement logs, and
exact (infinite-sample) models.

Two empirical formats are first class because genuinely contextual
sources cannot supply one joint record per trial:

* ``JointRecordDataset``: every record assigns a value to every
  observable; a literal single sample space.
* ``PairLogDataset``: each entry reports outcomes for one pair of
  observables only; no global record ever exists.

The exact models (``ExactJointTable``, ``ExactQuantumModel``) let
pipelines bypass sampling noise entirely.

Every source reduces to one ``PairStatistics`` array, built once on
first use: pair counts for the empirical formats, pair probabilities for
the exact models.  Nothing downstream reads the raw rows again, and
``transitions.pair_transition`` estimates every source's transitions from
the array by one formula, memoizing each beside it.

Product outcomes are indexed with observable 0 as the most significant
digit: outcome index = sum over t of value_t * n**(T-1-t).  This
convention is shared with the feasibility witness vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .observables import ObservableSet


_RECORD_CHUNK = 8192  # rows per block of the joint-record Gram product


def frozen_array(values, dtype) -> np.ndarray:
    """An owned, read-only array; never freezes the caller's buffer.  An
    integer dtype must hold every value exactly, or ValueError is raised."""
    array = np.asarray(values)
    lossy = array.dtype != dtype and not np.can_cast(array.dtype, dtype)
    if lossy and np.issubdtype(dtype, np.integer):
        try:
            with np.errstate(invalid="ignore"):  # NaN and out-of-range floats fail the comparison
                cast = array.astype(dtype)
            exact = np.array_equal(cast, array)
        except OverflowError:  # a Python int beyond int64
            exact = False
        if not exact:
            raise ValueError(f"values must be integers that fit {np.dtype(dtype)}")
        array = cast
    array = np.asarray(array, dtype=dtype)
    if array is values or not array.flags.owndata:
        array = array.copy()
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class PairStatistics:
    """Everything a source says about pairs, as one T x T x 2 x 2 array.

    ``table[a, b, i, j]`` is the number of trials (or, when ``exact``, the
    probability) with observable a = i and observable b = j; ``table[b, a]``
    is ``table[a, b]`` transposed, and the diagonal a = b is unused.  A pair
    with no data has an all-zero table and is described by ``missing``.
    ``_transitions`` is the memo of ``transitions.pair_transition``.
    """

    table: np.ndarray
    exact: bool = False
    missing: str = "no data for pair"
    _transitions: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dtype = np.float64 if self.exact else np.int64
        object.__setattr__(self, "table", frozen_array(self.table, dtype))


@dataclass(frozen=True, eq=False)
class JointRecordDataset:
    """Records that assign a 0/1 value to every observable at once."""

    observables: ObservableSet
    records: np.ndarray  # shape (N, T), values 0/1

    def __post_init__(self):
        records = frozen_array(self.records, np.uint8)
        if records.ndim != 2 or records.shape[1] != len(self.observables):
            raise ValueError(
                f"records must have shape (N, {len(self.observables)}), got {records.shape}"
            )
        if records.size and records.max() > 1:
            raise ValueError("record values must be 0 or 1")
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def pair_statistics(self) -> PairStatistics:
        """Pair counts from the Gram matrix X^T X, summed over row blocks
        (float64 is exact for block counts; no full-size copy is made)."""
        n, t = self.records.shape
        gram = np.zeros((t, t), dtype=np.int64)
        for start in range(0, n, _RECORD_CHUNK):
            block = self.records[start:start + _RECORD_CHUNK].astype(np.float64)
            gram += (block.T @ block).astype(np.int64)
        ones = np.diag(gram)
        n10, n01 = ones[:, None] - gram, ones[None, :] - gram
        table = np.stack([n - n10 - ones[None, :], n01, n10, gram], axis=-1)
        return PairStatistics(table.reshape(t, t, 2, 2), missing="no records for pair")


@dataclass(frozen=True, eq=False)
class PairLogDataset:
    """Logged pairwise measurements: (observable, outcome, observable, outcome).

    Entries are stored column-wise as int32 index and value arrays.
    """

    observables: ObservableSet
    first_index: np.ndarray
    first_value: np.ndarray
    second_index: np.ndarray
    second_value: np.ndarray

    def __post_init__(self):
        t = len(self.observables)
        names = ("first_index", "first_value", "second_index", "second_value")
        cols = []
        for name in names:
            col = frozen_array(getattr(self, name), np.int32)
            if col.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            cols.append(col)
        if len({len(c) for c in cols}) > 1:
            raise ValueError("entry columns must have equal length")
        fi, fv, si, sv = cols
        for idx in (fi, si):
            if idx.size and (idx.min() < 0 or idx.max() >= t):
                raise ValueError("entry references an observable outside the set")
        if (fi == si).any():
            raise ValueError("entry pairs an observable with itself")
        for val in (fv, sv):
            if val.size and (val.min() < 0 or val.max() > 1):
                raise ValueError("logged values must be 0 or 1")
        for name, col in zip(names, cols):
            object.__setattr__(self, name, col)

    @classmethod
    def from_entries(cls, observables: ObservableSet, entries) -> PairLogDataset:
        """Build from an iterable of (obs_a, val_a, obs_b, val_b) tuples."""
        rows = [(observables.index_of(a), va, observables.index_of(b), vb)
                for a, va, b, vb in entries]
        return cls(observables, *np.array(rows, dtype=np.int64).reshape(-1, 4).T)

    def __len__(self) -> int:
        return len(self.first_index)

    @cached_property
    def pair_statistics(self) -> PairStatistics:
        """Pair counts in one ``bincount`` pass; entries logged in (b, a)
        orientation are added to (a, b) transposed."""
        t = len(self.observables)
        columns = (self.first_index, self.second_index, self.first_value, self.second_value)
        keys = np.ravel_multi_index(columns, (t, t, 2, 2))  # int64, whatever T
        logged = np.bincount(keys, minlength=4 * t * t).reshape(t, t, 2, 2)
        return PairStatistics(logged + logged.transpose(1, 0, 3, 2), missing="no logged pairs for")


@dataclass(frozen=True, eq=False)
class ExactJointTable:
    """An explicit joint distribution over {0,1}^T: the infinite-sample limit
    of a JointRecordDataset.  Its 2**T entries must be finite, non-negative
    and sum to 1."""

    observables: ObservableSet
    probabilities: np.ndarray  # flat, length 2**T, canonical outcome order

    def __post_init__(self):
        t = len(self.observables)
        probs = frozen_array(np.reshape(self.probabilities, -1), np.float64)
        if probs.size != 2**t:
            raise ValueError(f"need 2**{t} probabilities, got {probs.size}")
        if not np.isfinite(probs).all():
            raise ValueError("distribution entries must be finite")
        if probs.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if not math.isclose(probs.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probabilities", probs)

    @cached_property
    def pair_statistics(self) -> PairStatistics:
        """Exact pair probabilities, one marginal sum per unordered pair."""
        t = len(self.observables)
        cube = self.probabilities.reshape((2,) * t)
        table = np.zeros((t, t, 2, 2))
        for a, b in itertools.combinations(range(t), 2):
            table[a, b] = cube.sum(axis=tuple(ax for ax in range(t) if ax not in (a, b)))
            table[b, a] = table[a, b].T
        return PairStatistics(table, exact=True)


@dataclass(frozen=True, eq=False)
class ExactQuantumModel:
    """Analytic pairwise statistics of planar qubit measurements on the
    maximally mixed state.

    Both single-outcome priors are uniform and the same-outcome
    probability for directions separated by d degrees is cos^2(d/2), so
    every pair joint is ``bistochastic_pair_table(p)``.
    """

    observables: ObservableSet
    angles_deg: tuple[float, ...]

    def __post_init__(self):
        if len(self.angles_deg) != len(self.observables):
            raise ValueError("one angle per observable required")
        if not all(math.isfinite(angle) for angle in self.angles_deg):
            raise ValueError(f"angles must be finite, got {self.angles_deg}")

    @cached_property
    def pair_statistics(self) -> PairStatistics:
        """Exact pair probabilities from the Born rule."""
        t = len(self.angles_deg)
        table = np.zeros((t, t, 2, 2))
        for a, b in itertools.permutations(range(t), 2):
            p = same_outcome_probability(self.angles_deg[a], self.angles_deg[b])
            table[a, b] = bistochastic_pair_table(p)
        return PairStatistics(table, exact=True)


def same_outcome_probability(angle_a_deg: float, angle_b_deg: float) -> float:
    """Born-rule probability that two planar qubit measurements agree."""
    half = math.radians(angle_a_deg - angle_b_deg) / 2.0
    return math.cos(half) ** 2


def bistochastic_pair_table(s: float) -> np.ndarray:
    """The joint table of two binary observables with uniform priors that
    agree with probability s: [[s/2, (1-s)/2], [(1-s)/2, s/2]]."""
    return np.array([[s / 2.0, (1.0 - s) / 2.0], [(1.0 - s) / 2.0, s / 2.0]])
