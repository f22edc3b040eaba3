"""Ground-truth data generators.

``gen_classical`` draws records from an explicit joint table over
{0,1}^T, a literal single sample space, so every derived statistic is
Kolmogorovian by construction.  ``gen_quantum`` simulates sequential
pairs of planar qubit measurements on the maximally mixed state; for
suitable angle sets (e.g. the trine 0, 120, 240) the pairwise statistics
admit no joint distribution at all.

Both generators are pure functions of their spec: the same seed yields
byte-identical datasets, and per-pair streams are seeded independently
so pair logs could be produced in parallel without changing the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import (
    ExactJointTable,
    ExactQuantumModel,
    JointRecordDataset,
    PairLogDataset,
    frozen_array,
    same_outcome_probability,
)
from .observables import ObservableSet

MAX_CLASSICAL_OBSERVABLES = 16


def _rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True, eq=False)
class ClassicalModelSpec:
    """A single-sample-space source.

    ``distribution`` is an explicit table of 2**T probabilities in
    canonical outcome order, or None to draw one from the flat prior on
    the simplex (seeded by ``seed``).
    """

    num_observables: int
    num_records: int
    seed: int = 0
    distribution: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.num_observables <= MAX_CLASSICAL_OBSERVABLES:
            raise ValueError(
                f"num_observables must be in [1, {MAX_CLASSICAL_OBSERVABLES}]"
            )
        if self.num_records < 0:
            raise ValueError("num_records must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.distribution is not None:
            table = frozen_array(np.reshape(self.distribution, -1), np.float64)
            if table.size != 2**self.num_observables:
                raise ValueError(f"distribution needs 2**{self.num_observables} entries")
            if table.min() < 0 or abs(table.sum() - 1.0) > 1e-9:
                raise ValueError("distribution must be non-negative and sum to 1")
            object.__setattr__(self, "distribution", table)


@dataclass(frozen=True, eq=False)
class ClassicalSample:
    dataset: JointRecordDataset
    exact: ExactJointTable


def gen_classical(spec: ClassicalModelSpec) -> ClassicalSample:
    """Sample records from the joint table; also return the exact table.

    The exact table lets pipelines bypass sampling entirely
    (infinite-sample mode).
    """
    t = spec.num_observables
    size = 2**t
    table = spec.distribution
    if table is None:
        table = _rng(spec.seed, 0).dirichlet(np.ones(size))
        table = table / table.sum()
    observables = ObservableSet.from_ids(
        (f"x{i}" for i in range(t)), source=f"classical(seed={spec.seed}, T={t})"
    )
    outcomes = _rng(spec.seed, 1).choice(size, size=spec.num_records, p=table)
    shifts = np.arange(t - 1, -1, -1, dtype=np.uint16)  # T <= 16, so outcomes fit uint16
    records = (outcomes.astype(np.uint16)[:, None] >> shifts) & 1
    dataset = JointRecordDataset(observables, records.astype(np.uint8))
    return ClassicalSample(dataset=dataset, exact=ExactJointTable(observables, table))


@dataclass(frozen=True)
class QubitModelSpec:
    """Planar projective measurements, identified by angles in degrees.

    ``pairs`` lists index pairs to log (default: all pairs); ``shots``
    is the number of measurement pairs per logged pair.  The preparation
    is maximally mixed, so the first outcome of each pair is uniform and
    all transition matrices are bistochastic in expectation.
    """

    angles_deg: tuple[float, ...]
    shots: int
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if len(self.angles_deg) < 2:
            raise ValueError("need at least 2 measurement angles")
        if any(not 0.0 <= a < 360.0 for a in self.angles_deg):
            raise ValueError("angles must lie in [0, 360)")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.pairs is not None:
            n = len(self.angles_deg)
            for a, b in self.pairs:
                if not (0 <= a < n and 0 <= b < n) or a == b:
                    raise ValueError(f"invalid measurement pair ({a}, {b})")

    def logged_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.pairs is not None:
            return self.pairs
        n = len(self.angles_deg)
        return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True, eq=False)
class QuantumSample:
    dataset: PairLogDataset
    exact: ExactQuantumModel


def gen_quantum(spec: QubitModelSpec) -> QuantumSample:
    """Simulate pairwise measurement logs; also return the analytic model.

    For each logged pair and each shot the first outcome is uniform and
    the second agrees with probability cos^2(angle difference / 2).
    """
    observables = ObservableSet.from_ids(
        (f"a{i}" for i in range(len(spec.angles_deg))),
        source=f"quantum(seed={spec.seed}, angles={list(spec.angles_deg)})",
    )
    pairs = spec.logged_pairs()
    values = np.empty((2, len(pairs), spec.shots), dtype=np.int32)  # first, second
    for pair_number, (i, j) in enumerate(pairs):
        p_same = same_outcome_probability(spec.angles_deg[i], spec.angles_deg[j])
        rng = _rng(spec.seed, pair_number)
        a = rng.integers(0, 2, size=spec.shots)
        agree = rng.random(spec.shots) < p_same
        values[:, pair_number] = a, np.where(agree, a, 1 - a)
    index = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    first_idx, second_idx = np.repeat(index, spec.shots, axis=0).T
    dataset = PairLogDataset(
        observables, first_idx, values[0].ravel(), second_idx, values[1].ravel()
    )
    return QuantumSample(
        dataset=dataset, exact=ExactQuantumModel(observables, spec.angles_deg)
    )
