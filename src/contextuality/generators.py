"""Ground-truth data generators.

``gen_classical`` draws records from an explicit joint table over
{0,1}^T, a literal single sample space, so every derived statistic is
Kolmogorovian by construction.  ``gen_quantum`` simulates sequential
pairs of planar qubit measurements on the maximally mixed state; for
suitable angle sets (e.g. the trine 0, 120, 240) the pairwise statistics
admit no joint distribution at all.

Both generators are pure functions of their arguments: the same seed
yields byte-identical datasets, and per-pair streams are seeded
independently so pair logs could be produced in parallel without
changing the output.  Each refuses, before it allocates, a dataset of
more than ``MAX_GENERATED_VALUES`` values: records x T, or logged pairs
x shots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .datasets import (
    ExactJointTable,
    ExactQuantumModel,
    JointRecordDataset,
    PairLogDataset,
    same_outcome_probability,
)
from .observables import ObservableSet

MAX_CLASSICAL_OBSERVABLES = 16
MAX_GENERATED_VALUES = 10**8  # records x T, or logged pairs x shots


def _rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True, eq=False)
class Sample:
    """A generated dataset and the exact source it was drawn from."""

    dataset: JointRecordDataset | PairLogDataset
    exact: ExactJointTable | ExactQuantumModel


def gen_classical(
    num_observables: int, num_records: int, seed: int = 0, distribution=None
) -> Sample:
    """Sample records from a joint table; also return the exact table.

    ``distribution`` is a table of 2**T probabilities in canonical
    outcome order, checked by ``ExactJointTable``, or None to draw one
    from the flat prior on the simplex (seeded by ``seed``).  The exact
    table lets pipelines bypass sampling entirely (infinite-sample mode).
    """
    t = num_observables
    if not 1 <= t <= MAX_CLASSICAL_OBSERVABLES:
        raise ValueError(f"num_observables must be in [1, {MAX_CLASSICAL_OBSERVABLES}]")
    if num_records < 0:
        raise ValueError("num_records must be non-negative")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if num_records * t > MAX_GENERATED_VALUES:
        raise ValueError(f"num_records x num_observables must be at most {MAX_GENERATED_VALUES}")
    size = 2**t
    if distribution is None:
        distribution = _rng(seed, 0).dirichlet(np.ones(size))
        distribution = distribution / distribution.sum()
    observables = ObservableSet.from_ids(
        (f"x{i}" for i in range(t)), source=f"classical(seed={seed}, T={t})"
    )
    exact = ExactJointTable(observables, distribution)
    outcomes = _rng(seed, 1).choice(size, size=num_records, p=exact.probabilities)
    shifts = np.arange(t - 1, -1, -1, dtype=np.uint16)  # T <= 16, so outcomes fit uint16
    records = (outcomes.astype(np.uint16)[:, None] >> shifts) & 1
    return Sample(dataset=JointRecordDataset(observables, records.astype(np.uint8)), exact=exact)


def logged_pairs(num_angles: int, pairs=None) -> tuple[tuple[int, int], ...]:
    """The index pairs a qubit log records: every pair i < j when ``pairs``
    is None; otherwise ``pairs``, each of two distinct indices in range,
    and none listed twice in either order."""
    if pairs is None:
        return tuple(itertools.combinations(range(num_angles), 2))
    seen = set()
    for a, b in pairs:
        if not (0 <= a < num_angles and 0 <= b < num_angles) or a == b:
            raise ValueError(f"invalid measurement pair ({a}, {b})")
        if frozenset((a, b)) in seen:
            raise ValueError(f"measurement pair ({a}, {b}) is listed twice")
        seen.add(frozenset((a, b)))
    return tuple(pairs)


def gen_quantum(angles_deg, shots: int, seed: int = 0, pairs=None) -> Sample:
    """Simulate pairwise measurement logs; also return the analytic model.

    Measurements are planar projections at ``angles_deg`` (degrees, each
    in [0, 360)).  Each pair of ``logged_pairs(len(angles_deg), pairs)``
    is measured ``shots`` times on the maximally mixed state: the first
    outcome is uniform and the second agrees with probability
    cos^2(angle difference / 2), so every transition matrix is
    bistochastic in expectation.
    """
    angles_deg = tuple(angles_deg)
    if len(angles_deg) < 2:
        raise ValueError("need at least 2 measurement angles")
    if any(not 0.0 <= a < 360.0 for a in angles_deg):
        raise ValueError("angles must lie in [0, 360)")
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    pairs = logged_pairs(len(angles_deg), pairs)
    if len(pairs) * shots > MAX_GENERATED_VALUES:
        raise ValueError(f"logged pairs x shots must be at most {MAX_GENERATED_VALUES}")
    observables = ObservableSet.from_ids(
        (f"a{i}" for i in range(len(angles_deg))),
        source=f"quantum(seed={seed}, angles={list(angles_deg)})",
    )
    values = np.empty((2, len(pairs), shots), dtype=np.int32)  # first, second
    for pair_number, (i, j) in enumerate(pairs):
        p_same = same_outcome_probability(angles_deg[i], angles_deg[j])
        rng = _rng(seed, pair_number)
        a = rng.integers(0, 2, size=shots)
        agree = rng.random(shots) < p_same
        values[:, pair_number] = a, np.where(agree, a, 1 - a)
    index = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    first_idx, second_idx = np.repeat(index, shots, axis=0).T
    dataset = PairLogDataset(
        observables, first_idx, values[0].ravel(), second_idx, values[1].ravel()
    )
    return Sample(dataset=dataset, exact=ExactQuantumModel(observables, angles_deg))
