"""Ground truth the benchmark knows independently of the package.

Every verdict the program returns is compared with an answer that
follows from how the input was built: an explicit joint distribution
must be feasible, disagreeing single marginals must be infeasible, a
symmetric bistochastic triple must agree with the Accardi inequalities,
and the exact qubit model fixes the Accardi verdict of a pair-log
triple. None of these functions import the package.

An operation is counted once per call: ``known`` when the ground truth
decides it, ``wrong`` when the verdict contradicts that truth, and
``errors`` when the call raised, was skipped or exited non-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pair-log triples whose exact Accardi slack lies within this margin of 0
# are not judged: at 2,000 shots per pair the estimate can land on
# either side of the boundary.
SAMPLING_MARGIN = 0.02
# LP problems closer than this to the Accardi boundary, or whose single
# marginals disagree by less than this, are not judged.
LP_MARGIN = 1e-6
# A witness entry below -NEGATIVE_WITNESS is reported, not failed.
NEGATIVE_WITNESS = 2e-8
TRINE_RESIDUAL = 1.0 / 24.0
TRINE_RESIDUAL_TOL = 1e-9


@dataclass
class Tally:
    """Per-operation outcome counts; ``failed`` = errors + wrong."""

    attempted: int = 0
    known: int = 0
    wrong: int = 0
    errors: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def add(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.known += other.known
        self.wrong += other.wrong
        self.errors += other.errors


def same_outcome(angle_a: float, angle_b: float) -> float:
    """cos^2 of half the angle between two planar qubit measurements."""
    return math.cos(math.radians(angle_a - angle_b) / 2.0) ** 2


def accardi_slack(p: float, q: float, r: float) -> float:
    """min(r - |p+q-1|, 1 - |p-q| - r): non-negative iff a joint exists."""
    return min(r - abs(p + q - 1.0), 1.0 - abs(p - q) - r)


def exact_pairlog_slack(angles, triple_indices) -> float:
    """Exact slack of (A, B, C) with p = P(A|B), q = P(B|C), r = P(C|A)."""
    i, j, k = triple_indices
    p = same_outcome(angles[j], angles[i])
    q = same_outcome(angles[k], angles[j])
    r = same_outcome(angles[i], angles[k])
    return accardi_slack(p, q, r)


def marginal_mismatch(tables: dict[tuple[int, int], np.ndarray]) -> float:
    """Largest disagreement between single marginals implied by pair tables."""
    seen: dict[int, np.ndarray] = {}
    worst = 0.0
    for (a, b), table in tables.items():
        table = np.asarray(table, dtype=np.float64)
        for index, marginal in ((a, table.sum(axis=1)), (b, table.sum(axis=0))):
            if index in seen:
                worst = max(worst, float(np.abs(seen[index] - marginal).max()))
            else:
                seen[index] = marginal
    return worst


def witness_residual(witness, num_observables: int, num_outcomes: int, tables) -> float:
    """How far a witness's total mass and pair marginals are from the targets.

    Entries slightly below 0 are not counted here: the solver returns them
    within its own feasibility tolerance, and the benchmark reports them
    separately (``NEGATIVE_WITNESS``) without failing the call.
    """
    x = np.asarray(witness, dtype=np.float64)
    worst = abs(float(x.sum()) - 1.0)
    cube = x.reshape((num_outcomes,) * num_observables)
    for (a, b), table in tables.items():
        other = tuple(ax for ax in range(num_observables) if ax not in (a, b))
        worst = max(worst, float(np.abs(cube.sum(axis=other) - table).max()))
    return worst


def lp_expectation(kind: str, mismatch: float, pqr=None) -> dict:
    """What a feasibility call on a problem of this construction must return.

    ``kind`` is ``explicit`` (the tables are marginals of a known joint),
    ``trine`` (the exact trine), ``bistochastic`` (symmetric tables with
    parameters ``pqr``) or anything else, where only the rule on the
    tables' ``marginal_mismatch`` applies.  ``expect`` is True, False or
    None when the truth is unknown.
    """
    if kind == "explicit":
        return {"expect": True, "witness": True}
    if kind == "trine":
        return {"expect": False, "residual": TRINE_RESIDUAL}
    if mismatch > LP_MARGIN:
        return {"expect": False}
    if kind == "bistochastic":
        slack = accardi_slack(*pqr)
        if abs(slack) > LP_MARGIN:
            return {"expect": slack > 0}
    return {"expect": None}


def judge_lp(expectation: dict, outcome: dict, tolerance: float) -> Tally:
    """Compare one feasibility call with its expectation.

    ``outcome`` holds ``error`` (str or None), ``feasible``,
    ``max_violation`` and ``witness_residual`` (None without a witness).
    """
    tally = Tally(attempted=1)
    if outcome.get("error"):
        tally.errors = 1
        return tally
    expect = expectation.get("expect")
    if expect is None:
        return tally
    tally.known = 1
    wrong = outcome["feasible"] != expect
    if expectation.get("witness") and outcome["feasible"]:
        residual = outcome.get("witness_residual")
        wrong = wrong or residual is None or residual > 2.0 * tolerance
    if "residual" in expectation:
        gap = abs(outcome["max_violation"] - expectation["residual"])
        wrong = wrong or gap > TRINE_RESIDUAL_TOL
    tally.wrong = int(wrong)
    return tally


def judge_pairlog_rows(rows, angles, margin: float = SAMPLING_MARGIN) -> Tally:
    """Check pair-log ``pers`` rows against the exact qubit model.

    Rows are ``[a, b, c, applicable, accardi_verdict, lp_feasible, error]``
    with ids ``a<index>``.  A decided, applicable triple is judged when
    its exact slack lies beyond ``margin``: its Accardi verdict must match
    the exact one, and an exactly contextual triple must be LP-infeasible.
    LP verdicts of exactly classical triples are not judged, because
    pair-log marginals disagree by sampling noise and the LP reads that
    as infeasibility.
    """
    tally = Tally()
    for a, b, c, applicable, verdict, lp_feasible, error in rows:
        tally.attempted += 1
        if error is not None:
            tally.errors += 1
            continue
        if not applicable:
            continue
        slack = exact_pairlog_slack(angles, [int(x[1:]) for x in (a, b, c)])
        if abs(slack) <= margin:
            continue
        tally.known += 1
        if slack > 0:
            tally.wrong += int(verdict != "classical")
        else:
            tally.wrong += int(verdict != "contextual" or lp_feasible)
    return tally


def judge_joint_rows(rows) -> Tally:
    """Joint-record triples come from one sample space: all LP-feasible."""
    tally = Tally()
    for *_ids, _applicable, _verdict, lp_feasible, error in rows:
        tally.attempted += 1
        if error is not None:
            tally.errors += 1
            continue
        tally.known += 1
        tally.wrong += int(lp_feasible is not True)
    return tally


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
