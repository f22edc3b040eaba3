"""Personalization / contextuality rate over sampled observable triples.

For each sampled triple the pipeline estimates pairwise transitions,
applies the closed-form invariant check, and solves the joint
feasibility problem.  Two ratios are reported because the closed form
only applies to bistochastic triples:

* ``pers_accardi``: violating fraction among triples where the
  bistochastic hypothesis holds (the personalization rate proper);
* ``pers_lp``: feasibility-violating fraction among all decided
  triples (the general test, no hypothesis needed).

All sampling and evaluation is deterministic given the plan seed: each
distinct triple is evaluated once, in sampled order, from transitions
that ``pair_transition`` estimates once per source and ordered pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Literal, get_args

from .accardi import DEFAULT_BISTOCHASTIC_TOL, TripleParams
from .errors import DataError, ProblemTooLarge, SampleExceedsPopulation, TooFewObservables
from .feasibility import (
    DEFAULT_FEASIBILITY_TOL,
    FeasibilityResult,
    feasibility_from_dataset,
)
from .observables import ObservableSet
from .transitions import check_smoothing, check_tolerance

MAX_TRIPLES = 10**5  # triples sampled or visited by one run
_WILSON_Z95 = 1.959963984540054  # two-sided 95% normal quantile

SamplingMode = Literal["without_replacement", "with_replacement", "exhaustive"]


@dataclass(frozen=True)
class SamplingPlan:
    """How to pick triples and which tolerances to forward.

    ``num_triples=None`` means min(1000, C(T,3)), and a given one is at
    most 1e5.  Exhaustive mode visits all C(T,3) triples in lexicographic
    order, takes no ``num_triples``, and requires C(T,3) <= 1e5.  Every
    setting is checked here, even for a run whose triples all skip.
    """

    num_triples: int | None = None
    mode: SamplingMode = "without_replacement"
    seed: int = 0
    bistochastic_tol: float = DEFAULT_BISTOCHASTIC_TOL
    smoothing: float = 0.0
    feasibility_tol: float = DEFAULT_FEASIBILITY_TOL

    def __post_init__(self):
        if self.mode not in get_args(SamplingMode):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.num_triples is not None:
            if self.mode == "exhaustive":
                raise ValueError("exhaustive mode visits every triple; num_triples must be unset")
            if type(self.num_triples) is not int:
                raise ValueError(f"num_triples must be an integer, got {self.num_triples!r}")
            if not 0 <= self.num_triples <= MAX_TRIPLES:
                raise ValueError(f"num_triples must be non-negative and at most {MAX_TRIPLES}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        check_tolerance("bistochastic_tol", self.bistochastic_tol)
        check_smoothing(self.smoothing)
        check_tolerance("feasibility tolerance", self.feasibility_tol, positive=True)


@dataclass(frozen=True)
class TripleReport:
    """Everything the pipeline decided about one sampled triple."""

    ids: tuple[str, str, str]
    params: TripleParams | None
    lp: FeasibilityResult | None
    error: str | None = None

    @property
    def skipped(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class PersEstimate:
    """The personalization-rate estimate with its bookkeeping.

    ``violations`` = (invariant-violating count, LP-infeasible count).
    ``pers_accardi_sampled`` is the auxiliary reading of the ratio with
    all decided triples in the denominator (not just applicable ones).
    Wilson 95% intervals use the same denominators as their ratios.
    """

    pers_accardi: float
    pers_lp: float
    pers_accardi_sampled: float
    sampled: int
    decided: int
    applicable: int
    violations: tuple[int, int]
    skipped: int
    ci95_accardi: tuple[float, float]
    ci95_lp: tuple[float, float]

    def __post_init__(self):
        if not (0.0 <= self.pers_accardi <= 1.0 and 0.0 <= self.pers_lp <= 1.0):
            raise ValueError("ratios must lie in [0, 1]")
        if self.violations[0] > max(self.applicable, 0) or self.violations[1] > self.decided:
            raise ValueError("violation counts exceed their denominators")


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion; (0, 1) when total=0."""
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    z = _WILSON_Z95
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
    # clamp against rounding so the interval always contains the estimate
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return (low, high)


def _unrank_triple(rank: int, t: int) -> tuple[int, int, int]:
    """rank-th 3-combination of range(t) in lexicographic order."""
    i = 0
    while True:
        block = (t - 1 - i) * (t - 2 - i) // 2
        if rank < block:
            break
        rank -= block
        i += 1
    j = i + 1
    while True:
        block = t - 1 - j
        if rank < block:
            break
        rank -= block
        j += 1
    k = j + 1 + rank
    return (i, j, k)


def sample_triples(
    observables: ObservableSet, plan: SamplingPlan
) -> list[tuple[str, str, str]]:
    """Deterministically sample index-ordered triples of observable ids.

    Raises:
        TooFewObservables: fewer than 3 observables.
        SampleExceedsPopulation: without-replacement request larger than
            C(T,3).
        ProblemTooLarge: exhaustive mode beyond 1e5 triples.
    """
    t = len(observables)
    if t < 3:
        raise TooFewObservables(f"need at least 3 observables, have {t}")
    ids = observables.ids()
    population = math.comb(t, 3)
    if plan.mode == "exhaustive":
        if population > MAX_TRIPLES:
            raise ProblemTooLarge(f"{population} triples exceed the cap {MAX_TRIPLES}")
        ranks = range(population)
    else:
        requested = min(1000, population) if plan.num_triples is None else plan.num_triples
        rng = random.Random(plan.seed)
        if plan.mode == "with_replacement":
            ranks = [rng.randrange(population) for _ in range(requested)]
        elif requested > population:
            raise SampleExceedsPopulation(
                f"{requested} distinct triples requested, only {population} exist"
            )
        else:
            ranks = rng.sample(range(population), requested)
    return [
        tuple(ids[x] for x in _unrank_triple(rank, t)) for rank in ranks
    ]


def evaluate_triples(
    source,
    triples: list[tuple[str, str, str]],
    plan: SamplingPlan,
) -> list[TripleReport]:
    """Run the pipeline on each triple, in sampled order; a triple whose
    data fails becomes a skip report.

    Evaluation is a pure function of (source, ids, plan), so repeated
    triples (with-replacement sampling) are computed once and reused.
    """
    by_ids = {}
    for ids in dict.fromkeys(triples):
        try:
            params, lp = feasibility_from_dataset(
                source, ids, plan.smoothing, plan.bistochastic_tol, plan.feasibility_tol
            )
        except DataError as exc:  # a SolverFailure is not a skip; it propagates
            by_ids[ids] = TripleReport(ids=ids, params=None, lp=None, error=str(exc))
        else:
            by_ids[ids] = TripleReport(ids=ids, params=params, lp=lp)
    return [by_ids[ids] for ids in triples]


def summarize(reports: list[TripleReport]) -> PersEstimate:
    """Tally per-triple reports into the two ratios with Wilson intervals."""
    sampled = len(reports)
    skipped = sum(1 for r in reports if r.skipped)
    decided = sampled - skipped
    applicable = sum(1 for r in reports if r.params is not None and r.params.applicable)
    accardi_violations = sum(
        1 for r in reports if r.params is not None and r.params.verdict == "contextual"
    )
    lp_violations = sum(1 for r in reports if r.lp is not None and not r.lp.feasible)
    return PersEstimate(
        pers_accardi=accardi_violations / applicable if applicable else 0.0,
        pers_lp=lp_violations / decided if decided else 0.0,
        pers_accardi_sampled=accardi_violations / decided if decided else 0.0,
        sampled=sampled,
        decided=decided,
        applicable=applicable,
        violations=(accardi_violations, lp_violations),
        skipped=skipped,
        ci95_accardi=wilson_interval(accardi_violations, applicable),
        ci95_lp=wilson_interval(lp_violations, decided),
    )
