"""Closed-form classicality test for triples of binary observables.

For three binary observables whose pairwise transition matrices are
bistochastic with parameters p = P(A|B), q = P(B|C), r = P(C|A), the
statistics admit a single sample space (a Kolmogorovian model) if and
only if the Accardi statistical invariants hold:

    |p + q - 1| <= r <= 1 - |p - q|

Equivalently, the symmetric system p+q+r >= 1, p+q-r <= 1, p-q+r <= 1,
-p+q+r <= 1, which makes the verdict invariant under permutations of
(p, q, r) and under outcome relabelings of any one observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .transitions import TransitionMatrix, check_tolerance, pair_transition

DEFAULT_BISTOCHASTIC_TOL = 0.05
EQUALITY_TOL = 1e-9

Verdict = Literal["classical", "contextual", "not_applicable"]


@dataclass(frozen=True)
class TripleParams:
    """Symmetric transition parameters of an ordered observable triple (A, B, C),
    with the verdict of the invariants on them.

    Attributes:
        observables: the triple ids.
        p, q, r: symmetrized parameters (M[0][0] + M[1][1]) / 2 of P(A|B),
            P(B|C), P(C|A): the bistochastic parameters when ``applicable``.
        applicable: all three matrices bistochastic within tolerance.
        deviations: bistochastic deviations of the three matrices, in the
            same cyclic order as (p, q, r).
        slack: min(r - |p+q-1|, 1 - |p-q| - r): non-negative iff the
            invariants hold, and its magnitude measures the distance to
            the boundary.
        verdict: ``not_applicable`` when the bistochastic hypothesis
            failed (the linear-programming route remains available);
            otherwise ``classical``, boundary cases (|slack| <=
            EQUALITY_TOL) included since the invariants are non-strict,
            or ``contextual``.
    """

    observables: tuple[str, str, str]
    p: float
    q: float
    r: float
    applicable: bool
    deviations: tuple[float, float, float]
    slack: float = field(init=False)
    verdict: Verdict = field(init=False)

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        for name, value in (("p", p), ("q", q), ("r", r)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        slack = min(r - abs(p + q - 1.0), 1.0 - abs(p - q) - r)
        if not self.applicable:
            verdict = "not_applicable"
        elif slack >= -EQUALITY_TOL:
            verdict = "classical"
        else:
            verdict = "contextual"
        object.__setattr__(self, "slack", slack)
        object.__setattr__(self, "verdict", verdict)


def triple_params(
    source,
    ids: tuple[str, str, str],
    smoothing: float = 0.0,
    bistochastic_tol: float = DEFAULT_BISTOCHASTIC_TOL,
) -> tuple[TripleParams, tuple[TransitionMatrix, TransitionMatrix, TransitionMatrix]]:
    """Estimate the cyclic transition matrices of a triple and its parameters.

    Returns the params together with the three matrices (P(A|B), P(B|C),
    P(C|A)) so callers can reuse them, e.g. as joint targets for the
    feasibility solver.  Each matrix comes from ``pair_transition``, which
    memoizes it on the source.  The triple is applicable when every
    matrix's bistochastic deviation is within ``bistochastic_tol``.

    Raises:
        ValueError: ``bistochastic_tol`` is negative or not finite.
    """
    check_tolerance("bistochastic_tol", bistochastic_tol)
    if len(set(ids)) != 3:
        raise ValueError("triple must name three distinct observables")
    a, b, c = ids
    matrices = tuple(pair_transition(source, *pair, smoothing) for pair in ((b, a), (c, b), (a, c)))
    deviations = tuple(m.bistochastic_deviation for m in matrices)
    params = TripleParams(
        tuple(ids),
        *(m.symmetrized_param for m in matrices),  # p, q, r
        applicable=all(d <= bistochastic_tol for d in deviations),
        deviations=deviations,
    )
    return params, matrices
