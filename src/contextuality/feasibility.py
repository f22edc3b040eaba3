"""Exact single-sample-space decision by linear feasibility.

Given target joint tables for pairs of observables, the question is
whether a non-negative probability vector over the full product sample
space (n outcomes per observable, n**T points) reproduces every pair
marginal.  Row (a, b, i, j) of the outcome table, which the solver and
every witness re-check read, lists the outcomes with A_a = i and A_b = j.
A phase-one style solve minimizes the largest entrywise deviation t:

    minimize t  subject to  |marginal(x) - target| <= t  entrywise,
                            sum(x) = 1, x >= 0, t >= 0.

The optimum is reported as ``max_violation``; the problem is feasible
exactly when it falls below the problem tolerance.  Any witness is a
genuine joint distribution certifying classicality; a strictly positive
optimum certifies that no single sample space exists.

Binary triples (three observables, two outcomes, all three pairs given)
are decided without a solver.  Their constraint matrix M is fixed, so
by LP duality the optimum is

    max over dual vertices (lambda, w) of  lambda . b + w,

where b holds the 12 target entries in key order (0,1), (0,2), (1,2) and
the vertices are those of {||lambda||_1 <= 1, M^T lambda + w <= 0}.  The
932 vertices are enumerated exactly by ``tools/gen_triple_duals.py`` and
stored in ``triple_duals`` as one representative per relabeling orbit.
An infeasible verdict carries the maximizing vertex as its certificate; a
feasible one gets a closed-form witness from one more fixed-matrix product,
re-checked on its 8 entries as Python floats.  Every other problem, and a
closed-form witness that fails its re-check, goes to HiGHS.  A witness
passes its re-check when its row, mass and sign errors all stay within
2 x tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import triple_duals
from .accardi import DEFAULT_BISTOCHASTIC_TOL, TripleParams, triple_params
from .errors import ProblemTooLarge, SolverFailure
from .datasets import bistochastic_pair_table, frozen_array
from .observables import ObservableSet
from .transitions import TransitionMatrix, check_tolerance

DEFAULT_FEASIBILITY_TOL = 1e-8
MAX_PRODUCT_OUTCOMES = 10**6
MAX_OUTCOME_ENTRIES = 2 * 10**6  # pairs x n**T: what the outcome table and the LP hold
_HIGHS_DEFAULT_PRIMAL_TOL = 1e-7  # HiGHS's primal feasibility tolerance
_HIGHS_MIN_PRIMAL_TOL = 1e-10  # the smallest value HiGHS accepts
_TRIPLE_KEYS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class JointFeasibilityProblem:
    """Pair-marginal targets over a product sample space.

    Attributes:
        num_observables: T.
        num_outcomes: outcomes per observable, n.
        pair_marginals: map from index pairs (a, b) with a < b to n x n
            tables J[i][j] = target P(A_a = i and A_b = j).  Pairs not
            present are unconstrained (partial marginal problems are
            allowed: pair logs may simply lack some pairs).
        tolerance: feasibility slack bound, finite and > 0.
    """

    num_observables: int
    num_outcomes: int
    pair_marginals: dict[tuple[int, int], np.ndarray]
    tolerance: float = DEFAULT_FEASIBILITY_TOL

    def __post_init__(self):
        t, n = self.num_observables, self.num_outcomes
        if t < 1 or n < 2:
            raise ValueError("need at least one observable with two outcomes")
        check_tolerance("feasibility tolerance", self.tolerance, positive=True)
        tables = {}
        for key, table in self.pair_marginals.items():
            a, b = key
            if not (0 <= a < b < t):
                raise ValueError(f"pair key {key} must satisfy 0 <= a < b < T")
            table = frozen_array(table, np.float64)
            if table.shape != (n, n):
                raise ValueError(f"pair {key}: table must be {n}x{n}")
            if table.min() < -1e-12:
                raise ValueError(f"pair {key}: negative entry")
            if not math.isclose(table.sum(), 1.0, abs_tol=1e-9):
                raise ValueError(f"pair {key}: entries must sum to 1")
            tables[key] = table
        object.__setattr__(self, "pair_marginals", tables)


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Verdict of a feasibility solve.

    ``witness`` is a probability vector over the n**T product outcomes in
    canonical order (observable 0 most significant), present iff feasible.
    ``max_violation`` is the optimal residual: 0 (to solver precision)
    when feasible, strictly positive when not.

    ``certificate`` is set on infeasible binary triples: the dual vertex
    (lambda_1..lambda_12, w) that attains ``max_violation``.  It satisfies
    sum(|lambda|) <= 1 and M^T lambda + w <= 0 for the triple's fixed
    incidence matrix M, so lambda . b + w = ``max_violation`` bounds every
    joint distribution's residual from below.  It is None otherwise,
    including every verdict reached by HiGHS.
    """

    feasible: bool
    witness: np.ndarray | None
    max_violation: float
    certificate: np.ndarray | None = None


def _pair_outcomes(t: int, n: int, keys) -> np.ndarray:
    """The outcome table: row (a, b, i, j), pairs in the order of ``keys``,
    lists the product outcomes with A_a = i and A_b = j in ascending order."""
    flat = np.arange(n**t).reshape((n,) * t)
    return np.concatenate([np.moveaxis(flat, key, (0, 1)).reshape(n * n, -1) for key in keys])


def _closed_form_rows() -> tuple[np.ndarray, np.ndarray]:
    """``_triple_witness``'s outcomes less their p012 terms: coefficients on b, constants."""
    e = np.eye(13)  # e[k] reads target k; e[12] is the constant 1
    t01, t02, t12 = e[:12].reshape(3, 2, 2, 13)
    p0 = (t01[1].sum(0) + t02[1].sum(0)) / 2
    p1 = (t01[:, 1].sum(0) + t12[1].sum(0)) / 2
    p2 = (t02[:, 1].sum(0) + t12[:, 1].sum(0)) / 2
    p01, p02, p12 = t01[1, 1], t02[1, 1], t12[1, 1]
    rest = e[12] - p0 - p1 - p2 + p01 + p02 + p12  # P(0, 0, 0) + p012
    rows = np.array([rest, p2 - p02 - p12, p1 - p01 - p12, p12, p0 - p01 - p02, p02, p01, 0 * e[0]])
    return rows[:, :12], rows[:, 12]


# A binary triple's outcome table, the rows of its incidence matrix M.
# Outcome k of its witness is _WITNESS_FORMS[k] . b + _WITNESS_OFFSETS[k] -/+ p012.
_TRIPLE_OUTCOMES = frozen_array(_pair_outcomes(3, 2, _TRIPLE_KEYS), np.int64)
_TRIPLE_ROWS = tuple(map(tuple, _TRIPLE_OUTCOMES.tolist()))  # the same, as Python ints
_WITNESS_FORMS, _WITNESS_OFFSETS = (frozen_array(part, np.float64) for part in _closed_form_rows())


def _expand_orbits(orbits) -> np.ndarray:
    """Every image of the orbit representatives under the 48 relabelings of
    a binary triple (observable orders times outcome flips), sorted.  A
    relabeled row of M equals the one row of M it shares two outcomes with."""
    incidence = np.eye(8)[_TRIPLE_OUTCOMES].sum(axis=1)  # M, each row two unit rows
    bits = np.array(list(itertools.product((0, 1), repeat=3)))  # outcome k, observable 0 first
    rows, images = np.array(orbits), []
    for order in itertools.permutations(range(3)):
        for flips in itertools.product((0, 1), repeat=3):
            moved = incidence[:, (bits[:, order] ^ flips) @ (4, 2, 1)]
            images.append(rows[:, [*(moved @ incidence.T).argmax(axis=1), 12]])
    return np.unique(np.concatenate(images), axis=0)


# Dual vertices (lambda_1..lambda_12, w) of the binary-triple LP, exact as
# integers over triple_duals.SCALE.
TRIPLE_DUAL_VERTICES = frozen_array(_expand_orbits(triple_duals.ORBITS), np.int64)
_TRIPLE_DUALS = frozen_array(TRIPLE_DUAL_VERTICES / triple_duals.SCALE, np.float64)
_DUAL_FORMS = frozen_array(_TRIPLE_DUALS[:, :12], np.float64)  # contiguous: lambda
_DUAL_OFFSETS = frozen_array(_TRIPLE_DUALS[:, 12], np.float64)  # contiguous: w


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first call: importing this
    package loads no scipy module, and a run that needs no HiGHS solve
    never does."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def linear_feasibility(
    outcomes: np.ndarray, targets: np.ndarray, primal_tol: float
) -> tuple[float, np.ndarray]:
    """The marginal problem's LP: minimize the largest pair-row deviation.

    R's 0/1 row k sums the outcomes that row k of ``outcomes`` lists.
    Solves min t over x >= 0 with |R x - targets| <= t, from one CSR block
    A_ub = [R, -1; -R, -1], and sum(x) = 1 held exactly.  Returns
    (optimal t, x); x may miss any constraint by up to ``primal_tol``.

    Raises:
        SolverFailure: numerical breakdown; this program is feasible and
            bounded by construction, so any solver failure is numerical.
    """
    from scipy import sparse

    num_rows, width = outcomes.shape
    num_vars = int(outcomes.max()) + 1  # each pair's rows list every outcome once
    indices = np.tile(np.hstack([outcomes, np.full((num_rows, 1), num_vars)]), (2, 1))
    data = np.ones(indices.shape)
    data[num_rows:] = -1.0
    data[:, width] = -1.0
    indptr = np.arange(2 * num_rows + 1) * (width + 1)
    a_ub = sparse.csr_array((data.ravel(), indices.ravel(), indptr), (2 * num_rows, num_vars + 1))
    b_ub = np.concatenate([targets, -targets])
    mass_row = np.hstack([np.ones((1, num_vars)), np.zeros((1, 1))])  # t has no mass
    cost = np.zeros(num_vars + 1)
    cost[-1] = 1.0
    result = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=mass_row, b_eq=np.array([1.0]),
        bounds=(0, None), method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": primal_tol},
    )
    if result.status != 0:
        raise SolverFailure(f"linear feasibility solve failed: {result.message}")
    return max(float(result.fun), 0.0), result.x[:num_vars]


def decide_feasibility(problem: JointFeasibilityProblem) -> FeasibilityResult:
    """Decide whether a single joint distribution matches all pair targets.

    Raises:
        ProblemTooLarge: n**T exceeds the desk-scale guard (10**6), or the
            outcome table's pairs x n**T entries exceed 2 x 10**6.
        SolverFailure: numerical breakdown, distinguishable from an
            infeasible verdict.
    """
    t, n = problem.num_observables, problem.num_outcomes
    size = n**t
    if size > MAX_PRODUCT_OUTCOMES:
        raise ProblemTooLarge(f"product sample space has {size} > {MAX_PRODUCT_OUTCOMES} points")
    entries = len(problem.pair_marginals) * size
    if entries > MAX_OUTCOME_ENTRIES:
        raise ProblemTooLarge(f"outcome table has {entries} > {MAX_OUTCOME_ENTRIES} entries")
    if not problem.pair_marginals:
        witness = np.full(size, 1.0 / size)
        return FeasibilityResult(feasible=True, witness=witness, max_violation=0.0)

    triple = n == 2 and t == 3 and len(problem.pair_marginals) == 3  # every pair of three
    keys = _TRIPLE_KEYS if triple else sorted(problem.pair_marginals)
    targets = np.concatenate([problem.pair_marginals[key].ravel() for key in keys])
    if triple:
        scores = _DUAL_FORMS.dot(targets)  # the BLAS product of @, with less dispatch
        scores += _DUAL_OFFSETS
        best = int(scores.argmax())
        violation = max(scores.item(best), 0.0)
        if violation > problem.tolerance:
            return FeasibilityResult(
                feasible=False, witness=None, max_violation=violation,
                certificate=_TRIPLE_DUALS[best],
            )
        witness = _triple_witness(targets)
        if _triple_witness_fits(witness.tolist(), targets.tolist(), 2 * problem.tolerance):
            return FeasibilityResult(feasible=True, witness=witness, max_violation=violation)
        # a near-boundary witness that misses: fall through to the solver

    outcomes = _pair_outcomes(t, n, keys)
    # HiGHS may bend a constraint by its own tolerance; keep that well
    # inside the re-check below, never looser than the HiGHS default.
    primal_tol = min(max(problem.tolerance / 10, _HIGHS_MIN_PRIMAL_TOL), _HIGHS_DEFAULT_PRIMAL_TOL)
    violation, x = linear_feasibility(outcomes, targets, primal_tol)
    if violation > problem.tolerance:
        return FeasibilityResult(feasible=False, witness=None, max_violation=violation)

    actual = _witness_gap(x, outcomes, targets)
    if actual > 2 * problem.tolerance:
        raise SolverFailure(
            f"solver reported residual {violation:g} but witness violates targets by {actual:g}"
        )
    return FeasibilityResult(feasible=True, witness=x, max_violation=violation)


def _witness_gap(witness: np.ndarray, outcomes: np.ndarray, rhs: np.ndarray) -> float:
    """The worst of a witness's row errors (its mass on each row of the
    outcome table less the target), its mass error and its negative entries."""
    gap = float(np.abs(witness[outcomes].sum(axis=1) - rhs).max())
    return max(gap, abs(float(witness.sum()) - 1.0), -float(witness.min()))


def _triple_witness(targets: np.ndarray) -> np.ndarray:
    """A joint distribution of three binary observables from its moments,
    given the 12 targets b in key order.  Each P(A_i = 1) averages the two
    tables carrying A_i, and p012 sits mid-way in the interval that keeps
    all eight entries non-negative: exact when the targets are marginals
    of some joint."""
    v0, v1, v2, v3, v4, v5, v6, v7 = (_WITNESS_FORMS.dot(targets) + _WITNESS_OFFSETS).tolist()
    # p is p012: p012 <= v[k] where it subtracts, >= -v[k] where it adds
    p = (min(v0, v3, v5, v6) - min(v1, v2, v4, v7)) / 2
    return np.array([v0 - p, v1 + p, v2 + p, v3 - p, v4 + p, v5 - p, v6 - p, v7 + p])


def _triple_witness_fits(w: list, b: list, limit: float) -> bool:
    """``_witness_gap(witness, _TRIPLE_OUTCOMES, b) <= limit`` on Python
    floats: 8 entries, 12 targets, the mass summed in numpy's pairwise order."""
    mass = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))
    rows = all(abs(w[i] + w[j] - target) <= limit for (i, j), target in zip(_TRIPLE_ROWS, b))
    return rows and abs(mass - 1.0) <= limit and -min(w) <= limit


def build_problem(
    matrices: list[TransitionMatrix] | tuple[TransitionMatrix, ...],
    observables: ObservableSet,
    tolerance: float = DEFAULT_FEASIBILITY_TOL,
) -> JointFeasibilityProblem:
    """Joint targets from transition matrices carrying priors.

    Each matrix contributes the pair joint J(i, j) = P(cond = i) *
    P(other = j | cond = i) for its pair, transposed when the pair runs
    against the observable order.  Each pair is given once: a source sums
    both logged orientations into one pair table, so it has one joint
    per pair, and the order of logging carries no evidence here.

    Raises:
        ValueError: a pair is given twice, in either orientation.
    """
    targets: dict[tuple[int, int], np.ndarray] = {}
    for matrix in matrices:
        a, b = matrix.pair
        ia, ib = observables.index_of(a), observables.index_of(b)
        key = (ia, ib) if ia < ib else (ib, ia)
        table = matrix.joint if ia < ib else matrix.joint.T
        if key in targets:
            raise ValueError(f"pair {matrix.pair} is given more than once")
        targets[key] = table
    return JointFeasibilityProblem(
        num_observables=len(observables),
        num_outcomes=2,
        pair_marginals=targets,
        tolerance=tolerance,
    )


def bistochastic_triple_problem(
    p: float, q: float, r: float, tolerance: float = DEFAULT_FEASIBILITY_TOL
) -> JointFeasibilityProblem:
    """The uniform-prior problem for symmetric parameters (p, q, r).

    Pair {A,B} carries p, {B,C} carries q, {C,A} carries r; with uniform
    priors each target is ``bistochastic_pair_table`` of its parameter.
    """
    ab, bc, ca = map(bistochastic_pair_table, (p, q, r))
    return JointFeasibilityProblem(
        num_observables=3,
        num_outcomes=2,
        pair_marginals={(0, 1): ab, (1, 2): bc, (0, 2): ca},
        tolerance=tolerance,
    )


def feasibility_from_dataset(
    source,
    ids: tuple[str, str, str],
    smoothing: float = 0.0,
    bistochastic_tol: float = DEFAULT_BISTOCHASTIC_TOL,
    tolerance: float = DEFAULT_FEASIBILITY_TOL,
) -> tuple[TripleParams, FeasibilityResult]:
    """End-to-end pipeline for one triple: estimate, check invariants, solve.

    Returns the triple parameters, which carry the closed-form verdict,
    and the feasibility result for the pair-joint targets implied by the
    data.
    """
    params, matrices = triple_params(source, ids, smoothing, bistochastic_tol)
    triple_set = source.observables.subset(ids)
    problem = build_problem(matrices, triple_set, tolerance)
    result = decide_feasibility(problem)
    return params, result
