"""Exact single-sample-space decision by linear feasibility.

Given target joint tables for pairs of observables, the question is
whether a non-negative probability vector over the full product sample
space (n outcomes per observable, n**T points) reproduces every pair
marginal.  This is decided by a phase-one style solve that minimizes the
largest entrywise deviation t:

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
feasible one gets a closed-form witness, which is re-checked like a
solver witness and handed to HiGHS if it fails.  Every other problem is
solved by HiGHS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import triple_duals
from .accardi import (
    DEFAULT_BISTOCHASTIC_TOL,
    AccardiVerdict,
    TripleParams,
    accardi_check,
    triple_params,
)
from .errors import InconsistentOrientations, ProblemTooLarge, SolverFailure
from .datasets import frozen_array
from .observables import ObservableSet
from .transitions import TransitionMatrix, check_tolerance

DEFAULT_FEASIBILITY_TOL = 1e-8
MAX_PRODUCT_OUTCOMES = 10**6
_HIGHS_DEFAULT_PRIMAL_TOL = 1e-7  # HiGHS's primal feasibility tolerance
_HIGHS_MIN_PRIMAL_TOL = 1e-10  # the smallest value HiGHS accepts
_TRIPLE_KEYS = ((0, 1), (0, 2), (1, 2))


def _expand_orbits(orbits) -> np.ndarray:
    """Every image of the orbit representatives under the 48 relabelings of
    a binary triple (observable orders times outcome flips), sorted."""
    entries = [(key, i, j) for key in _TRIPLE_KEYS for i in (0, 1) for j in (0, 1)]
    rows = np.array(orbits)
    images = []
    for order in itertools.permutations(range(3)):
        for flips in itertools.product((0, 1), repeat=3):
            target = []
            for (a, b), i, j in entries:
                na, nb, ni, nj = order[a], order[b], i ^ flips[a], j ^ flips[b]
                if na > nb:
                    na, nb, ni, nj = nb, na, nj, ni
                target.append(entries.index(((na, nb), ni, nj)))
            image = rows.copy()
            image[:, target] = rows[:, :12]
            images.append(image)
    return np.unique(np.concatenate(images), axis=0)


# Dual vertices (lambda_1..lambda_12, w) of the binary-triple LP, exact as
# integers over triple_duals.SCALE.
TRIPLE_DUAL_VERTICES = frozen_array(_expand_orbits(triple_duals.ORBITS), np.int64)
_TRIPLE_DUALS = frozen_array(TRIPLE_DUAL_VERTICES / triple_duals.SCALE, np.float64)


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


def linear_feasibility(
    soft_rows: np.ndarray | sparse.sparray, soft_rhs: np.ndarray,
    primal_tol: float = _HIGHS_DEFAULT_PRIMAL_TOL,
) -> tuple[float, np.ndarray]:
    """The marginal problem's LP: minimize the largest soft-row deviation.

    Solves min t over x >= 0, t >= 0 with |soft_rows @ x - soft_rhs| <= t
    and the total-mass row sum(x) = 1, built here, held exactly.
    ``soft_rows`` may be dense or scipy sparse; either way the solver
    receives one sparse constraint matrix.  Returns (optimal t, x); the
    solver may violate any constraint of x by up to ``primal_tol``.

    Raises:
        SolverFailure: numerical breakdown; this program is feasible and
            bounded by construction, so any solver failure is numerical.
    """
    soft_rhs = np.asarray(soft_rhs, dtype=np.float64)
    soft = sparse.coo_array(soft_rows, dtype=np.float64)
    num_rows, num_vars = soft.shape
    # rows [soft_rows, -1] then [-soft_rows, -1]; the last column is t
    rows = np.concatenate([soft.row, soft.row + num_rows, np.arange(2 * num_rows)])
    cols = np.concatenate([soft.col, soft.col, np.full(2 * num_rows, num_vars)])
    vals = np.concatenate([soft.data, -soft.data, np.full(2 * num_rows, -1.0)])
    a_ub = sparse.csr_array((vals, (rows, cols)), shape=(2 * num_rows, num_vars + 1))
    b_ub = np.concatenate([soft_rhs, -soft_rhs])
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


def pair_marginal(
    witness: np.ndarray, num_observables: int, num_outcomes: int, pair: tuple[int, int]
) -> np.ndarray:
    """Marginal table of a product-space distribution for one index pair."""
    a, b = pair
    cube = np.asarray(witness).reshape((num_outcomes,) * num_observables)
    axes = tuple(ax for ax in range(num_observables) if ax not in (a, b))
    table = cube.sum(axis=axes)
    return table if a < b else table.T


def decide_feasibility(problem: JointFeasibilityProblem) -> FeasibilityResult:
    """Decide whether a single joint distribution matches all pair targets.

    Raises:
        ProblemTooLarge: n**T exceeds the desk-scale guard (10**6).
        SolverFailure: numerical breakdown, distinguishable from an
            infeasible verdict.
    """
    t, n = problem.num_observables, problem.num_outcomes
    size = n**t
    if size > MAX_PRODUCT_OUTCOMES:
        raise ProblemTooLarge(f"product sample space has {size} > {MAX_PRODUCT_OUTCOMES} points")
    if not problem.pair_marginals:
        witness = np.full(size, 1.0 / size)
        return FeasibilityResult(feasible=True, witness=witness, max_violation=0.0)

    if n == 2 and t == 3 and len(problem.pair_marginals) == 3:
        targets = np.concatenate([problem.pair_marginals[key].reshape(-1) for key in _TRIPLE_KEYS])
        scores = _TRIPLE_DUALS[:, :12] @ targets + _TRIPLE_DUALS[:, 12]
        best = int(np.argmax(scores))
        violation = max(float(scores[best]), 0.0)
        if violation > problem.tolerance:
            return FeasibilityResult(
                feasible=False, witness=None, max_violation=violation,
                certificate=_TRIPLE_DUALS[best],
            )
        witness = _triple_witness(problem.pair_marginals)
        if _witness_gap(witness, problem) <= 2 * problem.tolerance:
            return FeasibilityResult(feasible=True, witness=witness, max_violation=violation)
        # a near-boundary witness that misses: fall through to the solver

    # Row (a, b, i, j) selects the product outcomes with A_a = i and A_b = j.
    flat = np.arange(size).reshape((n,) * t)
    keys = sorted(problem.pair_marginals)
    columns = np.concatenate([np.moveaxis(flat, key, (0, 1)).reshape(n * n, -1) for key in keys])
    soft_rhs = np.concatenate([problem.pair_marginals[key].reshape(-1) for key in keys])
    num_rows, per_row = columns.shape
    indptr = np.arange(num_rows + 1) * per_row
    soft_rows = sparse.csr_array(
        (np.ones(columns.size), columns.ravel(), indptr), shape=(num_rows, size)
    )

    # HiGHS may bend a constraint by its own tolerance; keep that well
    # inside the re-check below, never looser than the HiGHS default.
    primal_tol = min(max(problem.tolerance / 10, _HIGHS_MIN_PRIMAL_TOL), _HIGHS_DEFAULT_PRIMAL_TOL)
    violation, x = linear_feasibility(soft_rows, soft_rhs, primal_tol)
    if violation > problem.tolerance:
        return FeasibilityResult(feasible=False, witness=None, max_violation=violation)

    # Independent recheck of the returned witness before certifying.
    actual = _witness_gap(x, problem)
    if actual > 2 * problem.tolerance:
        raise SolverFailure(
            f"solver reported residual {violation:g} but witness violates targets by {actual:g}"
        )
    return FeasibilityResult(feasible=True, witness=x, max_violation=violation)


def _witness_gap(witness: np.ndarray, problem: JointFeasibilityProblem) -> float:
    """How far a witness is from a probability vector reproducing every
    target: its worst marginal error, mass error or negative entry."""
    t, n = problem.num_observables, problem.num_outcomes
    gap = max(
        float(np.abs(pair_marginal(witness, t, n, key) - table).max())
        for key, table in problem.pair_marginals.items()
    )
    return max(gap, abs(float(witness.sum()) - 1.0), -float(witness.min()))


def _triple_witness(tables: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """A joint distribution of three binary observables from its moments.

    P(A_i = 1) is the mean of the two tables carrying observable i, the
    pair moments are read from the tables, and the triple moment sits at
    the midpoint of the interval that keeps all eight entries
    non-negative.  Exact when the targets are marginals of some joint.
    """
    t01, t02, t12 = (tables[key] for key in _TRIPLE_KEYS)
    p0 = (t01[1].sum() + t02[1].sum()) / 2
    p1 = (t01[:, 1].sum() + t12[1].sum()) / 2
    p2 = (t02[:, 1].sum() + t12[:, 1].sum()) / 2
    p01, p02, p12 = t01[1, 1], t02[1, 1], t12[1, 1]
    rest = 1 - p0 - p1 - p2 + p01 + p02 + p12  # P(0, 0, 0) + p012
    low = max(0.0, p01 + p02 - p0, p01 + p12 - p1, p02 + p12 - p2)
    high = min(p01, p02, p12, rest)
    p012 = (low + high) / 2
    return np.array([
        rest - p012,  # (0, 0, 0)
        p2 - p02 - p12 + p012,  # (0, 0, 1)
        p1 - p01 - p12 + p012,  # (0, 1, 0)
        p12 - p012,  # (0, 1, 1)
        p0 - p01 - p02 + p012,  # (1, 0, 0)
        p02 - p012,  # (1, 0, 1)
        p01 - p012,  # (1, 1, 0)
        p012,  # (1, 1, 1)
    ])


def build_problem(
    matrices: list[TransitionMatrix] | tuple[TransitionMatrix, ...],
    observables: ObservableSet,
    tolerance: float = DEFAULT_FEASIBILITY_TOL,
) -> JointFeasibilityProblem:
    """Joint targets from transition matrices carrying priors.

    Each matrix contributes the pair joint J(i, j) = P(cond = i) *
    P(other = j | cond = i) for its pair.  When both orientations of one
    pair are supplied their implied joints must agree within tolerance,
    and the first-listed is kept.  This is the package's one comparison
    of two orientations: those of a single source agree exactly, as its
    pair statistics hold table[b, a] = table[a, b].T.

    Raises:
        InconsistentOrientations: the two orientations disagree beyond
            tolerance; reported rather than averaged.
    """
    targets: dict[tuple[int, int], np.ndarray] = {}
    first_seen: dict[tuple[int, int], tuple[str, str]] = {}
    for matrix in matrices:
        a, b = matrix.pair
        ia, ib = observables.index_of(a), observables.index_of(b)
        key = (ia, ib) if ia < ib else (ib, ia)
        table = matrix.joint if ia < ib else matrix.joint.T
        if key in targets:
            gap = float(np.abs(targets[key] - table).max())
            if gap > tolerance:
                raise InconsistentOrientations(
                    f"orientations {first_seen[key]} and {matrix.pair} imply joint "
                    f"tables differing by {gap:g} (> {tolerance:g})"
                )
            continue  # keep the first-listed orientation
        targets[key] = table
        first_seen[key] = matrix.pair
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
    priors each target is the symmetric table
    [[s/2, (1-s)/2], [(1-s)/2, s/2]].
    """

    def table(s: float) -> np.ndarray:
        return np.array([[s / 2.0, (1.0 - s) / 2.0], [(1.0 - s) / 2.0, s / 2.0]])

    return JointFeasibilityProblem(
        num_observables=3,
        num_outcomes=2,
        pair_marginals={(0, 1): table(p), (1, 2): table(q), (0, 2): table(r)},
        tolerance=tolerance,
    )


def feasibility_from_dataset(
    source,
    ids: tuple[str, str, str],
    smoothing: float = 0.0,
    bistochastic_tol: float = DEFAULT_BISTOCHASTIC_TOL,
    tolerance: float = DEFAULT_FEASIBILITY_TOL,
) -> tuple[TripleParams, AccardiVerdict, FeasibilityResult]:
    """End-to-end pipeline for one triple: estimate, check invariants, solve.

    Returns the triple parameters, the closed-form verdict, and the
    feasibility result for the pair-joint targets implied by the data.
    """
    params, matrices = triple_params(source, ids, smoothing, bistochastic_tol)
    verdict = accardi_check(params)
    triple_set = source.observables.subset(ids)
    problem = build_problem(matrices, triple_set, tolerance)
    result = decide_feasibility(problem)
    return params, verdict, result
