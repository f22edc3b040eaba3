"""Independent feasibility oracle for cross-checking the production solver.

A dense phase-one simplex with Bland's rule, written from scratch on
plain numpy arrays: decides whether {x >= 0 : A x = b} is non-empty by
minimizing the total artificial mass.  Deliberately shares no code with
the package's solver path.
"""

from __future__ import annotations

import numpy as np

PIVOT_EPS = 1e-11


def phase_one_feasible(A, b, tol=1e-7):
    """Decide feasibility of A x = b, x >= 0.

    Returns (feasible, artificial_mass, x).  ``artificial_mass`` is the
    optimal total of the artificial variables: 0 (within tol) exactly
    when the system is feasible.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # tableau: columns = [x | artificials | rhs]; bottom row = reduced costs, rhs = -objective
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    for _ in range(100000):
        enter = -1
        for j in range(n + m):
            if T[m, j] < -PIVOT_EPS:
                enter = j
                break
        if enter == -1:
            break
        leave = -1
        best_ratio = None
        for i in range(m):
            coef = T[i, enter]
            if coef > PIVOT_EPS:
                ratio = T[i, -1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave == -1:
            raise RuntimeError("phase-one objective unbounded; cannot happen")
        pivot = T[leave, enter]
        T[leave] /= pivot
        for r in range(m + 1):
            if r != leave and T[r, enter] != 0.0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
    else:
        raise RuntimeError("simplex iteration limit hit")

    mass = -T[m, -1]
    x = np.zeros(n + m)
    for i, bv in enumerate(basis):
        x[bv] = T[i, -1]
    return mass <= tol, float(mass), x[:n]


def pair_constraint_rows(num_observables, num_outcomes, pair_tables):
    """Equality system (rows, rhs) for pair-marginal targets plus unit mass.

    ``pair_tables`` maps (a, b) with a < b to an n x n target table.
    Columns enumerate product outcomes with observable 0 most significant.
    """
    t, n = num_observables, num_outcomes
    size = n**t
    digits = [(np.arange(size) // n ** (t - 1 - k)) % n for k in range(t)]
    rows, rhs = [], []
    for (a, b), table in sorted(pair_tables.items()):
        table = np.asarray(table, dtype=float)
        for i in range(n):
            for j in range(n):
                rows.append(((digits[a] == i) & (digits[b] == j)).astype(float))
                rhs.append(table[i, j])
    rows.append(np.ones(size))
    rhs.append(1.0)
    return np.array(rows), np.array(rhs)


def oracle_decide(problem) -> bool:
    """Feasibility verdict for a JointFeasibilityProblem, simplex route."""
    rows, rhs = pair_constraint_rows(
        problem.num_observables, problem.num_outcomes, problem.pair_marginals
    )
    feasible, _, _ = phase_one_feasible(rows, rhs)
    return feasible


def pair_marginal(witness, num_observables, num_outcomes, pair):
    """Marginal table of a product-space distribution for one index pair."""
    a, b = pair
    cube = np.asarray(witness).reshape((num_outcomes,) * num_observables)
    axes = tuple(ax for ax in range(num_observables) if ax not in (a, b))
    table = cube.sum(axis=axes)
    return table if a < b else table.T


def witness_gap(witness, rows, rhs):
    """The worst of a witness's errors on dense rows, its mass error and
    its negative entries."""
    errors = np.abs(np.asarray(rows) @ witness - rhs)
    return max(float(errors.max()), abs(float(witness.sum()) - 1.0), -float(witness.min()))


TRIPLE_KEYS = ((0, 1), (0, 2), (1, 2))


def triple_rows(problem):
    """Incidence matrix M (12 x 8) and targets b of a binary triple, rows
    in key order (0,1), (0,2), (1,2), each table row-major."""
    tables = {key: problem.pair_marginals[key] for key in TRIPLE_KEYS}
    rows, rhs = pair_constraint_rows(3, 2, tables)
    return rows[:12], rhs[:12]


def check_triple_certificate(problem, result, atol=1e-12):
    """Check that an infeasible binary-triple verdict proves its residual.

    The certificate (lambda_1..lambda_12, w) must be dual feasible,
    sum(|lambda|) <= 1 and M^T lambda + w <= 0, so that lambda . b + w is a
    lower bound on max |M x - b| over every distribution x; and that bound
    must equal ``max_violation``.
    """
    m, b = triple_rows(problem)
    certificate = np.asarray(result.certificate, dtype=float)
    assert certificate.shape == (13,)
    lam, w = certificate[:12], certificate[12]
    assert np.abs(lam).sum() <= 1.0 + atol
    assert (m.T @ lam + w).max() <= atol
    assert abs(lam @ b + w - result.max_violation) <= atol


# The binary-triple branch of ``decide_feasibility`` as it read before the
# witness re-check moved to Python floats: the strided dual product, the
# closed-form witness on numpy arrays and the numpy re-check.  Kept
# verbatim as the bit-level reference for the package's branch; it reads
# the package's constant tables, which are data, not code.
_P012_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0])


def reference_witness_gap(witness, outcomes, rhs):
    gap = float(np.abs(witness[outcomes].sum(axis=1) - rhs).max())
    return max(gap, abs(float(witness.sum()) - 1.0), -float(witness.min()))


def reference_triple_witness(targets):
    from contextuality import feasibility

    base = feasibility._WITNESS_FORMS @ targets + feasibility._WITNESS_OFFSETS
    v = base.tolist()  # p012 <= v[k] where it subtracts, >= -v[k] where it adds
    p012 = (min(v[0], v[3], v[5], v[6]) - min(v[1], v[2], v[4], v[7])) / 2
    return base + _P012_SIGNS * p012


def reference_triple_branch(problem):
    """(feasible, witness, max_violation, certificate) of a binary triple,
    or None where the closed-form witness fails its re-check and the
    package goes on to HiGHS."""
    from contextuality import feasibility

    duals = feasibility._TRIPLE_DUALS
    keys = sorted(problem.pair_marginals)
    targets = np.concatenate([problem.pair_marginals[key].reshape(-1) for key in keys])
    scores = duals[:, :12] @ targets + duals[:, 12]
    best = int(scores.argmax())
    violation = max(float(scores[best]), 0.0)
    if violation > problem.tolerance:
        return False, None, violation, duals[best]
    witness = reference_triple_witness(targets)
    gap = reference_witness_gap(witness, feasibility._TRIPLE_OUTCOMES, targets)
    if gap <= 2 * problem.tolerance:
        return True, witness, violation, None
    return None
