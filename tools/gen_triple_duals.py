"""Enumerate the dual vertices of the binary-triple feasibility LP.

For three binary observables, ``contextuality.feasibility`` decides

    minimize t  subject to  |M x - b| <= t entrywise,  sum(x) = 1,  x >= 0,

where x is a distribution over the 8 joint outcomes (observable 0 most
significant), b holds the 12 target entries in key order (0,1), (0,2),
(1,2), each 2x2 table row-major, and M is the fixed 12 x 8 incidence
matrix.  By LP duality the optimum is the maximum of lambda . b + w over
the vertices (lambda, w) of

    D = {(lambda, w) : ||lambda||_1 <= 1,  M^T lambda + w <= 0},

which depend on M alone.  A vertex has 13 linearly independent tight
constraints.  Tight facets of the l1 ball only span the sign pattern of
lambda on its support S plus the coordinate axes off S, so ||lambda||_1 = 1
and the remaining |S| + 1 unknowns (lambda_S, w) are fixed up to scale by
|S| tight outcome rows.  The script therefore visits every support S
(1 <= |S| <= 8) and every set R of |S| outcome rows, keeps the solutions
whose null space is one-dimensional, normalizes them to ||lambda||_1 = 1
(both signs), and keeps the dual-feasible ones.  Each survivor is snapped
to exact fractions and re-verified in exact arithmetic: unit l1 norm, dual
feasibility, and 13 linearly independent tight constraints.

The vertex set is closed under the 48 relabelings of the triple (3!
observable orders times 2**3 outcome flips), so the output keeps one
representative per orbit, as integer rows scaled by the common
denominator.  Run from the repository root:

    python tools/gen_triple_duals.py > src/contextuality/triple_duals.py

Needs only the standard library and numpy; the output is deterministic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

PAIRS = ((0, 1), (0, 2), (1, 2))
OUTCOMES = tuple(itertools.product((0, 1), repeat=3))  # observable 0 most significant
ENTRIES = tuple((pair, i, j) for pair in PAIRS for i in (0, 1) for j in (0, 1))
RANK_EPS = 1e-9
FEASIBLE_EPS = 1e-9
MAX_DENOMINATOR = 10**4


def incidence() -> list[list[int]]:
    """M[e][k] = 1 when outcome k agrees with target entry e."""
    return [
        [int(o[a] == i and o[b] == j) for o in OUTCOMES] for (a, b), i, j in ENTRIES
    ]


def candidate_points(m: np.ndarray) -> set[tuple[float, ...]]:
    """Dual-feasible solutions of every (support, tight-row set) system, in floats."""
    found = set()
    for size in range(1, 9):
        supports = list(itertools.combinations(range(12), size))
        rows = list(itertools.combinations(range(8), size))
        systems = np.array(
            [[list(m[list(s), k]) + [1.0] for k in r] for s in supports for r in rows]
        )
        _, singular, vh = np.linalg.svd(systems)
        null = vh[:, -1, :]
        keep = singular[:, -1] > RANK_EPS
        for index in np.flatnonzero(keep):
            support = supports[index // len(rows)]
            direction = null[index] / np.abs(null[index, :-1]).sum()
            for sign in (1.0, -1.0):
                lam = np.zeros(12)
                lam[list(support)] = sign * direction[:-1]
                w = sign * direction[-1]
                if (m.T @ lam + w).max() <= FEASIBLE_EPS:
                    found.add(tuple(np.round(np.append(lam, w), 12)))
    return found


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def verify_vertex(point: tuple[Fraction, ...], m: list[list[int]]) -> None:
    """Raise unless ``point`` is exactly a vertex of D."""
    lam, w = point[:12], point[12]
    if sum(abs(x) for x in lam) != 1:
        raise ValueError(f"{point}: l1 norm is not 1")
    slacks = [sum(m[e][k] * lam[e] for e in range(12)) + w for k in range(8)]
    if max(slacks) > 0:
        raise ValueError(f"{point}: not dual feasible")
    # tight l1 facets span sign(lambda) on the support and the axes off it
    tight = [[Fraction((x > 0) - (x < 0)) for x in lam] + [Fraction(0)]]
    tight += [[Fraction(int(e == f)) for f in range(13)] for e in range(12) if lam[e] == 0]
    tight += [[Fraction(m[e][k]) for e in range(12)] + [Fraction(1)]
              for k in range(8) if slacks[k] == 0]
    if exact_rank(tight) != 13:
        raise ValueError(f"{point}: fewer than 13 independent tight constraints")


def relabelings() -> list[tuple[int, ...]]:
    """The 48 relabelings as permutations of the 12 entries: entry e moves to perm[e]."""
    perms = []
    for order in itertools.permutations(range(3)):
        for flips in itertools.product((0, 1), repeat=3):
            perm = []
            for (a, b), i, j in ENTRIES:
                na, nb, ni, nj = order[a], order[b], i ^ flips[a], j ^ flips[b]
                if na > nb:
                    na, nb, ni, nj = nb, na, nj, ni
                perm.append(ENTRIES.index(((na, nb), ni, nj)))
            perms.append(tuple(perm))
    return perms


def orbit(row: tuple[int, ...], perms) -> set[tuple[int, ...]]:
    images = set()
    for perm in perms:
        lam = [0] * 12
        for e, target in enumerate(perm):
            lam[target] = row[e]
        images.add(tuple(lam) + (row[12],))
    return images


def main() -> None:
    m = incidence()
    points = set()
    for approx in candidate_points(np.array(m, dtype=float)):
        point = tuple(Fraction(x).limit_denominator(MAX_DENOMINATOR) for x in approx)
        verify_vertex(point, m)
        points.add(point)
    scale = math.lcm(*(x.denominator for point in points for x in point))
    rows = {tuple(int(x * scale) for x in point) for point in points}
    perms = relabelings()
    representatives, covered = [], set()
    for row in sorted(rows):
        if row not in covered:
            images = orbit(row, perms)
            if not images <= rows:
                raise ValueError(f"{row}: vertex set not closed under relabeling")
            covered |= images
            representatives.append(row)

    print('"""Dual vertices of the binary-triple feasibility LP, one per relabeling orbit.')
    print()
    print("Generated by tools/gen_triple_duals.py; do not edit.  Each row is")
    print("(lambda_1..lambda_12, w) times SCALE, with lambda indexed by the target")
    print("entries in key order (0,1), (0,2), (1,2), each table row-major.")
    print('"""')
    print()
    print(f"SCALE = {scale}")
    print(f"VERTEX_COUNT = {len(rows)}")
    print()
    print("ORBITS = (")
    for row in representatives:
        print(f"    {row},")
    print(")")


if __name__ == "__main__":
    main()
