"""The binary-triple dual-vertex table and the solver-free decision it drives.

Binary triples are decided from a fixed table of dual vertices instead of
one HiGHS solve each.  These tests check the table in exact arithmetic,
compare its verdicts and residuals with HiGHS on rows assembled here, and
check the certificate of every infeasible verdict independently.
"""

import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality import (
    JointFeasibilityProblem,
    SamplingPlan,
    analyze,
    bistochastic_triple_problem,
    decide_feasibility,
)
from contextuality import feasibility, triple_duals
from contextuality.generators import gen_quantum

from oracles import (
    TRIPLE_KEYS, check_triple_certificate, pair_constraint_rows, pair_marginal,
    reference_triple_branch, triple_rows, witness_gap,
)

TOL = 1e-8
OUTCOMES = list(itertools.product((0, 1), repeat=3))  # observable 0 most significant
KINDS = ("independent", "noisy", "symmetric", "sparse")
PARITY = np.array([(-1.0) ** sum(o) for o in OUTCOMES])  # every pair marginal of it is 0


def incidence() -> np.ndarray:
    rows, _ = pair_constraint_rows(3, 2, {key: np.zeros((2, 2)) for key in TRIPLE_KEYS})
    return rows[:12].astype(int)


def exact_rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_vertices() -> list[tuple[list[Fraction], Fraction]]:
    scale = triple_duals.SCALE
    return [
        ([Fraction(int(x), scale) for x in row[:12]], Fraction(int(row[12]), scale))
        for row in feasibility.TRIPLE_DUAL_VERTICES
    ]


def outcome_relabelings() -> list[list[int]]:
    """The 48 relabelings, built on outcomes: entry e moves to perm[e] when
    its event (the outcome set of row e of M) maps onto that of perm[e]."""
    m = incidence()
    event_of = {frozenset(np.flatnonzero(m[e])): e for e in range(12)}
    perms = []
    for order in itertools.permutations(range(3)):
        for flips in itertools.product((0, 1), repeat=3):
            moved = []
            for o in OUTCOMES:
                image = [0, 0, 0]
                for a in range(3):
                    image[order[a]] = o[a] ^ flips[a]
                moved.append(OUTCOMES.index(tuple(image)))
            perms.append([
                event_of[frozenset(moved[k] for k in np.flatnonzero(m[e]))] for e in range(12)
            ])
    return perms


class TestTable:
    def test_size_matches_the_generator(self):
        rows = feasibility.TRIPLE_DUAL_VERTICES
        assert rows.shape == (triple_duals.VERTEX_COUNT, 13)
        assert len({tuple(row) for row in rows.tolist()}) == triple_duals.VERTEX_COUNT
        assert len(triple_duals.ORBITS) == 41

    def test_every_row_is_dual_feasible(self):
        m = incidence()
        for lam, w in exact_vertices():
            assert sum(abs(x) for x in lam) <= 1
            for k in range(8):
                assert sum(lam[e] for e in range(12) if m[e, k]) + w <= 0

    def test_every_row_is_a_vertex(self):
        m = incidence()
        for lam, w in exact_vertices():
            assert sum(abs(x) for x in lam) == 1  # else no l1 facet is tight
            # the tight facets of the l1 ball span sign(lambda) and the axes off its support
            tight = [[(x > 0) - (x < 0) for x in lam] + [0]]
            tight += [[int(f == e) for f in range(13)] for e in range(12) if lam[e] == 0]
            tight += [
                list(m[:, k]) + [1]
                for k in range(8)
                if sum(lam[e] for e in range(12) if m[e, k]) + w == 0
            ]
            assert exact_rank(tight) == 13

    def test_closed_under_all_48_relabelings(self):
        perms = outcome_relabelings()
        assert len({tuple(perm) for perm in perms}) == 48
        rows = {tuple(row) for row in feasibility.TRIPLE_DUAL_VERTICES.tolist()}
        for row in rows:
            for perm in perms:
                image = [0] * 12
                for e, target in enumerate(perm):
                    image[target] = row[e]
                assert tuple(image) + (row[12],) in rows


def random_tables(rng, kind: str) -> dict:
    if kind == "independent":  # three unrelated tables: inconsistent marginals
        return {key: rng.dirichlet(np.ones(4)).reshape(2, 2) for key in TRIPLE_KEYS}
    if kind == "noisy":  # each pair sampled separately from one joint
        joint = rng.dirichlet(np.ones(8))
        tables = {}
        for key in TRIPLE_KEYS:
            shots = int(rng.integers(20, 2000))
            counts = rng.multinomial(shots, pair_marginal(joint, 3, 2, key).ravel())
            tables[key] = (counts / shots).reshape(2, 2)
        return tables
    if kind == "symmetric":
        return bistochastic_triple_problem(*rng.random(3)).pair_marginals
    if kind == "sparse":  # a joint on 1-4 outcomes: a face of the polytope
        joint = np.zeros(8)
        support = rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
        joint[support] = rng.dirichlet(np.ones(len(support)))
        return {key: pair_marginal(joint, 3, 2, key) for key in TRIPLE_KEYS}
    raise ValueError(kind)


def compare_with_highs(job) -> dict:
    """Decide ``count`` seeded problems of one kind both ways; return the
    tallies and the worst residual gap."""
    kind, seed, count = job
    rng = np.random.default_rng(seed)
    tally = {"kind": kind, "checked": 0, "infeasible": 0, "disagree": 0, "worst_gap": 0.0}
    for _ in range(count):
        problem = JointFeasibilityProblem(3, 2, random_tables(rng, kind), tolerance=TOL)
        result = decide_feasibility(problem)
        m, b = triple_rows(problem)
        violation, _ = feasibility.linear_feasibility(feasibility._TRIPLE_OUTCOMES, b, 1e-10)
        tally["checked"] += 1
        tally["infeasible"] += not result.feasible
        tally["disagree"] += result.feasible != (violation <= TOL)
        tally["worst_gap"] = max(tally["worst_gap"], abs(result.max_violation - violation))
        if result.feasible:
            assert witness_gap(result.witness, m, b) <= 2 * TOL
        else:
            check_triple_certificate(problem, result)
    return tally


def moment_witness(tables) -> np.ndarray:
    """The closed-form witness in scalar arithmetic, the reference for the
    fixed-matrix ``_triple_witness``."""
    t01, t02, t12 = (tables[key] for key in TRIPLE_KEYS)
    p0 = (t01[1].sum() + t02[1].sum()) / 2
    p1 = (t01[:, 1].sum() + t12[1].sum()) / 2
    p2 = (t02[:, 1].sum() + t12[:, 1].sum()) / 2
    p01, p02, p12 = t01[1, 1], t02[1, 1], t12[1, 1]
    rest = 1 - p0 - p1 - p2 + p01 + p02 + p12  # P(0, 0, 0) + p012
    low = max(0.0, p01 + p02 - p0, p01 + p12 - p1, p02 + p12 - p2)
    high = min(p01, p02, p12, rest)
    p012 = (low + high) / 2
    return np.array([
        rest - p012, p2 - p02 - p12 + p012, p1 - p01 - p12 + p012, p12 - p012,
        p0 - p01 - p02 + p012, p02 - p012, p01 - p012, p012,
    ])


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([0.0, 1e-10]),
)
def test_triple_kernel_is_the_dual_argmax_and_the_closed_form(kind, seed, jitter):
    """``jitter`` makes the tables disagree on the singles by far less than
    the tolerance, where the closed form's averaging shows."""
    rng = np.random.default_rng(seed)
    tables = {
        key: np.clip(table + jitter * rng.standard_normal((2, 2)), 0.0, None)
        for key, table in random_tables(rng, kind).items()
    }
    tables = {key: table / table.sum() for key, table in tables.items()}
    problem = JointFeasibilityProblem(3, 2, tables, tolerance=TOL)
    result = decide_feasibility(problem)
    b = np.concatenate([problem.pair_marginals[key].reshape(-1) for key in TRIPLE_KEYS])
    scores = feasibility._TRIPLE_DUALS[:, :12] @ b + feasibility._TRIPLE_DUALS[:, 12]
    best = int(np.argmax(scores))
    violation = max(float(scores[best]), 0.0)
    assert result.max_violation.hex() == violation.hex()
    assert result.feasible == (violation <= TOL)
    if result.feasible:
        assert result.certificate is None
        assert np.abs(result.witness - moment_witness(problem.pair_marginals)).max() <= 1e-15
    else:
        assert np.array_equal(result.certificate, feasibility._TRIPLE_DUALS[best])


def test_agrees_with_highs_on_10k_random_triples():
    kinds = ("independent", "noisy", "symmetric", "sparse")
    jobs = [(kind, 100 * k + part, 625) for k, kind in enumerate(kinds) for part in range(4)]
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            tallies = list(pool.map(compare_with_highs, jobs))
    except (OSError, RuntimeError):  # no worker processes available: run serially
        tallies = [compare_with_highs(job) for job in jobs]
    assert sum(t["checked"] for t in tallies) == 10_000
    assert sum(t["disagree"] for t in tallies) == 0
    assert max(t["worst_gap"] for t in tallies) <= 1e-9
    infeasible = {
        kind: sum(t["infeasible"] for t in tallies if t["kind"] == kind) for kind in kinds
    }
    assert infeasible["sparse"] == 0  # exact marginals of a joint
    assert infeasible["independent"] > 0 and infeasible["noisy"] > 0
    assert 0 < infeasible["symmetric"] < 2500  # both sides of the Accardi bound


class TestCertificates:
    def test_c6_style_violations_carry_valid_certificates(self):
        rng = np.random.default_rng(2024)
        produced = 0
        while produced < 1000:
            p, q, r = rng.random(3)
            if min(r - abs(p + q - 1.0), 1.0 - abs(p - q) - r) >= -1e-4:
                continue
            problem = bistochastic_triple_problem(p, q, r, TOL)
            result = decide_feasibility(problem)
            assert not result.feasible
            check_triple_certificate(problem, result)
            produced += 1

    @pytest.fixture(scope="class")
    def pairlog(self):
        angles = tuple(float(a) for a in range(0, 180, 20))  # T = 9, 84 triples
        return gen_quantum(angles_deg=angles, shots=400, seed=5).dataset

    def test_exhaustive_pers_certificates(self, pairlog, monkeypatch):
        decided = []
        original = feasibility.decide_feasibility

        def recording(problem):
            result = original(problem)
            decided.append((problem, result))
            return result

        monkeypatch.setattr(feasibility, "decide_feasibility", recording)
        report = analyze(pairlog, SamplingPlan(mode="exhaustive"))
        assert len(decided) == len(report.triples) == 84
        infeasible = [(p, r) for p, r in decided if not r.feasible]
        assert infeasible
        for problem, result in infeasible:
            check_triple_certificate(problem, result)

    def test_exhaustive_pers_makes_no_solver_calls(self, pairlog, monkeypatch):
        calls = []
        original = feasibility.linprog

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(feasibility, "linprog", spy)
        analyze(pairlog, SamplingPlan(mode="exhaustive"))
        assert calls == []
        # the spy does see the solver on a problem outside the table
        rng = np.random.default_rng(3)
        joint = rng.dirichlet(np.ones(16))
        tables = {key: pair_marginal(joint, 4, 2, key) for key in TRIPLE_KEYS}
        result = decide_feasibility(JointFeasibilityProblem(4, 2, tables))
        assert result.feasible and result.certificate is None
        assert len(calls) == 1

    def test_witness_that_fails_the_recheck_falls_back_to_highs(self, monkeypatch):
        rng = np.random.default_rng(6)
        joint = rng.dirichlet(np.ones(8))
        tables = {key: pair_marginal(joint, 3, 2, key) for key in TRIPLE_KEYS}
        problem = JointFeasibilityProblem(3, 2, tables, tolerance=TOL)
        calls = []
        original = feasibility.linprog

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(feasibility, "linprog", spy)
        monkeypatch.setattr(feasibility, "_triple_witness", lambda targets: np.full(8, 0.125))
        result = decide_feasibility(problem)
        assert len(calls) == 1
        assert result.feasible and result.certificate is None
        assert not np.allclose(result.witness, 0.125)
        assert witness_gap(result.witness, *triple_rows(problem)) <= 2 * TOL

    @pytest.mark.parametrize("defect", ["negative entry", "mass"])
    def test_witness_with_a_defect_falls_back_to_highs(self, monkeypatch, defect):
        rng = np.random.default_rng(8)
        joint = rng.dirichlet(np.ones(8))
        tables = {key: pair_marginal(joint, 3, 2, key) for key in TRIPLE_KEYS}
        problem = JointFeasibilityProblem(3, 2, tables, tolerance=TOL)
        if defect == "negative entry":  # every pair marginal and the mass stay exact
            witness = joint - (joint[PARITY > 0].min() + 1e-6) * PARITY
            assert witness.min() == pytest.approx(-1e-6, abs=1e-15)
        else:
            witness = joint.copy()
            witness[0] += 1e-6
            assert witness.min() > 0
        calls = []
        original = feasibility.linprog

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(feasibility, "linprog", spy)
        monkeypatch.setattr(feasibility, "_triple_witness", lambda targets: witness)
        result = decide_feasibility(problem)
        assert len(calls) == 1
        assert result.feasible and result.certificate is None
        assert witness_gap(result.witness, *triple_rows(problem)) <= 2 * TOL
        assert result.witness.min() >= -2 * TOL

    def test_solver_verdicts_carry_no_certificate(self):
        t01 = np.array([[0.5, 0.0], [0.0, 0.5]])
        t02 = np.array([[0.0, 0.5], [0.5, 0.0]])
        result = decide_feasibility(JointFeasibilityProblem(3, 2, {(0, 1): t01, (0, 2): t02}))
        assert result.feasible and result.certificate is None
        trine = bistochastic_triple_problem(0.25, 0.25, 0.25).pair_marginals
        result = decide_feasibility(JointFeasibilityProblem(4, 2, trine))
        assert not result.feasible and result.certificate is None
        assert result.max_violation == pytest.approx(1.0 / 24.0, abs=1e-9)


def test_closed_form_witness_is_exact_for_joint_marginals():
    rng = np.random.default_rng(7)
    for _ in range(200):
        joint = rng.dirichlet(np.ones(8))
        tables = {key: pair_marginal(joint, 3, 2, key) for key in TRIPLE_KEYS}
        targets = np.concatenate([tables[key].reshape(-1) for key in TRIPLE_KEYS])
        witness = feasibility._triple_witness(targets)
        for key, table in tables.items():
            assert np.abs(pair_marginal(witness, 3, 2, key) - table).max() <= 1e-15
        assert witness.min() >= 0.0
        assert witness.sum() == pytest.approx(1.0, abs=1e-15)


FALL_THROUGH_SEED = 107  # a "near face" seed whose closed-form witness misses its re-check


def near_boundary_tables(rng, kind: str) -> dict:
    """Tables within a few tolerances of the polytope's boundary, on either
    side.  ``near facet``: symmetric tables with r near a facet of the
    Accardi system, |p + q - 1| or 1 - |p - q|.  ``near face``: the
    marginals of a joint on a face, each entry moved by about TOL, where
    the closed-form witness can miss its re-check."""
    if kind == "near face":
        return {
            key: np.clip(table + TOL * rng.standard_normal((2, 2)), 0.0, None)
            for key, table in random_tables(rng, "sparse").items()
        }
    p, q = rng.random(2)
    facet = abs(p + q - 1.0) if rng.random() < 0.5 else 1.0 - abs(p - q)
    r = float(np.clip(facet + rng.uniform(-30.0, 30.0) * TOL, 0.0, 1.0))
    return bistochastic_triple_problem(p, q, r).pair_marginals


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(KINDS + ("near facet", "near face")),
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([0.0, 1e-10]),
    order=st.permutations(TRIPLE_KEYS),
)
@example(kind="near face", seed=FALL_THROUGH_SEED, jitter=0.0, order=TRIPLE_KEYS)
def test_triple_branch_matches_its_reference_bit_for_bit(kind, seed, jitter, order):
    """Every field equals that of the numpy branch kept in ``oracles``,
    whichever order the three tables were inserted in."""
    rng = np.random.default_rng(seed)
    if kind in ("near facet", "near face"):
        tables = near_boundary_tables(rng, kind)
    else:
        tables = random_tables(rng, kind)
    tables = {
        key: np.clip(table + jitter * rng.standard_normal((2, 2)), 0.0, None)
        for key, table in tables.items()
    }
    problem = JointFeasibilityProblem(
        3, 2, {key: tables[key] / tables[key].sum() for key in order}, tolerance=TOL
    )
    reference = reference_triple_branch(problem)
    calls = []
    original = feasibility.linprog

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "linprog", spy)
        result = decide_feasibility(problem)
    if reference is None:  # both re-checks refuse the closed-form witness
        assert len(calls) == 1
        return
    feasible, witness, violation, certificate = reference
    assert calls == []
    assert result.feasible == feasible
    assert result.max_violation.hex() == violation.hex()
    if feasible:
        assert result.certificate is None
        assert np.array_equal(result.witness, witness)
        assert result.witness.dtype == witness.dtype
        assert result.witness.tobytes() == witness.tobytes()  # signed zeros too
    else:
        assert result.witness is None
        assert np.array_equal(result.certificate, certificate)


@settings(max_examples=400, deadline=None)
@given(
    defect=st.sampled_from(["uniform", "negative entry", "mass", "noise"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([1e-6, 2 * TOL]) | st.floats(0.0, 4 * TOL),
)
def test_float_recheck_agrees_with_the_witness_gap(defect, seed, size):
    """The re-check on Python floats passes exactly the witnesses that
    ``_witness_gap`` passes, also within rounding of the 2 x tolerance
    limit."""
    rng = np.random.default_rng(seed)
    joint = rng.dirichlet(np.ones(8))
    if defect == "uniform":  # targets near the uniform joint
        joint = np.abs(0.125 + size * rng.standard_normal(8))
        joint /= joint.sum()
        witness = np.full(8, 0.125)
    elif defect == "negative entry":  # every pair marginal and the mass stay exact
        witness = joint - (joint[PARITY > 0].min() + size) * PARITY
    elif defect == "mass":
        witness = joint.copy()
        witness[rng.integers(8)] += size
    else:
        witness = joint + size * rng.standard_normal(8)
    targets = np.concatenate([pair_marginal(joint, 3, 2, key).ravel() for key in TRIPLE_KEYS])
    limit = 2 * TOL
    gap = feasibility._witness_gap(witness, feasibility._TRIPLE_OUTCOMES, targets)
    fits = feasibility._triple_witness_fits(witness.tolist(), targets.tolist(), limit)
    assert fits == (gap <= limit)


@pytest.mark.parametrize("defect", ["row", "mass", "negative entry"])
def test_float_recheck_holds_an_error_equal_to_the_limit(defect):
    """Dyadic entries make each error exactly the limit: it passes there,
    as ``_witness_gap``'s ``<=`` does, and fails one float below it."""
    limit = 2.0**-26
    witness, targets = np.full(8, 0.125), np.full(12, 0.25)
    if defect == "row":
        targets[5] -= limit
    elif defect == "mass":
        witness[3] += limit
        targets[[1, 5, 11]] += limit  # the rows through outcome 3 stay exact
    else:  # every pair marginal and the mass stay exact
        witness = np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5]) - limit * PARITY
        targets = np.concatenate([pair_marginal(witness, 3, 2, key).ravel() for key in TRIPLE_KEYS])
        assert witness.min() == -limit
    gap = feasibility._witness_gap(witness, feasibility._TRIPLE_OUTCOMES, targets)
    assert gap == limit
    for bound, expected in ((limit, True), (float(np.nextafter(limit, 0.0)), False)):
        assert feasibility._triple_witness_fits(witness.tolist(), targets.tolist(), bound) is expected
