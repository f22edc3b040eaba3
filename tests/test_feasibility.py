import io
import itertools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    JointFeasibilityProblem,
    ObservableSet,
    ProblemTooLarge,
    SolverFailure,
    TransitionMatrix,
    bistochastic_triple_problem,
    build_problem,
    decide_feasibility,
    feasibility_from_dataset,
)
from contextuality import feasibility
from contextuality.accardi import TripleParams
from contextuality.cli import cli_main
from contextuality.datasets import bistochastic_pair_table
from contextuality.generators import gen_classical, gen_quantum
from contextuality.io import read_marginals

from oracles import oracle_decide, pair_constraint_rows, pair_marginal


def random_joint_problem(rng, tolerance=1e-8):
    joint = rng.dirichlet(np.ones(8))
    tables = {
        pair: pair_marginal(joint, 3, 2, pair) for pair in [(0, 1), (0, 2), (1, 2)]
    }
    return JointFeasibilityProblem(3, 2, tables, tolerance=tolerance), joint


class TestBuildProblem:
    def test_single_identity_pair_with_uniform_priors(self):
        matrix = TransitionMatrix(
            pair=("A", "B"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        problem = build_problem([matrix], ObservableSet.from_ids(["A", "B"]))
        assert problem.pair_marginals[(0, 1)].tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_trine_targets(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=0)
        from contextuality.accardi import triple_params

        _, matrices = triple_params(sample.exact, ("a0", "a1", "a2"))
        problem = build_problem(matrices, sample.exact.observables)
        for table in problem.pair_marginals.values():
            assert np.allclose(table, [[0.125, 0.375], [0.375, 0.125]], atol=1e-12)
            assert table.sum() == pytest.approx(1.0)

    def test_empty_pair_list_is_unconstrained_and_feasible(self):
        problem = build_problem([], ObservableSet.from_ids(["A", "B", "C"]))
        assert problem.pair_marginals == {}
        result = decide_feasibility(problem)
        assert result.feasible
        assert result.max_violation == 0.0

    def test_repeated_pair_raises(self):
        forward = TransitionMatrix(
            pair=("A", "B"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        backward = TransitionMatrix(
            pair=("B", "A"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        obs = ObservableSet.from_ids(["A", "B"])
        for matrices in ([forward, forward], [forward, backward], [backward, forward]):
            with pytest.raises(ValueError, match="given more than once"):
                build_problem(matrices, obs)


class TestDecideFeasibility:
    def test_explicit_joint_is_its_own_witness(self):
        rng = np.random.default_rng(1)
        problem, _ = random_joint_problem(rng)
        result = decide_feasibility(problem)
        assert result.feasible
        for pair, table in problem.pair_marginals.items():
            attained = pair_marginal(result.witness, 3, 2, pair)
            assert np.abs(attained - table).max() <= problem.tolerance

    def test_trine_is_infeasible_with_positive_violation(self):
        result = decide_feasibility(bistochastic_triple_problem(0.25, 0.25, 0.25))
        assert not result.feasible
        assert result.witness is None
        assert result.max_violation == pytest.approx(1.0 / 24.0, abs=1e-9)

    def test_residual_equal_to_the_tolerance_is_feasible(self):
        # infeasible means a residual above the tolerance, not at it: the
        # trine on its own (dual-table path) and with a fourth observable (HiGHS)
        trine = {key: bistochastic_pair_table(0.25) for key in ((0, 1), (0, 2), (1, 2))}
        for problem in (JointFeasibilityProblem(3, 2, trine),
                        JointFeasibilityProblem(4, 2, {**trine, (2, 3): np.eye(2) / 2})):
            residual = decide_feasibility(problem).max_violation
            assert residual == pytest.approx(1.0 / 24.0, abs=1e-9)
            at_residual = JointFeasibilityProblem(
                problem.num_observables, 2, problem.pair_marginals, tolerance=residual
            )
            result = decide_feasibility(at_residual)
            assert (result.feasible, result.max_violation) == (True, residual)

    def test_two_observables_single_pair_always_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
            problem = JointFeasibilityProblem(2, 2, {(0, 1): joint})
            assert decide_feasibility(problem).feasible

    def test_size_guard(self):
        problem = JointFeasibilityProblem(21, 2, {})
        with pytest.raises(ProblemTooLarge):
            decide_feasibility(problem)

    def test_outcome_table_bound_refuses_before_assembly(self, monkeypatch):
        # all 120 pairs of T=16: 120 * 2**16 entries, gigabytes of assembly
        tables = {key: np.full((2, 2), 0.25) for key in itertools.combinations(range(16), 2)}
        monkeypatch.setattr(feasibility, "_pair_outcomes", lambda *args: pytest.fail("assembled"))
        with pytest.raises(ProblemTooLarge, match="^outcome table has 7864320 > 2000000 entries$"):
            decide_feasibility(JointFeasibilityProblem(16, 2, tables))

    @pytest.mark.parametrize(
        "t, n, tables, message",
        [
            (0, 2, {}, "need at least one observable with two outcomes"),
            (2, 1, {}, "need at least one observable with two outcomes"),
            (2, 2, {(1, 0): np.full((2, 2), 0.25)}, r"pair key \(1, 0\) must satisfy"),
            (2, 2, {(0, 2): np.full((2, 2), 0.25)}, r"pair key \(0, 2\) must satisfy"),
            (2, 2, {(0, 1): np.full((3, 3), 1 / 9)}, "table must be 2x2"),
            (2, 2, {(0, 1): [[0.75, 0.5], [-0.25, 0.0]]}, "negative entry"),
            (2, 2, {(0, 1): np.full((2, 2), 0.2)}, "entries must sum to 1"),
        ],
    )
    def test_malformed_problem_rejected(self, t, n, tables, message):
        with pytest.raises(ValueError, match=message):
            JointFeasibilityProblem(t, n, tables)

    def test_general_outcome_count(self):
        rng = np.random.default_rng(1)
        joint = rng.dirichlet(np.ones(27))
        tables = {p: pair_marginal(joint, 3, 3, p) for p in [(0, 1), (0, 2), (1, 2)]}
        assert decide_feasibility(JointFeasibilityProblem(3, 3, tables)).feasible
        # contradictory marginals over the same observable
        t01 = np.zeros((3, 3))
        t01[0, :] = 1 / 3
        t02 = np.zeros((3, 3))
        t02[2, :] = 1 / 3
        result = decide_feasibility(JointFeasibilityProblem(3, 3, {(0, 1): t01, (0, 2): t02}))
        assert not result.feasible
        assert result.max_violation > 0.1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_nonsense_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="feasibility tolerance must be finite and > 0"):
            bistochastic_triple_problem(0.25, 0.25, 0.25, tolerance=tol)

    def test_witness_sums_to_one(self):
        result = decide_feasibility(bistochastic_triple_problem(0.9, 0.9, 0.8))
        assert result.feasible
        assert result.witness.sum() == pytest.approx(1.0, abs=1e-8)
        assert result.witness.min() >= -1e-12


class TestWitnessRecheck:
    """HiGHS may bend constraints by its own primal tolerance; a witness is
    certified only if it re-marginalizes, and is non-negative, to 2 x tol."""

    FIXTURE = Path(__file__).parent / "fixtures" / "lp_tolerance_t8.json"

    def test_frozen_problem_once_raising_solver_failure_is_feasible(self):
        # 8 of the 12 observables of an empirical joint: feasible by
        # construction, yet its witness missed the targets by 6.5e-8 when
        # HiGHS ran at its default 1e-7 tolerance.
        problem = read_marginals(self.FIXTURE)
        result = decide_feasibility(problem)
        assert result.feasible
        worst = max(
            np.abs(pair_marginal(result.witness, 8, 2, key) - table).max()
            for key, table in problem.pair_marginals.items()
        )
        assert worst <= 2 * problem.tolerance
        assert result.witness.min() >= -2 * problem.tolerance

    def test_lp_command_on_frozen_problem_exits_zero(self):
        out, err = io.StringIO(), io.StringIO()
        assert cli_main(["lp", str(self.FIXTURE)], out, err) == 0
        assert out.getvalue().startswith("feasible: yes")

    def test_witness_with_negative_entry_is_rejected(self, monkeypatch):
        # only (A, B) is constrained; mass moved from (0,0,1) to (0,0,0) keeps
        # every marginal exact but leaves a negative entry of -1e-6
        table = np.full((2, 2), 0.25)
        problem = JointFeasibilityProblem(3, 2, {(0, 1): table})
        witness = np.full(8, 0.125)
        witness[0] += 1e-6 + 0.125
        witness[1] -= 1e-6 + 0.125
        assert np.allclose(pair_marginal(witness, 3, 2, (0, 1)), table, atol=1e-15)
        monkeypatch.setattr(feasibility, "linear_feasibility", lambda *args: (0.0, witness))
        with pytest.raises(SolverFailure, match="witness violates targets"):
            decide_feasibility(problem)

    def test_witness_with_marginal_error_is_rejected(self, monkeypatch):
        # only (A, B) is constrained; mass moved from (0,1,0) to (0,0,0) keeps
        # the total and every sign but misses two (A, B) targets by 1e-6
        problem = JointFeasibilityProblem(3, 2, {(0, 1): np.full((2, 2), 0.25)})
        witness = np.full(8, 0.125)
        witness[0] += 1e-6
        witness[2] -= 1e-6
        assert witness.min() > 0 and witness.sum() == pytest.approx(1.0, abs=1e-15)
        monkeypatch.setattr(feasibility, "linear_feasibility", lambda *args: (0.0, witness))
        with pytest.raises(SolverFailure, match="witness violates targets by 1e-06"):
            decide_feasibility(problem)

    def test_solver_status_is_a_solver_failure(self, monkeypatch):
        broken = SimpleNamespace(status=4, message="numerical difficulties")
        monkeypatch.setattr(feasibility, "linprog", lambda *args, **kwargs: broken)
        problem = JointFeasibilityProblem(3, 2, {(0, 1): np.full((2, 2), 0.25)})
        with pytest.raises(SolverFailure, match="solve failed: numerical difficulties"):
            decide_feasibility(problem)

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(2, 6), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-0.1, 0.1),
    )
    def test_gap_matches_the_per_pair_reduction(self, t, n, seed, shift):
        """The one-product re-check against the per-pair marginal loop it replaced."""
        rng = np.random.default_rng(seed)
        pairs = itertools.combinations(range(t), 2)
        keys = [key for key in pairs if rng.random() < 0.7] or [(0, 1)]
        tables = {key: rng.dirichlet(np.ones(n * n)).reshape(n, n) for key in keys}
        witness = rng.dirichlet(np.ones(n**t)) + shift * rng.random(n**t)
        errors = [np.abs(pair_marginal(witness, t, n, key) - tables[key]).max() for key in keys]
        reference = max(errors + [abs(witness.sum() - 1.0), -witness.min()])
        targets = np.concatenate([tables[key].reshape(-1) for key in keys])
        gap = feasibility._witness_gap(witness, feasibility._pair_outcomes(t, n, keys), targets)
        assert abs(gap - reference) <= 1e-15


class TestAssembly:
    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(2, 6), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_solver_receives_the_oracle_rows(self, t, n, seed):
        """What HiGHS receives, against the independently coded dense rows:
        A_ub = [R, -1; -R, -1], b_ub = [b, -b] and A_eq = [1 ... 1, 0]."""
        rng = np.random.default_rng(seed)
        keys = [key for key in itertools.combinations(range(t), 2) if rng.random() < 0.6]
        keys = keys or [(0, 1)]
        if (t, n, len(keys)) == (3, 2, 3):  # a full binary triple may skip the solver
            keys.pop(int(rng.integers(3)))
        tables = {key: rng.dirichlet(np.ones(n * n)).reshape(n, n) for key in keys}
        received = []
        original = feasibility.linprog

        def spy(*args, **kwargs):
            received.append(kwargs)
            return original(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(feasibility, "linprog", spy)
            decide_feasibility(JointFeasibilityProblem(t, n, tables))
        (kwargs,) = received
        rows, rhs = pair_constraint_rows(t, n, tables)
        r, b = rows[:-1], rhs[:-1]  # the last oracle row is the mass row
        t_column = -np.ones((len(r), 1))
        assert scipy.sparse.issparse(kwargs["A_ub"])
        expected = np.block([[r, t_column], [-r, t_column]])
        assert np.array_equal(kwargs["A_ub"].toarray(), expected)
        assert np.array_equal(kwargs["b_ub"], np.concatenate([b, -b]))
        assert np.array_equal(kwargs["A_eq"], [[1.0] * n**t + [0.0]])


class TestSparseAssembly:
    """Three pairs over T=19 give 12 rows of 2**17 outcomes each.  They
    reach the solver in a sparse A_ub = [R, -1; -R, -1], like the rows of
    every problem it solves."""

    T = 19

    def solve_sparse(self, monkeypatch, tables):
        assembled = []
        original = feasibility.linprog

        def spy(*args, **kwargs):
            a_ub = kwargs["A_ub"]
            assembled.append((scipy.sparse.issparse(a_ub), a_ub.nnz))
            return original(*args, **kwargs)

        monkeypatch.setattr(feasibility, "linprog", spy)
        problem = JointFeasibilityProblem(self.T, 2, tables)
        result = decide_feasibility(problem)
        assert assembled == [(True, 2 * 12 * (2**17 + 1))]
        return problem, result

    def test_embedded_trine_keeps_its_residual(self, monkeypatch):
        trine = bistochastic_triple_problem(0.25, 0.25, 0.25).pair_marginals
        _, result = self.solve_sparse(monkeypatch, trine)
        assert not result.feasible
        assert result.max_violation == pytest.approx(1.0 / 24.0, abs=1e-9)

    def test_embedded_uniform_tables_are_feasible_with_a_witness(self, monkeypatch):
        uniform = {pair: np.full((2, 2), 0.25) for pair in [(0, 1), (1, 2), (0, 2)]}
        problem, result = self.solve_sparse(monkeypatch, uniform)
        assert result.feasible
        assert result.witness.shape == (2**self.T,)
        assert result.witness.sum() == pytest.approx(1.0, abs=2 * problem.tolerance)
        assert result.witness.min() >= -2 * problem.tolerance
        for key, table in uniform.items():
            attained = pair_marginal(result.witness, self.T, 2, key)
            assert np.abs(attained - table).max() <= 2 * problem.tolerance


class TestProperties:
    def test_witness_validity_on_random_feasible_problems(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            problem, _ = random_joint_problem(rng)
            result = decide_feasibility(problem)
            assert result.feasible
            for pair, table in problem.pair_marginals.items():
                attained = pair_marginal(result.witness, 3, 2, pair)
                assert np.abs(attained - table).max() <= problem.tolerance

    def test_removing_constraints_preserves_feasibility(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            problem, _ = random_joint_problem(rng)
            assert decide_feasibility(problem).feasible
            for dropped in list(problem.pair_marginals):
                reduced = JointFeasibilityProblem(
                    3,
                    2,
                    {k: v for k, v in problem.pair_marginals.items() if k != dropped},
                )
                assert decide_feasibility(reduced).feasible

    def test_accardi_equivalence_on_coarse_grid(self):
        grid = np.linspace(0.0, 1.0, 9)
        for p, q, r in itertools.product(grid, repeat=3):
            verdict = TripleParams(("A", "B", "C"), p, q, r, True, (0.0, 0.0, 0.0))
            if abs(verdict.slack) <= 1e-6:
                continue
            lp = decide_feasibility(bistochastic_triple_problem(p, q, r))
            assert lp.feasible == (verdict.verdict == "classical"), (p, q, r)

    def test_relabeling_observables_and_outcomes_preserves_feasibility(self):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(10):
            cases.append(random_joint_problem(rng)[0])
        for pqr in [(0.25, 0.25, 0.25), (0.9, 0.9, 0.8), (0.1, 0.9, 0.4)]:
            cases.append(bistochastic_triple_problem(*pqr))
        for problem in cases:
            base = decide_feasibility(problem).feasible
            perm = [2, 0, 1]  # observable relabeling
            flip = [1, 0, 1]  # outcome relabeling per new position
            relabeled = {}
            for (a, b), table in problem.pair_marginals.items():
                na, nb = perm[a], perm[b]
                t = table
                if flip[na]:
                    t = t[::-1, :]
                if flip[nb]:
                    t = t[:, ::-1]
                if na > nb:
                    na, nb, t = nb, na, t.T
                relabeled[(na, nb)] = t
            assert decide_feasibility(JointFeasibilityProblem(3, 2, relabeled)).feasible == base

    def test_agrees_with_independent_simplex_on_random_problems(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 500:
            problem, _ = random_joint_problem(rng)
            assert decide_feasibility(problem).feasible == oracle_decide(problem)
            checked += 1
        checked = 0
        while checked < 500:
            p, q, r = rng.random(3)
            slack = min(r - abs(p + q - 1), 1 - abs(p - q) - r)
            if abs(slack) < 1e-4:
                continue
            problem = bistochastic_triple_problem(p, q, r)
            assert decide_feasibility(problem).feasible == oracle_decide(problem), (p, q, r)
            checked += 1


class TestFromDataset:
    def test_classical_triples_are_feasible(self):
        sample = gen_classical(num_observables=4, num_records=0, seed=5)
        for ids in itertools.combinations(sample.exact.observables.ids(), 3):
            params, lp = feasibility_from_dataset(sample.exact, ids)
            assert lp.feasible
            assert params.verdict in ("classical", "not_applicable")

    def test_trine_dataset_contextual_and_infeasible(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=100000, seed=7)
        params, lp = feasibility_from_dataset(sample.dataset, ("a0", "a1", "a2"))
        assert params.verdict == "contextual"
        assert not lp.feasible
        for value in (params.p, params.q, params.r):
            assert abs(value - 0.25) < 0.01

    def test_deterministic_columns_match_exact_computation(self):
        # B duplicates A, C is A's complement: p = 1, q = 0, r = 0
        rng = np.random.default_rng(8)
        col = rng.integers(0, 2, size=200)
        records = np.stack([col, col, 1 - col], axis=1)
        from contextuality import JointRecordDataset

        dataset = JointRecordDataset(ObservableSet.from_ids(["A", "B", "C"]), records)
        params, lp = feasibility_from_dataset(dataset, ("A", "B", "C"))
        assert (params.p, params.q, params.r) == (1.0, 0.0, 0.0)
        # lower = 0, upper = 0, r = 0: boundary-classical, and a joint exists
        assert params.verdict == "classical"
        assert lp.feasible
