import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from contextuality import (
    InconsistentOrientations,
    JointFeasibilityProblem,
    ObservableSet,
    ProblemTooLarge,
    SolverFailure,
    TransitionMatrix,
    accardi_check,
    bistochastic_triple_problem,
    build_problem,
    decide_feasibility,
    feasibility_from_dataset,
    pair_marginal,
    pair_transition,
)
from contextuality import feasibility
from contextuality.accardi import TripleParams
from contextuality.cli import cli_main
from contextuality.generators import ClassicalModelSpec, QubitModelSpec, gen_classical, gen_quantum
from contextuality.io import read_marginals

from oracles import oracle_decide


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
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 120.0, 240.0), shots=0))
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

    def test_consistent_orientations_pass(self):
        forward = TransitionMatrix(
            pair=("A", "B"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        backward = TransitionMatrix(
            pair=("B", "A"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        problem = build_problem([forward, backward], ObservableSet.from_ids(["A", "B"]))
        assert len(problem.pair_marginals) == 1

        # two independent samples of one table agree within sampling noise,
        # and the first-listed orientation is the target
        base = gen_classical(ClassicalModelSpec(num_observables=2, num_records=100000, seed=11))
        rerun = gen_classical(ClassicalModelSpec(
            num_observables=2, num_records=100000, seed=12, distribution=base.exact.probabilities
        ))
        forward = pair_transition(base.dataset, "x0", "x1")
        backward = pair_transition(rerun.dataset, "x1", "x0")
        assert 0.0 < np.abs(forward.joint - backward.joint.T).max() <= 0.02
        obs = base.dataset.observables
        problem = build_problem([forward, backward], obs, tolerance=0.02)
        assert list(problem.pair_marginals) == [(0, 1)]
        assert np.array_equal(problem.pair_marginals[(0, 1)], forward.joint)
        problem = build_problem([backward, forward], obs, tolerance=0.02)
        assert np.array_equal(problem.pair_marginals[(0, 1)], backward.joint.T)
        with pytest.raises(InconsistentOrientations):
            build_problem([forward, backward], obs)

    def test_inconsistent_orientations_raise(self):
        forward = TransitionMatrix(
            pair=("A", "B"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        backward = TransitionMatrix(
            pair=("B", "A"),
            entries=np.array([[0.0, 1.0], [1.0, 0.0]]),
            priors=np.array([0.5, 0.5]),
        )
        with pytest.raises(InconsistentOrientations, match=r"differing by 0\.5 "):
            build_problem([forward, backward], ObservableSet.from_ids(["A", "B"]))


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


class TestSparseAssembly:
    """Three pairs over T=19 give 12 x 2**19 constraint entries, which
    ``decide_feasibility`` assembles as a sparse matrix, as it does the
    rows of every problem it sends to the solver."""

    T = 19

    def solve_sparse(self, monkeypatch, tables):
        assembled = []
        original = feasibility.linear_feasibility

        def spy(soft_rows, *args):
            assembled.append(feasibility.sparse.issparse(soft_rows))
            return original(soft_rows, *args)

        monkeypatch.setattr(feasibility, "linear_feasibility", spy)
        problem = JointFeasibilityProblem(self.T, 2, tables)
        result = decide_feasibility(problem)
        assert assembled == [True]
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
            verdict = accardi_check(
                TripleParams(("A", "B", "C"), p, q, r, True, (0.0, 0.0, 0.0))
            )
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
        sample = gen_classical(ClassicalModelSpec(num_observables=4, num_records=0, seed=5))
        for ids in itertools.combinations(sample.exact.observables.ids(), 3):
            params, verdict, lp = feasibility_from_dataset(sample.exact, ids)
            assert lp.feasible
            assert verdict.verdict in ("classical", "not_applicable")

    def test_trine_dataset_contextual_and_infeasible(self):
        sample = gen_quantum(
            QubitModelSpec(angles_deg=(0.0, 120.0, 240.0), shots=100000, seed=7)
        )
        params, verdict, lp = feasibility_from_dataset(sample.dataset, ("a0", "a1", "a2"))
        assert verdict.verdict == "contextual"
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
        params, verdict, lp = feasibility_from_dataset(dataset, ("A", "B", "C"))
        assert (params.p, params.q, params.r) == (1.0, 0.0, 0.0)
        # lower = 0, upper = 0, r = 0: boundary-classical, and a joint exists
        assert verdict.verdict == "classical"
        assert lp.feasible
