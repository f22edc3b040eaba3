import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    CountTable,
    EmptyPairData,
    JointRecordDataset,
    ObservableSet,
    PairLogDataset,
    PairMismatch,
    TransitionMatrix,
    UnknownObservable,
    ZeroConditioningRow,
    bayes_consistency,
    count_pairs,
    estimate_transition,
    feasibility_from_dataset,
    pair_transition,
    same_outcome_probability,
    triple_params,
)
from contextuality.generators import ClassicalModelSpec, QubitModelSpec, gen_classical, gen_quantum


def joint(records, names=("A", "B")):
    return JointRecordDataset(ObservableSet.from_ids(names), np.array(records, dtype=np.uint8))


def one_deviating_pair():
    """Records over (A, B, C) whose P(A|B) has entries [[0.8, 0.2], [0.3, 0.7]]
    (bistochastic deviation 0.1, parameter 0.75) and whose P(B|C) and P(C|A)
    are exactly bistochastic: C is a fair coin independent of (A, B)."""
    counts = {(0, 0): 8, (0, 1): 2, (1, 0): 3, (1, 1): 7}  # (B, A) -> records
    rows = [[a, b, c] for (b, a), n in counts.items() for c in (0, 1) for _ in range(n)]
    return joint(rows, names=("A", "B", "C"))


class TestCountPairs:
    def test_four_records_balanced(self):
        d = joint([[1, 1], [1, 0], [0, 1], [0, 0]])
        table = count_pairs(d, "A", "B")
        assert table.counts.tolist() == [[1, 1], [1, 1]]
        assert table.total == 4

    def test_duplicated_column_counts_diagonal(self):
        rng = np.random.default_rng(3)
        col = rng.integers(0, 2, size=50)
        d = joint(np.stack([col, col], axis=1))
        table = count_pairs(d, "A", "B")
        n1 = int(col.sum())
        assert table.counts.tolist() == [[50 - n1, 0], [0, n1]]

    def test_pairlog_totals_match_generator_shots(self):
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 120.0), shots=500, seed=7))
        table = count_pairs(sample.dataset, "a0", "a1")
        assert table.total == 500

    def test_pairlog_transposes_reversed_entries(self):
        obs = ObservableSet.from_ids(["A", "B"])
        log = PairLogDataset.from_entries(obs, [("A", 1, "B", 0), ("B", 0, "A", 1)])
        table = count_pairs(log, "A", "B")
        assert table.counts.tolist() == [[0, 0], [2, 0]]

    def test_unknown_observable(self):
        with pytest.raises(UnknownObservable):
            count_pairs(joint([[0, 0]]), "A", "Z")

    def test_empty_pair_data(self):
        with pytest.raises(EmptyPairData):
            count_pairs(joint(np.zeros((0, 2))), "A", "B")
        obs = ObservableSet.from_ids(["A", "B", "C"])
        log = PairLogDataset.from_entries(obs, [("A", 0, "B", 0)])
        with pytest.raises(EmptyPairData):
            count_pairs(log, "A", "C")

    def test_same_observable_rejected(self):
        with pytest.raises(ValueError):
            count_pairs(joint([[0, 0]]), "A", "A")


class TestEstimateTransition:
    def test_balanced_counts(self):
        t = estimate_transition(CountTable(("A", "B"), [[1, 1], [1, 1]]))
        assert t.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert t.symmetrized_param == 0.5
        assert t.bistochastic_deviation == 0.0

    def test_diagonal_counts_give_identity(self):
        t = estimate_transition(CountTable(("A", "B"), [[7, 0], [0, 3]]))
        assert t.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert t.symmetrized_param == 1.0
        assert t.bistochastic_deviation == 0.0
        assert t.priors.tolist() == [0.7, 0.3]

    def test_trine_pair_close_to_born_value(self):
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 120.0), shots=100000, seed=7))
        t = pair_transition(sample.dataset, "a0", "a1")
        analytic = same_outcome_probability(0.0, 120.0)
        assert analytic == pytest.approx(0.25, abs=1e-12)
        assert abs(t.symmetrized_param - analytic) < 0.01

    def test_zero_row_without_smoothing(self):
        with pytest.raises(ZeroConditioningRow):
            estimate_transition(CountTable(("A", "B"), [[0, 0], [1, 1]]))

    def test_smoothing_fills_zero_rows(self):
        t = estimate_transition(CountTable(("A", "B"), [[0, 0], [1, 1]]), smoothing=1.0)
        assert t.entries[0].tolist() == [0.5, 0.5]
        assert np.isclose(t.priors.sum(), 1.0)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            estimate_transition(CountTable(("A", "B"), [[1, 1], [1, 1]]), smoothing=-0.1)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
    def test_nonsense_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
            estimate_transition(CountTable(("A", "B"), [[1, 1], [1, 1]]), smoothing=smoothing)

    @given(
        counts=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
        smoothing=st.floats(0.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_always_stochastic(self, counts, smoothing):
        table = CountTable(("A", "B"), np.array(counts).reshape(2, 2))
        rows = table.counts.sum(axis=1)
        if smoothing == 0.0 and (rows == 0).any():
            return
        t = estimate_transition(table, smoothing=smoothing)
        assert np.abs(t.entries.sum(axis=1) - 1.0).max() <= 1e-9
        assert abs(t.priors.sum() - 1.0) <= 1e-9

    @given(counts=st.lists(st.integers(1, 10**6), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_smoothing_limit_matches_unsmoothed(self, counts):
        table = CountTable(("A", "B"), np.array(counts).reshape(2, 2))
        exact = estimate_transition(table)
        smoothed = estimate_transition(table, smoothing=1e-12)
        assert np.abs(exact.entries - smoothed.entries).max() <= 1e-9

    def test_smoothed_priors_formula(self):
        t = estimate_transition(CountTable(("A", "B"), [[3, 1], [0, 2]]), smoothing=0.5)
        # priors[i] = (row_i + 2a) / (total + 4a)
        assert t.priors.tolist() == [(4 + 1.0) / 8.0, (2 + 1.0) / 8.0]
        # entries[i][j] = (c_ij + a) / (row_i + 2a)
        assert t.entries[0].tolist() == [3.5 / 5.0, 1.5 / 5.0]
        assert t.entries[1].tolist() == [0.5 / 3.0, 2.5 / 3.0]

    def test_uniform_marginals_give_zero_deviation(self):
        # joints built with both marginals uniform by construction
        for u in np.linspace(0.0, 0.5, 11):
            t = TransitionMatrix(
                pair=("A", "B"),
                entries=np.array([[u, 0.5 - u], [0.5 - u, u]]) / 0.5,
                priors=np.array([0.5, 0.5]),
            )
            assert t.bistochastic_deviation == 0.0

    def test_exact_joints_with_uniform_marginals_have_zero_deviation(self):
        from contextuality import ExactJointTable, ObservableSet

        rng = np.random.default_rng(14)
        for _ in range(50):
            j00 = float(rng.uniform(0.0, 0.5))
            j01 = 0.5 - j00
            # j10 = j01 and j11 = j00 makes both marginals uniform
            table = np.array([j00, j01, j01, j00])
            exact = ExactJointTable(ObservableSet.from_ids(["x0", "x1"]), table / table.sum())
            t = pair_transition(exact, "x0", "x1")
            assert t.bistochastic_deviation == 0.0


class TestBayesConsistency:
    @given(counts=st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_same_joint_table_is_exactly_consistent(self, counts):
        table = CountTable(("A", "B"), np.array(counts).reshape(2, 2))
        rows = table.counts.sum(axis=1)
        cols = table.counts.sum(axis=0)
        if (rows == 0).any() or (cols == 0).any():
            return
        forward = estimate_transition(table)
        backward = estimate_transition(table.transposed())
        report = bayes_consistency(forward, backward)
        assert report.discrepancy == 0.0
        assert report.consistent

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_both_orientations_of_one_dataset_are_exactly_consistent(self, seed):
        rng = np.random.default_rng(seed)
        d = joint(rng.integers(0, 2, size=(40, 2)))
        forward_counts = count_pairs(d, "A", "B")
        if (forward_counts.counts.sum(axis=1) == 0).any():
            return
        if (forward_counts.counts.sum(axis=0) == 0).any():
            return
        forward = estimate_transition(forward_counts)
        backward = estimate_transition(count_pairs(d, "B", "A"))
        assert bayes_consistency(forward, backward).discrepancy == 0.0

    def test_independent_pair_logs_agree_within_noise(self):
        base = gen_classical(ClassicalModelSpec(num_observables=2, num_records=100000, seed=11))
        rerun = gen_classical(
            ClassicalModelSpec(
                num_observables=2,
                num_records=100000,
                seed=12,
                distribution=base.exact.probabilities,
            )
        )
        obs = base.dataset.observables
        n = len(base.dataset)
        log_ab = PairLogDataset(
            obs,
            np.zeros(n, np.int64),
            base.dataset.records[:, 0].astype(np.int64),
            np.ones(n, np.int64),
            base.dataset.records[:, 1].astype(np.int64),
        )
        log_ba = PairLogDataset(
            obs,
            np.ones(n, np.int64),
            rerun.dataset.records[:, 1].astype(np.int64),
            np.zeros(n, np.int64),
            rerun.dataset.records[:, 0].astype(np.int64),
        )
        report = bayes_consistency(
            pair_transition(log_ab, "x0", "x1"), pair_transition(log_ba, "x1", "x0"), tol=0.02
        )
        assert report.consistent
        assert report.discrepancy <= 0.02

    def test_forced_inconsistency_is_half(self):
        identity = TransitionMatrix(
            pair=("A", "B"), entries=np.eye(2), priors=np.array([0.5, 0.5])
        )
        anti = TransitionMatrix(
            pair=("B", "A"),
            entries=np.array([[0.0, 1.0], [1.0, 0.0]]),
            priors=np.array([0.5, 0.5]),
        )
        report = bayes_consistency(identity, anti, tol=1e-9)
        assert report.discrepancy == pytest.approx(0.5)
        assert not report.consistent

    def test_pair_mismatch(self):
        t1 = TransitionMatrix(pair=("A", "B"), entries=np.eye(2), priors=np.array([0.5, 0.5]))
        t2 = TransitionMatrix(pair=("A", "C"), entries=np.eye(2), priors=np.array([0.5, 0.5]))
        with pytest.raises(PairMismatch):
            bayes_consistency(t1, t2)


class TestTransitionMatrixInvariants:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TransitionMatrix(
                pair=("A", "B"),
                entries=np.array([[0.6, 0.5], [0.5, 0.5]]),
                priors=np.array([0.5, 0.5]),
            )

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TransitionMatrix(
                pair=("A", "B"), entries=np.eye(2), priors=np.array([0.7, 0.5])
            )

    def test_bistochastic_tolerance_decides_the_parameter(self):
        # the rule lives in the triple test: a matrix only reports its deviation
        source = one_deviating_pair()
        default, _ = triple_params(source, ("A", "B", "C"))
        assert default.deviations == pytest.approx((0.1, 0.0, 0.0))
        assert not default.applicable  # beyond the default 0.05
        loose, _ = triple_params(source, ("A", "B", "C"), bistochastic_tol=0.2)
        assert loose.applicable
        assert loose.p == default.p == pytest.approx(0.75)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_nonsense_bistochastic_tol_rejected(self, tol):
        source = one_deviating_pair()
        with pytest.raises(ValueError, match="bistochastic_tol must be finite and >= 0"):
            triple_params(source, ("A", "B", "C"), bistochastic_tol=tol)
        with pytest.raises(ValueError, match="bistochastic_tol must be finite and >= 0"):
            feasibility_from_dataset(source, ("A", "B", "C"), bistochastic_tol=tol)

    def test_joint_defaults_to_prior_times_entries(self):
        t = TransitionMatrix(
            pair=("A", "B"), entries=np.eye(2), priors=np.array([0.25, 0.75])
        )
        assert t.joint.tolist() == [[0.25, 0.0], [0.0, 0.75]]
