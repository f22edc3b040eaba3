import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    EmptyPairData,
    ExactJointTable,
    ExactQuantumModel,
    JointRecordDataset,
    ObservableSet,
    PairLogDataset,
    TransitionMatrix,
    UnknownObservable,
    ZeroConditioningRow,
    feasibility_from_dataset,
    pair_transition,
    same_outcome_probability,
    triple_params,
)
from contextuality.datasets import PairStatistics
from contextuality.generators import gen_classical, gen_quantum


def joint(records, names=("A", "B")):
    return JointRecordDataset(ObservableSet.from_ids(names), np.array(records, dtype=np.uint8))


def one_deviating_pair():
    """Records over (A, B, C) whose P(A|B) has entries [[0.8, 0.2], [0.3, 0.7]]
    (bistochastic deviation 0.1, parameter 0.75) and whose P(B|C) and P(C|A)
    are exactly bistochastic: C is a fair coin independent of (A, B)."""
    counts = {(0, 0): 8, (0, 1): 2, (1, 0): 3, (1, 1): 7}  # (B, A) -> records
    rows = [[a, b, c] for (b, a), n in counts.items() for c in (0, 1) for _ in range(n)]
    return joint(rows, names=("A", "B", "C"))


def counted(counts, names=("A", "B")):
    """Joint records over two observables whose pair table is ``counts``."""
    cells = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    return joint(np.repeat(cells, np.ravel(counts), axis=0), names)


def pair_source(counts, names=("A", "B")):
    """A two-observable source as every source reduces to it, its pair
    statistics: ``counts`` is the (names[0], names[1]) table.  Cheap for
    counts far beyond what records could hold."""
    counts = np.asarray(counts).reshape(2, 2)
    table = np.zeros((2, 2, 2, 2), dtype=np.int64)
    table[0, 1], table[1, 0] = counts, counts.T
    return SimpleNamespace(observables=ObservableSet.from_ids(names),
                           pair_statistics=PairStatistics(table))


def bits(matrix):
    return [m.tobytes() for m in (matrix.entries, matrix.priors, matrix.joint)]


class TestPairTables:
    def test_four_records_balanced(self):
        d = joint([[1, 1], [1, 0], [0, 1], [0, 0]])
        table = d.pair_statistics.table[0, 1]
        assert table.tolist() == [[1, 1], [1, 1]]
        assert table.sum() == 4

    def test_duplicated_column_counts_diagonal(self):
        rng = np.random.default_rng(3)
        col = rng.integers(0, 2, size=50)
        d = joint(np.stack([col, col], axis=1))
        n1 = int(col.sum())
        assert d.pair_statistics.table[0, 1].tolist() == [[50 - n1, 0], [0, n1]]

    def test_pairlog_totals_match_generator_shots(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0), shots=500, seed=7)
        assert sample.dataset.pair_statistics.table[0, 1].sum() == 500

    def test_pairlog_transposes_reversed_entries(self):
        obs = ObservableSet.from_ids(["A", "B"])
        log = PairLogDataset.from_entries(obs, [("A", 1, "B", 0), ("B", 0, "A", 1)])
        assert log.pair_statistics.table[0, 1].tolist() == [[0, 0], [2, 0]]


class TestPairTransition:
    def test_unknown_observable(self):
        with pytest.raises(UnknownObservable):
            pair_transition(joint([[0, 0]]), "A", "Z")

    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_empty_pair_data(self, smoothing):
        with pytest.raises(EmptyPairData):
            pair_transition(joint(np.zeros((0, 2))), "A", "B", smoothing)
        obs = ObservableSet.from_ids(["A", "B", "C"])
        log = PairLogDataset.from_entries(obs, [("A", 0, "B", 0)])
        with pytest.raises(EmptyPairData):
            pair_transition(log, "A", "C", smoothing)

    def test_same_observable_rejected(self):
        with pytest.raises(ValueError, match="pair must name two distinct observables"):
            pair_transition(joint([[0, 0]]), "A", "A")

    def test_balanced_counts(self):
        t = pair_transition(counted([[1, 1], [1, 1]]), "A", "B")
        assert t.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert t.symmetrized_param == 0.5
        assert t.bistochastic_deviation == 0.0

    def test_diagonal_counts_give_identity(self):
        t = pair_transition(counted([[7, 0], [0, 3]]), "A", "B")
        assert t.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert t.symmetrized_param == 1.0
        assert t.bistochastic_deviation == 0.0
        assert t.priors.tolist() == [0.7, 0.3]

    def test_trine_pair_close_to_born_value(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0), shots=100000, seed=7)
        t = pair_transition(sample.dataset, "a0", "a1")
        analytic = same_outcome_probability(0.0, 120.0)
        assert analytic == pytest.approx(0.25, abs=1e-12)
        assert abs(t.symmetrized_param - analytic) < 0.01

    def test_zero_row_without_smoothing(self):
        message = "^outcome 0 of 'A' never occurs; conditionals undefined without smoothing$"
        with pytest.raises(ZeroConditioningRow, match=message):
            pair_transition(counted([[0, 0], [1, 1]]), "A", "B")

    def test_smoothing_fills_zero_rows(self):
        t = pair_transition(counted([[0, 0], [1, 1]]), "A", "B", smoothing=1.0)
        assert t.entries[0].tolist() == [0.5, 0.5]
        assert np.isclose(t.priors.sum(), 1.0)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            pair_transition(counted([[1, 1], [1, 1]]), "A", "B", smoothing=-0.1)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
    def test_nonsense_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
            pair_transition(counted([[1, 1], [1, 1]]), "A", "B", smoothing=smoothing)

    def test_smoothing_that_overflows_a_pair_total_rejected(self):
        # 4 * 1e308 is inf, so the pair total would overflow and the rows would not sum to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="smoothing overflows a pair total"):
                pair_transition(counted([[1, 1], [1, 1]]), "A", "B", smoothing=1e308)
            t = pair_transition(counted([[1, 1], [1, 1]]), "A", "B", smoothing=4.49e307)
        assert t.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("source", ["pairlog", "joint", "exact_joint", "exact_quantum"])
    def test_nonsense_smoothing_rejected_on_every_source(self, source, smoothing):
        # exact models ignore a valid smoothing, but check it like any source
        quantum = gen_quantum(angles_deg=(0.0, 60.0, 120.0), shots=50, seed=1)
        classical = gen_classical(num_observables=3, num_records=200, seed=1)
        d = {
            "pairlog": quantum.dataset, "joint": classical.dataset,
            "exact_joint": classical.exact, "exact_quantum": quantum.exact,
        }[source]
        a, b, c = d.observables.ids()
        message = "smoothing must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            pair_transition(d, a, b, smoothing)
        with pytest.raises(ValueError, match=message):
            triple_params(d, (a, b, c), smoothing)
        with pytest.raises(ValueError, match=message):
            feasibility_from_dataset(d, (a, b, c), smoothing)

    @given(
        counts=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
        smoothing=st.floats(0.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_always_stochastic(self, counts, smoothing):
        rows = np.array(counts).reshape(2, 2).sum(axis=1)
        if not any(counts) or (smoothing == 0.0 and (rows == 0).any()):
            return  # no data, or an undefined conditional
        t = pair_transition(pair_source(counts), "A", "B", smoothing=smoothing)
        assert np.abs(t.entries.sum(axis=1) - 1.0).max() <= 1e-9
        assert abs(t.priors.sum() - 1.0) <= 1e-9

    @given(counts=st.lists(st.integers(1, 10**6), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_smoothing_limit_matches_unsmoothed(self, counts):
        source = pair_source(counts)
        exact = pair_transition(source, "A", "B")
        smoothed = pair_transition(source, "A", "B", smoothing=1e-12)
        assert np.abs(exact.entries - smoothed.entries).max() <= 1e-9

    def test_smoothed_priors_formula(self):
        t = pair_transition(counted([[3, 1], [0, 2]]), "A", "B", smoothing=0.5)
        # priors[i] = (row_i + 2a) / (total + 4a)
        assert t.priors.tolist() == [(4 + 1.0) / 8.0, (2 + 1.0) / 8.0]
        # entries[i][j] = (c_ij + a) / (row_i + 2a)
        assert t.entries[0].tolist() == [3.5 / 5.0, 1.5 / 5.0]
        assert t.entries[1].tolist() == [0.5 / 3.0, 2.5 / 3.0]

    @given(
        counts=st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(any),
        smoothing=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_counted_sources_follow_the_formula_bit_for_bit(self, counts, smoothing):
        table = np.array(counts, dtype=np.float64).reshape(2, 2)
        rows = table.sum(axis=1)
        if smoothing == 0.0 and (rows == 0).any():
            return
        t = pair_transition(counted(counts), "A", "B", smoothing)
        a = smoothing
        total = table.sum() + 4.0 * a
        assert bits(t) == [
            ((table + a) / (rows + 2.0 * a)[:, None]).tobytes(),
            ((rows + 2.0 * a) / total).tobytes(),
            ((table + a) / total).tobytes(),
        ]

    @given(
        seed=st.integers(0, 2**32 - 1),
        smoothing=st.floats(0.0, 100.0),
        quantum=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_sources_ignore_smoothing_bit_for_bit(self, seed, smoothing, quantum):
        rng = np.random.default_rng(seed)
        obs = ObservableSet.from_ids(["x0", "x1", "x2"])
        if quantum:
            source = ExactQuantumModel(obs, tuple(rng.uniform(0.0, 360.0, size=3)))
        else:
            source = ExactJointTable(obs, rng.dirichlet(np.ones(8)))
        for a, b in (("x0", "x1"), ("x2", "x0")):
            unsmoothed = pair_transition(source, a, b)
            assert bits(pair_transition(source, a, b, smoothing)) == bits(unsmoothed)
            table = source.pair_statistics.table[int(a[1]), int(b[1])]
            assert unsmoothed.joint.tobytes() == table.tobytes()
            assert unsmoothed.priors.tobytes() == table.sum(axis=1).tobytes()

    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_exact_zero_row_message(self, smoothing):
        # x0 is always 1, so conditioning on x0 = 0 is undefined at any smoothing
        exact = ExactJointTable(ObservableSet.from_ids(["x0", "x1"]), [0.0, 0.0, 0.25, 0.75])
        message = "^outcome 0 of 'x0' has zero probability; conditionals undefined$"
        with pytest.raises(ZeroConditioningRow, match=message):
            pair_transition(exact, "x0", "x1", smoothing)
        assert pair_transition(exact, "x1", "x0", smoothing).entries.tolist() == [[0, 1], [0, 1]]

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
    """P(A) P(B|A) = P(B) P(A|B): both orientations of one pair imply one joint."""

    @given(
        counts=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
        smoothing=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_joint_table_is_exactly_consistent(self, counts, smoothing):
        table = np.array(counts).reshape(2, 2)
        if not table.any():
            return  # no data for the pair
        if smoothing == 0.0 and ((table.sum(axis=1) == 0).any() or (table.sum(axis=0) == 0).any()):
            return
        source = pair_source(table)
        forward = pair_transition(source, "A", "B", smoothing)
        backward = pair_transition(source, "B", "A", smoothing)
        assert np.array_equal(forward.joint, backward.joint.T)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_both_orientations_of_one_dataset_are_exactly_consistent(self, seed):
        rng = np.random.default_rng(seed)
        d = joint(rng.integers(0, 2, size=(40, 2)))
        counts = d.pair_statistics.table[0, 1]
        if (counts.sum(axis=1) == 0).any() or (counts.sum(axis=0) == 0).any():
            return
        forward, backward = pair_transition(d, "A", "B"), pair_transition(d, "B", "A")
        assert np.array_equal(forward.joint, backward.joint.T)


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"pair": ("A", "A")}, "pair must name two distinct observables"),
            ({"entries": np.eye(3)}, "entries must be 2x2 and priors length 2"),
            ({"priors": np.array([1.0])}, "entries must be 2x2 and priors length 2"),
            ({"entries": np.array([[1.5, -0.5], [0.0, 1.0]])}, r"entries must lie in \[0, 1\]"),
        ],
    )
    def test_malformed_fields_rejected(self, fields, message):
        valid = {"pair": ("A", "B"), "entries": np.eye(2), "priors": np.array([0.5, 0.5])}
        with pytest.raises(ValueError, match=message):
            TransitionMatrix(**{**valid, **fields})

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
