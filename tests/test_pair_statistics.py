"""The per-source pair-statistics array and the pipeline built on it."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    ContextualityError,
    EmptyPairData,
    ExactJointTable,
    ExactQuantumModel,
    JointRecordDataset,
    ObservableSet,
    PairLogDataset,
    SamplingPlan,
    analyze,
    feasibility_from_dataset,
    pair_transition,
    same_outcome_probability,
)
from contextuality import transitions
from contextuality.generators import gen_classical, gen_quantum
from contextuality.personalization import evaluate_triples, sample_triples


OBS_AB = ObservableSet.from_ids(["A", "B"])


def names(t):
    return [f"o{i}" for i in range(t)]


def scan_joint(records, ia, ib):
    """Reference: count one pair by scanning every record."""
    counts = np.zeros((2, 2), dtype=np.int64)
    np.add.at(counts, (records[:, ia].astype(np.int64), records[:, ib].astype(np.int64)), 1)
    return counts


def scan_pairlog(log, ia, ib):
    """Reference: count one pair over both logged orientations."""
    counts = np.zeros((2, 2), dtype=np.int64)
    forward = (log.first_index == ia) & (log.second_index == ib)
    backward = (log.first_index == ib) & (log.second_index == ia)
    np.add.at(counts, (log.first_value[forward], log.second_value[forward]), 1)
    np.add.at(counts, (log.second_value[backward], log.first_value[backward]), 1)
    return counts


@st.composite
def joint_datasets(draw):
    t = draw(st.integers(2, 5))
    n = draw(st.integers(0, 60))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * t, max_size=n * t))
    records = np.array(bits, dtype=np.uint8).reshape(n, t)
    return JointRecordDataset(ObservableSet.from_ids(names(t)), records)


@st.composite
def pair_logs(draw):
    t = draw(st.integers(2, 5))
    entry = st.tuples(
        st.integers(0, t - 1), st.integers(0, 1), st.integers(0, t - 1), st.integers(0, 1)
    ).filter(lambda e: e[0] != e[2])
    entries = draw(st.lists(entry, max_size=60))
    columns = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    return PairLogDataset(ObservableSet.from_ids(names(t)), *columns)


class TestArrayMatchesPerPairScan:
    @given(dataset=joint_datasets())
    @settings(max_examples=150, deadline=None)
    def test_joint_records(self, dataset):
        table = dataset.pair_statistics.table
        for ia, ib in itertools.permutations(range(len(dataset.observables)), 2):
            assert table[ia, ib].tolist() == scan_joint(dataset.records, ia, ib).tolist()

    def test_joint_records_across_row_blocks(self):
        rng = np.random.default_rng(2)
        records = rng.integers(0, 2, size=(2 * 8192 + 77, 6), dtype=np.uint8)
        dataset = JointRecordDataset(ObservableSet.from_ids(names(6)), records)
        for ia, ib in itertools.permutations(range(6), 2):
            expected = scan_joint(records, ia, ib)
            assert dataset.pair_statistics.table[ia, ib].tolist() == expected.tolist()

    @given(log=pair_logs())
    @settings(max_examples=150, deadline=None)
    def test_pair_logs_in_both_orientations(self, log):
        for ia, ib in itertools.permutations(range(len(log.observables)), 2):
            expected = scan_pairlog(log, ia, ib)
            assert log.pair_statistics.table[ia, ib].tolist() == expected.tolist()
            if expected.any():
                t = pair_transition(log, f"o{ia}", f"o{ib}", smoothing=0.5)
                assert t.joint.tolist() == ((expected + 0.5) / (expected.sum() + 2.0)).tolist()
            else:
                with pytest.raises(EmptyPairData, match="no logged pairs for"):
                    pair_transition(log, f"o{ia}", f"o{ib}", smoothing=0.5)

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_exact_joint_table(self, seed, t):
        probs = np.random.default_rng(seed).dirichlet(np.ones(2**t))
        exact = ExactJointTable(ObservableSet.from_ids(names(t)), probs)
        cube = probs.reshape((2,) * t)
        table = exact.pair_statistics.table
        for ia, ib in itertools.permutations(range(t), 2):
            expected = np.einsum(cube, list(range(t)), [ia, ib])
            assert np.allclose(table[ia, ib], expected, rtol=0.0, atol=1e-15)
            assert table[ia, ib].tolist() == table[ib, ia].T.tolist()

    def test_exact_quantum_model(self):
        angles = (0.0, 35.0, 120.0, 300.0)
        exact = gen_quantum(angles_deg=angles, shots=0).exact
        table = exact.pair_statistics.table
        for ia, ib in itertools.permutations(range(len(angles)), 2):
            p = same_outcome_probability(angles[ia], angles[ib])
            assert table[ia, ib].tolist() == [[p / 2, (1 - p) / 2], [(1 - p) / 2, p / 2]]

    def test_exact_sources_hold_probabilities_not_counts(self):
        exact = gen_classical(num_observables=3, num_records=0).exact
        assert exact.pair_statistics.exact
        assert exact.pair_statistics.table.dtype == np.float64


class TestMissingData:
    def test_empty_joint_dataset(self):
        empty = JointRecordDataset(ObservableSet.from_ids(["A", "B"]), np.zeros((0, 2)))
        with pytest.raises(EmptyPairData, match=r"no records for pair \('A', 'B'\)"):
            pair_transition(empty, "A", "B")

    def test_missing_logged_pair(self):
        log = PairLogDataset.from_entries(
            ObservableSet.from_ids(["A", "B", "C"]), [("A", 0, "B", 1), ("C", 1, "B", 1)]
        )
        with pytest.raises(EmptyPairData, match=r"no logged pairs for \('C', 'A'\)"):
            pair_transition(log, "C", "A")

    def test_failing_pair_skips_every_triple_with_the_same_message(self):
        # (a0, a2) is never logged, and a1 = 0 is never logged with a3
        obs = ObservableSet.from_ids(["a0", "a1", "a2", "a3"])
        entries = [("a0", 0, "a1", 1), ("a1", 0, "a0", 1), ("a1", 0, "a2", 1),
                   ("a2", 0, "a1", 1), ("a0", 1, "a3", 0), ("a3", 1, "a0", 0),
                   ("a1", 1, "a3", 0), ("a3", 1, "a1", 1), ("a2", 0, "a3", 1),
                   ("a3", 0, "a2", 0)]
        log = PairLogDataset.from_entries(obs, entries)
        plan = SamplingPlan(mode="exhaustive")
        triples = sample_triples(obs, plan)
        expected = []
        for ids in triples:
            try:
                feasibility_from_dataset(log, ids)
                expected.append(None)
            except ContextualityError as exc:
                expected.append(str(exc))
        assert expected == [
            "no logged pairs for ('a0', 'a2')",
            None,
            "no logged pairs for ('a2', 'a0')",
            "outcome 0 of 'a1' never occurs; conditionals undefined without smoothing",
        ]
        reports = evaluate_triples(log, triples, plan)
        assert [r.error for r in reports] == expected


class TestSelfPairs:
    def test_entry_pairing_an_observable_with_itself_is_rejected(self):
        obs = ObservableSet.from_ids(["A", "B"])
        with pytest.raises(ValueError, match="pairs an observable with itself"):
            PairLogDataset(obs, [0, 1], [0, 1], [1, 1], [1, 0])
        with pytest.raises(ValueError, match="pairs an observable with itself"):
            PairLogDataset.from_entries(obs, [("A", 0, "B", 1), ("A", 1, "A", 1)])


class TestFieldChecks:
    @pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning may leak either
    @pytest.mark.parametrize("bad", [0.7, 1.2, -1, float("nan"), 2**70])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: PairLogDataset(OBS_AB, [bad, 1], [0, 1], [1, 0], [1, 0]),
            lambda bad: PairLogDataset(OBS_AB, [0, 1], [0, 1], [1, 0], [bad, 0]),
            lambda bad: JointRecordDataset(OBS_AB, [[bad, 0], [1, 1]]),
        ],
        ids=["pairlog-index", "pairlog-value", "records"],
    )
    def test_integer_fields_reject_what_they_cannot_hold(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: JointRecordDataset(OBS_AB, [[0, 1, 0]]), r"shape \(N, 2\), got \(1, 3\)"),
            (lambda: JointRecordDataset(OBS_AB, [0, 1]), r"shape \(N, 2\), got \(2,\)"),
            (lambda: JointRecordDataset(OBS_AB, [[0, 2]]), "must be 0 or 1"),
            (lambda: PairLogDataset(OBS_AB, [[0]], [0], [1], [1]), "first_index must be one-dim"),
            (lambda: PairLogDataset(OBS_AB, [0, 0], [0], [1], [1]), "must have equal length"),
            (lambda: ExactJointTable(OBS_AB, [0.5, 0.5]), r"need 2\*\*2 probabilities, got 2"),
            (lambda: ExactJointTable(OBS_AB, [0.5, 0.75, -0.25, 0.0]), "must be non-negative"),
            (lambda: ExactJointTable(OBS_AB, [0.25, 0.25, 0.25, 0.0]), "must sum to 1"),
            # no slack below zero: numpy's sampler would refuse the entry later
            (lambda: ExactJointTable(OBS_AB, [-1e-13, 1.0, 0.0, 0.0]),
             "probabilities must be non-negative"),
            (lambda: ExactJointTable(OBS_AB, [np.nan, 1.0, 0.0, 0.0]),
             "distribution entries must be finite"),
            (lambda: ExactQuantumModel(OBS_AB, (0.0, 90.0, 180.0)), "one angle per observable"),
            (lambda: ObservableSet.from_ids([]), "needs at least one observable"),
        ],
        ids=["records-width", "records-1d", "records-value", "pairlog-2d", "pairlog-length",
             "exact-size", "exact-negative", "exact-sum", "exact-tiny-negative", "exact-nan",
             "quantum-angles", "observables-empty"],
    )
    def test_sources_reject_malformed_arrays(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_exact_quantum_model_rejects_non_finite_angles(self, angle):
        with pytest.raises(ValueError, match="angles must be finite"):
            ExactQuantumModel(ObservableSet.from_ids(["A", "B", "C"]), (0.0, angle, 240.0))


class TestPipelineReadsEachPairOnce:
    def spy_table_builds(self, monkeypatch, cls):
        builds = []
        original = cls.pair_statistics.func

        def spy(self):
            builds.append(self)
            return original(self)

        prop = functools.cached_property(spy)
        prop.__set_name__(cls, "pair_statistics")
        monkeypatch.setattr(cls, "pair_statistics", prop)
        return builds

    def spy_estimates(self, monkeypatch):
        """The pairs whose transition is computed, not read from the memo."""
        estimated = []
        original = transitions.TransitionMatrix

        def spy(pair, *args, **kwargs):
            estimated.append(pair)
            return original(pair, *args, **kwargs)

        monkeypatch.setattr(transitions, "TransitionMatrix", spy)
        return estimated

    def test_pers_builds_once_and_estimates_each_ordered_pair_once(self, monkeypatch):
        builds = self.spy_table_builds(monkeypatch, PairLogDataset)
        estimated = self.spy_estimates(monkeypatch)
        sample = gen_quantum(angles_deg=(0.0, 30.0, 75.0, 140.0, 200.0, 290.0),
                             shots=300, seed=4)
        plan = SamplingPlan(mode="exhaustive")
        report = analyze(sample.dataset, plan)
        needed = {pair for a, b, c in sample_triples(sample.dataset.observables, plan)
                  for pair in ((b, a), (c, b), (a, c))}
        assert report.pers.decided == 20
        assert builds == [sample.dataset]
        assert sorted(estimated) == sorted(needed)

    def test_a_second_bistochastic_tolerance_estimates_nothing_again(self, monkeypatch):
        estimated = self.spy_estimates(monkeypatch)
        sample = gen_quantum(angles_deg=(0.0, 30.0, 75.0, 140.0, 200.0),
                             shots=300, seed=4)
        observables = sample.dataset.observables
        for tol in (0.01, 0.2):
            analyze(sample.dataset, SamplingPlan(mode="exhaustive", bistochastic_tol=tol)).pers
        needed = {pair for a, b, c in sample_triples(observables, SamplingPlan(mode="exhaustive"))
                  for pair in ((b, a), (c, b), (a, c))}
        assert sorted(estimated) == sorted(needed)

    def test_joint_records_with_replacement(self, monkeypatch):
        builds = self.spy_table_builds(monkeypatch, JointRecordDataset)
        estimated = self.spy_estimates(monkeypatch)
        sample = gen_classical(num_observables=6, num_records=2000, seed=1)
        plan = SamplingPlan(num_triples=60, mode="with_replacement", seed=2)
        analyze(sample.dataset, plan)
        assert builds == [sample.dataset]
        assert len(estimated) == len(set(estimated))
