import itertools

import numpy as np
import pytest

from contextuality import (
    Sample,
    SamplingPlan,
    analyze,
    feasibility_from_dataset,
    gen_classical,
    gen_quantum,
    pair_transition,
    same_outcome_probability,
)
from contextuality.accardi import triple_params
from contextuality.generators import MAX_GENERATED_VALUES, logged_pairs


class TestClassicalGenerator:
    def test_point_mass_emits_identical_records(self):
        table = np.zeros(8)
        table[-1] = 1.0  # all ones
        sample = gen_classical(num_observables=3, num_records=5, distribution=table)
        assert sample.dataset.records.shape == (5, 3)
        assert (sample.dataset.records == 1).all()

    def test_same_seed_is_byte_identical(self):
        a, b = (gen_classical(num_observables=4, num_records=1000, seed=9) for _ in range(2))
        assert type(a) is Sample
        assert np.array_equal(a.dataset.records, b.dataset.records)
        assert np.array_equal(a.exact.probabilities, b.exact.probabilities)

    def test_uniform_table_concentrates_pair_tables(self):
        sample = gen_classical(
            num_observables=3, num_records=100000, seed=21, distribution=np.full(8, 0.125)
        )
        for a, b in itertools.combinations(range(3), 2):
            counts = sample.dataset.pair_statistics.table[a, b]
            empirical = counts / counts.sum()
            assert np.abs(empirical - 0.25).max() < 0.01

    def test_exact_table_matches_empirical_frequencies(self):
        sample = gen_classical(num_observables=2, num_records=200000, seed=5)
        outcomes = sample.dataset.records[:, 0] * 2 + sample.dataset.records[:, 1]
        freq = np.bincount(outcomes, minlength=4) / len(sample.dataset)
        assert np.abs(freq - sample.exact.probabilities).max() < 0.01

    def test_classical_closure_exact_mode(self):
        # every exact-mode classical source has pers_lp = 0, for all T <= 6
        for t in (3, 4, 5, 6):
            sample = gen_classical(num_observables=t, num_records=0, seed=t)
            estimate = analyze(sample.exact, SamplingPlan(mode="exhaustive")).pers
            assert estimate.pers_lp == 0.0
            assert estimate.violations == (0, 0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(num_observables=17, num_records=1), r"num_observables must be in \[1, 16\]"),
            (dict(num_observables=0, num_records=1), r"num_observables must be in \[1, 16\]"),
            (dict(num_observables=2, num_records=-1), "num_records must be non-negative"),
            (dict(num_observables=2, num_records=1, seed=-1), "seed must be non-negative"),
            # the table rule is ExactJointTable's, which gen_classical builds before it draws
            (dict(num_observables=2, num_records=1, distribution=np.ones(4)),
             "probabilities must sum to 1"),
            (dict(num_observables=2, num_records=1, distribution=np.full(8, 0.125)),
             r"need 2\*\*2 probabilities, got 8"),
            (dict(num_observables=2, num_records=1, distribution=[-1e-13, 1.0, 0.0, 0.0]),
             "probabilities must be non-negative"),
        ],
        ids=["t-17", "t-0", "negative-records", "negative-seed", "sum", "size", "tiny-negative"],
    )
    def test_size_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            gen_classical(**kwargs)

    def test_nan_entry_rejected(self):
        # NaN passes the sign and sum checks, and would only fail in the sampler
        with pytest.raises(ValueError, match="distribution entries must be finite"):
            gen_classical(num_observables=1, num_records=1, distribution=[np.nan, 1.0])

    @pytest.mark.parametrize(
        "t, n", [(2, 10**20), (1, MAX_GENERATED_VALUES + 1)], ids=["beyond-int64", "cap+1"]
    )
    def test_oversized_dataset_is_refused_before_it_allocates(self, t, n):
        with pytest.raises(ValueError, match="num_records x num_observables must be at most"):
            gen_classical(t, n)


class TestQuantumGenerator:
    def test_equal_angles_give_identity_transitions(self):
        sample = gen_quantum(angles_deg=(30.0, 30.0), shots=200, seed=2)
        assert same_outcome_probability(30.0, 30.0) == 1.0
        t = pair_transition(sample.dataset, "a0", "a1")
        assert t.entries.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_trine_exact_parameters(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=0)
        params, _ = triple_params(sample.exact, ("a0", "a1", "a2"))
        for value in (params.p, params.q, params.r):
            assert value == pytest.approx(0.25, abs=1e-12)
        assert params.slack == pytest.approx(-0.25, abs=1e-12)

    def test_trine_empirical_parameters_within_tolerance(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=100000, seed=7)
        for a, b in itertools.combinations(("a0", "a1", "a2"), 2):
            t = pair_transition(sample.dataset, a, b)
            assert abs(t.symmetrized_param - 0.25) < 0.01

    def test_exact_trine_violates_and_is_infeasible(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=0)
        params, lp = feasibility_from_dataset(sample.exact, ("a0", "a1", "a2"))
        assert params.verdict == "contextual"
        assert params.slack == pytest.approx(-0.25, abs=1e-12)
        assert not lp.feasible
        assert lp.max_violation > 1e-3

    def test_transition_param_is_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = rng.uniform(0.0, 360.0, size=2)
            assert same_outcome_probability(a, b) == same_outcome_probability(b, a)

    def test_same_seed_is_byte_identical(self):
        a, b = (gen_quantum(angles_deg=(0.0, 45.0, 90.0), shots=500, seed=13) for _ in range(2))
        assert type(a) is Sample
        assert np.array_equal(a.dataset.first_value, b.dataset.first_value)
        assert np.array_equal(a.dataset.second_value, b.dataset.second_value)

    def test_pair_restriction(self):
        sample = gen_quantum(angles_deg=(0.0, 90.0, 180.0), shots=10, seed=1, pairs=((0, 2),))
        assert len(sample.dataset) == 10
        assert set(sample.dataset.first_index.tolist()) == {0}
        assert set(sample.dataset.second_index.tolist()) == {2}

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(angles_deg=(0.0,), shots=1), "need at least 2 measurement angles"),
            (dict(angles_deg=(0.0, 370.0), shots=1), r"angles must lie in \[0, 360\)"),
            (dict(angles_deg=(0.0, np.nan), shots=1), r"angles must lie in \[0, 360\)"),
            (dict(angles_deg=(0.0, 90.0), shots=-1), "shots must be non-negative"),
            (dict(angles_deg=(0.0, 90.0), shots=1, seed=-1), "seed must be non-negative"),
            (dict(angles_deg=(0.0, 90.0), shots=1, pairs=((0, 0),)),
             r"invalid measurement pair \(0, 0\)"),
            (dict(angles_deg=(0.0, 90.0), shots=1, pairs=((0, 2),)),
             r"invalid measurement pair \(0, 2\)"),
            (dict(angles_deg=(0.0, 90.0), shots=1, pairs=((0, 1), (1, 0))),
             r"pair \(1, 0\) is listed twice"),
        ],
        ids=["one-angle", "angle-370", "angle-nan", "negative-shots", "negative-seed",
             "self-pair", "pair-out-of-range", "pair-twice"],
    )
    def test_angle_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            gen_quantum(**kwargs)

    @pytest.mark.parametrize("shots", [10**16, MAX_GENERATED_VALUES + 1], ids=["71-PiB", "cap+1"])
    def test_oversized_pair_log_is_refused_before_it_allocates(self, shots):
        with pytest.raises(ValueError, match="logged pairs x shots must be at most"):
            gen_quantum((0.0, 90.0), shots)

    def test_logged_pairs_default_to_every_pair_and_keep_the_given_order(self):
        assert logged_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert logged_pairs(4, [(3, 0), (1, 2)]) == ((3, 0), (1, 2))
        sample = gen_quantum(angles_deg=(0.0, 90.0, 180.0, 270.0), shots=2, pairs=[(3, 0)])
        assert (sample.dataset.first_index.tolist(), sample.dataset.second_index.tolist()) == (
            [3, 3], [0, 0])

