import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    JointRecordDataset,
    ObservableSet,
    ProblemTooLarge,
    SampleExceedsPopulation,
    SamplingPlan,
    TooFewObservables,
    analyze,
    sample_triples,
    wilson_interval,
)
from contextuality.generators import gen_classical, gen_quantum
from contextuality.personalization import evaluate_triples, summarize


def observable_set(t):
    return ObservableSet.from_ids([f"o{i}" for i in range(t)])


class TestSampleTriples:
    def test_exhaustive_single_triple(self):
        triples = sample_triples(observable_set(3), SamplingPlan(mode="exhaustive"))
        assert triples == [("o0", "o1", "o2")]

    def test_exhaustive_counts_and_order(self):
        triples = sample_triples(observable_set(6), SamplingPlan(mode="exhaustive"))
        assert len(triples) == 20
        expected = list(itertools.combinations([f"o{i}" for i in range(6)], 3))
        assert triples == expected

    def test_without_replacement_is_deterministic_and_distinct(self):
        plan = SamplingPlan(num_triples=50, seed=123)
        obs = observable_set(100)
        first = sample_triples(obs, plan)
        second = sample_triples(obs, plan)
        assert first == second
        assert len(first) == 50
        assert len(set(first)) == 50
        for a, b, c in first:
            assert obs.index_of(a) < obs.index_of(b) < obs.index_of(c)

    def test_seed_changes_sample(self):
        base = sample_triples(observable_set(100), SamplingPlan(num_triples=50, seed=1))
        other = sample_triples(observable_set(100), SamplingPlan(num_triples=50, seed=2))
        assert base != other

    def test_default_size_is_min_of_population_and_1000(self):
        assert len(sample_triples(observable_set(6), SamplingPlan())) == 20
        assert len(sample_triples(observable_set(30), SamplingPlan())) == 1000

    def test_too_few_observables(self):
        with pytest.raises(TooFewObservables):
            sample_triples(observable_set(2), SamplingPlan())

    def test_sample_exceeds_population(self):
        with pytest.raises(SampleExceedsPopulation):
            sample_triples(observable_set(4), SamplingPlan(num_triples=5))

    def test_exhaustive_cap(self):
        with pytest.raises(ProblemTooLarge):
            sample_triples(observable_set(100), SamplingPlan(mode="exhaustive"))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mode": "bogus"}, "unknown sampling mode"),
            ({"num_triples": -1}, "non-negative"),
            ({"num_triples": -1, "mode": "with_replacement"}, "non-negative"),
            # sampling builds the whole list of triples, so every mode is capped
            ({"num_triples": 10**5 + 1}, "at most 100000"),
            ({"num_triples": 10**9, "mode": "with_replacement"}, "at most 100000"),
            ({"num_triples": 5, "mode": "exhaustive"}, "exhaustive"),
            ({"num_triples": 0, "mode": "exhaustive"}, "exhaustive"),
            ({"num_triples": True}, "integer"),
            ({"num_triples": 2.5}, "integer"),
            # random.seed(-3) samples the triples of seed 3
            ({"seed": -3}, "seed must be a non-negative integer"),
            ({"seed": 1.5}, "seed must be a non-negative integer"),
            ({"seed": True}, "seed must be a non-negative integer"),
            ({"seed": "x"}, "seed must be a non-negative integer"),
            # 4 * smoothing, added to every pair total, would overflow
            ({"smoothing": 1e308}, "smoothing overflows a pair total"),
        ],
    )
    def test_plan_rejects_bad_sampling_settings_when_constructed(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SamplingPlan(**fields)

    @given(t=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_with_replacement_draws_valid_triples(self, t, seed):
        obs = observable_set(t)
        plan = SamplingPlan(num_triples=20, mode="with_replacement", seed=seed)
        names = obs.ids()
        for a, b, c in sample_triples(obs, plan):
            ia, ib, ic = names.index(a), names.index(b), names.index(c)
            assert ia < ib < ic


class TestWilson:
    @given(total=st.integers(0, 10**6), frac=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_interval_contains_point_estimate(self, total, frac):
        successes = int(round(total * frac))
        low, high = wilson_interval(successes, total)
        assert 0.0 <= low <= high <= 1.0
        if total:
            assert low <= successes / total <= high

    def test_empty_denominator_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestEstimatePers:
    def test_identical_columns_are_boundary_classical(self):
        rng = np.random.default_rng(4)
        col = rng.integers(0, 2, size=100)
        records = np.stack([col, col, col, col], axis=1)
        dataset = JointRecordDataset(observable_set(4), records.astype(np.uint8))
        estimate = analyze(dataset, SamplingPlan(mode="exhaustive")).pers
        assert estimate.applicable == 4
        assert estimate.pers_accardi == 0.0
        assert estimate.pers_lp == 0.0

    def test_classical_exact_mode_is_zero_for_any_plan(self):
        sample = gen_classical(num_observables=5, num_records=0, seed=2)
        plans = [
            SamplingPlan(mode="exhaustive"),
            SamplingPlan(num_triples=5, seed=0),
            SamplingPlan(num_triples=30, mode="with_replacement", seed=77),
        ]
        for plan in plans:
            estimate = analyze(sample.exact, plan).pers
            assert estimate.pers_lp == 0.0
            assert estimate.violations == (0, 0)

    def test_trine_pairlog_gives_pers_accardi_one(self):
        sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=100000, seed=7)
        estimate = analyze(sample.dataset, SamplingPlan(mode="exhaustive")).pers
        assert estimate.sampled == 1
        assert estimate.applicable == 1
        assert estimate.pers_accardi == 1.0
        assert estimate.pers_lp == 1.0

    def test_missing_pairs_are_skipped_and_reported(self):
        sample = gen_quantum(
            angles_deg=(0.0, 90.0, 180.0), shots=100, seed=1, pairs=((0, 1), (1, 2))
        )
        estimate = analyze(sample.dataset, SamplingPlan(mode="exhaustive")).pers
        assert estimate.sampled == 1
        assert estimate.skipped == 1
        assert estimate.decided == 0

    def test_bitwise_determinism_across_runs(self):
        sample = gen_classical(num_observables=6, num_records=5000, seed=3)
        plan = SamplingPlan(num_triples=15, seed=5)
        results = [analyze(sample.dataset, plan).pers for _ in range(3)]
        assert results[0] == results[1] == results[2]

    def test_with_replacement_matches_exhaustive_within_three_halfwidths(self):
        sample = gen_classical(num_observables=6, num_records=0, seed=3)
        exhaustive = analyze(sample.exact, SamplingPlan(mode="exhaustive")).pers
        drawn = analyze(
            sample.exact, SamplingPlan(num_triples=10000, mode="with_replacement", seed=9),
        ).pers
        for attr in ("pers_lp", "pers_accardi"):
            point = getattr(drawn, attr)
            ci = drawn.ci95_lp if attr == "pers_lp" else drawn.ci95_accardi
            half = (ci[1] - ci[0]) / 2.0
            assert abs(point - getattr(exhaustive, attr)) <= 3 * half + 1e-12

    def test_summary_tallies_are_consistent(self):
        sample = gen_quantum(angles_deg=(0.0, 60.0, 120.0, 240.0), shots=2000, seed=3)
        plan = SamplingPlan(mode="exhaustive")
        triples = sample_triples(sample.dataset.observables, plan)
        reports = evaluate_triples(sample.dataset, triples, plan)
        estimate = summarize(reports)
        assert estimate.sampled == len(reports) == 4
        assert estimate.decided == estimate.sampled - estimate.skipped
        assert estimate.violations[0] <= estimate.applicable
        assert estimate.violations[1] <= estimate.decided
        assert estimate.ci95_accardi[0] <= estimate.pers_accardi <= estimate.ci95_accardi[1]
        assert estimate.ci95_lp[0] <= estimate.pers_lp <= estimate.ci95_lp[1]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"pers_accardi": 1.5}, "ratios must lie in"),
            ({"pers_lp": -0.5}, "ratios must lie in"),
            ({"violations": (1, 0)}, "violation counts exceed"),
            ({"violations": (0, 1)}, "violation counts exceed"),
        ],
    )
    def test_estimate_rejects_inconsistent_tallies(self, fields, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(summarize([]), **fields)
