import itertools

import numpy as np
import pytest

from contextuality import (
    ExactQuantumModel,
    JointRecordDataset,
    ObservableSet,
    TripleParams,
    bistochastic_triple_problem,
    decide_feasibility,
    triple_params,
)


def params(p, q, r, applicable=True):
    return TripleParams(
        observables=("A", "B", "C"),
        p=p,
        q=q,
        r=r,
        applicable=applicable,
        deviations=(0.0, 0.0, 0.0),
    )


def test_uniform_triple_is_classical():
    verdict = params(0.5, 0.5, 0.5)
    assert verdict.verdict == "classical"
    assert verdict.slack == 0.5


def test_transitivity_contradiction_is_contextual():
    # A tracks B and B tracks C perfectly, yet C never tracks A
    verdict = params(1.0, 1.0, 0.0)
    assert verdict.verdict == "contextual"
    assert verdict.slack == -1.0


def test_trine_parameters_are_contextual_and_lp_confirms():
    verdict = params(0.25, 0.25, 0.25)
    assert verdict.verdict == "contextual"
    assert verdict.slack == pytest.approx(-0.25)
    lp = decide_feasibility(bistochastic_triple_problem(0.25, 0.25, 0.25))
    assert not lp.feasible


def test_boundary_case_counts_as_classical():
    verdict = params(0.9, 0.9, 0.8)
    assert verdict.verdict == "classical"
    assert verdict.slack == pytest.approx(0.0, abs=1e-12)
    lp = decide_feasibility(bistochastic_triple_problem(0.9, 0.9, 0.8))
    assert lp.feasible


def test_slack_past_the_rounding_margin_is_contextual():
    # 1e-7 past the boundary is far outside EQUALITY_TOL (1e-9), which absorbs rounding only
    verdict = params(0.75, 0.75, 0.5 - 1e-7)
    assert verdict.slack == pytest.approx(-1e-7, rel=1e-6)
    assert verdict.verdict == "contextual"


def test_deviation_exactly_at_the_tolerance_is_applicable():
    # C copies B, so P(A|B) and P(C|A) each have diagonal entries 3/4 and 1/2:
    # a bistochastic deviation of exactly 0.25, with no rounding
    rows = [(0, 0, 0)] * 3 + [(1, 0, 0), (1, 1, 1), (0, 1, 1)]
    source = JointRecordDataset(ObservableSet.from_ids(["A", "B", "C"]), rows)
    at_tol, _ = triple_params(source, ("A", "B", "C"), bistochastic_tol=0.25)
    assert at_tol.deviations == (0.25, 0.0, 0.25)
    assert at_tol.applicable
    below_tol, _ = triple_params(source, ("A", "B", "C"), bistochastic_tol=0.2499)
    assert not below_tol.applicable


def test_not_applicable_still_reports_slack():
    verdict = params(0.25, 0.25, 0.25, applicable=False)
    assert verdict.verdict == "not_applicable"
    assert verdict.slack == pytest.approx(-0.25)


GRID = np.linspace(0.0, 1.0, 11)


def test_verdict_invariant_under_parameter_permutations():
    for p, q, r in itertools.product(GRID, repeat=3):
        verdicts = {
            params(*perm).verdict
            for perm in itertools.permutations((p, q, r))
        }
        assert len(verdicts) == 1, (p, q, r, verdicts)


def test_verdict_invariant_under_outcome_relabelings():
    # relabeling one observable's outcomes flips two of the parameters
    for p, q, r in itertools.product(GRID, repeat=3):
        base = params(p, q, r).verdict
        assert params(1 - p, 1 - q, r).verdict == base
        assert params(p, 1 - q, 1 - r).verdict == base
        assert params(1 - p, q, 1 - r).verdict == base


def test_parameters_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        params(1.2, 0.5, 0.5)


@pytest.mark.parametrize("ids", [("A", "A", "B"), ("A", "B", "A"), ("C", "C", "C")])
def test_triple_params_needs_three_distinct_ids(ids):
    source = ExactQuantumModel(ObservableSet.from_ids(["A", "B", "C"]), (0.0, 120.0, 240.0))
    with pytest.raises(ValueError, match="three distinct observables"):
        triple_params(source, ids)
