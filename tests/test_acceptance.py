"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they complete.
"""

import io
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from contextuality import (
    ContextHypergraph,
    SamplingPlan,
    TripleParams,
    bistochastic_triple_problem,
    decide_feasibility,
    enumerate_two_valued_states,
    find_state,
    pair_transition,
)
from contextuality.cli import cli_main
from contextuality.feasibility import JointFeasibilityProblem
from contextuality.generators import gen_classical, gen_quantum
from contextuality.personalization import evaluate_triples, sample_triples, summarize

from oracles import pair_marginal

GRID = np.linspace(0.0, 1.0, 21)
SLACK_BAND = 1e-6
FEAS_TOL = 1e-8


def _params(p, q, r):
    return TripleParams(("A", "B", "C"), p, q, r, True, (0.0, 0.0, 0.0))


def _grid_chunk(points):
    """(checked, agreements) for a chunk of (p, q, r) grid points."""
    checked = agreements = 0
    for p, q, r in points:
        verdict = _params(p, q, r)
        if abs(verdict.slack) <= SLACK_BAND:
            continue
        lp = decide_feasibility(bistochastic_triple_problem(p, q, r, FEAS_TOL))
        checked += 1
        agreements += lp.feasible == (verdict.verdict == "classical")
    return checked, agreements


def test_c1_accardi_lp_equivalence_on_grid():
    points = [(p, q, r) for p in GRID for q in GRID for r in GRID]
    chunks = [points[i::8] for i in range(8)]
    start = time.time()
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_grid_chunk, chunks))
    except (OSError, RuntimeError):  # no fork available: run serially
        results = [_grid_chunk(chunk) for chunk in chunks]
    elapsed = time.time() - start
    checked = sum(c for c, _ in results)
    agreements = sum(a for _, a in results)
    print(
        f"\n[{'PASS' if checked == agreements else 'FAIL'}] criterion 1: "
        f"Accardi<->LP agree on {agreements}/{checked} off-boundary grid points "
        f"({len(points) - checked} boundary points excluded) in {elapsed:.1f}s"
    )
    assert checked > 8000
    assert agreements == checked
    assert elapsed < 60.0


def test_c2_verdict_invariant_under_permutations():
    disagreements = 0
    checked = 0
    for p, q, r in itertools.product(GRID, repeat=3):
        verdicts = {
            _params(*perm).verdict
            for perm in itertools.permutations((p, q, r))
        }
        checked += 1
        disagreements += len(verdicts) != 1
    print(
        f"\n[{'PASS' if disagreements == 0 else 'FAIL'}] criterion 2: "
        f"verdict permutation-invariant on {checked} grid points, "
        f"{disagreements} disagreements"
    )
    assert disagreements == 0


def test_c3_classical_soundness():
    sample = gen_classical(num_observables=6, num_records=100000, seed=3)
    plan = SamplingPlan(mode="exhaustive")

    triples = sample_triples(sample.exact.observables, plan)
    exact_reports = evaluate_triples(sample.exact, triples, plan)
    exact = summarize(exact_reports)
    assert len(triples) == 20
    for report in exact_reports:
        assert report.lp.feasible, report.ids
        assert report.params.verdict in ("classical", "not_applicable"), report.ids
    assert exact.pers_lp == 0.0

    empirical_reports = evaluate_triples(sample.dataset, triples, plan)
    empirical = summarize(empirical_reports)
    assert empirical.pers_lp == 0.0
    boundary_only = all(
        abs(r.params.slack) < 0.02
        for r in empirical_reports
        if r.params is not None and r.params.verdict == "contextual"
    )
    assert boundary_only
    print(
        "\n[PASS] criterion 3: classical T=6 exact: 20/20 LP-feasible, "
        f"{exact.applicable} applicable all classical, pers_lp=0; "
        f"empirical N=100000: pers_lp={empirical.pers_lp}, "
        f"accardi violations boundary-adjacent: {boundary_only}"
    )


def test_c4_quantum_completeness():
    start = time.time()
    exact_sample = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=0)
    plan = SamplingPlan(mode="exhaustive")
    triples = sample_triples(exact_sample.exact.observables, plan)
    reports = evaluate_triples(exact_sample.exact, triples, plan)
    estimate = summarize(reports)
    report = reports[0]
    for value in (report.params.p, report.params.q, report.params.r):
        assert abs(value - 0.25) <= 1e-12
    assert abs(report.params.slack - (-0.25)) <= 1e-12
    assert not report.lp.feasible
    assert report.lp.max_violation > 1e-3
    assert estimate.pers_accardi == 1.0

    empirical = gen_quantum(angles_deg=(0.0, 120.0, 240.0), shots=100000, seed=7)
    worst = 0.0
    for a, b in itertools.combinations(("a0", "a1", "a2"), 2):
        t = pair_transition(empirical.dataset, a, b)
        worst = max(worst, abs(t.symmetrized_param - 0.25))
    elapsed = time.time() - start
    assert worst < 0.01
    assert elapsed < 5.0
    print(
        f"\n[PASS] criterion 4: trine exact p=q=r=0.25, slack=-0.25, LP residual "
        f"{report.lp.max_violation:.4f} > 1e-3, pers_accardi=1; empirical worst "
        f"|p-0.25|={worst:.4f} < 0.01; {elapsed:.1f}s"
    )


def test_c5_greechie_fixtures():
    start = time.time()
    pair = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),))
    assert len(enumerate_two_valued_states(pair)) == 2

    triangle = ContextHypergraph(
        atoms=("a", "b", "c"), contexts=(("a", "b"), ("b", "c"), ("c", "a"))
    )
    state = find_state(triangle)
    assert state is not None
    assert max(abs(state.values[a] - 0.5) for a in "abc") <= 1e-9
    assert enumerate_two_valued_states(triangle) == []

    cycle = ContextHypergraph(
        atoms=("a1", "a2", "a3", "a4", "a5"),
        contexts=(("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a5", "a1")),
    )
    state = find_state(cycle)
    assert state is not None
    assert max(abs(v - 0.5) for v in state.values.values()) <= 1e-9
    assert enumerate_two_valued_states(cycle) == []
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(
        f"\n[PASS] criterion 5: pair=2 two-valued states; triangle and 5-cycle have "
        f"all-0.5 states and 0 two-valued states; {elapsed:.2f}s"
    )


def test_c6_witness_validity_and_residuals():
    rng = np.random.default_rng(2024)
    worst_witness_gap = 0.0
    for _ in range(1000):
        joint = rng.dirichlet(np.ones(8))
        tables = {
            pair: pair_marginal(joint, 3, 2, pair) for pair in [(0, 1), (0, 2), (1, 2)]
        }
        result = decide_feasibility(JointFeasibilityProblem(3, 2, tables, tolerance=FEAS_TOL))
        assert result.feasible
        for pair, table in tables.items():
            gap = float(np.abs(pair_marginal(result.witness, 3, 2, pair) - table).max())
            worst_witness_gap = max(worst_witness_gap, gap)
            assert gap <= FEAS_TOL

    min_residual = np.inf
    produced = 0
    while produced < 1000:
        p, q, r = rng.random(3)
        slack = min(r - abs(p + q - 1.0), 1.0 - abs(p - q) - r)
        if slack >= -1e-4:
            continue  # not a robust violation of the invariants
        result = decide_feasibility(bistochastic_triple_problem(p, q, r, FEAS_TOL))
        assert not result.feasible, (p, q, r)
        assert result.max_violation > 1e-6
        min_residual = min(min_residual, result.max_violation)
        produced += 1
    print(
        f"\n[PASS] criterion 6: 1000 witnesses re-marginalize within 1e-8 (worst gap "
        f"{worst_witness_gap:.2e}); 1000 violating problems all have residual > 1e-6 "
        f"(smallest {min_residual:.2e})"
    )


def test_c7_report_determinism(tmp_path):
    gen_code = cli_main(
        ["gen", "quantum", "--angles", "0,120,240", "--n", "20000", "--seed", "7",
         "--out", str(tmp_path / "d")],
        out=io.StringIO(), err=io.StringIO(),
    )
    assert gen_code == 0
    outputs = []
    for name in ("a.json", "b.json", "c.json"):
        out_path = tmp_path / name
        code = cli_main(
            ["pers", "--input", str(tmp_path / "d" / "pairs"), "--input-format", "pairlog",
             "--mode", "exhaustive", "--seed", "11", "--out", str(out_path)],
            out=io.StringIO(), err=io.StringIO(),
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    assert identical
    body = json.loads(outputs[0])["report"]
    assert body["pers"]["pers_accardi"] == 1.0
    print(
        "\n[PASS] criterion 7: pers report bodies byte-identical across three repeated runs"
    )
