from types import SimpleNamespace

import numpy as np
import pytest

from contextuality import hypergraph
from contextuality import (
    ContextHypergraph,
    ProblemTooLarge,
    SolverFailure,
    contingency_to_hypergraph,
    enumerate_two_valued_states,
    find_state,
    is_connected,
    state_is_unique,
    validate,
)
from oracles import phase_one_feasible

TRIANGLE = ContextHypergraph(
    atoms=("a", "b", "c"), contexts=(("a", "b"), ("b", "c"), ("c", "a"))
)
FIVE_CYCLE = ContextHypergraph(
    atoms=("a1", "a2", "a3", "a4", "a5"),
    contexts=(("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a5", "a1")),
)


class TestValidate:
    def test_minimal_hypergraph_is_valid(self):
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),))
        assert validate(h).ok

    def test_subset_context_reported(self):
        h = ContextHypergraph(atoms=("a", "b", "c"), contexts=(("a", "b"), ("a", "b", "c")))
        report = validate(h)
        assert not report.ok
        assert report.subset_contexts == ((("a", "b"), ("a", "b", "c")),)

    def test_uncovered_atom_reported(self):
        h = ContextHypergraph(atoms=("a", "b", "d"), contexts=(("a", "b"),))
        report = validate(h)
        assert report.uncovered_atoms == ("d",)

    def test_duplicates_reported_not_rejected(self):
        h = ContextHypergraph(
            atoms=("a", "b", "a"), contexts=(("a", "b"), ("b", "a"))
        )
        report = validate(h)
        assert report.duplicate_atoms == ("a",)
        assert report.duplicate_contexts == (("b", "a"),)

    def test_undersized_context_reported(self):
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a",), ("a", "b")))
        assert validate(h).undersized_contexts == (("a",),)

    def test_unknown_atom_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ContextHypergraph(atoms=("a",), contexts=(("a", "z"),))

    @pytest.mark.parametrize(
        "atoms, contexts, message",
        [
            (("a", ""), (("a",),), "atom ids must be non-empty"),
            (("a", "b"), (("a", "b"), ()), "contexts must be non-empty"),
        ],
    )
    def test_empty_atom_or_context_rejected_at_construction(self, atoms, contexts, message):
        with pytest.raises(ValueError, match=message):
            ContextHypergraph(atoms=atoms, contexts=contexts)


class TestFindState:
    def test_single_context_has_a_state(self):
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),))
        state = find_state(h)
        assert state is not None
        assert state.values["a"] + state.values["b"] == pytest.approx(1.0, abs=1e-9)

    def test_triangle_state_is_all_halves_and_unique(self):
        state = find_state(TRIANGLE)
        assert state is not None
        for atom in "abc":
            assert abs(state.values[atom] - 0.5) <= 1e-9
        assert state_is_unique(TRIANGLE)

    def test_five_cycle_state_is_all_halves(self):
        state = find_state(FIVE_CYCLE)
        assert state is not None
        for atom in FIVE_CYCLE.atoms:
            assert abs(state.values[atom] - 0.5) <= 1e-9

    def test_single_context_state_not_unique(self):
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),))
        assert not state_is_unique(h)

    @pytest.mark.parametrize(
        "contexts", ["ac bc", "ab ac bd", "ab ac cd", "ab bd cd", "ab bc cd ad"]
    )
    def test_state_segment_is_not_unique(self, contexts):
        # each has a one-parameter family of states, e.g. for "ac bc":
        # a = b = 1 - c for every c in [0, 1]
        contexts = tuple(tuple(c) for c in contexts.split())
        h = ContextHypergraph(atoms=tuple(sorted(set().union(*contexts))), contexts=contexts)
        assert find_state(h) is not None
        assert not state_is_unique(h)

    def test_uniqueness_of_no_state_is_undefined(self):
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a",), ("a", "b"), ("b",)))
        with pytest.raises(ValueError):
            state_is_unique(h)

    def test_empty_hypergraph_has_the_empty_state(self):
        h = ContextHypergraph(atoms=(), contexts=())
        assert find_state(h) == hypergraph.State({})
        assert state_is_unique(h)

    @pytest.mark.parametrize("solve", [find_state, state_is_unique])
    def test_duplicate_atom_ids_are_refused_before_solving(self, solve):
        h = ContextHypergraph(atoms=("a", "b", "a"), contexts=(("a", "b"),))
        with pytest.raises(ValueError, match="duplicate atom ids"):
            solve(h)

    @pytest.mark.parametrize(
        "result, message",
        [
            (SimpleNamespace(status=4, message="numerical difficulties"),
             "state solve failed: numerical difficulties"),
            # all zeros: every triangle context sums to 0, not 1
            (SimpleNamespace(status=0, x=np.zeros(3)), "fails independent recheck"),
        ],
        ids=["status", "recheck"],
    )
    def test_solver_breakdown_is_a_solver_failure(self, monkeypatch, result, message):
        monkeypatch.setattr(hypergraph, "linprog", lambda *args, **kwargs: result)
        with pytest.raises(SolverFailure, match=message):
            find_state(TRIANGLE)

    def test_infeasible_system_returns_none(self):
        # a = 1 and b = 1 contradict a + b = 1
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a",), ("a", "b"), ("b",)))
        assert find_state(h) is None

    def test_returned_states_satisfy_all_contexts(self):
        rng = np.random.default_rng(0)
        atoms = tuple(f"v{i}" for i in range(8))
        for _ in range(20):
            contexts = []
            for _ in range(4):
                size = int(rng.integers(2, 5))
                members = rng.choice(len(atoms), size=size, replace=False)
                contexts.append(tuple(atoms[i] for i in sorted(members)))
            h = ContextHypergraph(atoms=atoms, contexts=tuple(contexts))
            state = find_state(h)
            if state is not None:
                assert state.satisfies(h, tol=1e-9)
            if enumerate_two_valued_states(h, limit=1):
                # a two-valued state is a state, so one must be found
                assert state is not None

    def test_existence_agrees_with_the_oracle_on_random_hypergraphs(self):
        # zero contexts and uncovered atoms included: an atom outside every
        # context is unconstrained, and find_state gives it 0
        rng = np.random.default_rng(11)
        found = 0
        for trial in range(600):
            atoms = tuple(f"v{i}" for i in range(int(rng.integers(1, 25))))
            contexts = []
            for _ in range(int(rng.integers(0, 12))):
                size = int(rng.integers(1, min(5, len(atoms)) + 1))
                members = rng.choice(len(atoms), size=size, replace=False)
                contexts.append(tuple(atoms[i] for i in sorted(members)))
            h = ContextHypergraph(atoms=atoms, contexts=tuple(contexts))
            rows, _ = hypergraph._context_matrix(h)
            exists, _, _ = phase_one_feasible(rows, np.ones(len(rows)))
            state = find_state(h)
            assert (state is not None) == exists, (trial, h)
            if state is not None:
                found += 1
                assert state.satisfies(h, tol=hypergraph.STATE_TOL)
                covered = set().union(*contexts)
                assert all(state.values[a] == 0.0 for a in atoms if a not in covered)
        assert 0 < found < 600

    @pytest.mark.parametrize(
        "h, unique",
        [
            (FIVE_CYCLE, True),
            (contingency_to_hypergraph("A", "B"), False),
            (contingency_to_hypergraph("A", "B", split=True), False),
            # the triangle plus an atom outside every context, free in [0, 1]
            (ContextHypergraph(atoms=("a", "b", "c", "d"), contexts=TRIANGLE.contexts), False),
        ],
    )
    def test_uniqueness_verdicts(self, h, unique):
        assert state_is_unique(h) is unique

    def test_atom_cap(self):
        atoms = tuple(f"v{i}" for i in range(10001))
        h = ContextHypergraph(atoms=atoms, contexts=(atoms,))
        with pytest.raises(ProblemTooLarge):
            find_state(h)

    def test_uniqueness_atom_cap(self, monkeypatch):
        # two solves per atom, so the cap of find_state holds here too
        monkeypatch.setattr(hypergraph, "MAX_STATE_ATOMS", 3)
        assert state_is_unique(TRIANGLE)
        with pytest.raises(ProblemTooLarge, match="5 atoms exceed 3"):
            state_is_unique(FIVE_CYCLE)


class TestTwoValuedStates:
    def test_single_context_has_two(self):
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),))
        states = enumerate_two_valued_states(h)
        assert [s.values for s in states] == [{"a": 0, "b": 1}, {"a": 1, "b": 0}]

    def test_triangle_has_none(self):
        assert enumerate_two_valued_states(TRIANGLE) == []

    def test_five_cycle_has_none(self):
        assert enumerate_two_valued_states(FIVE_CYCLE) == []

    def test_every_enumerated_state_is_a_state(self):
        h = ContextHypergraph(
            atoms=("a", "b", "c", "d"),
            contexts=(("a", "b", "c"), ("c", "d")),
        )
        states = enumerate_two_valued_states(h)
        assert states
        for s in states:
            assert s.satisfies(h, tol=0.0)

    def test_two_valued_state_implies_probabilistic_state(self):
        cases = [
            ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),)),
            contingency_to_hypergraph("A", "B"),
            contingency_to_hypergraph("A", "B", split=True),
        ]
        for h in cases:
            if enumerate_two_valued_states(h):
                assert find_state(h) is not None

    def test_limit_truncates(self):
        h = contingency_to_hypergraph("A", "B")
        assert len(enumerate_two_valued_states(h, limit=2)) == 2

    @pytest.mark.parametrize("limit", [0, -2])
    def test_limit_below_one_is_rejected(self, limit):
        # an empty list would read as a Kochen-Specker-type obstruction
        h = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),))
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_two_valued_states(h, limit=limit)

    def test_relabeling_preserves_counts_and_state_existence(self):
        for h in (TRIANGLE, FIVE_CYCLE, contingency_to_hypergraph("A", "B")):
            mapping = {a: f"z_{a}" for a in h.atoms}
            relabeled = ContextHypergraph(
                atoms=tuple(mapping[a] for a in h.atoms),
                contexts=tuple(tuple(mapping[a] for a in c) for c in h.contexts),
            )
            assert len(enumerate_two_valued_states(h)) == len(
                enumerate_two_valued_states(relabeled)
            )
            assert (find_state(h) is None) == (find_state(relabeled) is None)

    def test_long_runs_of_satisfied_contexts_do_not_recurse(self):
        # 1,953 contexts {a0, ai, aj}: a0 true satisfies them all, and every
        # choice with a0 false dies; 1,200 copies of one context stay two states
        atoms = tuple(f"a{i}" for i in range(64))
        star = ContextHypergraph(
            atoms=atoms,
            contexts=tuple(("a0", a, b) for i, a in enumerate(atoms[1:], 1) for b in atoms[i + 1:]),
        )
        assert len(star.contexts) == 1953 and validate(star).ok
        states = enumerate_two_valued_states(star)
        assert [s.values for s in states] == [{a: int(a == "a0") for a in atoms}]
        copies = ContextHypergraph(atoms=("a", "b"), contexts=(("a", "b"),) * 1200)
        states = enumerate_two_valued_states(copies)
        assert [s.values for s in states] == [{"a": 0, "b": 1}, {"a": 1, "b": 0}]

    def test_enumeration_cap(self):
        atoms = tuple(f"v{i}" for i in range(65))
        h = ContextHypergraph(atoms=atoms, contexts=(atoms,))
        with pytest.raises(ProblemTooLarge):
            enumerate_two_valued_states(h)

    def test_matches_brute_force_on_random_hypergraphs(self):
        def brute_force(h):
            atoms = h.atoms
            states = []
            for mask in range(2 ** len(atoms)):
                values = {a: (mask >> k) & 1 for k, a in enumerate(atoms)}
                if all(sum(values[a] for a in set(c)) == 1 for c in h.contexts):
                    states.append(values)
            order = sorted(set(atoms))
            states.sort(key=lambda v: tuple(v[a] for a in order))
            return states

        rng = np.random.default_rng(7)
        for trial in range(60):
            num_atoms = int(rng.integers(3, 11))
            names = tuple(f"v{i}" for i in range(num_atoms))
            contexts = []
            for _ in range(int(rng.integers(1, 6))):
                size = int(rng.integers(2, min(5, num_atoms) + 1))
                members = rng.choice(num_atoms, size=size, replace=False)
                contexts.append(tuple(names[i] for i in sorted(members)))
            # keep only covered atoms so every enumerated value is pinned
            atoms = tuple(a for a in names if any(a in c for c in contexts))
            h = ContextHypergraph(atoms=atoms, contexts=tuple(contexts))
            expected = brute_force(h)
            got = [s.values for s in enumerate_two_valued_states(h)]
            assert got == expected, (trial, h)


class TestContingency:
    def test_classical_table_is_one_context_with_four_states(self):
        h = contingency_to_hypergraph("A", "B")
        assert len(h.atoms) == 4
        assert len(h.contexts) == 1
        assert len(enumerate_two_valued_states(h)) == 4
        assert is_connected(h)

    def test_split_variant_is_unpasted_with_four_states(self):
        h = contingency_to_hypergraph("A", "B", split=True)
        assert len(h.contexts) == 2
        assert len(enumerate_two_valued_states(h)) == 4  # 2 x 2 independent
        assert not is_connected(h)

    def test_triangle_from_overlapping_binary_contexts_obstructs(self):
        assert enumerate_two_valued_states(TRIANGLE) == []
