"""Pasted overlapping contexts as hypergraphs, and their states.

Atoms are elementary outcomes; a context is a set of atoms forming one
local sample space.  Pasting contexts that share atoms yields a
combinatorial structure (a Greechie-style diagram / test space) on which
classical probability may or may not survive globally:

* a *state* assigns each atom a probability so that every context sums
  to 1, a point of {A x = 1, 0 <= x <= 1} with A the context-by-atom
  incidence matrix: the one LP model of every state question here;
* a *two-valued state* assigns 0/1 with exactly one 1 per context; its
  non-existence is a Kochen-Specker-type obstruction.

Contexts of size 2 and cycles of any length are permitted here, although
strict Greechie diagrams for orthomodular structures forbid short cycles:
validation reports structural oddities instead of forbidding them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import ProblemTooLarge, SolverFailure

STATE_TOL = 1e-9
MAX_STATE_ATOMS = 10**4
MAX_ENUMERATION_ATOMS = 64


@dataclass(frozen=True)
class ContextHypergraph:
    """Atoms plus contexts (subsets of atoms).

    Construction only requires well-formedness (contexts reference
    declared atoms and are non-empty); the structural invariants
    (coverage, no subset contexts, uniqueness, context size >= 2) are
    checked by :func:`validate`, which reports rather than rejects.
    """

    atoms: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        known = set(atoms)
        if not all(atoms):
            raise ValueError("atom ids must be non-empty")
        contexts = []
        for context in self.contexts:
            members = tuple(context)
            if not members:
                raise ValueError("contexts must be non-empty")
            unknown = [m for m in members if m not in known]
            if unknown:
                raise ValueError(f"context references undeclared atoms: {unknown}")
            contexts.append(members)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "contexts", tuple(contexts))


@dataclass(frozen=True)
class ValidationReport:
    """Structural findings; ``ok`` means every invariant holds."""

    uncovered_atoms: tuple[str, ...]
    subset_contexts: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    duplicate_atoms: tuple[str, ...]
    duplicate_contexts: tuple[tuple[str, ...], ...]
    undersized_contexts: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.issues()

    def issues(self) -> list[str]:
        return (
            [f"atom {atom!r} belongs to no context" for atom in self.uncovered_atoms]
            + [f"context {small} is a subset of {big}" for small, big in self.subset_contexts]
            + [f"duplicate atom id {atom!r}" for atom in self.duplicate_atoms]
            + [f"duplicate context {context}" for context in self.duplicate_contexts]
            + [f"context {context} has fewer than 2 atoms" for context in self.undersized_contexts]
        )


@dataclass(frozen=True)
class State:
    """Probabilities on atoms summing to 1 in every context."""

    values: dict[str, float]

    def satisfies(self, hypergraph: ContextHypergraph, tol: float = STATE_TOL) -> bool:
        for context in hypergraph.contexts:
            total = sum(self.values[a] for a in set(context))
            if abs(total - 1.0) > tol:
                return False
        return all(-tol <= v <= 1.0 + tol for v in self.values.values())


@dataclass(frozen=True)
class TwoValuedState:
    """A 0/1 state: exactly one atom valued 1 in every context."""

    values: dict[str, int]

    def as_state(self) -> State:
        return State({a: float(v) for a, v in self.values.items()})


def validate(hypergraph: ContextHypergraph) -> ValidationReport:
    """Report all structural invariant violations without rejecting."""
    covered = set().union(*hypergraph.contexts)
    uncovered = tuple(a for a in hypergraph.atoms if a not in covered)

    seen_atoms, dup_atoms = set(), []
    for atom in hypergraph.atoms:
        if atom in seen_atoms and atom not in dup_atoms:
            dup_atoms.append(atom)
        seen_atoms.add(atom)

    as_sets = [frozenset(c) for c in hypergraph.contexts]
    seen_ctx, dup_ctx = set(), []
    for context, members in zip(hypergraph.contexts, as_sets):
        if members in seen_ctx:
            dup_ctx.append(context)
        seen_ctx.add(members)

    subsets = []
    for i, small in enumerate(as_sets):
        for j, big in enumerate(as_sets):
            if i != j and small < big:
                subsets.append((hypergraph.contexts[i], hypergraph.contexts[j]))

    undersized = tuple(c for c in hypergraph.contexts if len(set(c)) < 2)
    return ValidationReport(
        uncovered_atoms=uncovered,
        subset_contexts=tuple(subsets),
        duplicate_atoms=tuple(dup_atoms),
        duplicate_contexts=tuple(dup_ctx),
        undersized_contexts=undersized,
    )


def _context_matrix(hypergraph: ContextHypergraph) -> tuple[np.ndarray, dict[str, int]]:
    """Context-by-atom incidence rows and atom columns, after the atom cap."""
    if len(hypergraph.atoms) > MAX_STATE_ATOMS:
        raise ProblemTooLarge(f"{len(hypergraph.atoms)} atoms exceed {MAX_STATE_ATOMS}")
    index = {atom: k for k, atom in enumerate(hypergraph.atoms)}
    if len(index) != len(hypergraph.atoms):
        raise ValueError("duplicate atom ids; fix the hypergraph before solving")
    rows = np.zeros((len(hypergraph.contexts), len(hypergraph.atoms)))
    for r, context in enumerate(hypergraph.contexts):
        for atom in set(context):
            rows[r, index[atom]] = 1.0
    return rows, index


def find_state(hypergraph: ContextHypergraph) -> State | None:
    """A probability assignment satisfying every context sum, or None.

    The state LP that :func:`state_is_unique` probes, with a zero cost;
    atoms outside every context get 0.

    Raises:
        ProblemTooLarge: more than 10**4 atoms (``_context_matrix``).
        SolverFailure: the solve breaks down, or its state fails the recheck.
    """
    rows, index = _context_matrix(hypergraph)
    if not index:  # no atoms, so no contexts; linprog rejects a model without variables
        return State({})
    x = _solve_with_objective(rows, np.zeros(rows.shape[1]))
    if x is None:
        return None
    x[~rows.any(axis=0)] = 0.0
    state = State({atom: float(x[k]) for atom, k in index.items()})
    if not state.satisfies(hypergraph):
        raise SolverFailure("solver returned a state that fails independent recheck")
    return state


def state_is_unique(hypergraph: ContextHypergraph) -> bool:
    """True when exactly one state exists, up to ``STATE_TOL``: each atom's
    least and greatest value over all states agree within ``STATE_TOL``
    (two solves per atom, stopping at the first atom that can vary).

    Raises:
        ValueError: no state exists, so uniqueness is undefined.
        ProblemTooLarge: more than 10**4 atoms (``_context_matrix``).
    """
    rows, _ = _context_matrix(hypergraph)
    for k in range(rows.shape[1]):
        cost = np.zeros(rows.shape[1])
        cost[k] = 1.0
        low, high = (_solve_with_objective(rows, s * cost) for s in (1, -1))
        if low is None:
            raise ValueError("no state exists; uniqueness is undefined")
        if high[k] - low[k] > STATE_TOL:
            return False
    return True


def _solve_with_objective(rows, cost) -> np.ndarray | None:
    """A state minimizing ``cost``, or None when no state exists."""
    result = linprog(cost, A_eq=rows, b_eq=np.ones(len(rows)), bounds=(0, 1), method="highs")
    if result.status == 2:
        return None
    if result.status != 0:
        raise SolverFailure(f"state solve failed: {result.message}")
    return result.x


def enumerate_two_valued_states(
    hypergraph: ContextHypergraph, limit: int | None = None
) -> list[TwoValuedState]:
    """All 0/1 states with exactly one atom true per context.

    Exhaustive backtracking, deterministic: contexts are visited in
    declaration order; a context holding no true atom tries each of its
    atoms not yet false as the true one, in sorted order, and setting an
    atom true sets every atom sharing a context with it false.  The first
    ``limit`` states found are kept, and the returned list is sorted
    lexicographically by the value vector over atom ids.  An empty result
    certifies a Kochen-Specker-type obstruction at the 0/1 level.

    Atoms outside every context are pinned to 0, so enumeration is
    meaningful primarily for hypergraphs that validate.

    Raises:
        ValueError: ``limit`` is below 1, which could only return the
            empty list that certifies an obstruction.
        ProblemTooLarge: more than 64 atoms.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    atoms = hypergraph.atoms
    if len(atoms) > MAX_ENUMERATION_ATOMS:
        raise ProblemTooLarge(f"{len(atoms)} atoms exceed {MAX_ENUMERATION_ATOMS}")
    contexts = [frozenset(c) for c in hypergraph.contexts]
    neighbours = {a: frozenset().union(*(c for c in contexts if a in c)) - {a} for a in atoms}
    found: list[frozenset[str]] = []

    def search(ci: int, true: frozenset[str], false: frozenset[str]):
        if limit is not None and len(found) >= limit:
            return
        if ci == len(contexts):
            found.append(true)
        elif contexts[ci] & true:
            search(ci + 1, true, false)
        else:
            for chosen in sorted(contexts[ci] - false):
                search(ci + 1, true | {chosen}, false | neighbours[chosen])

    search(0, frozenset(), frozenset())
    ordered_ids = sorted(set(atoms))
    found.sort(key=lambda true: tuple(a in true for a in ordered_ids))
    return [TwoValuedState({a: int(a in true) for a in atoms}) for true in found]


def is_connected(hypergraph: ContextHypergraph) -> bool:
    """True when the contexts form one pasted component via shared atoms."""
    contexts = [set(c) for c in hypergraph.contexts]
    if len(contexts) <= 1:
        return True
    remaining, stack = set(range(1, len(contexts))), [0]
    while stack:
        current = stack.pop()
        linked = [i for i in remaining if contexts[i] & contexts[current]]
        remaining.difference_update(linked)
        stack += linked
    return not remaining


def contingency_to_hypergraph(
    relevant_id: str = "A", retrieved_id: str = "B", split: bool = False
) -> ContextHypergraph:
    """Hypergraph form(s) of the classical 2x2 contingency table.

    Default: the degenerate classical picture, four intersection atoms
    in a single context (one sample space of four points).  With
    ``split=True``: two separate binary contexts, one per observable,
    sharing no atoms, i.e. an unpasted pair (see :func:`is_connected`).
    """
    a, b = relevant_id, retrieved_id
    if split:
        atoms = (a, f"~{a}", b, f"~{b}")
        contexts = ((a, f"~{a}"), (b, f"~{b}"))
    else:
        atoms = (f"{a}&{b}", f"{a}&~{b}", f"~{a}&{b}", f"~{a}&~{b}")
        contexts = (atoms,)
    return ContextHypergraph(atoms=atoms, contexts=contexts)
