"""Quantify non-classical (contextual) correlations in binary-observable data.

The pipeline: estimate pairwise transition probabilities from joint
records or pair logs, test single-sample-space representability both in
closed form (Accardi invariants, bistochastic triples) and exactly
(linear feasibility over the product sample space), model pasted
contexts as hypergraphs, and aggregate the personalization rate over
randomly sampled triples.
"""

from .accardi import TripleParams, triple_params
from .datasets import (
    ExactJointTable,
    ExactQuantumModel,
    JointRecordDataset,
    PairLogDataset,
    same_outcome_probability,
)
from .errors import (
    ContextualityError,
    DataError,
    EmptyPairData,
    HeaderMismatch,
    NonBinaryValue,
    ParseError,
    ProblemTooLarge,
    SampleExceedsPopulation,
    SolverFailure,
    TooFewObservables,
    UnknownObservable,
    ZeroConditioningRow,
)
from .feasibility import (
    FeasibilityResult,
    JointFeasibilityProblem,
    bistochastic_triple_problem,
    build_problem,
    decide_feasibility,
    feasibility_from_dataset,
)
from .generators import Sample, gen_classical, gen_quantum
from .hypergraph import (
    ContextHypergraph,
    State,
    ValidationReport,
    contingency_to_hypergraph,
    enumerate_two_valued_states,
    find_state,
    is_connected,
    state_is_unique,
    validate,
)
from .observables import ObservableSet
from .personalization import (
    PersEstimate,
    SamplingPlan,
    TripleReport,
    sample_triples,
    wilson_interval,
)
from .reports import AnalysisReport, analyze, write_report
from .transitions import TransitionMatrix, pair_transition

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ContextHypergraph",
    "ContextualityError",
    "DataError",
    "EmptyPairData",
    "ExactJointTable",
    "ExactQuantumModel",
    "FeasibilityResult",
    "HeaderMismatch",
    "JointFeasibilityProblem",
    "JointRecordDataset",
    "NonBinaryValue",
    "ObservableSet",
    "PairLogDataset",
    "ParseError",
    "PersEstimate",
    "ProblemTooLarge",
    "Sample",
    "SampleExceedsPopulation",
    "SamplingPlan",
    "SolverFailure",
    "State",
    "TooFewObservables",
    "TransitionMatrix",
    "TripleParams",
    "TripleReport",
    "UnknownObservable",
    "ValidationReport",
    "ZeroConditioningRow",
    "analyze",
    "bistochastic_triple_problem",
    "build_problem",
    "contingency_to_hypergraph",
    "decide_feasibility",
    "enumerate_two_valued_states",
    "feasibility_from_dataset",
    "find_state",
    "gen_classical",
    "gen_quantum",
    "is_connected",
    "pair_transition",
    "same_outcome_probability",
    "sample_triples",
    "state_is_unique",
    "triple_params",
    "validate",
    "wilson_interval",
    "write_report",
]
