"""Command-line interface.

Subcommands:
    pers      dataset -> full analysis report (json or csv)
    triple    one triple -> parameters and both verdicts
    lp        explicit pair-marginal tables (JSON) -> feasibility
    greechie  hypergraph file -> validation, state, two-valued count
    gen       classical | quantum -> dataset file + exact tables file

Exit status: 0 success, 1 usage error, 2 data error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .accardi import DEFAULT_BISTOCHASTIC_TOL
from .datasets import same_outcome_probability
from .errors import DataError, SolverFailure
from .feasibility import DEFAULT_FEASIBILITY_TOL, decide_feasibility, feasibility_from_dataset
from .generators import ClassicalModelSpec, QubitModelSpec, gen_classical, gen_quantum
from .hypergraph import enumerate_two_valued_states, find_state, is_connected, validate
from .io import (
    read_hypergraph,
    read_joint,
    read_marginals,
    read_pairlog,
    write_joint,
    write_pairlog,
)
from .personalization import SamplingPlan
from .reports import analyze, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we own exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _sig(x: float) -> str:
    return f"{float(x):.12g}"


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built once per process and reused: parsing leaves
    it unchanged, and building it takes 1-2 ms, twenty times a parse."""
    parser = _Parser(prog="contextuality", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pers = sub.add_parser("pers", help="estimate the personalization rate")
    _dataset_flags(pers)
    pers.add_argument("--triples", type=int, default=None, help="triples to sample")
    pers.add_argument(
        "--mode",
        choices=("without_replacement", "with_replacement", "exhaustive"),
        default="without_replacement",
    )
    pers.add_argument("--seed", type=int, default=0)
    _tolerance_flags(pers)
    pers.add_argument("--format", choices=("json", "csv"), default="json")
    pers.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    pers.set_defaults(run=_cmd_pers)

    triple = sub.add_parser("triple", help="analyze a single observable triple")
    _dataset_flags(triple)
    triple.add_argument("--ids", required=True, help="comma-separated triple, e.g. A,B,C")
    _tolerance_flags(triple)
    triple.set_defaults(run=_cmd_triple)

    lp = sub.add_parser("lp", help="decide feasibility of explicit pair marginals")
    lp.add_argument("marginals", type=Path, help="JSON marginal-problem file")
    lp.set_defaults(run=_cmd_lp)

    greechie = sub.add_parser("greechie", help="analyze a context hypergraph file")
    greechie.add_argument("hypergraph", type=Path)
    greechie.add_argument("--enumerate-limit", type=int, default=10000)
    greechie.set_defaults(run=_cmd_greechie)

    gen = sub.add_parser("gen", help="generate ground-truth datasets")
    gen_sub = gen.add_subparsers(dest="generator", required=True, parser_class=_Parser)

    classical = gen_sub.add_parser("classical", help="single-sample-space records")
    classical.add_argument("--t", type=int, required=True, help="number of observables")
    classical.add_argument("--n", type=int, required=True, help="records to emit")
    classical.add_argument("--seed", type=int, default=0)
    classical.add_argument(
        "--table", type=Path, default=None, help="JSON array of 2**t probabilities"
    )
    classical.add_argument("--out", type=Path, required=True, help="output directory")
    classical.set_defaults(run=_cmd_gen_classical)

    quantum = gen_sub.add_parser("quantum", help="pairwise qubit measurement logs")
    quantum.add_argument("--angles", required=True, help="comma-separated degrees")
    quantum.add_argument("--n", type=int, required=True, help="shots per logged pair")
    quantum.add_argument("--seed", type=int, default=0)
    quantum.add_argument(
        "--pairs", default=None, help="pairs to log as i-j[,i-j...]; default all"
    )
    quantum.add_argument("--out", type=Path, required=True, help="output directory")
    quantum.set_defaults(run=_cmd_gen_quantum)
    return parser


def _dataset_flags(parser) -> None:
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--input-format", choices=("joint", "pairlog"), default="joint")


def _tolerance_flags(parser) -> None:
    parser.add_argument("--smoothing", type=float, default=0.0)
    parser.add_argument(
        "--tol-b", type=float, default=DEFAULT_BISTOCHASTIC_TOL, help="bistochastic tolerance"
    )
    parser.add_argument(
        "--tol-lp", type=float, default=DEFAULT_FEASIBILITY_TOL, help="feasibility tolerance"
    )


def _load_dataset(args):
    if args.input_format == "joint":
        return read_joint(args.input)
    return read_pairlog(args.input)


def _cmd_pers(args, out) -> int:
    # no local keeps the rows alive past analyze; the file is read before the plan is checked
    report = analyze(_load_dataset(args), SamplingPlan(
        num_triples=args.triples, mode=args.mode, seed=args.seed,
        bistochastic_tol=args.tol_b, smoothing=args.smoothing, feasibility_tol=args.tol_lp,
    ))
    text = write_report(report, format=args.format)
    if args.out is None:
        out.write(text)
    else:
        args.out.write_text(text)
    return EXIT_OK


def _cmd_triple(args, out) -> int:
    dataset = _load_dataset(args)
    ids = tuple(part.strip() for part in args.ids.split(","))
    if len(ids) != 3 or len(set(ids)) != 3:
        raise _UsageError("--ids needs three distinct observable ids")
    params, verdict, lp = feasibility_from_dataset(
        dataset, ids, args.smoothing, args.tol_b, args.tol_lp
    )
    out.write(f"triple: {','.join(ids)}\n")
    out.write(f"p={_sig(params.p)} q={_sig(params.q)} r={_sig(params.r)}\n")
    out.write(f"deviations: {' '.join(_sig(d) for d in params.deviations)}\n")
    out.write(f"applicable: {'yes' if params.applicable else 'no'}\n")
    out.write(f"accardi: {verdict.verdict} (slack {_sig(verdict.slack)})\n")
    feasible = "feasible" if lp.feasible else "infeasible"
    out.write(f"lp: {feasible} (max violation {_sig(lp.max_violation)})\n")
    return EXIT_OK


def _cmd_lp(args, out) -> int:
    problem = read_marginals(args.marginals)
    result = decide_feasibility(problem)
    out.write(f"feasible: {'yes' if result.feasible else 'no'}\n")
    out.write(f"max violation: {_sig(result.max_violation)}\n")
    return EXIT_OK


def _cmd_greechie(args, out) -> int:
    limit = args.enumerate_limit
    if limit < 1:
        raise _UsageError(f"--enumerate-limit must be at least 1, got {limit}")
    hypergraph = read_hypergraph(args.hypergraph)
    report = validate(hypergraph)
    for issue in report.issues():
        out.write(f"invalid: {issue}\n")
    state = find_state(hypergraph)
    out.write(f"states: {'exists' if state is not None else 'none'}\n")
    # one state past the limit tells a capped count from an exact one
    count = len(enumerate_two_valued_states(hypergraph, limit=limit + 1))
    out.write(f"two-valued states: {f'at least {limit}' if count > limit else count}\n")
    out.write(f"connected: {'yes' if is_connected(hypergraph) else 'no'}\n")
    return EXIT_OK


def _cmd_gen_classical(args, out) -> int:
    table = None
    if args.table is not None:
        table = np.asarray(json.loads(args.table.read_text()), dtype=np.float64)
    try:
        spec = ClassicalModelSpec(
            num_observables=args.t, num_records=args.n, seed=args.seed, distribution=table
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    sample = gen_classical(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    records_path = args.out / "records"
    write_joint(sample.dataset, records_path)
    exact = {
        "observables": list(sample.exact.observables.ids()),
        "table": [float(_sig(v)) for v in sample.exact.probabilities],
    }
    (args.out / "exact.json").write_text(json.dumps(exact, indent=2) + "\n")
    out.write(f"wrote {records_path} and {args.out / 'exact.json'}\n")
    return EXIT_OK


def _parse_pairs(raw: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in raw.split(","):
        left, sep, right = chunk.partition("-")
        if not sep:
            raise _UsageError(f"--pairs entries look like i-j, got {chunk!r}")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise _UsageError(f"--pairs entries look like i-j, got {chunk!r}") from None
    return tuple(pairs)


def _cmd_gen_quantum(args, out) -> int:
    try:
        angles = tuple(float(a) for a in args.angles.split(","))
    except ValueError:
        raise _UsageError(f"--angles must be comma-separated numbers, got {args.angles!r}") from None
    pairs = _parse_pairs(args.pairs) if args.pairs else None
    try:
        spec = QubitModelSpec(angles_deg=angles, shots=args.n, seed=args.seed, pairs=pairs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    sample = gen_quantum(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    pairs_path = args.out / "pairs"
    write_pairlog(sample.dataset, pairs_path)
    ids = sample.exact.observables.ids()
    exact = {
        "observables": list(ids),
        "angles_deg": [float(_sig(a)) for a in spec.angles_deg],
        "transition_params": {
            f"{ids[i]},{ids[j]}": float(_sig(same_outcome_probability(angles[i], angles[j])))
            for i, j in spec.logged_pairs()
        },
    }
    (args.out / "exact.json").write_text(json.dumps(exact, indent=2) + "\n")
    out.write(f"wrote {pairs_path} and {args.out / 'exact.json'}\n")
    return EXIT_OK


def cli_main(argv=None, out=None, err=None) -> int:
    """Run the CLI; returns the exit status instead of exiting."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
        return args.run(args, out)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    # json.JSONDecodeError is a ValueError
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError, ValueError) as exc:
        err.write(f"data error: {exc}\n")
        return EXIT_DATA
    except SolverFailure as exc:
        err.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER


def main() -> None:
    sys.exit(cli_main())
