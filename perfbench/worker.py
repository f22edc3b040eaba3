"""One measuring process: timed passes of a workload and its LP probe.

Run by ``run.py`` as ``python3 worker.py CONFIG.json`` inside the
directory that holds the generated inputs.  It imports the package from
the checkout's ``src``, repeats the workload's pass until its time is
spent, and writes a JSON result: pass wall times, report hashes, the
verdicts to check, per-call LP latencies and the process's peak RSS.

A traced worker installs the tracing wrappers before its first pass and
records one span tree per pass; an untraced worker never installs them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def timed_passes(run_pass, finish, tracer, min_passes: int, budget_s: float,
                 between=None) -> list[dict]:
    """Time ``run_pass()`` at least ``min_passes`` times, then while another
    pass of the last one's length still fits in ``budget_s``.

    ``finish`` turns a pass's output into its record outside the timed
    region; a traced pass also records its per-layer metrics.
    ``between(n)`` runs before the first pass (n = 0) and after the n-th,
    inside the budget.
    """
    passes: list[dict] = []
    start = perf_counter()
    if between is not None:
        between(0)
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = perf_counter()
        output = run_pass() if tracer is None else tracer.root(run_pass)
        wall = perf_counter() - t0
        record = finish(output)
        record["wall_s"] = wall
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer.spans)
        passes.append(record)
        if between is not None:
            between(len(passes))
        if len(passes) >= min_passes and perf_counter() - start + wall > budget_s:
            return passes


def report_digest(text: str) -> tuple[str, list]:
    """SHA-256 of the report body (``metadata`` excluded) and its verdict rows."""
    body = json.loads(text)["report"]
    digest = hashlib.sha256(json.dumps(body, indent=2).encode()).hexdigest()
    rows = [
        [*row["observables"], (row["params"] or {}).get("applicable"),
         row["accardi_verdict"], row["lp_feasible"], row["error"]]
        for row in body["triples"]
    ]
    return digest, rows


def pers_pass(argv: list[str]) -> dict:
    from contextuality.cli import cli_main

    sink = io.StringIO()
    try:
        status = cli_main(argv, sink, sink)
    except Exception as exc:  # a crash of the program is a failed pass
        return {"status": None, "error": _describe(exc)}
    return {"status": status, "error": sink.getvalue().strip() or None}


def decide_batch(problems) -> tuple[list[float], list]:
    """Time ``decide_feasibility`` once per problem; results or error strings."""
    from contextuality import feasibility

    latencies, results = [], []
    for problem in problems:
        t0 = perf_counter()
        try:
            result = feasibility.decide_feasibility(problem)
        except Exception as exc:  # a raising call is a failed operation
            result = _describe(exc)
        latencies.append(perf_counter() - t0)
        results.append(result)
    return latencies, results


def lp_outcome(problem, result) -> dict:
    if isinstance(result, str):
        return {"error": result}
    outcome = {"error": None, "feasible": bool(result.feasible),
               "max_violation": float(result.max_violation), "witness_residual": None}
    if result.witness is not None:
        outcome["witness_residual"] = checks.witness_residual(
            result.witness, problem.num_observables, problem.num_outcomes,
            problem.pair_marginals,
        )
        outcome["witness_min"] = float(np.min(result.witness))
    return outcome


def split_ms(problems, latencies) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"triple_ms": [], "general_ms": []}
    for problem, seconds in zip(problems, latencies):
        key = "triple_ms" if problem.num_observables == 3 else "general_ms"
        out[key].append(seconds * 1e3)
    return out


def load_problems(path: str) -> list:
    """Feasibility problems from the batch file ``workloads`` writes."""
    from contextuality.feasibility import JointFeasibilityProblem, bistochastic_triple_problem

    problems = []
    for entry in json.loads(Path(path).read_text()):
        if "pqr" in entry:
            problems.append(bistochastic_triple_problem(*entry["pqr"]))
            continue
        problems.append(JointFeasibilityProblem(
            num_observables=entry["num_observables"],
            num_outcomes=2,
            pair_marginals={(a, b): np.array(table) for a, b, table in entry["pairs"]},
        ))
    return problems


def lp_record(problems, latencies, results) -> dict:
    return {"outcomes": [lp_outcome(p, r) for p, r in zip(problems, results)],
            **split_ms(problems, latencies)}


def run_pers(config: dict, tracer) -> dict:
    """``pers`` passes; with ``probe``, a share of the LP probe before the
    first pass and after each of the first ``min_passes``, so that its
    samples span the run."""
    argv = workloads.pers_argv(config["workload"])
    probe = load_problems(workloads.PROBLEMS) if config["probe"] else []
    size = -(-len(probe) // (config["min_passes"] + 1))
    timed = {"latencies": [], "results": []}

    def finish(record: dict) -> dict:
        if record["status"] == 0:
            report = Path("report.json")
            record["sha256"], record["rows"] = report_digest(report.read_text())
            report.unlink()
        return record

    def probe_chunk(number: int) -> None:
        latencies, results = decide_batch(probe[number * size:(number + 1) * size])
        timed["latencies"] += latencies
        timed["results"] += results

    passes = timed_passes(
        lambda: pers_pass(argv), finish, tracer, config["min_passes"], config["pass_seconds"],
        between=probe_chunk if probe else None,
    )
    result = {"passes": passes, "peak_rss_mb": peak_rss_mb()}
    if probe:
        result["probe"] = lp_record(probe, timed["latencies"], timed["results"])
    return result


def run_lp_mix(config: dict, tracer) -> dict:
    problems = load_problems(workloads.PROBLEMS)

    def finish(output) -> dict:
        return {"status": 0, **lp_record(problems, *output)}

    passes = timed_passes(
        lambda: decide_batch(problems), finish, tracer,
        config["min_passes"], config["pass_seconds"],
    )
    return {"passes": passes, "peak_rss_mb": peak_rss_mb()}


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    sys.path.insert(0, config["src"])
    os.environ["CONTEXTUALITY_WORKERS"] = "1"
    import contextuality  # noqa: F401  (imported before any timing)

    tracer = None
    if config["traced"]:
        tracer = tracing.Tracer()
        tracer.install()
    run = run_lp_mix if config["workload"] == "lp_mix" else run_pers
    result = run(config, tracer)
    if tracer is not None:
        result["absent"] = tracer.absent()
        tracer.restore()
    Path(config["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
