"""Analysis reports and their deterministic serialization.

Report bodies are byte-stable for fixed inputs and seed: floats are
serialized at 12 significant digits, keys have a fixed order, and no
timestamps appear in the body.  Optional run metadata lives in a
separate block excluded from determinism guarantees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Literal

from .observables import writable_ids
from .personalization import (
    PersEstimate,
    SamplingPlan,
    TripleReport,
    evaluate_triples,
    sample_triples,
    summarize,
)

ReportFormat = Literal["json", "csv"]


@dataclass(frozen=True)
class AnalysisReport:
    """Per-triple verdicts plus the aggregate estimate and config echo."""

    source: str
    observable_ids: tuple[str, ...]
    plan: SamplingPlan
    triples: tuple[TripleReport, ...]
    pers: PersEstimate


def analyze(source, plan: SamplingPlan) -> AnalysisReport:
    """The pipeline: sample triples of ``source.observables``, evaluate
    them, tally the ratios, and package everything into one report, whose
    plan records how many triples were drawn (None when exhaustive)."""
    observables = source.observables
    triples = sample_triples(observables, plan)
    if plan.mode != "exhaustive":
        plan = replace(plan, num_triples=len(triples))
    reports = evaluate_triples(source, triples, plan)
    return AnalysisReport(
        source=observables.source or "<in-memory>",
        observable_ids=observables.ids(),
        plan=plan,
        triples=tuple(reports),
        pers=summarize(reports),
    )


def _sig(x: float) -> float:
    """Quantize to 12 significant digits for byte-stable serialization."""
    return float(f"{float(x):.12g}")


def _triple_row(report: TripleReport) -> dict:
    row: dict = {"observables": list(report.ids)}
    if report.skipped:
        row.update(
            params=None, accardi_verdict=None, accardi_slack=None,
            lp_feasible=None, lp_max_violation=None, error=report.error,
        )
        return row
    params = report.params
    row["params"] = {
        "p": _sig(params.p),
        "q": _sig(params.q),
        "r": _sig(params.r),
        "applicable": params.applicable,
        "deviations": [_sig(d) for d in params.deviations],
    }
    row["accardi_verdict"] = params.verdict
    row["accardi_slack"] = _sig(params.slack)
    row["lp_feasible"] = report.lp.feasible
    row["lp_max_violation"] = _sig(report.lp.max_violation)
    row["error"] = None
    return row


def report_body(report: AnalysisReport) -> dict:
    """The deterministic body as plain data with stable key order."""
    plan = report.plan
    pers = report.pers
    return {
        "config": {
            "source": report.source,
            "observables": list(report.observable_ids),
            "num_triples": plan.num_triples,
            "mode": plan.mode,
            "seed": plan.seed,
            "bistochastic_tol": _sig(plan.bistochastic_tol),
            "smoothing": _sig(plan.smoothing),
            "feasibility_tol": _sig(plan.feasibility_tol),
        },
        "pers": {
            "pers_accardi": _sig(pers.pers_accardi),
            "pers_lp": _sig(pers.pers_lp),
            "pers_accardi_sampled": _sig(pers.pers_accardi_sampled),
            "sampled": pers.sampled,
            "decided": pers.decided,
            "applicable": pers.applicable,
            "accardi_violations": pers.violations[0],
            "lp_violations": pers.violations[1],
            "skipped": pers.skipped,
            "seed": plan.seed,
            "ci95_accardi": [_sig(v) for v in pers.ci95_accardi],
            "ci95_lp": [_sig(v) for v in pers.ci95_lp],
        },
        "triples": [_triple_row(r) for r in report.triples],
        "skipped": [
            {"observables": list(r.ids), "reason": r.error} for r in report.triples if r.skipped
        ],
    }


_CSV_COLUMNS = (
    "a", "b", "c", "p", "q", "r", "delta_ab", "delta_bc", "delta_ca",
    "applicable", "accardi_verdict", "accardi_slack", "lp_feasible",
    "lp_max_violation", "error",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_report(
    report: AnalysisReport, format: ReportFormat = "json", metadata: dict | None = None
) -> str:
    """Serialize a report; the body is deterministic, metadata is not.

    JSON carries the full body (and, when given, a separate "metadata"
    block).  CSV is the plot-ready tabular view: one row per sampled
    triple with slack and residual columns.  It raises ValueError, before
    any text is built, on an observable id that would not read back.
    """
    if format == "json":
        document = {"report": report_body(report)}
        if metadata:
            document["metadata"] = metadata
        return json.dumps(document, indent=2) + "\n"
    if format == "csv":
        writable_ids(report.observable_ids)
        lines = [",".join(_CSV_COLUMNS)]
        for triple in report.triples:
            row = _triple_row(triple)
            params = row["params"] or {}
            reason = (triple.error or "").replace(",", ";").replace("\n", " ")
            cells = [
                *triple.ids,
                *(params.get(k) for k in "pqr"),
                *params.get("deviations", (None,) * 3),
                params.get("applicable"),
                row["accardi_verdict"],
                row["accardi_slack"],
                row["lp_feasible"],
                row["lp_max_violation"],
                reason,
            ]
            lines.append(",".join(_csv_cell(cell) for cell in cells))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
