"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces the public functions the pipeline calls at
each module boundary with timing wrappers, in every namespace the
caller looks them up in; ``restore`` puts the originals back.  Spans are
kept in memory as ``[name, parent, start, end, attrs]`` and folded into
per-layer metrics by ``layer_metrics``.  A layer's self time is its
span's duration minus the durations of its child spans.

A boundary whose function no longer exists is skipped, and the metrics
that depend on it are reported in ``absent`` rather than failing; so
are those whose arguments or result no longer have the expected shape.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter


def _path_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"rows": len(result), "bytes": os.path.getsize(path)}


def _rows(args, kwargs, result):
    dataset = args[0] if args else kwargs.get("dataset")
    return {"rows": len(dataset)}


def _pair(args, kwargs, result):
    return {"pair": result.pair}


def _decide(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    is_triple = problem.num_observables == 3 and problem.num_outcomes == 2
    return {"class": "triple" if is_triple else "general", "infeasible": not result.feasible}


def _solver(args, kwargs, result):
    return {"iters": int(getattr(result, "nit", 0)), "failed": result.status != 0}


def _check(args, kwargs, result):
    return {"not_applicable": result.verdict == "not_applicable"}


def _evaluate(args, kwargs, result):
    triples = args[1] if len(args) > 1 else kwargs["triples"]
    return {"triples": len(triples), "unique": len(set(triples))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute, span name, attribute extractor).  Functions imported
# into another module are patched where the caller looks them up.
BOUNDARIES = (
    ("cli", "read_pairlog", "io.read", _path_bytes),
    ("cli", "read_joint", "io.read", _path_bytes),
    ("cli", "analyze", "reports.analyze", None),
    ("cli", "write_report", "reports.write", _text_bytes),
    ("reports", "sample_triples", "personalization.sample", None),
    ("reports", "evaluate_triples", "personalization.evaluate", _evaluate),
    ("reports", "summarize", "personalization.summarize", None),
    ("personalization", "feasibility_from_dataset", "feasibility.from_dataset", None),
    ("feasibility", "triple_params", "accardi.params", None),
    ("feasibility", "accardi_check", "accardi.check", _check),
    ("feasibility", "build_problem", "feasibility.build", None),
    ("feasibility", "decide_feasibility", "feasibility.decide", _decide),
    ("feasibility", "linprog", "feasibility.solver", _solver),
    ("accardi", "pair_transition", "transitions.pair", _pair),
    ("transitions", "count_pairs", "transitions.count", _rows),
    ("transitions", "estimate_transition", "transitions.estimate", None),
)

# Per-layer metric -> (unit, span it is measured on).
METRICS = {
    "io.read_s": ("s", "io.read"),
    "io.rows": ("count", "io.read"),
    "io.bytes": ("bytes", "io.read"),
    "transitions.count_s": ("s", "transitions.count"),
    "transitions.count_calls": ("count", "transitions.count"),
    "transitions.rows_scanned": ("count", "transitions.count"),
    "transitions.estimate_s": ("s", "transitions.estimate"),
    "transitions.estimate_calls": ("count", "transitions.estimate"),
    "transitions.pair_self_s": ("s", "transitions.pair"),
    "transitions.pair_calls": ("count", "transitions.pair"),
    "transitions.distinct_pairs": ("count", "transitions.pair"),
    "transitions.useful_frac": ("fraction", "transitions.pair"),
    "feasibility.from_dataset_self_s": ("s", "feasibility.from_dataset"),
    "feasibility.build_s": ("s", "feasibility.build"),
    "feasibility.decide_self_s": ("s", "feasibility.decide"),
    "feasibility.solver_s": ("s", "feasibility.solver"),
    "feasibility.solver_calls": ("count", "feasibility.solver"),
    "feasibility.solver_iters": ("count", "feasibility.solver"),
    "feasibility.infeasible": ("count", "feasibility.decide"),
    "feasibility.solver_failures": ("count", "feasibility.solver"),
    "feasibility.triple.decide_self_s": ("s", "feasibility.decide"),
    "feasibility.triple.solver_s": ("s", "feasibility.solver"),
    "feasibility.triple.solver_calls": ("count", "feasibility.solver"),
    "feasibility.triple.solver_iters": ("count", "feasibility.solver"),
    "feasibility.general.decide_self_s": ("s", "feasibility.decide"),
    "feasibility.general.solver_s": ("s", "feasibility.solver"),
    "feasibility.general.solver_calls": ("count", "feasibility.solver"),
    "feasibility.general.solver_iters": ("count", "feasibility.solver"),
    "accardi.params_self_s": ("s", "accardi.params"),
    "accardi.check_s": ("s", "accardi.check"),
    "accardi.check_calls": ("count", "accardi.check"),
    "accardi.not_applicable": ("count", "accardi.check"),
    "personalization.sample_s": ("s", "personalization.sample"),
    "personalization.evaluate_self_s": ("s", "personalization.evaluate"),
    "personalization.summarize_s": ("s", "personalization.summarize"),
    "personalization.summarize_calls": ("count", "personalization.summarize"),
    "personalization.triples": ("count", "personalization.evaluate"),
    "personalization.unique_triples": ("count", "personalization.evaluate"),
    "reports.analyze_self_s": ("s", "reports.analyze"),
    "reports.write_s": ("s", "reports.write"),
    "reports.bytes": ("bytes", "reports.write"),
    "trace.wall_s": ("s", None),
    "trace.coverage_frac": ("fraction", None),
}

ROOT = "pass"


class Tracer:
    """Records spans for the functions at ``BOUNDARIES`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # spans whose function was not found
        self.unreadable: set[str] = set()  # spans whose attributes could not be read

    def install(self) -> None:
        installed: set[str] = set()
        for module_name, attr, span, describe in BOUNDARIES:
            try:
                module = importlib.import_module(f"contextuality.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, describe))
            installed.add(span)
        self.missing = {span for _, _, span, _ in BOUNDARIES} - installed

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def absent(self) -> list[str]:
        """Metrics whose boundary function could not be found or read."""
        gone = self.missing | self.unreadable
        return sorted(name for name, (_, span) in METRICS.items() if span in gone)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside the root span of one pass."""
        return self._wrap(fn, ROOT, None)(*args)

    def _wrap(self, fn, name, describe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else None, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if describe is not None:
                try:
                    record[4] = describe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.unreadable.add(name)  # the function's signature changed
            return result

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Fold one pass's spans (one ``pass`` root) into per-layer metrics."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    pairs: set = set()
    decide_class: dict[int, str] = {}
    for index, (name, parent, start, end, info) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        keys = [name]
        if name == "feasibility.decide" and info:
            decide_class[index] = info["class"]
            keys.append(f"feasibility.{info['class']}.decide")
        if name == "feasibility.solver" and parent in decide_class:
            keys.append(f"feasibility.{decide_class[parent]}.solver")
        for key in keys:
            total[key] += duration
            self_time[key] += own
            calls[key] += 1
            for field, value in (info or {}).items():
                if isinstance(value, (bool, int, float)):
                    attrs[key][field] += value
        if name == "transitions.pair" and info:
            pairs.add(info["pair"])

    pair_calls = calls["transitions.pair"]
    root_total = total[ROOT]
    metrics = {
        "io.read_s": total["io.read"],
        "io.rows": attrs["io.read"]["rows"],
        "io.bytes": attrs["io.read"]["bytes"],
        "transitions.count_s": total["transitions.count"],
        "transitions.count_calls": calls["transitions.count"],
        "transitions.rows_scanned": attrs["transitions.count"]["rows"],
        "transitions.estimate_s": total["transitions.estimate"],
        "transitions.estimate_calls": calls["transitions.estimate"],
        "transitions.pair_self_s": self_time["transitions.pair"],
        "transitions.pair_calls": pair_calls,
        "transitions.distinct_pairs": len(pairs),
        "transitions.useful_frac": len(pairs) / pair_calls if pair_calls else 0.0,
        "feasibility.from_dataset_self_s": self_time["feasibility.from_dataset"],
        "feasibility.build_s": total["feasibility.build"],
        "feasibility.decide_self_s": self_time["feasibility.decide"],
        "feasibility.solver_s": total["feasibility.solver"],
        "feasibility.solver_calls": calls["feasibility.solver"],
        "feasibility.solver_iters": attrs["feasibility.solver"]["iters"],
        "feasibility.infeasible": attrs["feasibility.decide"]["infeasible"],
        "feasibility.solver_failures": attrs["feasibility.solver"]["failed"],
        "accardi.params_self_s": self_time["accardi.params"],
        "accardi.check_s": total["accardi.check"],
        "accardi.check_calls": calls["accardi.check"],
        "accardi.not_applicable": attrs["accardi.check"]["not_applicable"],
        "personalization.sample_s": total["personalization.sample"],
        "personalization.evaluate_self_s": self_time["personalization.evaluate"],
        "personalization.summarize_s": total["personalization.summarize"],
        "personalization.summarize_calls": calls["personalization.summarize"],
        "personalization.triples": attrs["personalization.evaluate"]["triples"],
        "personalization.unique_triples": attrs["personalization.evaluate"]["unique"],
        "reports.analyze_self_s": self_time["reports.analyze"],
        "reports.write_s": total["reports.write"],
        "reports.bytes": attrs["reports.write"]["bytes"],
        "trace.wall_s": root_total,
        "trace.coverage_frac": 1.0 - self_time[ROOT] / root_total if root_total else 0.0,
    }
    for cls in ("triple", "general"):
        metrics[f"feasibility.{cls}.decide_self_s"] = self_time[f"feasibility.{cls}.decide"]
        metrics[f"feasibility.{cls}.solver_s"] = total[f"feasibility.{cls}.solver"]
        metrics[f"feasibility.{cls}.solver_calls"] = calls[f"feasibility.{cls}.solver"]
        metrics[f"feasibility.{cls}.solver_iters"] = attrs[f"feasibility.{cls}.solver"]["iters"]
    return metrics
