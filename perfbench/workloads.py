"""The three workloads: sizes, seeded input generation, probe plans.

Inputs are made through the package's own ``gen`` command (pair logs
and joint records) or by this module (the ``lp_mix`` problem batch),
always from the benchmark's ``--seed``.  The ground truth each input
carries is kept here and in ``checks``; the program under test only
ever sees the generated files.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("pairlog_t20", "joint_t12", "lp_mix")
LP_TOLERANCE = 1e-8  # the package default, used by every problem here
PROBLEMS = "problems.json"  # an LP batch: lp_mix's input, or a pers workload's probe


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``smoke`` its self-test."""

    angles: tuple[float, ...]  # pairlog_t20: one observable per angle
    shots: int  # pairlog_t20: shots per logged pair
    joint_t: int  # joint_t12: observables
    joint_records: int  # joint_t12: records
    lp_per_class: int  # lp_mix: triple problems per class (plus the trine)
    lp_empirical_samples: int  # lp_mix: samples behind each empirical joint
    lp_general: int  # lp_mix: general problems
    lp_general_t: int  # lp_mix: observables per general problem
    probe_triple_calls: int  # pers workloads: triple LP calls timed
    probe_general: int  # pers workloads: general LP calls timed
    probe_general_t: int  # pers workloads: observables per general problem
    min_passes: int  # passes always made, whatever --seconds says


SCALES = {
    "full": Scale(
        angles=tuple(18.0 * i for i in range(20)),
        shots=2000,
        joint_t=12,
        joint_records=100_000,
        lp_per_class=333,
        lp_empirical_samples=2000,
        lp_general=200,
        lp_general_t=8,
        probe_triple_calls=3000,
        probe_general=600,
        probe_general_t=8,
        min_passes=2,
    ),
    "smoke": Scale(
        angles=tuple(60.0 * i for i in range(6)),
        shots=2000,
        joint_t=5,
        joint_records=3000,
        lp_per_class=4,
        lp_empirical_samples=500,
        lp_general=4,
        lp_general_t=4,
        probe_triple_calls=12,
        probe_general=4,
        probe_general_t=4,
        min_passes=1,
    ),
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def pers_argv(workload: str) -> list[str]:
    """The ``pers`` command line of a pass, run inside the input directory.

    The input path is relative and fixed so that ``config.source`` in the
    report body, and hence the report hash, does not depend on where the
    checkout lives.
    """
    if workload == "pairlog_t20":
        return ["pers", "--input", "pairs", "--input-format", "pairlog",
                "--mode", "exhaustive", "--out", "report.json"]
    return ["pers", "--input", "records", "--out", "report.json"]


def input_file(workload: str) -> str:
    return {"pairlog_t20": "pairs", "joint_t12": "records", "lp_mix": PROBLEMS}[workload]


def setup(workload: str, seed: int, scale: Scale, workdir: Path) -> list:
    """Write the workload's inputs into ``workdir``; return the lp_mix truth.

    For the ``pers`` workloads the truth of a pass is a function of the
    scale and is applied by ``checks``; for ``lp_mix`` one expectation
    per problem is returned, in batch order.
    """
    from contextuality.cli import cli_main

    if workload == "lp_mix":
        problems, truth = lp_mix_batch(seed, scale)
        (workdir / PROBLEMS).write_text(json.dumps(problems))
        return truth
    if workload == "pairlog_t20":
        argv = ["gen", "quantum", "--angles", ",".join(f"{a:g}" for a in scale.angles),
                "--n", str(scale.shots)]
    else:
        argv = ["gen", "classical", "--t", str(scale.joint_t),
                "--n", str(scale.joint_records)]
    sink = io.StringIO()
    status = cli_main(argv + ["--seed", str(seed), "--out", str(workdir)], out=sink, err=sink)
    if status != 0:
        raise RuntimeError(f"input generation exited {status}: {sink.getvalue().strip()}")
    return []


def _symmetric(s: float) -> np.ndarray:
    return np.array([[s / 2.0, (1.0 - s) / 2.0], [(1.0 - s) / 2.0, s / 2.0]])


def _pair_tables(joint: np.ndarray, t: int) -> dict[tuple[int, int], np.ndarray]:
    cube = joint.reshape((2,) * t)
    return {
        (a, b): cube.sum(axis=tuple(ax for ax in range(t) if ax not in (a, b)))
        for a, b in itertools.combinations(range(t), 2)
    }


def _encode(kind: str, t: int, tables) -> dict:
    return {"kind": kind, "num_observables": t,
            "pairs": [[a, b, table.tolist()] for (a, b), table in sorted(tables.items())]}


def lp_mix_batch(seed: int, scale: Scale) -> tuple[list[dict], list[dict]]:
    """The ``lp_mix`` problems, shuffled, with one expectation each.

    Binary triples, ``lp_per_class`` of each class: independent random
    pair tables (inconsistent marginals), marginals of an empirical
    joint, and symmetric bistochastic (p, q, r); plus the exact trine.
    General problems: marginals of a random joint over ``lp_general_t``
    observables, every fourth one perturbed so its marginals disagree.
    """
    rng = _rng(seed, 1)
    problems: list[dict] = []
    truth: list[dict] = []

    def add(problem: dict, tables, pqr=None) -> None:
        kind = problem["kind"]
        mismatch = checks.marginal_mismatch(tables)
        expectation = checks.lp_expectation(
            "explicit" if kind in ("empirical", "general") else kind, mismatch, pqr
        )
        problems.append(problem)
        truth.append({"class": kind, **expectation})

    for _ in range(scale.lp_per_class):
        tables = {key: rng.dirichlet(np.ones(4)).reshape(2, 2)
                  for key in ((0, 1), (1, 2), (0, 2))}
        add(_encode("independent", 3, tables), tables)

        joint = rng.dirichlet(np.ones(8))
        draws = rng.choice(8, size=scale.lp_empirical_samples, p=joint)
        empirical = np.bincount(draws, minlength=8) / scale.lp_empirical_samples
        tables = _pair_tables(empirical, 3)
        add(_encode("empirical", 3, tables), tables)

        pqr = [float(v) for v in rng.random(3)]
        tables = {(0, 1): _symmetric(pqr[0]), (1, 2): _symmetric(pqr[1]),
                  (0, 2): _symmetric(pqr[2])}
        add({"kind": "bistochastic", "pqr": pqr}, tables, pqr)
    trine = [0.25, 0.25, 0.25]
    add({"kind": "trine", "pqr": trine},
        {key: _symmetric(0.25) for key in ((0, 1), (1, 2), (0, 2))})

    t = scale.lp_general_t
    for number in range(scale.lp_general):
        tables = _pair_tables(rng.dirichlet(np.ones(2**t)), t)
        if number % 4 == 3:
            noise = rng.dirichlet(np.ones(4)).reshape(2, 2)
            tables[(0, 1)] = 0.5 * tables[(0, 1)] + 0.5 * noise
            add(_encode("general_perturbed", t, tables), tables)
        else:
            add(_encode("general", t, tables), tables)

    order = rng.permutation(len(problems))
    return [problems[i] for i in order], [truth[i] for i in order]


def probe_batch(workload: str, seed: int, scale: Scale, workdir: Path) -> tuple[list, list]:
    """The LP latency probe of a ``pers`` workload, with one expectation each.

    These are the problems ``pers`` builds from the generated input: every
    triple of the dataset, cycled to ``probe_triple_calls`` calls, and
    ``probe_general`` seeded subsets of ``probe_general_t`` observables
    with all their pairs, shuffled together.  Joint records give explicit
    joints, so every problem is feasible; pair logs are judged by the
    marginal rule.
    """
    from contextuality.feasibility import build_problem
    from contextuality.io import read_joint, read_pairlog
    from contextuality.transitions import pair_transition

    reader = read_pairlog if workload == "pairlog_t20" else read_joint
    dataset = reader(workdir / input_file(workload))
    ids = dataset.observables.ids()
    t = len(ids)
    cache: dict[tuple[int, int], object] = {}

    def encoded(indices, pairs) -> dict:
        for key in pairs:
            if key not in cache:
                cache[key] = pair_transition(dataset, ids[key[0]], ids[key[1]])
        subset = dataset.observables.subset([ids[i] for i in indices])
        problem = build_problem([cache[key] for key in pairs], subset)
        return _encode(workload, len(indices), problem.pair_marginals)

    triples = [encoded((i, j, k), ((j, i), (k, j), (i, k)))
               for i, j, k in itertools.combinations(range(t), 3)]
    problems = list(itertools.islice(itertools.cycle(triples), scale.probe_triple_calls))
    rng = _rng(seed, 2)
    for _ in range(scale.probe_general):
        subset = sorted(int(i) for i in rng.choice(t, size=scale.probe_general_t, replace=False))
        problems.append(encoded(subset, list(itertools.combinations(subset, 2))))

    problems = [problems[i] for i in rng.permutation(len(problems))]
    kind = "pairlog" if workload == "pairlog_t20" else "explicit"
    truth = []
    for problem in problems:
        tables = {(a, b): np.array(table) for a, b, table in problem["pairs"]}
        truth.append(checks.lp_expectation(kind, checks.marginal_mismatch(tables)))
    return problems, truth
