"""Benchmark of the contextuality package: ``pers`` wall time and LP latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairlog_t20 --seed 1 --seconds 30 --trace 0

Workloads: ``pairlog_t20``, ``joint_t12``, ``lp_mix`` (see README.md).
The inputs are generated from ``--seed`` and written under
``.perfbench_work/``; a separate worker process then measures them, so
set-up allocations never reach the measured peak RSS.  With ``--trace
0`` the end-to-end metrics are printed; with ``--trace 1`` an untraced
and a traced worker run one after the other and the per-layer split is
printed.  Every verdict is checked against ground truth.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exits 2, printing no result, when the package source is not present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run ends well inside the 180 s allowed

END_TO_END = {
    "wall_s": "s",
    "triple_p50_ms": "ms",
    "triple_p95_ms": "ms",
    "general_p50_ms": "ms",
    "general_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
BENCH_LAYER = {
    "check.known": "count",
    "check.wrong": "count",
    "check.errors": "count",
    "trace.overhead_frac": "fraction",
}
# Printed and recorded with the end-to-end metrics but not declared in
# BENCHMARK.json: on a shared 2-vCPU machine the run-to-run spread of the
# triple p99 reached 0.23 of its median, too close to any bound allowed.
INFORMATIONAL = {"triple_p99_ms": "ms"}
PER_LAYER = {**{name: unit for name, (unit, _) in tracing.METRICS.items()}, **BENCH_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="input sizes; 'smoke' is the self-test's tiny set")
    return parser.parse_args(argv)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    """Machine and software facts recorded with every result."""
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


def run_setup(workload: str, seed: int, scale, workdir: Path):
    """Generate the inputs once to warm up, then at least three more times
    and for at least 1 s; the warm-up is not timed.

    Returns the set-up times, whether every repetition wrote the same
    bytes, and the lp_mix ground truth.
    """
    workloads.setup(workload, seed, scale, workdir)
    path = workdir / workloads.input_file(workload)
    times, digests, truth = [], set(), []
    while len(times) < 3 or (sum(times) < 1.0 and len(times) < 25):
        path.unlink()
        t0 = perf_counter()
        truth = workloads.setup(workload, seed, scale, workdir)
        times.append(perf_counter() - t0)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    return times, len(digests) == 1, truth


def run_worker(config: dict, workdir: Path, started: float) -> dict:
    """Run one worker process to completion and return its result."""
    name = "traced" if config["traced"] else "untraced"
    config_path = workdir / f"{name}.config.json"
    config["out"] = str(workdir / f"{name}.result.json")
    config_path.write_text(json.dumps(config))
    timeout = max(5.0, DEADLINE_S - (perf_counter() - started))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config_path)],
            cwd=workdir, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise RuntimeError(f"{name} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(config["out"]).read_text())


def expected_triples(workload: str, scale) -> int:
    t = len(scale.angles) if workload == "pairlog_t20" else scale.joint_t
    population = t * (t - 1) * (t - 2) // 6
    return population if workload == "pairlog_t20" else min(1000, population)


def judge_pass(workload: str, scale, record: dict, truth: list) -> checks.Tally:
    """Check one pass's verdicts against ground truth."""
    if workload == "lp_mix":
        return judge_batch(truth, record["outcomes"])
    if record["status"] != 0:
        count = expected_triples(workload, scale)
        return checks.Tally(attempted=count, errors=count)
    if workload == "pairlog_t20":
        return checks.judge_pairlog_rows(record["rows"], scale.angles)
    return checks.judge_joint_rows(record["rows"])


def judge_batch(truth: list, outcomes: list) -> checks.Tally:
    tally = checks.Tally()
    for expectation, outcome in zip(truth, outcomes, strict=True):
        tally.add(checks.judge_lp(expectation, outcome, workloads.LP_TOLERANCE))
    return tally


TRIPLE_BLOCK = 1000  # calls per block for the p95 and p99: 10 samples beyond the p99
GENERAL_BLOCK = 200  # calls per block for the p95: 10 samples beyond it


def block_percentile(samples: list[float], q: float, block: int) -> float:
    """The q-th percentile of each run of ``block`` consecutive calls (the
    last block takes the remainder), median over the blocks.

    A burst of interference from other processes on the machine then moves
    one block's tail, not the reported one.
    """
    count = max(1, len(samples) // block)
    blocks = [samples[i * block:(i + 1) * block] for i in range(count - 1)]
    blocks.append(samples[(count - 1) * block:])
    return median([checks.percentile(b, q) for b in blocks])


def measure(args, scale, workdir: Path, truth: list, started: float):
    """Run the workers; return (metrics, tally, notes)."""
    base = {"workload": args.workload, "src": str(SRC), "min_passes": scale.min_passes}
    lp_mix = args.workload == "lp_mix"
    probe_truth: list = []
    if args.trace:
        half = args.seconds / 2.0
        common = {**base, "probe": False, "min_passes": 1, "pass_seconds": half}
        workers = [run_worker({**common, "traced": False}, workdir, started),
                   run_worker({**common, "traced": True}, workdir, started)]
    else:
        if not lp_mix:
            problems, probe_truth = workloads.probe_batch(args.workload, args.seed, scale, workdir)
            (workdir / workloads.PROBLEMS).write_text(json.dumps(problems))
        config = {**base, "traced": False, "probe": not lp_mix, "pass_seconds": args.seconds}
        workers = [run_worker(config, workdir, started)]

    tally = checks.Tally()
    last_pass = checks.Tally()
    for result in workers:
        for record in result["passes"]:
            last_pass = judge_pass(args.workload, scale, record, truth)
            tally.add(last_pass)
        if "probe" in result:
            tally.add(judge_batch(probe_truth, result["probe"]["outcomes"]))

    outcomes = [o for result in workers
                for block in [*result["passes"], result.get("probe", {})]
                for o in block.get("outcomes", [])]
    negative = [o["witness_min"] for o in outcomes
                if o.get("witness_min", 0.0) < -checks.NEGATIVE_WITNESS]
    passes = [p for result in workers for p in result["passes"]]
    hashes = sorted({p["sha256"] for p in passes if p.get("sha256")})
    errors = sorted({p["error"] for p in passes if p.get("error")}
                    | {o["error"] for o in outcomes if o.get("error")})
    notes = {"passes": [p["wall_s"] for p in passes], "report_sha256": hashes,
             "program_errors": errors,
             "negative_witnesses": {"count": len(negative), "lowest": min(negative, default=0.0)}}

    if args.trace:
        untraced, traced = workers
        layers = [p["layers"] for p in traced["passes"]]
        metrics = {name: median([layer[name] for layer in layers]) for name in tracing.METRICS}
        metrics["check.known"] = last_pass.known
        metrics["check.wrong"] = last_pass.wrong
        metrics["check.errors"] = last_pass.errors
        metrics["trace.overhead_frac"] = (
            median([p["wall_s"] for p in traced["passes"]])
            / median([p["wall_s"] for p in untraced["passes"]]) - 1.0
        )
        notes["absent"] = traced.get("absent", [])
        notes["traced_passes"] = len(traced["passes"])
        return metrics, tally, notes

    (result,) = workers
    source = result["passes"] if lp_mix else [result["probe"]]
    triple_ms = [v for block in source for v in block["triple_ms"]]
    general_ms = [v for block in source for v in block["general_ms"]]
    metrics = {
        "wall_s": median(notes["passes"]),
        "triple_p50_ms": checks.percentile(triple_ms, 50),
        "triple_p95_ms": block_percentile(triple_ms, 95, TRIPLE_BLOCK),
        "triple_p99_ms": block_percentile(triple_ms, 99, TRIPLE_BLOCK),
        "general_p50_ms": checks.percentile(general_ms, 50),
        "general_p95_ms": block_percentile(general_ms, 95, GENERAL_BLOCK),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes["samples"] = {"wall_s": len(notes["passes"]), "triple_ms": len(triple_ms),
                        "general_ms": len(general_ms)}
    notes["triple_ms"], notes["general_ms"] = triple_ms, general_ms
    return metrics, tally, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contextuality" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'contextuality'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    scale = workloads.SCALES[args.scale]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        setup_times, inputs_stable, truth = run_setup(args.workload, args.seed, scale, workdir)
        metrics, tally, notes = measure(args, scale, workdir, truth, started)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["setup_s"] = median(setup_times)
    notes["setup_s"] = setup_times

    problems = []
    if not inputs_stable:
        problems.append("input generation is not deterministic for one seed")
    if len(notes["report_sha256"]) > 1:
        problems.append("passes wrote different report bodies")
    if tally.failed:
        problems.append(f"{tally.failed} failed operations")
    units = PER_LAYER if args.trace else END_TO_END
    ordered = {}
    for name, unit in units.items():
        value = metrics[name]
        whole = unit in ("count", "bytes") and float(value).is_integer()
        ordered[name] = int(value) if whole else value
    env = environment(args.seed)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    for name, value in ordered.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    for name, unit in ({} if args.trace else INFORMATIONAL).items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}  (not declared in BENCHMARK.json)")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':34s} {failed_frac:.6g} fraction"
          f"  ({tally.failed} of {tally.attempted} operations failed;"
          f" {tally.known} checked against ground truth, {tally.wrong} wrong,"
          f" {tally.errors} errors)")
    for digest in notes["report_sha256"]:
        print(f"  report_sha256 {digest}")
    for name in notes.get("absent", []):
        print(f"  absent: {name} (its boundary function no longer exists)")
    negative = notes["negative_witnesses"]
    if negative["count"]:
        print(f"  note: {negative['count']} feasible witnesses have an entry below"
              f" -{checks.NEGATIVE_WITNESS:g} (lowest {negative['lowest']:.3g});"
              " reported, not counted as failures")
    for text in notes["program_errors"]:
        print(f"  program error: {text}")
    for text in problems:
        print(f"  NOT CORRECT: {text}")
    print(f"  environment {json.dumps(env)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "environment": env, "metrics": ordered,
              "informational": {name: metrics[name] for name in INFORMATIONAL if name in metrics},
              "failed_frac": failed_frac, "tally": vars(tally), "notes": notes}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in ordered.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
