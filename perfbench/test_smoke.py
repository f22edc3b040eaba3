"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its
unit, that traced and untraced passes write the same report body, that
a flipped verdict is counted as a failure, and that the benchmark
refuses to run without the package source.
"""

from __future__ import annotations

import functools
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "smoke"
SEED = 5


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.cache
def smoke_run(workload: str, trace: int) -> tuple[str, dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def hashes(stdout: str) -> list[str]:
    return [line.split()[-1] for line in stdout.splitlines() if "report_sha256" in line]


def test_benchmark_json_matches_printed_metric_sets():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        stdout, result = smoke_run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        printed = {**units, **run.INFORMATIONAL} if trace == 0 else units
        for name, unit in printed.items():
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in stdout.splitlines()), name
        assert any(line.split()[:1] == ["failed_frac"] for line in stdout.splitlines())
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["pairlog_t20", "joint_t12"])
def test_traced_and_untraced_report_hashes_agree(workload):
    untraced, _ = smoke_run(workload, 0)
    traced, result = smoke_run(workload, 1)
    # the traced run holds an untraced and a traced worker; one hash means both agree
    assert len(hashes(traced)) == 1
    assert hashes(untraced) == hashes(traced)
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9


def test_flipped_verdict_counts_as_failure():
    from contextuality.cli import cli_main

    scale = workloads.SCALES["smoke"]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    workloads.setup("pairlog_t20", SEED, scale, SCRATCH)
    report = SCRATCH / "report.json"
    argv = ["pers", "--input", str(SCRATCH / "pairs"), "--input-format", "pairlog",
            "--mode", "exhaustive", "--out", str(report)]
    assert cli_main(argv, io.StringIO(), io.StringIO()) == 0
    _, rows = worker.report_digest(report.read_text())
    clean = checks.judge_pairlog_rows(rows, scale.angles)
    assert clean.known > 0 and clean.failed == 0

    known = next(row for row in rows if row[3] and abs(checks.exact_pairlog_slack(
        scale.angles, [int(x[1:]) for x in row[:3]])) > checks.SAMPLING_MARGIN)
    known[4] = "classical" if known[4] == "contextual" else "contextual"
    flipped = checks.judge_pairlog_rows(rows, scale.angles)
    assert flipped.wrong == 1 and flipped.failed / flipped.attempted > 0

    lp = checks.judge_lp({"expect": False}, {"error": None, "feasible": True,
                                              "max_violation": 0.0}, 1e-8)
    assert lp.failed == 1


def test_refuses_to_run_without_package_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lp_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
