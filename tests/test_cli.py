import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

import contextuality
from contextuality import SolverFailure, cli, wilson_interval
from contextuality.cli import cli_main
from contextuality.io import read_pairlog

from test_io import MALFORMED_MARGINALS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def trine_dir(tmp_path):
    code, _, err = run(
        ["gen", "quantum", "--angles", "0,120,240", "--n", "5000", "--seed", "7",
         "--out", str(tmp_path / "d")]
    )
    assert code == 0, err
    return tmp_path / "d"


@pytest.fixture()
def partial_dir(tmp_path):
    """A log of four observables with pairs 0-3 and 1-3 missing: of its four
    triples, only (a0, a1, a2) has every pair."""
    code, _, err = run(
        ["gen", "quantum", "--angles", "0,60,120,180", "--n", "50", "--seed", "3",
         "--pairs", "0-1,0-2,1-2,2-3", "--out", str(tmp_path / "q")]
    )
    assert code == 0, err
    return tmp_path / "q"


SKIPPED = [
    (["a0", "a1", "a3"], "no logged pairs for ('a3', 'a1')"),
    (["a0", "a2", "a3"], "no logged pairs for ('a0', 'a3')"),
    (["a1", "a2", "a3"], "no logged pairs for ('a1', 'a3')"),
]


class TestGen:
    def test_quantum_writes_pairs_and_exact(self, trine_dir):
        assert (trine_dir / "pairs").exists()
        exact = json.loads((trine_dir / "exact.json").read_text())
        assert exact["observables"] == ["a0", "a1", "a2"]
        assert exact["transition_params"]["a0,a1"] == pytest.approx(0.25, abs=1e-9)

    def test_quantum_logs_only_the_given_pairs(self, partial_dir):
        log = read_pairlog(partial_dir / "pairs")
        ids = log.observables.ids()
        logged = {(ids[a], ids[b]) for a, b in zip(log.first_index, log.second_index)}
        assert logged == {("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("a2", "a3")}
        assert len(log) == 4 * 50
        exact = json.loads((partial_dir / "exact.json").read_text())
        assert list(exact["transition_params"]) == ["a0,a1", "a0,a2", "a1,a2", "a2,a3"]
        assert exact["transition_params"]["a2,a3"] == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pairs", ""], "--pairs entries look like i-j, got ''"),
            (["--pairs", "0-1,2"], "--pairs entries look like i-j, got '2'"),
            (["--pairs", "0-x"], "--pairs entries look like i-j, got '0-x'"),
            (["--pairs", "0-0"], "invalid measurement pair (0, 0)"),
            (["--pairs", "0-3"], "invalid measurement pair (0, 3)"),
            (["--pairs", "0-1,1-0"], "measurement pair (1, 0) is listed twice"),
            (["--pairs", "0-1,0-1"], "measurement pair (0, 1) is listed twice"),
            (["--angles", "0,a"], "--angles must be comma-separated numbers, got '0,a'"),
        ],
    )
    def test_bad_pairs_or_angles_are_usage_errors(self, tmp_path, flags, message):
        argv = ["gen", "quantum", "--angles", "0,60,120", "--n", "5", *flags]
        code, out, err = run([*argv, "--out", str(tmp_path / "q")])
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert not (tmp_path / "q").exists()

    def test_classical_writes_records_and_exact(self, tmp_path):
        code, _, err = run(
            ["gen", "classical", "--t", "3", "--n", "100", "--seed", "1",
             "--out", str(tmp_path / "c")]
        )
        assert code == 0, err
        records = (tmp_path / "c" / "records").read_text().splitlines()
        assert records[0] == "x0,x1,x2"
        assert len(records) == 101
        table = json.loads((tmp_path / "c" / "exact.json").read_text())["table"]
        assert len(table) == 8
        assert sum(table) == pytest.approx(1.0, abs=1e-6)

    def test_classical_with_explicit_table(self, tmp_path):
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps([0.0, 0.0, 0.0, 1.0]))  # point mass on (1,1)
        code, _, err = run(
            ["gen", "classical", "--t", "2", "--n", "10", "--table", str(table_file),
             "--out", str(tmp_path / "c")]
        )
        assert code == 0, err
        lines = (tmp_path / "c" / "records").read_text().splitlines()
        assert lines[1:] == ["1,1"] * 10

    @pytest.mark.parametrize(
        "content",
        # the last is an integer too large for a float
        ['{"a": 1}', "[true, false]", '["0.5", "0.5"]', "[1" + "0" * 400 + ", 0]"],
    )
    def test_classical_table_entries_are_checked_not_coerced(self, tmp_path, content):
        table_file = tmp_path / "table.json"
        table_file.write_text(content)
        code, _, err = run(
            ["gen", "classical", "--t", "1", "--n", "10", "--table", str(table_file),
             "--out", str(tmp_path / "c")]
        )
        assert code == 2
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert not (tmp_path / "c").exists()

    def test_classical_table_with_nan_is_usage_error(self, tmp_path):
        # NaN passes the sign and sum checks, and would only fail in numpy's sampler
        table_file = tmp_path / "table.json"
        table_file.write_text("[NaN, 1.0]")
        code, _, err = run(
            ["gen", "classical", "--t", "1", "--n", "3", "--table", str(table_file),
             "--out", str(tmp_path / "c")]
        )
        assert (code, err) == (1, "usage error: distribution entries must be finite\n")
        assert not (tmp_path / "c").exists()

    def test_quantum_with_no_shots_is_usage_error(self, tmp_path):
        # a pair log with no entries is refused by its own reader
        code, _, err = run(
            ["gen", "quantum", "--angles", "0,120", "--n", "0", "--out", str(tmp_path / "q")]
        )
        assert (code, err) == (1, "usage error: --n must be at least 1, got 0\n")
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["quantum", "--angles", "0,120,240"], {
                "pairs": "b3637dd194796e5fbd7d710f3210fc4efe6a619c7ee6f7c1e9335592f42e9d35",
                "exact.json": "c400f800b77b71051359badad07420ff2248647390d7a5fdf7ebae6d53b1d290",
            }),
            (["classical", "--t", "4"], {
                "records": "6000153a45ac6860ccaa2b0faa8de4a0d52b5bc5bd789b729d52918ccdbb23b1",
                "exact.json": "84d29b5d474880c0b757fddf6e07bf3384236ea6a67ccd74986d5bc1888beddf",
            }),
        ],
    )
    def test_written_files_are_pinned(self, tmp_path, argv, expected):
        # the benchmark's report hashes are computed over these bytes
        code, _, err = run(["gen", *argv, "--n", "500", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0, err
        written = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
        }
        assert written == expected

    def test_invalid_size_is_usage_error(self, tmp_path):
        for argv in (
            ["classical", "--t", "17", "--n", "1"],
            ["classical", "--t", "3", "--n", "1", "--seed", "-1"],
            ["quantum", "--angles", "0,120", "--n", "1", "--seed", "-1"],
        ):
            code, _, err = run(["gen", *argv, "--out", str(tmp_path / "c")])
            assert (code, err.startswith("usage error:")) == (1, True), argv

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classical", "--t", "2", "--n", "100000000000000000000"],
             "num_records x num_observables must be at most 100000000"),
            (["classical", "--t", "1", "--n", "100000001"],
             "num_records x num_observables must be at most 100000000"),
            (["quantum", "--angles", "0,90", "--n", "10000000000000000"],
             "logged pairs x shots must be at most 100000000"),
            (["quantum", "--angles", "0,90", "--n", "100000001"],
             "logged pairs x shots must be at most 100000000"),
        ],
        ids=["classical-beyond-int64", "classical-cap+1", "quantum-71-PiB", "quantum-cap+1"],
    )
    def test_oversized_output_is_usage_error(self, tmp_path, argv, message):
        # refused before numpy allocates, so no traceback and no directory
        code, out, err = run(["gen", *argv, "--out", str(tmp_path / "g")])
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert not (tmp_path / "g").exists()


class TestPers:
    def test_trine_end_to_end(self, trine_dir):
        code, out, err = run(
            ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
             "--mode", "exhaustive"]
        )
        assert code == 0, err
        body = json.loads(out)["report"]
        assert body["pers"]["sampled"] == 1
        assert body["pers"]["pers_accardi"] == 1.0
        assert body["triples"][0]["accardi_verdict"] == "contextual"

    def test_too_few_observables_is_data_error(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("A,B\n0,1\n1,0\n")
        code, _, err = run(["pers", "--input", str(data)])
        assert code == 2
        assert "at least 3 observables" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pers", "--input", "nope.csv"],
            ["pers", "--input", "pairs/x"],
            ["pers", "--input", "pairs", "--input-format", "pairlog", "--out", "pairs/r.json"],
            ["lp", "pairs/x"],
            ["greechie", "pairs/x"],
            ["gen", "classical", "--t", "3", "--n", "5", "--out", "pairs"],
            ["pers", "--input", "x" * 300],
        ],
        ids=["missing", "file-as-directory", "out-under-a-file", "lp", "greechie",
             "gen-out-is-a-file", "name-too-long"],
    )
    def test_file_system_error_is_data_error(self, trine_dir, monkeypatch, argv):
        # every OSError, not only a missing file, is a data error, and gen writes nothing
        monkeypatch.chdir(trine_dir)
        before = {path: path.read_bytes() for path in trine_dir.iterdir()}
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert {path: path.read_bytes() for path in trine_dir.iterdir()} == before

    def test_dataset_is_freed_before_the_report_is_written(self, trine_dir, monkeypatch):
        refs = []

        def read_pairlog(path):
            dataset = read(path)
            refs.append(weakref.ref(dataset))
            return dataset

        def write_report(report, **kwargs):
            assert refs and refs[0]() is None
            return write(report, **kwargs)

        read, write = cli.read_pairlog, cli.write_report
        monkeypatch.setattr(cli, "read_pairlog", read_pairlog)
        monkeypatch.setattr(cli, "write_report", write_report)
        code, _, err = run(["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog"])
        assert code == 0, err

    def test_unknown_flag_is_usage_error(self):
        code, _, err = run(["pers", "--nope"])
        assert code == 1

    def test_csv_output_to_file(self, trine_dir, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, err = run(
            ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
             "--mode", "exhaustive", "--format", "csv", "--out", str(out_file)]
        )
        assert code == 0, err
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_byte_identical_across_runs(self, trine_dir, tmp_path):
        outputs = []
        for name in ("r1.json", "r2.json", "r3.json"):
            out_file = tmp_path / name
            code, _, err = run(
                ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
                 "--mode", "exhaustive", "--seed", "3", "--out", str(out_file)]
            )
            assert code == 0, err
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_flags_do_not_carry_over_to_the_next_call(self, trine_dir, tmp_path):
        pairs = ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog"]
        code, _, err = run([*pairs, "--mode", "exhaustive", "--seed", "3", "--smoothing",
                            "0.5", "--tol-lp", "1e-6", "--out", str(tmp_path / "r.json")])
        assert code == 0, err
        code, out, err = run(pairs)
        assert code == 0, err
        config = json.loads(out)["report"]["config"]
        assert (config["mode"], config["seed"], config["smoothing"],
                config["feasibility_tol"]) == ("without_replacement", 0, 0.0, 1e-8)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "exhaustive", "--triples", "5"],
            ["--mode", "exhaustive", "--triples", "-3"],
            ["--triples", "-3"],
            ["--triples", "100001"],
            ["--mode", "with_replacement", "--triples", "1000000000"],
        ],
    )
    def test_bad_triple_count_is_data_error(self, trine_dir, flags):
        # exhaustive mode visits every triple, so any count would be misreported;
        # the other modes build their whole list of triples, so they are capped
        code, out, err = run(
            ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog", *flags]
        )
        assert (code, out) == (2, "")
        assert "num_triples" in err

    def test_skipped_triples_in_json(self, partial_dir):
        code, out, err = run(["pers", "--input", str(partial_dir / "pairs"),
                              "--input-format", "pairlog", "--mode", "exhaustive"])
        assert code == 0, err
        body = json.loads(out)["report"]
        assert (body["pers"]["sampled"], body["pers"]["decided"], body["pers"]["skipped"]) == (
            4, 1, 3)
        assert body["skipped"] == [{"observables": ids, "reason": why} for ids, why in SKIPPED]
        decided, *skipped = body["triples"]
        assert decided["observables"] == ["a0", "a1", "a2"] and decided["error"] is None
        assert skipped == [
            {"observables": ids, "params": None, "accardi_verdict": None, "accardi_slack": None,
             "lp_feasible": None, "lp_max_violation": None, "error": why}
            for ids, why in SKIPPED
        ]

    def test_sampled_rate_and_lp_interval_count_decided_triples_only(self, tmp_path):
        # the partial log with enough shots that its one decided triple,
        # (a0, a1, a2), is applicable and contextual; the other three skip
        code, _, err = run(
            ["gen", "quantum", "--angles", "0,60,120,180", "--n", "20000", "--seed", "3",
             "--pairs", "0-1,0-2,1-2,2-3", "--out", str(tmp_path / "q")]
        )
        assert code == 0, err
        code, out, err = run(["pers", "--input", str(tmp_path / "q" / "pairs"),
                              "--input-format", "pairlog", "--mode", "exhaustive"])
        assert code == 0, err
        pers = json.loads(out)["report"]["pers"]
        counts = ("sampled", "decided", "applicable", "accardi_violations", "lp_violations")
        assert [pers[name] for name in counts] == [4, 1, 1, 1, 1]
        assert pers["pers_accardi_sampled"] == pers["accardi_violations"] / pers["decided"]
        expected = wilson_interval(pers["lp_violations"], pers["decided"])
        assert pers["ci95_lp"] == pytest.approx(list(expected), rel=1e-11)

    def test_skipped_triples_in_csv(self, partial_dir, tmp_path):
        code, out, err = run(["pers", "--input", str(partial_dir / "pairs"), "--input-format",
                              "pairlog", "--mode", "exhaustive", "--format", "csv",
                              "--out", str(tmp_path / "r.csv")])
        assert (code, out) == (0, ""), err
        header, decided, *skipped = (tmp_path / "r.csv").read_text().splitlines()
        assert len(header.split(",")) == len(decided.split(",")) == 15
        assert decided.startswith("a0,a1,a2,") and "" not in decided.split(",")[:-1]
        # a skipped row has empty cells, and its reason's commas become ';'
        assert skipped == [
            ",".join(ids) + "," * 12 + why.replace(",", ";") for ids, why in SKIPPED
        ]

    def test_negative_seed_is_data_error(self, trine_dir):
        code, out, err = run(
            ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
             "--seed", "-1"]
        )
        assert (code, out) == (2, "")
        assert "seed must be a non-negative integer" in err

    @pytest.mark.parametrize(
        "gen, pers, expected",
        [
            (["quantum", "--angles", "0,60,120,180,240,300", "--n", "500"],
             ["pairs", "--input-format", "pairlog", "--mode", "exhaustive"],
             "ae075b4f2b188840148ee334b033dd18b0e65c6849ced94b5a38ab8ed2d860dd"),
            (["classical", "--t", "6", "--n", "2000"], ["records"],
             "2b134977c183921c30e83bbe98307b4f58e276455bb89c91fb8cd57a72919c50"),
            (["quantum", "--angles", "0,60,120,180,240,300", "--n", "500"],
             ["pairs", "--input-format", "pairlog", "--mode", "with_replacement",
              "--triples", "30", "--seed", "2"],
             "3404f49f33a0531095257b63988aae0de1c7fd09f71a2a1c1e3bf591f6c34f0f"),
            (["classical", "--t", "6", "--n", "2000"], ["records", "--triples", "7", "--seed", "4"],
             "5de18a96c2a9fb64b6fb248633183501a1e1f5c61212da9b3c0b2fd1ea6ae9b9"),
        ],
        ids=["pairlog", "joint", "pairlog-with-replacement", "joint-given-count"],
    )
    def test_report_body_is_pinned(self, tmp_path, monkeypatch, gen, pers, expected):
        # parsing, statistics and serialization must leave the report bytes as
        # they were; the body names the input path, so it is given relatively
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["gen", *gen, "--seed", "7", "--out", "."])
        assert code == 0, err
        code, out, err = run(["pers", "--input", *pers])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestNonsenseTolerances:
    @pytest.mark.parametrize("command", ["pers", "triple"])
    @pytest.mark.parametrize("flag", ["--tol-lp", "--tol-b", "--smoothing"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_dataset_commands_exit_two(self, trine_dir, command, flag, value):
        argv = [command, "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
                flag, value]
        if command == "triple":
            argv += ["--ids", "a0,a1,a2"]
        code, out, err = run(argv)
        assert code == 2, (out, err)
        assert "must be finite" in err

    @pytest.mark.parametrize("flag", ["--tol-lp", "--tol-b", "--smoothing"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_pers_exits_two_when_every_triple_skips(self, tmp_path, flag, value):
        log = tmp_path / "pairs"  # no A-C pair, so the only triple skips
        log.write_text("obs_a,val_a,obs_b,val_b\nA,0,B,1\nB,1,C,0\n")
        code, out, err = run(["pers", "--input", str(log), "--input-format", "pairlog",
                              flag, value])
        assert code == 2, (out, err)
        assert "must be finite" in err

    @pytest.mark.parametrize("command", ["pers", "triple"])
    def test_smoothing_that_overflows_a_pair_total_exits_two(self, trine_dir, command):
        argv = [command, "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
                "--smoothing", "1e308"]
        if command == "triple":
            argv += ["--ids", "a0,a1,a2"]
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == "data error: smoothing overflows a pair total (4 * smoothing), got 1e+308\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_lp_tolerance_exits_two(self, tmp_path, value):
        doc = {
            "observables": ["A", "B"],
            "num_outcomes": 2,
            "pairs": [{"pair": ["A", "B"], "table": [[0.5, 0.0], [0.0, 0.5]]}],
            "tolerance": value,
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["lp", str(path)])
        assert code == 2, (out, err)
        assert "must be finite" in err


class TestTriple:
    def test_prints_params_and_verdicts(self, trine_dir):
        code, out, err = run(
            ["triple", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
             "--ids", "a0,a1,a2"]
        )
        assert code == 0, err
        assert out == (
            "triple: a0,a1,a2\n"
            "p=0.253767337241 q=0.247389379851 r=0.254425514696\n"
            "deviations: 0.00510355616664 0.00442506195343 0.0182247828823\n"
            "applicable: yes\n"
            "accardi: contextual (slack -0.244417768212)\n"
            "lp: infeasible (max violation 0.0441333333333)\n"
        )

    def test_two_ids_is_usage_error(self, trine_dir):
        code, _, _ = run(
            ["triple", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog",
             "--ids", "a0,a1"]
        )
        assert code == 1


class TestLp:
    def test_infeasible_marginals(self, tmp_path):
        doc = {
            "observables": ["A", "B", "C"],
            "num_outcomes": 2,
            "pairs": [
                {"pair": ["A", "B"], "table": [[0.125, 0.375], [0.375, 0.125]]},
                {"pair": ["B", "C"], "table": [[0.125, 0.375], [0.375, 0.125]]},
                {"pair": ["C", "A"], "table": [[0.125, 0.375], [0.375, 0.125]]},
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["lp", str(path)])
        assert code == 0
        assert "feasible: no" in out

    def test_feasible_marginals(self, tmp_path):
        doc = {
            "observables": ["A", "B"],
            "num_outcomes": 2,
            "pairs": [{"pair": ["A", "B"], "table": [[0.5, 0.0], [0.0, 0.5]]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["lp", str(path)])
        assert code == 0
        assert "feasible: yes" in out

    def test_malformed_file_is_data_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{broken")
        code, _, _ = run(["lp", str(path)])
        assert code == 2

    @pytest.mark.parametrize("doc", MALFORMED_MARGINALS)
    def test_malformed_field_types_are_data_errors(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["lp", str(path)])
        assert code == 2
        assert err.startswith("data error:")

    def test_solver_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        doc = {
            "observables": ["A", "B"],
            "num_outcomes": 2,
            "pairs": [{"pair": ["A", "B"], "table": [[0.5, 0.0], [0.0, 0.5]]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        import contextuality.cli as cli_module

        def boom(problem):
            raise SolverFailure("synthetic breakdown")

        monkeypatch.setattr(cli_module, "decide_feasibility", boom)
        code, _, err = run(["lp", str(path)])
        assert code == 3
        assert "solver failure" in err


class TestGreechie:
    def test_triangle(self, tmp_path):
        path = tmp_path / "triangle.gh"
        path.write_text(
            "atom a\natom b\natom c\ncontext a b\ncontext b c\ncontext c a\n"
        )
        code, out, err = run(["greechie", str(path)])
        assert code == 0, err
        assert "states: exists" in out
        assert "two-valued states: 0" in out
        assert "connected: yes" in out

    def test_single_context(self, tmp_path):
        path = tmp_path / "pair.gh"
        path.write_text("atom a\natom b\ncontext a b\n")
        code, out, _ = run(["greechie", str(path)])
        assert code == 0
        assert "two-valued states: 2" in out

    @pytest.mark.parametrize("limit", ["0", "-2"])
    def test_enumerate_limit_below_one_is_usage_error(self, tmp_path, limit):
        path = tmp_path / "pair.gh"
        path.write_text("atom a\natom b\ncontext a b\n")
        code, out, err = run(["greechie", str(path), "--enumerate-limit", limit])
        assert code == 1, (out, err)
        assert out == ""
        assert "--enumerate-limit must be at least 1" in err

    def test_capped_count_is_a_lower_bound(self, tmp_path):
        path = tmp_path / "pair.gh"  # two two-valued states
        path.write_text("atom a\natom b\ncontext a b\n")
        code, out, _ = run(["greechie", str(path), "--enumerate-limit", "1"])
        assert code == 0
        assert "two-valued states: at least 1\n" in out
        code, out, _ = run(["greechie", str(path), "--enumerate-limit", "2"])
        assert code == 0
        assert "two-valued states: 2\n" in out

    def test_five_cycle(self, tmp_path):
        path = tmp_path / "cycle.gh"
        lines = [f"atom a{i}" for i in range(1, 6)]
        lines += [f"context a{i} a{i % 5 + 1}" for i in range(1, 6)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(["greechie", str(path)])
        assert code == 0
        assert "states: exists" in out
        assert "two-valued states: 0" in out

    def test_star_of_1953_contexts(self, tmp_path):
        # contexts {a0, ai, aj}; each one a0 satisfies is skipped without recursing
        path = tmp_path / "star.gh"
        lines = [f"atom a{i}" for i in range(64)]
        lines += [f"context a0 a{i} a{j}" for i in range(1, 64) for j in range(i + 1, 64)]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["greechie", str(path)])
        assert code == 0, err
        assert out == "states: exists\ntwo-valued states: 1\nconnected: yes\n"

    @pytest.mark.parametrize(
        "atoms, message",
        [
            # 66 atoms pass find_state's cap and fail the enumeration's
            (66, "66 atoms exceed 64"),
            # one atom in no context gives an invalid: line before find_state's cap
            (10_001, "10001 atoms exceed 10000"),
        ],
    )
    def test_an_atom_cap_prints_nothing_to_stdout(self, tmp_path, atoms, message):
        path = tmp_path / "big.gh"
        lines = [f"atom a{i}" for i in range(atoms)]
        lines += [f"context a{i} a{i + 1}" for i in range(0, atoms - 1, 2)]
        path.write_text("\n".join(lines) + "\n")
        assert run(["greechie", str(path)]) == (2, "", f"data error: {message}\n")

    def test_invalid_structure_reported(self, tmp_path):
        path = tmp_path / "h.gh"
        path.write_text("atom a\natom b\natom c\ncontext a b\ncontext a b c\n")
        code, out, _ = run(["greechie", str(path)])
        assert code == 0
        assert "invalid:" in out

    def test_help_exits_zero(self):
        code, _, _ = run(["--help"])
        assert code == 0


class TestTripleOnJointInput:
    def test_joint_dataset_triple(self, tmp_path):
        data = tmp_path / "records.csv"
        rows = ["A,B,C"] + ["1,1,0", "0,0,1"] * 30
        data.write_text("\n".join(rows) + "\n")
        code, out, err = run(["triple", "--input", str(data), "--ids", "A,B,C"])
        assert code == 0, err
        # B copies A, C complements it: boundary-classical and feasible
        assert out == (
            "triple: A,B,C\n"
            "p=1 q=0 r=0\n"
            "deviations: 0 0 0\n"
            "applicable: yes\n"
            "accardi: classical (slack 0)\n"
            "lp: feasible (max violation 2.77555756156e-17)\n"
        )


def test_every_command_opens_its_files_as_utf8(tmp_path):
    # a file opened with the locale's encoding would read differently elsewhere
    (tmp_path / "table.json").write_text(json.dumps([0.125] * 8), encoding="utf-8")
    pair = {"pair": ["A", "B"], "table": [[0.5, 0.0], [0.0, 0.5]]}
    (tmp_path / "m.json").write_text(json.dumps(
        {"observables": ["A", "B"], "num_outcomes": 2, "pairs": [pair]}), encoding="utf-8")
    (tmp_path / "h.gh").write_text("atom a\natom b\ncontext a b\n", encoding="utf-8")
    commands = [
        ["gen", "classical", "--t", "3", "--n", "50", "--table", "table.json", "--out", "c"],
        ["gen", "quantum", "--angles", "0,120,240", "--n", "50", "--out", "q"],
        ["pers", "--input", "c/records", "--out", "r.json"],
        ["pers", "--input", "q/pairs", "--input-format", "pairlog", "--format", "csv"],
        ["triple", "--input", "q/pairs", "--input-format", "pairlog", "--ids", "a0,a1,a2"],
        ["lp", "m.json"],
        ["greechie", "h.gh"],
    ]
    script = ("import json, sys\nfrom contextuality.cli import cli_main\n"
              "sys.exit(max(cli_main(argv) for argv in json.loads(sys.argv[1])))")
    src = str(Path(contextuality.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script, json.dumps(commands)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "r.json").exists() and "two-valued states: 2" in proc.stdout


def test_scipy_is_imported_by_the_first_solve_only(trine_dir):
    # the trine is a binary triple, decided in closed form; a partial
    # problem (two pairs of three observables) needs HiGHS
    pair = {"table": [[0.5, 0.0], [0.0, 0.5]]}
    (trine_dir / "m.json").write_text(json.dumps({
        "observables": ["A", "B", "C"], "num_outcomes": 2,
        "pairs": [{**pair, "pair": ["A", "B"]}, {**pair, "pair": ["B", "C"]}],
    }), encoding="utf-8")
    script = textwrap.dedent("""
        import io, json, sys
        def scipy_modules():
            return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
        loaded = {}
        import contextuality
        loaded["import"] = scipy_modules()
        from contextuality.cli import cli_main
        loaded["import cli"] = scipy_modules()
        out = io.StringIO()
        code = cli_main(["pers", "--input", "pairs", "--input-format", "pairlog",
                         "--mode", "exhaustive"], out=out)
        sampled = json.loads(out.getvalue())["report"]["pers"]["sampled"]
        loaded["pers"] = (code, sampled, scipy_modules())
        out = io.StringIO()
        code = cli_main(["lp", "m.json"], out=out)
        loaded["lp"] = (code, out.getvalue().splitlines()[0], "scipy.optimize" in sys.modules)
        print(json.dumps(loaded))
    """)
    src = str(Path(contextuality.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=trine_dir, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "import": [],
        "import cli": [],
        "pers": [0, 1, []],
        "lp": [0, "feasible: yes", True],
    }
