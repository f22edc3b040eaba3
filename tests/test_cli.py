import hashlib
import io
import json
import weakref

import pytest

from contextuality import SolverFailure, cli
from contextuality.cli import cli_main

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


class TestGen:
    def test_quantum_writes_pairs_and_exact(self, trine_dir):
        assert (trine_dir / "pairs").exists()
        exact = json.loads((trine_dir / "exact.json").read_text())
        assert exact["observables"] == ["a0", "a1", "a2"]
        assert exact["transition_params"]["a0,a1"] == pytest.approx(0.25, abs=1e-9)

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

    def test_missing_file_is_data_error(self, tmp_path):
        code, _, err = run(["pers", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

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
        ],
    )
    def test_bad_triple_count_is_data_error(self, trine_dir, flags):
        # exhaustive mode visits every triple, so any count would be misreported
        code, out, err = run(
            ["pers", "--input", str(trine_dir / "pairs"), "--input-format", "pairlog", *flags]
        )
        assert (code, out) == (2, "")
        assert "num_triples" in err

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
        ],
        ids=["pairlog", "joint"],
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
        assert "accardi: contextual" in out
        assert "lp: infeasible" in out

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
        assert "p=1 q=0 r=0" in out
        assert "accardi: classical" in out
        assert "lp: feasible" in out
