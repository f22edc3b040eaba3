import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality import (
    HeaderMismatch,
    JointRecordDataset,
    NonBinaryValue,
    ObservableSet,
    PairLogDataset,
    ParseError,
    SamplingPlan,
    decide_feasibility,
)
from contextuality.generators import ClassicalModelSpec, QubitModelSpec, gen_classical, gen_quantum
from contextuality.io import (
    read_hypergraph,
    read_joint,
    read_marginals,
    read_pairlog,
    write_hypergraph,
    write_joint,
    write_pairlog,
)
from contextuality import io as formats
from contextuality.hypergraph import ContextHypergraph
from contextuality.reports import analyze, write_report


_PAIR_AB = {"pair": ["A", "B"], "table": [[0.5, 0.0], [0.0, 0.5]]}
MALFORMED_MARGINALS = [
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2, "pairs": 5}, id="int-pairs"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2, "pairs": [_PAIR_AB],
                  "tolerance": None}, id="null-tolerance"),
    pytest.param({"observables": [["A"], "B"], "num_outcomes": 2, "pairs": [_PAIR_AB]},
                 id="list-observable"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2,
                  "pairs": [{**_PAIR_AB, "pair": [["A"], "B"]}]}, id="list-in-pair"),
    pytest.param({"observables": "AB", "num_outcomes": 2, "pairs": [_PAIR_AB]},
                 id="string-observables"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2.7, "pairs": [_PAIR_AB]},
                 id="float-num-outcomes"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": "2", "pairs": [_PAIR_AB]},
                 id="string-num-outcomes"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2, "pairs": [_PAIR_AB],
                  "tolerance": "1e-3"}, id="string-tolerance"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2, "pairs": [_PAIR_AB],
                  "tolerance": True}, id="bool-tolerance"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2,
                  "pairs": [{**_PAIR_AB, "table": [["0.5", "0"], ["0", "0.5"]]}]},
                 id="string-table-entries"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2,
                  "pairs": [{**_PAIR_AB, "pair": "AB"}]}, id="string-pair"),
    pytest.param({"observables": ["A", "B"], "num_outcomes": 2,
                  "pairs": [_PAIR_AB, {"pair": ["B", "A"], "table": [[0.0, 0.5], [0.5, 0.0]]}]},
                 id="pair-listed-twice"),
]


class TestJointFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,0\n")
        dataset = read_joint(path)
        assert dataset.observables.ids() == ("A", "B")
        assert dataset.records.tolist() == [[1, 0]]

    def test_non_binary_value_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(NonBinaryValue) as excinfo:
            read_joint(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == 2

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,0,1\n")
        with pytest.raises(ParseError) as excinfo:
            read_joint(path)
        assert excinfo.value.line == 2

    def test_duplicate_header_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,A\n1,0\n")
        with pytest.raises(HeaderMismatch):
            read_joint(path)

    def test_round_trip_on_generator_output(self, tmp_path):
        sample = gen_classical(ClassicalModelSpec(num_observables=4, num_records=500, seed=3))
        path = tmp_path / "records"
        write_joint(sample.dataset, path)
        loaded = read_joint(path)
        assert loaded.observables.ids() == sample.dataset.observables.ids()
        assert np.array_equal(loaded.records, sample.dataset.records)
        # writing what was read reproduces the file byte for byte
        second = tmp_path / "again"
        write_joint(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n\n1,0\n\n0,1\n")
        assert read_joint(path).records.tolist() == [[1, 0], [0, 1]]


class TestPairlogFormat:
    def test_header_must_match(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b,c,d\nA,0,B,1\n")
        with pytest.raises(HeaderMismatch):
            read_pairlog(path)

    def test_round_trip_on_generator_output(self, tmp_path):
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 120.0, 240.0), shots=200, seed=7))
        path = tmp_path / "pairs"
        write_pairlog(sample.dataset, path)
        loaded = read_pairlog(path)
        assert loaded.observables.ids() == sample.dataset.observables.ids()
        assert np.array_equal(loaded.first_index, sample.dataset.first_index)
        assert np.array_equal(loaded.second_value, sample.dataset.second_value)
        second = tmp_path / "again"
        write_pairlog(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_self_pair_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("obs_a,val_a,obs_b,val_b\nA,0,B,1\nx,0,x,1\n")
        with pytest.raises(ParseError, match="pairs 'x' with itself") as excinfo:
            read_pairlog(path)
        assert excinfo.value.line == 3

    def test_non_binary_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("obs_a,val_a,obs_b,val_b\nA,0,B,x\n")
        with pytest.raises(NonBinaryValue) as excinfo:
            read_pairlog(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == 4


def reference_data_lines(text, allow_comments=False):
    """The whole-text ``splitlines`` reading that ``_data_lines`` must match."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if allow_comments and "#" in line:
            line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def reference_bit(field, lineno, column):
    value = field.strip()
    if value not in ("0", "1"):
        raise NonBinaryValue(f"expected 0 or 1, got {value!r}", line=lineno, column=column)
    return int(value)


def reference_read_pairlog(text):
    """Pair-log entries parsed one line at a time: (observable ids, columns)."""
    lines = reference_data_lines(text)
    next(lines)  # the header, which these tests always write correctly
    index, columns = {}, ([], [], [], [])
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        obs_a, obs_b = parts[0].strip(), parts[2].strip()
        if not obs_a or not obs_b:
            raise ParseError("empty observable name", line=lineno)
        if obs_a == obs_b:
            raise ParseError(f"entry pairs {obs_a!r} with itself", line=lineno)
        columns[1].append(reference_bit(parts[1], lineno, 2))
        columns[3].append(reference_bit(parts[3], lineno, 4))
        columns[0].append(index.setdefault(obs_a, len(index)))
        columns[2].append(index.setdefault(obs_b, len(index)))
    if not index:
        raise ParseError("pair-log holds no entries")
    return tuple(index), columns


def reference_read_joint(text):
    """Joint records parsed one line at a time: (observable ids, records)."""
    lines = reference_data_lines(text)
    names = [f.strip() for f in next(lines)[1].split(",")]
    records = []
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != len(names):
            raise ParseError(f"expected {len(names)} fields, got {len(fields)}", line=lineno)
        records.append([reference_bit(f, lineno, col) for col, f in enumerate(fields, start=1)])
    return tuple(names), records


def error_of(call, *args):
    try:
        return call(*args), None
    except ParseError as exc:
        return None, (type(exc), str(exc), exc.line, exc.column)


PADS = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def rendered(draw, fields):
    """One data line: the fields, each padded with blanks or left bare."""
    return ",".join(draw(PADS) + str(f) + draw(PADS) for f in fields)


@st.composite
def data_file(draw, header, rows, bad_lines):
    """A header, then good rows drawn from a few distinct ones (so lines repeat,
    padded differently or not), blank lines, and perhaps one bad line,
    written once or more, anywhere among the good ones."""
    distinct = draw(st.lists(rows, min_size=1, max_size=4))
    body = draw(st.lists(
        st.one_of(st.sampled_from(distinct).flatmap(rendered), st.sampled_from(["", "  "])),
        max_size=30,
    ))
    if draw(st.booleans()):
        bad = draw(bad_lines(distinct))
        for _ in range(draw(st.integers(1, 3))):
            body.insert(draw(st.integers(0, len(body))), bad)
    return header + "\n" + "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in body)


NAMES = st.sampled_from(["A", "B", "c2", "long_name"])
PAIR_ROWS = st.tuples(NAMES, st.integers(0, 1), NAMES, st.integers(0, 1)).filter(
    lambda row: row[0] != row[2]
)


@st.composite
def bad_pair_lines(draw, distinct):
    a, va, b, vb = draw(st.sampled_from(distinct))
    return draw(st.sampled_from([
        f"{a},{va},{b}",  # too few fields
        f"{a},{va},{b},{vb},1",  # too many
        f" ,{va},{b},{vb}",  # empty name
        f"{a},{va},,{vb}",
        f"{a},{va},{a},{vb}",  # self-pair
        f"{a},2,{b},{vb}",  # not a bit
        f"{a},{va},{b}, x ",
        f"{a},01,{b},7",
        f"{a},{va},{b},",
    ]))


def joint_rows(width):
    return st.lists(st.integers(0, 1), min_size=width, max_size=width)


@st.composite
def bad_joint_lines(draw, distinct):
    row = [str(v) for v in draw(st.sampled_from(distinct))]
    column = draw(st.integers(0, len(row) - 1))
    return draw(st.sampled_from([
        ",".join(row[:-1]),  # too few fields
        ",".join(row + ["0"]),  # too many
        ",".join(row[:column] + [draw(st.sampled_from(["2", "x", "", " 10"]))] + row[column + 1:]),
    ]))


class TestTallyParsers:
    """Each distinct line is parsed once; the result and every error must be
    those of parsing each line in turn."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=data_file(",".join(formats.PAIRLOG_HEADER), PAIR_ROWS, bad_pair_lines),
        block=st.integers(1, 16),
        memo=st.sampled_from([1, 2, 3, 1 << 12]),
    )
    def test_pairlog_matches_line_by_line(self, tmp_path_factory, text, block, memo):
        path = tmp_path_factory.getbasetemp() / "tally_pairs"
        path.write_text(text)
        expected, expected_error = error_of(reference_read_pairlog, path.read_text())
        with mock.patch.multiple(formats, _LINE_BLOCK_CHARS=block, _MEMO_LINES=memo):
            got, got_error = error_of(read_pairlog, path)
        assert got_error == expected_error
        if expected_error is None:
            ids, columns = expected
            assert got.observables.ids() == ids
            for name, column in zip(("first_index", "first_value", "second_index",
                                     "second_value"), columns):
                assert getattr(got, name).tolist() == column

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        width=st.integers(1, 4),
        block=st.integers(1, 16),
        memo=st.sampled_from([1, 2, 3, 1 << 12]),
    )
    def test_joint_matches_line_by_line(self, tmp_path_factory, data, width, block, memo):
        header = ",".join(f"x{i}" for i in range(width))
        text = data.draw(data_file(header, joint_rows(width), bad_joint_lines))
        path = tmp_path_factory.getbasetemp() / "tally_records"
        path.write_text(text)
        expected, expected_error = error_of(reference_read_joint, path.read_text())
        with mock.patch.multiple(formats, _LINE_BLOCK_CHARS=block, _MEMO_LINES=memo):
            got, got_error = error_of(read_joint, path)
        assert got_error == expected_error
        if expected_error is None:
            assert got.observables.ids() == expected[0]
            assert got.records.dtype == np.uint8
            assert got.records.shape == (len(expected[1]), width)
            assert got.records.tolist() == expected[1]

    def test_joint_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B,C\n\n")
        records = read_joint(path).records
        assert (records.shape, records.dtype) == ((0, 3), np.uint8)


def reference_write_joint(dataset, path):
    """Joint records formatted one row at a time."""
    with open(path, "w") as out:
        out.write(",".join(dataset.observables.ids()) + "\n")
        for record in dataset.records.tolist():
            out.write(",".join(map(str, record)) + "\n")


def reference_write_pairlog(dataset, path):
    """Pair-log entries formatted one row at a time."""
    ids = dataset.observables.ids()
    columns = (dataset.first_index, dataset.first_value, dataset.second_index, dataset.second_value)
    with open(path, "w") as out:
        out.write(",".join(formats.PAIRLOG_HEADER) + "\n")
        for a, va, b, vb in zip(*(column.tolist() for column in columns)):
            out.write(f"{ids[a]},{va},{ids[b]},{vb}\n")


# ids of mixed length, some not ASCII
OBSERVABLE_IDS = st.lists(
    st.sampled_from(["A", "x0", "c2", "long_name", "ß", "Ω7", "观测", "é_é"]),
    min_size=1, max_size=5, unique=True,
).map(lambda ids: ObservableSet.from_ids(ids))


@st.composite
def joint_datasets(draw):
    observables = draw(OBSERVABLE_IDS)
    rows = draw(st.lists(joint_rows(len(observables)), max_size=40))
    records = np.array(rows, dtype=np.uint8).reshape(-1, len(observables))
    return JointRecordDataset(observables, records)


@st.composite
def pairlog_datasets(draw):
    observables = draw(OBSERVABLE_IDS)
    t = len(observables)
    entries = st.tuples(st.integers(0, t - 1), st.integers(0, 1),
                        st.integers(0, t - 1), st.integers(0, 1))
    rows = draw(st.lists(entries.filter(lambda e: e[0] != e[2]), max_size=40 if t > 1 else 0))
    return PairLogDataset(observables, *np.array(rows, dtype=np.int32).reshape(-1, 4).T)


WRITE_BLOCKS = st.sampled_from([1, 2, 3, 7, 1 << 14])
ONE_OBSERVABLE = ObservableSet.from_ids(["x0"])


class TestBlockWriters:
    """A block of rows is formatted at once; the bytes must be those of
    formatting each row in turn, wherever the blocks end."""

    @settings(max_examples=200, deadline=None)
    @given(dataset=joint_datasets(), block=WRITE_BLOCKS)
    @example(dataset=JointRecordDataset(ONE_OBSERVABLE, np.zeros((0, 1))), block=1 << 14)
    @example(dataset=JointRecordDataset(ONE_OBSERVABLE, [[1], [0], [1]]), block=2)
    def test_joint_matches_row_by_row(self, tmp_path_factory, dataset, block):
        expected, got = (tmp_path_factory.getbasetemp() / name for name in ("ref_r", "got_r"))
        reference_write_joint(dataset, expected)
        with mock.patch.object(formats, "_WRITE_BLOCK_ROWS", block):
            write_joint(dataset, got)
        assert got.read_bytes() == expected.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(dataset=pairlog_datasets(), block=WRITE_BLOCKS)
    @example(dataset=PairLogDataset(ONE_OBSERVABLE, [], [], [], []), block=1 << 14)
    def test_pairlog_matches_row_by_row(self, tmp_path_factory, dataset, block):
        expected, got = (tmp_path_factory.getbasetemp() / name for name in ("ref_p", "got_p"))
        reference_write_pairlog(dataset, expected)
        with mock.patch.object(formats, "_WRITE_BLOCK_ROWS", block):
            write_pairlog(dataset, got)
        assert got.read_bytes() == expected.read_bytes()


class TestDataLines:
    """Lines are split a block at a time; numbering must not depend on
    where the blocks end, whatever line breaks the text holds."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(alphabet="ab,# \t\n\r\x0b\x0c\x1c\x85\u2028", max_size=60),
        block=st.sampled_from([1, 2, 3, 7, 1 << 16]),
        allow_comments=st.booleans(),
    )
    def test_matches_whole_text_splitlines(self, text, block, allow_comments):
        with mock.patch.object(formats, "_LINE_BLOCK_CHARS", block):
            got = list(formats._data_lines(text, allow_comments))
        assert got == list(reference_data_lines(text, allow_comments))

    def test_error_line_number_past_many_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_LINE_BLOCK_CHARS", 16)
        lines = ["obs_a,val_a,obs_b,val_b"] + ["A,0,B,1", "", "B,1,C,0"] * 40 + ["C,1,A,2"]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonBinaryValue) as excinfo:
            read_pairlog(path)
        assert (excinfo.value.line, excinfo.value.column) == (len(lines), 4)
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert len(read_pairlog(path).first_index) == 80


class TestHypergraphFormat:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "h.gh"
        path.write_text("# triangle\natom a\natom b\natom c\ncontext a b\ncontext b c\ncontext c a\n")
        h = read_hypergraph(path)
        assert h.atoms == ("a", "b", "c")
        assert h.contexts == (("a", "b"), ("b", "c"), ("c", "a"))

    def test_round_trip(self, tmp_path):
        h = ContextHypergraph(atoms=("x", "y"), contexts=(("x", "y"),))
        path = tmp_path / "h.gh"
        write_hypergraph(h, path)
        assert read_hypergraph(path) == h

    def test_unknown_keyword(self, tmp_path):
        path = tmp_path / "h.gh"
        path.write_text("vertex a\n")
        with pytest.raises(ParseError) as excinfo:
            read_hypergraph(path)
        assert excinfo.value.line == 1


class TestMarginalsFormat:
    def test_read_and_decide(self, tmp_path):
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
        problem = read_marginals(path)
        assert problem.num_observables == 3
        assert not decide_feasibility(problem).feasible

    def test_reversed_pair_is_transposed(self, tmp_path):
        doc = {
            "observables": ["A", "B"],
            "num_outcomes": 2,
            "pairs": [{"pair": ["B", "A"], "table": [[0.1, 0.3], [0.2, 0.4]]}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        problem = read_marginals(path)
        assert problem.pair_marginals[(0, 1)].tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            read_marginals(path)

    @pytest.mark.parametrize("doc", MALFORMED_MARGINALS)
    def test_malformed_field_types(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_marginals(path)


class TestReportSerialization:
    @pytest.fixture()
    def report(self):
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 120.0, 240.0), shots=2000, seed=7))
        return analyze(sample.dataset, SamplingPlan(mode="exhaustive"))

    def test_json_body_is_deterministic(self, report):
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 120.0, 240.0), shots=2000, seed=7))
        again = analyze(sample.dataset, SamplingPlan(mode="exhaustive"))
        assert write_report(report) == write_report(again)

    def test_metadata_is_separate_from_body(self, report):
        with_meta = json.loads(write_report(report, metadata={"when": "now"}))
        without = json.loads(write_report(report))
        assert with_meta["report"] == without["report"]
        assert with_meta["metadata"] == {"when": "now"}
        assert "metadata" not in without

    def test_csv_has_one_row_per_triple(self, report):
        text = write_report(report, format="csv")
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(report.triples)
        header = lines[0].split(",")
        assert "accardi_slack" in header
        assert "lp_max_violation" in header

    def test_trine_row_shows_contextual_verdict(self, report):
        lines = write_report(report, format="csv").strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["accardi_verdict"] == "contextual"
        assert float(row["accardi_slack"]) == pytest.approx(-0.25, abs=0.05)
        assert row["lp_feasible"] == "false"

    def test_empty_report(self):
        sample = gen_quantum(QubitModelSpec(angles_deg=(0.0, 90.0), shots=10, seed=1))
        from contextuality.personalization import summarize
        from contextuality.reports import AnalysisReport

        plan = SamplingPlan(mode="exhaustive")
        report = AnalysisReport(
            source="x",
            observable_ids=("a0", "a1"),
            plan=plan,
            triples=(),
            pers=summarize([]),
        )
        body = json.loads(write_report(report))["report"]
        assert body["pers"]["sampled"] == 0
        assert body["triples"] == []
