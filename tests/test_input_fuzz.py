"""Mutation fuzz of every text input through the CLI.

Each example is a valid input file with 1-6 random byte or line edits.
Whatever the edits make of it, the command it feeds either succeeds
(exit 0, nothing on stderr) or refuses the file as a data error (exit 2,
one ``data error:`` line on stderr): never a traceback, a usage error or
a solver failure.
"""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality.cli import cli_main

JOINT = "A,B,C,D\n0,1,1,0\n1,1,0,0\n0,0,1,1\n1,0,1,0\n0,1,0,1\n1,1,1,1\n"
PAIRLOG = "obs_a,val_a,obs_b,val_b\n" + "".join(
    f"{a},{i},{b},{j}\n"
    for a, b in (("A", "B"), ("B", "C"), ("C", "A"))
    for i, j in ((0, 0), (0, 1), (1, 1), (1, 0), (1, 1))
)
MARGINALS = json.dumps({
    "observables": ["A", "B", "C"],
    "num_outcomes": 2,
    "pairs": [
        {"pair": ["A", "B"], "table": [[0.125, 0.375], [0.375, 0.125]]},
        {"pair": ["B", "C"], "table": [[0.5, 0.0], [0.0, 0.5]]},
        {"pair": ["C", "A"], "table": [[0.25, 0.25], [0.25, 0.25]]},
    ],
    "tolerance": 1e-8,
}, indent=1) + "\n"
HYPERGRAPH = "# a square and a triangle\natom a\natom b\natom c\natom d\n" \
             "context a b\ncontext b c\ncontext c d a\n"

# each input with the commands that read it, the file's path standing for {}
INPUTS = {
    "joint": (JOINT, [["pers", "--input", "{}"], ["triple", "--input", "{}", "--ids", "A,B,C"]]),
    "pairlog": (PAIRLOG, [["pers", "--input", "{}", "--input-format", "pairlog"],
                          ["triple", "--input", "{}", "--input-format", "pairlog",
                           "--ids", "A,B,C"]]),
    "marginals": (MARGINALS, [["lp", "{}"]]),
    "hypergraph": (HYPERGRAPH, [["greechie", "{}"]]),
}

# bytes the formats give meaning to, and any byte at all (invalid UTF-8 included)
BYTES = st.one_of(st.sampled_from(b'01,.-+e#\n\r\t "[]{}:AaBbCcNI'), st.integers(0, 255))
EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 10**4), BYTES),
        st.tuples(st.just("replace"), st.integers(0, 10**4), BYTES),
        st.tuples(st.just("delete"), st.integers(0, 10**4)),
        st.tuples(st.just("drop_line"), st.integers(0, 10**4)),
        st.tuples(st.just("copy_line"), st.integers(0, 10**4)),
        st.tuples(st.just("swap_lines"), st.integers(0, 10**4), st.integers(0, 10**4)),
    ),
    min_size=1,
    max_size=6,
)


def edit(data: bytes, edits) -> bytes:
    for kind, at, *rest in edits:
        if kind in ("insert", "replace", "delete"):
            i = at % (len(data) + 1)
            tail = data[i + (kind != "insert"):]
            data = data[:i] + (bytes(rest) if kind != "delete" else b"") + tail
        else:
            lines = data.split(b"\n")
            i = at % len(lines)
            if kind == "drop_line":
                del lines[i]
            elif kind == "copy_line":
                lines.insert(i, lines[i])
            else:
                j = rest[0] % len(lines)
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory)


@pytest.mark.parametrize("kind", INPUTS)
@settings(max_examples=100, deadline=None)
@given(edits=EDITS)
def test_an_edited_input_is_read_or_refused_as_a_data_error(scratch, kind, edits):
    text, commands = INPUTS[kind]
    path = scratch / kind
    path.write_bytes(edit(text.encode(), edits))
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        code = cli_main([str(path) if arg == "{}" else arg for arg in argv], out=out, err=err)
        message = err.getvalue()
        if code == 0:
            assert message == "", argv
        else:
            assert code == 2, (argv, message)
            assert message.startswith("data error: ") and len(message.splitlines()) == 1, message
            assert message.endswith("\n")
