"""File formats: joint record tables, pair logs, hypergraphs, marginal
problems.

Joint format: CSV, a header line of observable names, then one line of
0/1 values per record.  Pair-log format: CSV with fixed header
``obs_a,val_a,obs_b,val_b``.  Hypergraph format: ``atom NAME`` lines,
then ``context A B ...`` lines; ``#`` starts a comment.  Marginal
problems: JSON (see :func:`read_marginals`).

Parsers report 1-based line and field positions on failure and ignore
blank lines; whitespace around fields is trimmed.  Record and pair-log
files repeat a few lines many times, so each distinct line is validated
and converted once and the rows are gathered by one array index; an
error names the first line that holds the bad text.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .datasets import JointRecordDataset, PairLogDataset
from .errors import HeaderMismatch, NonBinaryValue, ParseError
from .feasibility import DEFAULT_FEASIBILITY_TOL, JointFeasibilityProblem
from .hypergraph import ContextHypergraph
from .observables import ObservableSet

_LINE_BLOCK_CHARS = 1 << 16
_MEMO_LINES = 1 << 12  # distinct lines remembered at a time, so no file is held whole
_BITS = {"0": 0, "1": 1}
_WRITE_BLOCK_ROWS = 1 << 14  # rows formatted at a time, so no file is held whole as text

PAIRLOG_HEADER = ("obs_a", "val_a", "obs_b", "val_b")


def _data_lines(text: str, allow_comments: bool = False):
    """(line number, stripped line) for each non-blank line, numbered as by
    ``text.splitlines()``.  The text is split a block at a time, each block
    ending just after a newline, so a large file's lines are never all held
    at once."""
    first, start = 1, 0
    while start < len(text):
        end = text.find("\n", start + _LINE_BLOCK_CHARS) + 1 or len(text)
        block = text[start:end].splitlines()
        for lineno, line in enumerate(map(str.strip, block), start=first):
            if allow_comments and "#" in line:
                line = line.split("#", 1)[0].strip()
            if line:
                yield lineno, line
        first += len(block)
        start = end


def _header_and_lines(path):
    """(remaining data lines, header line number, stripped header) of a CSV file."""
    lines = _data_lines(Path(path).read_text())
    try:
        header_line, header = next(lines)
    except StopIteration:
        raise ParseError("empty file: missing header") from None
    return lines, header_line, header


def _parse_bit(field: str, lineno: int, column: int) -> int:
    value = field.strip()
    if value not in _BITS:
        raise NonBinaryValue(f"expected 0 or 1, got {value!r}", line=lineno, column=column)
    return _BITS[value]


def _gather(lines, parse_row, width: int) -> np.ndarray:
    """The rows of the remaining lines as an (N, width) array of the narrowest
    unsigned type.  Only a line unlike the last ``_MEMO_LINES`` distinct ones
    goes to ``parse_row(line, lineno)``, which checks it and returns its row."""
    memo: dict[str, int] = {}  # line -> row code
    distinct, codes, rows = [], [], 0
    for lineno, line in lines:
        code = memo.get(line)
        if code is None:
            if len(memo) == _MEMO_LINES:
                memo.clear()
            distinct += parse_row(line, lineno)
            code = memo[line] = rows
            rows += 1
        codes.append(code)
    table = np.array(distinct, dtype=np.uint32).reshape(-1, width)
    table = table.astype(np.min_scalar_type(table.max(initial=0)))  # keeps the parse peak low
    return table[np.array(codes, dtype=np.int32)]


def read_joint(path) -> JointRecordDataset:
    """Parse a joint record file.

    Raises:
        ParseError / NonBinaryValue / HeaderMismatch with line and field
        position.
    """
    lines, header_line, header = _header_and_lines(path)
    names = [f.strip() for f in header.split(",")]
    if any(not n for n in names):
        raise HeaderMismatch("empty observable name in header", line=header_line)
    try:
        observables = ObservableSet.from_ids(names, source=str(path))
    except ValueError as exc:
        raise HeaderMismatch(str(exc), line=header_line) from None

    def parse_row(line, lineno):
        fields = line.split(",")
        if len(fields) != len(names):
            raise ParseError(f"expected {len(names)} fields, got {len(fields)}", line=lineno)
        try:
            return [_BITS[f] for f in fields]
        except KeyError:  # padded or not a bit
            return [_parse_bit(f, lineno, col) for col, f in enumerate(fields, start=1)]

    return JointRecordDataset(observables, _gather(lines, parse_row, len(names)))


def write_joint(dataset: JointRecordDataset, path) -> None:
    """Each block of records is written as one ASCII array: a digit at every
    even column, then ``,`` or, at the row end, a newline."""
    with open(path, "w") as out:
        out.write(",".join(dataset.observables.ids()) + "\n")
        for start in range(0, len(dataset), _WRITE_BLOCK_ROWS):
            block = dataset.records[start:start + _WRITE_BLOCK_ROWS]
            text = np.full((len(block), 2 * block.shape[1]), ord(","), dtype=np.uint8)
            np.add(block, ord("0"), out=text[:, 0::2])
            text[:, -1] = ord("\n")
            out.write(text.tobytes().decode("ascii"))


def read_pairlog(path) -> PairLogDataset:
    """Parse a pair-log file; observables are collected in order of first
    appearance."""
    lines, header_line, header = _header_and_lines(path)
    fields = tuple(f.strip() for f in header.split(","))
    if fields != PAIRLOG_HEADER:
        raise HeaderMismatch(
            f"pair-log header must be {','.join(PAIRLOG_HEADER)!r}, got {header!r}",
            line=header_line,
        )
    index: dict[str, int] = {}  # observable -> position of first appearance

    def parse_row(line, lineno):
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", line=lineno)
        obs_a, obs_b = parts[0].strip(), parts[2].strip()
        if not obs_a or not obs_b:
            raise ParseError("empty observable name", line=lineno)
        if obs_a == obs_b:
            raise ParseError(f"entry pairs {obs_a!r} with itself", line=lineno)
        try:
            val_a, val_b = _BITS[parts[1]], _BITS[parts[3]]
        except KeyError:  # padded or not a bit
            val_a, val_b = _parse_bit(parts[1], lineno, 2), _parse_bit(parts[3], lineno, 4)
        return (index.setdefault(obs_a, len(index)), val_a,
                index.setdefault(obs_b, len(index)), val_b)

    entries = _gather(lines, parse_row, 4)
    if not index:
        raise ParseError("pair-log holds no entries")
    return PairLogDataset(ObservableSet.from_ids(index, source=str(path)), *entries.T)


def write_pairlog(dataset: PairLogDataset, path) -> None:
    """Each line is a head for (first observable, value) plus a tail for
    (second observable, value), both looked up by ``2 * index + value``."""
    ids = dataset.observables.ids()
    heads = [f"{name},{value}," for name in ids for value in (0, 1)]
    tails = [f"{name},{value}\n" for name in ids for value in (0, 1)]
    with open(path, "w") as out:
        out.write(",".join(PAIRLOG_HEADER) + "\n")
        for start in range(0, len(dataset), _WRITE_BLOCK_ROWS):
            rows = slice(start, start + _WRITE_BLOCK_ROWS)
            first = (2 * dataset.first_index[rows] + dataset.first_value[rows]).tolist()
            second = (2 * dataset.second_index[rows] + dataset.second_value[rows]).tolist()
            out.write("".join([heads[a] + tails[b] for a, b in zip(first, second)]))


def read_hypergraph(path) -> ContextHypergraph:
    """Parse the hypergraph format: atom lines, then context lines."""
    atoms: list[str] = []
    contexts: list[tuple[str, ...]] = []
    for lineno, line in _data_lines(Path(path).read_text(), allow_comments=True):
        parts = line.split()
        keyword, rest = parts[0], parts[1:]
        if keyword == "atom":
            if len(rest) != 1:
                raise ParseError("atom lines take exactly one id", line=lineno)
            atoms.append(rest[0])
        elif keyword == "context":
            if not rest:
                raise ParseError("context lines need at least one atom id", line=lineno)
            contexts.append(tuple(rest))
        else:
            raise ParseError(
                f"expected 'atom' or 'context', got {keyword!r}", line=lineno, column=1
            )
    try:
        return ContextHypergraph(atoms=tuple(atoms), contexts=tuple(contexts))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_hypergraph(hypergraph: ContextHypergraph, path) -> None:
    lines = [f"atom {a}" for a in hypergraph.atoms]
    lines += ["context " + " ".join(c) for c in hypergraph.contexts]
    Path(path).write_text("\n".join(lines) + "\n")


def read_marginals(path) -> JointFeasibilityProblem:
    """Parse a marginal problem from JSON.

    Schema::

        {
          "observables": ["A", "B", "C"],
          "num_outcomes": 2,
          "pairs": [{"pair": ["A", "B"], "table": [[0.5, 0.0], [0.0, 0.5]]}],
          "tolerance": 1e-8            // optional
        }

    Types are checked, not coerced: ``observables`` is a list of distinct
    strings, ``num_outcomes`` an integer, ``tolerance`` and every table
    entry a number; each unordered pair is listed at most once.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno, column=exc.colno) from None
    try:
        names, n, pair_entries = doc["observables"], doc["num_outcomes"], doc["pairs"]
        tolerance = doc.get("tolerance", DEFAULT_FEASIBILITY_TOL)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from None
    # JSON numbers decode to exactly int or float, and true/false to bool
    if not (type(names) is list and all(type(name) is str for name in names)):
        raise ParseError("observables must be a list of strings")
    if type(n) is not int:
        raise ParseError(f"num_outcomes must be an integer, got {n!r}")
    if type(pair_entries) is not list:
        raise ParseError("pairs must be a list")
    if type(tolerance) not in (int, float):
        raise ParseError(f"tolerance must be a number, got {tolerance!r}")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("observable names must be distinct")
    marginals = {}
    for entry in pair_entries:
        try:
            pair, table = entry["pair"], np.asarray(entry["table"], dtype=object)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed pair entry: {exc}") from None
        if type(pair) is not list or len(pair) != 2:
            raise ParseError(f"pair must list two observables, got {pair!r}")
        a, b = pair
        if a not in names or b not in names:
            raise ParseError(f"pair ({a!r}, {b!r}) references unknown observables")
        ia, ib = index[a], index[b]
        if ia == ib:
            raise ParseError(f"pair ({a!r}, {b!r}) must name two distinct observables")
        if not all(type(v) in (int, float) for v in table.flat):
            raise ParseError(f"pair ({a!r}, {b!r}): table entries must be numbers")
        key = (ia, ib) if ia < ib else (ib, ia)
        if key in marginals:
            raise ParseError(f"pair ({a!r}, {b!r}) is listed more than once")
        marginals[key] = table if ia < ib else table.T
    try:
        return JointFeasibilityProblem(
            num_observables=len(names),
            num_outcomes=n,
            pair_marginals=marginals,
            tolerance=float(tolerance),
        )
    except (OverflowError, ValueError) as exc:
        raise ParseError(str(exc)) from None
