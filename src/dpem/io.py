"""File formats: dataset CSV, JSON metadata sidecars, result rows, summary
rows, and the key = value configuration format.

All numbers are written with shortest round-trip decimal text, so
parse(print(rows)) reproduces values exactly and repeated writes are
byte-identical.  Only the dataset functions load numpy, so reading and
writing result and summary rows does not.

A dataset file of more than one 1024-row block is written and parsed on two
processes where the host can run them at once: a child forked by _forked
formats every other block, or parses the second half of the file, and sends
it back through a pipe.  The bytes and the parsed bits are those of one
process, which is also what runs where there is no fork or one CPU.  A text
file that its encoding cannot decode is a ParseError at the line of the
first such byte.

Every number read as text passes one grammar (_number), and every CSV file
is read with csv.QUOTE_NONE: a cell is exactly the text between two commas.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from io import TextIOWrapper
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError, ParseError

if TYPE_CHECKING:
    from .models import ObservationSet

__all__ = [
    "RESULT_COLUMNS",
    "SUMMARY_COLUMNS",
    "fmt",
    "write_dataset",
    "read_dataset",
    "read_labeled",
    "write_metadata",
    "read_metadata",
    "write_results",
    "read_results",
    "write_summary",
    "parse_config_file",
]

RESULT_COLUMNS = [
    "model", "algorithm", "eps", "delta", "d", "n", "T", "C",
    "seed", "iter", "error", "wall_ms",
]

SUMMARY_COLUMNS = [
    "model", "algorithm", "eps", "delta", "d", "n", "T", "C", "iter",
    "n_seeds", "median_error", "q25_error", "q75_error",
]


# what an unquoted cell cannot hold; Python 3.11's QUOTE_NONE writer lets \r through
_UNQUOTED = frozenset(',"\r\n')


def fmt(value) -> str:
    """Shortest exact decimal text for a finite float; plain text otherwise.
    What the readers refuse is refused here: a NaN or an infinity, and text
    holding a comma, a quote or a line break (no cell is quoted)."""
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 subclasses float
        if not math.isfinite(value):
            raise DataError(f"refusing to serialize the non-finite number {value!r}")
        return repr(float(value))
    text = str(value)
    if not _UNQUOTED.isdisjoint(text):
        raise DataError(f"refusing to serialize {text!r}: a cell may not hold a comma, "
                        "a quote or a line break")
    return text


# the blanks numpy's C reader skips around a number; float refuses \x1c-\x1f
_BLANKS = " \t\v\f\x1c\x1d\x1e\x1f"


def _number(text: str, convert=float):
    """convert(text), convert being float or int, or None if text is not in
    the one number grammar: ASCII without _, and the spelling convert takes
    with _BLANKS around it.  On ASCII that is what np.loadtxt reads."""
    if text.isascii() and "_" not in text:
        try:
            return convert(text.strip(_BLANKS))
        except ValueError:
            pass
    return None


def _parse_float(text: str, line: int, what: str) -> float:
    if (value := _number(text)) is not None and math.isfinite(value):
        return value
    raise ParseError(f"bad {what} value {text!r} (expected a finite number)", line)


def _columns(prefix: str, count: int) -> list[str]:
    """prefix1..prefixN; at least one, so a header too narrow never matches."""
    return [f"{prefix}{j + 1}" for j in range(max(count, 1))]


def _dataset_columns(kind: str, width: int) -> list[str]:
    return _columns("y", width) if kind == "gmm" else _columns("x", width - 1) + ["y"]


def _read_table(path, what: str, header_for):
    """Yield (lineno, cells) for each row of a CSV table.  The header must
    equal header_for(len(header)) and every row must be as wide; a fault
    raises ParseError at its line (the header is line 1), as does a row the
    csv module refuses, such as one with a cell over its field size limit,
    or a byte the text encoding cannot decode."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"empty {what} file", 1)
            expected = header_for(len(header))
            if header != expected:
                raise ParseError(f"expected header {expected}, got {header}", 1)
            for cells in reader:
                if len(cells) != len(header):
                    raise ParseError(f"expected {len(header)} cells, got {len(cells)}",
                                     reader.line_num)
                yield reader.line_num, cells
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None


def _undecodable(path, exc: UnicodeDecodeError) -> ParseError:
    """exc, met reading path as text, as a ParseError at the physical line
    (ended by \\n, \\r or \\r\\n, as the csv reader counts them) of the
    first byte the encoding cannot decode.  A text stream decodes in chunks,
    so exc itself does not say where in the file that byte is."""
    data = Path(path).read_bytes()
    try:
        data.decode(exc.encoding)
        return ParseError(f"cannot decode the file as {exc.encoding}")  # it changed since
    except UnicodeDecodeError as first:
        head = data[:first.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ParseError(f"cannot decode byte 0x{data[first.start]:02x} as {exc.encoding}: "
                          f"{first.reason}", line)


def _write_table(path, header: list[str], rows) -> None:
    rows = list(rows)  # a cell fmt refuses leaves path untouched
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONE)
        writer.writerow(header)
        writer.writerows(rows)


# Rows per block of write_dataset: each block becomes Python floats, then
# text, while the rest of the table stays in its array.  On two processes the
# blocks alternate between them, so each holds one block at a time (a
# prototype whose child formatted a whole half at once took gen's peak RSS
# from 51.4 to 66.0 MB).  A file of at most one block is written or parsed
# on one process.
_ROWS = 1024


def _cpus() -> int:
    """The CPUs this process can run on, as its affinity mask counts them;
    1 where there is no os.fork or os.sched_getaffinity."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


@contextmanager
def _forked(work):
    """Run work(out) in a forked child process, out being a binary file that
    writes to a pipe, and yield a binary file that reads the pipe.  Yield
    None and fork nothing if work is None or there is one CPU (_cpus).

    The child runs work and ends by os._exit, so it runs no exit handler and
    flushes none of this process's buffers, such as stdout's; io's own work
    imports nothing.  On leaving, this process kills the child if it still
    runs and reaps it, on an error too.  Its exit status is not read: a
    caller uses only a message that came in full (_receive) and does the
    work itself otherwise, so a child that dies costs time, never bytes."""
    if work is None or _cpus() < 2:
        yield None
        return
    import signal  # here, so that report, which writes no dataset, does not load it

    r, w = os.pipe()
    with open(r, "rb") as reader, open(w, "wb") as writer:
        if not (pid := os.fork()):
            try:
                work(writer)
                writer.flush()
            finally:
                os._exit(0)
        writer.close()
        try:
            yield reader
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(out, data: bytes) -> None:
    out.write(len(data).to_bytes(8, "little"))
    out.write(data)


def _receive(reader) -> bytes | None:
    """The next message _send wrote to reader, or None if there is no reader
    or the sender ended before all of it was sent."""
    if reader is not None and len(head := reader.read(8)) == 8:
        size = int.from_bytes(head, "little")
        if len(data := reader.read(size)) == size:
            return data
    return None


def write_dataset(path, obs: ObservationSet) -> None:
    """gmm: y1..yd.  mrm/rmc: x1..xd,y; rmc leaves missing x-cells empty.
    A forked child formats the odd blocks (_forked), this process the even
    ones and any the child did not send, and this process writes them all.
    Each block's table is built from obs's arrays as it is formatted, so
    neither process holds a second copy of the whole table."""
    import numpy as np

    starts = range(0, obs.n, _ROWS)

    def block(i: int) -> bytes:
        rows = slice(i, i + _ROWS)
        table = obs.ys[rows] if obs.kind == "gmm" else np.column_stack([
            obs.xs[rows] if obs.mask is None else np.where(obs.mask[rows], obs.xs[rows], np.nan),
            obs.ys[rows]])
        text = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        # the observations are finite, so NaN marks exactly the missing rmc
        # cells, and no finite float's repr contains the text nan
        return (text if obs.mask is None else text.replace("nan", "")).encode()

    def odd_blocks(out) -> None:
        for i in starts[1::2]:
            _send(out, block(i))

    with Path(path).open("wb") as fh, _forked(odd_blocks if len(starts) > 1 else None) as child:
        width = obs.d if obs.kind == "gmm" else obs.d + 1
        fh.write((",".join(_dataset_columns(obs.kind, width)) + "\n").encode())
        for k, i in enumerate(starts):
            sent = _receive(child) if k % 2 else None
            fh.write(block(i) if sent is None else sent)


def read_dataset(path, kind: str) -> ObservationSet:
    """Inverse of write_dataset.  Every cell must be a finite number, except
    that an empty x-cell of an rmc file is a missing covariate (NaN).  The
    table comes from _read_complete_table; a file it refuses is walked row
    by row only to raise its first fault at its line, and one in which no
    fault is found is a bug, raised naming the file."""
    from .models import ObservationSet

    if (table := _read_complete_table(path, kind)) is None:
        rows = 0
        for lineno, row in _read_table(path, "dataset", lambda w: _dataset_columns(kind, w)):
            values = [_number(c) if c else math.nan for c in row]
            if None in values:
                raise ParseError(f"bad cell {row[values.index(None)]!r} "
                                 "(expected a finite number)", lineno)
            empty = row[:-1].count("") if kind == "rmc" else 0  # missing covariates
            if sum(map(math.isfinite, values)) + empty != len(row):
                raise ParseError("non-finite or empty cell (only an rmc x-cell may be empty)",
                                 lineno)
            rows += 1
        if not rows:
            raise ParseError("dataset has no rows", 2)
        raise ParseError(f"bug: numpy's reader refused {path}, in which no fault was found")
    if kind == "gmm":
        return ObservationSet.from_arrays(kind, table)
    return ObservationSet.from_arrays(kind, table[:, :-1], table[:, -1])


def _read_complete_table(path, kind: str):
    """The table of a dataset file without a fault, parsed by numpy's C
    reader, or None if the file has any fault: a bad header (or one the csv
    module refuses), no rows, a blank, short or long row, a cell over the
    csv module's field size limit, a byte the text encoding cannot decode,
    or a cell outside the number grammar (_number) or not finite, except an
    empty rmc x-cell.  read_dataset then reports the fault at its line.

    A row that holds an n or N is refused, since every spelling of nan and
    inf does, and an empty cell of an rmc row reaches the C reader as the
    text nan.  So every NaN in the table is an empty rmc x-cell, and the
    table is refused if one is in the y column.  A row that is not ASCII is
    refused too, so a half's lines hold exactly its bytes.

    A body of more than one block is split after the first \\n at or after
    its middle byte, and a forked child parses the second half (_forked)
    while this process parses the first; this process parses the second half
    too if the child sent no rows."""
    import numpy as np

    with Path(path).open(newline="") as fh:
        try:
            # only the first line: the expected names hold no line break
            header = next(csv.reader([first := fh.readline()], quoting=csv.QUOTE_NONE), None)
        except (csv.Error, UnicodeDecodeError):
            return None
    if header is None or header != _dataset_columns(kind, len(header)):
        return None
    # a header that matches is ASCII, so its length is its bytes
    width, start, limit, rmc = len(header), len(first), csv.field_size_limit(), kind == "rmc"
    with Path(path).open("rb") as raw:
        split = size = raw.seek(0, os.SEEK_END)
        if start == size:  # no rows: the C reader would warn
            return None
        raw.seek(start)
        ends = 0
        while ends <= _ROWS and (chunk := raw.read(1 << 16)):
            ends += chunk.count(b"\n")
        if ends > _ROWS:
            raw.seek((start + size) // 2)
            raw.readline()  # to the end of the file if no \n follows
            split = raw.tell()

    def rows(begin: int, end: int):
        """The rows of bytes [begin, end), which start and end lines, or None."""
        count = 0

        def lines():
            nonlocal count
            left = end - begin
            for line in text:
                if not line.strip("\r\n"):  # which the C reader would skip
                    raise ValueError("blank row")
                if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
                    raise ValueError("a cell the csv module refuses")
                if "n" in line or "N" in line:
                    raise ValueError("nan or inf text")
                if not line.isascii():
                    raise ValueError("not ASCII")
                left -= len(line)
                if rmc:
                    if line[0] == ",":
                        line = "nan" + line
                    # twice, since replace skips the overlapping match in ,,,
                    line = line.replace(",,", ",nan,").replace(",,", ",nan,")
                count += 1
                yield line
                if left <= 0:
                    return

        with Path(path).open("rb") as body:
            body.seek(begin)
            text = TextIOWrapper(body, newline="")
            try:
                table = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
            except ValueError:  # a blank row, a cell that is not a number, a ragged row
                return None
        if (table.shape != (count, width) or np.isinf(table).any()  # such as 1e400
                or np.isnan(table[:, -1]).any()):
            return None
        return table

    def second_half(out) -> None:
        if (table := rows(split, size)) is not None:
            _send(out, table.tobytes())

    with _forked(second_half if split < size else None) as child:
        if (table := rows(start, split)) is None or split == size:
            return table
        sent = _receive(child)
    rest = rows(split, size) if sent is None else np.frombuffer(sent).reshape(-1, width)
    return None if rest is None else np.concatenate([table, rest])


def read_labeled(path):
    """Labeled real data: f1..fd,label with label in {0, 1}."""
    import numpy as np

    features, labels = [], []
    header_for = lambda width: _columns("f", width - 1) + ["label"]
    for lineno, cells in _read_table(path, "labeled", header_for):
        features.append([_parse_float(c, lineno, "feature") for c in cells[:-1]])
        if cells[-1] not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, got {cells[-1]!r}", lineno)
        labels.append(int(cells[-1]))
    if not labels:
        raise ParseError("labeled file has no rows", 2)
    return np.array(features), np.array(labels)


def write_metadata(path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_metadata(path) -> dict:
    try:
        meta = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad metadata JSON: {exc}", exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if not isinstance(meta, dict):
        raise DataError(f"metadata: expected a JSON object, got {type(meta).__name__}")
    return meta


def write_results(path, rows: list[dict]) -> None:
    _write_table(path, RESULT_COLUMNS, ([fmt(row[c]) for c in RESULT_COLUMNS] for row in rows))


def read_results(path) -> list[dict]:
    rows = []
    for lineno, cells in _read_table(path, "results", lambda width: RESULT_COLUMNS):
        record = dict(zip(RESULT_COLUMNS, cells))
        for key in ("eps", "delta", "C", "error", "wall_ms"):
            if record[key] or key in ("error", "wall_ms"):  # eps, delta, C may be empty
                record[key] = _parse_float(record[key], lineno, key)
        for key in ("d", "n", "T", "seed", "iter"):
            if (value := _number(record[key], int)) is None:
                raise ParseError(f"bad {key} value {record[key]!r}", lineno)
            record[key] = value
        rows.append(record)
    return rows


def write_summary(path, rows: list[dict]) -> None:
    _write_table(path, SUMMARY_COLUMNS, ([fmt(row[c]) for c in SUMMARY_COLUMNS] for row in rows))


def parse_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; keys may be dotted, and a
    key given twice is refused at its second line."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    # read_text ends every line with \n; splitlines would also break at \f
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if key in out:
            raise ParseError(f"key {key!r} given twice", lineno)
        out[key] = value.strip()
    return out
