"""File formats: dataset CSV, JSON metadata sidecars, result rows, summary
rows, and the key = value configuration format.

All numbers are written with shortest round-trip decimal text, so
parse(print(rows)) reproduces values exactly and repeated writes are
byte-identical.  Only the dataset functions load numpy, so reading and
writing result and summary rows does not.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
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


def fmt(value) -> str:
    """Shortest exact decimal text for a float; plain text otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 subclasses float
        if math.isnan(value):
            raise DataError("refusing to serialize NaN")
        return repr(float(value))
    return str(value)


def _parse_float(text: str, line: int, what: str) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ParseError(f"bad {what} value {text!r} (expected a finite number)", line)


def _columns(prefix: str, count: int) -> list[str]:
    """prefix1..prefixN; at least one, so a header too narrow never matches."""
    return [f"{prefix}{j + 1}" for j in range(max(count, 1))]


def _dataset_columns(kind: str, width: int) -> list[str]:
    return _columns("y", width) if kind == "gmm" else _columns("x", width - 1) + ["y"]


def _read_table(path, what: str, header_for):
    """Yield (lineno, cells) for each row of a CSV table, lineno being the
    physical line the row ends on, so a quoted cell that spans lines does not
    shift the lines after it.  The header must equal header_for(len(header))
    and every row must be as wide; a fault raises ParseError at its line (the
    header is line 1), as does a row the csv module refuses, such as one with
    a cell over its field size limit."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
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


def _write_table(path, header: list[str], rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# Rows per block of write_dataset: each block becomes Python floats, then
# text, while the rest of the table stays in its array.
_ROWS = 1024


def write_dataset(path, obs: ObservationSet) -> None:
    """gmm: y1..yd.  mrm/rmc: x1..xd,y; rmc leaves missing x-cells empty."""
    import numpy as np

    table = obs.ys if obs.kind == "gmm" else np.column_stack(
        [obs.xs if obs.mask is None else np.where(obs.mask, obs.xs, np.nan), obs.ys])
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_dataset_columns(obs.kind, table.shape[1])) + "\n")
        for i in range(0, len(table), _ROWS):
            # the observations are finite, so NaN marks exactly the missing
            # cells, and no finite float's repr contains the text nan
            fh.write("".join(",".join(map(repr, row)) + "\n"
                             for row in table[i:i + _ROWS].tolist()).replace("nan", ""))


def read_dataset(path, kind: str) -> ObservationSet:
    """Inverse of write_dataset.  Every cell must be a finite number, except
    that an empty x-cell of an rmc file is a missing covariate (NaN)."""
    import numpy as np

    from .models import ObservationSet

    def observations(table):
        if kind == "gmm":
            return ObservationSet.from_arrays(kind, table)
        return ObservationSet.from_arrays(kind, table[:, :-1], table[:, -1])

    if (table := _read_complete_table(path, kind)) is not None:
        return observations(table)

    # Otherwise cell by cell, reporting the first fault at its line.  An empty
    # cell reads as NaN, which only an rmc x-cell may be.
    nan, rows = math.nan, 0

    def cells():
        nonlocal rows
        for lineno, row in _read_table(path, "dataset", lambda w: _dataset_columns(kind, w)):
            try:
                values = [float(c) if c else nan for c in row]
            except ValueError as exc:
                raise ParseError(f"{exc} (expected a finite number)", lineno) from None
            empty = row.count("") if kind == "rmc" and row[-1] else 0
            if sum(map(math.isfinite, values)) + empty != len(row):
                raise ParseError("non-finite or empty cell (only an rmc x-cell may be empty)",
                                 lineno)
            rows += 1
            yield from values

    # one array grows as the rows stream in, in place of a list of row lists
    flat = np.fromiter(cells(), dtype=float)
    if not rows:
        raise ParseError("dataset has no rows", 2)
    return observations(flat.reshape(rows, -1))


def _read_complete_table(path, kind: str):
    """The table of a dataset file without a fault, parsed by numpy's C
    reader, or None if the file has any fault: a bad header (or one the csv
    module refuses), no rows, a blank, short or long row, a line over the csv
    module's field size limit, or a cell that is not a plain finite number,
    except an empty rmc x-cell.  read_dataset's cell-by-cell reader then
    reports the fault at its line.  Both convert a cell's text with CPython's
    correctly rounded parser, so a table read either way has the same bits.

    A row that holds an n or N goes to the cell reader, since every spelling
    of nan and inf does, and an empty cell of an rmc row reaches the C reader
    as the text nan.  So every NaN in the table is an empty rmc x-cell, and
    the table is refused if one is in the y column."""
    import numpy as np

    with Path(path).open(newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error:
            return None
        if header is None or header != _dataset_columns(kind, len(header)):
            return None
        rows, limit, rmc = 0, csv.field_size_limit(), kind == "rmc"

        def lines():
            nonlocal rows
            for line in fh:
                if not line.strip("\r\n"):  # which the C reader would skip
                    raise ValueError("blank row")
                if len(line) > limit:  # the csv module may refuse a cell in it
                    raise ValueError("long row")
                if "n" in line or "N" in line:
                    raise ValueError("nan or inf text")
                if rmc:
                    if line[0] == ",":
                        line = "nan" + line
                    # twice, since replace skips the overlapping match in ,,,
                    line = line.replace(",,", ",nan,").replace(",,", ",nan,")
                rows += 1
                yield line

        body = lines()
        try:
            first = next(body, None)
            if first is None:  # no rows: the C reader would warn
                return None
            table = np.loadtxt(itertools.chain((first,), body), delimiter=",",
                               comments=None, ndmin=2)
        except ValueError:  # a blank row, a cell that is not a number, a ragged row
            return None
    if (table.shape != (rows, len(header)) or np.isinf(table).any()  # such as 1e400
            or np.isnan(table[:, -1]).any()):
        return None
    return table


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
            try:
                record[key] = int(record[key])
            except ValueError:
                raise ParseError(f"bad {key} value {record[key]!r}", lineno) from None
        rows.append(record)
    return rows


def write_summary(path, rows: list[dict]) -> None:
    _write_table(path, SUMMARY_COLUMNS, ([fmt(row[c]) for c in SUMMARY_COLUMNS] for row in rows))


def parse_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; keys may be dotted."""
    out: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError("empty key", lineno)
        out[key] = value.strip()
    return out
