import builtins
import csv
import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpem import io as io_module
from dpem.errors import DataError, ParseError
from dpem.io import (
    RESULT_COLUMNS,
    fmt,
    parse_config_file,
    read_dataset,
    read_labeled,
    read_metadata,
    read_results,
    write_dataset,
    write_metadata,
    write_results,
    write_summary,
)
from dpem.models import ModelSpec, ObservationSet, sample_observations
from dpem.numeric import RngStream


class TestFmt:
    def test_plain_values(self):
        assert fmt(None) == ""
        assert fmt(3) == "3"
        assert fmt("x") == "x"
        assert fmt(0.5) == "0.5"

    def test_nan_refused(self):
        with pytest.raises(DataError):
            fmt(float("nan"))

    @given(st.floats(allow_nan=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_exact(self, x):
        assert float(fmt(x)) == x or (np.isinf(x) and np.isinf(float(fmt(x))))

    def test_numpy_floats(self):
        assert float(fmt(np.float64(1) / 3)) == 1 / 3


@pytest.mark.parametrize("kind,p_m", [("gmm", 0.0), ("mrm", 0.0), ("rmc", 0.4)])
def test_dataset_round_trip(tmp_path, kind, p_m):
    model = ModelSpec(kind, 3, 1.0, p_m=p_m)
    obs = sample_observations(model, 40, np.array([1.0, -2.0, 0.5]), RngStream(2))
    path = tmp_path / "data.csv"
    write_dataset(path, obs)
    back = read_dataset(path, kind)
    assert np.array_equal(back.ys, obs.ys)
    if kind != "gmm":
        assert np.array_equal(back.xs, obs.xs)
    if kind == "rmc":
        assert np.array_equal(back.mask, obs.mask)


def test_dataset_write_deterministic(tmp_path):
    model = ModelSpec("gmm", 2, 1.0)
    obs = sample_observations(model, 10, np.ones(2), RngStream(3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(a, obs)
    write_dataset(b, obs)
    assert a.read_bytes() == b.read_bytes()


def test_rmc_missing_cells_written_empty(tmp_path):
    mask = np.array([[True, False], [False, True]])
    xs = np.where(mask, np.array([[1.5, 2.5], [3.5, 4.5]]), 0.0)
    obs = ObservationSet("rmc", np.array([1.0, 2.0]), xs, mask)
    path = tmp_path / "rmc.csv"
    write_dataset(path, obs)
    assert path.read_text() == "x1,x2,y\n1.5,,1.0\n,4.5,2.0\n"


class TestDatasetErrors:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_dataset(p, "gmm")

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "gmm")
        assert exc.value.line == 1

    def test_bad_cell_reports_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("y1,y2\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "gmm")
        assert exc.value.line == 3

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("y1,y2\n1,2,3\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "gmm")
        assert exc.value.line == 2

    def test_no_rows(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("y1,y2\n")
        with pytest.raises(ParseError):
            read_dataset(p, "gmm")

    def test_empty_cell_outside_rmc(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x1,x2,y\n1.0,,2.0\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "mrm")
        assert exc.value.line == 2
        assert read_dataset(p, "rmc").mask.tolist() == [[True, False]]


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "NaN"])
    @pytest.mark.parametrize("kind", ["gmm", "mrm", "rmc"])
    def test_non_finite_cell_reports_line(self, tmp_path, kind, cell):
        p = tmp_path / "f.csv"
        header = "y1,y2" if kind == "gmm" else "x1,y"
        p.write_text(f"{header}\n1.0,2.0\n3.0,4.0\n{cell},5.0\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, kind)
        assert exc.value.line == 4

    def test_non_finite_response_reports_line(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x1,y\n1.0,2.0\n,1e400\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "rmc")
        assert exc.value.line == 3

    def test_only_empty_cell_marks_missing(self, tmp_path):
        # an rmc covariate cell written as text nan is a fault, not a
        # missing covariate, even beside genuinely empty cells
        p = tmp_path / "f.csv"
        p.write_text("x1,x2,y\n,1.0,2.0\n1.0,,2.0\nnan,1.0,3.0\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "rmc")
        assert exc.value.line == 4

    def test_empty_response_cell_in_rmc(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x1,y\n1.0,2.0\n,\n")
        with pytest.raises(ParseError) as exc:
            read_dataset(p, "rmc")
        assert exc.value.line == 3

    @pytest.mark.parametrize("kind,header,fault", [
        ("gmm", "y1,y2", "5.0,oops"),  # a cell that is not a number
        ("gmm", "y1,y2", "5.0,nan"),  # a non-finite cell
        ("rmc", "x1,y", "5.0,"),  # an empty y
    ])
    def test_fault_after_a_multiline_cell_reports_its_physical_line(
            self, tmp_path, kind, header, fault):
        # the quoted cell of line 2 ends on line 3, so the fault is on line 5
        p = tmp_path / "f.csv"
        p.write_text(f'{header}\n"1.0\n",2.0\n3.0,4.0\n{fault}\n')
        with pytest.raises(ParseError) as exc:
            read_dataset(p, kind)
        assert exc.value.line == 5

    def test_first_fault_is_reported(self, tmp_path):
        # a non-finite cell before a cell that is not a number
        p = tmp_path / "f.csv"
        p.write_text("x1,y\n1.0,2.0\nnan,3.0\noops,4.0\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            read_dataset(p, "rmc")
        assert exc.value.line == 3


finite_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@given(kind=st.sampled_from(["gmm", "mrm", "rmc"]), n=st.integers(1, 4),
       d=st.integers(1, 3), data=st.data())
@settings(max_examples=150, deadline=None)
def test_dataset_round_trip_bitwise(tmp_path_factory, kind, n, d, data):
    cols = d if kind == "gmm" else d + 1
    table = np.array(data.draw(st.lists(finite_cells, min_size=n * cols,
                                        max_size=n * cols))).reshape(n, cols)
    if kind == "gmm":
        obs = ObservationSet("gmm", table)
    elif kind == "mrm":
        obs = ObservationSet("mrm", table[:, -1], table[:, :-1])
    else:
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n * d,
                                           max_size=n * d)), dtype=bool).reshape(n, d)
        obs = ObservationSet("rmc", table[:, -1], np.where(mask, table[:, :-1], 0.0), mask)
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    write_dataset(path, obs)
    back = read_dataset(path, kind)
    bits = lambda a: np.asarray(a).view(np.uint64)
    assert np.array_equal(bits(back.ys), bits(obs.ys))
    if kind != "gmm":
        assert np.array_equal(bits(back.xs), bits(obs.xs))
    if kind == "rmc":
        assert np.array_equal(back.mask, obs.mask)


SPECIAL_CELLS = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]


def csv_oracle(obs):
    """The dataset bytes as csv.writer wrote them cell by cell: each cell's
    repr, and an empty cell for each missing rmc covariate."""
    if obs.kind == "gmm":
        header, table = [f"y{j + 1}" for j in range(obs.d)], obs.ys
    else:
        xs = obs.xs if obs.mask is None else np.where(obs.mask, obs.xs, np.nan)
        header = [f"x{j + 1}" for j in range(obs.d)] + ["y"]
        table = np.column_stack([xs, obs.ys])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["" if v != v else repr(v) for v in row] for row in table.tolist())
    return buf.getvalue().encode()


class TestDatasetBlocks:
    # write_dataset converts 1024 rows at a time

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("kind", ["gmm", "mrm", "rmc"])
    def test_bytes_match_cell_by_cell_writer(self, tmp_path, kind, n):
        d = 3
        cols = d if kind == "gmm" else d + 1
        rng = np.random.default_rng(n)
        table = rng.standard_normal((n, cols)) * 10.0
        spots = np.unique(np.linspace(0, table.size - 1, 2 * len(SPECIAL_CELLS)).astype(int))
        table.flat[spots] = np.resize(SPECIAL_CELLS, len(spots))
        if kind == "gmm":
            obs = ObservationSet("gmm", table)
        elif kind == "mrm":
            obs = ObservationSet("mrm", table[:, -1], table[:, :-1])
        else:
            mask = rng.random((n, d)) > 0.3
            mask[-1] = True  # no covariate missing
            mask[0] = False  # every covariate missing
            if n > 1024:
                mask[1024] = False
            obs = ObservationSet("rmc", table[:, -1], np.where(mask, table[:, :-1], 0.0), mask)
        path = tmp_path / "data.csv"
        write_dataset(path, obs)
        assert path.read_bytes() == csv_oracle(obs)

    @staticmethod
    def faulty(tmp_path, kind, line, text):
        """A 2100-row dataset whose given line is replaced by text."""
        model = ModelSpec(kind, 3, 1.0, p_m=0.2 if kind == "rmc" else 0.0)
        obs = sample_observations(model, 2100, np.array([1.0, -2.0, 0.5]), RngStream(6))
        path = tmp_path / "data.csv"
        write_dataset(path, obs)
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = text + "\n"
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("kind,line,text", [
        ("gmm", 1500, "1.0,oops,2.0"),  # a bad cell
        ("rmc", 2000, "1.0,nan,,2.0"),  # the text nan in a covariate
        ("rmc", 1030, "1.0,2.0,3.0,"),  # an empty y
        ("mrm", 1100, "1.0,2.0,3.0,4.0,5.0"),  # a ragged row
    ])
    def test_fault_in_a_later_block_reports_its_line(self, tmp_path, kind, line, text):
        path = self.faulty(tmp_path, kind, line, text)
        with pytest.raises(ParseError) as exc:
            read_dataset(path, kind)
        assert exc.value.line == line

    def test_header_only_reports_line_2(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("x1,x2,y\n")
        with pytest.raises(ParseError, match="dataset has no rows") as exc:
            read_dataset(p, "rmc")
        assert exc.value.line == 2


class TestCompleteTable:
    # a dataset file without a fault is parsed by numpy's C reader; a file
    # with any fault goes to the cell-by-cell reader, which reports it

    @staticmethod
    def outcome(path, kind, monkeypatch, *, cells):
        """read_dataset's table, by the cell-by-cell reader alone if cells,
        or its error's class, message and line."""
        with monkeypatch.context() as patch:
            if cells:
                patch.setattr(io_module, "_read_complete_table", lambda path, kind: None)
            try:
                obs = read_dataset(path, kind)
            except ParseError as exc:
                return type(exc), str(exc), exc.line
        if kind == "gmm":
            return obs.ys
        # a missing rmc covariate as NaN, so the table also holds the mask
        return np.column_stack([obs.xs if obs.mask is None else np.where(obs.mask, obs.xs, np.nan),
                                obs.ys])

    @pytest.mark.parametrize("kind", ["gmm", "mrm"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_matches_cell_reader_bitwise(self, tmp_path, monkeypatch, kind, newline):
        cols = 4
        rng = np.random.default_rng(cols)
        table = rng.standard_normal((300, cols)) * 10.0
        table.flat[: len(SPECIAL_CELLS)] = SPECIAL_CELLS
        header = [f"y{j + 1}" for j in range(cols)] if kind == "gmm" else (
            [f"x{j + 1}" for j in range(cols - 1)] + ["y"])
        rows = [[repr(v) for v in row] for row in table.tolist()]
        # other spellings both readers accept: padding, exponents, signs
        rows[-1] = [" 1.5", "2E5 ", "+.5", "-7."]
        path = tmp_path / "data.csv"
        path.write_bytes(newline.join(",".join(r) for r in [header, *rows]).encode())
        fast = io_module._read_complete_table(path, kind)
        assert fast is not None
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        for cells in (False, True):
            got = self.outcome(path, kind, monkeypatch, cells=cells)
            assert np.array_equal(bits(got), bits(fast))
        assert np.array_equal(bits(fast[:-1]), bits(table[:-1]))

    @pytest.mark.parametrize("text", [
        "",  # empty file
        "y1,y2\n",  # no rows
        "y1,y3\n1,2\n",  # bad header
        "y1,y2\n\n",  # only a blank row
        "y1,y2\n\n1,2\n",  # blank first row
        "y1,y2\n1,2\n\n3,4\n",  # blank row inside
        "y1,y2\n1,2\n\n",  # blank last row
        "y1,y2\r\n1,2\r\n\r\n",  # blank last row, CRLF
        "y1,y2\n1,2\n   \n",  # a row of spaces
        "y1,y2\n1,2,3\n",  # long row
        "y1,y2\n1,2\n3\n",  # short row
        "y1,y2\n1,\n",  # empty cell
        "y1,y2\n1,nan\n",
        "y1,y2\n-inf,1\n",
        "y1,y2\n1,1e400\n",  # overflows to inf
        "y1,y2\n1,#2\n",  # no comment syntax
        "y1,y2\n1;2\n",
        'y1,y2\n"1",2\n',  # csv quoting: the cell reader accepts it
        "y1,y2\n1_0,2\n",  # float() accepts the underscore
        # a cell over the csv field size limit
        pytest.param("y1,y2\n1,2\n" + "0." + "1" * 140_000 + ",2\n", id="long-line"),
    ])
    def test_any_fault_goes_to_the_cell_reader(self, tmp_path, monkeypatch, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a file it reads no row of
            assert io_module._read_complete_table(path, "gmm") is None
        got = self.outcome(path, "gmm", monkeypatch, cells=False)
        want = self.outcome(path, "gmm", monkeypatch, cells=True)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_rmc_empty_cells_match_cell_reader_bitwise(self, tmp_path, monkeypatch, newline):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((300, 6)) * 10.0
        table[:, :-1][rng.random((300, 5)) < 0.3] = np.nan
        table[10] = SPECIAL_CELLS
        rows = [["" if v != v else repr(v) for v in row] for row in table.tolist()]
        rows[:6] = [r.split(",") for r in [
            ",1.5,2.5,3.5,4.5,5.5",  # empty first covariate
            "1.5,2.5,,3.5,4.5,5.5",  # empty middle covariate
            "1.5,2.5,3.5,4.5,,5.5",  # empty last covariate
            "1.5,,,,2.5,3.5",  # a ,,,, run
            ",,2.5,,,3.5",  # a leading run and a ,,, run
            ",,,,,6.5",  # every covariate empty
        ]]
        header = ["x1", "x2", "x3", "x4", "x5", "y"]
        path = tmp_path / "data.csv"
        path.write_bytes(newline.join(",".join(r) for r in [header, *rows]).encode())
        fast = io_module._read_complete_table(path, "rmc")
        assert fast is not None
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        got, want = (self.outcome(path, "rmc", monkeypatch, cells=cells) for cells in (False, True))
        assert np.array_equal(bits(got), bits(want))
        empty = np.array([[c == "" for c in r] for r in rows])
        assert np.array_equal(np.isnan(fast), empty) and np.array_equal(np.isnan(want), empty)
        assert np.array_equal(bits(fast[~empty]), bits(want[~empty]))
        assert np.array_equal(bits(want[6:][~empty[6:]]), bits(table[6:][~empty[6:]]))

    @pytest.mark.parametrize("row", [
        "nan,1.0,2.0",
        "1.0,NaN,2.0",
        "inf,,2.0",
        ",-Infinity,2.0",
        "1e400,,2.0",  # overflows to inf
        "1.0,,",  # an empty y
        ",,",  # every cell empty
        '"1.0",,2.0',  # csv quoting: the cell reader accepts it
        "1_0,,2.0",  # float() accepts the underscore
        # a cell over the csv field size limit
        pytest.param("0." + "1" * 140_000 + ",,2.0", id="long-line"),
    ])
    def test_any_rmc_fault_goes_to_the_cell_reader(self, tmp_path, monkeypatch, row):
        path = tmp_path / "data.csv"
        path.write_text(f"x1,x2,y\n1.0,,2.0\n,1.0,2.0\n{row}\n3.0,4.0,5.0\n")
        assert io_module._read_complete_table(path, "rmc") is None
        got = self.outcome(path, "rmc", monkeypatch, cells=False)
        want = self.outcome(path, "rmc", monkeypatch, cells=True)
        if isinstance(want, tuple):
            assert got == want and want[2] == 4
        else:
            assert np.array_equal(got, want, equal_nan=True)


def observations(kind, n, seed=0):
    model = ModelSpec(kind, 3, 1.0, p_m=0.3 if kind == "rmc" else 0.0)
    return sample_observations(model, n, np.array([1.0, -2.0, 0.5]), RngStream(seed))


class TestTwoProcesses:
    # a dataset file of more than one block is written and parsed on two
    # processes where there are two CPUs; each test forces both paths

    @staticmethod
    def bits(table):
        return np.ascontiguousarray(table).view(np.uint64)

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049, 25000])
    @pytest.mark.parametrize("kind", ["gmm", "mrm", "rmc"])
    def test_same_bytes_and_bits_on_either_path(self, tmp_path, processes, kind, n):
        obs = observations(kind, n, seed=n)
        many = n > 1024
        written = []
        for cpus in (1, 2):
            path = tmp_path / f"cpus{cpus}.csv"
            with processes(cpus) as forks:
                write_dataset(path, obs)
            assert len(forks) == (cpus == 2 and many)
            written.append(path.read_bytes())
        assert written[0] == written[1] == csv_oracle(obs)
        want = obs.ys if kind == "gmm" else np.column_stack(
            [obs.xs if obs.mask is None else np.where(obs.mask, obs.xs, np.nan), obs.ys])
        path = tmp_path / "data.csv"
        for newline in ["\n", "\r\n", "\r"]:
            path.write_bytes(written[0].replace(b"\n", newline.encode()))
            for cpus in (1, 2):
                with processes(cpus) as forks:
                    table = io_module._read_complete_table(path, kind)
                # a file without \n is parsed on one process
                assert len(forks) == (cpus == 2 and many and newline != "\r")
                assert np.array_equal(self.bits(table), self.bits(want))

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["first-half", "second-half"])
    @pytest.mark.parametrize("kind,text", [
        ("gmm", "1.0,oops,2.0"),  # a bad cell
        ("rmc", "1.0,nan,,2.0"),  # the text nan in a covariate
        ("rmc", "1.0,2.0,3.0,"),  # an empty y
        ("mrm", "1.0,2.0,3.0,4.0,5.0"),  # a ragged row
        ("mrm", ""),  # a blank row
        ("gmm", "1e400,1.0,2.0"),  # overflows to inf
        # ideographic space: the C reader skips it as float() does, but its
        # three bytes are one character, so the row goes to the cell reader
        ("mrm", "1.0,\u30002.0,3.0,4.0"),
    ])
    def test_a_row_in_either_half_reads_as_the_cell_reader_reads_it(
            self, tmp_path, monkeypatch, processes, kind, text, where):
        path = tmp_path / "data.csv"
        write_dataset(path, observations(kind, 4000))
        lines = path.read_text().splitlines(keepends=True)
        lines[int(where * 4000)] = text + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        want = TestCompleteTable.outcome(path, kind, monkeypatch, cells=True)
        for cpus in (1, 2):
            with processes(cpus) as forks:
                got = TestCompleteTable.outcome(path, kind, monkeypatch, cells=False)
            assert len(forks) == cpus - 1
            if isinstance(want, tuple):
                assert got == want and want[2] == int(where * 4000) + 1
            else:
                assert np.array_equal(self.bits(got), self.bits(want))

    @pytest.mark.parametrize("death", ["exits", "sends-short"])
    def test_a_child_that_dies_costs_no_bytes(self, tmp_path, monkeypatch, processes, death):
        """The child's first message never arrives whole: this process does
        its work itself."""
        def send(out, data):
            if death == "sends-short":
                out.write(len(data).to_bytes(8, "little") + data[:100])
                out.flush()
            os._exit(1)

        obs = observations("rmc", 3000)
        want = tmp_path / "want.csv"
        write_dataset(want, obs)
        table = io_module._read_complete_table(want, "rmc")
        path = tmp_path / "data.csv"
        with processes(2) as forks:
            monkeypatch.setattr(io_module, "_send", send)
            write_dataset(path, obs)
            got = io_module._read_complete_table(path, "rmc")
        assert len(forks) == 2
        assert path.read_bytes() == want.read_bytes()
        assert np.array_equal(self.bits(got), self.bits(table))

    def test_no_child_is_left_on_any_exit(self, tmp_path, processes):
        obs = observations("mrm", 3000)
        path = tmp_path / "data.csv"
        with processes(2) as forks:
            write_dataset(path, obs)
            read_dataset(path, "mrm")
        with processes(2) as forks:
            lines = path.read_text().splitlines(keepends=True)
            lines[2500] = "1.0,oops,2.0,3.0\n"
            path.write_text("".join(lines))
            with pytest.raises(ParseError) as exc:
                read_dataset(path, "mrm")
            assert exc.value.line == 2501
        assert len(forks) == 1
        if os.path.exists("/dev/full"):  # every write to it fails with ENOSPC
            with processes(2) as forks:
                with pytest.raises(OSError):
                    write_dataset("/dev/full", obs)
            assert len(forks) == 1

    def test_the_child_imports_nothing(self, tmp_path, monkeypatch, processes):
        parent, log = os.getpid(), tmp_path / "imports.txt"
        real = builtins.__import__

        def watched(name, *args, **kwargs):
            if os.getpid() != parent:
                with open(log, "a") as fh:
                    fh.write(name + "\n")
            return real(name, *args, **kwargs)

        path = tmp_path / "data.csv"
        with processes(2) as forks:
            monkeypatch.setattr(builtins, "__import__", watched)
            write_dataset(path, observations("rmc", 3000))
            read_dataset(path, "rmc")
        assert len(forks) == 2
        assert not log.exists()


class TestUndecodable:
    # a byte the text encoding cannot decode is a ParseError at its physical
    # line, wherever in the file's decoded chunks it falls

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("line", [2, 3000])
    def test_dataset(self, tmp_path, newline, line):
        path = tmp_path / "data.csv"
        write_dataset(path, observations("gmm", 4000))
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        path.write_bytes(newline.encode().join(lines))
        with pytest.raises(ParseError, match="cannot decode byte 0xff") as exc:
            read_dataset(path, "gmm")
        assert exc.value.line == line

    @pytest.mark.parametrize("reader,text,line", [
        (read_results, b",".join(c.encode() for c in RESULT_COLUMNS) + b"\n\xff\n", 2),
        (read_labeled, b"f1,label\n1.0,1\n2.0\xff,0\n", 3),
        (read_metadata, b'{\n  "n": 3,\n  "model": "\xff"\n}\n', 3),
        (parse_config_file, b"# config\r\nn = 3\r\nseed = \xff\r\n", 3),
    ], ids=["results", "labeled", "metadata", "config"])
    def test_other_readers(self, tmp_path, reader, text, line):
        path = tmp_path / "file"
        path.write_bytes(text)
        with pytest.raises(ParseError, match="cannot decode byte 0xff") as exc:
            reader(path)
        assert exc.value.line == line


class TestLabeled:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("f1,f2,label\n1.0,2.0,1\n-1.0,-2.0,0\n")
        feats, labels = read_labeled(p)
        assert np.array_equal(feats, [[1.0, 2.0], [-1.0, -2.0]])
        assert labels.tolist() == [1, 0]

    def test_bad_label(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("f1,label\n1.0,2\n")
        with pytest.raises(ParseError) as exc:
            read_labeled(p)
        assert exc.value.line == 2

    def test_header_checked(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("x1,label\n1.0,1\n")
        with pytest.raises(ParseError):
            read_labeled(p)

    @pytest.mark.parametrize("cell", ["inf", "nan", "-1e400"])
    def test_non_finite_feature_reports_line(self, tmp_path, cell):
        p = tmp_path / "l.csv"
        p.write_text(f"f1,f2,label\n1.0,2.0,1\n1.0,{cell},0\n")
        with pytest.raises(ParseError) as exc:
            read_labeled(p)
        assert exc.value.line == 3

    def test_fault_after_a_multiline_cell_reports_its_physical_line(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text('f1,f2,label\n"1.0\n",2.0,1\n-1.0,-2.0,0\n1.0,bad,1\n')
        with pytest.raises(ParseError) as exc:
            read_labeled(p)
        assert exc.value.line == 5


class TestMetadata:
    def test_round_trip_sorted(self, tmp_path):
        p = tmp_path / "m.json"
        write_metadata(p, {"b": 2, "a": [1.5, None], "c": {"k": "v"}})
        assert read_metadata(p) == {"b": 2, "a": [1.5, None], "c": {"k": "v"}}
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert text.endswith("\n")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{broken")
        with pytest.raises(ParseError):
            read_metadata(p)

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("[1, 2]\n")
        with pytest.raises(DataError, match="metadata: expected a JSON object"):
            read_metadata(p)


class TestResults:
    def row(self, **kw):
        base = dict(
            model="gmm", algorithm="dpgem", eps=0.5, delta=1e-4, d=3, n=100,
            T=5, C="", seed=7, iter=5, error=0.25, wall_ms=0.0,
        )
        base.update(kw)
        return base

    def test_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        rows = [self.row(), self.row(algorithm="em", eps="", delta="", seed=8)]
        write_results(p, rows)
        back = read_results(p)
        assert back == rows

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("nope\n")
        with pytest.raises(ParseError):
            read_results(p)

    def test_bad_int_reports_line(self, tmp_path):
        p = tmp_path / "r.csv"
        write_results(p, [self.row()])
        text = p.read_text().replace("100", "ten")
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_results(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_non_finite_error_reports_line(self, tmp_path, cell):
        p = tmp_path / "r.csv"
        write_results(p, [self.row(), self.row(seed=8), self.row(seed=9)])
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace(",0.25,", f",{cell},")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_results(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("fault", ["bad_int", "ragged"])
    def test_fault_after_a_multiline_cell_reports_its_physical_line(self, tmp_path, fault):
        p = tmp_path / "r.csv"
        write_results(p, [self.row(model="g\nmm"), self.row(seed=8), self.row(seed=9)])
        lines = p.read_text().splitlines()  # the first row spans lines 2 and 3
        lines[4] = lines[4].replace(",100,", ",ten,") if fault == "bad_int" else lines[4] + ","
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_results(p)
        assert exc.value.line == 5

    @pytest.mark.parametrize("key", ["error", "wall_ms"])
    def test_empty_measurement_reports_line(self, tmp_path, key):
        p = tmp_path / "r.csv"
        write_results(p, [self.row(), self.row(**{key: ""})])
        with pytest.raises(ParseError) as exc:
            read_results(p)
        assert exc.value.line == 3

    def test_header_only_reads_empty(self, tmp_path):
        p = tmp_path / "r.csv"
        write_results(p, [])
        assert read_results(p) == []

    def test_summary_write(self, tmp_path):
        p = tmp_path / "s.csv"
        write_summary(p, [dict(
            model="gmm", algorithm="dpgem", eps=0.5, delta=1e-4, d=3, n=100,
            T=5, C="", iter=5, n_seeds=20, median_error=0.5,
            q25_error=0.4, q75_error=0.6,
        )])
        lines = p.read_text().splitlines()
        assert lines[0].startswith("model,algorithm,eps")
        assert lines[1].endswith("20,0.5,0.4,0.6")


class TestConfigFile:
    def test_basic(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# experiment defaults\n"
            "n = 2000\n"
            "run.eps = 0.5   # overrides only the run command\n"
            "\n"
            "model=gmm\n"
        )
        assert parse_config_file(p) == {"n": "2000", "run.eps": "0.5", "model": "gmm"}

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n 2000\n")
        with pytest.raises(ParseError) as exc:
            parse_config_file(p)
        assert exc.value.line == 1

    def test_empty_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(" = 3\n")
        with pytest.raises(ParseError):
            parse_config_file(p)

    def test_value_may_contain_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("expr = a=b\n")
        assert parse_config_file(p) == {"expr": "a=b"}

    def test_result_columns_stable(self):
        assert RESULT_COLUMNS == [
            "model", "algorithm", "eps", "delta", "d", "n", "T", "C",
            "seed", "iter", "error", "wall_ms",
        ]
