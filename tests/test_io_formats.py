import dataclasses
import json
import math
import os
import re
import stat
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrstream import io_formats
from asrstream.errors import (
    AsrError,
    EmptyFile,
    InvalidValue,
    MissingKey,
    ParseError,
    RaggedCsv,
    UnsupportedVersion,
)
from asrstream.io_formats import (
    SignalRecord,
    atomic_write_text,
    format_row,
    format_rows,
    load_calibration_data,
    load_calibration_state,
    load_signal_record,
    parse_config,
    parse_row,
    save_calibration_csv,
    save_calibration_state,
    save_signal_record,
)
from asrstream.types import CalibrationParams, PipelineConfig

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestCalibrationCsv:
    def test_basic_layout(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2,3\n4,5,6\n")
        m = load_calibration_data(p)[0]
        assert np.array_equal(m, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_crlf_and_no_final_newline(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"1,2\r\n3,4")
        assert np.array_equal(load_calibration_data(p)[0], [[1, 2], [3, 4]])

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedCsv) as err:
            load_calibration_data(p)[0]
        assert err.value.row == 2

    def test_unparseable_cell_positions(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError) as err:
            load_calibration_data(p)[0]
        assert err.value.row == 2
        assert err.value.col == 2

    def test_non_finite_cell_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,nan\n2,3\n")
        with pytest.raises(ParseError):
            load_calibration_data(p)[0]

    def test_comma_decimal_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text('1;2\n')
        with pytest.raises(ParseError):
            load_calibration_data(p)[0]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_calibration_data(p)[0]

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1e-3,2.5E2\n-1.5e1,0\n")
        assert np.array_equal(load_calibration_data(p)[0], [[0.001, 250.0], [-15.0, 0.0]])

    def test_filter_preamble_roundtrip(self, tmp_path):
        p = tmp_path / "c.csv"
        save_calibration_csv(p, [[1.0, 2.0], [3.0, 4.0]], filter_b=[0.5, 0.5], filter_a=[1.0])
        matrix, b, a = load_calibration_data(p)
        assert np.array_equal(matrix, [[1, 2], [3, 4]])
        assert b == [0.5, 0.5]
        assert a == [1.0]

    def test_preamble_rejects_excess_order(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# filter_b: " + ",".join(["1"] * 10) + "\n1,2\n")
        with pytest.raises(ParseError):
            load_calibration_data(p)

    def test_roundtrip_values_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 17)) * 10.0 ** rng.integers(-8, 8, size=(3, 17))
        p = tmp_path / "c.csv"
        save_calibration_csv(p, m)
        assert np.array_equal(load_calibration_data(p)[0], m)

    @given(
        st.lists(
            st.lists(finite_floats, min_size=2, max_size=5),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_roundtrip_hypothesis(self, tmp_path, rows):
        m = np.asarray(rows, dtype=float)
        p = tmp_path / "h.csv"
        save_calibration_csv(p, m)
        assert np.array_equal(load_calibration_data(p)[0], m)


class TestSignalRecord:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        rec = SignalRecord(data=rng.standard_normal((4, 100)), srate=250.0)
        p = tmp_path / "r.csv"
        save_signal_record(p, rec)
        back = load_signal_record(p)
        assert back.srate == rec.srate
        assert np.array_equal(back.data, rec.data)

    def test_saved_file_mode_follows_umask(self, tmp_path):
        rec = SignalRecord(data=np.ones((2, 3)), srate=100.0)
        p = tmp_path / "r.csv"
        old = os.umask(0o027)
        try:
            save_signal_record(p, rec)
        finally:
            os.umask(old)
        assert stat.S_IMODE(p.stat().st_mode) == 0o640

    def test_header_body_consistency(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# channels: 3\n# srate: 100.0\n1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_signal_record(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_signal_record(p)


def _write_calibration(path, body: str):
    path.write_text(body)
    return load_calibration_data


def _write_record(path, body: str):
    path.write_text("# channels: 2\n# srate: 100.0\n" + body)
    return load_signal_record


class TestLocatedErrors:
    """Errors carry the physical line and the 1-based column of the fault."""

    LOADERS = pytest.mark.parametrize(
        "write, header_lines", [(_write_calibration, 0), (_write_record, 2)]
    )

    @LOADERS
    @pytest.mark.parametrize(
        "bad, message",
        [("x", "cannot parse 'x'"), ("nan", "non-finite value 'nan'"),
         ("1e999", "non-finite value '1e999'"), (" ", "cannot parse ''"),
         ("", "cannot parse ''")],
    )
    def test_bad_cell(self, tmp_path, write, header_lines, bad, message):
        load = write(tmp_path / "f.csv", f"1,2,3\n4,{bad},6\n")
        with pytest.raises(ParseError) as err:
            load(tmp_path / "f.csv")
        assert (err.value.row, err.value.col) == (header_lines + 2, 2)
        assert message in str(err.value)

    @LOADERS
    def test_ragged_row(self, tmp_path, write, header_lines):
        load = write(tmp_path / "f.csv", "1,2,3\n4,5\n")
        with pytest.raises(RaggedCsv) as err:
            load(tmp_path / "f.csv")
        assert err.value.row == header_lines + 2

    @LOADERS
    def test_blank_lines_keep_physical_numbering(self, tmp_path, write, header_lines):
        load = write(tmp_path / "f.csv", "\n1,2,3\n\n4,5,inf\n")
        with pytest.raises(ParseError) as err:
            load(tmp_path / "f.csv")
        assert (err.value.row, err.value.col) == (header_lines + 4, 3)

    @pytest.mark.parametrize(
        "body, row, col",
        [
            ("1,nan\n2,x\n", 1, 2),  # an earlier non-finite value beats a later parse error
            ("1,nan\n2\n", 1, 2),  # ... and a later ragged row
            ("1,2\nnan,x\n", 2, 1),  # within a row, the first column wins
            ("1,2\n3,4,inf\n", 2, 3),  # a ragged row's own bad value comes first
            ("1,-inf\n# late comment\n", 1, 2),
        ],
    )
    def test_first_fault_in_reading_order(self, tmp_path, body, row, col):
        p = tmp_path / "f.csv"
        p.write_text(body)
        with pytest.raises(ParseError) as err:
            load_calibration_data(p)
        assert (err.value.row, err.value.col) == (row, col)

    def test_record_rejects_a_comment_after_its_data(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# channels: 2\n# srate: 100.0\n1,2\n3,4\n# srate: 50.0\n")
        with pytest.raises(ParseError, match="only allowed before data") as err:
            load_signal_record(p)
        assert err.value.row == 5


class TestPreambleKeys:
    """A key matches only when ':', '=' or whitespace follows it, so a
    comment whose first word merely starts with a key is a comment."""

    def test_calibration_comment_starting_with_a_key(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# filter_bank: 8 bands\n# filter_b: 0.5,0.5\n1,2\n3,4\n")
        matrix, b, a = load_calibration_data(p)
        assert np.array_equal(matrix, [[1, 2], [3, 4]])
        assert (b, a) == ([0.5, 0.5], None)

    def test_record_comment_starting_with_a_key(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# channels: 2\n# srate_note: resampled\n# srate = 100.0\n1,2\n3,4\n")
        rec = load_signal_record(p)
        assert rec.srate == 100.0
        assert np.array_equal(rec.data, [[1, 2], [3, 4]])

    def test_broken_key_line_names_its_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# channels: 2\n# srate: fast\n1,2\n3,4\n")
        with pytest.raises(ParseError, match="cannot parse 'fast'") as err:
            load_signal_record(p)
        assert err.value.row == 2


class TestTextFormat:
    """Saved text is the shortest repr of each float, as it always was."""

    AWKWARD = [0.1, -0.0, 1e-05, 1e16, 5e-324]

    def test_signal_record_golden_text(self, tmp_path):
        p = tmp_path / "r.csv"
        save_signal_record(p, SignalRecord(np.array([self.AWKWARD, self.AWKWARD[::-1]]), 250.0))
        assert p.read_text() == (
            "# channels: 2\n"
            "# srate: 250.0\n"
            "0.1,-0.0,1e-05,1e+16,5e-324\n"
            "5e-324,1e+16,1e-05,-0.0,0.1\n"
        )
        back = load_signal_record(p).data
        assert np.array_equal(back, [self.AWKWARD, self.AWKWARD[::-1]])
        assert np.signbit(back[0, 1])

    def test_calibration_csv_golden_text(self, tmp_path):
        p = tmp_path / "c.csv"
        save_calibration_csv(p, [self.AWKWARD], filter_b=[1, 0.5], filter_a=(1.0, -0.0))
        assert p.read_text() == (
            "# filter_b: 1.0,0.5\n"
            "# filter_a: 1.0,-0.0\n"
            "0.1,-0.0,1e-05,1e+16,5e-324\n"
        )

    def test_writers_spell_each_float_as_repr(self, tmp_path):
        # orjson writes a piece whose values are each 0 or 1e-4 <= |x| < 1e16,
        # repr any other piece: both must give repr's text
        edges = np.array([np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16,
                          0.0, -0.0, 5e-324, sys.float_info.max])
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
        anywhere = bits.view(float)[np.isfinite(bits.view(float))]
        # the same patterns with exponents from 2**-13 to 2**52, all in range
        exponents = rng.integers(1010, 1076, len(bits), dtype=np.uint64) << np.uint64(52)
        near = ((bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | exponents).view(float)
        width = io_formats.PIECE_VALUES + 1000  # two pieces a row
        in_range = near[: 18 * width].reshape(18, width)
        in_range[0, :4] = edges[[1, 2, 4, 5]]
        mixed = anywhere[: 18 * width].reshape(18, width)
        mixed[0, :16] = np.concatenate([edges, -edges])
        mixed[1, : io_formats.PIECE_VALUES] = near[-io_formats.PIECE_VALUES :]
        # in range but for one value past a bound
        mixed[2:6] = in_range[2:6]
        mixed[[2, 3, 4, 5], [7, 8, 9, 10]] = edges[[0, 3, 6, 7]]
        for m in (in_range, mixed):
            rows = "".join(",".join(map(repr, row)) + "\n" for row in m.tolist())
            assert format_rows(m) == rows
            chunk = m.T[:32]  # a stream chunk: its columns, not contiguous
            assert format_rows(chunk) == "".join(
                ",".join(map(repr, row)) + "\n" for row in chunk.tolist()
            )
            save_signal_record(tmp_path / "r.csv", SignalRecord(m, 250.0))
            header = f"# channels: {len(m)}\n# srate: 250.0\n"
            assert (tmp_path / "r.csv").read_text() == header + rows

    def test_a_few_values_out_of_range_are_spliced_in_as_repr(self):
        # orjson writes the piece and repr the values it would spell
        # otherwise: at a row's ends, side by side, across a row boundary
        rng = np.random.default_rng(42)
        odd = [1e-05, -3e-07, 1e16, -2.5e20, 5e-324, -0.0, math.inf, -math.inf, math.nan]
        m = rng.standard_normal((4, 40))
        m[0, [0, 1, -1]] = odd[:3]
        m[1, -1], m[2, 0] = odd[3:5]
        m[3, 10:14] = odd[5:]
        for row in m:
            assert format_row(row) == ",".join(map(repr, row.tolist()))
        for matrix in (m, m.T):
            assert format_rows(matrix) == "".join(
                ",".join(map(repr, row)) + "\n" for row in matrix.tolist()
            )
        # matrices of a few to mostly out-of-range values, and zeros of both signs
        for _ in range(300):
            shape = rng.integers(1, 6), rng.integers(1, 60)
            m = rng.standard_normal(shape)
            out = rng.random(shape) < rng.random() ** 2
            m[out] *= 10.0 ** rng.uniform(-8, 20, out.sum())
            m[rng.random(shape) < 0.05] = rng.choice([0.0, -0.0])
            assert format_rows(m) == "".join(",".join(map(repr, r)) + "\n" for r in m.tolist())
            assert format_row(m[0]) == ",".join(map(repr, m[0].tolist()))


class TestLineAtATime:
    """The tables are read and written one line at a time: memory stays a
    small multiple of the samples, and values, line numbers and bytes are
    those of the whole-text forms they replace."""

    @pytest.fixture(scope="class")
    def long_data(self):
        return np.random.default_rng(31).standard_normal((24, 30_000))  # 60 s at 500 Hz

    @staticmethod
    def _peak(fn, *args):
        """``fn(*args)`` and the peak bytes it allocated, its result included."""
        tracemalloc.start()
        try:
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_record_load_peak(self, tmp_path, long_data):
        p = tmp_path / "r.csv"
        save_signal_record(p, SignalRecord(long_data, 500.0))
        rec, peak = self._peak(load_signal_record, p)
        assert np.array_equal(rec.data, long_data)
        assert peak <= 1.5 * rec.data.nbytes

    def test_calibration_load_peak(self, tmp_path, long_data):
        p = tmp_path / "c.csv"
        save_calibration_csv(p, long_data)
        (matrix, _, _), peak = self._peak(load_calibration_data, p)
        assert np.array_equal(matrix, long_data)
        # parsed into one matrix, as a record is; stacking rows took 2.1x
        assert peak <= 1.5 * matrix.nbytes

    def test_record_save_peak(self, tmp_path, long_data):
        _, peak = self._peak(save_signal_record, tmp_path / "r.csv", SignalRecord(long_data, 500.0))
        assert peak <= 0.15 * long_data.nbytes

    @pytest.fixture(scope="class")
    def long_rows(self):
        return np.random.default_rng(33).standard_normal((2, 300_000))  # 5 min at 1 kHz

    def test_long_row_load_peak(self, tmp_path, long_rows):
        # a line is one channel: what a row costs beyond the array is a few
        # copies of its text, not objects per sample
        p = tmp_path / "r.csv"
        save_signal_record(p, SignalRecord(long_rows, 1000.0))
        with open(p) as fh:
            longest = max(map(len, fh))
        rec, peak = self._peak(load_signal_record, p)
        assert np.array_equal(rec.data, long_rows)
        assert peak - rec.data.nbytes <= 5 * longest

    def test_long_row_save_peak(self, tmp_path, long_rows):
        p = tmp_path / "r.csv"
        _, peak = self._peak(save_signal_record, p, SignalRecord(long_rows, 1000.0))
        assert peak <= 0.15 * long_rows.nbytes
        assert np.array_equal(load_signal_record(p).data, long_rows)

    def test_saved_bytes_are_the_joined_lines(self, tmp_path):
        m = np.random.default_rng(32).standard_normal((3, 50))
        save_signal_record(tmp_path / "r.csv", SignalRecord(m, 250.0))
        save_calibration_csv(tmp_path / "c.csv", m, filter_b=[0.5, 0.5], filter_a=[1.0])
        rows = [format_row(row) for row in m]
        record = ["# channels: 3", "# srate: 250.0", *rows]
        calibration = ["# filter_b: 0.5,0.5", "# filter_a: 1.0", *rows]
        assert (tmp_path / "r.csv").read_bytes() == ("\n".join(record) + "\n").encode()
        assert (tmp_path / "c.csv").read_bytes() == ("\n".join(calibration) + "\n").encode()

    ENDINGS = pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    LOADERS = pytest.mark.parametrize(
        "load, preamble",
        [(load_calibration_data, b"# filter_b: 1.0\n"),
         (load_signal_record, b"# channels: 2\n# srate: 100.0\n")],
    )

    @ENDINGS
    @LOADERS
    def test_line_endings_give_the_same_values(self, tmp_path, ending, load, preamble):
        text = preamble + b"\n1,2.5,-3e-05\n\n4,5,6\n"
        (tmp_path / "lf.csv").write_bytes(text)
        (tmp_path / "other.csv").write_bytes(text.replace(b"\n", ending))
        lf, other = load(tmp_path / "lf.csv"), load(tmp_path / "other.csv")
        if load is load_signal_record:
            lf, other = (lf.data, lf.srate), (other.data, other.srate)
        assert np.array_equal(lf[0], other[0])
        assert lf[1:] == other[1:]

    @ENDINGS
    @LOADERS
    @pytest.mark.parametrize(
        "body, error",
        [(b"1,2\n\n3,x\n", ParseError), (b"1,2\n\n3\n", RaggedCsv),
         (b"1,2\n\n# late\n", ParseError)],
    )
    def test_line_endings_give_the_same_line_numbers(
        self, tmp_path, ending, load, preamble, body, error
    ):
        faults = []
        for name, text in [("lf.csv", preamble + body),
                           ("other.csv", (preamble + body).replace(b"\n", ending))]:
            (tmp_path / name).write_bytes(text)
            with pytest.raises(error) as err:
                load(tmp_path / name)
            faults.append((err.value.row, str(err.value)))
        assert faults[0] == faults[1]
        assert faults[0][0] == preamble.count(b"\n") + 3

    def test_a_huge_channel_header_is_a_mismatch_not_an_allocation(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("# channels: 1000000000000\n# srate: 100.0\n1,2\n3,4\n")
        with pytest.raises(ParseError, match="header says 1000000000000 channels but body has 2"):
            load_signal_record(p)

    @staticmethod
    def _load_through_a_pipe(text: str):
        """load_signal_record on a pipe, whose size reads 0, holding ``text``."""
        read, write = os.pipe()
        with os.fdopen(write, "w") as fh:  # a short text fits the pipe's buffer
            fh.write(text)
        with os.fdopen(read) as fh:
            return load_signal_record(f"/dev/fd/{fh.fileno()}")

    def test_a_pipe_grows_its_matrix_row_by_row(self, tmp_path):
        data = np.arange(33.0).reshape(11, 3) / 7.0
        save_signal_record(tmp_path / "r.csv", SignalRecord(data, 100.0))
        record = self._load_through_a_pipe((tmp_path / "r.csv").read_text())
        assert np.array_equal(record.data, data) and record.srate == 100.0

    def test_calibration_data_through_a_pipe_grows_and_is_cut_to_its_rows(self, tmp_path):
        data = np.arange(33.0).reshape(11, 3) / 7.0
        save_calibration_csv(tmp_path / "c.csv", data, filter_b=[1.0, 0.5])
        read, write = os.pipe()
        with os.fdopen(write, "w") as fh:
            fh.write((tmp_path / "c.csv").read_text())
        with os.fdopen(read) as fh:
            matrix, filter_b, _ = load_calibration_data(f"/dev/fd/{fh.fileno()}")
        assert np.array_equal(matrix, data) and filter_b == [1.0, 0.5]

    def test_rows_shorter_than_the_first_grow_the_matrix(self, tmp_path):
        # sized from the long first line, the matrix starts at 3 or 4 rows and grows
        data = np.ones((10, 2))
        data[0] = [1.2345678901234567, 2.345678901234567]
        save_calibration_csv(tmp_path / "c.csv", data)
        assert np.array_equal(load_calibration_data(tmp_path / "c.csv")[0], data)
        save_signal_record(tmp_path / "r.csv", SignalRecord(data, 100.0))
        assert np.array_equal(load_signal_record(tmp_path / "r.csv").data, data)

    def test_a_huge_channel_header_on_a_pipe_is_a_mismatch_not_an_allocation(self):
        text = "# channels: 100000000000000\n# srate: 100.0\n1,2\n3,4\n"
        with pytest.raises(ParseError, match="header says 100000000000000 channels but body has 2"):
            self._load_through_a_pipe(text)

    def test_a_failing_writer_leaves_the_old_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("old\n")

        def pieces():
            yield "new\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError):
            atomic_write_text(p, pieces())
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.csv"]


def _per_cell(line: str, lineno: int, width=None):
    """Data line ``lineno`` read whole, one cell at a time: its values, or
    the (error type, row, column) of its first fault in reading order."""
    if line.lstrip().startswith("#"):
        return ParseError, lineno, None
    cells = line.split(",")
    values = []
    for col, cell in enumerate(cells, start=1):
        try:
            values.append(float(cell))
        except ValueError:
            return ParseError, lineno, col
        if not math.isfinite(values[-1]):
            return ParseError, lineno, col
    if width is not None and len(cells) != width:
        return RaggedCsv, lineno, None
    return values


def _sliced(line: str, lineno: int, width, slice_chars: int):
    """parse_row's outcome, as :func:`_per_cell` gives it, with slices of
    ``slice_chars`` characters."""
    with mock.patch.object(io_formats, "SLICE_CHARS", slice_chars):
        try:
            return parse_row(line, lineno, width).tolist()
        except (ParseError, RaggedCsv) as err:
            return type(err), err.row, getattr(err, "col", None)


_PAD = st.sampled_from(["", " ", "\t", " \x0c"])
_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0.0", "+.5", "1_000.5", "1e-05", "1E+16", "5e-324", "1.7e308"]),
    # where JSON reads otherwise or not at all: signed int zero, zeros,
    # forms JSON lacks, underflow, ints past 64 bits
    st.sampled_from(
        ["-0", "0", "-0e0", "1.", "-.5e3", "1e-400", "-1e-400", str(2**64),
         "-9223372036854775809"]
    ),
)
_BAD_CELLS = st.sampled_from(
    ["", " ", "\t", "x", "#", "nan", "-inf", "Infinity", "1e999", "1,5", "1 2", "1__0", "0x1", "1e",
     "true", "null", "[1]", '"1"', "{}"]  # JSON values that are not numbers
)


class TestSlicedRows:
    """A data line is parsed in slices cut at commas: whatever the slice
    length, a good line gives the values of the per-cell grammar bit for bit,
    and a bad one the error type, row and column of its first fault."""

    @settings(max_examples=300)
    @given(st.data())
    def test_slices_match_the_per_cell_grammar(self, data):
        padded = st.tuples(_PAD, _GOOD_CELLS, _PAD).map("".join)
        cells = data.draw(st.lists(padded, min_size=1, max_size=12))
        if data.draw(st.booleans()):
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_BAD_CELLS)
        line = ",".join(cells) + data.draw(st.sampled_from(["", "\n"]))
        width = data.draw(st.sampled_from([None, len(cells), len(cells) + 1, len(cells) - 1]))
        expected = _per_cell(line, 7, width)
        got = _sliced(line, 7, width, slice_chars=data.draw(st.integers(0, 8)))
        if isinstance(expected, list):
            assert np.array(got).tobytes() == np.array(expected, dtype=float).tobytes()
        else:
            assert got == expected

    @settings(max_examples=200)
    @given(st.data())
    def test_row_groups_match_the_per_cell_grammar(self, data):
        # parse_rows reads groups of lines in one go; its values, or its first
        # fault, are those of the lines read one at a time
        width = data.draw(st.integers(1, 4))
        padded = st.tuples(_PAD, _GOOD_CELLS, _PAD).map("".join)
        lines = data.draw(st.lists(st.lists(padded, min_size=width, max_size=width),
                                   min_size=1, max_size=6))
        lines = [",".join(cells) + "\n" for cells in lines]
        if data.draw(st.booleans()):
            row = data.draw(st.integers(0, len(lines) - 1))
            cells = lines[row].split(",")
            cells[data.draw(st.integers(0, width - 1))] = data.draw(_BAD_CELLS)
            lines[row] = ",".join(cells)
        if data.draw(st.booleans()):  # ragged lines, a cell too many or too few: they may balance
            for row in data.draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
                if width > 1 and data.draw(st.booleans()):
                    lines[row] = lines[row].rpartition(",")[0] + "\n"
                else:
                    lines[row] = lines[row].rstrip("\n") + ",1\n"
        expected = []
        for lineno, line in enumerate(lines, start=7):
            values = _per_cell(line, lineno, width)
            if not isinstance(values, list):
                expected = values
                break
            expected.append(values)
        out = np.empty((len(lines) + 1, width))
        slice_chars = data.draw(st.integers(0, 40))
        with mock.patch.object(io_formats, "SLICE_CHARS", slice_chars):
            try:
                count = io_formats.parse_rows(enumerate(lines, start=7), out)
            except (ParseError, RaggedCsv) as err:
                got = type(err), err.row, getattr(err, "col", None)
            else:
                assert count == len(lines)
                got = out[:count].tolist()
        if isinstance(expected, list):
            assert np.array(got).tobytes() == np.array(expected, dtype=float).tobytes()
        else:
            assert got == expected

    @pytest.mark.parametrize("slice_chars", [0, 1, 3, 1 << 16])
    @pytest.mark.parametrize(
        "line, fault",
        [("1, ,3", (ParseError, 7, 2)), ("1,,3", (ParseError, 7, 2)),
         ("1,\t,3", (ParseError, 7, 2)), (" ,1", (ParseError, 7, 1)),
         ("1,2, ", (ParseError, 7, 3)), ("1,2,3,", (ParseError, 7, 4)),
         ("1,2", (RaggedCsv, 7, None)), ("# 1,2,3", (ParseError, 7, None))],
    )
    def test_blank_cells_and_faults(self, line, fault, slice_chars):
        assert _sliced(line, 7, 3, slice_chars) == fault

    @pytest.mark.parametrize("slice_chars", [0, 1 << 16])
    def test_a_sum_that_overflows_keeps_its_finite_values(self, slice_chars):
        line = "1.7e308,1.7e308,-1e308"
        assert _sliced(line, 7, 3, slice_chars) == [1.7e308, 1.7e308, -1e308]


class TestCalibrationStateFile:
    def test_roundtrip_every_field(self, tmp_path, clean_calibration):
        _, state = clean_calibration
        p = tmp_path / "s.json"
        save_calibration_state(p, state)
        back = load_calibration_state(p)
        assert np.array_equal(back.mixing, state.mixing)
        assert np.array_equal(back.threshold, state.threshold)
        assert back.filter_b == state.filter_b
        assert back.filter_a == state.filter_a
        assert back.srate == state.srate
        assert back.params == state.params

    def test_future_version_rejected(self, tmp_path, clean_calibration):
        _, state = clean_calibration
        p = tmp_path / "s.json"
        save_calibration_state(p, state)
        text = p.read_text().replace('"version": 1', '"version": 99')
        p.write_text(text)
        with pytest.raises(UnsupportedVersion):
            load_calibration_state(p)

    def test_truncated_file(self, tmp_path, clean_calibration):
        _, state = clean_calibration
        p = tmp_path / "s.json"
        save_calibration_state(p, state)
        p.write_text(p.read_text()[: len(p.read_text()) // 2])
        with pytest.raises(ParseError):
            load_calibration_state(p)

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"something": "else"}')
        with pytest.raises(ParseError):
            load_calibration_state(p)

    def test_nan_srate_rejected(self, tmp_path, clean_calibration):
        _, state = clean_calibration
        p = tmp_path / "s.json"
        save_calibration_state(p, state)
        payload = json.loads(p.read_text())
        payload["srate"] = float("nan")
        p.write_text(json.dumps(payload))
        with pytest.raises(InvalidValue, match="srate: must be > 0"):
            load_calibration_state(p)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("filter_b", lambda v: [float("nan")]),
            ("filter_a", lambda v: [1.0, float("inf")]),
            ("mixing", lambda v: [[float("nan")] + row[1:] for row in v]),
        ],
    )
    def test_non_finite_entries_rejected(self, tmp_path, clean_calibration, key, edit):
        _, state = clean_calibration
        p = tmp_path / "s.json"
        save_calibration_state(p, state)
        payload = json.loads(p.read_text())
        payload[key] = edit(payload[key])
        p.write_text(json.dumps(payload))  # writes the bare NaN/Infinity tokens json reads
        with pytest.raises(InvalidValue, match=f"{key}: entries must be finite"):
            load_calibration_state(p)


class TestParseConfig:
    GOOD = (
        "SamplingRate = 250\n"
        "WindowLength = 0.5\n"
        "VarName = eeg\n"
        "CalibrationFileName = calib.csv\n"
    )

    def test_minimal_with_defaults(self):
        cfg = parse_config(self.GOOD)
        assert cfg.sampling_rate == 250.0
        assert cfg.params.window_len == 0.5
        assert cfg.var_name == "eeg"
        assert cfg.calibration_file_name == "calib.csv"
        assert cfg.params.cutoff == 5.0
        assert cfg.stepsize == 32

    def test_optional_keys(self):
        cfg = parse_config(self.GOOD + "Cutoff = 7.5\nStepsize = 16\n")
        assert cfg.params.cutoff == 7.5
        assert cfg.stepsize == 16

    def test_comments_and_blanks(self):
        cfg = parse_config("# hello\n\n" + self.GOOD)
        assert cfg.var_name == "eeg"

    def test_missing_required_key(self):
        with pytest.raises(MissingKey) as err:
            parse_config("SamplingRate = 250\n")
        assert "WindowLength" in str(err.value) or err.value.key

    def test_unknown_key_named(self):
        for line in ("Foo = 1", "OutputVarName = x", "ChunkCapacity = 64"):
            with pytest.raises(InvalidValue) as err:
                parse_config(self.GOOD + line + "\n")
            assert line.split()[0] in str(err.value)

    def test_zero_window_rejected(self):
        bad = self.GOOD.replace("WindowLength = 0.5", "WindowLength = 0")
        with pytest.raises(InvalidValue):
            parse_config(bad)

    @pytest.mark.parametrize(
        "line",
        [
            "WindowLength = 0", "Cutoff = 0", "MaxDimsFraction = 2",
            "FifoCapacity = 1", "Stepsize = 0", "Lookahead = -1", "VarName =",
        ],
    )
    def test_bad_parameter_names_its_key(self, line):
        key = line.split()[0]
        lines = [l for l in self.GOOD.splitlines() if not l.startswith(key)] + [line]
        with pytest.raises(InvalidValue) as err:
            parse_config("\n".join(lines))
        assert err.value.name == key

    @pytest.mark.parametrize("rate", ["0", "-250", "nan", "inf"])
    def test_sampling_rate_must_be_positive(self, rate):
        with pytest.raises(InvalidValue, match="SamplingRate: must be > 0"):
            parse_config(self.GOOD.replace("250", rate))

    def test_key_table_matches_the_config_fields(self):
        # a field added or deleted fails here until the key table follows it
        table = io_formats._REQUIRED_KEYS | io_formats._OPTIONAL_KEYS
        named = [field for field, _ in table.values()]
        config_fields = {f.name for f in dataclasses.fields(PipelineConfig)} - {"params"}
        param_fields = {f.name for f in dataclasses.fields(CalibrationParams)}
        assert len(named) == len(set(named))
        assert set(named) == config_fields | param_fields

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidValue):
            parse_config(self.GOOD + "SamplingRate = 100\n")

    def test_unparseable_value(self):
        bad = self.GOOD.replace("250", "fast")
        with pytest.raises(InvalidValue):
            parse_config(bad)



_RECORD = b"# channels: 2\n# srate: 250.0\n1.0,2.0,3.0\n4.0,-5.5,6e-3\n"
_CALIBRATION = b"# filter_b: 0.25,0.5,0.25\n# filter_a: 1.0,-0.3,0.2\n1.0,2.0,3.0\n4.0,-5.5,6e-3\n"
_LINES = st.sampled_from(
    [b"", b"#", b"nan", b"1e999", b"-inf", b"1,,2", b"# channels: -1", b"# channels: 1e9",
     b"# srate: 0", b"# srate: inf", b"# filter_a: 0", b"# filter_b:", b"{", b"NaN", b"Infinity"]
) | st.binary(max_size=40)
_NON_FINITE = st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999"])


@pytest.fixture(scope="module")
def state_bytes(tmp_path_factory, clean_calibration):
    path = tmp_path_factory.mktemp("state") / "s.json"
    save_calibration_state(path, clean_calibration[1])
    return path.read_bytes()


def _every_loader_returns_or_raises_asr_error(path, content: bytes):
    path.write_bytes(content)
    for load in (load_signal_record, load_calibration_data, load_calibration_state):
        try:
            load(path)
        except AsrError:
            pass


class TestLoadersOnDamagedInput:
    """Whatever the bytes, a loader returns data or raises an AsrError."""

    @given(st.binary(max_size=512))
    def test_arbitrary_bytes(self, tmp_path, content):
        _every_loader_returns_or_raises_asr_error(tmp_path / "f", content)

    @given(st.data())
    def test_one_byte_mutation(self, tmp_path, state_bytes, data):
        table = data.draw(st.sampled_from([_RECORD, _CALIBRATION, state_bytes]))
        i = data.draw(st.integers(0, len(table) - 1))
        byte = data.draw(st.integers(0, 255)).to_bytes(1, "big")
        edit = data.draw(st.sampled_from([byte, byte + table[i : i + 1], b""]))
        mutated = table[:i] + edit + table[i + 1 :]  # replace, insert or delete
        _every_loader_returns_or_raises_asr_error(tmp_path / "f", mutated)

    @given(st.data())
    def test_one_line_mutation(self, tmp_path, state_bytes, data):
        lines = data.draw(st.sampled_from([_RECORD, _CALIBRATION, state_bytes])).split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = data.draw(_LINES)
        _every_loader_returns_or_raises_asr_error(tmp_path / "f", b"\n".join(lines))

    @given(st.data())
    def test_state_file_with_a_non_finite_literal(self, tmp_path, state_bytes, data):
        # a key's own value: srate, version or a parameter (the matrices and
        # the filter are checked entry by entry in TestCalibrationStateFile)
        numbers = list(re.finditer(rb"(?<=: )-?\d[\d.eE+-]*", state_bytes))
        number = data.draw(st.sampled_from(numbers))
        literal = data.draw(_NON_FINITE)
        mutated = state_bytes[: number.start()] + literal + state_bytes[number.end() :]
        _every_loader_returns_or_raises_asr_error(tmp_path / "f", mutated)
