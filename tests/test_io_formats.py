import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrstream.errors import (
    EmptyFile,
    InvalidValue,
    MissingKey,
    ParseError,
    RaggedCsv,
    UnsupportedVersion,
)
from asrstream.io_formats import (
    SignalRecord,
    load_calibration_csv,
    load_calibration_data,
    load_calibration_state,
    load_signal_record,
    parse_config,
    save_calibration_csv,
    save_calibration_state,
    save_signal_record,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestCalibrationCsv:
    def test_basic_layout(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2,3\n4,5,6\n")
        m = load_calibration_csv(p)
        assert np.array_equal(m, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_crlf_and_no_final_newline(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"1,2\r\n3,4")
        assert np.array_equal(load_calibration_csv(p), [[1, 2], [3, 4]])

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedCsv) as err:
            load_calibration_csv(p)
        assert err.value.row == 2

    def test_unparseable_cell_positions(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError) as err:
            load_calibration_csv(p)
        assert err.value.row == 2
        assert err.value.col == 2

    def test_non_finite_cell_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,nan\n2,3\n")
        with pytest.raises(ParseError):
            load_calibration_csv(p)

    def test_comma_decimal_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text('1;2\n')
        with pytest.raises(ParseError):
            load_calibration_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_calibration_csv(p)

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1e-3,2.5E2\n-1.5e1,0\n")
        assert np.array_equal(load_calibration_csv(p), [[0.001, 250.0], [-15.0, 0.0]])

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
        assert np.array_equal(load_calibration_csv(p), m)

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
        assert np.array_equal(load_calibration_csv(p), m)


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
         ("1e999", "non-finite value '1e999'")],
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
        with pytest.raises(InvalidValue) as err:
            parse_config(self.GOOD + "Foo = 1\n")
        assert "Foo" in str(err.value)

    def test_zero_window_rejected(self):
        bad = self.GOOD.replace("WindowLength = 0.5", "WindowLength = 0")
        with pytest.raises(InvalidValue):
            parse_config(bad)

    @pytest.mark.parametrize("line", ["WindowLength = 0", "Cutoff = 0", "MaxDimsFraction = 2"])
    def test_bad_parameter_names_its_key(self, line):
        key = line.split()[0]
        lines = [l for l in self.GOOD.splitlines() if not l.startswith(key)] + [line]
        with pytest.raises(InvalidValue) as err:
            parse_config("\n".join(lines))
        assert err.value.name == key

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidValue):
            parse_config(self.GOOD + "SamplingRate = 100\n")

    def test_unparseable_value(self):
        bad = self.GOOD.replace("250", "fast")
        with pytest.raises(InvalidValue):
            parse_config(bad)
