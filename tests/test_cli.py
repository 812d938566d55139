import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asrstream as asr
from asrstream.cli import main
from asrstream.io_formats import (
    SignalRecord,
    load_calibration_data,
    load_calibration_state,
    load_signal_record,
    save_calibration_csv,
    save_calibration_state,
    save_signal_record,
)


@pytest.fixture()
def workspace(tmp_path):
    """Synthetic calibration CSV + recording with one burst."""
    rc = main(
        [
            "simulate",
            "--channels", "4",
            "--srate", "250",
            "--duration", "20",
            "--calibration-duration", "20",
            "--seed", "5",
            "--burst", "8:1:10",
            "--output-record", str(tmp_path / "rec.csv"),
            "--output-calibration", str(tmp_path / "calib.csv"),
            "--output-mask", str(tmp_path / "mask.csv"),
        ]
    )
    assert rc == 0
    return tmp_path


def test_calibrate_reports_window(workspace, capsys):
    rc = main(
        [
            "calibrate",
            "--input", str(workspace / "calib.csv"),
            "--srate", "250",
            "--window-length", "0.5",
            "--output", str(workspace / "state.json"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "window_samples=125" in out.splitlines()
    state = load_calibration_state(workspace / "state.json")
    assert state.channels == 4


def test_calibrate_report_values_are_plain_numbers(workspace, capsys):
    output = str(workspace / "state.json")
    argv = ["calibrate", "--input", str(workspace / "calib.csv"), "--srate", "250"]
    assert main([*argv, "--output", output]) == 0
    fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    # the gain lines come after the older ones, which keep their order, and
    # the median threshold after them
    assert list(fields) == [
        "channels", "window_samples", "threshold_min", "threshold_max", "output", "gain", "n_eff",
        "threshold_median",
    ]
    assert fields.pop("output") == output
    for key, value in fields.items():
        float(value)  # np.float64(...) would not parse
    assert 0 < float(fields["threshold_min"]) <= float(fields["threshold_max"])
    assert float(fields["threshold_min"]) <= float(fields["threshold_median"])
    assert float(fields["threshold_median"]) <= float(fields["threshold_max"])
    # the gain is 1 + sqrt(C / n_eff), the Marchenko-Pastur edge
    channels, n_eff = int(fields["channels"]), float(fields["n_eff"])
    assert float(fields["gain"]) == pytest.approx(1.0 + np.sqrt(channels / n_eff))
    assert 1.0 < float(fields["gain"]) < 1.0 + np.sqrt(channels)


# each command's argv in the workspace ({w}) and the keys it prints first, in
# this order: for all but simulate, those the removed --report flag printed
_OUTPUT_GRAMMAR = {
    "calibrate": (
        "calibrate --input {w}/calib.csv --srate 250 --output {w}/state.json",
        ["channels", "window_samples", "threshold_min", "threshold_max", "output", "gain",
         "n_eff"],
    ),
    "process": (
        "process --calibration {w}/calib.csv --input {w}/rec.csv --output {w}/out.csv",
        ["channels", "samples", "lookahead", "updates", "rejecting_updates", "output",
         "screened_updates"],
    ),
    "compare": (
        "compare --a {w}/rec.csv --b {w}/rec.csv",
        ["pass", "max_relative_error", "max_absolute_error", "tolerance",
         "first_divergent_sample"],
    ),
    "bench": (
        "bench --channels 4 --srate 250 --duration 1",
        ["channels", "srate", "samples", "elapsed_seconds", "samples_per_second",
         "real_time_factor"],
    ),
    "simulate": (
        "simulate --channels 4 --duration 2 --calibration-duration 2 --burst 1:0.5:5"
        " --output-record {w}/r.csv --output-calibration {w}/c.csv --output-mask {w}/m.csv",
        ["channels", "samples", "artifact_samples", "output_record", "output_calibration",
         "output_mask"],
    ),
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_GRAMMAR))
def test_every_command_prints_key_value_lines(workspace, capsys, command):
    template, first_keys = _OUTPUT_GRAMMAR[command]
    argv = [part.format(w=workspace) for part in template.split()]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(re.fullmatch(r"[a-z_]+=.+", line) for line in lines), lines
    fields = dict(line.split("=", 1) for line in lines)
    assert len(fields) == len(lines)  # no key twice
    assert list(fields)[: len(first_keys)] == first_keys
    for key, value in fields.items():
        if key.startswith("output"):
            assert value == argv[argv.index("--" + key.replace("_", "-")) + 1]
        else:
            # a plain int or float literal, as int() or repr(float) writes it
            assert re.fullmatch(r"-?\d+|-?\d+(\.\d+)?(e[+-]\d+)?|-?inf|nan", value), (key, value)

    # the flag that used to select these lines is gone: a usage error
    assert main([*argv, "--report"]) == 1
    captured = capsys.readouterr()
    assert "--report" in captured.err
    assert captured.out == ""


def test_calibrate_window_rule_exit_code_and_message(workspace, capsys):
    rc = main(
        [
            "calibrate",
            "--input", str(workspace / "calib.csv"),
            "--srate", "250",
            "--window-length", "0.02",
            "--output", str(workspace / "state.json"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "1.5x" in err
    assert not (workspace / "state.json").exists()  # nothing partial written


@pytest.mark.parametrize("name", ["nope.csv", ""], ids=["missing", "directory"])
def test_missing_input_exits_1(tmp_path, capsys, name):
    rc = main(
        [
            "calibrate",
            "--input", str(tmp_path / name),
            "--srate", "250",
            "--output", str(tmp_path / "state.json"),
        ]
    )
    assert rc == 1


def test_unknown_flag_exits_1(capsys):
    assert main(["calibrate", "--frobnicate"]) == 1


def test_process_file_mode_shape_and_chunk_invariance(workspace, capsys):
    base = [
        "process",
        "--calibration", str(workspace / "calib.csv"),
        "--input", str(workspace / "rec.csv"),
    ]
    assert main(base + ["--output", str(workspace / "out8.csv"), "--chunk", "8"]) == 0
    assert main(base + ["--output", str(workspace / "out250.csv"), "--chunk", "250"]) == 0
    rec = load_signal_record(workspace / "rec.csv")
    out8 = load_signal_record(workspace / "out8.csv")
    out250 = load_signal_record(workspace / "out250.csv")
    assert out8.data.shape == rec.data.shape
    report = asr.compare(out8.data, out250.data, 1e-10)
    assert report.passed, report.summary()


def test_process_file_mode_parses_input_once(workspace, monkeypatch, capsys):
    from asrstream import cli

    parsed: list[str] = []
    real = cli.load_signal_record

    def counting(path):
        parsed.append(str(path))
        return real(path)

    monkeypatch.setattr(cli, "load_signal_record", counting)
    rc = main(
        [
            "process",
            "--calibration", str(workspace / "calib.csv"),
            "--input", str(workspace / "rec.csv"),
            "--output", str(workspace / "out.csv"),
        ]
    )
    assert rc == 0
    assert parsed == [str(workspace / "rec.csv")]


def test_process_channel_mismatch_exits_1(workspace, tmp_path, capsys):
    rng = np.random.default_rng(0)
    bad = tmp_path / "bad.csv"
    save_signal_record(bad, asr.SignalRecord(rng.standard_normal((3, 500)), 250.0))
    rc = main(
        [
            "process",
            "--calibration", str(workspace / "calib.csv"),
            "--input", str(bad),
            "--output", str(tmp_path / "out.csv"),
        ]
    )
    assert rc == 1


def test_full_pipeline_determinism_bytes(workspace, capsys):
    args = [
        "process",
        "--calibration", str(workspace / "calib.csv"),
        "--input", str(workspace / "rec.csv"),
        "--chunk", "32",
    ]
    assert main(args + ["--output", str(workspace / "a.csv")]) == 0
    assert main(args + ["--output", str(workspace / "b.csv")]) == 0
    assert (workspace / "a.csv").read_bytes() == (workspace / "b.csv").read_bytes()


def test_simulate_deterministic(tmp_path, capsys):
    for name in ("x.csv", "y.csv"):
        assert (
            main(
                [
                    "simulate",
                    "--seed", "9",
                    "--duration", "5",
                    "--calibration-duration", "5",
                    "--burst", "1:0.5:8",
                    "--output-record", str(tmp_path / name),
                ]
            )
            == 0
        )
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_simulate_invalid_burst_exits_1(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--seed", "1",
            "--duration", "5",
            "--burst", "10:2:5",  # extends past the recording
            "--output-record", str(tmp_path / "r.csv"),
        ]
    )
    assert rc == 1
    assert not (tmp_path / "r.csv").exists()


def test_compare_exit_codes_and_report(workspace, capsys):
    rec = load_signal_record(workspace / "rec.csv")
    save_signal_record(workspace / "same.csv", rec)
    rc = main(
        ["compare", "--a", str(workspace / "rec.csv"), "--b", str(workspace / "same.csv")]
    )
    assert rc == 0
    shifted = asr.SignalRecord(rec.data * (1 + 2e-5), rec.srate)
    save_signal_record(workspace / "shifted.csv", shifted)
    rc = main(
        [
            "compare",
            "--a", str(workspace / "rec.csv"),
            "--b", str(workspace / "shifted.csv"),
            "--tolerance", "1e-5",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "pass=0" in out
    assert any(line.startswith("max_relative_error=") for line in out.splitlines())


def test_bench_reports_rate(capsys):
    rc = main(
        [
            "bench",
            "--channels", "8",
            "--srate", "250",
            "--duration", "4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(fields["real_time_factor"]) > 1.0


@pytest.mark.parametrize("chunk", ["0", "-5"])
def test_chunk_below_1_exits_1(workspace, monkeypatch, capsys, chunk):
    rec = load_signal_record(workspace / "rec.csv")
    monkeypatch.setattr("sys.stdin", io.StringIO(_record_to_stream_text(rec)))
    calib, out = str(workspace / "calib.csv"), str(workspace / "out.csv")
    for argv in (
        ["process", "--calibration", calib, "--input", str(workspace / "rec.csv"),
         "--output", out],
        ["process", "--calibration", calib, "--stream"],
        ["bench", "--channels", "4", "--srate", "250", "--duration", "1"],
    ):
        assert main([*argv, "--chunk", chunk]) == 1, argv
        captured = capsys.readouterr()
        assert "chunk" in captured.err.lower(), argv
        assert captured.out == "", argv
    assert not (workspace / "out.csv").exists()


def test_chunk_is_checked_before_any_input(tmp_path, monkeypatch, capsys):
    stream = io.StringIO("# channels=4 srate=250.0\n" + "0,0,0,0\n" * 8)
    monkeypatch.setattr("sys.stdin", stream)
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["process", "--calibration", missing, "--stream"],
        ["process", "--calibration", missing, "--input", missing, "--output",
         str(tmp_path / "out.csv")],
    ):
        for flag, value in (("--chunk", "0"), ("--stepsize", "0"), ("--lookahead", "-1")):
            assert main([*argv, flag, value]) == 1, (argv, flag)
            err = capsys.readouterr().err
            assert flag in err, (argv, flag)
            assert "missing" not in err and "ChunkCapacity" not in err, (argv, flag)
    assert main(["bench", "--stepsize", "0"]) == 1
    assert "--stepsize" in capsys.readouterr().err
    assert stream.tell() == 0  # stream mode did not read its header


def test_import_and_calibrate_leave_scipy_linalg_unloaded(workspace):
    """scipy.linalg takes about 0.25 s to import and neither import nor
    calibration needs it."""
    src = os.path.dirname(os.path.dirname(asr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from asrstream.cli import main\n"
        "assert 'scipy.linalg' not in sys.modules, 'import'\n"
        f"assert main(['calibrate', '--input', {str(workspace / 'calib.csv')!r}, "
        f"'--srate', '250', '--output', {str(workspace / 'state.json')!r}]) == 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'calibrate'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (workspace / "state.json").exists()


def test_calibration_leaves_numpy_ma_unloaded(workspace):
    """np.median's first call imports numpy.ma (about 15 ms); calibration
    takes its medians without it."""
    src = os.path.dirname(os.path.dirname(asr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from asrstream import asr_calibrate\n"
        "from asrstream.cli import main\n"
        "asr_calibrate(np.random.default_rng(0).standard_normal((4, 2000)), 250.0)\n"
        "assert 'numpy.ma' not in sys.modules, 'asr_calibrate'\n"
        f"assert main(['calibrate', '--input', {str(workspace / 'calib.csv')!r}, "
        f"'--srate', '250', '--output', {str(workspace / 'state.json')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'calibrate'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _record_to_stream_text(record):
    lines = [f"# channels={record.channels} srate={record.srate!r}"]
    for col in record.data.T:
        lines.append(",".join(repr(float(v)) for v in col))
    return "\n".join(lines) + "\n"


def _stream_args(calibration, chunk=32):
    from asrstream.cli import build_parser

    return build_parser().parse_args(
        ["process", "--calibration", str(calibration), "--stream", "--chunk", str(chunk)]
    )


def test_stream_mode_matches_file_mode(workspace, capsys):
    from asrstream.cli import _process_stream

    rec = load_signal_record(workspace / "rec.csv")
    stdout = io.StringIO()
    rc = _process_stream(
        _stream_args(workspace / "calib.csv"), io.StringIO(_record_to_stream_text(rec)), stdout
    )
    err = capsys.readouterr().err
    assert rc == 0
    assert "dropped_in=0" in err  # counters reported on exit

    lines = [l for l in stdout.getvalue().splitlines() if l and not l.startswith("#")]
    got = np.array([[float(v) for v in line.split(",")] for line in lines]).T
    assert got.shape == rec.data.shape

    assert main(
        [
            "process",
            "--calibration", str(workspace / "calib.csv"),
            "--input", str(workspace / "rec.csv"),
            "--output", str(workspace / "file_out.csv"),
            "--chunk", "32",
        ]
    ) == 0
    want = load_signal_record(workspace / "file_out.csv")
    assert np.array_equal(got, want.data)


def test_stream_done_counters_are_integers(workspace, capsys):
    from asrstream.cli import _process_stream

    rec = load_signal_record(workspace / "rec.csv")
    args = _stream_args(workspace / "calib.csv", chunk=256)
    assert _process_stream(args, io.StringIO(_record_to_stream_text(rec)), io.StringIO()) == 0
    counters = _stream_done(capsys.readouterr().err)
    assert counters["errors"] == 0 and counters["last_error_sample"] == -1
    assert counters["worker_alive"] == 1


def test_stream_mode_rejects_bad_header(workspace):
    from asrstream.cli import _process_stream

    args = _stream_args(workspace / "calib.csv")
    with pytest.raises(asr.AsrError):
        _process_stream(args, io.StringIO("garbage\n"), io.StringIO())


def test_file_mode_requires_input_and_output(workspace, capsys):
    rc = main(["process", "--calibration", str(workspace / "calib.csv")])
    assert rc == 1


def test_stream_mode_calibrates_from_csv_once(workspace, monkeypatch, capsys):
    from asrstream import cli, runtime

    calls = 0
    real = runtime.asr_calibrate

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "asr_calibrate", counting)
    monkeypatch.setattr(cli, "asr_calibrate", counting)
    stdin = io.StringIO(_record_to_stream_text(load_signal_record(workspace / "rec.csv")))
    assert cli._process_stream(_stream_args(workspace / "calib.csv"), stdin, io.StringIO()) == 0
    assert calls == 1


def test_stream_mode_golden_text(workspace, monkeypatch, capsys):
    """With cleaning replaced by the identity, stream output is the input's
    shortest-repr text, awkward values included."""
    from asrstream import cli, runtime

    monkeypatch.setattr(runtime, "asr_process_chunk", lambda chunk, calib, state: (chunk, state))
    text = (
        "# channels=4 srate=250.0\n"
        "0.1,-0.0,1e-05,1e+16\n"
        "5e-324,-1.5,2.0,1e-300\n"
        "-0.0,0.1,5e-324,123456789.125\n"
    )
    stdout = io.StringIO()
    rc = cli._process_stream(_stream_args(workspace / "calib.csv", chunk=2), io.StringIO(text), stdout)
    assert rc == 0
    assert stdout.getvalue() == text


def _stream_done(err: str) -> dict[str, int]:
    """The counters of the ``stream done:`` line on stderr."""
    return {k: int(v) for k, v in (f.split("=") for f in err.split("stream done: ")[1].split())}


class _WorkerKilled(BaseException):
    """Not an Exception, so the worker's fail-open handler does not catch it."""


def test_stream_mode_exits_2_when_the_worker_dies(workspace, monkeypatch, capsys):
    from asrstream import cli, runtime

    calls = 0
    real = runtime.asr_process_chunk

    def dying(chunk, calib, state):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise _WorkerKilled()
        return real(chunk, calib, state)

    thread_errors = []
    monkeypatch.setattr(runtime, "asr_process_chunk", dying)
    monkeypatch.setattr(threading, "excepthook", lambda info: thread_errors.append(info.exc_type))
    rec = load_signal_record(workspace / "rec.csv")
    stdin = io.StringIO(_record_to_stream_text(rec))  # 157 chunks of 32 samples
    start = time.perf_counter()
    assert cli._process_stream(_stream_args(workspace / "calib.csv"), stdin, io.StringIO()) == 2
    assert time.perf_counter() - start < 10.0
    assert thread_errors == [_WorkerKilled]
    assert _stream_done(capsys.readouterr().err)["worker_alive"] == 0


@pytest.mark.parametrize(
    "delay, stall_at, stall, join_timeout, rc, pushed, drained",
    [
        (0.03, 352, 0.03, 2.0, 0, 12, 12),  # slower in total than the bound: waited for
        (0.0, 352, 0.6, 2.0, 2, 12, 11),  # stalled in the end-of-stream drain
        (0.0, 0, 0.6, 2.0, 2, 7, 0),  # stalled while the producer waits for room
        (0.0, 352, 1.0, 0.1, 2, 12, 11),  # and still stalled when release() gives up
    ],
    ids=["slow", "stalled_in_flush", "stalled_in_feed", "unjoinable"],
)
def test_stream_drain_bound_counts_time_without_progress(
    workspace, monkeypatch, capsys, delay, stall_at, stall, join_timeout, rc, pushed, drained
):
    """Stream mode waits for the worker until DRAIN_TIMEOUT_S pass without
    a drained chunk: a worker slower than that in total but not per chunk
    gets every row written; one stalled past it, while the producer feeds or
    at the end, exits 2 with the rows drained so far and the counters line,
    even when the worker cannot be joined."""
    from asrstream import cli, runtime

    real = runtime.asr_process_chunk

    def slow(chunk, calib, state):
        time.sleep(stall if chunk.first_sample_index == stall_at else delay)
        return real(chunk, calib, state)

    monkeypatch.setattr(runtime, "asr_process_chunk", slow)
    monkeypatch.setattr(runtime, "DRAIN_TIMEOUT_S", 0.15)
    monkeypatch.setattr(runtime, "WORKER_JOIN_TIMEOUT_S", join_timeout)
    rec = load_signal_record(workspace / "rec.csv")
    text = _record_to_stream_text(SignalRecord(rec.data[:, :384], rec.srate))  # 12 chunks of 32
    stdout = io.StringIO()
    args = _stream_args(workspace / "calib.csv")
    assert cli._process_stream(args, io.StringIO(text), stdout) == rc
    assert len(stdout.getvalue().splitlines()) == 1 + 32 * drained  # header + rows
    stats = _stream_done(capsys.readouterr().err)
    assert (stats["pushed"], stats["drained"], stats["worker_alive"]) == (pushed, drained, 1)


def test_parser_defaults_come_from_the_library(capsys):
    from asrstream.cli import build_parser
    from asrstream.types import DEFAULT_STEPSIZE

    parser = build_parser()
    cal = parser.parse_args(["calibrate", "--input", "c.csv", "--srate", "250", "--output", "s.json"])
    assert asr.CalibrationParams(
        cutoff=cal.cutoff,
        blocksize=cal.blocksize,
        window_len=cal.window_length,
        window_overlap=cal.window_overlap,
        max_dims_fraction=cal.max_dims_fraction,
    ) == asr.CalibrationParams()
    assert parser.parse_args(["process", "--calibration", "s.json"]).stepsize == DEFAULT_STEPSIZE
    assert parser.parse_args(["bench"]).stepsize == DEFAULT_STEPSIZE
    for argv in (
        ["process", "--calibration", "s.json", "--stream", "--var-name", "x"],
        ["process", "--calibration", "s.json", "--stream", "--fifo-capacity", "8"],
        ["simulate", "--output-record", "r.csv", "--mixing-seed", "3"],
        ["calibrate", "--input", "c.csv", "--srate", "250", "--output", "s.json", "--filter-b", "1"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and argv[-2] in err, argv


def test_report_counts_updates_past_the_log_limit(workspace, monkeypatch, capsys):
    from asrstream import types

    monkeypatch.setattr(types, "UPDATE_LOG_LIMIT", 4)
    rc = main(
        [
            "process",
            "--calibration", str(workspace / "calib.csv"),
            "--input", str(workspace / "rec.csv"),
            "--output", str(workspace / "out.csv"),
            "--stepsize", "32",
        ]
    )
    assert rc == 0
    record = load_signal_record(workspace / "rec.csv")
    n = record.samples
    assert n // 32 > 4
    lines = capsys.readouterr().out.splitlines()
    assert f"updates={n // 32}" in lines
    # every rejecting update, though the log kept only the last four
    monkeypatch.undo()
    calibration, _, _ = load_calibration_data(workspace / "calib.csv")
    # in the CLI's default chunks of 256, so the screens clear the same updates
    _, proc = asr.clean_recording(record.data, asr.asr_calibrate(calibration, record.srate), 256)
    rejecting = sum(1 for _, r in proc.update_log if r)
    assert rejecting > 4
    assert f"rejecting_updates={rejecting}" in lines
    # the screens' count comes last, after the keys that came before it
    assert [line.split("=")[0] for line in lines] == [
        "channels", "samples", "lookahead", "updates", "rejecting_updates", "output",
        "screened_updates",
    ]
    assert 0 < proc.screened_updates <= n // 32 - rejecting
    assert lines[-1] == f"screened_updates={proc.screened_updates}"


def _stream_text_with(record, edits):
    """Stream text of ``record`` with a blank line after the header and the
    cells ``edits`` maps (physical line, 1-based column) to replaced."""
    lines = _record_to_stream_text(record).splitlines()
    lines.insert(1, "")
    for (row, col), text in edits.items():
        cells = lines[row - 1].split(",")
        cells[col - 1] = text
        lines[row - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_stream_mode_rejects_non_finite_samples(workspace, monkeypatch, capsys, bad):
    rec = load_signal_record(workspace / "rec.csv")
    row = 50  # in the second chunk of 32 samples
    monkeypatch.setattr(sys, "stdin", io.StringIO(_stream_text_with(rec, {(row, 2): bad})))
    rc = main(["process", "--calibration", str(workspace / "calib.csv"), "--stream", "--chunk", "32"])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: non-finite value {bad!r} (row {row}, col 2)" in captured.err
    assert bad not in captured.out


def test_stream_mode_reports_the_first_fault_in_reading_order(workspace, monkeypatch, capsys):
    rec = load_signal_record(workspace / "rec.csv")
    text = _stream_text_with(rec, {(50, 3): "nan", (52, 1): "x"})
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc = main(["process", "--calibration", str(workspace / "calib.csv"), "--stream", "--chunk", "32"])
    assert rc == 1
    assert "error: non-finite value 'nan' (row 50, col 3)" in capsys.readouterr().err


def test_a_stretch_too_large_to_square_is_cleaned_in_both_modes(workspace, monkeypatch, capsys):
    """Samples 1000-1039 times 1e155 overflow a window covariance; both modes
    clean them as they clean the same stretch times 1e150, without a warning."""
    rec = load_signal_record(workspace / "rec.csv")
    calib = str(workspace / "calib.csv")
    outputs = {}
    for scale in (1e150, 1e155):
        data = rec.data.copy()
        data[:, 1000:1040] *= scale
        record = SignalRecord(data=data, srate=rec.srate)
        save_signal_record(workspace / "huge.csv", record)
        monkeypatch.setattr(sys, "stdin", io.StringIO(_record_to_stream_text(record)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["process", "--calibration", calib, "--input", str(workspace / "huge.csv"),
                         "--output", str(workspace / "out.csv"), "--chunk", "32"]) == 0
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                assert main(["process", "--calibration", calib, "--stream", "--chunk", "32"]) == 0
        assert " errors=0 " in capsys.readouterr().err
        lines = [l for l in stdout.getvalue().splitlines() if l and not l.startswith("#")]
        streamed = np.array([[float(v) for v in line.split(",")] for line in lines]).T
        filed = load_signal_record(workspace / "out.csv").data
        assert np.array_equal(streamed, filed)
        outputs[scale] = filed
    stretch = slice(1062, 1102)  # after the default lookahead of 62 samples
    huge, small = outputs[1e155], outputs[1e150]
    np.testing.assert_allclose(huge[:, stretch] * 1e-5, small[:, stretch], rtol=1e-12)
    rest = np.ones(rec.samples, dtype=bool)
    rest[stretch] = False
    np.testing.assert_allclose(huge[:, rest], small[:, rest], rtol=0, atol=1e-12)


def test_a_stream_rate_no_calibration_csv_can_cover_is_one_short_error(
    workspace, monkeypatch, capsys
):
    monkeypatch.setattr(sys, "stdin", io.StringIO("# channels=4 srate=1e308\n1,2,3,4\n"))
    rc = main(["process", "--stream", "--calibration", str(workspace / "calib.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        "error: need at least 0.5 s of data (one statistics window), "
        "got 5000 samples (5e-305 s)\n"
    )


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_stream_mode_rejects_a_non_finite_srate(workspace, monkeypatch, capsys, rate):
    stream = f"# channels=4 srate={rate}\n" + "0.5,0.25,-0.5,1.0\n" * 8
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    rc = main(["process", "--calibration", str(workspace / "calib.csv"), "--stream"])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: non-finite value {rate!r} (row 1, col 1)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rate", ["-250.0", "0", "-0.0"])
def test_stream_mode_rejects_a_rate_not_above_0_as_a_header_error(
    workspace, monkeypatch, capsys, rate
):
    stream = f"# channels=4 srate={rate}\n" + "0.5,0.25,-0.5,1.0\n" * 8
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    rc = main(["process", "--calibration", str(workspace / "calib.csv"), "--stream"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: srate must be > 0 (row 1)\n"
    assert captured.out == ""


def test_stream_mode_rejects_a_ragged_line(workspace, monkeypatch, capsys):
    rec = load_signal_record(workspace / "rec.csv")
    argv = ["process", "--calibration", str(workspace / "calib.csv"), "--stream", "--chunk", "32"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(_stream_text_with(rec, {})))
    assert main(argv) == 0
    # line 50 holds sample 47, in the second chunk of 32: the header and the
    # first chunk are written, byte for byte as a clean run writes them
    prefix = "".join(capsys.readouterr().out.splitlines(keepends=True)[: 1 + 32])
    text = _stream_text_with(rec, {(50, 4): "1.0,2.0"})  # 5 cells on a 4-channel line
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: row 50 has 5 cells, expected 4" in captured.err
    assert captured.out == prefix
    # 3 cells on line 50 and 5 on line 51: the block of 32 lines they share
    # holds as many cells as it should
    lines = _stream_text_with(rec, {(51, 4): "1.0,2.0"}).split("\n")
    lines[49] = lines[49].rpartition(",")[0]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: row 50 has 3 cells, expected 4" in captured.err
    assert captured.out == prefix


@pytest.mark.parametrize(
    "table, old, new, command, message",
    [
        ("rec.csv", b",", b",\xff,", "process", "'\\udcff' as a number (row 3, col 2)"),
        ("calib.csv", b",", b",\xff,", "calibrate", "'\\udcff' as a number (row 1, col 2)"),
        ("calib.csv", b",", b",\xff,", "process", "'\\udcff' as a number (row 1, col 2)"),
        ("state.json", b'"version": 1', b'"version": \xff', "process", "line 3 column 13"),
    ],
)
def test_a_byte_that_is_not_utf8_exits_1_with_its_line(
    workspace, capsys, table, old, new, command, message
):
    state = workspace / "state.json"
    assert main(["calibrate", "--input", str(workspace / "calib.csv"), "--srate", "250",
                 "--output", str(state)]) == 0
    capsys.readouterr()
    data = (workspace / table).read_bytes()
    (workspace / table).write_bytes(data.replace(old, new, 1))  # 0xff is not UTF-8
    if command == "calibrate":
        argv = ["calibrate", "--input", str(workspace / "calib.csv"), "--srate", "250"]
    else:
        calibration = state if table == "state.json" else workspace / "calib.csv"
        argv = ["process", "--calibration", str(calibration),
                "--input", str(workspace / "rec.csv")]
    output = workspace / "out.file"
    assert main([*argv, "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err
    assert not output.exists()


def test_short_window_state_exits_1_in_both_modes(workspace, monkeypatch, capsys):
    state = workspace / "state.json"
    assert main(["calibrate", "--input", str(workspace / "calib.csv"), "--srate", "250",
                 "--output", str(state)]) == 0
    payload = json.loads(state.read_text())
    payload["params"]["window_len"] = 0.02  # 5 samples < 1.5 * 4 channels
    state.write_text(json.dumps(payload))
    rec = load_signal_record(workspace / "rec.csv")
    capsys.readouterr()

    argv = ["process", "--calibration", str(state)]
    assert main([*argv, "--input", str(workspace / "rec.csv"),
                 "--output", str(workspace / "out.csv")]) == 1
    assert "1.5x" in capsys.readouterr().err
    assert not (workspace / "out.csv").exists()

    monkeypatch.setattr(sys, "stdin", io.StringIO(_record_to_stream_text(rec)))
    assert main([*argv, "--stream"]) == 1
    captured = capsys.readouterr()
    assert "1.5x" in captured.err
    assert captured.out == ""


def test_non_finite_filter_state_exits_1_before_the_record_is_read(workspace, monkeypatch, capsys):
    from asrstream import cli

    state = workspace / "state.json"
    assert main(["calibrate", "--input", str(workspace / "calib.csv"), "--srate", "250",
                 "--output", str(state)]) == 0
    payload = json.loads(state.read_text())
    payload["filter_b"] = [float("nan")]
    state.write_text(json.dumps(payload))
    rec = load_signal_record(workspace / "rec.csv")
    capsys.readouterr()

    parsed = []
    monkeypatch.setattr(cli, "load_signal_record", parsed.append)
    argv = ["process", "--calibration", str(state)]
    assert main([*argv, "--input", str(workspace / "rec.csv"),
                 "--output", str(workspace / "out.csv")]) == 1
    assert parsed == []
    assert "filter_b: entries must be finite" in capsys.readouterr().err
    assert not (workspace / "out.csv").exists()

    monkeypatch.setattr(sys, "stdin", io.StringIO(_record_to_stream_text(rec)))
    assert main([*argv, "--stream"]) == 1
    captured = capsys.readouterr()
    assert "filter_b: entries must be finite" in captured.err
    assert captured.out == ""


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    """The CLI runs BLAS on one thread: a 24-channel burst record, where
    default multi-threaded OpenBLAS changes the last bits of the cleaned
    samples, comes out the same as under OPENBLAS_NUM_THREADS=1."""
    assert main(["simulate", "--channels", "24", "--srate", "500", "--duration", "4",
                 "--calibration-duration", "10", "--seed", "5", "--burst", "2:0.5:10",
                 "--output-record", str(tmp_path / "rec.csv"),
                 "--output-calibration", str(tmp_path / "calib.csv")]) == 0
    src = os.path.dirname(os.path.dirname(asr.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for name, env in [("default", base), ("one", dict(base, OPENBLAS_NUM_THREADS="1"))]:
        out = tmp_path / f"{name}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "asrstream.cli", "process",
             "--calibration", str(tmp_path / "calib.csv"),
             "--input", str(tmp_path / "rec.csv"), "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cleaning_never_loads_scipy_linalg(workspace):
    """Without a shaping filter no part of cleaning imports scipy.linalg
    (about 0.25 s): not a rejecting update, not a whole clean_recording
    pass, and not process in file or stream mode."""
    rec = load_signal_record(workspace / "rec.csv")
    (workspace / "stream.txt").write_text(_record_to_stream_text(rec))
    state, out = str(workspace / "state.json"), str(workspace / "out.csv")
    src = os.path.dirname(os.path.dirname(asr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import asrstream as asr\n"
        "from asrstream.cli import main\n"
        f"matrix, _, _ = asr.load_calibration_data({str(workspace / 'calib.csv')!r})\n"
        "calib = asr.asr_calibrate(matrix, 250.0)\n"
        f"rec = asr.load_signal_record({str(workspace / 'rec.csv')!r})\n"
        "_, proc = asr.clean_recording(rec.data, calib, 256)\n"
        "assert any(r for _, r in proc.update_log), 'no update rejected'\n"
        "assert 'scipy.linalg' not in sys.modules, 'clean_recording'\n"
        f"assert main(['calibrate', '--input', {str(workspace / 'calib.csv')!r}, "
        f"'--srate', '250', '--output', {state!r}]) == 0\n"
        f"assert main(['process', '--calibration', {state!r}, "
        f"'--input', {str(workspace / 'rec.csv')!r}, '--output', {out!r}]) == 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'process'\n"
        f"assert main(['process', '--calibration', {state!r}, '--stream']) == 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'process --stream'\n"
    )
    with open(workspace / "stream.txt") as stdin:
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, stdin=stdin, capture_output=True, text=True
        )
    assert result.returncode == 0, result.stderr
    assert "errors=0" in result.stderr
    stream_out = result.stdout[result.stdout.index("# channels="):]
    assert len(stream_out.splitlines()) == rec.samples + 1  # header + samples


def _state_with(workspace, **fields):
    """A calibration-state file of the workspace's data with ``fields``
    replaced; json writes an infinity as the bare literal Infinity."""
    path = workspace / "edited.json"
    assert main(["calibrate", "--input", str(workspace / "calib.csv"), "--srate", "250",
                 "--output", str(path)]) == 0
    payload = json.loads(path.read_text())
    for key, value in fields.items():
        if key in payload["params"]:
            payload["params"][key] = value
        else:
            payload[key] = value
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        ("calibrate --input {calib} --srate 250 --window-length nan", "window_len: must be > 0"),
        ("calibrate --input {calib} --srate 250 --window-length inf", "window_len: must be > 0"),
        ("calibrate --input {calib} --srate inf", "srate must be > 0"),
        ("calibrate --input {calib} --srate 250 --cutoff nan", "cutoff: must be > 0"),
        ("simulate --srate nan", "srate must be > 0"),
        ("simulate --duration nan", "durations must be > 0"),
        ("simulate --duration inf", "durations must be > 0"),
        ("simulate --burst 1:nan:1", "event 0: onset must be >= 0 and duration > 0"),
        ("simulate --burst nan:1:1", "event 0: onset must be >= 0 and duration > 0"),
        ("bench --srate nan", "srate must be > 0"),
        ("bench --duration nan", "durations must be > 0"),
        ("process --calibration {srate_inf} --input {rec}", "srate: must be > 0"),
        ("process --calibration {window_inf} --input {rec}", "window_len: must be > 0"),
        ("compare --a {rec} --b {rec} --tolerance nan", "tolerance: must be finite and >= 0"),
        ("compare --a {rec} --b {rec} --tolerance -1", "tolerance: must be finite and >= 0"),
    ],
)
def test_a_non_finite_number_exits_1_with_an_error_line(workspace, capsys, argv, message):
    paths = {"calib": workspace / "calib.csv", "rec": workspace / "rec.csv"}
    if "srate_inf" in argv:
        paths["srate_inf"] = _state_with(workspace, srate=float("inf"))
    if "window_inf" in argv:
        paths["window_inf"] = _state_with(workspace, window_len=float("inf"))
    output = workspace / "out.file"
    argv = argv.format(**paths).split()
    if argv[0] == "simulate":
        argv += ["--output-record", str(output)]
    elif argv[0] in ("calibrate", "process"):
        argv += ["--output", str(output)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not output.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        ("calibrate --input {dir} --srate 250 --output {out}", "{dir}"),
        ("process --calibration {calib} --input {dir} --output {out}", "{dir}"),
        ("process --calibration {dir} --input {rec} --output {out}", "{dir}"),
        ("process --calibration {dir} --stream", "{dir}"),
        ("compare --a {dir} --b {rec}", "{dir}"),
        ("calibrate --input {calib} --srate 250 --output {dir}/missing/state.json",
         "{dir}/missing/state.json"),
    ],
)
def test_an_os_error_exits_1_naming_the_path_given(workspace, monkeypatch, capsys, argv, named):
    paths = {"dir": workspace, "calib": workspace / "calib.csv", "rec": workspace / "rec.csv",
             "out": workspace / "out.file"}
    monkeypatch.setattr(sys, "stdin", io.StringIO("# channels=4 srate=250.0\n0,0,0,0\n"))
    assert main(argv.format(**paths).split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.rstrip().endswith(repr(named.format(**paths)))
    assert captured.out == ""
    assert not (workspace / "out.file").exists()


def _allocation_fails_above(monkeypatch, floats):
    """Make np.zeros and np.empty raise numpy's MemoryError for any array of
    more than ``floats`` entries, without allocating it."""
    for name in ("zeros", "empty"):
        real = getattr(np, name)

        def fake(shape, *args, _real=real, **kwargs):
            if np.prod(shape, dtype=float) > floats:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return _real(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, fake)


@pytest.mark.parametrize(
    "argv",
    [
        "process --calibration {calib} --stream --chunk 1000000000",
        "simulate --channels 100000 --duration 100000 --output-record {out}",
    ],
)
def test_running_out_of_memory_exits_1_with_an_error_line(workspace, monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO("# channels=4 srate=250.0\n0,0,0,0\n"))
    argv = argv.format(calib=workspace / "calib.csv", out=workspace / "out.file").split()
    _allocation_fails_above(monkeypatch, 1e8)
    if argv[0] == "simulate":  # its first array is channels x channels of random draws
        fake_rng = mock.Mock(standard_normal=np.zeros)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: fake_rng)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: Unable to allocate")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (workspace / "out.file").exists()


@pytest.mark.parametrize("channels", ["10000000000000", "0", "3", "-4"])
def test_stream_header_channels_are_checked_before_anything_is_sized(
    workspace, monkeypatch, capsys, channels
):
    stream = f"# channels={channels} srate=250.0\n" + "0.5,0.25,-0.5,1.0\n" * 8
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
    assert main(["process", "--calibration", str(workspace / "calib.csv"), "--stream"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: channels: stream header says {channels} channels, calibration has 4\n"
    )
    assert captured.out == ""


def test_a_piped_record_is_not_sized_from_its_header(workspace):
    text = (workspace / "rec.csv").read_text()
    assert text.startswith("# channels: 4\n")
    src = os.path.dirname(os.path.dirname(asr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "asrstream.cli", "process",
         "--calibration", str(workspace / "calib.csv"),
         "--input", "/dev/stdin", "--output", str(workspace / "out.csv")],
        input=text.replace("# channels: 4", "# channels: 100000000000000", 1),
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr == "error: header says 100000000000000 channels but body has 4 rows\n"
    assert not (workspace / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("simulate --seed -1", "argument --seed: must be an integer >= 0, got '-1'"),
        ("simulate --duration 0.001", "durations must span at least one sample (1/250 s)"),
        ("simulate --calibration-duration 0.001",
         "durations must span at least one sample (1/250 s)"),
        ("bench --duration 0.001", "durations must span at least one sample (1/500 s)"),
    ],
)
def test_a_seed_or_duration_that_cannot_be_simulated_exits_1(tmp_path, capsys, argv, message):
    output = tmp_path / "rec.csv"
    argv = argv.split()
    if argv[0] == "simulate":
        argv += ["--output-record", str(output)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not output.exists()


_STREAM_ROWS = np.random.default_rng(11).standard_normal((40, 4))  # one update at chunk 8
_STREAM = [b"# channels=4 srate=250.0"] + [
    ",".join(map(repr, row.tolist())).encode() for row in _STREAM_ROWS
]
_HEADERS = st.builds(
    b"# channels=%d srate=%s".__mod__,
    st.tuples(st.integers(), st.sampled_from([b"250.0", b"500", b"0", b"-250", b"nan", b"1e308"])),
)
_STREAM_LINES = st.sampled_from(
    [b"", b"#", b"# channels=4", b"# srate=250.0", b"channels=4 srate=250.0", b"nan,0,0,0",
     b"1e999,0,0,0", b"1,2,3", b"1,2,3,4,5", b"1,,2,3", b"\xff,0,0,0",
     b"1e308,-1e308,1e308,-1e308"]
) | _HEADERS | st.binary(max_size=40)


@pytest.fixture(scope="module")
def stream_calibrations(tmp_path_factory, clean_calibration):
    """The same 4-channel 250 Hz calibration as a state file and as a CSV."""
    data, state = clean_calibration
    folder = tmp_path_factory.mktemp("calibrations")
    save_calibration_state(folder / "state.json", state)
    save_calibration_csv(folder / "calib.csv", data)
    return [folder / "state.json", folder / "calib.csv"]


def _stream_returns_or_prints_one_error_line(calibration, content: bytes):
    """Run ``process --stream`` in-process on ``content`` as stdin: it must
    end within a join timeout, returning 0, or 1 with one ``error:`` line."""
    stdin = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8", errors="surrogateescape")
    stdout, stderr = io.StringIO(), io.StringIO()
    result = {}

    def run():
        try:
            result["rc"] = main(
                ["process", "--calibration", str(calibration), "--stream", "--chunk", "8"]
            )
        except Exception as exc:  # any exception main lets escape is the failure
            result["exc"] = exc

    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(stdout), redirect_stderr(stderr):
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
    assert not runner.is_alive(), "process --stream did not finish"
    assert "exc" not in result, repr(result.get("exc"))
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert (result["rc"], len(errors)) in ((0, 0), (1, 1)), (result, stderr.getvalue())


class TestStreamOnDamagedInput:
    """Whatever stdin holds, process --stream exits 0, or 1 with one error line."""

    @given(st.binary(max_size=512))
    def test_arbitrary_bytes(self, stream_calibrations, content):
        _stream_returns_or_prints_one_error_line(stream_calibrations[0], content)

    @given(_HEADERS)
    def test_any_channel_count_and_rate_in_the_header(self, stream_calibrations, header):
        content = b"\n".join([header, *_STREAM[1:]]) + b"\n"
        _stream_returns_or_prints_one_error_line(stream_calibrations[0], content)

    @given(st.data())
    def test_one_line_mutation(self, stream_calibrations, data):
        lines = list(_STREAM)
        i = data.draw(st.just(0) | st.integers(1, len(lines) - 1))  # the header half the time
        lines[i] = data.draw(_STREAM_LINES)
        calibration = data.draw(st.sampled_from(stream_calibrations))
        _stream_returns_or_prints_one_error_line(calibration, b"\n".join(lines) + b"\n")
