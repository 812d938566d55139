import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import asrstream as asr
from asrstream.cli import main
from asrstream.io_formats import (
    load_calibration_state,
    load_signal_record,
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
    assert "125 samples" in out
    state = load_calibration_state(workspace / "state.json")
    assert state.channels == 4


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


def test_missing_input_exits_1(tmp_path, capsys):
    rc = main(
        [
            "calibrate",
            "--input", str(tmp_path / "nope.csv"),
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
            "--report",
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
            "--report",
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
        assert main([*argv, "--chunk", "0"]) == 1, argv
        err = capsys.readouterr().err
        assert "--chunk" in err, argv
        assert "missing" not in err and "ChunkCapacity" not in err, argv
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


def _record_to_stream_text(record):
    lines = [f"# channels={record.channels} srate={record.srate!r}"]
    for col in record.data.T:
        lines.append(",".join(repr(float(v)) for v in col))
    return "\n".join(lines) + "\n"


def test_stream_mode_matches_file_mode(workspace, capsys):
    from asrstream.cli import build_parser, _process_stream

    rec = load_signal_record(workspace / "rec.csv")
    stdin = io.StringIO(_record_to_stream_text(rec))
    stdout = io.StringIO()
    args = build_parser().parse_args(
        [
            "process",
            "--calibration", str(workspace / "calib.csv"),
            "--stream",
            "--chunk", "32",
        ]
    )
    rc = _process_stream(args, stdin, stdout)
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
    from asrstream.cli import build_parser, _process_stream

    rec = load_signal_record(workspace / "rec.csv")
    args = build_parser().parse_args(
        ["process", "--calibration", str(workspace / "calib.csv"), "--stream"]
    )
    assert _process_stream(args, io.StringIO(_record_to_stream_text(rec)), io.StringIO()) == 0
    line = [l for l in capsys.readouterr().err.splitlines() if l.startswith("stream done: ")]
    counters = {k: int(v) for k, v in (p.split("=") for p in line[-1].split()[2:])}
    assert counters["errors"] == 0 and counters["last_error_sample"] == -1
    assert counters["worker_alive"] == 1


def test_stream_mode_rejects_bad_header(workspace):
    from asrstream.cli import build_parser, _process_stream

    args = build_parser().parse_args(
        ["process", "--calibration", str(workspace / "calib.csv"), "--stream"]
    )
    with pytest.raises(asr.AsrError):
        _process_stream(args, io.StringIO("garbage\n"), io.StringIO())


def test_file_mode_requires_input_and_output(workspace, capsys):
    rc = main(["process", "--calibration", str(workspace / "calib.csv")])
    assert rc == 1


def _stream_args(calibration, chunk=32):
    from asrstream.cli import build_parser

    return build_parser().parse_args(
        ["process", "--calibration", str(calibration), "--stream", "--chunk", str(chunk)]
    )


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
    rec = load_signal_record(workspace / "rec.csv")
    rc = cli._process_stream(
        _stream_args(workspace / "calib.csv"),
        io.StringIO(_record_to_stream_text(rec)),
        io.StringIO(),
    )
    assert rc == 0
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
    result = {}

    def run():
        result["rc"] = cli._process_stream(_stream_args(workspace / "calib.csv"), stdin, io.StringIO())

    start = time.perf_counter()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=20.0)
    assert not runner.is_alive(), "stream mode kept waiting for a dead worker"
    assert time.perf_counter() - start < 10.0
    assert result["rc"] == 2
    assert thread_errors == [_WorkerKilled]
    assert "worker_alive=0" in capsys.readouterr().err


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
    assert main(["process", "--calibration", "s.json", "--stream", "--var-name", "x"]) == 1


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
            "--report",
        ]
    )
    assert rc == 0
    n = load_signal_record(workspace / "rec.csv").samples
    assert n // 32 > 4
    assert f"updates={n // 32}" in capsys.readouterr().out.splitlines()


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
