"""Command-line front end: calibrate, process (file/stream), simulate,
compare, bench. Each prints its result on stdout as ``key=value`` lines,
except ``process --stream``, whose stdout is the cleaned stream.

Exit codes: 0 success, 1 validation error (bad flags, bad inputs, failed
comparison, an array too large to allocate), 2 runtime error mid-stream (I/O
failures after processing started, chunks the worker never gave back within
``runtime.DRAIN_TIMEOUT_S`` of the last one, or a worker that cannot be
joined).
``ASR_LOG`` in {error, warn, info, debug} controls log verbosity. ``main``
runs numpy's BLAS on one thread, so output bytes do not depend on the
machine's core count.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .calibration import asr_calibrate
from .comparison import compare
from .errors import AsrError, InvalidValue, ParseError, WorkerDied
from .io_formats import (
    SignalRecord,
    atomic_write_text,
    format_rows,
    load_calibration_data,
    load_calibration_state,
    load_signal_record,
    parse_cell,
    parse_rows,
    read_preamble,
    save_calibration_csv,
    save_calibration_state,
    save_signal_record,
)
# asr_process_chunk stays bound though unused: perfbench/tracing.py wraps it
from .processing import asr_process_chunk, clean_recording  # noqa: F401
from .runtime import Pipeline, SideChannelRegistry, _is_state_file, load_calibration
from .stats import median
from .synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic
from .types import DEFAULT_STEPSIZE, CalibrationParams, CalibrationState, PipelineConfig

logger = logging.getLogger(__name__)

STREAM_VAR = "eeg"  # the side-channel variable stream mode publishes into

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, per the exit-code contract
        raise _UsageError(message)


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("ASR_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _pin_blas_to_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, so that output bytes do
    not depend on the machine's core count (the blocked kernels sum in a
    thread-dependent order). At the sizes cleaning uses, one thread is no
    slower. A numpy without that library is left as it is."""
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)


def _print_report(lines: list[str]) -> None:
    for line in lines:
        print(line)


def cmd_calibrate(args) -> int:
    matrix, file_b, file_a = load_calibration_data(args.input)
    params = CalibrationParams(
        cutoff=args.cutoff,
        blocksize=args.blocksize,
        window_len=args.window_length,
        window_overlap=args.window_overlap,
        max_dims_fraction=args.max_dims_fraction,
    )
    state = asr_calibrate(matrix, args.srate, params, filter_b=file_b, filter_a=file_a)
    save_calibration_state(args.output, state)
    amplitudes = np.linalg.norm(state.threshold, axis=1)
    _print_report(
        [
            f"channels={state.channels}",
            f"window_samples={state.window_samples()}",
            f"threshold_min={float(amplitudes.min())!r}",
            f"threshold_max={float(amplitudes.max())!r}",
            f"output={args.output}",
            f"gain={state.gain!r}",
            f"n_eff={state.n_eff!r}",
            f"threshold_median={float(median(amplitudes))!r}",
        ]
    )
    return 0


def _process_file(args, record: SignalRecord, state: CalibrationState) -> int:
    if record.srate != state.srate:
        raise InvalidValue(
            "srate", f"record is {record.srate} Hz, calibration is {state.srate} Hz"
        )
    _, proc = clean_recording(
        record.data,
        state,
        args.chunk,
        stepsize=args.stepsize,
        lookahead=args.lookahead,
        out=record.data,
    )
    save_signal_record(args.output, record)  # cleaned in place
    _print_report(
        [
            f"channels={record.channels}",
            f"samples={record.samples}",
            f"lookahead={proc.lookahead}",
            f"updates={proc.total_samples_seen // proc.stepsize}",
            f"rejecting_updates={proc.rejecting_updates}",
            f"output={args.output}",
            f"screened_updates={proc.screened_updates}",
        ]
    )
    return 0


def _parse_stream_header(line: str) -> tuple[int, float]:
    body = line.lstrip("#").strip()
    fields = dict(
        part.split("=", 1) for part in body.split() if "=" in part
    )
    try:
        channels, srate = int(fields["channels"]), fields["srate"]
    except (KeyError, ValueError):
        raise ParseError(
            "stream header must look like '# channels=8 srate=250.0'"
        ) from None
    if (rate := parse_cell(srate, row=1)) <= 0:
        raise ParseError("srate must be > 0", row=1)
    return channels, rate


def _process_stream(args, stdin, stdout) -> int:
    header = stdin.readline()
    if not header:
        raise ParseError("empty stream: expected a header line")
    channels, srate = _parse_stream_header(header)
    config = PipelineConfig(
        sampling_rate=srate,
        params=CalibrationParams(),  # calibrates a clean-data CSV as file mode does
        var_name=STREAM_VAR,
        calibration_file_name=args.calibration,
        stepsize=args.stepsize,
        lookahead=args.lookahead,
    )
    # the header's channel count is checked before the input variable is sized from it
    calibration = load_calibration(args.calibration, srate, config.params)
    if channels != (c := calibration.channels):
        raise InvalidValue("channels", f"stream header says {channels} channels, calibration has {c}")
    registry = SideChannelRegistry()
    registry.register(STREAM_VAR, channels, args.chunk)

    def write_rows(view, n, seq):  # each chunk as it drains, on this thread, inside process()
        stdout.write(format_rows(view.T))

    pipeline = Pipeline(config, registry, output_sink=write_rows)
    pipeline.prepare(calibration)
    exit_code = 0
    try:
        stdout.write(f"# channels={channels} srate={srate!r}\n")
        _, lines = read_preamble(stdin, {}, start=2)
        block = np.empty((args.chunk, channels))  # publish copies each chunk out of it
        try:
            while n := parse_rows(lines, block):
                pipeline.feed(block[:n].T)
        except WorkerDied:
            raise
        except AsrError:  # a bad line: write every chunk before it, then exit 1
            pipeline.flush()
            stdout.flush()
            raise
        pipeline.flush()
        stdout.flush()
    except (OSError, WorkerDied) as exc:
        logger.error("stream aborted: %s", exc)
        exit_code = 2
    finally:
        stats = " ".join(f"{k}={v}" for k, v in sorted(pipeline.stats().items()))
        print(f"stream done: {stats}", file=sys.stderr)
        try:
            pipeline.release()
        except AsrError as exc:  # a worker that cannot be joined
            logger.error("stream aborted: %s", exc)
            exit_code = 2
    return exit_code


def cmd_process(args) -> int:
    if args.stream:
        return _process_stream(args, sys.stdin, sys.stdout)
    # a saved state is checked before the record is parsed; a clean-data CSV
    # is calibrated at the record's srate, so after it
    is_state = _is_state_file(args.calibration)
    state = load_calibration_state(args.calibration) if is_state else None
    record = load_signal_record(args.input)
    if state is None:
        state = load_calibration(args.calibration, record.srate)
    if record.channels != state.channels:
        raise InvalidValue(
            "channels",
            f"record has {record.channels} channels, calibration has {state.channels}",
        )
    return _process_file(args, record, state)


def _parse_burst(text: str) -> ArtifactEvent:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--burst must be onset:duration:amplitude, got {text!r}")
    try:
        onset, duration, amplitude = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--burst values must be numbers, got {text!r}") from None
    return ArtifactEvent(onset=onset, duration=duration, amplitude=amplitude)


def cmd_simulate(args) -> int:
    spec = SyntheticSpec(
        channels=args.channels,
        srate=args.srate,
        duration=args.duration,
        calibration_duration=args.calibration_duration,
        mixing_seed=args.seed,
        noise_seed=args.seed,
        events=tuple(_parse_burst(b) for b in args.burst),
    )
    calibration, recording, mask = generate_synthetic(spec)
    save_signal_record(args.output_record, SignalRecord(recording, spec.srate))
    lines = [
        f"channels={spec.channels}",
        f"samples={recording.shape[1]}",
        f"artifact_samples={int(mask.sum())}",
        f"output_record={args.output_record}",
    ]
    if args.output_calibration:
        save_calibration_csv(args.output_calibration, calibration)
        lines.append(f"output_calibration={args.output_calibration}")
    if args.output_mask:
        atomic_write_text(args.output_mask, [",".join(str(int(v)) for v in mask), "\n"])
        lines.append(f"output_mask={args.output_mask}")
    _print_report(lines)
    return 0


def cmd_compare(args) -> int:
    rec_a = load_signal_record(args.a)
    rec_b = load_signal_record(args.b)
    report = compare(rec_a.data, rec_b.data, args.tolerance)
    _print_report(report.machine_lines())
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    spec = SyntheticSpec(
        channels=args.channels,
        srate=args.srate,
        duration=args.duration,
        calibration_duration=20.0,
        mixing_seed=7,
        noise_seed=13,
    )
    calibration, recording, _ = generate_synthetic(spec)
    state = asr_calibrate(calibration, spec.srate)
    n = recording.shape[1]
    start = time.perf_counter()
    clean_recording(recording, state, args.chunk, stepsize=args.stepsize)
    elapsed = time.perf_counter() - start
    samples_per_second = n / elapsed
    real_time_factor = samples_per_second / spec.srate
    _print_report(
        [
            f"channels={args.channels}",
            f"srate={args.srate!r}",
            f"samples={n}",
            f"elapsed_seconds={elapsed!r}",
            f"samples_per_second={samples_per_second!r}",
            f"real_time_factor={real_time_factor!r}",
        ]
    )
    return 0


def _int_at_least(low: int):
    """An argparse ``type`` for an integer flag of at least ``low``, so that a
    bad value exits 1, naming the flag, before any input is read."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="asrstream", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="learn a calibration state from clean data")
    cal.add_argument("--input", required=True, help="calibration CSV (rows are channels)")
    cal.add_argument("--srate", "--sampling-rate", dest="srate", type=float, required=True)
    defaults = CalibrationParams()
    cal.add_argument("--window-length", type=float, default=defaults.window_len, help="seconds")
    cal.add_argument("--cutoff", type=float, default=defaults.cutoff)
    cal.add_argument("--blocksize", type=int, default=defaults.blocksize)
    cal.add_argument("--window-overlap", type=float, default=defaults.window_overlap)
    cal.add_argument("--max-dims-fraction", type=float, default=defaults.max_dims_fraction)
    cal.add_argument("--output", required=True, help="calibration state file to write")
    cal.set_defaults(func=cmd_calibrate)

    proc = sub.add_parser("process", help="clean a recording or a stream")
    proc.add_argument(
        "--calibration", "--calibration-file", dest="calibration", required=True,
        help="calibration state file or clean-data CSV",
    )
    proc.add_argument("--input", help="signal record to clean (file mode)")
    proc.add_argument("--output", help="cleaned signal record (file mode)")
    proc.add_argument("--chunk", type=_int_at_least(1), default=256, help="samples per chunk")
    proc.add_argument("--stream", action="store_true", help="stdin -> stdout streaming")
    proc.add_argument("--stepsize", type=_int_at_least(1), default=DEFAULT_STEPSIZE)
    proc.add_argument("--lookahead", type=_int_at_least(0), default=None)
    proc.set_defaults(func=cmd_process)

    sim = sub.add_parser("simulate", help="synthesize calibration/recording/mask files")
    sim.add_argument("--channels", type=int, default=8)
    sim.add_argument("--srate", "--sampling-rate", dest="srate", type=float, default=250.0)
    sim.add_argument("--duration", type=float, default=60.0)
    sim.add_argument("--calibration-duration", type=float, default=30.0)
    sim.add_argument("--seed", type=_int_at_least(0), default=1)
    sim.add_argument(
        "--burst", action="append", default=[], metavar="ONSET:DUR:AMP",
        help="artifact burst (repeatable)",
    )
    sim.add_argument("--output-record", required=True)
    sim.add_argument("--output-calibration")
    sim.add_argument("--output-mask")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="compare two signal records")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--tolerance", type=float, default=1e-5)
    cmp_.set_defaults(func=cmd_compare)

    bench = sub.add_parser("bench", help="measure sustained throughput")
    bench.add_argument("--channels", type=int, default=24)
    bench.add_argument("--srate", "--sampling-rate", dest="srate", type=float, default=500.0)
    bench.add_argument("--duration", type=float, default=10.0)
    bench.add_argument("--chunk", type=_int_at_least(1), default=256)
    bench.add_argument("--stepsize", type=_int_at_least(1), default=DEFAULT_STEPSIZE)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    _pin_blas_to_one_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "process" and not args.stream:
            if not args.input or not args.output:
                print("error: file mode needs --input and --output", file=sys.stderr)
                return 1
        return args.func(args)
    except (_UsageError, AsrError, OSError) as exc:  # stream mode exits 2 on I/O mid-stream itself
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
