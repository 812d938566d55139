#!/usr/bin/env python3
"""The asrstream benchmark: one command, two workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli_24ch --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

- ``cli_24ch``: ``asrstream calibrate``, ``process`` (file mode) and
  ``process --stream --chunk 32`` run one after another as subprocesses on a
  24 ch / 500 Hz recording (closed loop, one command at a time).
- ``clean_64ch``: in-process ``asr_calibrate`` and ``asr_process_chunk``
  passes over a 64 ch / 1 kHz recording; no I/O and no threads.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
measured by wrapping the program's layer functions (perfbench/tracing.py).
Inputs come from ``--seed``; generation, reference computation and output
checks all run outside the timed regions. Without ``src/asrstream`` in the
working directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, for this process and every one it
# starts: at these matrix sizes a second thread only spins on the other core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from session import peak_rss_mb  # noqa: E402
from speed import SpeedSampler, measuring_cpu  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 165.0  # every wait below ends by then, so the run exits within 180 s
SETUPS = 3  # fresh set-ups per run; setup_s is their median
MIN_UNITS = 3
BURSTS = ((15.0, 1.0, 10.0), (40.0, 2.0, 8.0))  # onset s, duration s, amplitude
RECORDING_S = 60.0
CALIBRATION_S = 30.0

GRIDS = {"cli_24ch": (24, 500.0), "clean_64ch": (64, 1000.0)}
METRIC_OF = {"calibrate": "calibrate_s", "file": "process_file_s", "stream": "process_stream_s"}
FILE_CHUNK = 256
STREAM_CHUNK = 32  # cli_24ch stream mode and the clean_64ch second pass

END_TO_END = {
    "setup_s": "s",
    "calibrate_s": "s",
    "process_file_s": "s",
    "process_stream_s": "s",
    "clean_rtf": "x",
    "peak_rss_mb": "MB",
}


class Run:
    """State of one benchmark run: its deadline, work directory, counts and
    the CPU speed sampler that normalises its timings (perfbench/speed.py)."""

    def __init__(self, root: Path, args):
        self.args = args
        self.started = time.perf_counter()
        self.cpu_ticks = cpu_ticks()
        self.work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.nproc = len(os.sched_getaffinity(0))
        self.cpu, self.helper_cpus = measuring_cpu()
        self.speed = SpeedSampler(self.cpu)
        self.raw: dict[str, list[float]] = {}  # wall seconds before normalising
        self.factors: list[float] = []

    def seconds(self, key: str, start: float, end: float) -> float:
        """Normalised seconds of one measured interval; keeps its wall time
        and speed factor for the run's metadata."""
        self.raw.setdefault(key, []).append(end - start)
        self.factors.append(self.speed.factor(start, end))
        return (end - start) * self.factors[-1]

    def helper(self, fn) -> threading.Thread:
        """A thread of the benchmark's own (pipes, memory watch), kept off the
        measuring CPU."""

        def target():
            os.sched_setaffinity(0, self.helper_cpus)
            fn()

        return threading.Thread(target=target)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def path(self, name: str) -> str:
        return str(self.work / name)


def cpu_ticks() -> list[int]:
    """Machine-wide CPU tick counters (user ... steal) from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_fraction(start: list[int]) -> float:
    """Share of CPU time the hypervisor took from this machine since start:
    how noisy the host was during the run."""
    delta = [b - a for a, b in zip(start, cpu_ticks())]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def median(values) -> float:
    return float(statistics.median(values))


def keep_going(run: Run, unit_seconds: list[float]) -> bool:
    """Start another unit while that ends nearer the measuring budget than
    stopping would. A run measures at least MIN_UNITS units, so that each
    median has three values and a traced run has traced and plain units."""
    if len(unit_seconds) < MIN_UNITS:
        return True
    done = sum(unit_seconds)
    return done + statistics.mean(unit_seconds) / 2 < run.args.seconds


def generate(workload: str, seed: int):
    from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic

    channels, srate = GRIDS[workload]
    spec = SyntheticSpec(
        channels=channels,
        srate=srate,
        duration=RECORDING_S,
        calibration_duration=CALIBRATION_S,
        mixing_seed=seed,
        noise_seed=seed + 1,
        events=tuple(ArtifactEvent(*b) for b in BURSTS),
    )
    calibration, recording, _ = generate_synthetic(spec)
    return calibration, recording, srate


def import_times(stderr: str) -> tuple[float, float]:
    """(asrstream, scipy.signal) cumulative import seconds from -X importtime."""
    asr = scipy_signal = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        top_level = len(name) - len(name.lstrip()) == 1
        name = name.strip()
        if top_level and re.match(r"asrstream(\.|$)", name):
            asr += int(parts[1]) / 1e6
        if name == "scipy.signal" and not scipy_signal:
            scipy_signal = int(parts[1]) / 1e6
    return asr, scipy_signal


def session(run: Run, spec: dict, name: str, importtime: bool = False):
    """Spawn perfbench/session.py; returns (normalised set-up seconds, result
    or None, stderr). A session that misses its deadline is killed."""
    spec = dict(spec, result=run.path(f"{name}.result.json"))
    spec_path = run.path(f"{name}.spec.json")
    Path(spec_path).write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "session.py"), spec_path]
    errors: list[str] = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=run.env
    )
    reader = run.helper(lambda: errors.append(proc.stderr.read()))
    reader.start()
    setup_s = None
    timer = threading.Timer(max(0.0, run.remaining()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline().split()
        if len(line) == 2 and line[0] == "ready":
            # the session stamps its own ready time, so the parent's wake-up
            # on the shared CPU does not count
            setup_s = run.seconds("setup_s", start, float(line[1]))
        proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        reader.join()
    stderr = "".join(errors)
    result = None
    if proc.returncode == 0 and setup_s is not None and not spec.get("setup_only"):
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    elif proc.returncode != 0:
        run.problems.append(f"{name} exited {proc.returncode}: {stderr[-500:]}")
    return setup_s, result, stderr


def fill_setups(run: Run, spec: dict, setups: list[float], imports: list) -> None:
    """Top the run up to SETUPS fresh set-ups with set-up-only sessions."""
    while len(setups) < SETUPS and run.remaining() > 20:
        setup_s, _, stderr = session(
            run, dict(spec, setup_only=True, trace=False), f"setup{len(setups)}",
            importtime=bool(run.args.trace),
        )
        if setup_s is None:
            run.fail(1, "set-up failed")
            return
        setups.append(setup_s)
        imports.append(import_times(stderr))


# --- cli_24ch --------------------------------------------------------------


def cli_command(run: Run, argv: list[str], traced: bool, name: str, stdin_chunks=None):
    """Run one asrstream command; returns (exit code, (start, end) stamps,
    stdout lines, stderr, peak RSS MB, trace summary)."""
    if traced:
        trace_path = run.path(f"{name}.trace.json")
        cmd = [sys.executable, str(HERE / "tracing.py"), trace_path, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "asrstream.cli", *argv]
    timeout = max(0.0, run.remaining())
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE if stdin_chunks is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=run.env,
    )
    errors: list[bytes] = []
    lines: list[bytes] = []
    rss = [0.0]
    exited = threading.Event()

    def watch_rss():
        # VmHWM only grows, and an exited process no longer reports it
        while not exited.wait(0.02):
            try:
                rss[0] = max(rss[0], peak_rss_mb(proc.pid))
            except OSError:
                return

    def feed():
        try:
            for block in stdin_chunks:
                proc.stdin.write(block)
                proc.stdin.flush()
            proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass

    threads = [
        run.helper(lambda: lines.extend(proc.stdout)),
        run.helper(lambda: errors.append(proc.stderr.read())),
        run.helper(watch_rss),
    ]
    if stdin_chunks is not None:
        threads.append(run.helper(feed))
    for t in threads:
        t.start()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    interval = (start, time.perf_counter())
    exited.set()
    for t in threads:
        t.join()
    summary = None
    if traced and proc.returncode == 0:
        summary = json.loads(Path(trace_path).read_text(encoding="utf-8"))
    stderr = b"".join(errors).decode()
    return proc.returncode, interval, lines, stderr, rss[0], summary


def parse_rows(lines: list[bytes]):
    import numpy as np

    body = b"".join(line for line in lines if not line.startswith(b"#"))
    return np.array(
        [row.split(b",") for row in body.split()], dtype=float
    )


def stream_counters(stderr: str) -> dict[str, int]:
    match = re.search(r"stream done: (.*)", stderr)
    if not match:
        return {}
    return {k: int(v) for k, v in (p.split("=") for p in match.group(1).split())}


def run_cli(run: Run):
    import numpy as np
    from asrstream import processing
    from asrstream.comparison import compare
    from asrstream.io_formats import (
        SignalRecord,
        load_calibration_state,
        save_calibration_csv,
        save_signal_record,
    )
    from asrstream.types import MultichannelChunk, ProcessorState

    calibration, recording, srate = generate(run.args.workload, run.args.seed)
    calib_csv, rec_csv = run.path("calibration.csv"), run.path("recording.csv")
    state_json, out_csv = run.path("state.json"), run.path("cleaned.csv")
    save_calibration_csv(calib_csv, calibration)
    save_signal_record(rec_csv, SignalRecord(recording, srate))
    channels, samples = recording.shape
    header = f"# channels={channels} srate={srate!r}\n".encode()
    rows = [",".join(repr(float(v)) for v in col) + "\n" for col in recording.T]
    stream_in = [header] + [
        "".join(rows[i : i + STREAM_CHUNK]).encode()
        for i in range(0, samples, STREAM_CHUNK)
    ]
    stream_chunks = len(stream_in) - 1
    commands = {
        "calibrate": ["calibrate", "--input", calib_csv, "--srate", repr(srate),
                      "--output", state_json],
        "file": ["process", "--calibration", state_json, "--input", rec_csv,
                 "--output", out_csv, "--chunk", str(FILE_CHUNK)],
        "stream": ["process", "--calibration", state_json, "--stream",
                   "--chunk", str(STREAM_CHUNK)],
    }

    setups: list[float] = []
    imports: list = []
    fill_setups(run, {"workload": run.args.workload}, setups, imports)

    expected = None
    state_bytes = None
    walls = {key: [] for key in commands}
    unit_seconds: list[float] = []
    units = []  # (traced, unit wall, trace summaries)
    counters: dict[str, int] = {}
    stream_lost: dict[str, list[int]] = {"dropped_in": [], "dropped_out": [], "errors": []}
    peaks: list[float] = []
    while keep_going(run, unit_seconds) and run.remaining() > 60:
        traced = bool(run.args.trace) and len(units) % 2 == 0
        index = len(units)
        summaries = []
        unit = {}
        ok = True
        for key, argv in commands.items():
            run.attempted += 1
            code, interval, lines, stderr, rss, summary = cli_command(
                run, argv, traced, f"{key}{index}",
                stdin_chunks=stream_in if key == "stream" else None,
            )
            if code != 0:
                run.fail(1, f"{key} exited {code}: {stderr[-500:]}")
                ok = False
                break
            if summary is not None:
                summaries.append(summary)
            unit[key] = (interval, lines, stderr)
            peaks.append(rss)
        unit_seconds.append(sum(end - start for (start, end), _, _ in unit.values()))
        if not ok:
            continue

        # checks, outside the timed commands
        this_state = Path(state_json).read_bytes()
        if expected is None:
            state = load_calibration_state(state_json)
            proc = ProcessorState.initial(state)
            expected = np.empty_like(recording)
            for pos in range(0, samples, FILE_CHUNK):
                end = min(samples, pos + FILE_CHUNK)
                cleaned, proc = processing.asr_process_chunk(
                    MultichannelChunk(recording[:, pos:end], srate, pos), state, proc
                )
                expected[:, pos:end] = cleaned.data
            state_bytes = this_state
            counters["updates"] = len(proc.update_log)
            counters["rejecting_updates"] = sum(1 for _, r in proc.update_log if r)
        file_out = np.loadtxt(out_csv, delimiter=",", comments="#", ndmin=2)
        stream_out = parse_rows(unit["stream"][1]).T
        stream_stats = stream_counters(unit["stream"][2])
        for key, counts in stream_lost.items():
            counts.append(stream_stats.get(key, 0))
        lost = sum(stream_stats.get(key, 0) for key in stream_lost)
        checks = {
            "state file repeats": this_state == state_bytes,
            "file output bit-identical to in-process": np.array_equal(file_out, expected),
            "stream output within 1e-10 of file output": stream_out.shape == file_out.shape
            and compare(stream_out, file_out, 1e-10).passed,
            "stream lost no chunk": bool(stream_stats) and lost == 0
            and stream_stats.get("drained") == stream_chunks,
        }
        bad = [name for name, passed in checks.items() if not passed]
        if bad:
            run.fail(len(commands), "check failed: " + ", ".join(bad))
            continue
        units.append((traced, unit_seconds[-1], summaries))
        if traced:
            continue
        for key in commands:
            walls[key].append(run.seconds(METRIC_OF[key], *unit[key][0]))

    e2e = {}
    if walls["file"]:
        e2e = {
            "setup_s": median(setups),
            "calibrate_s": median(walls["calibrate"]),
            "process_file_s": median(walls["file"]),
            "process_stream_s": median(walls["stream"]),
            "clean_rtf": RECORDING_S / median(walls["file"]),
            "peak_rss_mb": max(peaks),
        }
    traced_summaries = [merge_summaries(s) for t, _, s in units if t]
    overhead = ratio_minus_one(
        [w for t, w, _ in units if t], [w for t, w, _ in units if not t]
    )
    meta = {
        "units": len(units),
        "chunks_per_unit": {"file": -(-samples // FILE_CHUNK), "stream": stream_chunks},
        "updates_per_pass": counters.get("updates"),
        "rejecting_updates_per_pass": counters.get("rejecting_updates"),
    }
    layers = {"trace.overhead_frac": overhead, "fail_frac": fail_fraction(run)}
    for key in ("dropped_in", "dropped_out", "errors"):
        layers[f"runtime.{key}"] = float(sum(stream_lost[key]))
    return e2e, traced_summaries, imports, layers, meta


def merge_summaries(summaries: list[dict]) -> dict:
    """Add up the trace summaries of one unit's processes."""
    merged = {"total": {}, "self": {}, "calls": {}, "bytes_read": 0, "bytes_written": 0,
              "updates": 0, "rejecting_updates": 0, "samples": {}}
    for s in summaries:
        for key in ("total", "self", "calls"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for key in ("bytes_read", "bytes_written", "updates", "rejecting_updates"):
            merged[key] += s[key]
        for name, values in s["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def ratio_minus_one(traced: list[float], plain: list[float]) -> float:
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


def fail_fraction(run: Run) -> float:
    return run.failed / run.attempted if run.attempted else 0.0


# --- clean_64ch ----------------------------------------------------------------


def run_clean(run: Run):
    import numpy as np

    calibration, recording, srate = generate(run.args.workload, run.args.seed)
    np.save(run.path("calibration.npy"), calibration)
    np.save(run.path("recording.npy"), recording)
    spec = {
        "workload": run.args.workload,
        "calibration": run.path("calibration.npy"),
        "recording": run.path("recording.npy"),
        "srate": srate,
        "chunk": FILE_CHUNK,
        "stream_chunk": STREAM_CHUNK,
        "tolerance": 1e-10,
    }
    results, setups, imports = run_sessions(run, spec)
    digests = {r["digest"] for _, r in results}
    if len(digests) > 1:
        run.fail(sum(r["chunks"] for _, r in results), "repeat passes differ")
    plain = [
        {key: run.seconds(key, *r[key]) for key in TIMED} | {"peak_rss_mb": r["peak_rss_mb"]}
        for traced, r in results
        if not traced
    ]
    e2e = session_metrics(plain, setups)
    overhead = ratio_minus_one(
        [wall(r["process_file_s"]) for t, r in results if t],
        [wall(r["process_file_s"]) for t, r in results if not t],
    )
    meta = {
        "units": len(results),
        "chunks_per_unit": {"file": -(-recording.shape[1] // FILE_CHUNK),
                            "stream": -(-recording.shape[1] // STREAM_CHUNK)},
        "updates_per_pass": results[0][1]["updates"] if results else None,
        "rejecting_updates_per_pass": results[0][1]["rejecting_updates"] if results else None,
    }
    layers = {"trace.overhead_frac": overhead, "fail_frac": fail_fraction(run)}
    return e2e, [r["trace"] for t, r in results if t], imports, layers, meta


TIMED = ("calibrate_s", "process_file_s", "process_stream_s")


def wall(interval) -> float:
    start, end = interval
    return end - start


def session_metrics(plain: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics from the plain (untraced) session results."""
    if not plain:
        return {}
    file_s = median(r["process_file_s"] for r in plain)
    return {
        "setup_s": median(setups),
        "calibrate_s": median(r["calibrate_s"] for r in plain),
        "process_file_s": file_s,
        "process_stream_s": median(r["process_stream_s"] for r in plain),
        "clean_rtf": RECORDING_S / file_s,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }


def run_sessions(run: Run, spec: dict):
    """Measuring sessions until the budget is spent, then set-up-only
    sessions up to SETUPS; returns ([(traced, result)], setups, imports)."""
    results = []
    setups: list[float] = []
    imports: list = []
    unit_seconds: list[float] = []
    while keep_going(run, unit_seconds) and run.remaining() > 40:
        traced = bool(run.args.trace) and len(unit_seconds) % 2 == 0
        start = time.perf_counter()
        setup_s, result, _ = session(run, dict(spec, trace=traced), f"unit{len(unit_seconds)}")
        unit_seconds.append(time.perf_counter() - start)
        chunks = 1
        if result is not None:
            chunks = result["chunks"]
        run.attempted += chunks
        if result is None:
            run.fail(chunks, "session failed")
            continue
        if not result["ok"]:
            run.fail(chunks, "check failed: " + result["check"])
            continue
        setups.append(setup_s)
        results.append((traced, result))
    setups = setups if not run.args.trace else []
    fill_setups(run, spec, setups, imports)
    return results, setups, imports


# --- driver ------------------------------------------------------------------


def metadata(run: Run) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": run.args.workload,
        "seed": run.args.seed,
        "seconds": run.args.seconds,
        "trace": run.args.trace,
        "nproc": run.nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "channels_srate": GRIDS[run.args.workload],
        "recording_s": RECORDING_S,
        "calibration_s": CALIBRATION_S,
        "host_steal_frac": round(steal_fraction(run.cpu_ticks), 4),
        "measuring_cpu": run.cpu,
        "speed_samples": len(run.speed.samples),
        # normalised over wall time: below 1 while the host slows the CPU
        "speed_factor_median": round(median(run.factors), 4) if run.factors else None,
        "wall_s_median": {key: round(median(v), 4) for key, v in sorted(run.raw.items())},
    }


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


WORKLOADS = {"cli_24ch": run_cli, "clean_64ch": run_clean}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "asrstream" / "__init__.py").is_file():
        print("error: run from the root of an asrstream checkout (no src/asrstream)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import asrstream.cli  # noqa: F401  (writes every module's bytecode before timing)

    run = Run(root, args)
    run.work.mkdir(parents=True, exist_ok=True)
    # every process started from here on inherits the measuring CPU
    os.sched_setaffinity(0, {run.cpu})
    run.speed.start()
    try:
        e2e, summaries, imports, layers, meta = WORKLOADS[args.workload](run)
    finally:
        run.speed.stop()
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    from tracing import layer_metrics

    for why in run.problems:
        print(f"problem: {why}", file=sys.stderr)
    if args.trace:
        metrics = {**layer_metrics(summaries), **layers}
        metrics["import.asrstream_s"] = median(a for a, _ in imports) if imports else 0.0
        metrics["import.scipy_signal_s"] = median(s for _, s in imports) if imports else 0.0
        for key in ("dropped_in", "dropped_out", "errors"):
            metrics.setdefault(f"runtime.{key}", 0.0)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(metrics.items())}
    else:
        if not e2e:
            print("error: no unit of work completed", file=sys.stderr)
            return 1
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print("meta " + json.dumps({**metadata(run), **meta}))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms." in name or name.endswith("_ms"):
        return "ms"
    if "_us." in name:
        return "us"
    if name.endswith(("_frac", "_share")):
        return "fraction"
    if name.startswith("io_formats.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
