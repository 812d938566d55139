"""One fresh interpreter of an in-process workload.

``python3 perfbench/session.py SPEC.json`` sets the workload up, prints
``ready`` with a ``perf_counter`` stamp (the parent times set-up from spawn to
that stamp), then, unless the spec says ``setup_only``, measures one unit of
work and writes its results to the spec's ``result`` path. Measured intervals
are reported as ``(start, end)`` stamps, which the parent normalises by the
CPU's speed over the same interval (perfbench/speed.py). Inputs are read from ``.npy`` files that the
parent generated; every output is checked here, outside the timed region.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter


def peak_rss_mb(pid="self") -> float:
    """A process's own peak resident size (VmHWM). Unlike ru_maxrss it does
    not include the parent's resident size inherited across fork and exec."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _ready() -> None:
    print(f"ready {perf_counter()!r}", flush=True)


def setup_cli(spec) -> None:
    import asrstream.cli  # noqa: F401

    _ready()


def _clean_pass(rec, state, chunk):
    import numpy as np
    from asrstream import processing
    from asrstream.types import MultichannelChunk, ProcessorState

    proc = ProcessorState.initial(state)
    srate = state.srate
    n = rec.shape[1]
    out = np.empty_like(rec)
    start = perf_counter()
    for pos in range(0, n, chunk):
        end = min(n, pos + chunk)
        cleaned, proc = processing.asr_process_chunk(
            MultichannelChunk(rec[:, pos:end], srate, pos), state, proc
        )
        out[:, pos:end] = cleaned.data
    interval = (start, perf_counter())
    updates = len(proc.update_log)
    rejecting = sum(1 for _, r in proc.update_log if r)
    return out, interval, updates, rejecting


def run_clean(spec, tracer) -> dict:
    import hashlib

    import numpy as np
    from asrstream import calibration
    from asrstream.comparison import compare

    if tracer is not None:
        tracer.install()
    calib = np.load(spec["calibration"])
    start = perf_counter()
    state = calibration.asr_calibrate(calib, spec["srate"])
    calibrate_at = (start, perf_counter())
    _ready()
    if spec.get("setup_only"):
        return {}

    rec = np.load(spec["recording"])
    out_file, file_at, updates, rejecting = _clean_pass(rec, state, spec["chunk"])
    out_stream, stream_at, _, _ = _clean_pass(rec, state, spec["stream_chunk"])
    report = compare(out_file, out_stream, spec["tolerance"])
    return {
        "calibrate_s": calibrate_at,
        "process_file_s": file_at,
        "process_stream_s": stream_at,
        "chunks": math.ceil(rec.shape[1] / spec["chunk"])
        + math.ceil(rec.shape[1] / spec["stream_chunk"]),
        "updates": updates,
        "rejecting_updates": rejecting,
        "ok": bool(report.passed),
        "check": report.summary(),
        "digest": hashlib.sha256(out_file.tobytes()).hexdigest(),
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
    workload = spec["workload"]
    if workload == "cli_24ch":
        setup_cli(spec)
        return 0
    result = run_clean(spec, tracer)
    if result:
        if tracer is not None:
            result["trace"] = tracer.summary()
        result["peak_rss_mb"] = peak_rss_mb()
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
