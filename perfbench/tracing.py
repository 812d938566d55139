"""Per-layer tracing from outside the program.

The tracer replaces the names through which one layer calls another (for
example ``cli.load_signal_record`` or ``processing.pinv``) with wrappers that
record a span per call: name, calling site, start, end and the enclosing span
on the same thread. Nothing under ``src/`` changes; a name bound by
``from .x import f`` is wrapped where it was bound, because that is the name
the caller looks up at call time.

Run as a script, this file is the traced launcher for the CLI:
``python3 perfbench/tracing.py OUT.json -- calibrate --input ...`` installs the
wrappers, runs ``asrstream.cli.main`` with the remaining arguments and writes
the aggregated spans to OUT.json.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np

# (site module, attribute) pairs: every name one layer uses to call another
BINDINGS = {
    "cli": (
        "load_signal_record",
        "save_signal_record",
        "load_calibration_data",
        "load_calibration_state",
        "save_calibration_state",
        "asr_calibrate",
        "asr_process_chunk",
        "cmd_calibrate",
        "cmd_process",
    ),
    "runtime": (
        "load_calibration_data",
        "load_calibration_state",
        "asr_calibrate",
        "asr_process_chunk",
    ),
    "calibration": (
        "asr_calibrate",
        "iir_filter",
        "robust_covariance",
        "matrix_sqrt_psd",
        "symmetric_eig",
        "sliding_rms",
        "robust_stats",
    ),
    "stats": ("geometric_median",),
    "processing": (
        "iir_filter",
        "symmetric_eig",
        "pinv",
        "update_reconstruction",
        "asr_process_chunk",
    ),
}
METHODS = (
    ("runtime", "Pipeline", "prepare"),
    ("runtime", "Pipeline", "process"),
    ("runtime", "SideChannelRegistry", "publish"),
)
READS = {"load_signal_record", "load_calibration_data", "load_calibration_state"}
WRITES = {"save_signal_record", "save_calibration_state"}

P99_MIN_SAMPLES = 1000  # a p99 needs at least ten samples beyond it


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans in memory; ``install`` wraps every binding once."""

    def __init__(self):
        # one span list per thread, so that appends never race; a span is
        # (name, site, start, end, index of the enclosing span, note)
        self.threads: list[list] = []
        self.publishes: list = []  # (first sample index, time) per input chunk
        self.sinks: list = []  # (first sample index, time) per drained chunk
        self._local = threading.local()
        self._published = 0

    def _wrap(self, fn, name: str, site: str, note=None):
        local = self._local
        threads = self.threads

        def wrapper(*args, **kwargs):
            if not hasattr(local, "spans"):
                local.spans, local.stack = [], []
                threads.append(local.spans)
            spans, stack = local.spans, local.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (name, site, start, time.perf_counter(), parent, None)
                raise
            end = time.perf_counter()
            stack.pop()
            value = note(args, result) if note is not None else None
            spans[index] = (name, site, start, end, parent, value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import asrstream.cli  # noqa: F401  (binds every module below)
        from asrstream import runtime

        for site, attrs in BINDINGS.items():
            module = sys.modules[f"asrstream.{site}"]
            for attr in attrs:
                fn = getattr(module, attr)
                name = f"{_short(fn.__module__)}.{fn.__name__}"
                setattr(module, attr, self._wrap(fn, name, site, self._note_for(attr)))
        for site, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"asrstream.{site}"], cls_name)
            fn = getattr(cls, attr)
            note = self._note_publish if attr == "publish" else None
            setattr(cls, attr, self._wrap(fn, f"runtime.{fn.__qualname__}", site, note))

        original_init = runtime.Pipeline.__init__
        sinks = self.sinks

        def init(pipeline, config, registry, output_sink=None):
            if output_sink is not None:
                inner = output_sink

                def output_sink(view, n, seq):
                    sinks.append((seq, time.perf_counter()))
                    return inner(view, n, seq)

            original_init(pipeline, config, registry, output_sink)

        runtime.Pipeline.__init__ = init

    def _note_for(self, attr: str):
        if attr in READS or attr in WRITES:
            return lambda args, result: os.path.getsize(args[0])
        if attr == "update_reconstruction":
            return lambda args, result: None if result is None else result.n_rejected
        if attr == "asr_process_chunk":
            return lambda args, result: args[0].first_sample_index
        return None

    def _note_publish(self, args, result):
        n = int(np.shape(args[2])[1])
        self.publishes.append((self._published, time.perf_counter()))
        self._published += n
        return n

    def summary(self) -> dict:
        """Per-layer totals for this process plus the raw samples that
        percentiles are later pooled from."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        spans = []
        for thread_spans in self.threads:
            finished = list(thread_spans)
            child = [0.0] * len(finished)
            for span in finished:
                if span is not None and span[4] >= 0:
                    child[span[4]] += span[3] - span[2]
            for index, span in enumerate(finished):
                if span is None:
                    continue
                name, duration = span[0], span[3] - span[2]
                total[name] = total.get(name, 0.0) + duration
                calls[name] = calls.get(name, 0) + 1
                self_time[name] = self_time.get(name, 0.0) + duration - child[index]
                spans.append(span)
        reads = sum(s[5] or 0 for s in spans if s[0].split(".")[-1] in READS)
        writes = sum(s[5] or 0 for s in spans if s[0].split(".")[-1] in WRITES)
        rejects = [s[5] for s in spans if s[0] == "processing.update_reconstruction"]

        worker = {
            s[5]: (s[2], s[3])
            for s in spans
            if s[0] == "processing.asr_process_chunk" and s[1] == "runtime" and s[5] is not None
        }
        published = dict(self.publishes)
        queue_wait = [
            (worker[seq][0] - t) * 1e3 for seq, t in published.items() if seq in worker
        ]
        drain_wait = [
            (t - worker[seq][1]) * 1e3 for seq, t in self.sinks if seq in worker
        ]
        service = [(end - start) * 1e3 for start, end in worker.values()]
        process_calls = [
            (s[3] - s[2]) * 1e6 for s in spans if s[0] == "runtime.Pipeline.process"
        ]
        return {
            "total": total,
            "self": self_time,
            "calls": calls,
            "bytes_read": int(reads),
            "bytes_written": int(writes),
            "updates": len(rejects),
            "rejecting_updates": sum(1 for r in rejects if r),
            "samples": {
                "runtime.queue_wait_ms": queue_wait,
                "runtime.service_ms": service,
                "runtime.drain_wait_ms": drain_wait,
                "runtime.process_call_us": process_calls,
            },
        }


def percentile(values, q: float) -> float:
    """The q-th percentile, or 0.0 when the sample cannot support it."""
    if not values or (q > 50 and len(values) < P99_MIN_SAMPLES):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics for one workload from the traced units' summaries.

    Times and counts are per unit of work (median over the traced units);
    percentiles pool the samples of every traced unit.
    """

    def per_unit(fn):
        return float(np.median([fn(s) for s in summaries])) if summaries else 0.0

    def t(name):
        return per_unit(lambda s: s["total"].get(name, 0.0))

    def n(name):
        return per_unit(lambda s: s["calls"].get(name, 0))

    out = {
        "cli.self_s": per_unit(
            lambda s: sum(v for k, v in s["self"].items() if k.startswith("cli."))
        ),
        "io_formats.load_signal_record_s": t("io_formats.load_signal_record"),
        "io_formats.load_signal_record_calls": n("io_formats.load_signal_record"),
        "io_formats.save_signal_record_s": t("io_formats.save_signal_record"),
        "io_formats.load_calibration_data_s": t("io_formats.load_calibration_data"),
        "io_formats.load_calibration_state_s": t("io_formats.load_calibration_state"),
        "io_formats.bytes_read": per_unit(lambda s: s["bytes_read"]),
        "io_formats.bytes_written": per_unit(lambda s: s["bytes_written"]),
        "calibration.asr_calibrate_s": t("calibration.asr_calibrate"),
        "stats.robust_covariance_s": t("stats.robust_covariance"),
        "stats.sliding_rms_s": t("stats.sliding_rms"),
        "linalg.geometric_median_s": t("linalg.geometric_median"),
        "linalg.matrix_sqrt_psd_s": t("linalg.matrix_sqrt_psd"),
        "processing.asr_process_chunk_s": t("processing.asr_process_chunk"),
        "processing.asr_process_chunk_calls": n("processing.asr_process_chunk"),
        "processing.update_reconstruction_s": t("processing.update_reconstruction"),
        "processing.updates": per_unit(lambda s: s["updates"]),
        "processing.reject_share": per_unit(
            lambda s: s["rejecting_updates"] / s["updates"] if s["updates"] else 0.0
        ),
        "processing.blend_self_s": per_unit(
            lambda s: s["self"].get("processing.asr_process_chunk", 0.0)
        ),
        "linalg.symmetric_eig_s": t("linalg.symmetric_eig"),
        "linalg.pinv_s": t("linalg.pinv"),
        "linalg.pinv_calls": n("linalg.pinv"),
        "filters.iir_filter_s": t("filters.iir_filter"),
        "runtime.prepare_s": t("runtime.Pipeline.prepare"),
        "runtime.process_calls": n("runtime.Pipeline.process"),
    }
    for name in (
        "runtime.queue_wait_ms",
        "runtime.service_ms",
        "runtime.drain_wait_ms",
        "runtime.process_call_us",
    ):
        pooled = [v for s in summaries for v in s["samples"][name]]
        out[f"{name}.p50"] = percentile(pooled, 50)
        out[f"{name}.p99"] = percentile(pooled, 99)
    return out


def _launch_cli(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from asrstream import cli

    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracing.py OUT.json -- <asrstream cli arguments>")
    sys.exit(_launch_cli(sys.argv[1], sys.argv[3:]))
