"""Real-time pipeline: prepare/process/release lifecycle, a wait-free chunk
FIFO pair, a worker cleaning thread, and a named side-channel registry.

Concurrency model: exactly two roles per pipeline. The caller thread runs
``process()`` (real-time side: no locks, no blocking, no buffer allocation
after prepare); one worker thread runs the cleaning loop. All shared state
flows through the two single-producer/single-consumer rings plus plain
attribute flags and counters, which CPython's GIL makes atomic to read and
write; each counter has a single writer.
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np

from .calibration import asr_calibrate
from .errors import (
    AsrError,
    InvalidLifecycle,
    InvalidValue,
    PrepareFailed,
    WindowTooShort,
)
from .io_formats import load_calibration_data, load_calibration_state
from .processing import asr_process_chunk, load_kernels, pass_chunk_through
from .types import CalibrationState, MultichannelChunk, PipelineConfig, ProcessorState

logger = logging.getLogger(__name__)

WORKER_IDLE_PARK_S = 0.0002  # bounded park between polls when the inbound ring is empty
WORKER_JOIN_TIMEOUT_S = 2.0
FAIL_OPEN_LOG_INTERVAL_S = 1.0  # at most one fail-open summary line per interval


class ChunkFifo:
    """Bounded wait-free SPSC ring of fixed-size chunk slots.

    All slots are allocated at construction; push and pop copy payloads into
    and out of them. When the ring is full, a push overwrites the oldest
    unconsumed slot (drop-oldest) and bumps ``dropped``. Per-slot ticket
    markers written around each payload (seqlock style) let the consumer
    detect and discard a slot that was overwritten mid-read, so a torn copy
    never escapes. The producer counts the drop at overwrite time using its
    snapshot of the consumer index; if the consumer empties that very slot
    within the same push, the count can transiently exceed the true losses by
    one, which quiesced accounting never observes.
    """

    def __init__(self, capacity: int, channels: int, chunk_capacity: int):
        if capacity < 2:
            raise InvalidValue("fifo_capacity", "must be >= 2")
        self._capacity = capacity
        self._slots = [np.zeros((channels, chunk_capacity)) for _ in range(capacity)]
        self._sizes = [0] * capacity
        self._seqs = [0] * capacity
        self._begin = [-1] * capacity  # ticket whose write into slot i started last
        self._done = [-1] * capacity  # ticket whose write into slot i completed last
        self._head = 0  # next ticket to pop; written only by the consumer
        self._tail = 0  # next ticket to push; written only by the producer
        self.dropped = 0  # written only by the producer

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def pushed(self) -> int:
        return self._tail

    def push(self, data: np.ndarray, n: int, seq: int) -> None:
        """Copy ``data[:, :n]`` into the ring, dropping the oldest unconsumed
        chunk when it is full."""
        ticket = self._tail
        if ticket - self._head >= self._capacity:
            self.dropped += 1
        i = ticket % self._capacity
        self._begin[i] = ticket
        slot = self._slots[i]
        np.copyto(slot[:, :n], data[:, :n])
        self._sizes[i] = n
        self._seqs[i] = seq
        self._done[i] = ticket
        self._tail = ticket + 1

    def pop_into(self, dst: np.ndarray):
        """Copy the oldest valid chunk into ``dst``; returns (n, seq) or None.

        Slots invalidated by an overwrite are skipped (the producer already
        counted them as dropped)."""
        while True:
            ticket = self._head
            if ticket >= self._tail:
                return None
            i = ticket % self._capacity
            if self._done[i] != ticket:
                self._head = ticket + 1  # overwritten before we got to it
                continue
            n = self._sizes[i]
            seq = self._seqs[i]
            np.copyto(dst[:, :n], self._slots[i][:, :n])
            if self._begin[i] != ticket:
                self._head = ticket + 1  # overwritten while we were copying
                continue
            self._head = ticket + 1
            return n, seq


class SideChannelVariable:
    """A named matrix payload with a fixed stride (channel count) and a
    cumulative sample counter."""

    def __init__(self, name: str, stride: int, capacity: int):
        if stride < 1:
            raise InvalidValue("stride", "must be >= 1")
        if capacity < 1:
            raise InvalidValue("capacity", "must be >= 1")
        self.name = name
        self.stride = stride
        self.capacity = capacity
        self.payload = np.zeros((stride, capacity))
        self.valid_samples = 0  # samples of the most recent chunk
        self.published_total = 0  # cumulative sample counter
        self.locked = False  # stride locked while a pipeline is prepared


class SideChannelRegistry:
    """Name -> variable map used to exchange chunks with the pipeline."""

    def __init__(self):
        self._vars: dict[str, SideChannelVariable] = {}

    def register(self, name: str, stride: int, capacity: int) -> SideChannelVariable:
        existing = self._vars.get(name)
        if existing is not None:
            if existing.locked and (existing.stride != stride or existing.capacity < capacity):
                raise InvalidLifecycle(
                    f"variable {name!r} is locked; release the pipeline first"
                )
            if existing.stride == stride and existing.capacity >= capacity:
                return existing
        var = SideChannelVariable(name, stride, capacity)
        self._vars[name] = var
        return var

    def get(self, name: str) -> SideChannelVariable:
        return self._vars[name]

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def publish(self, name: str, data: np.ndarray) -> None:
        """Copy one chunk into the variable and advance its sample counter.
        Publishing an empty chunk changes nothing."""
        var = self._vars[name]
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != var.stride:
            raise InvalidValue(name, f"payload must have stride {var.stride}")
        n = data.shape[1]
        if n == 0:
            return
        if n > var.capacity:
            raise InvalidValue(name, f"chunk of {n} samples exceeds capacity {var.capacity}")
        np.copyto(var.payload[:, :n], data)
        var.valid_samples = n
        var.published_total += n

    def lock(self, name: str) -> None:
        self._vars[name].locked = True

    def unlock(self, name: str) -> None:
        if name in self._vars:
            self._vars[name].locked = False


def _is_state_file(path) -> bool:
    """A saved state is JSON, so its first non-blank byte is '{'; a CSV's is not."""
    with open(path, "rb") as fh:
        while block := fh.read(256):
            head = block.lstrip()
            if head:
                return head.startswith(b"{")
    return False


def load_calibration(path, srate: float, params=None) -> CalibrationState:
    """Load a saved calibration state, or calibrate at ``srate`` with
    ``params`` from a clean-data CSV."""
    if _is_state_file(path):
        return load_calibration_state(path)
    matrix, filter_b, filter_a = load_calibration_data(path)
    return asr_calibrate(matrix, srate, params, filter_b=filter_b, filter_a=filter_a)


class Pipeline:
    """Streaming cleaner with a prepare/process/release lifecycle.

    ``output_sink``, if given, is called as ``sink(view, n, seq)`` from
    inside ``process()`` for every drained chunk; the view is only valid for
    the duration of the call and the sink must be cheap enough for the
    caller's real-time budget.
    """

    def __init__(
        self,
        config: PipelineConfig,
        registry: SideChannelRegistry,
        output_sink=None,
    ):
        self.config = config
        self.registry = registry
        self._sink = output_sink
        self._prepared = False
        self._thread: threading.Thread | None = None
        self._calib: CalibrationState | None = None

    @property
    def prepared(self) -> bool:
        return self._prepared

    @property
    def calibration(self) -> CalibrationState | None:
        return self._calib

    def prepare(self, calibration: CalibrationState | None = None) -> None:
        """Lock variables, allocate rings and start the worker. Cleans with
        ``calibration`` if given, else loads it from the config's file."""
        if self._prepared:
            raise InvalidLifecycle("pipeline is already prepared")
        cfg = self.config
        calib = calibration
        if calib is None:
            try:
                calib = load_calibration(
                    cfg.calibration_file_name, cfg.sampling_rate, cfg.params
                )
            except WindowTooShort:
                raise
            except (OSError, AsrError) as exc:
                raise PrepareFailed(f"cannot load calibration: {exc}") from exc
        if calib.srate != cfg.sampling_rate:
            raise PrepareFailed(
                f"calibration was made at {calib.srate} Hz, config says "
                f"{cfg.sampling_rate} Hz"
            )

        c = calib.channels
        window = calib.window_samples()
        if window < 1.5 * c:
            raise WindowTooShort(
                f"statistics window of {window} samples is shorter than 1.5x "
                f"the channel count ({c})"
            )
        if cfg.var_name not in self.registry:
            raise PrepareFailed(f"input variable {cfg.var_name!r} is not registered")
        in_var = self.registry.get(cfg.var_name)
        if in_var.stride != c:
            raise PrepareFailed(
                f"input variable {cfg.var_name!r} has stride {in_var.stride}, "
                f"calibration has {c} channels"
            )
        if in_var.capacity < cfg.chunk_capacity:
            raise PrepareFailed(
                f"input variable {cfg.var_name!r} holds {in_var.capacity} samples, "
                f"config needs {cfg.chunk_capacity}"
            )
        out_var = self.registry.register(
            cfg.resolved_output_var_name(), c, cfg.chunk_capacity
        )

        self._calib = calib
        self._in_var = in_var
        self._out_var = out_var
        self._inbound = ChunkFifo(cfg.fifo_capacity, c, cfg.chunk_capacity)
        self._outbound = ChunkFifo(cfg.fifo_capacity, c, cfg.chunk_capacity)
        self._drain_buf = np.zeros((c, cfg.chunk_capacity))
        self._proc_state = ProcessorState.initial(
            calib, stepsize=cfg.stepsize, lookahead=cfg.lookahead
        )
        self._consumed_published = in_var.published_total
        self._input_seq = 0
        self._pushed_chunks = 0
        self._drained_chunks = 0
        self._popped_chunks = 0
        self._processed_chunks = 0
        self._error_chunks = 0
        self._last_error_sample = -1
        self._stop = False

        load_kernels(calib)  # an import in the worker would stall a live stream
        self.registry.lock(cfg.var_name)
        self.registry.lock(out_var.name)
        self._thread = threading.Thread(
            target=self._worker_loop, name="asr-worker", daemon=True
        )
        self._thread.start()
        self._prepared = True

    def process(self) -> int:
        """Real-time callback: enqueue any newly published input chunk, drain
        cleaned chunks into the output variable. Never blocks; a full inbound
        ring drops the oldest chunk and counts it. Returns the number of
        chunks drained."""
        if not self._prepared:
            raise InvalidLifecycle("pipeline is not prepared")
        in_var = self._in_var
        published = in_var.published_total
        if published != self._consumed_published:
            n = in_var.valid_samples
            self._consumed_published = published
            if n > 0:
                self._inbound.push(in_var.payload, n, self._input_seq)
                self._input_seq += n
                self._pushed_chunks += 1
        drained = 0
        out_var = self._out_var
        buf = self._drain_buf
        while True:
            res = self._outbound.pop_into(buf)
            if res is None:
                break
            n, seq = res
            np.copyto(out_var.payload[:, :n], buf[:, :n])
            out_var.valid_samples = n
            out_var.published_total += n
            drained += 1
            self._drained_chunks += 1
            if self._sink is not None:
                self._sink(buf[:, :n], n, seq)
        return drained

    def _worker_loop(self) -> None:
        calib = self._calib
        srate = calib.srate
        work = np.zeros((calib.channels, self.config.chunk_capacity))
        inbound, outbound = self._inbound, self._outbound
        unlogged = 0  # fail-open chunks since the last warning
        logged_at = 0.0
        error = None
        while not self._stop:
            res = inbound.pop_into(work)
            if res is None:
                time.sleep(WORKER_IDLE_PARK_S)
                continue
            n, seq = res
            self._popped_chunks += 1
            chunk = MultichannelChunk(work[:, :n], srate, seq)
            try:
                cleaned, self._proc_state = asr_process_chunk(chunk, calib, self._proc_state)
                payload = cleaned.data
                self._processed_chunks += 1
            except Exception as exc:
                # fail open on any error: forward the chunk uncleaned, still
                # delayed by the lookahead, rather than let the worker die
                # and leave the producer waiting
                self._error_chunks += 1
                self._last_error_sample, error = seq, exc
                payload = pass_chunk_through(chunk, self._proc_state).data
                now = time.monotonic()
                if self._error_chunks == 1:
                    logger.warning(
                        "chunk at sample %d passed through uncleaned: %s",
                        seq,
                        exc,
                        exc_info=not isinstance(exc, AsrError),  # unexpected: keep the trace
                    )
                    logged_at = now
                else:
                    unlogged += 1
                    if now - logged_at >= FAIL_OPEN_LOG_INTERVAL_S:
                        _log_unlogged(unlogged, seq, exc)
                        unlogged, logged_at = 0, now
            outbound.push(payload, n, seq)
        if unlogged:
            _log_unlogged(unlogged, self._last_error_sample, error)

    def release(self) -> None:
        """Stop and join the worker, free the rings, unlock configuration."""
        if not self._prepared:
            raise InvalidLifecycle("pipeline is not prepared")
        self._stop = True
        assert self._thread is not None
        self._thread.join(timeout=WORKER_JOIN_TIMEOUT_S)
        if self._thread.is_alive():
            raise AsrError("worker thread did not stop in time")
        self._thread = None
        self.registry.unlock(self.config.var_name)
        self.registry.unlock(self._out_var.name)
        self._inbound = None
        self._outbound = None
        self._drain_buf = None
        self._proc_state = None
        self._prepared = False

    def flush(self, timeout: float = 2.0) -> int:
        """Drain until nothing is in flight, the worker is dead or the timeout
        passes. Not real-time safe; intended for end-of-stream shutdown.
        Returns the number of chunks drained."""
        if not self._prepared:
            raise InvalidLifecycle("pipeline is not prepared")
        deadline = time.perf_counter() + timeout
        drained = 0
        while time.perf_counter() < deadline:
            alive = self.worker_alive()  # read first: a dead worker's last push is drained below
            drained += self.process()
            if self.in_flight() == 0 or not alive:
                break
            time.sleep(0.001)
        return drained

    def worker_alive(self) -> bool:
        """Whether the worker thread runs; False before prepare, after
        release, and after an error the worker cannot survive."""
        return self._thread is not None and self._thread.is_alive()

    def in_flight(self) -> int:
        if not self._prepared:
            raise InvalidLifecycle("pipeline is not prepared")
        return self._pushed_chunks - self._drained_chunks - self._inbound.dropped - self._outbound.dropped

    def stats(self) -> dict[str, int]:
        """Monitoring counters, all integers; not for use inside the real-time
        callback. ``last_error_sample`` is the first sample index of the most
        recent chunk that failed open, or -1 when none has."""
        return {
            "pushed": self._pushed_chunks,
            "popped": self._popped_chunks,
            "processed": self._processed_chunks,
            "errors": self._error_chunks,
            "drained": self._drained_chunks,
            "dropped_in": self._inbound.dropped if self._inbound else 0,
            "dropped_out": self._outbound.dropped if self._outbound else 0,
            "worker_alive": int(self.worker_alive()),
            "last_error_sample": self._last_error_sample,
        }


def _log_unlogged(count: int, seq: int, exc: Exception) -> None:
    """The rate-limited fail-open summary: ``count`` chunks since the last
    warning, the latest at sample ``seq`` failing with ``exc``."""
    logger.warning(
        "%d more chunks passed through uncleaned, the latest at sample %d: %s",
        count,
        seq,
        exc,
    )
