"""Real-time pipeline: prepare/process/release lifecycle, a wait-free chunk
FIFO pair, a worker cleaning thread, and a named side-channel registry.

Each runtime fact is read from its one owner: the input variable's capacity
sizes every chunk buffer (a registered variable is never replaced or
resized), the inbound ring counts the chunks pushed and popped, the
outbound ring the chunks drained, each ring the chunks it refused, the input
variable's sample counter gives each chunk's sample index, and a running
worker thread is what "prepared" means.

Concurrency model: exactly two roles per pipeline. The caller thread runs
``process()`` (real-time side: no locks, no blocking, no buffer allocation
after prepare), and ``feed()``/``flush()``, which wrap it for a producer
that may wait; one worker thread runs the cleaning loop. All shared state
flows through the two single-producer/single-consumer rings plus plain
attribute flags and counters, which CPython's GIL makes atomic to read and
write; each counter has a single writer. A full ring refuses a chunk rather
than overwrite one, so no slot is written while the other side reads it.
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
    WorkerDied,
)
from .io_formats import load_calibration_data, load_calibration_state
from .processing import asr_process_chunk, pass_chunk_through
from .types import CalibrationState, MultichannelChunk, PipelineConfig, ProcessorState

logger = logging.getLogger(__name__)

IDLE_PARK_S = 0.0002  # park between polls that move nothing: the worker's, feed()'s, flush()'s
DRAIN_TIMEOUT_S = 5.0  # feed() and flush() give up after this long without a chunk drained
WORKER_JOIN_TIMEOUT_S = 2.0
FAIL_OPEN_LOG_INTERVAL_S = 1.0  # at most one fail-open summary line per interval


class ChunkFifo:
    """Bounded wait-free SPSC ring of fixed-size chunk slots.

    All slots are allocated at construction; push and pop copy payloads into
    and out of them. A push into a full ring is refused and counted in
    ``dropped`` (Lamport's ring), so the producer never writes a slot the
    consumer may be reading. Each index has one writer, and ``pushed``,
    ``popped`` and ``dropped`` are exact at every moment: every chunk pushed
    is popped, refused, or still in the ring.
    """

    def __init__(self, capacity: int, channels: int, chunk_capacity: int):
        if capacity < 2:
            raise InvalidValue("fifo_capacity", "must be >= 2")
        self._capacity = capacity
        self._slots = [np.zeros((channels, chunk_capacity)) for _ in range(capacity)]
        self._sizes = [0] * capacity
        self._seqs = [0] * capacity
        self._head = 0  # chunks popped; written only by the consumer
        self._tail = 0  # chunks accepted; written only by the producer
        self.dropped = 0  # chunks refused; written only by the producer

    @property
    def pushed(self) -> int:
        """Chunks offered to the ring, accepted or refused."""
        return self._tail + self.dropped

    @property
    def popped(self) -> int:
        return self._head

    def push(self, data: np.ndarray, n: int, seq: int) -> None:
        """Copy ``data[:, :n]`` into the ring, or refuse it and count it in
        ``dropped`` when the ring is full."""
        tail = self._tail
        if tail - self._head >= self._capacity:
            self.dropped += 1
            return
        i = tail % self._capacity
        np.copyto(self._slots[i][:, :n], data[:, :n])
        self._sizes[i] = n
        self._seqs[i] = seq
        self._tail = tail + 1  # hands the slot to the consumer

    def pop_into(self, dst: np.ndarray):
        """Copy the oldest chunk into ``dst[:, :n]`` and return (n, seq), or
        return None, leaving ``dst`` as it was, when the ring is empty."""
        head = self._head
        if head == self._tail:
            return None
        i = head % self._capacity
        n, seq = self._sizes[i], self._seqs[i]
        np.copyto(dst[:, :n], self._slots[i][:, :n])
        self._head = head + 1  # hands the slot back to the producer
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


class SideChannelRegistry:
    """Name -> variable map used to exchange chunks with the pipeline."""

    def __init__(self):
        self._vars: dict[str, SideChannelVariable] = {}

    def register(self, name: str, stride: int, capacity: int) -> SideChannelVariable:
        """A new variable, or the one registered as ``name`` if it has this
        stride and at least this capacity; a variable is never replaced."""
        var = self._vars.get(name)
        if var is None:
            var = self._vars[name] = SideChannelVariable(name, stride, capacity)
        elif var.stride != stride or var.capacity < capacity:
            raise InvalidValue(
                name, f"registered with stride {var.stride} and capacity {var.capacity}"
            )
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
    inside ``process()`` for every drained chunk. The view is the first
    ``n`` columns of the ``<var>_clean`` payload, which the next drained
    chunk overwrites, so it is valid only for the duration of the call; the
    sink must be cheap enough for the caller's real-time budget.
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
        self._thread: threading.Thread | None = None  # set while prepared
        self._calib: CalibrationState | None = None

    @property
    def calibration(self) -> CalibrationState | None:
        return self._calib

    def prepare(self, calibration: CalibrationState | None = None) -> None:
        """Allocate rings of chunks as long as the input variable's capacity,
        register the output variable and start the worker. Cleans with
        ``calibration`` if given, else loads it from the config's file."""
        if self._thread is not None:
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
        if cfg.var_name not in self.registry:
            raise PrepareFailed(f"input variable {cfg.var_name!r} is not registered")
        in_var = self.registry.get(cfg.var_name)
        if in_var.stride != c:
            raise PrepareFailed(
                f"input variable {cfg.var_name!r} has stride {in_var.stride}, "
                f"calibration has {c} channels"
            )
        chunk = in_var.capacity  # the longest chunk publish() lets in
        try:
            out_var = self.registry.register(f"{cfg.var_name}_clean", c, chunk)
        except InvalidValue as exc:
            raise PrepareFailed(f"output variable {exc}") from exc

        self._in_var = in_var
        self._out_var = out_var
        self._inbound = ChunkFifo(cfg.fifo_capacity, c, chunk)
        self._outbound = ChunkFifo(cfg.fifo_capacity, c, chunk)
        self._proc_state = ProcessorState.initial(
            calib, stepsize=cfg.stepsize, lookahead=cfg.lookahead
        )
        self._first_published = self._consumed_published = in_var.published_total
        self._overwritten_in_samples = 0
        self._processed_chunks = 0
        self._error_chunks = 0
        self._last_error_sample = -1
        self._stop = False
        self._calib = calib  # last: stats() reads the counters once it is set

        thread = threading.Thread(target=self._worker_loop, name="asr-worker", daemon=True)
        thread.start()
        self._thread = thread

    def process(self) -> int:
        """Real-time callback: enqueue any newly published input chunk and
        move at most one cleaned chunk into the output variable, so a host
        that reads the variable after each call sees every chunk. Never
        blocks; a full inbound ring refuses the new chunk and counts it.
        Returns the number of chunks moved, 0 or 1."""
        if self._thread is None:
            raise InvalidLifecycle("pipeline is not prepared")
        in_var = self._in_var
        published = in_var.published_total
        if published != self._consumed_published:
            n = in_var.valid_samples
            # samples published since the last call that a later chunk overwrote
            self._overwritten_in_samples += published - self._consumed_published - n
            self._consumed_published = published
            self._inbound.push(in_var.payload, n, published - n - self._first_published)
        out_var = self._out_var
        res = self._outbound.pop_into(out_var.payload)
        if res is None:
            return 0
        n, seq = res
        out_var.valid_samples = n
        out_var.published_total += n
        if self._sink is not None:
            self._sink(out_var.payload[:, :n], n, seq)
        return 1

    def _worker_loop(self) -> None:
        calib = self._calib
        srate = calib.srate
        work = np.zeros((calib.channels, self._in_var.capacity))
        inbound, outbound = self._inbound, self._outbound
        unlogged = 0  # fail-open chunks since the last warning
        logged_at = 0.0
        error = None
        while not self._stop:
            res = inbound.pop_into(work)
            if res is None:
                time.sleep(IDLE_PARK_S)
                continue
            n, seq = res
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
        """Stop and join the worker. The variables stay registered, and the
        rings and counters stay, so ``stats()`` still reads what the run did;
        the next ``prepare()`` replaces the rings and counters."""
        if self._thread is None:
            raise InvalidLifecycle("pipeline is not prepared")
        self._stop = True
        self._thread.join(timeout=WORKER_JOIN_TIMEOUT_S)
        if self._thread.is_alive():
            raise AsrError("worker thread did not stop in time")
        self._thread = None

    def feed(self, data: np.ndarray) -> None:
        """File-driven producer: wait until the inbound ring has room, publish
        ``data`` into the config's input variable and call ``process()`` once,
        so nothing is dropped when the input outruns the worker. Not
        real-time safe. Raises ``WorkerDied`` as ``flush()`` does."""
        self._drain(self.config.fifo_capacity - 2)  # so neither ring ever fills
        self.registry.publish(self.config.var_name, data)
        self.process()

    def flush(self) -> None:
        """Drain until nothing is in flight. Not real-time safe; intended for
        end-of-stream shutdown. Raises ``WorkerDied`` once ``DRAIN_TIMEOUT_S``
        pass without a chunk drained (each drained chunk restarts the clock,
        so a slow worker that keeps up progress is waited for), or once the
        worker is dead and its last chunks are drained."""
        self._drain(0)

    def _drain(self, limit: int) -> None:
        """Call ``process()`` until at most ``limit`` chunks are in flight."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.in_flight() > limit:
            alive = self.worker_alive()  # read first: a dead worker's last push is drained below
            if self.process():
                deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            elif alive and time.perf_counter() < deadline:
                time.sleep(IDLE_PARK_S)
            else:
                raise WorkerDied(f"{self.in_flight()} chunks never came back from the worker")

    def worker_alive(self) -> bool:
        """Whether the worker thread runs; False before prepare, after
        release, and after an error the worker cannot survive."""
        return self._thread is not None and self._thread.is_alive()

    def in_flight(self) -> int:
        if self._thread is None:
            raise InvalidLifecycle("pipeline is not prepared")
        inbound, outbound = self._inbound, self._outbound
        return inbound.pushed - inbound.dropped - outbound.popped - outbound.dropped

    def stats(self) -> dict[str, int]:
        """Monitoring counters, all integers; not for use inside the real-time
        callback. They stay readable after ``release()``, until the next
        ``prepare()`` starts them again. ``last_error_sample`` is the first
        sample index of the most recent chunk that failed open, or -1 when
        none has."""
        if self._calib is None:
            raise InvalidLifecycle("pipeline was never prepared")
        return {
            "pushed": self._inbound.pushed,
            "popped": self._inbound.popped,
            "processed": self._processed_chunks,
            "errors": self._error_chunks,
            "drained": self._outbound.popped,
            "dropped_in": self._inbound.dropped,
            "dropped_out": self._outbound.dropped,
            "overwritten_in_samples": self._overwritten_in_samples,
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
