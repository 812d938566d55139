import dataclasses
import logging
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import asrstream as asr
from asrstream.errors import (
    InvalidLifecycle, InvalidValue, PrepareFailed, WindowTooShort, WorkerDied,
)
from asrstream.io_formats import save_calibration_csv, save_calibration_state
from asrstream.runtime import ChunkFifo, Pipeline, SideChannelRegistry, _is_state_file
from conftest import SRATE, run_stream


def make_fifo(capacity=4, channels=2, chunk=8):
    return ChunkFifo(capacity, channels, chunk)


class TestChunkFifo:
    def test_order_preserved(self):
        fifo = make_fifo()
        dst = np.zeros((2, 8))
        for i in range(3):
            fifo.push(np.full((2, 4), float(i)), 4, i * 4)
        seen = []
        while True:
            res = fifo.pop_into(dst)
            if res is None:
                break
            n, seq = res
            seen.append((n, seq, dst[0, 0]))
        assert seen == [(4, 0, 0.0), (4, 4, 1.0), (4, 8, 2.0)]

    def test_pop_empty_returns_none(self):
        fifo = make_fifo()
        assert fifo.pop_into(np.zeros((2, 8))) is None

    def test_pop_empty_leaves_dst_untouched(self):
        fifo = make_fifo()
        dst = np.full((2, 8), 7.0)
        assert fifo.pop_into(dst) is None
        fifo.push(np.ones((2, 3)), 3, 0)
        assert fifo.pop_into(dst) == (3, 0)
        assert fifo.pop_into(dst) is None  # emptied again: the last chunk stays
        assert np.array_equal(dst, np.hstack([np.ones((2, 3)), np.full((2, 5), 7.0)]))

    def test_full_ring_refuses_the_push_and_counts_it(self):
        fifo = make_fifo(capacity=4)
        for i in range(4):
            fifo.push(np.full((2, 2), float(i)), 2, i)
        assert fifo.dropped == 0
        fifo.push(np.full((2, 2), 4.0), 2, 4)  # fifth push: the ring is full
        assert (fifo.dropped, fifo.pushed) == (1, 5)
        dst = np.zeros((2, 8))
        seqs = []
        while (res := fifo.pop_into(dst)) is not None:
            seqs.append(res[1])
            assert dst[0, 0] == res[1]  # each payload with its own seq
        assert seqs == [0, 1, 2, 3]  # the newest (4) was refused
        assert fifo.popped == 4

    def test_quiesced_accounting_exact(self):
        fifo = make_fifo(capacity=3)
        for i in range(10):
            fifo.push(np.zeros((2, 1)), 1, i)
        dst = np.zeros((2, 8))
        popped = 0
        while fifo.pop_into(dst) is not None:
            popped += 1
        assert fifo.pushed == popped + fifo.dropped

    def test_threaded_hammer_no_duplicates_order_kept(self):
        fifo = make_fifo(capacity=8, channels=1, chunk=4)
        total = 20000
        popped: list[int] = []
        torn: list[int] = []

        def consumer():
            dst = np.zeros((1, 4))
            misses = 0
            while misses < 2000:
                res = fifo.pop_into(dst)
                if res is None:
                    if fifo.pushed >= total:
                        misses += 1
                    time.sleep(0)
                    continue
                misses = 0
                popped.append(res[1])
                if not np.all(dst == res[1]):
                    torn.append(res[1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as CPython allows
        try:
            thread = threading.Thread(target=consumer)
            thread.start()
            for i in range(total):
                fifo.push(np.full((1, 4), float(i)), 4, i)
            thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert torn == []  # every payload arrives whole, with its own seq
        # popped chunks are a strictly increasing subsequence of pushes, and
        # every push was either popped or refused
        assert all(b > a for a, b in zip(popped, popped[1:]))
        assert len(popped) + fifo.dropped == total
        assert len(set(popped)) == len(popped)
        assert fifo.popped == len(popped) and fifo.pushed == total


class TestRegistry:
    def test_register_publish_counters(self):
        reg = SideChannelRegistry()
        var = reg.register("eeg", stride=3, capacity=16)
        reg.publish("eeg", np.ones((3, 5)))
        assert var.valid_samples == 5
        assert var.published_total == 5
        reg.publish("eeg", np.ones((3, 2)))
        assert var.published_total == 7

    def test_empty_publish_is_noop(self):
        reg = SideChannelRegistry()
        var = reg.register("eeg", stride=2, capacity=8)
        reg.publish("eeg", np.zeros((2, 0)))
        assert var.published_total == 0

    def test_stride_mismatch_rejected(self):
        reg = SideChannelRegistry()
        reg.register("eeg", stride=2, capacity=8)
        with pytest.raises(asr.AsrError):
            reg.publish("eeg", np.zeros((3, 4)))

    def test_a_registered_variable_is_never_replaced(self):
        reg = SideChannelRegistry()
        var = reg.register("eeg", stride=2, capacity=8)
        assert reg.register("eeg", stride=2, capacity=8) is var
        assert reg.register("eeg", stride=2, capacity=4) is var
        for stride, capacity in ((3, 8), (2, 9)):
            with pytest.raises(InvalidValue, match="eeg: registered with stride 2 and capacity 8"):
                reg.register("eeg", stride=stride, capacity=capacity)
        assert reg.get("eeg") is var and var.capacity == 8


@pytest.fixture()
def pipeline_setup(tmp_path, clean_calibration):
    data, state = clean_calibration
    calib_path = tmp_path / "calib.json"
    save_calibration_state(calib_path, state)
    config = asr.PipelineConfig(
        sampling_rate=SRATE,
        params=state.params,
        var_name="eeg",
        calibration_file_name=str(calib_path),
        fifo_capacity=8,
    )
    registry = SideChannelRegistry()
    registry.register("eeg", stride=state.channels, capacity=64)
    return config, registry, state


def wait_for(condition, timeout=5.0):
    """Poll ``condition`` until it holds; fails the test after ``timeout`` s."""
    deadline = time.perf_counter() + timeout
    while not condition():
        assert time.perf_counter() < deadline, "timed out waiting for the worker"
        time.sleep(0.001)


def collecting_pipeline(config, registry):
    """A pipeline whose sink keeps a copy of every chunk it drains."""
    chunks: list[np.ndarray] = []
    return Pipeline(config, registry, lambda view, n, seq: chunks.append(view.copy())), chunks


class TestPipelineLifecycle:
    def test_prepare_registers_output_variable(self, pipeline_setup):
        config, registry, state = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        try:
            out = registry.get("eeg_clean")
            assert out.stride == state.channels
        finally:
            pipeline.release()

    def test_missing_calibration_file(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        bad = asr.PipelineConfig(
            sampling_rate=config.sampling_rate,
            params=config.params,
            var_name="eeg",
            calibration_file_name="/nonexistent/calib.csv",
        )
        with pytest.raises(PrepareFailed):
            Pipeline(bad, registry).prepare()

    def test_prepare_with_given_calibration_loads_nothing(self, pipeline_setup):
        config, registry, state = pipeline_setup
        elsewhere = asr.PipelineConfig(
            sampling_rate=config.sampling_rate,
            params=config.params,
            var_name="eeg",
            calibration_file_name="/nonexistent/calib.csv",
        )
        pipeline = Pipeline(elsewhere, registry)
        pipeline.prepare(state)
        try:
            assert pipeline.calibration is state
            assert pipeline.stats()["worker_alive"] == 1
        finally:
            pipeline.release()
        assert pipeline.stats()["worker_alive"] == 0

    def test_default_lookahead_follows_the_calibration(self, pipeline_setup):
        config, registry, state = pipeline_setup
        other = dataclasses.replace(config, params=asr.CalibrationParams(window_len=1.0))
        assert other.params.default_lookahead(SRATE) != state.default_lookahead()
        pipeline = Pipeline(other, registry)
        pipeline.prepare(state)
        try:
            assert pipeline._proc_state.lookahead == state.default_lookahead()
        finally:
            pipeline.release()

    def test_prepare_rejects_calibration_at_another_srate(self, pipeline_setup):
        config, registry, state = pipeline_setup
        other = asr.PipelineConfig(
            sampling_rate=2 * config.sampling_rate,
            params=config.params,
            var_name="eeg",
            calibration_file_name=config.calibration_file_name,
        )
        for calibration in (None, state):  # loaded from the file, or given
            with pytest.raises(PrepareFailed, match="Hz"):
                Pipeline(other, registry).prepare(calibration)

    @pytest.mark.parametrize(
        "head, is_state",
        [(b"", False), (b"1.0,2.0\n", False), (b"# filter_b: 1\n", False),
         (b" \r\n\t{\n", True), (b" " * 1000 + b"{}", True)],
    )
    def test_state_file_sniffed_from_leading_bytes(self, tmp_path, head, is_state):
        p = tmp_path / "calib"
        p.write_bytes(head)
        assert _is_state_file(p) is is_state

    def test_window_rule_checked_at_prepare(self, tmp_path, clean_calibration):
        data, _ = clean_calibration
        calib_csv = tmp_path / "calib.csv"
        save_calibration_csv(calib_csv, data)
        config = asr.PipelineConfig(
            sampling_rate=SRATE,
            params=asr.CalibrationParams(window_len=0.02),  # 5 samples < 1.5 * 4 channels
            var_name="eeg",
            calibration_file_name=str(calib_csv),
        )
        registry = SideChannelRegistry()
        registry.register("eeg", stride=4, capacity=1024)
        with pytest.raises(WindowTooShort, match="1.5x"):
            Pipeline(config, registry).prepare()

    def test_unregistered_input_variable(self, pipeline_setup):
        config, _, _ = pipeline_setup
        with pytest.raises(PrepareFailed):
            Pipeline(config, SideChannelRegistry()).prepare()

    def test_wrong_stride_input_variable(self, pipeline_setup):
        config, _, _ = pipeline_setup
        registry = SideChannelRegistry()
        registry.register("eeg", stride=7, capacity=64)
        with pytest.raises(PrepareFailed):
            Pipeline(config, registry).prepare()

    @pytest.mark.parametrize("stride, capacity", [(3, 64), (4, 32)])
    def test_output_variable_that_does_not_fit_fails_prepare(
        self, pipeline_setup, stride, capacity
    ):
        config, registry, _ = pipeline_setup  # eeg: stride 4, capacity 64
        taken = registry.register("eeg_clean", stride=stride, capacity=capacity)
        pipeline = Pipeline(config, registry)
        with pytest.raises(PrepareFailed, match="output variable eeg_clean: registered"):
            pipeline.prepare()
        assert registry.get("eeg_clean") is taken
        assert not pipeline.worker_alive()

    def test_lifecycle_state_machine(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        with pytest.raises(InvalidLifecycle):
            pipeline.process()
        with pytest.raises(InvalidLifecycle):
            pipeline.release()
        pipeline.prepare()
        with pytest.raises(InvalidLifecycle):
            pipeline.prepare()
        pipeline.release()
        with pytest.raises(InvalidLifecycle):
            pipeline.release()
        pipeline.prepare()  # re-preparable after release
        pipeline.release()

    def test_stats_before_prepare_is_a_lifecycle_error(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        for call in (pipeline.stats, pipeline.in_flight):
            with pytest.raises(InvalidLifecycle):
                call()

    def test_release_joins_quickly(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        registry.publish("eeg", np.random.default_rng(0).standard_normal((4, 64)))
        pipeline.process()
        start = time.perf_counter()
        pipeline.release()
        assert time.perf_counter() - start < 0.1


def test_prepare_imports_what_the_worker_needs():
    """The worker must not import mid-stream: with a shaping filter,
    scipy.signal loads at prepare."""
    src = os.path.dirname(os.path.dirname(asr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import dataclasses, sys\n"
        "import numpy as np\n"
        "import asrstream as asr\n"
        "state = asr.asr_calibrate(np.random.default_rng(1).standard_normal((4, 2500)), 250.0)\n"
        "state = dataclasses.replace(state, filter_b=(0.5, 0.5), filter_a=(1.0,))\n"
        "registry = asr.SideChannelRegistry()\n"
        "registry.register('eeg', stride=4, capacity=64)\n"
        "config = asr.PipelineConfig(sampling_rate=250.0, params=state.params, var_name='eeg',\n"
        "                            calibration_file_name='unused')\n"
        "pipeline = asr.Pipeline(config, registry)\n"
        "assert 'scipy.linalg' not in sys.modules and 'scipy.signal' not in sys.modules\n"
        "pipeline.prepare(state)\n"
        "pipeline.release()\n"
        "assert 'scipy.signal' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestPipelineDataPath:
    def test_end_to_end_equals_direct_processing(self, pipeline_setup, clean_calibration):
        config, registry, state = pipeline_setup
        rng = np.random.default_rng(101)
        stream = rng.standard_normal((4, 2048))
        stream[:, 700:800] += 9 * np.outer([1.0, 0.4, -0.2, 0.6], np.ones(100))

        pipeline, chunks = collecting_pipeline(config, registry)
        pipeline.prepare()
        for pos in range(0, stream.shape[1], 32):
            pipeline.feed(stream[:, pos : pos + 32])
        pipeline.flush()
        stats = pipeline.stats()
        pipeline.release()

        assert stats["dropped_in"] == 0
        assert stats["errors"] == 0
        got = np.hstack(chunks)
        want, _ = run_stream(
            stream, state, chunk_size=32,
            stepsize=config.stepsize, lookahead=config.lookahead,
        )
        assert np.array_equal(got, want)  # bit-identical to the direct path

    def test_chunk_size_comes_from_the_input_variable(self, pipeline_setup):
        config, _, state = pipeline_setup
        registry = SideChannelRegistry()
        registry.register("eeg", stride=state.channels, capacity=128)
        pipeline, chunks = collecting_pipeline(config, registry)
        pipeline.prepare()
        stream = np.random.default_rng(23).standard_normal((4, 100))
        try:
            pipeline.feed(stream)
            pipeline.flush()
            stats = pipeline.stats()
        finally:
            pipeline.release()
        assert registry.get("eeg_clean").capacity == 128
        want, _ = run_stream(stream, state, chunk_size=100)
        assert len(chunks) == 1 and np.array_equal(chunks[0], want)
        assert stats["pushed"] == stats["drained"] + stats["dropped_in"] + stats["dropped_out"]
        assert stats["drained"] == 1 and stats["errors"] == 0

    def test_zero_length_publish_is_noop(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        before = pipeline.stats()
        registry.publish("eeg", np.zeros((4, 0)))
        pipeline.process()
        after = pipeline.stats()
        pipeline.release()
        assert before == after

    def test_stalled_worker_refuses_the_newest_without_blocking(self, pipeline_setup, monkeypatch):
        config, registry, _ = pipeline_setup
        small = asr.PipelineConfig(
            sampling_rate=config.sampling_rate,
            params=config.params,
            var_name="eeg",
            calibration_file_name=config.calibration_file_name,
            fifo_capacity=4,
        )
        pipeline = Pipeline(small, registry)
        pipeline.prepare()
        # stall the worker by making it idle forever on a flag
        pipeline._stop = True
        pipeline._thread.join(timeout=2.0)
        pipeline._stop = False  # keep lifecycle consistent for release()

        data = np.ones((4, 8))
        deadline = time.perf_counter() + 5.0
        for i in range(4):
            registry.publish("eeg", data)
            pipeline.process()
        assert pipeline.stats()["dropped_in"] == 0
        registry.publish("eeg", data)
        pipeline.process()  # fifth chunk: ring of 4 overflows
        elapsed = time.perf_counter()
        assert elapsed < deadline, "process() must never block"
        stats = pipeline.stats()
        assert stats["dropped_in"] == 1
        assert stats["pushed"] == 5
        pipeline.release()
        released = pipeline.stats()  # the counters outlive the worker
        assert released.pop("worker_alive") == 0
        assert released == {k: v for k, v in stats.items() if k != "worker_alive"}

    def test_full_outbound_ring_refuses_and_the_output_keeps_its_last_chunk(
        self, pipeline_setup, monkeypatch
    ):
        from asrstream import runtime

        gate = threading.Event()
        gate.set()
        real = runtime.asr_process_chunk

        def gated(chunk, calib, state):
            gate.wait(5.0)
            return real(chunk, calib, state)

        monkeypatch.setattr(runtime, "asr_process_chunk", gated)
        config, registry, _ = pipeline_setup
        config = dataclasses.replace(config, fifo_capacity=4)
        seqs: list[int] = []
        pipeline = Pipeline(config, registry, lambda view, n, seq: seqs.append(seq))
        pipeline.prepare()
        out = registry.get("eeg_clean")
        try:
            rng = np.random.default_rng(8)
            pipeline.feed(rng.standard_normal((4, 16)))
            pipeline.flush()
            delivered = out.payload[:, : out.valid_samples].copy()
            gate.clear()
            # the worker holds the first of five chunks at the gate, the
            # inbound ring the other four; once let go it pushes all five
            # into an outbound ring of four, with nothing drained meanwhile
            for i in range(5):
                registry.publish("eeg", rng.standard_normal((4, 16)))
                assert pipeline.process() == 0
                if i == 0:
                    wait_for(lambda: pipeline.stats()["popped"] == 2)
            gate.set()
            wait_for(lambda: pipeline.stats()["processed"] == 6)
            stats = pipeline.stats()
            kept = out.payload[:, : out.valid_samples].copy()
            pipeline.flush()
            final = pipeline.stats()
        finally:
            pipeline.release()
        assert (stats["processed"], stats["dropped_in"], stats["dropped_out"]) == (6, 0, 1)
        assert stats["drained"] == 1
        assert np.array_equal(kept, delivered)  # a refused push leaves the output as it was
        assert seqs == [0, 16, 32, 48, 64]  # the newest chunk, at sample 80, was refused
        assert final["pushed"] == final["drained"] + final["dropped_in"] + final["dropped_out"]

    def test_popped_and_drained_are_read_from_the_rings(self, pipeline_setup, monkeypatch):
        from asrstream import runtime

        gate = threading.Event()
        real = runtime.asr_process_chunk
        calls = 0

        def stalls_on_the_third(chunk, calib, state):
            nonlocal calls
            calls += 1
            if calls == 3:
                gate.wait(5.0)
            return real(chunk, calib, state)

        monkeypatch.setattr(runtime, "asr_process_chunk", stalls_on_the_third)
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        try:
            rng = np.random.default_rng(9)
            for _ in range(4):
                registry.publish("eeg", rng.standard_normal((4, 16)))
                pipeline.process()
            wait_for(lambda: pipeline.stats()["popped"] == 3)  # the first two pushed out
            pipeline.process()
            pipeline.process()
            stats, in_flight = pipeline.stats(), pipeline.in_flight()
            rings = pipeline._inbound.popped, pipeline._outbound.popped
        finally:
            gate.set()
            pipeline.release()
        # mid-run: two chunks drained, the third held by the worker, the
        # fourth still in the inbound ring
        assert (stats["popped"], stats["drained"]) == rings == (3, 2)
        assert (stats["pushed"], in_flight) == (4, 2)

    def test_nan_chunk_fails_open(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        config = dataclasses.replace(config, lookahead=8)
        pipeline, chunks = collecting_pipeline(config, registry)
        pipeline.prepare()
        bad = np.ones((4, 16))
        bad[2, 5] = np.nan
        pipeline.feed(bad)
        pipeline.flush()
        stats = pipeline.stats()

        # the poisoned chunk is forwarded uncleaned, delayed by the lookahead,
        # and counted
        assert stats["errors"] == 1
        assert len(chunks) == 1
        assert np.array_equal(chunks[0], np.hstack([np.zeros((4, 8)), bad[:, :8]]), equal_nan=True)

        # and the stream keeps working afterwards, with the rest of it in line
        good = np.ones((4, 16))
        pipeline.feed(good)
        pipeline.flush()
        assert pipeline.stats()["errors"] == 1
        assert len(chunks) == 2
        assert np.array_equal(chunks[1], np.hstack([bad[:, 8:], good[:, :8]]))
        pipeline.release()

    def test_fail_open_keeps_the_lookahead_alignment(self, pipeline_setup, monkeypatch):
        from asrstream import runtime

        config, registry, _ = pipeline_setup
        real = runtime.asr_process_chunk
        calls = 0

        def flaky(chunk, calib, state):
            nonlocal calls
            calls += 1
            if calls == 10:
                raise np.linalg.LinAlgError("injected failure")
            return real(chunk, calib, state)

        monkeypatch.setattr(runtime, "asr_process_chunk", flaky)
        pipeline, chunks = collecting_pipeline(config, registry)
        pipeline.prepare()
        lookahead = pipeline._proc_state.lookahead
        # half the calibration noise's scale: no update rejects anything
        stream = 0.5 * np.random.default_rng(17).standard_normal((4, 20 * 16))
        try:
            for pos in range(0, stream.shape[1], 16):
                pipeline.feed(stream[:, pos : pos + 16])
            pipeline.flush()
            stats = pipeline.stats()
            rejecting = sum(1 for _, r in pipeline._proc_state.update_log if r)
        finally:
            pipeline.release()

        assert stats["errors"] == 1 and stats["drained"] == 20
        got = np.hstack(chunks)
        delayed = np.hstack([np.zeros((4, lookahead)), stream])[:, : stream.shape[1]]
        assert got.shape == stream.shape
        failed = slice(9 * 16, 10 * 16)
        assert np.array_equal(got[:, failed], delayed[:, failed])
        # with nothing rejected, every output sample is the input delayed by
        # the lookahead: none repeats and none goes missing
        assert rejecting == 0
        assert np.array_equal(got, delayed)

    def test_worker_survives_non_asr_error(self, pipeline_setup, monkeypatch):
        from asrstream import runtime

        config, registry, _ = pipeline_setup
        calls = 0
        real = runtime.asr_process_chunk

        def flaky(chunk, calib, state):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise np.linalg.LinAlgError("injected failure")
            return real(chunk, calib, state)

        monkeypatch.setattr(runtime, "asr_process_chunk", flaky)
        pipeline, chunks = collecting_pipeline(config, registry)
        pipeline.prepare()
        try:
            rng = np.random.default_rng(11)
            for _ in range(6):
                pipeline.feed(rng.standard_normal((4, 16)))
            pipeline.flush()
            stats = pipeline.stats()
            in_flight = pipeline.in_flight()
        finally:
            pipeline.release()

        assert calls == 6
        assert len(chunks) == 6
        assert stats["errors"] == 1
        assert stats["processed"] == 5
        assert stats["drained"] == 6
        assert in_flight == 0

    def test_fail_open_warnings_are_rate_limited(self, pipeline_setup, monkeypatch, caplog):
        from asrstream import runtime

        def failing(chunk, calib, state):
            raise np.linalg.LinAlgError("injected failure")

        monkeypatch.setattr(runtime, "asr_process_chunk", failing)
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        before = pipeline.stats()
        start = time.monotonic()
        with caplog.at_level(logging.WARNING, logger=runtime.__name__):
            try:
                for _ in range(20):
                    pipeline.feed(np.zeros((4, 16)))
                pipeline.flush()
                stats = pipeline.stats()
            finally:
                pipeline.release()  # the worker logs what it still holds back
        elapsed = time.monotonic() - start

        assert before["last_error_sample"] == -1
        assert stats["errors"] == 20 and stats["last_error_sample"] == 19 * 16
        first, *summaries = [r for r in caplog.records if r.name == runtime.__name__]
        assert first.args[0] == 0  # the first failure, logged when it happens
        # then one line per interval at most, plus the last one at release,
        # which together count every other failure and end with the latest
        assert 1 <= len(summaries) <= 1 + elapsed / runtime.FAIL_OPEN_LOG_INTERVAL_S
        assert sum(r.args[0] for r in summaries) == 19
        assert summaries[-1].args[1] == 19 * 16

    def test_flush_stops_waiting_for_a_dead_worker(self, pipeline_setup, monkeypatch):
        from asrstream import runtime

        class Killed(BaseException):
            pass

        def dying(chunk, calib, state):
            raise Killed()

        monkeypatch.setattr(runtime, "asr_process_chunk", dying)
        monkeypatch.setattr(threading, "excepthook", lambda info: None)
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        try:
            for _ in range(3):
                registry.publish("eeg", np.zeros((4, 16)))
                pipeline.process()
            start = time.perf_counter()
            with pytest.raises(WorkerDied, match="3 chunks never came back"):
                pipeline.flush()
            elapsed = time.perf_counter() - start
            stats = pipeline.stats()
            in_flight = pipeline.in_flight()
        finally:
            pipeline.release()
        assert elapsed < 1.0
        assert stats["worker_alive"] == 0
        assert in_flight > 0  # the chunks the worker never cleaned stay counted

    def test_feed_gives_up_on_a_stalled_worker(self, pipeline_setup, monkeypatch):
        """A worker that lives but never finishes a chunk: feed() waits for
        room only DRAIN_TIMEOUT_S, then raises."""
        from asrstream import runtime

        gate = threading.Event()
        real = runtime.asr_process_chunk

        def stuck(chunk, calib, state):
            gate.wait(10.0)
            return real(chunk, calib, state)

        monkeypatch.setattr(runtime, "asr_process_chunk", stuck)
        monkeypatch.setattr(runtime, "DRAIN_TIMEOUT_S", 0.2)
        config, registry, _ = pipeline_setup  # fifo_capacity 8: feed() holds 7 in flight
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        start = time.perf_counter()
        try:
            with pytest.raises(WorkerDied, match="7 chunks never came back"):
                for _ in range(20):
                    pipeline.feed(np.zeros((4, 16)))
            elapsed = time.perf_counter() - start
            stats = pipeline.stats()
        finally:
            gate.set()
            pipeline.release()
        assert 0.2 <= elapsed < 2.0
        assert stats["worker_alive"] == 1
        assert (stats["pushed"], stats["drained"], stats["dropped_in"]) == (7, 0, 0)

    def test_process_moves_one_cleaned_chunk_per_call(self, pipeline_setup, monkeypatch):
        from asrstream import runtime

        gate = threading.Event()
        real = runtime.asr_process_chunk

        def gated(chunk, calib, state):
            gate.wait(5.0)
            return real(chunk, calib, state)

        monkeypatch.setattr(runtime, "asr_process_chunk", gated)
        config, registry, _ = pipeline_setup
        pipeline, sunk = collecting_pipeline(config, registry)
        pipeline.prepare()
        try:
            rng = np.random.default_rng(5)
            for _ in range(3):
                registry.publish("eeg", rng.standard_normal((4, 32)))
                assert pipeline.process() == 0  # the worker waits at the gate
            gate.set()
            deadline = time.perf_counter() + 5.0
            while pipeline.stats()["processed"] < 3 and time.perf_counter() < deadline:
                time.sleep(0.001)
            out = registry.get("eeg_clean")
            moved, seen = [], []
            for _ in range(4):
                moved.append(pipeline.process())
                seen.append(out.payload[:, : out.valid_samples].copy())
        finally:
            pipeline.release()
        assert moved == [1, 1, 1, 0]
        assert len(sunk) == 3
        for got, want in zip(seen, sunk):
            assert np.array_equal(got, want)
        assert out.published_total == 96

    def test_overwritten_input_is_counted_and_keeps_seq(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        seqs: list[int] = []
        sunk = 0

        def sink(view, n, seq):
            nonlocal sunk
            seqs.append(seq)
            sunk += n

        pipeline = Pipeline(config, registry, output_sink=sink)
        pipeline.prepare()
        data = np.ones((4, 32))
        registry.publish("eeg", data)
        pipeline.process()
        registry.publish("eeg", data)
        registry.publish("eeg", data)  # overwrites the chunk before it
        pipeline.process()
        pipeline.flush()
        stats = pipeline.stats()
        pipeline.release()
        assert sunk == 64
        assert seqs == [0, 64]
        assert stats["overwritten_in_samples"] == 32
        assert stats["dropped_in"] == 0

    def test_drop_accounting_balances(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        rng = np.random.default_rng(3)
        for _ in range(50):
            registry.publish("eeg", rng.standard_normal((4, 16)))
            pipeline.process()
        pipeline.flush()
        stats = pipeline.stats()
        pipeline.release()
        assert stats["pushed"] == stats["drained"] + stats["dropped_in"] + stats["dropped_out"]
