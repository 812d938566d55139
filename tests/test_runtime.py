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
from asrstream.errors import InvalidLifecycle, PrepareFailed, WindowTooShort
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

    def test_overwrite_drops_oldest_and_counts(self):
        fifo = make_fifo(capacity=4)
        for i in range(4):
            fifo.push(np.full((2, 2), float(i)), 2, i)
        assert fifo.dropped == 0
        fifo.push(np.full((2, 2), 4.0), 2, 4)  # fifth push overwrites chunk 0
        assert fifo.dropped == 1
        dst = np.zeros((2, 8))
        seqs = []
        while (res := fifo.pop_into(dst)) is not None:
            seqs.append(res[1])
        assert seqs == [1, 2, 3, 4]  # oldest (0) is gone

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
        fifo = make_fifo(capacity=8, channels=1, chunk=1)
        total = 20000
        popped: list[int] = []

        def consumer():
            dst = np.zeros((1, 1))
            misses = 0
            while misses < 2000:
                res = fifo.pop_into(dst)
                if res is None:
                    if fifo.pushed >= total:
                        misses += 1
                    time.sleep(0)
                    continue
                misses = 0
                popped.append(int(dst[0, 0]))

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(total):
            fifo.push(np.full((1, 1), float(i)), 1, i)
        thread.join(timeout=30)
        assert not thread.is_alive()
        # popped payloads are a strictly increasing subsequence of pushes
        assert all(b > a for a, b in zip(popped, popped[1:]))
        assert len(popped) + fifo.dropped >= total
        assert len(set(popped)) == len(popped)


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

    def test_locked_variable_cannot_be_resized(self):
        reg = SideChannelRegistry()
        reg.register("eeg", stride=2, capacity=8)
        reg.lock("eeg")
        with pytest.raises(InvalidLifecycle):
            reg.register("eeg", stride=3, capacity=8)
        reg.unlock("eeg")
        reg.register("eeg", stride=3, capacity=8)  # fine once unlocked


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
        chunk_capacity=64,
        fifo_capacity=8,
    )
    registry = SideChannelRegistry()
    registry.register("eeg", stride=state.channels, capacity=64)
    return config, registry, state


def stream_through(pipeline, registry, stream, chunk=32, var="eeg"):
    outputs = []
    pos = 0
    n = stream.shape[1]
    while pos < n:
        end = min(n, pos + chunk)
        registry.publish(var, stream[:, pos:end])
        pipeline.process()
        pos = end
    pipeline.flush(timeout=5.0)
    return outputs


class TestPipelineLifecycle:
    def test_prepare_registers_output_variable(self, pipeline_setup):
        config, registry, state = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        try:
            out = registry.get("eeg_clean")
            assert out.stride == state.channels
            assert registry.get("eeg").locked
        finally:
            pipeline.release()
        assert not registry.get("eeg").locked

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
            chunk_capacity=64,
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
        "                            calibration_file_name='unused', chunk_capacity=64)\n"
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

        chunks: list[np.ndarray] = []
        pipeline = Pipeline(
            config, registry, output_sink=lambda view, n, seq: chunks.append(view.copy())
        )
        pipeline.prepare()
        pos = 0
        while pos < stream.shape[1]:
            end = min(stream.shape[1], pos + 32)
            # file-driven producer: hold back instead of overrunning the ring
            while pipeline.in_flight() >= config.fifo_capacity - 1:
                pipeline.process()
                time.sleep(0.0002)
            registry.publish("eeg", stream[:, pos:end])
            pipeline.process()
            pos = end
        pipeline.flush(timeout=5.0)
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

    def test_stalled_worker_drops_oldest_without_blocking(self, pipeline_setup, monkeypatch):
        config, registry, _ = pipeline_setup
        small = asr.PipelineConfig(
            sampling_rate=config.sampling_rate,
            params=config.params,
            var_name="eeg",
            calibration_file_name=config.calibration_file_name,
            chunk_capacity=64,
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

    def test_nan_chunk_fails_open(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        config = dataclasses.replace(config, lookahead=8)
        chunks: list[np.ndarray] = []
        pipeline = Pipeline(
            config, registry, output_sink=lambda view, n, seq: chunks.append(view.copy())
        )
        pipeline.prepare()
        bad = np.ones((4, 16))
        bad[2, 5] = np.nan
        registry.publish("eeg", bad)
        pipeline.process()
        pipeline.flush(timeout=5.0)
        stats = pipeline.stats()

        # the poisoned chunk is forwarded uncleaned, delayed by the lookahead,
        # and counted
        assert stats["errors"] == 1
        assert len(chunks) == 1
        assert np.array_equal(chunks[0], np.hstack([np.zeros((4, 8)), bad[:, :8]]), equal_nan=True)

        # and the stream keeps working afterwards, with the rest of it in line
        good = np.ones((4, 16))
        registry.publish("eeg", good)
        pipeline.process()
        pipeline.flush(timeout=5.0)
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
        chunks: list[np.ndarray] = []
        pipeline = Pipeline(
            config, registry, output_sink=lambda view, n, seq: chunks.append(view.copy())
        )
        pipeline.prepare()
        lookahead = pipeline._proc_state.lookahead
        # half the calibration noise's scale: no update rejects anything
        stream = 0.5 * np.random.default_rng(17).standard_normal((4, 20 * 16))
        try:
            for pos in range(0, stream.shape[1], 16):
                while pipeline.in_flight() >= config.fifo_capacity - 1:
                    pipeline.process()
                    time.sleep(0.0002)
                registry.publish("eeg", stream[:, pos : pos + 16])
                pipeline.process()
            pipeline.flush(timeout=5.0)
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
        chunks: list[np.ndarray] = []
        pipeline = Pipeline(
            config, registry, output_sink=lambda view, n, seq: chunks.append(view.copy())
        )
        pipeline.prepare()
        try:
            rng = np.random.default_rng(11)
            for _ in range(6):
                while pipeline.in_flight() >= config.fifo_capacity - 1:
                    pipeline.process()
                    time.sleep(0.0002)
                registry.publish("eeg", rng.standard_normal((4, 16)))
                pipeline.process()
            pipeline.flush(timeout=5.0)
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
                    while pipeline.in_flight() >= config.fifo_capacity - 1:
                        pipeline.process()
                        time.sleep(0.0002)
                    registry.publish("eeg", np.zeros((4, 16)))
                    pipeline.process()
                pipeline.flush(timeout=5.0)
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
            pipeline.flush(timeout=5.0)
            elapsed = time.perf_counter() - start
            stats = pipeline.stats()
            in_flight = pipeline.in_flight()
        finally:
            pipeline.release()
        assert elapsed < 1.0
        assert stats["worker_alive"] == 0
        assert in_flight > 0  # the chunks the worker never cleaned stay counted

    def test_drop_accounting_balances(self, pipeline_setup):
        config, registry, _ = pipeline_setup
        pipeline = Pipeline(config, registry)
        pipeline.prepare()
        rng = np.random.default_rng(3)
        for _ in range(50):
            registry.publish("eeg", rng.standard_normal((4, 16)))
            pipeline.process()
        pipeline.flush(timeout=5.0)
        stats = pipeline.stats()
        pipeline.release()
        assert stats["pushed"] == stats["drained"] + stats["dropped_in"] + stats["dropped_out"]
