"""Acceptance suite: every release criterion, one test each, at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion.
"""

import dataclasses
import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import asrstream as asr
from asrstream import processing
from asrstream.cli import main
from asrstream.comparison import (
    align_for_delay,
    attenuation_metrics,
    compare,
    quality_metrics,
)
from asrstream.errors import WindowTooShort
from asrstream.io_formats import (
    load_calibration_data,
    load_calibration_state,
    load_signal_record,
    save_calibration_csv,
    save_calibration_state,
    save_signal_record,
)
from asrstream.linalg import matrix_sqrt_psd, symmetric_eig
from asrstream.oracle import oracle_process
from asrstream.runtime import Pipeline, SideChannelRegistry
from asrstream.stats import robust_covariance
from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic
from conftest import run_stream
from test_linalg import brute_force_median

SRATE = 250.0
CHUNK = 32
QUALITY_CHECK = Path(__file__).resolve().parents[1] / "scripts" / "run_quality_check.py"


def _load_quality_check():
    spec = importlib.util.spec_from_file_location("run_quality_check", QUALITY_CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(num, name, passed, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


# the five pre-registered quality-control specs, owned by the quality-check script
QC_SPECS = _load_quality_check().QC_SPECS

BURST_SPEC = SyntheticSpec(
    noise_seed=202,
    mixing_seed=21,
    events=(ArtifactEvent(20.0, 1.0, 10.0),),
)


def run_runtime_stream(calib_path, stream, channels, stepsize=32):
    """Feed a recording through the full runtime (FIFOs + worker), paced."""
    config = asr.PipelineConfig(
        sampling_rate=SRATE,
        params=asr.CalibrationParams(window_len=0.5),
        var_name="eeg",
        calibration_file_name=str(calib_path),
        fifo_capacity=8,
        stepsize=stepsize,
    )
    registry = SideChannelRegistry()
    registry.register("eeg", stride=channels, capacity=CHUNK)
    chunks = []
    pipeline = Pipeline(
        config, registry, output_sink=lambda view, n, seq: chunks.append(view.copy())
    )
    pipeline.prepare()
    for pos in range(0, stream.shape[1], CHUNK):
        pipeline.feed(stream[:, pos : pos + CHUNK])
    pipeline.flush()
    stats = pipeline.stats()
    pipeline.release()
    return np.hstack(chunks), stats


@pytest.fixture(scope="module")
def burst_run():
    calibration, recording, mask = generate_synthetic(BURST_SPEC)
    state = asr.asr_calibrate(calibration, SRATE)
    out8, proc8 = run_stream(recording, state, chunk_size=8)
    out250, _ = run_stream(recording, state, chunk_size=250)
    return recording, mask, state, out8, out250, proc8


def test_criterion_01_oracle_equivalence(tmp_path):
    worst = 0.0
    details = []
    for name, spec, coeffs in QC_SPECS:
        started = time.perf_counter()
        calibration, recording, _ = generate_synthetic(spec)
        filter_b, filter_a = coeffs if coeffs else (None, None)
        calib_path = tmp_path / f"{name}.csv"
        save_calibration_csv(calib_path, calibration, filter_b=filter_b, filter_a=filter_a)
        got, stats = run_runtime_stream(calib_path, recording, spec.channels)
        assert stats["dropped_in"] == 0 and stats["errors"] == 0
        want = oracle_process(
            recording,
            calibration,
            srate=SRATE,
            filter_b=filter_b,
            filter_a=filter_a,
        )
        rep = compare(got, want, 1e-5)
        elapsed = time.perf_counter() - started
        details.append(f"{name}: rel {rep.max_relative_error:.2e}, {elapsed:.1f}s")
        worst = max(worst, rep.max_relative_error)
        assert rep.passed, f"{name}: {rep.summary()}"
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s (expected < 10s)"
    report(1, "oracle equivalence at 1e-5 on 5 seeded specs", worst <= 1e-5,
           "; ".join(details))


def test_oracle_agreement_where_rejection_is_common():
    # three 1 s bursts, each in its own direction, fill the windows of all
    # but the first few updates (two bursts share some of them), so the
    # reconstruction path is compared with the oracle's naive pinv at almost
    # every update instead of at a handful
    spec = SyntheticSpec(
        channels=24,
        srate=500.0,
        duration=4.0,
        calibration_duration=10.0,
        mixing_seed=31,
        noise_seed=301,
        events=(
            ArtifactEvent(0.25, 1.0, 10.0),
            ArtifactEvent(1.5, 1.0, 10.0),
            ArtifactEvent(2.75, 1.0, 10.0),
        ),
    )
    started = time.perf_counter()
    calibration, recording, _ = generate_synthetic(spec)
    state = asr.asr_calibrate(calibration, spec.srate)
    got, proc = run_stream(recording, state, chunk_size=CHUNK)
    want = oracle_process(recording, calibration, srate=spec.srate)
    elapsed = time.perf_counter() - started
    reject_share = np.mean([n > 0 for _, n in proc.update_log])
    assert reject_share > 0.5, f"only {reject_share:.0%} of updates rejected"
    rep = compare(got, want, 1e-5)
    assert rep.passed, rep.summary()
    assert elapsed < 10.0, f"took {elapsed:.1f}s (expected < 10s)"


def test_criterion_02_shape_contract(clean_calibration):
    _, state = clean_calibration
    rng = np.random.default_rng(0)
    ok = True
    for size in (1, 7, 8, 32, 250):
        proc = asr.ProcessorState.initial(state)
        for start in range(0, 4 * size, size):
            chunk = asr.MultichannelChunk(rng.standard_normal((4, size)), SRATE, start)
            out, proc = asr.asr_process_chunk(chunk, state, proc)
            ok = ok and out.data.shape == chunk.data.shape
    report(2, "shape preserved for chunk sizes {1,7,8,32,250}", ok)


def test_criterion_03_identity_path():
    spec = SyntheticSpec(noise_seed=301, mixing_seed=31)
    calibration, recording, _ = generate_synthetic(spec)
    state = asr.asr_calibrate(calibration, SRATE, asr.CalibrationParams(cutoff=20.0))
    out, proc = run_stream(recording, state, chunk_size=CHUNK)

    updates = proc.update_log
    identity_fraction = sum(1 for _, n in updates if n == 0) / len(updates)

    lookahead = proc.lookahead
    delayed = np.concatenate(
        [np.zeros((spec.channels, lookahead)), recording[:, :-lookahead]], axis=1
    )
    # samples whose blend uses two identity matrices must equal delayed input
    worst = 0.0
    checked = 0
    boundaries = [t for t, _ in updates]
    flags = [n == 0 for _, n in updates]
    prev_flag = True  # stream starts with both matrices identity
    span_start = 0
    for i, t in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < len(boundaries) else recording.shape[1]
        if flags[i] and prev_flag:
            seg = np.abs(out[:, t:end] - delayed[:, t:end]).max() if end > t else 0.0
            worst = max(worst, float(seg))
            checked += end - t
        prev_flag = flags[i]
    head = np.abs(out[:, : boundaries[0]] - delayed[:, : boundaries[0]]).max()
    worst = max(worst, float(head))
    ok = identity_fraction >= 0.99 and worst <= 1e-9
    report(
        3,
        "identity path at cutoff 20",
        ok,
        f"identity updates {identity_fraction:.4f}, max deviation {worst:.1e} "
        f"over {checked} samples",
    )


def test_criterion_04_artifact_attenuation(burst_run):
    recording, mask, state, out8, _, proc8 = burst_run
    cleaned, raw, mask_aligned = align_for_delay(out8, recording, mask, proc8.lookahead)
    metrics = attenuation_metrics(cleaned, raw, mask_aligned)
    ok = (
        metrics.artifact_rms_reduction is not None
        and metrics.artifact_rms_reduction >= 0.5
        and metrics.clean_rms_change is not None
        and metrics.clean_rms_change <= 0.05
    )
    report(
        4,
        "artifact attenuation on the 10x burst spec",
        ok,
        f"reduction {metrics.artifact_rms_reduction:.3f}, "
        f"clean change {metrics.clean_rms_change:.4f}",
    )


def test_criterion_05_chunking_invariance(burst_run):
    _, _, _, out8, out250, _ = burst_run
    rep = compare(out8, out250, 1e-10)
    report(
        5,
        "chunk 8 vs 250 within 1e-10 over 60 s",
        rep.passed,
        f"max rel {rep.max_relative_error:.2e}",
    )


# an entry counts against process() only if its traceback passes through the
# lines of Pipeline.process; the worker thread's allocations never do
_PROCESS_CODE = Pipeline.process.__code__
_PROCESS_LINES = frozenset(
    line for _, _, line in _PROCESS_CODE.co_lines() if line is not None
)


def process_offenders(growth):
    """Snapshot-diff entries of at least 2 KiB allocated through
    ``Pipeline.process``, as ``(size_diff, innermost frame)`` pairs."""
    offenders = []
    for entry in growth:
        if entry.size_diff < 2048:  # a chunk buffer is 4*64*8 = 2 KiB
            continue
        if any(
            f.filename == _PROCESS_CODE.co_filename and f.lineno in _PROCESS_LINES
            for f in entry.traceback
        ):
            offenders.append((entry.size_diff, str(entry.traceback[-1])))
    return offenders


def realtime_pipeline(tmp_path, state, output_sink=None, fifo_capacity=8):
    """A prepared 4-channel pipeline with its freelists and worker warmed up."""
    calib_path = tmp_path / "state.json"
    save_calibration_state(calib_path, state)
    config = asr.PipelineConfig(
        sampling_rate=SRATE,
        params=asr.CalibrationParams(window_len=0.5),
        var_name="eeg",
        calibration_file_name=str(calib_path),
        fifo_capacity=fifo_capacity,
    )
    registry = SideChannelRegistry()
    registry.register("eeg", stride=4, capacity=64)
    pipeline = Pipeline(config, registry, output_sink=output_sink)
    pipeline.prepare()
    rng = np.random.default_rng(1)
    block = rng.standard_normal((4, 64))
    for _ in range(20):  # warm up freelists and the worker
        registry.publish("eeg", block)
        pipeline.process()
    time.sleep(0.05)
    return registry, pipeline, block


def traced_window(registry, pipeline, block):
    """Heap growth retained across 200 publish/process() rounds, by traceback."""
    tracemalloc.start(25)
    snap_before = tracemalloc.take_snapshot()
    for _ in range(200):
        registry.publish("eeg", block)
        pipeline.process()
    snap_after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    return snap_after.compare_to(snap_before, "traceback")


def test_criterion_06_realtime_safety(tmp_path, clean_calibration):
    _, state = clean_calibration
    registry, pipeline, block = realtime_pipeline(tmp_path, state)

    # no lock acquisitions inside process(): watch C-level calls
    c_calls: list[str] = []

    def profiler(frame, event, arg):
        if event == "c_call":
            c_calls.append(getattr(arg, "__qualname__", None) or repr(arg))

    sys.setprofile(profiler)
    try:
        for _ in range(10):
            registry.publish("eeg", block)
            pipeline.process()
    finally:
        sys.setprofile(None)
    locky = [c for c in c_calls if "lock" in c.lower() or "acquire" in c.lower()]

    # no buffer-sized heap growth retained across the window and allocated
    # through process() on the caller thread; the worker thread allocates by
    # design and is out of scope
    offenders = process_offenders(traced_window(registry, pipeline, block))

    time.sleep(0.05)
    pipeline.flush()
    started = time.perf_counter()
    pipeline.release()
    join_time = time.perf_counter() - started

    ok = not locky and not offenders and join_time < 0.1
    report(
        6,
        "process() lock-free and allocation-free; release() joins fast",
        ok,
        f"lock calls {locky or 'none'}, retained >= 2 KiB allocated through "
        f"process() on the caller thread {offenders or 'none'}, "
        f"join {join_time * 1000:.1f} ms",
    )


def test_criterion_06_check_sees_process_allocations(tmp_path, clean_calibration):
    """The narrowed check still fails when process() itself retains buffers:
    a sink that keeps a copy of each drained chunk runs inside process()."""
    _, state = clean_calibration
    kept = []
    registry, pipeline, block = realtime_pipeline(
        tmp_path, state, output_sink=lambda view, n, seq: kept.append(view.copy())
    )
    drained_before = len(kept)
    offenders = process_offenders(traced_window(registry, pipeline, block))
    drained = len(kept) - drained_before
    pipeline.flush()
    pipeline.release()
    assert drained > 0, "no chunk was drained during the window"
    assert offenders, f"{drained} retained chunk copies went unreported"


PER_CALL_ROUNDS = 10


def per_call_rises(tmp_path, state, monkeypatch, output_sink=None):
    """How far tracemalloc's peak rises above the pre-call size in each of
    ``PER_CALL_ROUNDS`` publish + ``process()`` calls, as ``(rise, chunks
    drained)`` pairs. The peak counter is process-wide, so the worker is
    patched to exit at prepare and the outbound ring is pre-filled: each
    call then drains one chunk with no other thread allocating, and a buffer
    that ``process()`` allocates and frees within the call shows."""
    monkeypatch.setattr(Pipeline, "_worker_loop", lambda pipeline: None)
    registry, pipeline, block = realtime_pipeline(
        tmp_path, state, output_sink, fifo_capacity=2 * PER_CALL_ROUNDS
    )
    for seq in range(PER_CALL_ROUNDS):
        pipeline._outbound.push(block, block.shape[1], seq)
    rises = []
    tracemalloc.start()
    try:
        for _ in range(PER_CALL_ROUNDS):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            registry.publish("eeg", block)
            drained = pipeline.process()
            rises.append((tracemalloc.get_traced_memory()[1] - before, drained))
    finally:
        tracemalloc.stop()
    pipeline.release()
    return rises


def test_criterion_06_no_transient_buffer_per_call(tmp_path, clean_calibration, monkeypatch):
    _, state = clean_calibration
    rises = per_call_rises(tmp_path, state, monkeypatch)
    report(
        6,
        "publish + process() allocates no chunk buffer, even within one call",
        all(rise < 2048 and drained == 1 for rise, drained in rises),
        f"peak rise per call {sorted({rise for rise, _ in rises})} bytes, "
        f"chunks drained {sum(drained for _, drained in rises)}/{PER_CALL_ROUNDS}",
    )


def test_criterion_06_per_call_check_sees_transient_buffers(
    tmp_path, clean_calibration, monkeypatch
):
    """A sink that copies the view and drops the copy inside process()
    leaves nothing retained, and the per-call check still trips."""
    _, state = clean_calibration
    rises = per_call_rises(
        tmp_path, state, monkeypatch, output_sink=lambda view, n, seq: view.copy()
    )
    assert all(drained == 1 for _, drained in rises)
    assert all(rise >= 2048 for rise, _ in rises), rises


def test_criterion_07_throughput():
    spec = SyntheticSpec(
        channels=24, srate=500.0, duration=10.0, calibration_duration=20.0,
        noise_seed=401, mixing_seed=41,
    )
    calibration, recording, _ = generate_synthetic(spec)
    state = asr.asr_calibrate(calibration, spec.srate)
    n = recording.shape[1]
    started = time.perf_counter()
    asr.clean_recording(recording, state, 256)
    elapsed = time.perf_counter() - started
    factor = (n / spec.srate) / elapsed
    report(
        7,
        "sustained >= 10x real time at 24 ch / 500 Hz",
        factor >= 10.0,
        f"{factor:.0f}x ({n / elapsed:,.0f} samples/s)",
    )


def test_criterion_08_kernel_suites():
    rng = np.random.default_rng(7)
    # calibration's sample-space Weiszfeld against a textbook one over the
    # explicit block covariance vectors B_k = X_k X_k^T / b, on inputs of
    # tens of blocks: the shortest data calibration accepts at the default
    # parameters holds 41 blocks at 250 Hz
    worst_median = 0.0
    for _ in range(100):
        c, b = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        x = rng.standard_normal((c, b * int(rng.integers(20, 100))))
        blocks = x.reshape(c, -1, b).transpose(1, 0, 2)
        vectors = (blocks @ blocks.transpose(0, 2, 1)).reshape(len(blocks), -1) / b
        want = brute_force_median(vectors).reshape(c, c)
        got = robust_covariance(x, b)
        worst_median = max(worst_median, float(np.linalg.norm(got - (want + want.T) / 2)))

    b = rng.standard_normal((8, 8))
    a = b @ b.T
    s = matrix_sqrt_psd(a)
    sqrt_rel = np.linalg.norm(s @ s - a) / np.linalg.norm(a)

    sym = rng.standard_normal((8, 8))
    sym = (sym + sym.T) / 2
    vals, vecs = symmetric_eig(sym)
    eig_resid = np.linalg.norm(sym @ vecs - vecs * vals) / np.linalg.norm(sym)

    x = rng.standard_normal((2, 300))
    fb, fa = [0.2, 0.3, 0.1], [1.0, -0.4, 0.05]
    whole, _ = asr.iir_filter(x, fb, fa)
    state = np.zeros((2, 2))
    parts = []
    for start in range(0, 300, 7):
        part, state = asr.iir_filter(x[:, start : start + 7], fb, fa, state)
        parts.append(part)
    iir_diff = np.abs(np.hstack(parts) - whole).max()

    # an update's closed-form reconstruction against the textbook
    # M pinv(D V^T M) V^T, with D the diagonal of the keep flags
    worst_recon = 0.0
    for c in (4, 24, 64):
        for _ in range(5):
            g = rng.standard_normal((c, c))
            mixing = matrix_sqrt_psd(g @ g.T / c + 0.1 * np.eye(c))
            calib = asr.CalibrationState(
                mixing=mixing, threshold=np.eye(c), filter_b=(1.0,), filter_a=(1.0,),
                srate=SRATE, params=asr.CalibrationParams(),
            )
            sym = rng.standard_normal((c, c))
            vecs = np.linalg.eigh(sym + sym.T)[1]
            keep = rng.random(c) < 0.5
            keep[0], keep[-1] = True, False
            want = mixing @ np.linalg.pinv(keep[:, None] * (vecs.T @ mixing)) @ vecs.T
            got = processing._reconstruct(calib, vecs[:, ~keep])
            worst_recon = max(
                worst_recon, float(np.linalg.norm(got - want) / np.linalg.norm(want))
            )

    ok = (
        worst_median < 1e-8
        and sqrt_rel < 1e-10
        and eig_resid < 1e-9
        and iir_diff < 1e-12
        and worst_recon < 1e-8
    )
    report(
        8,
        "kernel tolerances",
        ok,
        f"median {worst_median:.1e}, sqrt {sqrt_rel:.1e}, eig {eig_resid:.1e}, "
        f"iir {iir_diff:.1e}, reconstruction {worst_recon:.1e}",
    )


def test_criterion_09_formats_and_window_rule(tmp_path, clean_calibration):
    data, state = clean_calibration
    csv_path = tmp_path / "c.csv"
    save_calibration_csv(csv_path, data[:, :500], filter_b=[0.5, 0.5], filter_a=[1.0])
    csv_ok = np.array_equal(load_calibration_data(csv_path)[0], data[:, :500])

    state_path = tmp_path / "s.json"
    save_calibration_state(state_path, state)
    back = load_calibration_state(state_path)
    state_ok = (
        np.array_equal(back.mixing, state.mixing)
        and np.array_equal(back.threshold, state.threshold)
        and back.params == state.params
        and back.srate == state.srate
        and back.filter_b == state.filter_b
        and back.filter_a == state.filter_a
    )

    rec = asr.SignalRecord(data[:, :400], SRATE)
    rec_path = tmp_path / "r.csv"
    save_signal_record(rec_path, rec)
    back_rec = load_signal_record(rec_path)
    record_ok = np.array_equal(back_rec.data, rec.data) and back_rec.srate == rec.srate

    calibrate_raises = False
    try:
        asr.asr_calibrate(
            np.random.default_rng(0).standard_normal((32, 5000)),
            SRATE,
            asr.CalibrationParams(window_len=0.05),
        )
    except WindowTooShort as exc:
        calibrate_raises = "1.5x" in str(exc)

    prepare_raises = False
    registry = SideChannelRegistry()
    registry.register("eeg", stride=4, capacity=64)
    config = asr.PipelineConfig(
        sampling_rate=SRATE,
        params=asr.CalibrationParams(window_len=0.02),  # 5 samples < 1.5 * 4
        var_name="eeg",
        calibration_file_name=str(csv_path),
    )
    try:
        Pipeline(config, registry).prepare()
    except WindowTooShort as exc:
        prepare_raises = "1.5x" in str(exc)

    ok = csv_ok and state_ok and record_ok and calibrate_raises and prepare_raises
    report(
        9,
        "format round trips value-exact; window rule enforced at both stages",
        ok,
        f"csv {csv_ok}, state {state_ok}, record {record_ok}, "
        f"calibrate-rule {calibrate_raises}, prepare-rule {prepare_raises}",
    )


def test_criterion_10_determinism(tmp_path):
    sim = [
        "simulate",
        "--channels", "4",
        "--srate", "250",
        "--duration", "15",
        "--calibration-duration", "15",
        "--seed", "77",
        "--burst", "5:1:10",
        "--output-record", str(tmp_path / "rec.csv"),
        "--output-calibration", str(tmp_path / "calib.csv"),
    ]
    assert main(sim) == 0
    proc = [
        "process",
        "--calibration", str(tmp_path / "calib.csv"),
        "--input", str(tmp_path / "rec.csv"),
        "--chunk", "32",
    ]
    assert main(proc + ["--output", str(tmp_path / "a.csv")]) == 0
    assert main(proc + ["--output", str(tmp_path / "b.csv")]) == 0
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    report(10, "two full pipeline runs are bit-identical", identical)


@pytest.mark.parametrize("channels, srate", [(8, 250.0), (24, 500.0), (64, 1000.0)])
def test_criterion_11_cleaning_quality_at_every_channel_count(channels, srate):
    # one 1 s burst of amplitude 10 in 30 s, over five seeds; the clean
    # reference is the same spec without its burst
    residuals, far_fields = [], []
    for i in range(5):
        spec = SyntheticSpec(
            channels=channels,
            srate=srate,
            duration=30.0,
            calibration_duration=30.0,
            mixing_seed=7 + i,
            noise_seed=13 + i,
            events=(ArtifactEvent(15.0, 1.0, 10.0),),
        )
        calibration, recording, mask = generate_synthetic(spec)
        _, clean, _ = generate_synthetic(dataclasses.replace(spec, events=()))
        state = asr.asr_calibrate(calibration, srate)
        out, proc = run_stream(recording, state, chunk_size=CHUNK)
        cleaned, raw, aligned = align_for_delay(out, recording, mask, proc.lookahead)
        metrics = quality_metrics(
            cleaned, raw, clean[:, : raw.shape[1]], aligned, state.window_samples()
        )
        residuals.append(metrics.residual)
        far_fields.append(metrics.far_field)
    ok = max(residuals) <= 0.15 and max(far_fields) <= 0.01
    report(
        11,
        f"residual <= 0.15 and far field <= 1% at {channels} ch over 5 seeds",
        ok,
        f"residual max {max(residuals):.3f}, far field max {max(far_fields):.2%}",
    )
