import copy
import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asrstream as asr
from asrstream import processing
from asrstream.errors import (
    CalibrationDegenerate,
    ChannelMismatch,
    InvalidInput,
    InvalidValue,
)
from conftest import SRATE, run_stream


def detect_one(cov, state):
    """:func:`processing.detect` on the one-matrix stack ``[cov]``: that
    update's eigenvalues, eigenvectors, keep flags and reconstruction (None
    when nothing is rejected)."""
    eigvals, eigvecs, keep, (recon,) = processing.detect(np.asarray(cov)[None], state)
    return eigvals[0], eigvecs[0], keep[0], recon


class TestDetectOne:
    def test_calibration_covariance_keeps_everything(self, clean_calibration):
        _, state = clean_calibration
        _, _, keep, recon = detect_one(state.mixing @ state.mixing, state)
        assert keep.all()
        assert recon is None

    def test_zero_budget_forces_identity(self, clean_calibration):
        _, state = clean_calibration
        cov = np.eye(state.channels) * 1e6  # wildly above any threshold
        params = dataclasses.replace(state.params, max_dims_fraction=0.2)  # floor(0.2 * 4) = 0
        _, _, keep, recon = detect_one(cov, dataclasses.replace(state, params=params))
        assert keep.all()
        assert recon is None

    def test_scaled_eigendirection_is_rejected(self, clean_calibration):
        _, state = clean_calibration
        c = state.channels
        u = np.full(c, 1.0) / np.sqrt(c)
        cov = state.mixing @ state.mixing + 100.0 * np.outer(u, u)
        _, eigvecs, keep, recon = detect_one(cov, state)
        assert np.count_nonzero(~keep) == 1
        assert not keep[-1]  # the largest eigenvalue is the spiked one
        assert np.linalg.norm(recon @ eigvecs[:, -1]) < 0.2

    def test_rejection_budget_capped(self, clean_calibration):
        _, state = clean_calibration
        c = state.channels
        budget = int(np.floor(state.params.max_dims_fraction * c))
        _, _, keep, _ = detect_one(np.eye(c) * 1e9, state)
        assert np.count_nonzero(~keep) == budget
        assert keep[: c - budget].all()

    def test_eigvecs_orthonormal_and_ascending(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(5)
        b = rng.standard_normal((state.channels, state.channels))
        eigvals, eigvecs, _, _ = detect_one(b @ b.T, state)
        c = state.channels
        assert np.linalg.norm(eigvecs.T @ eigvecs - np.eye(c)) < 1e-8
        assert np.all(np.diff(eigvals) >= 0)

    def test_non_finite_rejected(self, clean_calibration):
        _, state = clean_calibration
        cov = np.eye(state.channels)
        cov[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            detect_one(cov, state)

    def test_asymmetric_covariance_gives_the_symmetrized_update(self, clean_calibration):
        _, state = clean_calibration
        c = state.channels
        rng = np.random.default_rng(8)
        b = rng.standard_normal((c, c))
        cov = 50.0 * b @ b.T + rng.standard_normal((c, c))  # far from symmetric
        got = detect_one(cov, state)
        want = detect_one((cov + cov.T) / 2.0, state)
        assert np.count_nonzero(~got[2]) > 0
        for name, g, w in zip(("eigvals", "eigvecs", "keep", "reconstruction"), got, want):
            assert np.array_equal(g, w), name


def _detection_case(mixing, seed, reject=None, fraction=1.0):
    """A calibration state around ``mixing`` with the rejection budget
    ``fraction``, and a covariance whose update rejects the components
    flagged in ``reject`` (ascending order; by default a random mask with at
    least one kept and one rejected) when every component is within the
    budget."""
    c = mixing.shape[0]
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((c, c)))[0]
    eigvals = np.sort(rng.uniform(0.5, 2.0, c))
    if reject is None:
        reject = rng.random(c) < 0.5
        reject[0], reject[-1] = False, True
    limits = np.where(reject, eigvals / 2.0, eigvals * 2.0)
    state = asr.CalibrationState(
        mixing=mixing,
        threshold=np.sqrt(limits)[:, None] * basis.T,
        filter_b=(1.0,),
        filter_a=(1.0,),
        srate=SRATE,
        params=asr.CalibrationParams(max_dims_fraction=fraction),
    )
    return state, (basis * eigvals) @ basis.T, reject


def _pinv_reconstruction(eigvecs, keep, mixing):
    """The textbook form ``M pinv(D V^T M) V^T`` through the SVD pinv."""
    proj = eigvecs.T @ mixing
    proj[~keep] = 0.0
    return mixing @ asr.pinv(proj) @ eigvecs.T


def _clamped_mixing(c, rank, seed):
    """PSD square root of a rank-deficient covariance, floored by
    matrix_sqrt_psd's eigenvalue clamp (condition number ~1e6)."""
    b = np.random.default_rng(seed).standard_normal((c, rank))
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        return asr.matrix_sqrt_psd(b @ b.T)


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestClosedFormReconstruction:
    @pytest.mark.parametrize("c", [4, 24, 64])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pinv_form(self, c, seed):
        b = np.random.default_rng(1000 + seed).standard_normal((c, c))
        mixing = asr.matrix_sqrt_psd(b @ b.T / c + 0.1 * np.eye(c))
        state, cov, reject = _detection_case(mixing, seed)
        _, eigvecs, keep, recon = detect_one(cov, state)
        assert np.array_equal(~keep, reject)
        assert _rel_err(recon, _pinv_reconstruction(eigvecs, keep, mixing)) < 1e-10

    @pytest.mark.parametrize("c, rank", [(4, 2), (4, 1), (24, 12), (24, 1), (64, 32), (64, 1)])
    def test_matches_pinv_form_on_clamped_mixing(self, c, rank):
        # both forms carry a forward error of order eps * cond(M) here (the
        # mpmath test below measures it), so they agree to that order only
        mixing = _clamped_mixing(c, rank, seed=c)
        state, cov, reject = _detection_case(mixing, seed=c)
        _, eigvecs, keep, recon = detect_one(cov, state)
        assert np.array_equal(~keep, reject)
        bound = 10 * np.finfo(float).eps * np.linalg.cond(mixing)
        assert _rel_err(recon, _pinv_reconstruction(eigvecs, keep, mixing)) < bound

    @pytest.mark.parametrize("c", [4, 8, 24])
    def test_accurate_on_clamped_mixing(self, c):
        mp = pytest.importorskip("mpmath")
        mixing = _clamped_mixing(c, 1, seed=c)
        state, cov, _ = _detection_case(mixing, seed=c)
        _, eigvecs, keep, recon = detect_one(cov, state)
        with mp.workdps(60):
            m = mp.matrix(mixing.tolist())
            kept = mp.matrix(eigvecs[:, keep].tolist())
            a = kept.T * m
            exact = m * a.T * mp.inverse(a * a.T) * kept.T
            exact = np.array(exact.tolist(), dtype=float)
        # the Gram solve (V_k^T C V_k)^-1 squares cond(M) and lands near 1e-4
        bound = 10 * np.finfo(float).eps * np.linalg.cond(mixing)
        assert _rel_err(recon, exact) < bound

    def test_everything_rejected_gives_zero(self):
        mixing = np.diag([1.0, 2.0, 3.0])
        state, cov, _ = _detection_case(mixing, seed=0)
        _, eigvecs, keep, recon = detect_one(cov * 1e9, state)
        assert not keep.any()
        assert np.array_equal(recon, _pinv_reconstruction(eigvecs, keep, mixing))

    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("fraction", [1 / 64, 0.66])
    def test_one_and_the_whole_budget_at_64_channels(self, fraction, clamped):
        c = 64
        n_reject = int(np.floor(fraction * c))  # 1, and the default budget 42
        if clamped:
            mixing = _clamped_mixing(c, 32, seed=n_reject)
            bound = 10 * np.finfo(float).eps * np.linalg.cond(mixing)
        else:
            b = np.random.default_rng(n_reject).standard_normal((c, c))
            mixing = asr.matrix_sqrt_psd(b @ b.T / c + 0.1 * np.eye(c))
            bound = 1e-10
        reject = np.arange(c) >= c - n_reject
        state, cov, _ = _detection_case(mixing, seed=n_reject, reject=reject, fraction=fraction)
        _, eigvecs, keep, recon = detect_one(cov, state)
        assert np.array_equal(~keep, reject)
        assert _rel_err(recon, _pinv_reconstruction(eigvecs, keep, mixing)) < bound

    def test_singular_mixing_is_degenerate_with_few_kept(self):
        # rank 3 of 4 with one kept vector: M V_k has full column rank, so
        # the pinv form is defined, but the reconstruction from the rejected
        # vectors needs M^-1 and a singular M is out of its domain
        b = np.random.default_rng(3).standard_normal((4, 3))
        reject = np.array([False, True, True, True])
        state, cov, _ = _detection_case(b @ b.T, seed=3, reject=reject)
        assert np.linalg.matrix_rank(state.mixing) == 3
        with pytest.raises(CalibrationDegenerate, match="singular"):
            detect_one(cov, state)

    def test_singular_mixing_is_degenerate(self):
        u = np.array([1.0, 2.0, -1.0, 0.5]) / 2.5
        state, cov, reject = _detection_case(np.outer(u, u), seed=2)
        assert np.count_nonzero(~reject) >= 2  # more kept rows than rank(M)
        with pytest.raises(CalibrationDegenerate):
            detect_one(cov, state)


class TestBatchedDetection:
    def test_one_update_matches_the_batched_step(self):
        c = 24
        b = np.random.default_rng(7).standard_normal((c, c))
        mixing = asr.matrix_sqrt_psd(b @ b.T / c + 0.1 * np.eye(c))
        state, cov, reject = _detection_case(mixing, seed=7)
        covs = np.stack([cov, mixing @ mixing * 1e-3, cov * 1e9, cov.T * 2.0])
        eigvals, eigvecs, keep, recons = processing.detect(covs, state)
        assert np.array_equal(~keep[0], reject)
        assert recons[1] is None and not keep[2].any()  # nothing and everything rejected
        for i, cov_i in enumerate(covs):
            one = detect_one(cov_i, state)
            for name, got, want in zip(
                ("eigvals", "eigvecs", "keep", "reconstruction"),
                one,
                (eigvals[i], eigvecs[i], keep[i], recons[i]),
            ):
                assert np.array_equal(got, want), (i, name)

    @pytest.mark.parametrize("c", [4, 64])
    def test_reconstruction_ignores_eigenvector_signs(self, c):
        b = np.random.default_rng(c).standard_normal((c, c))
        mixing = asr.matrix_sqrt_psd(b @ b.T / c + 0.1 * np.eye(c))
        state, cov, _ = _detection_case(mixing, seed=c)
        _, eigvecs, keep, recon = detect_one(cov, state)
        rejected = eigvecs[:, ~keep]
        signs = np.where(np.random.default_rng(0).random(rejected.shape[1]) < 0.5, -1.0, 1.0)
        signs[0] = -1.0
        flipped = processing._reconstruct(state, rejected * signs)
        assert np.array_equal(flipped, processing._reconstruct(state, rejected))
        assert np.array_equal(flipped, recon)

    def test_one_eigh_per_chunk_with_an_update_instant(self, clean_calibration, monkeypatch):
        _, state = clean_calibration
        assert state.inverse_mixing is not None  # cached before eigh is counted
        rng = np.random.default_rng(21)
        stream = rng.standard_normal((4, 600)) * 3.0
        stream[:, 200:400] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(200))
        sizes = [10, 10, 11, 1, 64, 200, 5, 20, 7, 272]  # stepsize 32
        calls = []
        real = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        proc = asr.ProcessorState.initial(state)
        pos = 0
        for size in sizes:
            before = len(calls)
            chunk = asr.MultichannelChunk(stream[:, pos : pos + size], SRATE, pos)
            _, proc = asr.asr_process_chunk(chunk, state, proc)
            instants = sum(1 for t in range(pos, pos + size) if (t + 1) % 32 == 0)
            assert calls[before:] == ([(instants, 4, 4)] if instants else []), pos
            pos += size
        assert pos == 600 and len(proc.update_log) == 600 // 32
        assert any(n > 0 for _, n in proc.update_log)

    def test_a_later_failing_update_leaves_every_field_untouched(
        self, clean_calibration, monkeypatch
    ):
        _, state = clean_calibration
        rng = np.random.default_rng(13)
        stream = rng.standard_normal((4, 600)) * 3.0
        stream[:, 200:300] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(100))
        proc = asr.ProcessorState.initial(state)
        head = asr.MultichannelChunk(stream[:, :230], SRATE, 0)
        _, proc = asr.asr_process_chunk(head, state, proc)
        assert proc.r_current is not None  # mid-burst: the state holds a rejection
        before = copy.deepcopy(proc)
        # the updates at 255, 287 and 319 all reject; building the third
        # reconstruction raises, after the first two were built
        calls = []
        real = processing._reconstruct

        def third_fails(calib, rejected):
            calls.append(rejected.shape)
            if len(calls) == 3:
                raise CalibrationDegenerate("the update at 319 fails")
            return real(calib, rejected)

        with monkeypatch.context() as patch:
            patch.setattr(processing, "_reconstruct", third_fails)
            with pytest.raises(CalibrationDegenerate, match="319"):
                chunk = asr.MultichannelChunk(stream[:, 230:326], SRATE, 230)
                asr.asr_process_chunk(chunk, state, proc)
        assert len(calls) == 3
        for f in dataclasses.fields(proc):
            got, want = getattr(proc, f.name), getattr(before, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

        outs = []
        for p in (proc, before):
            for pos in range(230, 600, 37):
                chunk = asr.MultichannelChunk(stream[:, pos : pos + 37], SRATE, pos)
                cleaned, p = asr.asr_process_chunk(chunk, state, p)
                outs.append(cleaned.data)
        half = len(outs) // 2
        assert np.array_equal(np.hstack(outs[:half]), np.hstack(outs[half:]))
        assert proc.update_log == before.update_log

    def test_partitions_agree_at_64_channels(self):
        spec = asr.SyntheticSpec(
            channels=64, srate=1000.0, duration=3.0, calibration_duration=10.0,
            mixing_seed=3, noise_seed=4, events=(asr.ArtifactEvent(1.0, 1.0, 10.0),),
        )
        calibration, recording, _ = asr.generate_synthetic(spec)
        state = asr.asr_calibrate(calibration, spec.srate)
        out256, proc256 = asr.clean_recording(recording, state, 256)
        assert sum(1 for _, n in proc256.update_log if n) > 10
        # chunks of 256 and 32 cut the blend at the same columns (stepsize 32)
        out32, proc32 = asr.clean_recording(recording, state, 32)
        assert np.array_equal(out32, out256)
        assert proc32.update_log == proc256.update_log
        # chunks of 7 cut it elsewhere, and BLAS rounds a column by its block
        out7, proc7 = asr.clean_recording(recording, state, 7)
        assert asr.compare(out7, out256, 1e-10).passed
        assert proc7.update_log == proc256.update_log
        for name in ("cov_window", "r_current", "r_previous", "delay_buffer"):
            assert np.array_equal(getattr(proc7, name), getattr(proc256, name)), name


class TestProcessChunk:
    @pytest.mark.parametrize("size", [1, 8, 250])
    def test_shape_contract(self, clean_calibration, size):
        _, state = clean_calibration
        rng = np.random.default_rng(size)
        proc = asr.ProcessorState.initial(state)
        chunk = asr.MultichannelChunk(rng.standard_normal((4, size)), SRATE, 0)
        out, proc = asr.asr_process_chunk(chunk, state, proc)
        assert out.data.shape == (4, size)

    def test_zero_length_chunk_is_noop(self, clean_calibration):
        _, state = clean_calibration
        proc = asr.ProcessorState.initial(state)
        chunk = asr.MultichannelChunk(np.zeros((4, 0)), SRATE, 0)
        out, proc2 = asr.asr_process_chunk(chunk, state, proc)
        assert out.data.shape == (4, 0)
        assert proc2 is proc
        assert proc2.total_samples_seen == 0

    def test_channel_mismatch(self, clean_calibration):
        _, state = clean_calibration
        proc = asr.ProcessorState.initial(state)
        chunk = asr.MultichannelChunk(np.zeros((3, 10)), SRATE, 0)
        with pytest.raises(ChannelMismatch):
            asr.asr_process_chunk(chunk, state, proc)

    def test_srate_mismatch(self, clean_calibration):
        _, state = clean_calibration
        proc = asr.ProcessorState.initial(state)
        chunk = asr.MultichannelChunk(np.zeros((4, 10)), 500.0, 0)
        with pytest.raises(InvalidInput):
            asr.asr_process_chunk(chunk, state, proc)

    def test_non_finite_rejected_without_touching_state(self, clean_calibration):
        _, state = clean_calibration
        proc = asr.ProcessorState.initial(state)
        good = asr.MultichannelChunk(np.ones((4, 40)), SRATE, 0)
        _, proc = asr.asr_process_chunk(good, state, proc)
        seen = proc.total_samples_seen
        filt = proc.filter_state.copy()
        bad = np.ones((4, 40))
        bad[1, 3] = np.inf
        with pytest.raises(InvalidInput):
            asr.asr_process_chunk(asr.MultichannelChunk(bad, SRATE, 40), state, proc)
        assert proc.total_samples_seen == seen
        assert np.array_equal(proc.filter_state, filt)

    def test_failed_update_leaves_every_field_untouched(self, clean_calibration, monkeypatch):
        _, state = clean_calibration
        rng = np.random.default_rng(12)
        stream = rng.standard_normal((4, 420)) * 3.0
        stream[:, 200:300] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(100))

        def feed(proc, starts):
            parts = []
            for pos in starts:
                chunk = asr.MultichannelChunk(stream[:, pos : pos + 64], SRATE, pos)
                out, proc = asr.asr_process_chunk(chunk, state, proc)
                parts.append(out.data)
            return np.hstack(parts), proc

        proc = asr.ProcessorState.initial(state)
        head = asr.MultichannelChunk(stream[:, :100], SRATE, 0)
        _, proc = asr.asr_process_chunk(head, state, proc)
        before = copy.deepcopy(proc)
        # detection raises on the chunk's one update instant, sample 127
        def failing(*args):
            raise InvalidInput("covariance contains non-finite entries")

        with monkeypatch.context() as patch:
            patch.setattr(processing, "detect", failing)
            with pytest.raises(InvalidInput, match="covariance"):
                asr.asr_process_chunk(asr.MultichannelChunk(stream[:, 100:164], SRATE, 100), state, proc)
        for f in dataclasses.fields(proc):
            got, want = getattr(proc, f.name), getattr(before, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

        starts = range(100, 420, 64)
        got, proc = feed(proc, starts)
        want, ref = feed(before, starts)
        assert np.array_equal(got, want)
        assert any(n > 0 for _, n in proc.update_log)  # the burst was cleaned
        assert proc.update_log == ref.update_log

    def test_identity_path_matches_delayed_input(self, clean_calibration):
        data, _ = clean_calibration
        rng = np.random.default_rng(33)
        state = asr.asr_calibrate(data, SRATE, asr.CalibrationParams(cutoff=20.0))
        stream = rng.standard_normal((4, 4000))
        out, proc = run_stream(stream, state, chunk_size=64)
        assert all(n == 0 for _, n in proc.update_log)
        lookahead = proc.lookahead
        delayed = np.concatenate([np.zeros((4, lookahead)), stream[:, :-lookahead]], axis=1)
        assert np.array_equal(out, delayed)  # exact: identity blending short-circuits

    def test_latency_is_exactly_lookahead(self, clean_calibration):
        data, _ = clean_calibration
        state = asr.asr_calibrate(data, SRATE, asr.CalibrationParams(cutoff=1e6))
        stream = np.zeros((4, 500))
        stream[2, 100] = 5.0
        out, proc = run_stream(stream, state, chunk_size=32)
        lookahead = proc.lookahead
        assert out[2, 100 + lookahead] == 5.0
        assert np.count_nonzero(out) == 1

    def test_chunking_invariance_bitexact_state(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(44)
        stream = rng.standard_normal((4, 3000))
        stream[:, 1000:1200] += 8 * np.outer([1.0, -0.5, 0.25, 0.1], np.ones(200))
        out_a, proc_a = run_stream(stream, state, chunk_size=8)
        out_b, proc_b = run_stream(stream, state, chunk_size=250)
        report = asr.compare(out_a, out_b, 1e-10)
        assert report.passed, report.summary()
        assert proc_a.update_log == proc_b.update_log
        assert np.array_equal(proc_a.cov_window, proc_b.cov_window)
        assert np.array_equal(proc_a.r_current, proc_b.r_current)

    @given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 64), min_size=2, max_size=10))
    def test_chunking_invariance_any_partition(self, clean_calibration, seed, sizes):
        _, state = clean_calibration
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        stream = rng.standard_normal((4, n)) * 3.0
        whole, ref = run_stream(stream, state, chunk_size=n)
        proc = asr.ProcessorState.initial(state)
        parts = []
        pos = 0
        for size in sizes:
            chunk = asr.MultichannelChunk(stream[:, pos : pos + size], SRATE, pos)
            out, proc = asr.asr_process_chunk(chunk, state, proc)
            parts.append(out.data)
            pos += size
        report = asr.compare(np.hstack(parts), whole, 1e-10)
        assert report.passed, report.summary()
        assert proc.update_log == ref.update_log

    def test_empty_rejection_spans_are_exact(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(55)
        stream = rng.standard_normal((4, 2000))
        stream[:, 800:900] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(100))
        out, proc = run_stream(stream, state, chunk_size=32)
        lookahead = proc.lookahead
        step = proc.stepsize
        rejected_at = [t for t, n in proc.update_log if n > 0]
        assert rejected_at, "the burst should trigger at least one rejection"
        delayed = np.concatenate([np.zeros((4, lookahead)), stream[:, :-lookahead]], axis=1)
        # samples strictly before the first rejection blend two identities
        first_affected = min(rejected_at)
        assert np.array_equal(out[:, :first_affected], delayed[:, :first_affected])
        # and samples inside the rejected window must actually differ
        assert not np.allclose(out[:, 800 + lookahead : 900], delayed[:, 800 + lookahead : 900])

    @pytest.mark.parametrize("chunk", [1, 7, 32, 256, None])
    def test_samples_under_two_identity_operators_are_the_delayed_input(self, chunk):
        # an operator is the identity when its update rejected nothing; the
        # pair at sample t comes from the updates before and at the last
        # instant up to t, and the identity before the stream's first two
        state, recording = _burst_case(8, 250.0, 6)
        n = recording.shape[1]
        chunk = chunk or n
        out, proc = asr.clean_recording(recording, state, chunk)
        rejected = np.array([0, 0, *(r for _, r in proc.update_log)])
        done = (np.arange(n) + 1) // proc.stepsize  # updates at or before each sample
        identity = (rejected[done] == 0) & (rejected[done + 1] == 0)
        delayed = np.concatenate([np.zeros((8, proc.lookahead)), recording], axis=1)[:, :n]
        assert 0 < identity.sum() < n  # the burst was cleaned
        assert out[:, identity].tobytes() == delayed[:, identity].tobytes()
        if chunk > 1:
            # the pair turns to the identity inside a chunk, not only at its start
            turns = np.flatnonzero(identity[1:] & ~identity[:-1]) + 1
            assert (turns % chunk).any(), turns

    def test_update_cadence_and_counter_invariants(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(66)
        stream = rng.standard_normal((4, 1000))
        out, proc = run_stream(stream, state, chunk_size=17, stepsize=25)
        assert [t for t, _ in proc.update_log] == list(range(24, 1000, 25))
        assert proc.total_samples_seen == 1000
        # updates fall where (t + 1) % stepsize == 0, so their count has a closed form
        assert proc.total_samples_seen // proc.stepsize == len(proc.update_log)

    def test_rejecting_updates_counts_past_the_log_limit(self, clean_calibration, monkeypatch):
        _, state = clean_calibration
        rng = np.random.default_rng(5)
        stream = rng.standard_normal((4, 2000))
        stream[:, 500:700] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(200))
        stream[:, 1400:1500] += 20 * np.outer([1.0, -0.3, 0.1, 0.6], np.ones(100))
        _, proc = run_stream(stream, state, chunk_size=100)
        rejecting = sum(1 for _, n in proc.update_log if n)
        assert 4 < rejecting < len(proc.update_log)
        assert proc.rejecting_updates == rejecting
        monkeypatch.setattr(asr.types, "UPDATE_LOG_LIMIT", 4)
        _, short = run_stream(stream, state, chunk_size=100)
        assert list(short.update_log) == list(proc.update_log)[-4:]
        assert short.rejecting_updates == rejecting

    def test_window_covariance_matches_naive_recomputation(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(88)
        n = 960  # ends exactly at an update instant (960 % 32 == 0)
        stream = rng.standard_normal((4, n))
        _, proc = run_stream(stream, state, chunk_size=50)
        assert proc.update_log[-1][0] == n - 1
        w = proc.cov_window.shape[1]
        ring_cov = proc.cov_window @ proc.cov_window.T / w
        filtered, _ = asr.iir_filter(stream, state.filter_b, state.filter_a)
        tail = filtered[:, n - w :]
        naive = sum(np.outer(tail[:, i], tail[:, i]) for i in range(w)) / w
        assert np.abs(ring_cov - naive).max() < 1e-12

    def test_rejection_budget_invariant_over_stream(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(77)
        stream = rng.standard_normal((4, 1500)) * 50.0  # everything is artifact
        _, proc = run_stream(stream, state, chunk_size=100)
        budget = int(np.floor(state.params.max_dims_fraction * 4))
        assert max(n for _, n in proc.update_log) <= budget


class TestHugeSamples:
    """Finite samples whose window covariance overflows are cleaned like
    smaller ones: the covariance is rebuilt from its segment times 2**-k."""

    def test_shifted_stack_detects_alike(self, clean_calibration):
        _, state = clean_calibration
        u = np.array([0.2, 1.0, -0.7, 0.4])
        base = state.mixing @ state.mixing
        covs = np.array([base + a * np.outer(u, u) for a in (0.0, 5.0, 50.0, 500.0)])
        want = processing.detect(covs, state)
        assert want[2].all(axis=1).tolist() == [True, False, False, False]
        shifts = np.array([0, 3, 50, 1])
        got = processing.detect(np.ldexp(covs, -2 * shifts[:, None, None]), state, shifts)
        assert np.array_equal(got[0], np.ldexp(want[0], -2 * shifts[:, None]))
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        assert got[3][0] is None and want[3][0] is None
        for r_got, r_want in zip(got[3][1:], want[3][1:]):
            assert np.array_equal(r_got, r_want)
        # shifts of 0, as every ordinary chunk passes them, change nothing
        zero = processing.detect(covs, state, np.zeros(4, dtype=int))
        for a, b in zip(zero[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        assert [r is None for r in zero[3]] == [r is None for r in want[3]]
        for r_zero, r_want in zip(zero[3][1:], want[3][1:]):
            assert r_zero.tobytes() == r_want.tobytes()

    # at chunk 32 each chunk holds one update instant; at 256 and 7 a chunk's
    # stack mixes overflowing covariances with ordinary ones, or holds none
    @pytest.mark.parametrize("chunk", [32, 256, 7])
    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_a_stretch_too_large_to_square_is_cleaned_as_a_smaller_one(
        self, clean_calibration, scale, chunk
    ):
        _, state = clean_calibration
        rec = np.random.default_rng(7).standard_normal((4, 2000))
        runs = []
        for s in (1e150, scale):
            x = rec.copy()
            x[:, 1000:1040] *= s
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow warning either
                runs.append(asr.clean_recording(x, state, chunk))
        (small, small_proc), (huge, huge_proc) = runs
        assert huge_proc.update_log == small_proc.update_log
        assert sum(1 for _, n in huge_proc.update_log if n) > 3  # the stretch was rejected
        shifted = slice(1000 + huge_proc.lookahead, 1040 + huge_proc.lookahead)
        np.testing.assert_allclose(huge[:, shifted] * (1e150 / scale), small[:, shifted], rtol=1e-12)
        rest = np.ones(2000, dtype=bool)
        rest[shifted] = False
        np.testing.assert_allclose(huge[:, rest], small[:, rest], rtol=0, atol=1e-12)
        # cleaned, not passed through: the stretch's largest output is below its input's
        assert np.abs(huge[:, shifted]).max() < 0.9 * np.abs(rec[:, 1000:1040]).max() * scale



def _burst_case(
    channels, srate, seed, events=(asr.ArtifactEvent(1.0, 0.5, 10.0),), duration=3.0, **params
):
    """A state calibrated on 10 s of synthetic data and a recording, 3 s by
    default, that holds ``events``, by default one 0.5 s burst."""
    spec = asr.SyntheticSpec(
        channels=channels, srate=srate, duration=duration, calibration_duration=10.0,
        mixing_seed=seed, noise_seed=seed + 1, events=events,
    )
    calibration, recording, _ = asr.generate_synthetic(spec)
    return asr.asr_calibrate(calibration, srate, asr.CalibrationParams(**params)), recording


def _no_screen(covs, calib, shifts):
    return np.zeros(len(covs), dtype=bool)


def _count_cleared(monkeypatch):
    """Patch the screens to count the updates they clear: each call adds to
    the last entry of the returned lists, the updates that union screens
    cleared and the update covariances that passed one by one."""
    by_union, by_update = [], []
    real_unions, real_screen = processing._screen_unions, processing.screen
    inside = []

    def screen_unions(tail, instants, t0, window, calib, union):
        inside.append(True)
        try:
            open_, union = real_unions(tail, instants, t0, window, calib, union)
        finally:
            inside.clear()
        by_union[-1] += len(instants) - len(open_)
        return open_, union

    def screen(covs, calib, shifts):
        passed = real_screen(covs, calib, shifts)
        if not inside:
            by_update[-1] += int(np.count_nonzero(passed))
        return passed

    monkeypatch.setattr(processing, "_screen_unions", screen_unions)
    monkeypatch.setattr(processing, "screen", screen)
    return by_union, by_update


class TestScreen:
    """An update whose covariance a Cholesky factorization proves clean
    skips detection; that must never change what detection decides."""

    @pytest.mark.parametrize("shift", [0, 40])
    def test_covariances_at_the_boundary_pass_only_where_detect_keeps_all(self, shift):
        # every component may reject, so detection keeps all only when every
        # eigenvalue stays below its limit
        state, _ = _burst_case(24, 500.0, 5, max_dims_fraction=1.0)
        bound = state.screen_bound
        gram = state.threshold.T @ state.threshold
        size = np.linalg.norm(bound, 2)
        rng = np.random.default_rng(9)
        covs = [bound, gram]
        # the bound and the limits T^T T above it, scaled or moved along
        # random directions by 10**-3 to 10**-16 of their norm either way
        for step in 10.0 ** -np.arange(3, 17):
            for sign in (-1.0, 1.0):
                for base in (bound, gram):
                    u = rng.standard_normal(state.channels)
                    u /= np.linalg.norm(u)
                    covs += [base * (1.0 + sign * step), base + sign * step * size * np.outer(u, u)]
        covs = np.ldexp(np.array(covs), -2 * shift)
        shifts = np.full(len(covs), shift)
        passed = processing.screen(covs, state, shifts)
        assert 0 < passed.sum() < len(covs)
        _, _, keep, recons = processing.detect(covs[passed], state, shifts[passed])
        assert keep.all() and all(r is None for r in recons)
        # a stack of passing covariances is factored at once, to the same verdict
        assert processing.screen(covs[passed], state, shifts[passed]).all()
        if shift:
            # scaling by 4**-k is exact, so the verdicts are those of the unscaled stack
            unscaled = processing.screen(np.ldexp(covs, 2 * shift), state, np.zeros_like(shifts))
            assert np.array_equal(passed, unscaled)

    @pytest.mark.parametrize("channels, srate", [(8, 250.0), (24, 500.0), (64, 1000.0)])
    def test_outputs_are_those_of_detecting_every_update(self, channels, srate, monkeypatch):
        # the first burst, 0.9-1.2 s, holds sample 256, 512 or 1024: a chunk
        # edge at chunk 256, where one group of update instants ends
        events = (asr.ArtifactEvent(0.9, 0.3, 10.0), asr.ArtifactEvent(2.0, 0.5, 8.0))
        state, recording = _burst_case(channels, srate, 3, events, duration=5.0)
        chunks = (1, 7, 32, 100, 256, 1000, recording.shape[1])
        by_union, by_update = _count_cleared(monkeypatch)
        for chunk in chunks:
            by_union.append(0)
            by_update.append(0)
            out, proc = asr.clean_recording(recording, state, chunk)
            with monkeypatch.context() as patch:
                patch.setattr(processing, "screen", _no_screen)
                want, ref = asr.clean_recording(recording, state, chunk)
            assert np.array_equal(out, want), chunk
            assert proc.update_log == ref.update_log, chunk
            assert proc.screened_updates == by_union[-1] + by_update[-1], chunk
            assert ref.screened_updates == 0, chunk
        rejecting = sum(1 for _, n in ref.update_log if n)
        assert 0 < rejecting < len(ref.update_log) / 2
        # at every chunk size the screens cleared most clean updates, and
        # only clean ones, and unions did too: a group's union is carried
        # across chunks that hold one update instant or none
        clean = len(ref.update_log) - rejecting
        cleared = [u + v for u, v in zip(by_union, by_update)]
        assert all(clean / 2 < n <= clean for n in cleared), (chunks, cleared)
        assert all(by_union), (chunks, by_union)

    def test_the_largest_window_that_forms_unions_keeps_the_outputs(self, monkeypatch):
        # at 2 channels unions are formed up to W = 3002 samples; here W = 2900
        state, recording = _burst_case(
            2, 1000.0, 4, (asr.ArtifactEvent(3.0, 0.4, 10.0),), duration=12.0, window_len=2.9
        )
        assert state.window_samples() == 2900
        by_union, by_update = _count_cleared(monkeypatch)
        # chunks of 32 carry each union across 91 chunks; 256 and the whole
        # record form most of it in one product
        for chunk in (32, 256, recording.shape[1]):
            by_union.append(0)
            by_update.append(0)
            out, proc = asr.clean_recording(recording, state, chunk)
            with monkeypatch.context() as patch:
                patch.setattr(processing, "screen", _no_screen)
                want, ref = asr.clean_recording(recording, state, chunk)
            assert np.array_equal(out, want), chunk
            assert proc.update_log == ref.update_log, chunk
        assert all(by_union) and any(n for _, n in ref.update_log), by_union

    def test_no_union_is_formed_past_the_rounding_limit(self, clean_calibration):
        # 6 W u <= SCREEN_REL_TOL C holds up to W = 6004 at 4 channels; a
        # zero union passes the screen, so only the limit can keep it open,
        # in a chunk that starts a group (t0 = 0) and in one that continues
        # a live group (the eight instants after 10**6 are the 43rd to 50th
        # of a group of 188)
        _, state = clean_calibration
        instants = range(31, 256, 32)
        for window, open_ in ((6004, []), (6005, list(range(8)))):
            tail = np.zeros((4, window + 256))
            for t0, union in ((0, None), (10**6, np.zeros((4, 4)))):
                got, carried = processing._screen_unions(tail, instants, t0, window, state, union)
                assert got == open_, (window, t0)
                assert (carried is None) == bool(open_), (window, t0)

    def test_products_run_only_for_the_instants_of_failing_groups(
        self, clean_calibration, monkeypatch
    ):
        _, state = clean_calibration
        window = state.window_samples()
        assert window // 32 + 1 == 4  # a chunk of 256 holds two groups of four instants
        rng = np.random.default_rng(21)
        stream = rng.standard_normal((4, 2080))
        stream[:, 700:900] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(200))
        products, verdicts = [], []
        real_matmul, real_screen = np.matmul, processing.screen

        def counting(a, b, *args, **kwargs):
            products.append(a.shape[1])
            return real_matmul(a, b, *args, **kwargs)

        def recording(covs, calib, shifts):
            passed = real_screen(covs, calib, shifts)
            verdicts.append(passed)
            return passed

        monkeypatch.setattr(np, "matmul", counting)
        monkeypatch.setattr(processing, "screen", recording)
        proc = asr.ProcessorState.initial(state)
        failed = []
        for pos in range(0, 2048, 256):
            products.clear()
            verdicts.clear()
            chunk = asr.MultichannelChunk(stream[:, pos : pos + 256], SRATE, pos)
            _, proc = asr.asr_process_chunk(chunk, state, proc)
            # two unions, each over four windows 32 samples apart, and two
            # union verdicts of one covariance each, before any per-update screen
            assert products[:2] == [3 * 32 + window] * 2, pos
            assert [len(v) for v in verdicts[:2]] == [1, 1], pos
            failed.append(sum(not v[0] for v in verdicts[:2]))
            # then one product, and one screened covariance, per instant of a failing group
            assert products[2:] == [window] * 4 * failed[-1], pos
            assert [len(v) for v in verdicts[2:]] == ([4 * failed[-1]] if failed[-1] else []), pos
        assert 0 < sum(failed) < 2 * len(failed)
        assert sum(1 for _, n in proc.update_log if n) > 0

        # chunks of 32 hold one instant each (the m-th at chunk 32 m): a
        # window-sized product runs at a group's first instant and for each
        # instant that no union clears, and every other instant extends its
        # group's live union by one 32-column product; so a failing union at
        # a group's first instant forms that instant's W-column product twice
        # and is screened twice, once as a union and once as an update
        def chunks_of_32(x):
            proc = asr.ProcessorState.initial(state)
            extended = dead = failed_starts = by_union = wide = 0
            for pos in range(0, x.shape[1], 32):
                products.clear()
                verdicts.clear()
                live = proc.union is not None
                chunk = asr.MultichannelChunk(x[:, pos : pos + 32], SRATE, pos)
                _, proc = asr.asr_process_chunk(chunk, state, proc)
                wide += products.count(window)
                starts = pos // 32 % 4 == 0
                if starts or live:
                    extended += not starts
                    cleared = bool(verdicts[0][0])
                    failed_starts += starts and not cleared
                    by_union += cleared
                    again = not cleared
                    assert products == [window if starts else 32] + [window] * again, pos
                    assert [len(v) for v in verdicts] == [1] * (1 + again), pos
                    assert (proc.union is not None) == cleared, pos
                else:
                    # a group whose union failed in an earlier chunk
                    dead += 1
                    assert products == [window] and [len(v) for v in verdicts] == [1], pos
                    assert proc.union is None, pos
            return proc, extended, dead, failed_starts, by_union, wide

        _, extended, dead, failed_starts, _, _ = chunks_of_32(stream)
        assert extended > 0 and dead > 0 and failed_starts > 0, (extended, dead, failed_starts)
        # where most unions fail, the W-column products are one per group
        # start (64 updates, 16 groups) and one per update no union clears
        dense = rng.standard_normal((4, 2048))
        dense[:, 128:] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], rng.standard_normal(1920))
        proc, _, _, failed_starts, by_union, wide = chunks_of_32(dense)
        assert sum(1 for _, n in proc.update_log if n) > len(proc.update_log) / 2
        assert failed_starts > 16 / 2, failed_starts
        assert wide == 16 + len(proc.update_log) - by_union, (wide, by_union)

    # the windows that hold samples 1000-1039 end at 1023 ... 1151: at chunk
    # 256 the second group of chunk 768 and the first of chunk 1024 overflow,
    # so only one union of each of those chunks is screened, and their
    # instants' covariances are rebuilt with a shift; at chunk 32 the union
    # carried to 1023 overflows there, the next group's first union at 1055
    # does too, and the rest of that group is open without a union
    @pytest.mark.parametrize(
        "chunk, removed",
        [(256, [0] * 3 + [1] * 2 + [0] * 3), (32, [0] * 31 + [1] * 5 + [0] * 28)],
    )
    def test_an_overflowing_union_falls_back_to_the_shifted_updates(
        self, clean_calibration, monkeypatch, chunk, removed
    ):
        _, state = clean_calibration
        rec = np.random.default_rng(7).standard_normal((4, 2048))
        screens = []  # per chunk: (in a union screen, stack size, largest shift) of each screen call
        inside = []
        real_unions, real_screen = processing._screen_unions, processing.screen

        def screen_unions(*args):
            inside.append(True)
            try:
                return real_unions(*args)
            finally:
                inside.clear()

        def recording(covs, calib, shifts):
            screens[-1].append((bool(inside), len(covs), int(shifts.max(initial=0))))
            return real_screen(covs, calib, shifts)

        def run(x):
            screens.clear()
            proc = asr.ProcessorState.initial(state)
            out = np.empty(x.shape)
            for pos in range(0, 2048, chunk):
                screens.append([])
                piece = asr.MultichannelChunk(x[:, pos : pos + chunk], SRATE, pos)
                cleaned, proc = asr.asr_process_chunk(piece, state, proc)
                out[:, pos : pos + chunk] = cleaned.data
            # the union screens come first, one per run (a group holds four
            # instants 32 samples apart), each of one covariance and unshifted
            unions = [sum(union for union, _, _ in calls) for calls in screens]
            for calls, n in zip(screens, unions):
                assert n <= -(-chunk // (4 * 32)), calls
                assert all(union for union, _, _ in calls[:n]), calls
                assert all(size == 1 and k == 0 for _, size, k in calls[:n]), calls
            shifted = [any(k for _, _, k in calls) for calls in screens]
            return out, proc, unions, shifted

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            with monkeypatch.context() as patch:
                patch.setattr(processing, "_screen_unions", screen_unions)
                patch.setattr(processing, "screen", recording)
                _, _, plain, _ = run(rec)
                rec[:, 1000:1040] *= 1e200
                out, proc, unions, shifted = run(rec)
                patch.setattr(processing, "screen", _no_screen)
                want, ref = asr.clean_recording(rec, state, chunk)
        assert unions == [n - r for n, r in zip(plain, removed)]
        assert shifted == [bool(r) for r in removed]
        assert np.array_equal(out, want)
        assert proc.update_log == ref.update_log
        assert sum(1 for _, n in proc.update_log if n) > 3  # the stretch was rejected

    def test_a_non_finite_covariance_raises_and_leaves_the_state(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(4)
        proc = asr.ProcessorState.initial(state)
        head = asr.MultichannelChunk(rng.standard_normal((4, 228)), SRATE, 0)
        _, proc = asr.asr_process_chunk(head, state, proc)
        # three of the second group's four instants: its union is carried, and
        # the failing chunk, which would extend it, must leave it as it was
        assert proc.union is not None
        # a Cholesky factorization lets a NaN through, so the stack is checked first
        proc.cov_window[2, -1] = np.nan
        before = copy.deepcopy(proc)
        chunk = asr.MultichannelChunk(rng.standard_normal((4, 64)), SRATE, 228)
        with pytest.raises(InvalidInput, match="covariance"):
            asr.asr_process_chunk(chunk, state, proc)
        for f in dataclasses.fields(proc):
            got, want = getattr(proc, f.name), getattr(before, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want, equal_nan=True), f.name
            else:
                assert got == want, f.name

    def test_a_chunk_passed_through_mid_group_leaves_the_union(
        self, clean_calibration, monkeypatch
    ):
        _, state = clean_calibration
        rng = np.random.default_rng(31)
        stream = rng.standard_normal((4, 1200))
        stream[:, 600:700] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(100))
        skipped = rng.standard_normal((4, 45)) * 1e3  # never enters the statistics

        def run():
            proc = asr.ProcessorState.initial(state)
            outs = []
            for pos in range(0, 224, 32):  # the second group's first three instants
                chunk = asr.MultichannelChunk(stream[:, pos : pos + 32], SRATE, pos)
                cleaned, proc = asr.asr_process_chunk(chunk, state, proc)
                outs.append(cleaned.data)
            before = copy.deepcopy(proc)
            skip = asr.MultichannelChunk(skipped, SRATE, 224)
            outs.append(processing.pass_chunk_through(skip, proc).data)
            for name in ("union", "cov_window", "filter_state", "r_current", "r_previous"):
                got, want = getattr(proc, name), getattr(before, name)
                assert (got is None and want is None) or np.array_equal(got, want), name
            for name in ("total_samples_seen", "rejecting_updates", "screened_updates", "update_log"):
                assert getattr(proc, name) == getattr(before, name), name
            for pos in range(224, 1200, 32):
                chunk = asr.MultichannelChunk(stream[:, pos : pos + 32], SRATE, pos + 45)
                cleaned, proc = asr.asr_process_chunk(chunk, state, proc)
                outs.append(cleaned.data)
            return before, np.hstack(outs), proc

        before, out, proc = run()
        assert before.union is not None
        with monkeypatch.context() as patch:
            patch.setattr(processing, "screen", _no_screen)
            _, want, ref = run()
        assert np.array_equal(out, want)
        assert proc.update_log == ref.update_log
        assert any(n for _, n in proc.update_log) and proc.screened_updates > 0

    def test_a_failing_stack_of_one_is_factored_once(self, clean_calibration, monkeypatch):
        _, state = clean_calibration
        rng = np.random.default_rng(21)
        stream = rng.standard_normal((4, 2048))
        stream[:, 700:900] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(200))
        factored, calls = [], []  # per screen call: (stack size, passed, factorizations)
        real_cholesky, real_screen = np.linalg.cholesky, processing.screen

        def counting(a):
            factored.append(a.shape)
            return real_cholesky(a)

        def recording(covs, calib, shifts):
            before = len(factored)
            passed = real_screen(covs, calib, shifts)
            calls.append((len(covs), int(np.count_nonzero(passed)), len(factored) - before))
            return passed

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(processing, "screen", recording)
        # chunks of 32 screen one union or one update at a time; chunks of 256
        # screen two unions, or the four updates of a failing group, at once
        for chunk in (32, 256):
            asr.clean_recording(stream, state, chunk)
        # a stack that fails is factored again matrix by matrix only when it
        # holds two or more
        for k, ok, n in calls:
            assert n == 1 + k * (1 < k and ok < k), (k, ok, n)
        assert any(k == 1 and not ok for k, ok, _ in calls)
        assert any(1 < k and ok < k for k, ok, _ in calls)

    def test_a_singular_threshold_turns_the_screen_off(self, clean_calibration):
        _, state = clean_calibration
        threshold = state.threshold.copy()
        threshold[0] = 0.0  # a component with mu = sigma = 0
        flat = dataclasses.replace(state, threshold=threshold)
        assert flat.screen_bound is None
        covs = np.array([np.zeros((4, 4)), 1e-30 * np.eye(4)])
        assert not processing.screen(covs, flat, np.zeros(2, dtype=int)).any()
        assert processing.screen(covs[1:], state, np.zeros(1, dtype=int)).all()


class TestHistoryBuffers:
    """The delay line and the covariance window live in buffers twice their
    length, and a chunk's samples move them on at commit; where in its buffer
    a history lies must never show."""

    def test_a_mixed_partition_matches_the_whole_pieces(self, clean_calibration):
        _, state = clean_calibration
        proc = asr.ProcessorState.initial(state)
        assert (proc.lookahead, proc.window) == (62, 125)
        rng = np.random.default_rng(17)
        n, split = 3100, 1200
        stream = rng.standard_normal((4, n)) * 3.0
        stream[:, 900:1100] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(200))
        stream[:, 2300:2400] += 20 * np.outer([1.0, -0.3, 0.1, 0.6], np.ones(100))
        skipped = rng.standard_normal((4, 45)) * 1e3  # passed through at the split

        def partition(total, pattern):
            sizes = []
            for size in itertools.cycle(pattern):
                if sum(sizes) == total:
                    return sizes
                sizes.append(min(size, total - sum(sizes)))

        def run(pieces):
            """Clean the first piece, pass ``skipped`` through, clean the
            rest; returns the cleaned samples, the passed-through ones, the
            state, the chunk starts and how often each history moved."""
            proc = asr.ProcessorState.initial(state)
            outs, starts, moves = [], [], np.zeros(2, dtype=int)
            pos = 0
            for i, sizes in enumerate(pieces):
                if i:
                    skip = asr.MultichannelChunk(skipped, SRATE, pos)
                    end = proc.raw_end
                    through = processing.pass_chunk_through(skip, proc).data
                    moves[0] += proc.raw_end < end
                for size in sizes:
                    ends = np.array([proc.raw_end, proc.filtered_end])
                    chunk = asr.MultichannelChunk(stream[:, pos : pos + size], SRATE, pos)
                    cleaned, proc = asr.asr_process_chunk(chunk, state, proc)
                    moves += np.array([proc.raw_end, proc.filtered_end]) < ends
                    outs.append(cleaned.data)
                    starts.append(pos)
                    pos += size
            return np.hstack(outs), through, proc, starts, moves

        # chunks of 1, of 0 and longer than W + L, some of which fill the
        # slack, and one passed through at the split
        mixed = run([
            partition(split, [1] * 140 + [0, 400, 7, 0] + [1] * 70),
            partition(n - split, [1000, 0] + [1] * 150 + [33, 200, 7]),
        ])
        whole = run([[split], [n - split]])
        out, through, proc, starts, moves = mixed
        assert (moves >= 3).all(), moves
        assert np.array_equal(through, whole[1])
        assert proc.update_log == whole[2].update_log
        assert proc.rejecting_updates == whole[2].rejecting_updates > 3
        for name in ("delay_buffer", "cov_window", "filter_state", "r_current", "r_previous"):
            assert np.array_equal(getattr(proc, name), getattr(whole[2], name)), name
        # the blend is cut at update instants and chunk edges; between two
        # cuts of the whole pieces that no chunk edge splits, the same
        # products run, so the outputs agree bit for bit, and within 1e-10
        # elsewhere (BLAS rounds a column by its block)
        instants = range(31, n, 32)
        cuts = sorted({0, split, n, *instants, *(j + 1 for j in instants)})
        exact = np.zeros(n, dtype=bool)
        for a, b in zip(cuts, cuts[1:]):
            exact[a:b] = not any(a < s < b for s in starts)
        assert 0.2 < exact.mean() < 0.9, exact.mean()
        assert np.array_equal(out[:, exact], whole[0][:, exact])
        report = asr.compare(out, whole[0], 1e-10)
        assert report.passed, report.summary()

    def test_a_failing_chunk_that_would_move_the_histories_leaves_every_field(
        self, clean_calibration, monkeypatch
    ):
        _, state = clean_calibration
        rng = np.random.default_rng(23)
        stream = rng.standard_normal((4, 1024)) * 3.0
        stream[:, 300:600] += 20 * np.outer([0.2, 1.0, -0.7, 0.4], np.ones(300))

        def feed(proc, start):
            parts = []
            for pos in range(start, 1024, 32):
                chunk = asr.MultichannelChunk(stream[:, pos : pos + 32], SRATE, pos)
                cleaned, proc = asr.asr_process_chunk(chunk, state, proc)
                parts.append(cleaned.data)
            return np.hstack(parts), proc

        # after three chunks of 32 the next moves both histories: the delay
        # line ends at column 62 of 124, then 94, 62 after a move, and 94;
        # the window at 125 of 250, then 157, 189 and 221
        proc = asr.ProcessorState.initial(state)
        for pos in range(0, 96, 32):
            chunk = asr.MultichannelChunk(stream[:, pos : pos + 32], SRATE, pos)
            _, proc = asr.asr_process_chunk(chunk, state, proc)
        assert proc.raw_end + 32 > proc.raw.shape[1], proc.raw_end
        assert proc.filtered_end + 32 > proc.filtered.shape[1], proc.filtered_end
        before = copy.deepcopy(proc)

        def failing(*args):
            raise InvalidInput("covariance contains non-finite entries")

        with monkeypatch.context() as patch:
            # every update reaches detect, which raises
            patch.setattr(processing, "screen", _no_screen)
            patch.setattr(processing, "detect", failing)
            with pytest.raises(InvalidInput, match="covariance"):
                asr.asr_process_chunk(asr.MultichannelChunk(stream[:, 96:128], SRATE, 96), state, proc)
        for f in dataclasses.fields(proc):
            got, want = getattr(proc, f.name), getattr(before, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

        got, proc = feed(proc, 96)
        want, ref = feed(before, 96)
        assert np.array_equal(got, want)
        assert proc.update_log == ref.update_log
        assert any(n for _, n in proc.update_log)  # the burst was cleaned

    def test_a_chunk_of_32_allocates_less_than_one_window(self):
        # clean input at 64 ch / 1 kHz, where a window is (64, 500): a chunk
        # joins no history columns unless it starts a group of update
        # instants (one in 16) or holds an update no union clears
        state, recording = _burst_case(64, 1000.0, 3, events=(), duration=3.0)
        window = state.window_samples()
        asr.clean_recording(recording[:, :512], state, 32)  # warm every lazy cost
        proc = asr.ProcessorState.initial(state)
        rises = []
        tracemalloc.start()
        try:
            for pos in range(0, recording.shape[1], 32):
                chunk = asr.MultichannelChunk(recording[:, pos : pos + 32], 1000.0, pos)
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                _, proc = asr.asr_process_chunk(chunk, state, proc)
                rises.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert proc.screened_updates > len(proc.update_log) / 2
        # the (64, 500 + 32) join of the window and the chunk alone is larger
        assert np.median(rises) < 64 * window * 8, np.median(rises)


def chunk_loop(stream, state, chunk):
    """The per-chunk loop clean_recording stands for, written out by hand."""
    proc = asr.ProcessorState.initial(state)
    out = np.empty(stream.shape)
    for pos in range(0, stream.shape[1], chunk):
        piece = asr.MultichannelChunk(stream[:, pos : pos + chunk], SRATE, pos)
        cleaned, proc = asr.asr_process_chunk(piece, state, proc)
        out[:, pos : pos + chunk] = cleaned.data
    return out, proc


class TestCleanRecording:
    @pytest.mark.parametrize("n, chunk", [(0, 5), (300, 1000), (300, 1)])
    def test_edges_match_the_chunk_loop(self, clean_calibration, n, chunk):
        _, state = clean_calibration
        rng = np.random.default_rng(n + chunk)
        stream = rng.standard_normal((4, n)) * 3.0
        stream[:, 100:200] += 20 * np.array([[0.2], [1.0], [-0.7], [0.4]])
        got, proc = asr.clean_recording(stream, state, chunk)
        assert got.shape == (4, n)
        assert proc.total_samples_seen == n
        assert n == 0 or any(k > 0 for _, k in proc.update_log)  # not the identity path

        same, _ = chunk_loop(stream, state, chunk)
        assert np.array_equal(got, same)
        # another partition differs by a few ULPs in the blend (BLAS blocking),
        # within the partition-invariance bound; the state matches exactly
        by7, proc7 = chunk_loop(stream, state, 7)
        assert asr.compare(got, by7, 1e-10).passed
        assert proc.update_log == proc7.update_log
        assert np.array_equal(proc.cov_window, proc7.cov_window)
        assert np.array_equal(proc.delay_buffer, proc7.delay_buffer)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_below_one_rejected(self, clean_calibration, chunk):
        _, state = clean_calibration
        with pytest.raises(InvalidValue, match="chunk"):
            asr.clean_recording(np.zeros((4, 10)), state, chunk)

    def test_cleans_in_place_with_little_memory(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(9)
        stream = rng.standard_normal((4, 20000)) * 3.0
        stream[:, 5000:6000] += 20 * np.array([[0.2], [1.0], [-0.7], [0.4]])
        asr.clean_recording(stream[:, :500], state, 256)  # warm every lazy cost
        peaks = []
        for target in (None, "data"):
            data = stream.copy()
            tracemalloc.start()
            try:
                got, proc = asr.clean_recording(
                    data, state, 256, out=data if target else None
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert got is data
        want, ref = asr.clean_recording(stream, state, 256)
        assert np.array_equal(got, want)
        assert proc.update_log == ref.update_log
        assert peaks[0] >= data.nbytes  # the default output is a new array
        assert peaks[1] <= 0.2 * data.nbytes

    def test_the_update_log_keeps_no_object_per_update(self, clean_calibration):
        # the state keeps one small int per update, its n_rejected, and
        # derives the sample index, so the log grows by about 8 B an update
        _, state = clean_calibration
        rng = np.random.default_rng(9)
        asr.clean_recording(rng.standard_normal((4, 500)), state, 256)  # warm every lazy cost
        kept = {}
        for n in (20000, 80000):  # 625 and 2,500 updates
            data = rng.standard_normal((4, n)) * 3.0
            data[:, 5000:6000] += 20 * np.array([[0.2], [1.0], [-0.7], [0.4]])
            tracemalloc.start()
            try:
                _, proc = asr.clean_recording(data, state, 256, out=data)
                kept[n] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(proc.update_log) == n // 32
            assert proc.rejecting_updates > 0
        assert kept[80000] - kept[20000] <= 16 * (80000 - 20000) // 32, kept

    def test_out_of_another_shape_rejected(self, clean_calibration):
        _, state = clean_calibration
        with pytest.raises(InvalidValue, match="out"):
            asr.clean_recording(np.zeros((4, 10)), state, 5, out=np.zeros((4, 9)))
