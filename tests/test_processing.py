import copy
import dataclasses
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
        whole, _ = run_stream(stream, state, chunk_size=n)
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

    def test_update_cadence_and_counter_invariants(self, clean_calibration):
        _, state = clean_calibration
        rng = np.random.default_rng(66)
        stream = rng.standard_normal((4, 1000))
        out, proc = run_stream(stream, state, chunk_size=17, stepsize=25)
        assert [t for t, _ in proc.update_log] == list(range(24, 1000, 25))
        assert proc.total_samples_seen == 1000
        # updates fall where (t + 1) % stepsize == 0, so their count has a closed form
        assert proc.total_samples_seen // proc.stepsize == len(proc.update_log)

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

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_a_stretch_too_large_to_square_is_cleaned_as_a_smaller_one(
        self, clean_calibration, scale
    ):
        _, state = clean_calibration
        rec = np.random.default_rng(7).standard_normal((4, 2000))
        runs = []
        for s in (1e150, scale):
            x = rec.copy()
            x[:, 1000:1040] *= s
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow warning either
                runs.append(asr.clean_recording(x, state, 32))
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

    def test_out_of_another_shape_rejected(self, clean_calibration):
        _, state = clean_calibration
        with pytest.raises(InvalidValue, match="out"):
            asr.clean_recording(np.zeros((4, 10)), state, 5, out=np.zeros((4, 9)))
