import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrstream import stats
from asrstream.errors import InsufficientData, InvalidInput
from asrstream.linalg import geometric_median
from asrstream.stats import robust_covariance, robust_stats, sliding_rms
from asrstream.synthetic import SyntheticSpec, generate_synthetic


class TestSlidingRms:
    def test_constant_signal(self):
        out = sliding_rms(np.full(100, 2.0), srate=10.0, window_len=1.0, window_overlap=0.5)
        assert np.allclose(out, 2.0)

    def test_small_window_arithmetic(self):
        # W=2, stride=1 over [0,2,0,2]
        out = sliding_rms(np.array([0.0, 2.0, 0.0, 2.0]), srate=2.0, window_len=1.0, window_overlap=0.5)
        assert np.allclose(out, np.sqrt(2.0))
        assert out.size == 3

    def test_window_count(self):
        # N=20, W=6, overlap=0.5 -> stride=3 -> (20-6)//3 + 1 = 5
        out = sliding_rms(np.ones(20), srate=6.0, window_len=1.0, window_overlap=0.5)
        assert out.size == 5

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            sliding_rms(np.ones(3), srate=10.0, window_len=1.0, window_overlap=0.0)

    def test_window_too_small(self):
        with pytest.raises(InvalidInput):
            sliding_rms(np.ones(10), srate=1.0, window_len=1.0, window_overlap=0.0)

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.9))
    def test_matches_naive_recomputation(self, seed, overlap):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(200)
        srate, window_len = 50.0, 0.3
        got = sliding_rms(x, srate, window_len, overlap)
        w = int(round(window_len * srate))
        stride = max(1, int(round(w * (1 - overlap))))
        want = []
        start = 0
        while start + w <= x.size:
            want.append(np.sqrt(np.mean(x[start : start + w] ** 2)))
            start += stride
        assert got.size == len(want)
        assert np.abs(got - np.asarray(want)).max() < 1e-12


    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.66])
    def test_rows_equal_their_one_dimensional_results(self, overlap):
        x = np.random.default_rng(31).standard_normal((5, 1003)) * np.arange(1, 6)[:, None]
        got = sliding_rms(x, 100.0, 0.37, overlap)
        want = np.array([sliding_rms(row, 100.0, 0.37, overlap) for row in x])
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_leaves_its_input_untouched(self):
        x = np.random.default_rng(32).standard_normal((2, 3, 400))
        before = x.copy()
        got = sliding_rms(x, 50.0, 1.0, 0.5)
        assert got.shape == (2, 3, 15) and np.array_equal(x, before)
        assert np.array_equal(got[1, 2], sliding_rms(x[1, 2], 50.0, 1.0, 0.5))


class TestRobustStats:
    def test_forced_arithmetic(self):
        # median 5, absolute deviations (4,3,2,1,0,1,2,3,4) -> MAD 2
        mu, sigma = robust_stats([1, 2, 3, 4, 5, 6, 7, 8, 9])
        assert mu == 5.0
        assert sigma == pytest.approx(1.4826 * 2.0)

    def test_constant_list(self):
        mu, sigma = robust_stats([3.5] * 10)
        assert mu == 3.5
        assert sigma == 0.0

    def test_gaussian_sample(self):
        rng = np.random.default_rng(123)
        values = rng.normal(5.0, 2.0, size=1000)
        mu, sigma = robust_stats(values)
        assert abs(mu - 5.0) < 0.2
        assert abs(sigma - 2.0) < 0.3

    def test_minimum_count(self):
        with pytest.raises(InsufficientData):
            robust_stats([1.0] * 7)

    @given(st.integers(0, 2**31 - 1), st.floats(-10, 10), st.floats(0.1, 5))
    def test_affine_equivariance(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(50)
        mu0, sig0 = robust_stats(v)
        mu1, sig1 = robust_stats(v * scale + shift)
        assert mu1 == pytest.approx(mu0 * scale + shift, rel=1e-9, abs=1e-9)
        assert sig1 == pytest.approx(sig0 * scale, rel=1e-9, abs=1e-9)


    def test_rows_equal_their_one_dimensional_results(self):
        rng = np.random.default_rng(33)
        v = rng.standard_normal((6, 41)) * rng.random((6, 1)) + rng.standard_normal((6, 1))
        v[2] = 1.5  # a constant row: sigma 0
        mu, sigma = robust_stats(v)
        want = [robust_stats(row) for row in v]
        assert mu.shape == sigma.shape == (6,)
        assert np.array_equal(mu, [m for m, _ in want])
        assert np.array_equal(sigma, [s for _, s in want])
        assert sigma[2] == 0.0

    def test_one_dimensional_input_gives_floats(self):
        mu, sigma = robust_stats(np.arange(9.0))
        assert type(mu) is float and type(sigma) is float

    def test_minimum_count_is_per_row(self):
        with pytest.raises(InsufficientData, match="got 7"):
            robust_stats(np.ones((20, 7)))


class TestRobustCovariance:
    def test_zero_data(self):
        out = robust_covariance(np.zeros((3, 30)), blocksize=5)
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_single_block_equals_mean_outer_product(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 24))
        got = robust_covariance(x, blocksize=24)
        want = x @ x.T / 24
        want = (want + want.T) / 2
        assert np.array_equal(got, want)

    def test_unit_noise_near_identity(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal((8, 30000))
        cov = robust_covariance(x, blocksize=10)
        rel = np.linalg.norm(cov - np.eye(8)) / np.linalg.norm(np.eye(8))
        assert rel < 0.1

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            robust_covariance(np.zeros((2, 5)), blocksize=10)

    def test_more_channels_than_samples(self):
        with pytest.raises(InsufficientData):
            robust_covariance(np.zeros((6, 4)), blocksize=2)

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 500))
        cov = robust_covariance(x, blocksize=10)
        assert np.array_equal(cov, cov.T)


def explicit_median(x, blocksize):
    """The median over the explicitly built (n_blocks, C*C) block matrix."""
    c, n = x.shape
    b = blocksize
    pts = np.array(
        [(x[:, k * b : (k + 1) * b] @ x[:, k * b : (k + 1) * b].T / b).ravel() for k in range(n // b)]
    )
    med = geometric_median(pts, tol=1e-13, max_iter=2000).reshape(c, c)
    return (med + med.T) / 2.0


def rel_frobenius(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def clustered_blocks(c, b, n_blocks, spread, seed):
    """Blocks whose covariances sit about ``spread`` (relative) from ``E``:
    ``X_k = sqrt(b) L (I + s_k G_k) Q_k^T`` with ``L L^T = E``, Gaussian
    ``G_k / sqrt(C)`` and orthonormal ``Q_k`` (needs b >= C), so
    ``X_k X_k^T / b = L (I + s_k G_k)(I + s_k G_k)^T L^T``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((c, c))
    cov = a @ a.T / c + np.eye(c)
    root = np.linalg.cholesky(cov)
    spreads = np.broadcast_to(spread, (n_blocks,))
    parts = []
    for k in range(n_blocks):
        g = rng.standard_normal((c, c)) / np.sqrt(c)
        q, _ = np.linalg.qr(rng.standard_normal((b, c)))
        parts.append(np.sqrt(b) * root @ (np.eye(c) + spreads[k] * g) @ q.T)
    return np.hstack(parts), cov


class TestSampleSpaceMedian:
    @pytest.mark.parametrize(
        "channels,srate,seconds,blocksize",
        [(8, 250.0, 30.0, 10), (24, 500.0, 20.0, 10), (64, 1000.0, 8.0, 10), (24, 500.0, 20.0, 7)],
    )
    def test_equals_explicit_block_median(self, channels, srate, seconds, blocksize):
        spec = SyntheticSpec(
            channels=channels, srate=srate, duration=1.0,
            calibration_duration=seconds, mixing_seed=7, noise_seed=13,
        )
        calib, _, _ = generate_synthetic(spec)
        if blocksize == 7:
            assert calib.shape[1] % blocksize  # a remainder is dropped
        got = robust_covariance(calib, blocksize)
        assert rel_frobenius(got, explicit_median(calib, blocksize)) <= 1e-12

    def test_clustered_blocks_take_the_exact_distances(self):
        x, cov = clustered_blocks(8, 16, 60, 1e-7, seed=5)
        got = robust_covariance(x, 16)
        assert rel_frobenius(got, explicit_median(x, 16)) <= 1e-12
        assert rel_frobenius(got, cov) < 1e-6

    def test_expanded_distance_is_accurate_above_the_threshold(self, monkeypatch):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("needs an extended-precision long double for the reference")
        c, b, n_blocks = 24, 32, 160
        x, cov = clustered_blocks(c, b, n_blocks, np.logspace(-3, 0.5, n_blocks), seed=9)
        blocks = x.reshape(c, n_blocks, b).transpose(1, 0, 2)
        block_sq = stats._block_sq_norms(blocks) / b**2
        with monkeypatch.context() as patch:
            patch.setattr(stats, "EXACT_DIST_SHARE", -np.inf)  # expansion only
            expanded = stats._block_sq_dists(x, blocks, block_sq, cov, np.empty_like(x))
        xl = x.astype(np.longdouble)
        want = np.empty(n_blocks)
        for k in range(n_blocks):
            y = xl[:, k * b : (k + 1) * b]
            diff = y @ y.T / b - cov.astype(np.longdouble)
            want[k] = float((diff * diff).sum())
        share = want / (block_sq + float(np.vdot(cov, cov)))
        kept = share > stats.EXACT_DIST_SHARE
        assert kept.sum() > 50 and (~kept).sum() > 50  # both sides are exercised
        assert np.max(np.abs(expanded[kept] - want[kept]) / want[kept]) <= 1e-12
        exact = stats._block_sq_dists(x, blocks, block_sq, cov, np.empty_like(x))
        assert np.max(np.abs(exact - want) / want) <= 1e-12

    def test_identical_blocks_return_the_block_covariance(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((8, 10))
        got = robust_covariance(np.tile(block, 50), blocksize=10)
        want = block @ block.T / 10
        assert rel_frobenius(got, (want + want.T) / 2.0) <= 1e-15

    def test_all_zero_blocks(self):
        out = robust_covariance(np.zeros((8, 1003)), blocksize=10)
        assert np.array_equal(out, np.zeros((8, 8)))

    def test_memory_stays_linear_in_the_input(self):
        x = np.random.default_rng(21).standard_normal((64, 30_000))
        tracemalloc.start()
        try:
            robust_covariance(x, blocksize=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes
