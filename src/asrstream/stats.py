"""Sliding-window RMS, robust location/scale, robust covariance estimation."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientData, InvalidInput
# geometric_median stays bound though unused: perfbench/tracing.py wraps stats.geometric_median
from .linalg import geometric_median  # noqa: F401

MAD_SCALE = 1.4826  # Gaussian consistency constant for the MAD
MIN_STATS_VALUES = 8
# Weiszfeld distances expanded as ||B||^2 - 2 tr(BE) + ||E||^2 cancel when
# a block sits near the estimate: below this share of ||B||^2 + ||E||^2 one
# is recomputed from its block (see _block_sq_dists). The expansion's
# absolute error stays near 2e-15 * (||B||^2 + ||E||^2) (measured at 8 to
# 64 channels), so above the threshold its relative error is at most ~2e-13.
EXACT_DIST_SHARE = 1e-2
GROUP_FLOATS = 1 << 18  # floats of data a calibration pass takes at a time (2 MB)
MEDIAN_TOL = 1e-13  # Weiszfeld stops when a step is this small relative to the estimate
MEDIAN_MAX_ITER = 2000


def sliding_rms(
    signal: np.ndarray, srate: float, window_len: float, window_overlap: float
) -> np.ndarray:
    """RMS over windows of round(window_len*srate) samples along the last axis.

    Window starts advance by ``max(1, round(W*(1-overlap)))`` samples; each
    row of a ``(..., N)`` signal gives ``(N - W)//stride + 1`` values. Rows
    are squared one at a time into one N-sample buffer, whose window view
    serves every row, so a row's result equals its 1-d result bit for bit
    and the signal is never copied whole.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim < 1:
        raise InvalidInput("signal must be at least 1-d")
    w = int(round(window_len * srate))
    if w < 2:
        raise InvalidInput("window must span at least 2 samples")
    if not 0 <= window_overlap < 1:
        raise InvalidInput("window_overlap must be in [0, 1)")
    n = x.shape[-1]
    if n < w:
        raise InsufficientData(f"need at least {w} samples, got {n}")
    stride = max(1, int(round(w * (1.0 - window_overlap))))
    rows = x.reshape(-1, n)
    out = np.empty((rows.shape[0], (n - w) // stride + 1))
    power = np.empty(n)
    windows = sliding_window_view(power, w)[::stride]
    for row, dest in zip(rows, out):
        np.square(row, out=power)
        np.add.reduce(windows, axis=1, out=dest)  # the sum a mean takes
    out /= w
    return np.sqrt(out, out=out).reshape(x.shape[:-1] + out.shape[1:])


def median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=-1)`` of finite values, bit for bit: the same
    partition and mean of the middle one or two, without the NaN check whose
    first call imports ``numpy.ma`` (about 15 ms)."""
    n = values.shape[-1]
    half = n // 2
    part = np.partition(values, [half - 1, half, -1] if n % 2 == 0 else [half, -1], axis=-1)
    return part[..., (n - 1) // 2 : half + 1].mean(axis=-1)


def robust_stats(values) -> tuple:
    """Median and scaled MAD along the last axis: (mu, sigma); sigma may be 0.

    A 1-d sample gives two floats; a ``(..., n)`` array gives two arrays of
    its leading shape, one entry per row, each equal to that row's result.
    """
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.shape[-1] < MIN_STATS_VALUES:
        raise InsufficientData(
            f"need at least {MIN_STATS_VALUES} values for a robust fit, got {v.shape[-1]}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidInput("values contain non-finite entries")
    mu = median(v)
    sigma = MAD_SCALE * median(np.abs(v - mu[..., None]))
    if v.ndim == 1:
        return float(mu), float(sigma)
    return mu, sigma


def _block_sq_norms(blocks: np.ndarray) -> np.ndarray:
    """``||X_k X_k^T||_F^2`` of every block in ``blocks`` (n_blocks, C, b),
    from the smaller of the C x C and b x b Gram matrices (equal norms); the
    Grams take no more floats than the blocks."""
    c, b = blocks.shape[1:]
    gram = blocks @ blocks.transpose(0, 2, 1) if c <= b else blocks.transpose(0, 2, 1) @ blocks
    return np.einsum("kij,kij->k", gram, gram)


def _block_sq_dists(
    samples: np.ndarray,
    blocks: np.ndarray,
    block_sq: np.ndarray,
    est: np.ndarray,
    buf: np.ndarray,
) -> np.ndarray:
    """``||B_k - E||_F^2`` for every block covariance ``B_k = X_k X_k^T / b``.

    Expanded as ``||B_k||^2 - 2 tr(B_k E) + ||E||^2`` with the cross terms
    ``x_t^T E x_t`` from one matmul of ``samples`` into ``buf`` and one
    column-wise dot product; a value at or below
    ``EXACT_DIST_SHARE * (||B_k||^2 + ||E||^2)`` lost too many digits to
    cancellation and is recomputed from the block's own samples.
    """
    n_blocks, c, b = blocks.shape
    np.matmul(est, samples, out=buf)
    cross = np.einsum("ij,ij->j", buf, samples).reshape(n_blocks, b).sum(axis=1) / b
    est_sq = float(np.vdot(est, est))
    sq = block_sq - 2.0 * cross + est_sq
    near = np.flatnonzero(sq <= EXACT_DIST_SHARE * (block_sq + est_sq))
    group = max(1, GROUP_FLOATS // (c * b + c * c))
    for i in range(0, near.size, group):
        idx = near[i : i + group]
        y = blocks[idx]
        diff = (y @ y.transpose(0, 2, 1)) / b - est
        sq[idx] = np.einsum("kij,kij->k", diff, diff)
    return sq


def robust_covariance(data: np.ndarray, blocksize: int) -> np.ndarray:
    """Geometric median of per-block mean outer products, symmetrized.

    Samples are split into ``N // blocksize`` consecutive blocks (any
    remainder is dropped, though it must be finite too); each block
    contributes its mean outer product ``B_k = X_k X_k^T / b`` as a C*C
    vector, and the Weiszfeld median of those vectors is the estimate (the
    iteration of ``linalg.geometric_median``, from the block mean).

    The iteration runs in sample space and walks the data in groups of
    whole blocks of at most ``GROUP_FLOATS`` floats (one block if a block
    is larger), so neither the ``(n_blocks, C*C)`` matrix of block
    covariances nor any C x N temporary is built: beyond its input it holds
    O(GROUP_FLOATS + C*C + N/blocksize) floats. A first pass checks each
    group's finiteness and takes its blocks' squared norms. Each step is
    then one pass: a group's distances come from ``_block_sq_dists`` (one
    ``gemm`` into the group's work buffer), and its share of the weighted
    sum ``sum_k w_k B_k`` is ``Y Y^T`` with
    ``Y = X diag(sqrt(w_k / b) per sample)`` written into the same buffer,
    which numpy hands to the symmetric rank-k update ``syrk``. A block that
    coincides with the estimate is skipped, and the loop stops when the
    step's Frobenius norm drops below ``MEDIAN_TOL * (1 + ||estimate||)``
    or after ``MEDIAN_MAX_ITER`` steps.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("data must be (channels, samples)")
    if blocksize < 1:
        raise InvalidInput("blocksize must be >= 1")
    c, n = x.shape
    n_blocks = n // blocksize
    if n_blocks < 1:
        raise InsufficientData(f"need at least one block of {blocksize} samples")
    if n < c:
        raise InsufficientData("need at least as many samples as channels")
    b = blocksize
    samples = x[:, : n_blocks * b]
    blocks = samples.reshape(c, n_blocks, b).transpose(1, 0, 2)
    per = max(1, GROUP_FLOATS // (c * b))  # blocks per group
    groups = [slice(k, min(k + per, n_blocks)) for k in range(0, n_blocks, per)]
    block_sq = np.empty(n_blocks)
    for group in groups:
        if not np.isfinite(blocks[group]).all():
            raise InvalidInput("data contains non-finite values")
        block_sq[group] = _block_sq_norms(blocks[group]) / b**2
    if not np.isfinite(x[:, n_blocks * b :]).all():
        raise InvalidInput("data contains non-finite values")

    work = np.empty(c * b * min(per, n_blocks))
    inv = np.empty(n_blocks)
    est = (samples @ samples.T) / samples.shape[1]
    for _ in range(MEDIAN_MAX_ITER):
        weighted = np.zeros((c, c))
        for group in groups:
            cols = samples[:, group.start * b : group.stop * b]
            buf = work[: cols.size].reshape(cols.shape)
            dist = np.sqrt(_block_sq_dists(cols, blocks[group], block_sq[group], est, buf))
            w = inv[group]
            w[:] = 0.0
            np.divide(1.0, dist, out=w, where=dist > 0.0)
            np.multiply(cols, np.repeat(np.sqrt(w / b), b), out=buf)
            weighted += buf @ buf.T
        total = inv.sum()
        if total == 0.0:
            break  # every block sits on the estimate: it is the median
        new = weighted / total
        step = float(np.linalg.norm(new - est))
        est = new
        if step < MEDIAN_TOL * (1.0 + float(np.linalg.norm(est))):
            break
    return (est + est.T) / 2.0
