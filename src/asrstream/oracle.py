"""Independent offline reference path for cross-checking the streaming code.

Everything here is deliberately naive and whole-recording: explicit
difference equations, per-sample covariance accumulation loops, a cyclic
Jacobi eigensolver, an eigendecomposition-based pseudoinverse, and an
objective-monitored Weiszfeld loop. It shares parameter values and the
documented per-sample sequencing with the streaming implementation, but no
numerical code paths, so agreement between the two is evidence rather than
tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .types import CalibrationParams, round_samples

JACOBI_MAX_SWEEPS = 100
EIG_CLAMP_REL = 1e-12  # same clamp rule as the streaming path (shared constant)


def _jacobi_eig(a: np.ndarray):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns ascending eigenvalues and sign-fixed orthonormal eigenvectors
    (largest-magnitude entry positive, first such entry on ties)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float(np.sum(a * a)))
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(2.0 * float(np.sum(np.tril(a, -1) ** 2)))
        if off <= 1e-14 * max(scale, 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    v = v[:, order]
    anchors = np.argmax(np.abs(v), axis=0)
    for j in range(n):
        if v[anchors[j], j] < 0.0:
            v[:, j] = -v[:, j]
    return vals, v


def _pinv_naive(a: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Pseudoinverse through the Jacobi eigendecomposition of A^T A.

    Squaring loses resolution below sqrt(machine epsilon), so the rank cutoff
    floors at 1e-7 of the largest singular value; anything smaller is
    indistinguishable from the squaring noise."""
    ata = a.T @ a
    vals, v = _jacobi_eig((ata + ata.T) / 2.0)
    sing = np.sqrt(np.maximum(vals, 0.0))
    if sing.size == 0 or sing.max() == 0.0:
        return np.zeros(a.shape[::-1])
    cutoff = max(rel_tol * max(a.shape), 1e-7) * float(sing.max())
    keep = sing > cutoff
    vk = v[:, keep]
    u = (a @ vk) / sing[keep]
    return (vk / sing[keep]) @ u.T


def _weiszfeld_median(points: np.ndarray, max_iter: int = 5000) -> np.ndarray:
    """Long-iteration Weiszfeld loop, run down to machine-precision steps."""
    est = points.mean(axis=0)
    for _ in range(max_iter):
        dist = np.linalg.norm(points - est, axis=1)
        good = dist > 0.0
        if not good.any():
            break
        inv = 1.0 / dist[good]
        new = (points[good] * inv[:, None]).sum(axis=0) / inv.sum()
        step = float(np.linalg.norm(new - est))
        est = new
        if step < 1e-14 * (1.0 + float(np.linalg.norm(est))):
            break
    return est


def _normalize_coeffs(b, a):
    b = np.asarray([1.0] if b is None else b, dtype=float)
    a = np.asarray([1.0] if a is None else a, dtype=float)
    return b / a[0], a / a[0]


def _direct_form_filter(data: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-sample direct-form-I difference equation, one pass over the data."""
    if max(b.size, a.size) == 1:
        return data * b[0]
    channels, n = data.shape
    x_hist = np.zeros((b.size, channels))  # most recent first
    y_hist = np.zeros((a.size - 1, channels))
    out = np.empty_like(data)
    for t in range(n):
        x_hist[1:] = x_hist[:-1]
        x_hist[0] = data[:, t]
        y = b @ x_hist
        if y_hist.size:
            y = y - a[1:] @ y_hist
            y_hist[1:] = y_hist[:-1]
            y_hist[0] = y
        out[:, t] = y
    return out


def _naive_window_rms(x: np.ndarray, width: int, stride: int) -> list[float]:
    values = []
    start = 0
    while start + width <= x.size:
        window = x[start : start + width]
        values.append(math.sqrt(float(np.mean(window * window))))
        start += stride
    return values


def oracle_calibrate(data, srate, params: CalibrationParams, filter_b=None, filter_a=None):
    """Naive calibration; returns (mixing, threshold) arrays."""
    x = np.asarray(data, dtype=float)
    b, a = _normalize_coeffs(filter_b, filter_a)
    filtered = _direct_form_filter(x, b, a)
    channels, n = filtered.shape

    blocksize = params.blocksize
    n_blocks = n // blocksize
    block_vecs = np.empty((n_blocks, channels * channels))
    for k in range(n_blocks):
        acc = np.zeros((channels, channels))
        for i in range(k * blocksize, (k + 1) * blocksize):
            col = filtered[:, i]
            acc += np.outer(col, col)
        block_vecs[k] = (acc / blocksize).ravel()
    cov = _weiszfeld_median(block_vecs).reshape(channels, channels)
    cov = (cov + cov.T) / 2.0

    vals, vecs = _jacobi_eig(cov)
    floor = EIG_CLAMP_REL * float(np.trace(cov)) / channels
    vals = np.maximum(vals, floor)
    mixing = (vecs * np.sqrt(vals)) @ vecs.T
    mixing = (mixing + mixing.T) / 2.0

    _, basis = _jacobi_eig(mixing)
    projected = basis.T @ filtered
    width = round_samples(params.window_len * srate)
    stride = max(1, round_samples(width * (1.0 - params.window_overlap)))
    mu = np.empty(channels)
    sigma = np.empty(channels)
    samples = []  # effective samples per window, one estimate per component
    for i in range(channels):
        rms = np.asarray(_naive_window_rms(projected[i], width, stride))
        mu[i] = float(np.median(rms))
        sigma[i] = 1.4826 * float(np.median(np.abs(rms - mu[i])))
        # the RMS of n Gaussian samples spreads by 1/sqrt(2n) of its value
        samples.append(math.inf if sigma[i] == 0.0 else mu[i] ** 2 / (2.0 * sigma[i] ** 2))
    # lift the limits to the Marchenko-Pastur edge (1 + sqrt(C/n))^2 of the
    # top eigenvalue; same floor of one sample as the streaming path
    n_eff = max(1.0, float(np.median(samples)))
    gain = 1.0 + math.sqrt(channels / n_eff)
    threshold = np.diag(gain * (mu + params.cutoff * sigma)) @ basis.T
    return mixing, threshold


def oracle_process(
    recording,
    calibration_data,
    params: CalibrationParams | None = None,
    *,
    srate: float,
    stepsize: int = 32,
    lookahead: int | None = None,
    filter_b=None,
    filter_a=None,
) -> np.ndarray:
    """Whole-recording reference cleaning; returns the cleaned recording.

    Follows the same per-sample sequencing as the streaming path (delay line,
    covariance of the last W filtered samples, updates every ``stepsize``
    samples, raised cosine blending, identity shortcut) with naive numerics.
    """
    params = params or CalibrationParams()
    x = np.asarray(recording, dtype=float)
    channels, n = x.shape
    b, a = _normalize_coeffs(filter_b, filter_a)
    mixing, threshold = oracle_calibrate(calibration_data, srate, params, b, a)

    window = round_samples(params.window_len * srate)
    delay_len = (
        round_samples(params.window_len * srate / 2.0) if lookahead is None else lookahead
    )
    budget = int(math.floor(params.max_dims_fraction * channels))

    filtered = _direct_form_filter(x, b, a)
    delay = np.zeros((channels, delay_len))
    r_cur = np.eye(channels)
    r_prev = np.eye(channels)
    trivial_cur = True
    trivial_prev = True
    ssu = 0
    out = np.empty_like(x)

    for t in range(n):
        if delay_len > 0:
            slot = t % delay_len
            delayed = delay[:, slot].copy()
            delay[:, slot] = x[:, t]
        else:
            delayed = x[:, t]

        if (t + 1) % stepsize == 0:
            n_eff = min(t + 1, window)
            acc = np.zeros((channels, channels))
            for i in range(n_eff):
                col = filtered[:, t - i]
                acc += np.outer(col, col)
            cov = acc / n_eff
            vals, vecs = _jacobi_eig((cov + cov.T) / 2.0)
            keep = np.empty(channels, dtype=bool)
            for j in range(channels):
                limit = float(np.sum((threshold @ vecs[:, j]) ** 2))
                keep[j] = vals[j] <= limit or j < channels - budget
            n_rejected = int(np.count_nonzero(~keep))
            r_prev, trivial_prev = r_cur, trivial_cur
            if n_rejected == 0:
                r_cur = np.eye(channels)
                trivial_cur = True
            else:
                proj = vecs.T @ mixing
                proj[~keep] = 0.0
                r_cur = mixing @ _pinv_naive(proj) @ vecs.T
                trivial_cur = False
            ssu = 0
        elif t > 0:
            ssu += 1

        if trivial_cur and trivial_prev:
            out[:, t] = delayed
        else:
            w = 0.5 * (1.0 - math.cos(math.pi * (ssu + 1) / stepsize))
            out[:, t] = w * (r_cur @ delayed) + (1.0 - w) * (r_prev @ delayed)
    return out
