"""Calibration: learn the mixing and threshold operators from clean data."""

from __future__ import annotations

import logging
from math import inf

import numpy as np

from .errors import InsufficientData, InvalidInput
from .filters import NOOP_A, NOOP_B, initial_filter_state, iir_filter, normalize_coefficients
from .linalg import matrix_sqrt_psd, symmetric_eig
from .stats import MIN_STATS_VALUES, robust_covariance, robust_stats, sliding_rms
from .types import CalibrationParams, CalibrationState

logger = logging.getLogger(__name__)

RECOMMENDED_MIN_SECONDS = 10.0


def asr_calibrate(
    data: np.ndarray,
    srate: float,
    params: CalibrationParams | None = None,
    filter_b=None,
    filter_a=None,
) -> CalibrationState:
    """Learn a CalibrationState from presumed-artifact-free data.

    The input should be zero-mean (e.g. high-pass filtered) multichannel data
    that is reasonably clean; 30 seconds or more is typical, 10 seconds is the
    recommended floor. The pipeline is:

    1. shaping IIR filter (no-op unless coefficients are supplied),
    2. robust block covariance, then its PSD square root (the mixing matrix),
    3. projection onto the mixing matrix's eigenbasis,
    4. per-component sliding RMS, then median/MAD location and scale,
    5. threshold operator diag(mu + cutoff*sigma) @ V.T.

    Deterministic for fixed input.

    Parameters
    ----------
    data : array, shape (channels, samples)
    srate : float
        Sampling rate in Hz.
    params : CalibrationParams, optional
    filter_b, filter_a : sequence of float, optional
        Shaping-filter coefficients; both default to the identity filter.

    Returns
    -------
    CalibrationState
    """
    params = params or CalibrationParams()
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("data must be (channels, samples)")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("data contains non-finite values")
    if not 0 < srate < inf:  # NaN too
        raise InvalidInput("srate must be > 0")
    c, n = x.shape
    if c < 1 or n < 1:
        raise InvalidInput("data must have at least one channel and one sample")

    params.check_window(srate, c)
    w = params.window_samples(srate)
    if n < w:
        raise InsufficientData(
            f"need at least {w} samples (one statistics window), got {n}"
        )
    stride = params.window_stride(srate)
    n_windows = (n - w) // stride + 1
    if n_windows < MIN_STATS_VALUES:
        raise InsufficientData(
            f"need at least {MIN_STATS_VALUES} statistics windows, got {n_windows}"
        )
    if n < params.blocksize:
        raise InsufficientData(
            f"need at least one covariance block of {params.blocksize} samples"
        )
    if n / srate < RECOMMENDED_MIN_SECONDS:
        logger.info(
            "calibration data is %.1f s; %.0f s or more is recommended",
            n / srate,
            RECOMMENDED_MIN_SECONDS,
        )

    b, a = normalize_coefficients(
        NOOP_B if filter_b is None else filter_b,
        NOOP_A if filter_a is None else filter_a,
    )
    filtered, _ = iir_filter(x, b, a, initial_filter_state(c, b, a))

    cov = robust_covariance(filtered, params.blocksize)
    mixing = matrix_sqrt_psd(cov)  # CalibrationDegenerate propagates
    _, eigvecs = symmetric_eig(mixing)

    projected = eigvecs.T @ filtered
    mu = np.empty(c)
    sigma = np.empty(c)
    for i in range(c):
        rms = sliding_rms(projected[i], srate, params.window_len, params.window_overlap)
        mu[i], sigma[i] = robust_stats(rms)

    threshold = np.diag(mu + params.cutoff * sigma) @ eigvecs.T
    return CalibrationState(
        mixing=mixing,
        threshold=threshold,
        filter_b=b,
        filter_a=a,
        srate=float(srate),
        params=params,
    )
