"""Calibration: learn the mixing and threshold operators from clean data."""

from __future__ import annotations

import logging
from math import inf, sqrt

import numpy as np

from .errors import InsufficientData, InvalidInput
from .filters import NOOP_A, NOOP_B, initial_filter_state, iir_filter, normalize_coefficients
from .linalg import matrix_sqrt_psd, symmetric_eig
from . import stats
from .stats import MIN_STATS_VALUES, robust_covariance, robust_stats, sliding_rms
from .types import CalibrationParams, CalibrationState

logger = logging.getLogger(__name__)

RECOMMENDED_MIN_SECONDS = 10.0
# a gemm computes a product's last N % unroll columns with an edge kernel
# whose sums round differently (OpenBLAS at 64 channels: unroll 8), so
# projected column groups start and end on multiples of this, a multiple of
# the usual unrolls along N
COLUMN_ALIGN = 64


def _component_rms(filtered, eigvecs, srate: float, params: CalibrationParams) -> np.ndarray:
    """``sliding_rms(eigvecs.T @ filtered, ...)``, projected in column groups.

    A group holds at most ``stats.GROUP_FLOATS // C`` columns of window
    starts, the ``W - stride`` samples its last window runs past them and up
    to ``COLUMN_ALIGN`` columns at either end; the last group runs to the
    end of the data. Every window lies inside one group, and every column is
    computed by the same BLAS kernel as in a whole-array product, so on one
    BLAS thread the result is that product's bit for bit, whatever the
    group size.
    """
    c, n = filtered.shape
    w = params.window_samples(srate)
    stride = params.window_stride(srate)
    windows = (n - w) // stride + 1
    per = max(1, stats.GROUP_FLOATS // (c * stride))  # windows per group
    rms = np.empty((c, windows))
    for j in range(0, windows, per):
        last = min(j + per, windows)
        first = j * stride
        end = n if last == windows else (last - 1) * stride + w
        start = first - first % COLUMN_ALIGN
        stop = min(n, end + -end % COLUMN_ALIGN)
        # a temporary, freed before the next group's product is made
        rms[:, j:last] = sliding_rms(
            (eigvecs.T @ filtered[:, start:stop])[:, first - start : end - start],
            srate,
            params.window_len,
            params.window_overlap,
        )
    return rms


def threshold_gain(mu: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """``(g, n_eff)``: the gain ``g = 1 + sqrt(C / n_eff)`` that lifts the
    per-component limits to the top of the Marchenko–Pastur spectrum, and
    the effective sample count ``n_eff`` of a statistics window.

    The largest eigenvalue of a C-channel covariance from n effective samples
    sits near ``(1 + sqrt(C / n))**2`` times its population value (Johnstone,
    Ann. Stat. 2001), a factor the RMS along fixed directions misses. The
    RMS of n Gaussian samples has a relative spread of ``1 / sqrt(2 n)``, so
    ``n_eff = median_j(mu_j**2 / (2 sigma_j**2))`` over the C components.
    A component with ``sigma = 0`` counts as infinitely many samples, and
    ``n_eff`` is at least 1 (a window holds at least one sample), so g stays
    finite and lies in ``[1, 1 + sqrt(C)]``. Heavy tails raise sigma, lower
    ``n_eff`` and raise g: the estimate errs on the side of rejecting less.
    """
    ratio = np.full(mu.shape, inf)
    with np.errstate(over="ignore"):  # a huge ratio is as good as an infinite one
        np.divide(mu, sigma, out=ratio, where=sigma > 0)
        n_eff = max(1.0, float(stats.median(ratio * ratio)) / 2.0)
    return 1.0 + sqrt(mu.size / n_eff), n_eff


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
    5. threshold operator g * diag(mu + cutoff*sigma) @ V.T, with the
       Marchenko–Pastur gain g of :func:`threshold_gain`.

    Deterministic for fixed input. Steps 2 to 4 walk the data in column
    groups of at most ``stats.GROUP_FLOATS`` floats (a group of step 4 also
    holds the ``W - stride`` samples its last statistics window of W samples
    runs past the group), so beyond its input calibration holds
    O(GROUP_FLOATS + C*W + C*C + N/blocksize + C*N/stride) floats, plus one
    filtered copy of the data when a shaping filter is given.

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
    if not 0 < srate < inf:  # NaN too
        raise InvalidInput("srate must be > 0")
    c, n = x.shape
    if c < 1 or n < 1:
        raise InvalidInput("data must have at least one channel and one sample")

    params.check_window(srate, c)
    w = params.window_samples(srate)
    stride = params.window_stride(srate)
    # needs in seconds: at an absurd rate a needed sample count has 300 digits
    needs = (
        (w, "one statistics window"),
        (w + (MIN_STATS_VALUES - 1) * stride, f"{MIN_STATS_VALUES} statistics windows"),
        (params.blocksize, f"one covariance block of {params.blocksize} samples"),
    )
    for need, what in needs:
        if n < need:
            raise InsufficientData(
                f"need at least {need / srate:.4g} s of data ({what}), "
                f"got {n} samples ({n / srate:.4g} s)"
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
    # robust_covariance checks finiteness group by group; a filter would
    # turn a non-finite input into FilterDiverged, so check it first there
    if (b, a) != (NOOP_B, NOOP_A) and not np.isfinite(x).all():
        raise InvalidInput("data contains non-finite values")
    filtered, _ = iir_filter(x, b, a, initial_filter_state(c, b, a))

    cov = robust_covariance(filtered, params.blocksize)
    mixing = matrix_sqrt_psd(cov)  # CalibrationDegenerate propagates
    _, eigvecs = symmetric_eig(mixing)

    rms = _component_rms(filtered, eigvecs, srate, params)
    mu, sigma = robust_stats(rms)

    gain, n_eff = threshold_gain(mu, sigma)
    threshold = np.diag(gain * (mu + params.cutoff * sigma)) @ eigvecs.T
    return CalibrationState(
        mixing=mixing,
        threshold=threshold,
        filter_b=b,
        filter_a=a,
        srate=float(srate),
        params=params,
        gain=gain,
        n_eff=n_eff,
    )
