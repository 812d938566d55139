"""Stateful per-chunk detection and correction.

The per-sample contract, which any partition of the stream into chunks must
reproduce exactly:

1. the raw sample enters the lookahead delay line; the L-delayed raw sample
   comes out,
2. the raw sample is IIR-filtered (carried state); the state keeps the last
   W filtered samples, oldest first, zeros before the stream starts,
3. at update instants (every ``stepsize`` samples, i.e. when
   ``(t + 1) % stepsize == 0``) the covariance ``sum(y y^T) / n_eff`` of the
   W filtered samples ending at ``t``, summed in time order, with
   ``n_eff = min(t + 1, W)``, feeds a detection update and the
   reconstruction pair rotates (previous <- current <- new); a rejecting
   update builds ``R = M pinv(D V^T M) V^T`` in its closed complement form
   ``I - V_r pinv(M^-1 V_r) M^-1`` from a thin QR of ``M^-1 V_r`` over the
   rejected eigenvectors ``V_r`` (no SVD, numpy only). A chunk stacks the
   covariances of all its update instants and detects on them in one
   :func:`detect` call, one batched ``eigh`` for the whole stack,
4. the output sample is ``[w R_cur + (1 - w) R_prev] @ delayed`` with the
   raised-cosine weight ``w = (1 - cos(pi (ssu + 1) / stepsize)) / 2``, where
   ``ssu = (t + 1) mod stepsize`` counts samples since the last update (0 at
   an update instant; before the first update both matrices are the
   identity, so the weight is never read). The weights are tabulated once
   per ``stepsize``. An identity operator is held as ``None`` and applied as
   the delayed sample itself; when both are ``None`` the blend is skipped
   and the delayed sample is passed through bit-exactly.

The implementation below vectorizes runs of samples between update instants;
all state is keyed off global sample indices, so chunk boundaries are
invisible to the arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CalibrationDegenerate, ChannelMismatch, InvalidInput, InvalidValue
from .filters import filter_order, iir_filter
# pinv and symmetric_eig stay bound though unused: perfbench/tracing.py wraps
# processing.pinv and processing.symmetric_eig
from .linalg import pinv, symmetric_eig  # noqa: F401
from .types import DEFAULT_STEPSIZE, CalibrationState, MultichannelChunk, ProcessorState


def load_kernels(calib: CalibrationState) -> None:
    """Import the deferred library that cleaning with ``calib`` can call:
    ``scipy.signal``, and only when ``calib`` has a shaping filter. Its
    import takes about a second, so a live stream and ``clean_recording``
    do it before their first chunk rather than in the middle of the pass.
    Without a filter, cleaning loads no part of scipy."""
    if filter_order(calib.filter_b, calib.filter_a):
        import scipy.signal  # noqa: F401


def _reconstruct(calib: CalibrationState, rejected: np.ndarray) -> np.ndarray:
    """``I - V_r R_q^-1 Q^T N`` from the thin QR ``N V_r = Q R_q``, where
    ``N = M^-1`` and ``V_r`` holds the rejected eigenvectors."""
    inverse = calib.inverse_mixing
    if inverse is None:
        raise CalibrationDegenerate(
            "mixing matrix is singular; the reconstruction is undefined"
        )
    q, r_q = np.linalg.qr(inverse @ rejected)
    coef = np.linalg.solve(r_q, q.T @ inverse)  # r_q is r x r upper triangular
    return np.eye(rejected.shape[0]) - rejected @ coef


def detect(
    covs: np.ndarray, calib: CalibrationState, shifts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray | None]]:
    """One detection step for each covariance of the ``(k, C, C)`` stack
    ``covs``: compare its eigenvalues against the calibration thresholds and
    build its reconstruction matrix. ``shifts``, if given, holds one integer
    per covariance: ``covs[i]`` is the covariance scaled by ``4**-shifts[i]``,
    and its limits are scaled the same way, so the keep flags and ``R`` do
    not change (``R`` depends only on the eigenvectors and ``M``); its
    eigenvalues are returned as scaled.

    The stack is checked for finiteness once, symmetrized, and decomposed by
    one batched ``eigh``. Component j (eigenvalues ascending) is kept iff its
    eigenvalue stays at or below ``sum((threshold @ v_j)**2)``, or j lies
    below the rejection budget ``floor(calib.params.max_dims_fraction * C)``
    counted from the top. With nothing rejected the reconstruction is the
    identity, held as ``None``, and with everything rejected it is exactly
    zero; otherwise it is ``R = M @ pinv(keep * (V^T M)) @ V^T`` (all-real
    arithmetic throughout), evaluated from the r rejected eigenvectors
    ``V_r`` alone.
    With M symmetric positive definite, N = M^-1 and V orthogonal, ``R`` is
    the oblique projector that annuls ``V_r`` and fixes the range of
    ``M^2 V_k``, so ``R = I - V_r pinv(N V_r) N``; with the thin QR
    ``N V_r = Q R_q`` that is ``I - V_r R_q^-1 Q^T N``. Unlike the Gram solve
    ``(V_r^T N^2 V_r)^-1`` this does not square the condition number of M,
    and its cost scales with r rather than with the C - r kept components.

    The eigenvectors keep LAPACK's signs: negating a column of ``V_r``
    negates the matching column of ``R_q`` and row of ``R_q^-1 Q^T N`` and
    nothing else, and IEEE negation is exact, so ``R``, like the keep flags,
    is bit-for-bit independent of them. A numerically singular M (only a
    hand-made or loaded state can have one) raises CalibrationDegenerate at
    any update that rejects some but not all components.

    Returns ``(eigvals, eigvecs, keep, reconstructions)``: arrays of shape
    ``(k, C)``, ``(k, C, C)`` and ``(k, C)``, and a list of k matrices.
    """
    if not np.isfinite(covs).all():
        raise InvalidInput("covariance contains non-finite entries")
    c = calib.channels
    eigvals, eigvecs = np.linalg.eigh((covs + covs.transpose(0, 2, 1)) / 2.0)

    budget = int(np.floor(calib.params.max_dims_fraction * c))
    protected = np.arange(c) < c - budget  # smallest components, never rejected
    limits = np.sum((calib.threshold @ eigvecs) ** 2, axis=1)
    if shifts is not None:
        limits = np.ldexp(limits, -2 * np.asarray(shifts)[:, None])
    keep = (eigvals <= limits) | protected
    recons = []
    for vecs, kept in zip(eigvecs, keep):
        if kept.all():
            recons.append(None)
        elif not kept.any():
            recons.append(np.zeros((c, c)))  # pinv of an all-zero projection
        else:
            recons.append(_reconstruct(calib, vecs[:, ~kept]))
    return eigvals, eigvecs, keep, recons


# stays bound though nothing calls it: perfbench/tracing.py wraps
# processing.update_reconstruction
update_reconstruction = detect


def _overflow_shift(segment: np.ndarray) -> int:
    """A k >= 0 that brings ``segment * 2**-k`` low enough for the sums of
    products over its W columns to stay below ``2**1020``; 0 when the
    segment is not finite, which leaves its covariance non-finite."""
    _, exponent = np.frexp(np.max(np.abs(segment)))  # max |x| < 2**exponent
    return max(0, int(exponent) - (1020 - segment.shape[1].bit_length()) // 2)


@lru_cache(maxsize=8)
def _blend_weights(stepsize: int) -> np.ndarray:
    """The read-only ``(2, stepsize)`` table of the weights ``w`` and
    ``1 - w`` of the samples ``ssu = 0 .. stepsize - 1`` after an update."""
    ssu = np.arange(stepsize)
    w = 0.5 * (1.0 - np.cos(np.pi * (ssu + 1) / stepsize))
    table = np.array([w, 1.0 - w])
    table.flags.writeable = False
    return table


def _emit(
    out: np.ndarray,
    delayed: np.ndarray,
    r_current: np.ndarray | None,
    r_previous: np.ndarray | None,
    weights: np.ndarray,
    a: int,
    b: int,
    ssu: int,
) -> None:
    """Blend-and-write output columns [a, b), whose first lies ``ssu``
    samples after an update and which hold no later update instant; a
    ``None`` operator is the identity, and with both ``None`` the columns
    are copied."""
    d = delayed[:, a:b]
    if a == b or (r_current is None and r_previous is None):
        out[:, a:b] = d
        return
    w, v = weights[:, ssu : ssu + b - a]
    current = d if r_current is None else r_current @ d
    previous = d if r_previous is None else r_previous @ d
    out[:, a:b] = current * w + previous * v


def asr_process_chunk(
    chunk: MultichannelChunk, calib: CalibrationState, state: ProcessorState
) -> tuple[MultichannelChunk, ProcessorState]:
    """Clean one chunk; returns a chunk of identical dimensions plus the
    updated state (mutated in place and returned).

    Output content is the input delayed by exactly ``state.lookahead``
    samples, passed through the blended reconstruction operators. A chunk of
    zero samples is returned unchanged with the state untouched. The call is
    transactional: if it raises, ``state`` is left exactly as it was.
    """
    x = np.asarray(chunk.data, dtype=float)
    if x.ndim != 2:
        raise InvalidInput("chunk data must be (channels, samples)")
    c = calib.channels
    if x.shape[0] != c:
        raise ChannelMismatch(
            f"chunk has {x.shape[0]} channels, calibration has {c}"
        )
    if chunk.srate != calib.srate:
        raise InvalidInput(
            f"chunk srate {chunk.srate} does not match calibration srate {calib.srate}"
        )
    n_samples = x.shape[1]
    if n_samples == 0:
        return chunk, state
    if not np.all(np.isfinite(x)):
        raise InvalidInput("chunk contains non-finite values")

    # lookahead delay line (zeros emerge during the first L samples)
    joined = np.concatenate([state.delay_buffer, x], axis=1)
    delayed = joined[:, :n_samples]
    filtered, filter_state = iir_filter(
        x, calib.filter_b, calib.filter_a, state.filter_state
    )

    out = np.empty((c, n_samples))
    t0 = state.total_samples_seen
    step = state.stepsize
    weights = _blend_weights(step)
    window = state.cov_window.shape[1]
    # the W filtered samples ending at chunk sample j are columns j + 1 .. j + W
    tail = np.concatenate([state.cov_window, filtered], axis=1)
    instants = range(step - 1 - t0 % step, n_samples, step)
    covs = np.empty((len(instants), c, c))
    shifts = None
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is mended below
        for cov, j in zip(covs, instants):
            segment = tail[:, j + 1 : j + 1 + window]
            np.matmul(segment, segment.T, out=cov)
            cov /= min(t0 + j + 1, window)
        if not np.isfinite(covs).all():
            # finite samples whose products overflow: rebuild the covariance
            # from the segment times 2**-k, which scales it by exactly 4**-k
            shifts = np.zeros(len(instants), dtype=int)
            for i in np.flatnonzero(~np.isfinite(covs).all(axis=(1, 2))):
                j = instants[i]
                segment = tail[:, j + 1 : j + 1 + window]
                shifts[i] = _overflow_shift(segment)
                scaled = np.ldexp(segment, -shifts[i])
                np.matmul(scaled, scaled.T, out=covs[i])
                covs[i] /= min(t0 + j + 1, window)
    if instants:
        _, _, keep, recons = detect(covs, calib, shifts)
    r_current, r_previous = state.r_current, state.r_previous
    log = []
    pos = 0
    for i, j in enumerate(instants):
        _emit(out, delayed, r_current, r_previous, weights, pos, j, (t0 + pos + 1) % step)
        r_previous, r_current = r_current, recons[i]
        log.append((t0 + j, c - int(np.count_nonzero(keep[i]))))
        _emit(out, delayed, r_current, r_previous, weights, j, j + 1, 0)
        pos = j + 1
    _emit(out, delayed, r_current, r_previous, weights, pos, n_samples, (t0 + pos + 1) % step)

    # both copies exist before either is assigned, and nothing below can raise
    state.delay_buffer, state.cov_window = joined[:, n_samples:].copy(), tail[:, n_samples:].copy()
    state.filter_state = filter_state
    state.r_current, state.r_previous = r_current, r_previous
    state.update_log.extend(log)
    state.total_samples_seen = t0 + n_samples
    cleaned = MultichannelChunk(
        data=out, srate=chunk.srate, first_sample_index=chunk.first_sample_index
    )
    return cleaned, state


def pass_chunk_through(
    chunk: MultichannelChunk, state: ProcessorState
) -> MultichannelChunk:
    """The fail-open path: ``chunk``'s input delayed by ``state.lookahead``
    samples, uncleaned, so a stream that skips cleaning one chunk keeps its
    alignment (no sample repeats or goes missing).

    Only the delay line advances; the filter, covariance window, reconstruction
    pair and sample counters stay as they were, so the chunk never enters the
    statistics. The call is transactional like ``asr_process_chunk``.
    """
    n_samples = chunk.data.shape[1]
    joined = np.concatenate([state.delay_buffer, chunk.data], axis=1)
    state.delay_buffer = joined[:, n_samples:].copy()
    return MultichannelChunk(
        data=joined[:, :n_samples],
        srate=chunk.srate,
        first_sample_index=chunk.first_sample_index,
    )


def clean_recording(
    data: np.ndarray,
    calib: CalibrationState,
    chunk: int,
    stepsize: int = DEFAULT_STEPSIZE,
    lookahead: int | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, ProcessorState]:
    """Clean a whole ``(C, N)`` recording by feeding it through
    ``asr_process_chunk`` in chunks of ``chunk`` samples from a fresh state.

    Returns the cleaned ``(C, N)`` array and the final state. The output is
    written chunk by chunk into ``out``, a new array by default. ``out`` may
    be ``data`` itself, which cleans the recording in place: a chunk's output
    is written only after ``asr_process_chunk`` has returned, and the
    lookahead lives in the state, so no input sample is overwritten before
    it is read.
    """
    if chunk < 1:
        raise InvalidValue("chunk", "must be >= 1")
    if out is None:
        out = np.empty(data.shape)
    elif out.shape != data.shape:
        raise InvalidValue("out", f"must have the shape of data, {data.shape}")
    state = ProcessorState.initial(calib, stepsize=stepsize, lookahead=lookahead)
    load_kernels(calib)
    n = data.shape[1]
    for pos in range(0, n, chunk):
        end = min(n, pos + chunk)
        piece = MultichannelChunk(data[:, pos:end], calib.srate, pos)
        cleaned, state = asr_process_chunk(piece, calib, state)
        out[:, pos:end] = cleaned.data
    return out, state
