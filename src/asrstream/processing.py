"""Stateful per-chunk detection and correction.

The per-sample contract, which any partition of the stream into chunks must
reproduce exactly:

1. the raw sample enters the lookahead delay line; the L-delayed raw sample
   comes out,
2. the raw sample is IIR-filtered (carried state) and written into the
   covariance ring at position ``t mod W``,
3. at update instants (every ``stepsize`` samples, i.e. when
   ``(t + 1) % stepsize == 0``) the ring covariance ``sum(y y^T) / n_eff``
   with ``n_eff = min(t + 1, W)`` feeds a detection update and the
   reconstruction pair rotates (previous <- current <- new); a rejecting
   update builds ``R = M pinv(D V^T M) V^T`` in closed form from a thin QR
   of ``M V_k`` over the kept eigenvectors ``V_k`` (no SVD),
4. the output sample is ``[w R_cur + (1 - w) R_prev] @ delayed`` with the
   raised-cosine weight ``w = (1 - cos(pi (ssu + 1) / stepsize)) / 2``, where
   ``ssu = (t + 1) mod stepsize`` counts samples since the last update (0 at
   an update instant; before the first update both matrices are the
   identity, so the weight is never read). An identity operator is held as
   ``None`` and applied as the delayed sample itself; when both are ``None``
   the blend is skipped and the delayed sample is passed through bit-exactly.

The implementation below vectorizes runs of samples between update instants;
all state is keyed off global sample indices, so chunk boundaries are
invisible to the arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import CalibrationDegenerate, ChannelMismatch, InvalidInput, InvalidValue
from .filters import filter_order, iir_filter
# pinv stays bound though unused: perfbench/tracing.py wraps processing.pinv
from .linalg import PINV_REL_TOL, pinv, symmetric_eig  # noqa: F401
from .types import (
    DEFAULT_STEPSIZE,
    CalibrationState,
    MultichannelChunk,
    ProcessorState,
    ReconstructionUpdate,
)


def load_kernels(calib: CalibrationState) -> None:
    """Import the deferred libraries that cleaning with ``calib`` can call:
    ``scipy.linalg.lapack`` for a rejecting update and, with a shaping
    filter, ``scipy.signal``. Importing them takes a quarter to a whole
    second, so a live stream and ``clean_recording`` do it before their
    first chunk rather than in the middle of the pass."""
    from scipy.linalg import lapack  # noqa: F401

    if filter_order(calib.filter_b, calib.filter_a):
        import scipy.signal  # noqa: F401


def _reconstruct(mixing: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``M Q R_q^-T V_k^T`` from the thin QR ``M V_k = Q R_q``.

    LAPACK is called directly: at these channel counts the Python side of
    ``numpy.linalg.qr`` and ``scipy.linalg.solve_triangular`` costs about as
    much as the arithmetic. It is imported here, on first use, because it
    loads all of ``scipy.linalg`` (about 0.25 s) and calibration never needs
    it.
    """
    from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs

    qr, tau, _, _ = dgeqrf(mixing @ kept)
    r_diag = np.abs(np.diagonal(qr))
    # the cutoff pinv applies to singular values; a NaN fails it too
    if not r_diag.min() > PINV_REL_TOL * mixing.shape[0] * r_diag.max():
        raise CalibrationDegenerate(
            "mixing matrix is singular; the reconstruction is undefined"
        )
    k = kept.shape[1]
    coef, _ = dtrtrs(np.triu(qr[:k]), kept.T, trans=1)  # R_q^-T V_k^T
    q, _, _ = dorgqr(qr, tau)
    return (mixing @ q) @ coef


def update_reconstruction(
    cov: np.ndarray, calib: CalibrationState, max_dims_fraction: float
) -> ReconstructionUpdate:
    """One detection step: compare covariance eigenvalues against the
    calibration thresholds and build the reconstruction matrix.

    Component j (eigenvalues ascending) is kept iff its eigenvalue stays at
    or below ``sum((threshold @ v_j)**2)``, or j lies below the rejection
    budget ``floor(max_dims_fraction * C)`` counted from the top. With
    nothing rejected the result is exactly the identity; otherwise
    ``R = M @ pinv(keep * (V^T M)) @ V^T`` (all-real arithmetic throughout),
    evaluated in closed form: the nonzero rows ``A = V_k^T M`` have full row
    rank, so with the thin QR ``M V_k = A^T = Q R_q`` the pseudoinverse is
    ``A^T (A A^T)^-1 = Q R_q^-T`` and ``R = M Q R_q^-T V_k^T``. Unlike the
    Gram solve ``(V_k^T C V_k)^-1`` this does not square the condition number
    of M. A numerically singular ``R_q`` means the mixing is singular (only a
    hand-made or loaded state can be) and raises CalibrationDegenerate.
    """
    cov = np.asarray(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise InvalidInput("covariance contains non-finite entries")
    c = calib.channels
    if cov.shape != (c, c):
        raise InvalidInput(f"covariance must be {c}x{c}")
    eigvals, eigvecs = symmetric_eig((cov + cov.T) / 2.0)

    budget = int(np.floor(max_dims_fraction * c))
    protected = np.arange(c) < c - budget  # smallest components, never rejected
    limits = np.sum((calib.threshold @ eigvecs) ** 2, axis=0)
    keep = (eigvals <= limits) | protected
    n_rejected = int(np.count_nonzero(~keep))

    if n_rejected == 0:
        recon = np.eye(c)
    elif n_rejected == c:
        recon = np.zeros((c, c))  # pinv of an all-zero projection
    else:
        recon = _reconstruct(calib.mixing, eigvecs[:, keep])
    return ReconstructionUpdate(
        eigvals=eigvals,
        eigvecs=eigvecs,
        keep=keep,
        reconstruction=recon,
        n_rejected=n_rejected,
    )


def _ring_write(ring: np.ndarray, start_index: int, block: np.ndarray) -> None:
    """Write block columns at ring positions start_index..+m-1 (mod W)."""
    w = ring.shape[1]
    m = block.shape[1]
    if m >= w:
        block = block[:, m - w :]
        start_index += m - w
        m = w
    p = start_index % w
    k = min(w - p, m)
    ring[:, p : p + k] = block[:, :k]
    if m > k:
        ring[:, : m - k] = block[:, k:]


def _emit(
    out: np.ndarray,
    delayed: np.ndarray,
    r_current: np.ndarray | None,
    r_previous: np.ndarray | None,
    stepsize: int,
    a: int,
    b: int,
    t_first: int,
) -> None:
    """Blend-and-write output columns [a, b), whose first is global sample
    ``t_first``; a ``None`` operator is the identity, and with both ``None``
    the columns are copied."""
    d = delayed[:, a:b]
    if a == b or (r_current is None and r_previous is None):
        out[:, a:b] = d
        return
    ssu = (t_first + 1 + np.arange(b - a)) % stepsize
    w = 0.5 * (1.0 - np.cos(np.pi * (ssu + 1) / stepsize))
    current = d if r_current is None else r_current @ d
    previous = d if r_previous is None else r_previous @ d
    out[:, a:b] = current * w + previous * (1.0 - w)


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
    ring = state.cov_window
    window = ring.shape[1]
    max_dims = calib.params.max_dims_fraction
    # the ring is the one piece of state written in place: keep the columns
    # this chunk overwrites, to put them back if an update raises
    touched = np.arange(t0, t0 + min(n_samples, window)) % window
    saved = ring[:, touched]
    r_current, r_previous = state.r_current, state.r_previous
    log = []

    pos = 0
    try:
        for j in range(step - 1 - t0 % step, n_samples, step):
            # up to and including the update instant, whose value the
            # covariance must already hold
            _ring_write(ring, t0 + pos, filtered[:, pos : j + 1])
            _emit(out, delayed, r_current, r_previous, step, pos, j, t0 + pos)
            cov = ring @ ring.T
            cov /= min(t0 + j + 1, window)
            upd = update_reconstruction(cov, calib, max_dims)
            r_previous = r_current
            r_current = None if upd.n_rejected == 0 else upd.reconstruction
            log.append((t0 + j, upd.n_rejected))
            _emit(out, delayed, r_current, r_previous, step, j, j + 1, t0 + j)
            pos = j + 1
    except BaseException:
        ring[:, touched] = saved
        raise
    _ring_write(ring, t0 + pos, filtered[:, pos:])
    _emit(out, delayed, r_current, r_previous, step, pos, n_samples, t0 + pos)

    state.delay_buffer = joined[:, n_samples:].copy()
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

    Only the delay line advances; the filter, covariance ring, reconstruction
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
) -> tuple[np.ndarray, ProcessorState]:
    """Clean a whole ``(C, N)`` recording by feeding it through
    ``asr_process_chunk`` in chunks of ``chunk`` samples from a fresh state.

    Returns the cleaned ``(C, N)`` array, written chunk by chunk into one
    preallocated array, and the final state.
    """
    if chunk < 1:
        raise InvalidValue("chunk", "must be >= 1")
    state = ProcessorState.initial(calib, stepsize=stepsize, lookahead=lookahead)
    load_kernels(calib)
    n = data.shape[1]
    out = np.empty((data.shape[0], n))
    for pos in range(0, n, chunk):
        end = min(n, pos + chunk)
        piece = MultichannelChunk(data[:, pos:end], calib.srate, pos)
        cleaned, state = asr_process_chunk(piece, calib, state)
        out[:, pos:end] = cleaned.data
    return out, state
