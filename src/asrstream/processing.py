"""Stateful per-chunk detection and correction.

The per-sample contract, which any partition of the stream into chunks must
reproduce exactly:

1. the raw sample enters the lookahead delay line; the L-delayed raw sample
   comes out,
2. the raw sample is IIR-filtered (carried state); the state keeps the last
   W filtered samples, oldest first, zeros before the stream starts. Both
   histories, the L raw and the W filtered samples, lie in buffers twice
   their length (see ``ProcessorState``). A chunk reads them in place and
   writes its own samples into the buffers' slack when it commits. It reads
   each history followed by its own samples as one array (see
   :class:`_Joined`), joining the two only for a run of delayed samples, or
   a window or union product, that straddles the boundary,
3. at update instants (every ``stepsize`` samples, i.e. when
   ``(t + 1) % stepsize == 0``) the covariance ``sum(y y^T) / n_eff`` of the
   W filtered samples ending at ``t``, summed in time order, with
   ``n_eff = min(t + 1, W)``, feeds a detection update and the
   reconstruction pair rotates (previous <- current <- new); a rejecting
   update builds ``R = M pinv(D V^T M) V^T`` in its closed complement form
   ``I - V_r pinv(M^-1 V_r) M^-1`` from a thin QR of ``M^-1 V_r`` over the
   rejected eigenvectors ``V_r`` (no SVD, numpy only). A covariance S for
   which ``4**-k (1 - eps) T^T T - S`` has a Cholesky factor (see
   :func:`screen` and ``CalibrationState.screen_bound``) provably keeps
   every component, so its update is the identity with nothing rejected and
   needs no ``eigh``. The stream's update instants fall into consecutive
   groups of ``W // stepsize + 1``, numbered from the stream's start, whose
   windows span at most 2W samples. A chunk screens, for each group it
   reaches and as soon as it forms it, the covariance
   ``Y_U Y_U^T / n_min`` of the union U of the group's windows up to its
   last instant in the chunk (see :func:`_screen_unions`): each window lies
   inside U and each ``n_i >= n_min``, so a union that passes proves every
   update of its group so far clean. A group's product is
   carried across chunks in ``ProcessorState.union``, so a chunk that
   continues a group adds the product of its new columns only. The union
   sums at most 2W columns, in one product or several; unions are formed
   only while the rounding of it and of the W-column update products, about
   ``3 W C u`` relative, stays within half of
   ``eps = 1e-12 C**2 cond(T^T T)`` (W up to about 1500 C). Only for the
   instants whose union fails the screen or is not finite, and for those
   of a group whose union failed in an earlier chunk, does the chunk build
   the ``(k, C, C)`` stack of update covariances, in one loop (one that
   overflows is rebuilt from its segment times ``2**-k``), and screen it in
   one batched factorization. The covariances neither screen clears go to
   one :func:`detect` call, one batched ``eigh`` for them all, so the
   outputs are those of running :func:`detect` on every update,
4. the output sample is ``[w R_cur + (1 - w) R_prev] @ delayed`` with the
   raised-cosine weight ``w = (1 - cos(pi (ssu + 1) / stepsize)) / 2``, where
   ``ssu = (t + 1) mod stepsize`` counts samples since the last update (0 at
   an update instant; before the first update both matrices are the
   identity, so the weight is never read). The weights are tabulated once
   per ``stepsize``. An identity operator is held as ``None`` and applied as
   the delayed sample itself; when both are ``None`` the blend is skipped
   and the delayed sample is passed through bit-exactly, and a chunk whose
   operators all stay ``None`` is copied in one piece.

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
from .types import (
    DEFAULT_STEPSIZE,
    SCREEN_REL_TOL,
    CalibrationState,
    MultichannelChunk,
    ProcessorState,
)

_UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u = 2**-53
_NO_SHIFT = np.zeros(1, dtype=int)  # the shifts of one unscaled covariance


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
    covs: np.ndarray, calib: CalibrationState, shifts: np.ndarray | int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray | None]]:
    """One detection step for each covariance of the ``(k, C, C)`` stack
    ``covs``: compare its eigenvalues against the calibration thresholds and
    build its reconstruction matrix. ``shifts`` holds one integer per
    covariance, or one for all (0 by default): ``covs[i]`` is the covariance
    scaled by ``4**-shifts[i]``, and its limits are scaled the same way
    (exactly, and not at all by a shift of 0), so the keep flags and ``R``
    do not change (``R`` depends only on the eigenvectors and ``M``); its
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
    limits = np.ldexp(limits, -2 * np.reshape(shifts, (-1, 1)))
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
    products over its W columns to stay below ``2**1020``, for a segment
    whose covariance overflowed; 0 when the segment is not finite, which
    leaves its covariance non-finite for :func:`detect` to reject."""
    _, exponent = np.frexp(np.max(np.abs(segment)))  # max |x| < 2**exponent
    return max(0, int(exponent) - (1020 - segment.shape[1].bit_length()) // 2)


def screen(covs: np.ndarray, calib: CalibrationState, shifts: np.ndarray) -> np.ndarray:
    """Which covariances of the finite ``(k, C, C)`` stack ``covs`` are
    proven clean: ``covs[i]`` (scaled by ``4**-shifts[i]``, as in
    :func:`detect`) passes iff ``4**-shifts[i] * calib.screen_bound -
    covs[i]`` has a Cholesky factor, and then :func:`detect` would keep all
    of its components. The stack is factored at once, and one matrix at a
    time only when that raises and it holds more than one. No covariance
    passes when the calibration has no screen bound.

    The margin of ``screen_bound``, ``eps = 1e-12 C**2 cond(T^T T)``, covers
    the rounding of the factorization and of the ``eigh`` and limits that
    :func:`detect` would compute, and, for a union covariance (see
    :func:`_screen_unions`), that of the products it vouches for, whether
    its own product was summed in one piece or carried across chunks. A
    union is screened alone, as a stack of one, as soon as it is formed.
    """
    passed = np.zeros(len(covs), dtype=bool)
    bound = calib.screen_bound
    if bound is None:
        return passed
    if shifts.any():
        bound = np.ldexp(bound, -2 * shifts[:, None, None])
    margins = bound - covs
    try:
        np.linalg.cholesky(margins)
        passed[:] = True
    except np.linalg.LinAlgError:
        if len(margins) == 1:  # that one matrix failed
            return passed
        for i, margin in enumerate(margins):
            try:
                np.linalg.cholesky(margin)
                passed[i] = True
            except np.linalg.LinAlgError:
                pass
    return passed


def _screen_unions(
    tail: np.ndarray,
    instants: range,
    t0: int,
    window: int,
    calib: CalibrationState,
    union: np.ndarray | None,
) -> tuple[list[int], np.ndarray | None]:
    """The indices into ``instants`` that no union screen proves clean, and
    the union to carry into the next chunk (see ``ProcessorState.union``).

    The stream's update instants are numbered from 0 and split into
    consecutive groups of ``W // stepsize + 1``, so that a group's windows
    span at most 2W samples. The covariance ``Y_U Y_U^T / n_min`` of the
    union U of a group's windows, where ``n_min = min(t_first + 1, W)`` is
    the sample count of its first window, bounds each update covariance of
    the group: each window lies inside U and each ``n_i >= n_min``, so
    ``S_i <= Y_U Y_U^T / n_min`` in the PSD order, and a union that
    :func:`screen` passes proves its updates clean.

    The chunk's instants fall into runs that share a group. A run that
    starts its group forms the product ``Y_U Y_U^T`` over the ``tail``
    columns of its windows; a run that continues a group whose product so
    far, ``union``, is live adds to it the product of its new columns only,
    ``stepsize`` per instant. Each union is screened as it is formed, so one
    product is alive at a time, and the last run's, if it passes, is the
    union carried on. A run whose union fails or overflows stays open, and
    so does a run of a group that has no live union: a union only grows in
    the PSD order, so one that failed would fail again.

    A passing union vouches for update covariances it did not compute. Each
    entry of its product is a sum over at most 2W columns, whether formed in
    one product or as a carried product plus that of the new columns: any
    order of summing n terms errs by at most ``(n - 1) u`` times the sum of
    their magnitudes, so the bound is that of one 2W-column product. With
    the rounding of the W-column update products it is at most about
    ``3 W C u s_max(T)**2`` in norm (u = 2**-53), so no union is formed
    unless that stays within half the screen's margin
    ``eps s_min(T)**2 = SCREEN_REL_TOL C**2 s_max(T)**2``: ``W <= about
    1500 C``, 96,000 samples at 64 channels."""
    k, c = len(instants), tail.shape[0]
    if calib.screen_bound is None or 6 * window * _UNIT_ROUNDOFF > SCREEN_REL_TOL * c:
        return list(range(k)), None
    if not k:
        return [], union
    step = instants.step
    size = window // step + 1
    first = (t0 + instants[0] + 1) // step - 1  # the stream-wide number of instants[0]
    # a run ends where the next group starts, at a number divisible by size
    bounds = [0, *range(-first % size or size, k, size), k]
    open_ = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(bounds, bounds[1:]):
            position = (first + a) % size  # of instants[a] in its group
            end = instants[b - 1] + 1 + window
            if not position:
                span = tail[:, instants[a] + 1 : end]
                union = np.matmul(span, span.T)
            elif union is not None:  # not in place: the carried union is the state's
                span = tail[:, end - (b - a) * step : end]
                union = union + np.matmul(span, span.T)
            # n_min, the sample count of the group's first window
            n_min = min((first + a - position + 1) * step, window)
            if union is None or not (
                np.isfinite(union).all() and screen((union / n_min)[None], calib, _NO_SHIFT)[0]
            ):
                open_ += range(a, b)
                union = None
    return open_, union


class _Joined:
    """The columns of ``old`` followed by those of ``new``, both ``(C, *)``,
    read as one array without joining them: a column range ``[:, a:b]`` is a
    view of the one that holds it. A range that straddles the two is a view
    of one join of the columns from its start on, made at the first such
    range and remade only for a later one that starts before it."""

    def __init__(self, old: np.ndarray, new: np.ndarray):
        self.old, self.new = old, new
        self.shape = (old.shape[0], old.shape[1] + new.shape[1])
        self.start, self.joined = old.shape[1], None  # nothing is joined yet

    def __getitem__(self, key: tuple[slice, slice]) -> np.ndarray:
        a, b, _ = key[1].indices(self.shape[1])
        w = self.old.shape[1]
        if b <= w:
            return self.old[:, a:b]
        if a >= w:
            return self.new[:, a - w : b - w]
        if a < self.start:
            self.start = a
            self.joined = np.concatenate([self.old[:, a:], self.new], axis=1)
        return self.joined[:, a - self.start : b - self.start]


def _advance(buffer: np.ndarray, end: int, new: np.ndarray) -> int:
    """Move the history that ends at column ``end`` of ``buffer``, ``size``
    columns of a buffer twice that long, on by the columns of ``new``;
    returns the history's new end. Only the last ``m = min(n, size)`` of the
    n new columns are written: after ``end`` while they fit, else behind the
    history's last ``size - m`` columns, which move to the front. Moves come
    at least ``size // m`` calls apart, so a call copies fewer than 3m
    columns on average, whatever the chunk sizes. The new columns are
    written first, so a ``new`` of the wrong shape raises before any column
    is."""
    size = buffer.shape[1] // 2
    m = min(new.shape[1], size)
    if end + m <= buffer.shape[1]:
        buffer[:, end : end + m] = new[:, new.shape[1] - m :]
        return end + m
    # end > 2 size - m, so the columns that move lie behind size
    buffer[:, size - m : size] = new[:, new.shape[1] - m :]
    buffer[:, : size - m] = buffer[:, end - size + m : end]
    return size


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
    delayed: _Joined,
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
    if not np.isfinite(x).all():
        raise InvalidInput("chunk contains non-finite values")

    # the histories are read in place, and only the columns that straddle
    # one and the chunk are joined; the chunk's samples enter them at commit.
    # The chunk delayed by L is the first n columns of the delay line and the
    # chunk (zeros emerge during the first L of the stream)
    window = state.window
    delayed = _Joined(state.delay_buffer, x)
    filtered, filter_state = iir_filter(
        x, calib.filter_b, calib.filter_a, state.filter_state
    )

    out = np.empty((c, n_samples))
    t0 = state.total_samples_seen
    step = state.stepsize
    weights = _blend_weights(step)
    # the W filtered samples ending at chunk sample j are columns j + 1 .. j + W
    tail = _Joined(state.cov_window, filtered)
    instants = range(step - 1 - t0 % step, n_samples, step)
    # a screened update rejects nothing; only the others reach detect
    recons: list[np.ndarray | None] = [None] * len(instants)
    rejected = [0] * len(instants)
    open_, union = _screen_unions(tail, instants, t0, window, calib, state.union)
    screened = len(instants) - len(open_)
    if open_:
        covs = np.empty((len(open_), c, c))
        shifts = np.zeros(len(open_), dtype=int)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is mended at once
            for i, q in enumerate(open_):
                j = instants[q]
                segment = tail[:, j + 1 : j + 1 + window]
                np.matmul(segment, segment.T, out=covs[i])
                if not np.isfinite(covs[i]).all():
                    # finite samples whose products overflow: rebuild the covariance
                    # from the segment times 2**-k, which scales it by exactly 4**-k
                    shifts[i] = _overflow_shift(segment)
                    scaled = np.ldexp(segment, -shifts[i])
                    np.matmul(scaled, scaled.T, out=covs[i])
                covs[i] /= min(t0 + j + 1, window)
        if not np.isfinite(covs).all():
            raise InvalidInput("covariance contains non-finite entries")
        passed = screen(covs, calib, shifts)
        screened += int(np.count_nonzero(passed))
        suspects = np.flatnonzero(~passed)
        if suspects.size:
            _, _, keep, found = detect(covs[suspects], calib, shifts[suspects])
            for i, kept, r in zip(suspects, keep, found):
                recons[open_[i]], rejected[open_[i]] = r, c - int(np.count_nonzero(kept))
    r_current, r_previous = state.r_current, state.r_previous
    if r_current is None and r_previous is None and not any(rejected):
        out[:] = delayed[:, :n_samples]  # every operator of the chunk is the identity
    else:
        pos = 0
        for i, j in enumerate(instants):
            _emit(out, delayed, r_current, r_previous, weights, pos, j, (t0 + pos + 1) % step)
            r_previous, r_current = r_current, recons[i]
            _emit(out, delayed, r_current, r_previous, weights, j, j + 1, 0)
            pos = j + 1
        _emit(out, delayed, r_current, r_previous, weights, pos, n_samples, (t0 + pos + 1) % step)

    # nothing below can raise
    state.raw_end = _advance(state.raw, state.raw_end, x)
    state.filtered_end = _advance(state.filtered, state.filtered_end, filtered)
    state.filter_state = filter_state
    state.r_current, state.r_previous = r_current, r_previous
    state.union = union
    state.rejected_counts.extend(rejected)
    state.rejecting_updates += len(rejected) - rejected.count(0)
    state.screened_updates += screened
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

    Only the delay line advances; the filter, covariance window, carried
    union, reconstruction pair and sample counters stay as they were, so the
    chunk never enters the statistics. The call is transactional like
    ``asr_process_chunk``, and its output is a new array, not a view of the
    delay line's buffer.
    """
    n = chunk.data.shape[1]
    delayed = np.array(_Joined(state.delay_buffer, chunk.data)[:, :n], dtype=float)
    state.raw_end = _advance(state.raw, state.raw_end, chunk.data)
    return MultichannelChunk(
        data=delayed,
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
