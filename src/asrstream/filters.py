"""Streaming IIR filtering with state carried across chunk boundaries."""

from __future__ import annotations

import numpy as np

from .errors import FilterDiverged, InvalidInput

NOOP_B = (1.0,)
NOOP_A = (1.0,)


def normalize_coefficients(b, a) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Validate and scale (b, a) so that a[0] == 1."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if b.ndim != 1 or a.ndim != 1 or b.size == 0 or a.size == 0:
        raise InvalidInput("filter coefficients must be non-empty 1-d sequences")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
        raise InvalidInput("filter coefficients must be finite")
    if a[0] == 0.0:
        raise InvalidInput("a[0] must be nonzero")
    return tuple(b / a[0]), tuple(a / a[0])


def filter_order(b, a) -> int:
    return max(len(b), len(a)) - 1


def initial_filter_state(channels: int, b, a) -> np.ndarray:
    return np.zeros((channels, filter_order(b, a)))


def iir_filter(data: np.ndarray, b, a, state: np.ndarray | None = None):
    """Apply the direct-form transposed-II difference equation per channel.

    Carrying ``state`` across calls makes chunked processing equal
    whole-signal processing. Returns ``(filtered, new_state)``; for the
    identity filter (order 0, gain 1) ``filtered`` is ``data`` itself, not a
    copy, so callers must not write into it. Non-finite output raises
    FilterDiverged, without a warning: from finite input it means that the
    output overflowed or that the filter is unstable.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if b.size == 0 or a.size == 0 or a[0] == 0.0:
        raise InvalidInput("a[0] must be nonzero and coefficients non-empty")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise InvalidInput("data must be (channels, samples)")
    order = filter_order(b, a)
    if state is None:
        state = np.zeros((data.shape[0], order))
    else:
        state = np.asarray(state, dtype=float)
        if state.shape != (data.shape[0], order):
            raise InvalidInput(
                f"filter state must have shape ({data.shape[0]}, {order})"
            )
    if order == 0:
        # pure gain; lfilter requires a non-empty state axis
        gain = b[0] / a[0]
        if gain == 1.0:
            return data, state
        with np.errstate(over="ignore"):
            filtered, new_state = data * gain, state
    elif data.shape[1] == 0:
        return data.copy(), state.copy()
    else:
        from scipy.signal import lfilter  # deferred: scipy.signal takes ~1 s to import

        with np.errstate(over="ignore"):
            filtered, new_state = lfilter(b, a, data, axis=1, zi=state)
    if not np.all(np.isfinite(filtered)):
        raise FilterDiverged(
            "filter output is non-finite: it overflowed or the filter is unstable"
        )
    return filtered, new_state
