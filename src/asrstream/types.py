"""Core data types: chunks, calibration model, streaming state, pipeline config.

All signal arrays are channel-major float64: shape (channels, samples).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

import numpy as np

from .errors import InvalidValue, WindowTooShort
from .filters import filter_order, initial_filter_state
from .linalg import PINV_REL_TOL


def round_samples(x: float) -> int:
    """Seconds-to-samples rounding used everywhere a window/delay is sized."""
    return int(round(x))


@dataclass(frozen=True)
class MultichannelChunk:
    """A block of samples for C channels; the unit of streaming.

    ``first_sample_index`` is informational (count since stream start); the
    processor keeps its own authoritative sample counter.
    """

    data: np.ndarray  # (channels, samples), channel-major
    srate: float  # Hz, constant across a stream
    first_sample_index: int = 0


@dataclass(frozen=True)
class CalibrationParams:
    """Tuning knobs for calibration and detection."""

    cutoff: float = 5.0  # stddev multiplier on the per-component threshold
    blocksize: int = 10  # samples per covariance block
    window_len: float = 0.5  # statistics window, seconds
    window_overlap: float = 0.66  # overlap fraction between windows, in [0, 1)
    max_dims_fraction: float = 0.66  # fraction of components correctable at once

    def __post_init__(self):
        if not 0 < self.cutoff < inf:  # NaN too
            raise InvalidValue("cutoff", "must be > 0")
        if self.blocksize < 1:
            raise InvalidValue("blocksize", "must be >= 1")
        if not 0 < self.window_len < inf:
            raise InvalidValue("window_len", "must be > 0")
        if not 0 <= self.window_overlap < 1:
            raise InvalidValue("window_overlap", "must be in [0, 1)")
        if not 0 < self.max_dims_fraction <= 1:
            raise InvalidValue("max_dims_fraction", "must be in (0, 1]")

    def window_samples(self, srate: float) -> int:
        return round_samples(self.window_len * srate)

    def check_window(self, srate: float, channels: int) -> None:
        """The statistics window must span at least 1.5x the channel count."""
        w = self.window_samples(srate)
        if w < 1.5 * channels:
            raise WindowTooShort(
                f"statistics window of {w} samples is shorter than 1.5x the "
                f"channel count ({channels}); increase window_len or srate"
            )

    def window_stride(self, srate: float) -> int:
        w = self.window_samples(srate)
        return max(1, round_samples(w * (1.0 - self.window_overlap)))

    def default_lookahead(self, srate: float) -> int:
        return round_samples(self.window_len * srate / 2.0)


DEFAULT_STEPSIZE = 32  # samples between detection updates
# the screen's margin is this times C**2 times the condition number of T^T T
# (see CalibrationState.screen_bound): about 4500 machine epsilons per C**2,
# against rounding errors of a few per C**2 in the screen and in detect; a
# union screen also vouches for window products it did not compute, whose
# rounding grows as 3 W C u, so processing forms unions only for W <= ~1500 C
SCREEN_REL_TOL = 1e-12
# updates whose n_rejected ProcessorState keeps, one int each (8 B);
# ProcessorState.update_log derives their sample indices
UPDATE_LOG_LIMIT = 65536


@dataclass(frozen=True)
class CalibrationState:
    """The learned model; immutable and safe to share across threads.

    mixing:    PSD square root of the robust calibration covariance (C x C).
    threshold: per-component threshold operator g*diag(mu + k*sigma) @ V.T (C x C).
    gain, n_eff: the Marchenko–Pastur gain g and the effective window sample
               count it came from; reported by a fresh calibration, not
               saved, so None on a loaded or hand-made state.
    """

    mixing: np.ndarray
    threshold: np.ndarray
    filter_b: tuple[float, ...]
    filter_a: tuple[float, ...]  # filter_a[0] == 1 after normalization
    srate: float
    params: CalibrationParams
    gain: float | None = field(default=None, compare=False)
    n_eff: float | None = field(default=None, compare=False)

    def __post_init__(self):
        m = self.mixing
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidValue("mixing", "must be a square matrix")
        if self.threshold.shape != m.shape:
            raise InvalidValue("threshold", "must match the mixing matrix shape")
        for name in ("mixing", "threshold", "filter_b", "filter_a"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidValue(name, "entries must be finite")
        with np.errstate(over="ignore"):
            scale = max(float(np.linalg.norm(m)), 1e-300)
        if scale == inf:  # so no sum below can overflow
            raise InvalidValue("mixing", "norm must be finite")
        if float(np.linalg.norm(m - m.T)) > 1e-12 * scale:
            raise InvalidValue("mixing", "must be symmetric within 1e-12 relative")
        if float(np.linalg.eigvalsh((m + m.T) / 2.0).min()) < -1e-10 * scale:
            raise InvalidValue("mixing", "must be positive semidefinite")
        if not self.filter_a or self.filter_a[0] != 1.0:
            raise InvalidValue("filter_a", "leading coefficient must be 1 (normalized)")
        if not 0 < self.srate < inf:  # NaN too
            raise InvalidValue("srate", "must be > 0")
        self.params.check_window(self.srate, self.channels)

    @property
    def channels(self) -> int:
        return self.mixing.shape[0]

    @cached_property
    def inverse_mixing(self) -> np.ndarray | None:
        """``M^-1`` from ``eigh(M)``, computed on first use and never saved;
        None when M is numerically singular (its smallest eigenvalue at or
        below ``PINV_REL_TOL * C`` times its largest), which only a hand-made
        or loaded state can be."""
        vals, vecs = np.linalg.eigh(self.mixing)
        if not vals[0] > PINV_REL_TOL * self.channels * vals[-1]:
            return None
        return (vecs / vals) @ vecs.T

    @cached_property
    def screen_bound(self) -> np.ndarray | None:
        """``(1 - eps) T^T T`` for the threshold operator T, computed on
        first use and never saved; None when the margin
        ``eps = SCREEN_REL_TOL * C**2 * cond(T^T T)`` reaches 1 (T is
        singular or nearly so), which turns the screen off.

        A covariance ``S <= (1 - eps) T^T T`` in the PSD order has
        ``v^T S v <= (1 - eps) |T v|**2`` for every unit vector v, so each of
        its eigenvalues stays below its limit and detection keeps every
        component. The margin ``eps |T v|**2 >= eps s_min(T)**2`` covers the
        rounding of the Cholesky factorization that proves the order and of
        the ``eigh`` and limits that detection would compute, all of them
        O(C**2 u s_max(T)**2) with u the unit roundoff.
        """
        c = self.channels
        gram = self.threshold.T @ self.threshold
        vals = np.linalg.eigvalsh(gram)
        if not vals[0] > SCREEN_REL_TOL * c * c * vals[-1]:
            return None
        return gram * (1.0 - SCREEN_REL_TOL * c * c * vals[-1] / vals[0])

    def window_samples(self) -> int:
        return self.params.window_samples(self.srate)

    def default_lookahead(self) -> int:
        return self.params.default_lookahead(self.srate)


@dataclass
class ProcessorState:
    """All mutable streaming state; exclusively owned by one processing sequence.

    The update instants and the blend phase are keyed off global sample
    indices, so any partition of a stream into chunks leaves identical state
    at identical stream positions, except ``union`` and the
    ``screened_updates`` count that it moves, and the layout of the two
    history buffers.

    The delay line and the covariance window live in two buffers allocated
    once, ``raw`` and ``filtered``, each twice as long as its history: the
    last L raw or W filtered samples, oldest first, in the columns that end
    at ``raw_end`` or ``filtered_end``. The columns
    after the end are slack that a chunk writes its new samples into when it
    commits; when the slack is full, the history moves to the front (see
    ``processing._advance``). ``delay_buffer`` and ``cov_window`` are views
    of the two histories. Where in its buffer a history lies depends on the
    partition; its content does not.

    ``union`` is a screening bound only: the unnormalised product
    ``Y_U Y_U^T`` of the columns of the current group of update instants
    seen so far (see ``processing._screen_unions``), or None when that group
    has no live union (its union failed the screen or overflowed, or the
    screen is off). Where chunks split a group decides how its product was
    summed, so its rounding, and whether it is live at a given stream
    position, depend on the partition; no output and no ``update_log`` entry
    depends on it.
    """

    filter_state: np.ndarray  # (C, order) IIR delay-line memory
    raw: np.ndarray  # (C, 2L) raw samples; the delay line ends at raw_end
    raw_end: int
    filtered: np.ndarray  # (C, 2W) filtered samples; the window ends at filtered_end
    filtered_end: int
    # (C, C) reconstructions applied with weights w and 1 - w; None is the identity
    r_current: np.ndarray | None
    r_previous: np.ndarray | None
    stepsize: int  # samples between detection updates
    union: np.ndarray | None = None  # (C, C) carried union product, or None
    total_samples_seen: int = 0
    # updates that rejected at least one component, all of them since the
    # stream began; update_log keeps only the most recent
    rejecting_updates: int = 0
    # updates that a screen, union or per-update, cleared without eigh
    screened_updates: int = 0
    # n_rejected of the most recent updates, oldest first (see update_log)
    rejected_counts: deque[int] = field(
        default_factory=lambda: deque(maxlen=UPDATE_LOG_LIMIT)
    )

    @property
    def update_log(self) -> list[tuple[int, int]]:
        """The most recent updates as ``(sample index, n_rejected)``, oldest
        first. Update k of the stream is at sample ``(k + 1) * stepsize - 1``,
        so only the counts are kept."""
        step = self.stepsize
        first = self.total_samples_seen // step - len(self.rejected_counts)
        return [((k + 1) * step - 1, n) for k, n in enumerate(self.rejected_counts, first)]

    @property
    def lookahead(self) -> int:
        """L, the delay in samples."""
        return self.raw.shape[1] // 2

    @property
    def window(self) -> int:
        """W, the samples in an update covariance."""
        return self.filtered.shape[1] // 2

    @property
    def delay_buffer(self) -> np.ndarray:
        """(C, L) the most recent raw samples, oldest first: a view of ``raw``."""
        return self.raw[:, self.raw_end - self.lookahead : self.raw_end]

    @property
    def cov_window(self) -> np.ndarray:
        """(C, W) the most recent filtered samples, oldest first, zeros
        before the stream starts: a view of ``filtered``."""
        return self.filtered[:, self.filtered_end - self.window : self.filtered_end]

    @classmethod
    def initial(
        cls,
        calib: CalibrationState,
        stepsize: int = DEFAULT_STEPSIZE,
        lookahead: int | None = None,
    ) -> "ProcessorState":
        """A fresh state: zero histories, followed by their slack. With a
        shaping filter in ``calib`` it also imports ``scipy.signal``, which
        cleaning calls and which takes about a second to import, so that no
        chunk, of a live stream or a recording, pays for it."""
        if stepsize < 1:
            raise InvalidValue("stepsize", "must be >= 1")
        c = calib.channels
        w = calib.window_samples()
        la = calib.default_lookahead() if lookahead is None else int(lookahead)
        if la < 0:
            raise InvalidValue("lookahead", "must be >= 0")
        if filter_order(calib.filter_b, calib.filter_a):
            import scipy.signal  # noqa: F401
        return cls(
            filter_state=initial_filter_state(c, calib.filter_b, calib.filter_a),
            raw=np.zeros((c, 2 * la)),
            raw_end=la,
            filtered=np.zeros((c, 2 * w)),
            filtered_end=w,
            r_current=None,
            r_previous=None,
            stepsize=int(stepsize),
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime configuration; immutable between prepare and release."""

    sampling_rate: float  # Hz
    params: CalibrationParams  # used when calibrating from a clean-data CSV
    var_name: str  # input side-channel variable; cleaned chunks go to "<var_name>_clean"
    calibration_file_name: str  # CSV of clean data, or a saved calibration state
    fifo_capacity: int = 8  # chunks per FIFO
    stepsize: int = DEFAULT_STEPSIZE
    lookahead: int | None = None  # samples; default: the calibration's default_lookahead()

    def __post_init__(self):
        if not 0 < self.sampling_rate < inf:  # NaN too
            raise InvalidValue("sampling_rate", "must be > 0")
        if not self.var_name:
            raise InvalidValue("var_name", "must be non-empty")
        if not self.calibration_file_name:
            raise InvalidValue("calibration_file_name", "must be non-empty")
        if self.fifo_capacity < 2:
            raise InvalidValue("fifo_capacity", "must be >= 2")
        if self.stepsize < 1:
            raise InvalidValue("stepsize", "must be >= 1")
        if self.lookahead is not None and self.lookahead < 0:
            raise InvalidValue("lookahead", "must be >= 0")
