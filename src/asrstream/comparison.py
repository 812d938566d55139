"""Tolerance-based comparison of recordings and artifact-attenuation metrics."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import InvalidValue, ShapeMismatch

REL_EPS = 1e-30  # denominator floor so zeros compare against zeros cleanly
COMPARE_COLUMNS = 4096  # samples per pass: temporaries stay O(C * 4096)


@dataclass(frozen=True)
class ComparisonReport:
    max_relative_error: float
    max_absolute_error: float
    first_divergent_sample: int | None  # first sample (column) over tolerance
    tolerance: float
    passed: bool

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        where = (
            ""
            if self.first_divergent_sample is None
            else f", first divergence at sample {self.first_divergent_sample}"
        )
        return (
            f"{verdict}: max relative error {self.max_relative_error:.3e} "
            f"(tolerance {self.tolerance:.1e}), max absolute error "
            f"{self.max_absolute_error:.3e}{where}"
        )

    def machine_lines(self) -> list[str]:
        where = self.first_divergent_sample
        return [
            f"pass={int(self.passed)}",
            f"max_relative_error={self.max_relative_error!r}",
            f"max_absolute_error={self.max_absolute_error!r}",
            f"tolerance={self.tolerance!r}",
            f"first_divergent_sample={-1 if where is None else where}",  # -1: none diverges
        ]


def compare(a, b, rel_tol: float) -> ComparisonReport:
    """Per-sample relative comparison: |a-b| / max(|a|, |b|, 1e-30).

    Passes iff the maximum relative error stays at or below ``rel_tol``.
    Walks the samples in blocks of ``COMPARE_COLUMNS``, so memory beyond the
    inputs stays bounded; a NaN anywhere makes both maxima NaN and fails.
    """
    if not 0 <= rel_tol < inf:  # NaN too
        raise InvalidValue("tolerance", "must be finite and >= 0")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return ComparisonReport(0.0, 0.0, None, rel_tol, True)
    rel_maxima, abs_maxima = [], []
    first = None
    for start in range(0, a.shape[1], COMPARE_COLUMNS):
        pa = a[:, start : start + COMPARE_COLUMNS]
        pb = b[:, start : start + COMPARE_COLUMNS]
        abs_err = np.subtract(pa, pb)
        np.abs(abs_err, out=abs_err)
        rel = np.abs(pa)
        np.maximum(rel, np.abs(pb), out=rel)
        np.maximum(rel, REL_EPS, out=rel)
        np.divide(abs_err, rel, out=rel)
        if first is None:
            over = rel.max(axis=0) > rel_tol
            if over.any():
                first = start + int(np.argmax(over))
        rel_maxima.append(rel.max())
        abs_maxima.append(abs_err.max())
    max_rel = float(np.max(rel_maxima))
    return ComparisonReport(
        max_relative_error=max_rel,
        max_absolute_error=float(np.max(abs_maxima)),
        first_divergent_sample=first,
        tolerance=rel_tol,
        passed=max_rel <= rel_tol,
    )


@dataclass(frozen=True)
class AttenuationMetrics:
    artifact_rms_reduction: float | None  # 1 - RMS(cleaned|mask)/RMS(raw|mask)
    clean_rms_change: float | None  # |RMS(cleaned|~mask)/RMS(raw|~mask) - 1|


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x))) if x.size else 0.0


def attenuation_metrics(cleaned, raw, mask) -> AttenuationMetrics:
    """How much artifact-segment energy was removed, and how much the clean
    segments changed. Inputs must already be aligned for pipeline delay."""
    cleaned = np.atleast_2d(np.asarray(cleaned, dtype=float))
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    mask = np.asarray(mask, dtype=bool)
    if cleaned.shape != raw.shape:
        raise ShapeMismatch(f"shapes differ: {cleaned.shape} vs {raw.shape}")
    if mask.shape != (raw.shape[1],):
        raise ShapeMismatch("mask length must equal the sample count")

    reduction = None
    if mask.any():
        raw_rms = _rms(raw[:, mask])
        if raw_rms > 0:
            reduction = 1.0 - _rms(cleaned[:, mask]) / raw_rms
    change = None
    if (~mask).any():
        raw_rms = _rms(raw[:, ~mask])
        if raw_rms > 0:
            change = abs(_rms(cleaned[:, ~mask]) / raw_rms - 1.0)
    return AttenuationMetrics(artifact_rms_reduction=reduction, clean_rms_change=change)


@dataclass(frozen=True)
class QualityMetrics:
    residual: float | None  # RMS(cleaned - clean | mask) / RMS(raw - clean | mask)
    far_field: float | None  # RMS(cleaned - clean | far) / RMS(clean | far)


def quality_metrics(cleaned, raw, clean, mask, margin: int) -> QualityMetrics:
    """Cleaning quality against ``clean``, the recording without its
    artifacts: the *residual* is the share of the artifact left inside the
    mask, ``RMS(cleaned - clean) / RMS(raw - clean)``, and the *far field*
    is the change of the signal on the samples more than ``margin`` samples
    from every masked one, ``RMS(cleaned - clean) / RMS(clean)``. Either is
    None when it has no samples or a zero denominator. Inputs must already
    be aligned for pipeline delay."""
    cleaned, raw, clean = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (cleaned, raw, clean))
    mask = np.asarray(mask, dtype=bool)
    if not cleaned.shape == raw.shape == clean.shape:
        raise ShapeMismatch(f"shapes differ: {cleaned.shape}, {raw.shape}, {clean.shape}")
    n = raw.shape[1]
    if mask.shape != (n,):
        raise ShapeMismatch("mask length must equal the sample count")
    if margin < 0:
        raise InvalidValue("margin", "must be >= 0")

    def ratio(num, den):
        den = _rms(den)
        return _rms(num) / den if num.size and den > 0 else None

    residual = ratio(cleaned[:, mask] - clean[:, mask], raw[:, mask] - clean[:, mask])
    # masked samples in [t - margin, t + margin], from a running count
    count = np.concatenate(([0], np.cumsum(mask)))
    t = np.arange(n)
    far = count[np.minimum(t + margin + 1, n)] == count[np.maximum(t - margin, 0)]
    far_field = ratio(cleaned[:, far] - clean[:, far], clean[:, far])
    return QualityMetrics(residual=residual, far_field=far_field)


def align_for_delay(cleaned, raw, mask, lookahead: int):
    """Trim so cleaned[:, t] lines up with raw[:, t]: the pipeline emits the
    input delayed by ``lookahead`` samples."""
    cleaned = np.atleast_2d(np.asarray(cleaned, dtype=float))
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    mask = np.asarray(mask, dtype=bool)
    if lookahead == 0:
        return cleaned, raw, mask
    n = raw.shape[1] - lookahead
    return cleaned[:, lookahead:], raw[:, :n], mask[:n]
