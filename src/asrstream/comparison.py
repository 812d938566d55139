"""Tolerance-based comparison of recordings and artifact-attenuation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

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
        return [
            f"pass={int(self.passed)}",
            f"max_relative_error={self.max_relative_error!r}",
            f"max_absolute_error={self.max_absolute_error!r}",
            f"tolerance={self.tolerance!r}",
            f"first_divergent_sample={self.first_divergent_sample}",
        ]


def compare(a, b, rel_tol: float) -> ComparisonReport:
    """Per-sample relative comparison: |a-b| / max(|a|, |b|, 1e-30).

    Passes iff the maximum relative error stays at or below ``rel_tol``.
    Walks the samples in blocks of ``COMPARE_COLUMNS``, so memory beyond the
    inputs stays bounded; a NaN anywhere makes both maxima NaN and fails.
    """
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

    def machine_lines(self) -> list[str]:
        return [
            f"artifact_rms_reduction={self.artifact_rms_reduction!r}",
            f"clean_rms_change={self.clean_rms_change!r}",
        ]


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
