import tracemalloc

import numpy as np
import pytest

from asrstream.comparison import (
    COMPARE_COLUMNS,
    REL_EPS,
    ComparisonReport,
    compare,
    quality_metrics,
)
from asrstream.errors import InvalidValue, ShapeMismatch


def whole_array_compare(a, b, rel_tol):
    """The comparison formula over whole arrays, as one expression each."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    abs_err = np.abs(a - b)
    rel = abs_err / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_EPS)
    over = rel.max(axis=0) > rel_tol
    max_rel = float(rel.max())
    return ComparisonReport(
        max_relative_error=max_rel,
        max_absolute_error=float(abs_err.max()),
        first_divergent_sample=int(np.argmax(over)) if over.any() else None,
        tolerance=rel_tol,
        passed=max_rel <= rel_tol,
    )


@pytest.mark.parametrize(
    "where",
    [None, 0, COMPARE_COLUMNS - 1, COMPARE_COLUMNS, 2 * COMPARE_COLUMNS, 2 * COMPARE_COLUMNS + 700],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_blocked_walk_equals_the_whole_array_formula(where, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 2 * COMPARE_COLUMNS + 701))
    b = a * (1.0 + 1e-9 * rng.standard_normal(a.shape))
    b[:, 100] = 0.0
    a[:, 100] = 0.0  # zeros compare against zeros
    if where is not None:
        b[3, where] += 1e-3
    got = compare(a, b, 1e-6)
    want = whole_array_compare(a, b, 1e-6)
    assert got.machine_lines() == want.machine_lines()  # repr: bit-identical floats
    assert got.first_divergent_sample == where


def test_nan_fails_like_the_whole_array_formula():
    a = np.ones((3, COMPARE_COLUMNS + 10))
    b = a.copy()
    b[1, COMPARE_COLUMNS + 3] = np.nan
    got = compare(a, b, 1e-6)
    assert got.machine_lines() == whole_array_compare(a, b, 1e-6).machine_lines()
    assert not got.passed


def test_one_dimensional_and_empty_inputs():
    assert compare([1.0, 2.0], [1.0, 2.0], 0.0).passed
    assert compare(np.zeros((3, 0)), np.zeros((3, 0)), 1e-6).first_divergent_sample is None


def test_memory_stays_bounded():
    a = np.random.default_rng(3).standard_normal((64, 30_000))
    b = a + 1e-12
    tracemalloc.start()
    try:
        compare(a, b, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2


class TestQualityMetrics:
    def test_perfect_and_untouched_cleaning(self):
        rng = np.random.default_rng(5)
        clean = rng.standard_normal((3, 200))
        mask = np.zeros(200, dtype=bool)
        mask[80:120] = True
        raw = clean.copy()
        raw[:, mask] += 10.0 * rng.standard_normal((3, 40))
        perfect = quality_metrics(clean, raw, clean, mask, 20)
        assert perfect.residual == 0.0 and perfect.far_field == 0.0
        untouched = quality_metrics(raw, raw, clean, mask, 20)
        assert untouched.residual == 1.0 and untouched.far_field == 0.0
        half = clean + (raw - clean) / 2.0
        assert quality_metrics(half, raw, clean, mask, 20).residual == pytest.approx(0.5)

    def test_far_field_starts_past_the_margin(self):
        clean = np.ones((2, 30))
        mask = np.zeros(30, dtype=bool)
        mask[10:12] = True
        # samples 7 .. 14 lie within 3 of a masked sample
        for t, far in ((6, True), (7, False), (14, False), (15, True)):
            cleaned = clean.copy()
            cleaned[:, t] = 3.0
            got = quality_metrics(cleaned, clean, clean, mask, 3).far_field
            assert (got > 0.0) == far, t
        cleaned = clean.copy()
        cleaned[:, 0] = 3.0  # one of the 22 far samples is off by 2
        got = quality_metrics(cleaned, clean, clean, mask, 3).far_field
        assert got == pytest.approx(np.sqrt(4.0 / 22.0))

    def test_missing_parts_give_none(self):
        clean = np.ones((2, 10))
        assert quality_metrics(clean, clean, clean, np.zeros(10, bool), 2).residual is None
        assert quality_metrics(clean, clean, clean, np.ones(10, bool), 2).far_field is None
        zero = np.zeros((2, 10))
        assert quality_metrics(zero, zero, zero, np.zeros(10, bool), 2).far_field is None

    def test_bad_inputs_raise(self):
        x = np.ones((2, 10))
        with pytest.raises(ShapeMismatch):
            quality_metrics(x, x, np.ones((2, 9)), np.zeros(10, bool), 2)
        with pytest.raises(ShapeMismatch):
            quality_metrics(x, x, x, np.zeros(9, bool), 2)
        with pytest.raises(InvalidValue):
            quality_metrics(x, x, x, np.zeros(10, bool), -1)
