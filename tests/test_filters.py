import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asrstream
from asrstream.errors import FilterDiverged, InvalidInput
from asrstream.filters import (
    initial_filter_state,
    iir_filter,
    normalize_coefficients,
)


def test_identity_filter_returns_exact_copy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 40))
    y, state = iir_filter(x, [1.0], [1.0])
    assert np.array_equal(y, x)
    assert state.shape == (3, 0)


def test_identity_filter_returns_its_input_uncopied():
    x = np.random.default_rng(0).standard_normal((3, 40))
    assert iir_filter(x, [1.0], [1.0])[0] is x
    assert iir_filter(x, [2.0], [2.0])[0] is x  # gain 1 after normalising
    y, _ = iir_filter(x, [0.5], [1.0])
    assert y is not x and np.array_equal(y, 0.5 * x)


def test_fir_impulse_response():
    x = np.array([[1.0, 0.0, 0.0, 0.0]])
    y, _ = iir_filter(x, [0.5, 0.5], [1.0])
    assert np.allclose(y, [[0.5, 0.5, 0.0, 0.0]])


def test_chunked_equals_whole():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 100))
    b = [0.2, 0.3, 0.1]
    a = [1.0, -0.4, 0.05]
    whole, _ = iir_filter(x, b, a)
    state = initial_filter_state(2, b, a)
    parts = []
    for start in range(0, 100, 7):
        part, state = iir_filter(x[:, start : start + 7], b, a, state)
        parts.append(part)
    chunked = np.hstack(parts)
    assert np.abs(chunked - whole).max() < 1e-12


@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 20), min_size=1, max_size=8))
def test_chunked_equals_whole_any_partition(seed, sizes):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    x = rng.standard_normal((2, n))
    b = [0.3, 0.2]
    a = [1.0, -0.5]
    whole, _ = iir_filter(x, b, a)
    state = initial_filter_state(2, b, a)
    parts = []
    pos = 0
    for size in sizes:
        part, state = iir_filter(x[:, pos : pos + size], b, a, state)
        parts.append(part)
        pos += size
    assert np.abs(np.hstack(parts) - whole).max() < 1e-12


def test_unstable_coefficients_diverge():
    x = np.zeros((1, 2000))
    x[0, 0] = 1.0
    with pytest.raises(FilterDiverged):
        iir_filter(x, [1.0], [1.0, -2.0])


def test_state_dimension_enforced():
    with pytest.raises(InvalidInput):
        iir_filter(np.zeros((2, 5)), [1.0, 0.5], [1.0], np.zeros((2, 3)))


def test_zero_leading_denominator_rejected():
    with pytest.raises(InvalidInput):
        iir_filter(np.zeros((1, 5)), [1.0], [0.0, 1.0])


def test_empty_chunk_passes_through():
    y, state = iir_filter(np.zeros((2, 0)), [0.5, 0.5], [1.0, -0.1])
    assert y.shape == (2, 0)
    assert state.shape == (2, 1)


def test_normalize_coefficients():
    b, a = normalize_coefficients([2.0, 4.0], [2.0, 1.0])
    assert b == (1.0, 2.0)
    assert a == (1.0, 0.5)
    with pytest.raises(InvalidInput):
        normalize_coefficients([1.0], [0.0])


def test_iir_filter_matches_difference_equation():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 50))
    b, a = [0.5, 0.2, -0.1], [1.0, -0.3, 0.05]
    want = np.zeros_like(x)
    for n in range(x.shape[1]):
        for k in range(3):
            if n - k >= 0:
                want[:, n] += b[k] * x[:, n - k]
                if k:
                    want[:, n] -= a[k] * want[:, n - k]
    got, state = iir_filter(x, b, a)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert state.shape == (2, 2)


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal takes about a second to import and only a shaping filter
    or the synthetic generator needs it."""
    src = os.path.dirname(os.path.dirname(asrstream.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, asrstream.cli\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "import numpy as np\n"
        "from asrstream.filters import iir_filter\n"
        "iir_filter(np.ones((1, 3)), [0.5, 0.5], [1.0])\n"
        "assert 'scipy.signal' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
