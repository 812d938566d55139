import tracemalloc

import numpy as np
import pytest

import asrstream as asr
from asrstream.errors import InsufficientData, InvalidInput, InvalidValue, WindowTooShort
from asrstream.linalg import matrix_sqrt_psd


def test_unit_noise_gives_near_identity_mixing():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((4, 15000))  # 60 s at 250 Hz
    state = asr.asr_calibrate(data, 250.0)
    rel = np.linalg.norm(state.mixing - np.eye(4)) / np.linalg.norm(np.eye(4))
    assert rel < 0.15
    amplitudes = np.linalg.norm(state.threshold, axis=1)
    assert (amplitudes > 0).all()


def test_mixed_noise_recovers_mixing_root():
    rng = np.random.default_rng(18)
    mixing = np.array(
        [
            [1.0, 0.3, 0.0, 0.1],
            [0.0, 0.9, 0.2, 0.0],
            [0.1, 0.0, 1.1, 0.3],
            [0.0, 0.2, 0.0, 0.8],
        ]
    )
    data = mixing @ rng.standard_normal((4, 15000))
    state = asr.asr_calibrate(data, 250.0)
    want = matrix_sqrt_psd(mixing @ mixing.T)
    rel = np.linalg.norm(state.mixing - want) / np.linalg.norm(want)
    assert rel < 0.15


def test_too_few_samples():
    with pytest.raises(InsufficientData):
        asr.asr_calibrate(np.zeros((4, 100)), 250.0)  # below one 125-sample window


def test_window_rule_names_channel_multiple():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((32, 5000))
    with pytest.raises(WindowTooShort, match="1.5x"):
        asr.asr_calibrate(data, 250.0, asr.CalibrationParams(window_len=0.05))


def test_rejects_non_finite():
    data = np.zeros((2, 1000))
    data[0, 3] = np.nan
    with pytest.raises(InvalidInput):
        asr.asr_calibrate(data, 250.0)


@pytest.mark.parametrize("srate", [0.0, -250.0, float("nan")])
def test_rejects_a_rate_that_is_not_positive(srate):
    with pytest.raises(InvalidInput, match="srate must be > 0"):
        asr.asr_calibrate(np.zeros((2, 1000)), srate)


def test_memory_stays_near_the_input():
    # without a shaping filter nothing copies the data: the peak is the
    # robust covariance's one work buffer, then the projected components
    x = np.random.default_rng(23).standard_normal((64, 30_000))
    tracemalloc.start()
    try:
        asr.asr_calibrate(x, 1000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * x.nbytes


def test_component_statistics_take_one_call_each(monkeypatch):
    from asrstream import calibration

    calls = []
    for name in ("sliding_rms", "robust_stats"):
        real = getattr(calibration, name)

        def counting(values, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(values)))
            return _real(values, *args, **kwargs)

        monkeypatch.setattr(calibration, name, counting)
    data = np.random.default_rng(24).standard_normal((6, 5000))
    asr.asr_calibrate(data, 250.0)
    assert [name for name, _ in calls] == ["sliding_rms", "robust_stats"]
    assert calls[0][1] == (6, 5000) and calls[1][1][0] == 6


@pytest.mark.parametrize(
    "samples,srate,params,message",
    [
        (100, 250.0, None,
         "need at least 0.5 s of data (one statistics window), got 100 samples (0.4 s)"),
        (200, 250.0, None,
         "need at least 1.676 s of data (8 statistics windows), got 200 samples (0.8 s)"),
        # one sample short: the durations round alike, the counts differ
        (16899, 1e4, None,
         "need at least 1.69 s of data (8 statistics windows), got 16899 samples (1.69 s)"),
        (2500, 1e308, None,
         "need at least 0.5 s of data (one statistics window), got 2500 samples (2.5e-305 s)"),
        (500, 250.0, asr.CalibrationParams(blocksize=600),
         "need at least 2.4 s of data (one covariance block of 600 samples), "
         "got 500 samples (2 s)"),
    ],
)
def test_too_little_data_is_stated_in_seconds(samples, srate, params, message):
    data = np.random.default_rng(25).standard_normal((4, samples))
    with pytest.raises(InsufficientData) as info:
        asr.asr_calibrate(data, srate, params)
    assert str(info.value) == message


def test_deterministic():
    rng = np.random.default_rng(20)
    data = rng.standard_normal((3, 5000))
    a = asr.asr_calibrate(data, 250.0)
    b = asr.asr_calibrate(data, 250.0)
    assert np.array_equal(a.mixing, b.mixing)
    assert np.array_equal(a.threshold, b.threshold)


def test_filter_coefficients_are_normalized():
    rng = np.random.default_rng(21)
    data = rng.standard_normal((2, 5000))
    state = asr.asr_calibrate(data, 250.0, filter_b=[2.0, 1.0], filter_a=[2.0, 0.5])
    assert state.filter_a[0] == 1.0
    assert state.filter_b == (1.0, 0.5)


def test_state_invariants_hold():
    rng = np.random.default_rng(22)
    data = rng.standard_normal((4, 6000))
    state = asr.asr_calibrate(data, 250.0)
    assert np.array_equal(state.mixing, state.mixing.T)
    assert np.all(np.isfinite(state.threshold))
    assert np.linalg.eigvalsh(state.mixing).min() >= 0
    assert state.channels == 4
    assert state.window_samples() == 125
    assert state.default_lookahead() == 62


@pytest.mark.parametrize("scale", [1e308, 1e200])
def test_a_mixing_whose_norm_overflows_is_an_invalid_value(scale):
    with pytest.raises(InvalidValue, match="mixing: norm must be finite"):
        asr.CalibrationState(
            mixing=np.eye(4) * scale,
            threshold=np.eye(4),
            filter_b=(1.0,),
            filter_a=(1.0,),
            srate=250.0,
            params=asr.CalibrationParams(),
        )
