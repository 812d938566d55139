import tracemalloc
import warnings

import numpy as np
import pytest

import asrstream as asr
from asrstream.calibration import threshold_gain
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


def test_rejects_non_finite_before_a_shaping_filter():
    # the filter would smear the NaN into its output: still invalid input, not divergence
    data = np.zeros((2, 1000))
    data[0, 3] = np.nan
    with pytest.raises(InvalidInput, match="non-finite"):
        asr.asr_calibrate(data, 250.0, filter_b=[0.5, 0.5])


@pytest.mark.parametrize("srate", [0.0, -250.0, float("nan")])
def test_rejects_a_rate_that_is_not_positive(srate):
    with pytest.raises(InvalidInput, match="srate must be > 0"):
        asr.asr_calibrate(np.zeros((2, 1000)), srate)


def calibration_peak(x, srate):
    """The tracemalloc peak of ``asr_calibrate(x, srate)``, in bytes."""
    tracemalloc.start()
    try:
        asr.asr_calibrate(x, srate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_memory_stays_near_the_input():
    # without a shaping filter nothing copies the data: calibration walks it
    # in column groups of stats.GROUP_FLOATS floats (2 MB)
    x = np.random.default_rng(23).standard_normal((64, 30_000))
    assert calibration_peak(x, 1000.0) <= 0.25 * x.nbytes


def test_memory_does_not_grow_with_the_recording():
    # 4x the samples adds only the per-block and per-window arrays
    short = calibration_peak(np.random.default_rng(23).standard_normal((64, 30_000)), 1000.0)
    long = calibration_peak(np.random.default_rng(23).standard_normal((64, 120_000)), 1000.0)
    assert long - short <= 1_000_000


@pytest.mark.parametrize("channels,srate,samples", [(8, 250.0, 1060), (64, 1000.0, 9401)])
def test_component_statistics_do_not_depend_on_the_group_size(channels, srate, samples):
    # one group is the whole-array product; groups of 1 to 3 windows, the
    # last one partial, see the same projected values, so the per-window
    # RMS and the threshold are bit-identical
    from asrstream import calibration, stats

    x = np.random.default_rng(25).standard_normal((channels, samples))
    cov = stats.robust_covariance(x, 10)  # held fixed: only the projection is grouped
    stride = asr.CalibrationParams().window_stride(srate)
    runs = []
    for floats in (samples * channels, channels * stride, 2 * channels * stride, 3 * channels * stride):
        rms = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "GROUP_FLOATS", floats)
            patch.setattr(calibration, "robust_covariance", lambda data, blocksize: cov)
            real = calibration.robust_stats
            patch.setattr(calibration, "robust_stats", lambda v: rms.append(v) or real(v))
            state = asr.asr_calibrate(x, srate)
        runs.append((rms[0], state.threshold))
    windows = runs[0][0].shape[1]
    assert windows % 2 and windows % 3  # a partial last group at 2 and 3 windows
    for rms, threshold in runs[1:]:
        assert np.array_equal(rms, runs[0][0])
        assert np.array_equal(threshold, runs[0][1])


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


class TestThresholdGain:
    def test_gaussian_spread_gives_the_marchenko_pastur_gain(self):
        # an RMS over n Gaussian samples spreads by 1/sqrt(2n) of its value
        mu = np.linspace(1.0, 4.0, 16)
        gain, n_eff = threshold_gain(mu, mu / np.sqrt(2 * 50.0))
        assert n_eff == pytest.approx(50.0)
        assert gain == pytest.approx(1.0 + np.sqrt(16 / 50.0))

    @pytest.mark.parametrize(
        "mu, sigma, n_eff",
        [
            ([1.0, 2.0, 3.0], [0.0, 0.0, 0.1], np.inf),  # sigma = 0 counts as endless data
            ([0.0, 0.0, 3.0], [0.0, 0.0, 0.1], np.inf),  # and so does mu = sigma = 0
            ([0.0, 2.0, 3.0], [0.0, 0.1, 0.3], 200.0),  # the median of inf, 200 and 50
            ([1e-200, 1e-200, 1.0], [1.0, 1.0, 0.0], 1.0),  # at least one sample
            ([1e200, 1e200, 1.0], [1e-200, 1e-200, 1.0], np.inf),  # a ratio past the float range
        ],
    )
    def test_degenerate_components_give_a_finite_gain_without_warnings(self, mu, sigma, n_eff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain, got = threshold_gain(np.array(mu), np.array(sigma))
        assert got == pytest.approx(n_eff)
        assert gain == pytest.approx(1.0 + np.sqrt(3 / n_eff))
        assert 1.0 <= gain <= 1.0 + np.sqrt(3)

    @pytest.mark.parametrize("silent", ["zero", "constant-rms"])
    def test_calibration_with_a_flat_component_stays_finite(self, silent):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((4, 7500))
        # a zero channel is a component with mu = sigma = 0; a square wave
        # one whose RMS is the same in every window
        data[3] = 0.0 if silent == "zero" else np.where(np.arange(7500) % 2, 1.0, -1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = asr.asr_calibrate(data, 250.0)
        # the zero channel's rank deficiency is reported; nothing overflows or divides by 0
        assert all("rank deficient" in str(w.message) for w in caught)
        assert np.isfinite(state.threshold).all()
        assert 1.0 <= state.gain <= 1.0 + np.sqrt(4) and state.n_eff >= 1.0

    def test_threshold_carries_the_gain(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((8, 7500))
        state = asr.asr_calibrate(data, 250.0)
        # per-component RMS of 125-sample windows: about 125 effective samples
        assert 60.0 < state.n_eff < 250.0
        assert state.gain == 1.0 + np.sqrt(8 / state.n_eff)
        rows = np.linalg.norm(state.threshold, axis=1)
        assert rows.min() > state.gain  # unit noise: mu near 1 plus 5 sigma, times g
