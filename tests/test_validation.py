import numpy as np
import pytest

import asrstream as asr
from asrstream.comparison import align_for_delay, attenuation_metrics, compare
from asrstream.errors import InvalidSpec, ShapeMismatch
from asrstream.oracle import oracle_process
from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic
from conftest import run_stream


class TestGenerator:
    def test_no_events_clean_mask(self):
        spec = SyntheticSpec(channels=4, duration=10.0, calibration_duration=10.0)
        calibration, recording, mask = generate_synthetic(spec)
        assert not mask.any()
        assert calibration.shape == (4, 2500)
        assert recording.shape == (4, 2500)
        # same process: comparable second moments
        assert np.std(recording) == pytest.approx(np.std(calibration), rel=0.2)

    def test_mask_arithmetic(self):
        spec = SyntheticSpec(
            channels=4,
            duration=10.0,
            calibration_duration=5.0,
            events=(ArtifactEvent(onset=5.0, duration=1.0, amplitude=10.0),),
        )
        _, _, mask = generate_synthetic(spec)
        assert mask.sum() == 250
        assert mask[1250] and mask[1499] and not mask[1500]

    def test_deterministic(self):
        spec = SyntheticSpec(events=(ArtifactEvent(2.0, 0.5, 8.0),), duration=8.0)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert a[1].tobytes() == b[1].tobytes()

    def test_event_outside_duration(self):
        spec = SyntheticSpec(duration=10.0, events=(ArtifactEvent(9.5, 1.0, 5.0),))
        with pytest.raises(InvalidSpec):
            generate_synthetic(spec)

    def test_bad_amplitude(self):
        spec = SyntheticSpec(duration=10.0, events=(ArtifactEvent(1.0, 1.0, 0.0),))
        with pytest.raises(InvalidSpec):
            generate_synthetic(spec)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mixing_seed": -1}, "seeds must be >= 0"),
            ({"noise_seed": -1}, "seeds must be >= 0"),
            ({"duration": 0.001}, "durations must span at least one sample"),
            ({"calibration_duration": 0.001}, "durations must span at least one sample"),
        ],
    )
    def test_bad_seed_or_duration_is_an_invalid_spec(self, fields, message):
        with pytest.raises(InvalidSpec, match=message):
            generate_synthetic(SyntheticSpec(**fields))

    def test_one_sample_is_the_shortest_duration(self):
        calibration, recording, mask = generate_synthetic(
            SyntheticSpec(channels=2, duration=0.004, calibration_duration=0.004)
        )
        assert calibration.shape == recording.shape == (2, 1) and mask.shape == (1,)

    def test_overlapping_events_allowed(self):
        spec = SyntheticSpec(
            duration=10.0,
            events=(ArtifactEvent(1.0, 1.0, 5.0), ArtifactEvent(1.5, 1.0, 5.0)),
        )
        _, _, mask = generate_synthetic(spec)
        assert mask.sum() == 375  # union of [250,500) and [375,625)


class TestCompare:
    def test_identical_passes_at_zero(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 50))
        report = compare(a, a.copy(), 0.0)
        assert report.passed
        assert report.max_relative_error == 0.0
        assert report.first_divergent_sample is None
        assert report.machine_lines()[-1] == "first_divergent_sample=-1"  # a number, not None

    def test_relative_scaling(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 40)) + 3.0  # keep away from zero
        b = a * (1 + 2e-5)
        assert not compare(a, b, 1e-5).passed
        assert compare(a, b, 1e-4).passed

    def test_first_divergent_sample(self):
        a = np.ones((1, 10))
        b = a.copy()
        b[0, 6] = 2.0
        report = compare(a, b, 1e-9)
        assert report.first_divergent_sample == 6
        assert report.machine_lines()[-1] == "first_divergent_sample=6"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compare(np.zeros((2, 3)), np.zeros((2, 4)), 1e-5)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 30))
        b = a + rng.standard_normal((2, 30)) * 1e-7
        assert compare(a, b, 1e-5).passed == compare(b, a, 1e-5).passed
        assert compare(a, b, 1e-5).max_relative_error == compare(b, a, 1e-5).max_relative_error


class TestAttenuationMetrics:
    def test_equal_inputs(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((3, 100))
        mask = np.zeros(100, bool)
        mask[20:40] = True
        m = attenuation_metrics(raw, raw, mask)
        assert m.artifact_rms_reduction == 0.0
        assert m.clean_rms_change == 0.0

    def test_zeroed_artifact_gives_full_reduction(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3, 100)) + 0.5
        mask = np.zeros(100, bool)
        mask[10:30] = True
        cleaned = raw.copy()
        cleaned[:, mask] = 0.0
        m = attenuation_metrics(cleaned, raw, mask)
        assert m.artifact_rms_reduction == 1.0
        assert m.clean_rms_change == 0.0

    def test_empty_mask_reports_absent(self):
        raw = np.ones((2, 10))
        m = attenuation_metrics(raw, raw, np.zeros(10, bool))
        assert m.artifact_rms_reduction is None
        assert m.clean_rms_change == 0.0

    def test_align_for_delay(self):
        raw = np.arange(20, dtype=float)[None, :]
        cleaned = np.concatenate([np.zeros((1, 3)), raw[:, :-3]], axis=1)
        mask = np.zeros(20, bool)
        c2, r2, m2 = align_for_delay(cleaned, raw, mask, 3)
        assert np.array_equal(c2, r2)
        assert m2.size == 17


class TestOracle:
    def test_oracle_identity_path(self):
        rng = np.random.default_rng(6)
        calib = rng.standard_normal((4, 7500))
        stream = rng.standard_normal((4, 2000))
        params = asr.CalibrationParams(cutoff=20.0)
        out = oracle_process(stream, calib, params, srate=250.0)
        lookahead = 62
        delayed = np.concatenate([np.zeros((4, lookahead)), stream[:, :-lookahead]], axis=1)
        assert np.abs(out - delayed).max() < 1e-9

    def test_oracle_self_comparison(self):
        rng = np.random.default_rng(7)
        calib = rng.standard_normal((4, 7500))
        stream = rng.standard_normal((4, 1500))
        a = oracle_process(stream, calib, srate=250.0)
        b = oracle_process(stream, calib, srate=250.0)
        assert compare(a, b, 0.0).passed

    def test_streaming_matches_oracle_with_burst(self, clean_calibration):
        data, state = clean_calibration
        rng = np.random.default_rng(8)
        stream = rng.standard_normal((4, 5000))
        stream[:, 2000:2300] += 10 * np.outer([1.0, 0.5, -0.3, 0.2], np.ones(300))
        got, _ = run_stream(stream, state, chunk_size=32)
        want = oracle_process(stream, data, srate=250.0)
        report = compare(got, want, 1e-5)
        assert report.passed, report.summary()

    def test_streaming_matches_oracle_with_shaping_filter(self):
        rng = np.random.default_rng(9)
        calib_data = rng.standard_normal((4, 7500))
        stream = rng.standard_normal((4, 3000))
        stream[:, 1000:1200] += 12 * np.outer([0.5, 1.0, 0.2, -0.4], np.ones(200))
        filter_b = [0.2, 0.2, 0.2]
        filter_a = [1.0, -0.3, 0.1]
        state = asr.asr_calibrate(calib_data, 250.0, filter_b=filter_b, filter_a=filter_a)
        got, _ = run_stream(stream, state, chunk_size=64)
        want = oracle_process(
            stream, calib_data, srate=250.0, filter_b=filter_b, filter_a=filter_a
        )
        report = compare(got, want, 1e-5)
        assert report.passed, report.summary()
