"""Deterministic synthetic EEG-like data with known artifact bursts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .types import round_samples

AR_POLE = 0.9  # temporal smoothing of the source noise


@dataclass(frozen=True)
class ArtifactEvent:
    """One high-amplitude burst along a spatial direction."""

    onset: float  # seconds into the test recording
    duration: float  # seconds
    amplitude: float  # multiplier on the recording's overall RMS
    direction: tuple[float, ...] | None = None  # drawn from the rng when absent


@dataclass(frozen=True)
class SyntheticSpec:
    """Fully deterministic description of a calibration + test pair."""

    channels: int = 8
    srate: float = 250.0
    duration: float = 60.0  # test recording, seconds
    calibration_duration: float = 30.0  # seconds
    mixing_seed: int = 0
    noise_seed: int = 1
    events: tuple[ArtifactEvent, ...] = ()


def generate_synthetic(spec: SyntheticSpec):
    """Build (calibration segment, test recording, artifact mask).

    The base signal is a fixed full-rank mixing of AR-smoothed white noise;
    calibration and test segments are consecutive draws of the same process.
    Bursts add ``amplitude * base_rms`` of unit-RMS noise along their spatial
    direction; the mask marks exactly ``round(duration * srate)`` samples per
    event. Identical specs produce bit-identical outputs.
    """
    from scipy.signal import lfilter  # deferred: scipy.signal takes ~1 s to import

    if spec.channels < 1:
        raise InvalidSpec("channels must be >= 1")
    if spec.srate <= 0:
        raise InvalidSpec("srate must be > 0")
    if spec.duration <= 0 or spec.calibration_duration <= 0:
        raise InvalidSpec("durations must be > 0")

    c = spec.channels
    n_calib = round_samples(spec.calibration_duration * spec.srate)
    n_test = round_samples(spec.duration * spec.srate)

    rng_mix = np.random.default_rng(spec.mixing_seed)
    q, _ = np.linalg.qr(rng_mix.standard_normal((c, c)))
    mixing = q * rng_mix.uniform(0.6, 1.4, size=c)

    rng = np.random.default_rng(spec.noise_seed)
    sources = rng.standard_normal((c, n_calib + n_test))
    sources = lfilter([1.0], [1.0, -AR_POLE], sources, axis=1)
    base = mixing @ sources
    calibration = base[:, :n_calib].copy()
    recording = base[:, n_calib:].copy()

    mask = np.zeros(n_test, dtype=bool)
    base_rms = float(np.sqrt(np.mean(recording**2)))
    rng_events = np.random.default_rng(spec.noise_seed + 7919)
    for k, ev in enumerate(spec.events):
        if ev.onset < 0 or ev.duration <= 0:
            raise InvalidSpec(f"event {k}: onset must be >= 0 and duration > 0")
        if ev.amplitude <= 0:
            raise InvalidSpec(f"event {k}: amplitude must be > 0")
        start = round_samples(ev.onset * spec.srate)
        length = round_samples(ev.duration * spec.srate)
        if start + length > n_test:
            raise InvalidSpec(f"event {k} extends past the recording")
        if ev.direction is None:
            direction = rng_events.standard_normal(c)
        else:
            direction = np.asarray(ev.direction, dtype=float)
            if direction.shape != (c,):
                raise InvalidSpec(f"event {k}: direction must have {c} entries")
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            raise InvalidSpec(f"event {k}: direction must be nonzero")
        direction = direction / norm
        burst = rng_events.standard_normal(length)
        burst_rms = float(np.sqrt(np.mean(burst**2))) if length else 1.0
        if length:
            burst = burst / burst_rms
            recording[:, start : start + length] += (
                ev.amplitude * base_rms
            ) * np.outer(direction, burst)
            mask[start : start + length] = True
    return calibration, recording, mask
