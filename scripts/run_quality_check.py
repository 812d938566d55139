#!/usr/bin/env python3
"""Cross-check the streaming pipeline against the naive offline reference on
a batch of seeded synthetic recordings; print one report per spec plus
machine-readable key=value lines.

Usage: python3 scripts/run_quality_check.py [--tolerance 1e-5] [--chunk 32]
"""

import argparse
import sys
import time

import asrstream as asr
from asrstream.oracle import oracle_process
from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic

SPECS = [
    ("clean", SyntheticSpec(noise_seed=101, mixing_seed=11)),
    (
        "one-burst",
        SyntheticSpec(noise_seed=102, mixing_seed=12, events=(ArtifactEvent(20.0, 1.0, 10.0),)),
    ),
    (
        "three-bursts",
        SyntheticSpec(
            noise_seed=103,
            mixing_seed=13,
            events=(
                ArtifactEvent(10.0, 0.5, 8.0),
                ArtifactEvent(30.0, 1.0, 12.0),
                ArtifactEvent(45.0, 0.8, 6.0),
            ),
        ),
    ),
    (
        "dense-bursts",
        SyntheticSpec(
            noise_seed=106,
            mixing_seed=16,
            events=tuple(ArtifactEvent(5.0 + 6 * k, 0.6, 9.0) for k in range(9)),
        ),
    ),
]


def run_spec(name, spec, tolerance, chunk):
    started = time.perf_counter()
    calibration, recording, mask = generate_synthetic(spec)
    state = asr.asr_calibrate(calibration, spec.srate)
    streamed, proc = asr.clean_recording(recording, state, chunk)
    reference = oracle_process(recording, calibration, srate=spec.srate)
    report = asr.compare(streamed, reference, tolerance)
    elapsed = time.perf_counter() - started

    print(f"== {name} ({spec.channels} ch, {spec.duration:g} s, "
          f"{len(spec.events)} burst(s), {elapsed:.1f} s) ==")
    print("   " + report.summary())
    if mask.any():
        aligned = asr.align_for_delay(streamed, recording, mask, proc.lookahead)
        metrics = asr.attenuation_metrics(*aligned)
        print(
            f"   artifact RMS reduction {metrics.artifact_rms_reduction:.3f}, "
            f"clean-segment change {metrics.clean_rms_change:.4f}"
        )
    for line in report.machine_lines():
        print(f"   {name}.{line}")
    return report.passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=1e-5)
    parser.add_argument("--chunk", type=int, default=32)
    args = parser.parse_args(argv)
    results = [run_spec(name, spec, args.tolerance, args.chunk) for name, spec in SPECS]
    print(f"\n{sum(results)}/{len(results)} specs passed at tolerance {args.tolerance:g}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
