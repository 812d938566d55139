#!/usr/bin/env python3
"""Cross-check the streaming pipeline against the naive offline reference on
the five pre-registered quality-control specs (``QC_SPECS``); print one
report per spec plus machine-readable key=value lines.

Usage: python3 scripts/run_quality_check.py [--tolerance 1e-5] [--chunk 32]
"""

import argparse
import sys
import time

import asrstream as asr
from asrstream.oracle import oracle_process
from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic

# the five pre-registered quality-control specs: 8 ch, 250 Hz, 60 s, with and
# without artifact bursts, as (name, spec, shaping filter (b, a) or None);
# tests/test_acceptance.py checks the runtime against the oracle on these
QC_SPECS = [
    ("qc1-clean", SyntheticSpec(noise_seed=101, mixing_seed=11), None),
    (
        "qc2-one-burst",
        SyntheticSpec(noise_seed=102, mixing_seed=12, events=(ArtifactEvent(20.0, 1.0, 10.0),)),
        None,
    ),
    (
        "qc3-three-bursts",
        SyntheticSpec(
            noise_seed=103,
            mixing_seed=13,
            events=(
                ArtifactEvent(10.0, 0.5, 8.0),
                ArtifactEvent(30.0, 1.0, 12.0),
                ArtifactEvent(45.0, 0.8, 6.0),
            ),
        ),
        None,
    ),
    (
        "qc4-clean-filtered",
        SyntheticSpec(noise_seed=104, mixing_seed=14),
        ([0.25, 0.5, 0.25], [1.0, -0.3, 0.2]),
    ),
    (
        "qc5-overlapping-bursts",
        SyntheticSpec(
            noise_seed=105,
            mixing_seed=15,
            events=(ArtifactEvent(25.0, 1.0, 10.0), ArtifactEvent(25.5, 1.0, 7.0)),
        ),
        None,
    ),
]


def run_spec(name, spec, coeffs, tolerance, chunk):
    started = time.perf_counter()
    calibration, recording, mask = generate_synthetic(spec)
    filter_b, filter_a = coeffs or (None, None)
    state = asr.asr_calibrate(calibration, spec.srate, filter_b=filter_b, filter_a=filter_a)
    streamed, proc = asr.clean_recording(recording, state, chunk)
    reference = oracle_process(
        recording, calibration, srate=spec.srate, filter_b=filter_b, filter_a=filter_a
    )
    report = asr.compare(streamed, reference, tolerance)
    elapsed = time.perf_counter() - started

    print(f"== {name} ({spec.channels} ch, {spec.duration:g} s, "
          f"{len(spec.events)} burst(s){', filtered' if coeffs else ''}, {elapsed:.1f} s) ==")
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
    results = [run_spec(*qc, args.tolerance, args.chunk) for qc in QC_SPECS]
    print(f"\n{sum(results)}/{len(results)} specs passed at tolerance {args.tolerance:g}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
