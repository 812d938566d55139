#!/usr/bin/env python3
"""Cross-check ``clean_recording`` against the naive offline reference
(``oracle_process``) on the five pre-registered quality-control specs
(``QC_SPECS``), at each chunk size given; print one report per spec and
chunk size plus machine-readable key=value lines, each named by its spec and
chunk size (``qc2-one-burst.chunk256.pass=1``). The reference runs once per
spec, whatever the number of chunk sizes.

Besides the comparison, each spec and chunk size prints its update counts
(``updates``, ``rejecting_updates``, ``screened_updates``) and the sha256
``digest`` of the cleaned output, so that two checkouts whose cleaning is
bit-identical print the same key=value lines:

    diff <(python3 scripts/run_quality_check.py --chunk 32,256 | grep -F .chunk) \
         <(python3 ../other/scripts/run_quality_check.py --chunk 32,256 | grep -F .chunk)

Usage: python3 scripts/run_quality_check.py [--tolerance 1e-5] [--chunk 32[,256,...]]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's package

import asrstream as asr  # noqa: E402
from asrstream.oracle import oracle_process  # noqa: E402
from asrstream.synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic  # noqa: E402

# the five pre-registered quality-control specs: 8 ch, 250 Hz, 60 s, with and
# without artifact bursts, as (name, spec, shaping filter (b, a) or None);
# tests/test_acceptance.py checks the runtime (criterion 01) on these
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


def run_spec(name, spec, coeffs, tolerance, chunks):
    """Compare ``clean_recording`` at each chunk size with one reference run;
    return one pass flag per chunk size."""
    started = time.perf_counter()
    calibration, recording, mask = generate_synthetic(spec)
    filter_b, filter_a = coeffs or (None, None)
    state = asr.asr_calibrate(calibration, spec.srate, filter_b=filter_b, filter_a=filter_a)
    reference = oracle_process(
        recording, calibration, srate=spec.srate, filter_b=filter_b, filter_a=filter_a
    )
    print(f"== {name} ({spec.channels} ch, {spec.duration:g} s, "
          f"{len(spec.events)} burst(s){', filtered' if coeffs else ''}; "
          f"reference {time.perf_counter() - started:.1f} s) ==")
    passed = []
    for chunk in chunks:
        started = time.perf_counter()
        streamed, proc = asr.clean_recording(recording, state, chunk)
        report = asr.compare(streamed, reference, tolerance)
        print(f"   chunk {chunk} ({time.perf_counter() - started:.2f} s): {report.summary()}")
        if mask.any():
            aligned = asr.align_for_delay(streamed, recording, mask, proc.lookahead)
            metrics = asr.attenuation_metrics(*aligned)
            print(
                f"   artifact RMS reduction {metrics.artifact_rms_reduction:.3f}, "
                f"clean-segment change {metrics.clean_rms_change:.4f}"
            )
        lines = [
            *report.machine_lines(),
            f"updates={proc.total_samples_seen // proc.stepsize}",
            f"rejecting_updates={proc.rejecting_updates}",
            f"screened_updates={proc.screened_updates}",
            f"digest={hashlib.sha256(streamed.tobytes()).hexdigest()}",
        ]
        for line in lines:
            print(f"   {name}.chunk{chunk}.{line}")
        passed.append(report.passed)
    return passed


def chunk_list(text):
    """``--chunk``'s comma-separated chunk sizes, each an integer >= 1."""
    try:
        chunks = [int(part) for part in text.split(",")]
    except ValueError:
        chunks = []
    if not chunks or min(chunks) < 1:
        raise argparse.ArgumentTypeError(f"must be integers >= 1, comma-separated, got {text!r}")
    return chunks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=1e-5)
    parser.add_argument("--chunk", type=chunk_list, default=[32], help="e.g. 32,256,7")
    args = parser.parse_args(argv)
    results = [run_spec(*qc, args.tolerance, args.chunk) for qc in QC_SPECS]
    print()
    for i, chunk in enumerate(args.chunk):
        passed = sum(r[i] for r in results)
        print(f"chunk {chunk}: {passed}/{len(results)} specs passed at tolerance {args.tolerance:g}")
    return 0 if all(all(r) for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
