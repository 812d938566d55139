import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import asrstream as asr

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # tmp_path reuse across examples is fine: each example overwrites
        # the same file before reading it back
        HealthCheck.function_scoped_fixture,
    ],
)
settings.load_profile("suite")

SRATE = 250.0


@pytest.fixture(scope="session")
def clean_calibration():
    """Seeded 4-channel unit-noise calibration shared across tests."""
    rng = np.random.default_rng(2024)
    data = rng.standard_normal((4, 7500))
    state = asr.asr_calibrate(data, SRATE)
    return data, state


def run_stream(stream, state, chunk_size, stepsize=32, lookahead=None):
    """Feed a whole recording through asr_process_chunk in fixed-size chunks."""
    return asr.clean_recording(stream, state, chunk_size, stepsize, lookahead)
