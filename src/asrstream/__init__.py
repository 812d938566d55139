"""Streaming artifact subspace reconstruction for multichannel EEG.

Calibrate on clean data, then detect and correct artifactual chunks in real
time; outputs always keep the input's channel and sample counts.
"""

from .calibration import asr_calibrate
from .comparison import (
    AttenuationMetrics,
    ComparisonReport,
    align_for_delay,
    attenuation_metrics,
    compare,
)
from .errors import AsrError
from .filters import iir_filter
from .io_formats import (
    SignalRecord,
    load_calibration_data,
    load_calibration_state,
    load_signal_record,
    parse_config,
    save_calibration_csv,
    save_calibration_state,
    save_signal_record,
)
from .linalg import geometric_median, matrix_sqrt_psd, pinv, symmetric_eig
from .oracle import oracle_process
from .processing import asr_process_chunk, clean_recording
from .runtime import ChunkFifo, Pipeline, SideChannelRegistry
from .stats import robust_covariance, robust_stats, sliding_rms
from .synthetic import ArtifactEvent, SyntheticSpec, generate_synthetic
from .types import (
    CalibrationParams,
    CalibrationState,
    MultichannelChunk,
    PipelineConfig,
    ProcessorState,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactEvent",
    "AsrError",
    "AttenuationMetrics",
    "CalibrationParams",
    "CalibrationState",
    "ChunkFifo",
    "ComparisonReport",
    "MultichannelChunk",
    "Pipeline",
    "PipelineConfig",
    "ProcessorState",
    "SideChannelRegistry",
    "SignalRecord",
    "SyntheticSpec",
    "align_for_delay",
    "asr_calibrate",
    "asr_process_chunk",
    "attenuation_metrics",
    "clean_recording",
    "compare",
    "generate_synthetic",
    "geometric_median",
    "iir_filter",
    "load_calibration_data",
    "load_calibration_state",
    "load_signal_record",
    "matrix_sqrt_psd",
    "oracle_process",
    "parse_config",
    "pinv",
    "robust_covariance",
    "robust_stats",
    "save_calibration_csv",
    "save_calibration_state",
    "save_signal_record",
    "sliding_rms",
    "symmetric_eig",
    "__version__",
]
