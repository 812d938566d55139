"""File formats: calibration CSV, signal records, calibration-state files,
and key-value pipeline configuration.

All text is UTF-8 with '.' decimals (locale-independent); both LF and CRLF
line endings are accepted. Floats are written with repr precision, so every
save/load round trip is value-exact. Writers go through a temp file and an
atomic rename, so a failed write never leaves a partial file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    EmptyFile,
    InvalidValue,
    MissingKey,
    ParseError,
    RaggedCsv,
    UnsupportedVersion,
)
from .types import CalibrationParams, CalibrationState, PipelineConfig

STATE_FORMAT_NAME = "asr-calibration-state"
STATE_FORMAT_VERSION = 1
MAX_FILTER_ORDER = 8


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename.

    The file gets the mode a plain ``open`` would give it (0666 less the
    umask), not the 0600 of the temp file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"cannot parse {cell!r} as a number", row=row, col=col) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite value {cell!r}", row=row, col=col)
    return value


def _parse_coefficient_line(line: str, row: int):
    """Recognize '# filter_b: v,v,...' / '# filter_a: ...' preamble lines."""
    body = line.lstrip("#").strip()
    for key in ("filter_b", "filter_a"):
        if body.startswith(key):
            rest = body[len(key) :].lstrip(" :=")
            values = [
                _parse_cell(cell.strip(), row, i + 1)
                for i, cell in enumerate(rest.split(","))
                if cell.strip()
            ]
            if not values:
                raise ParseError(f"{key} preamble carries no values", row=row)
            if len(values) > MAX_FILTER_ORDER + 1:
                raise ParseError(
                    f"{key} exceeds the supported filter order of {MAX_FILTER_ORDER}",
                    row=row,
                )
            return key, values
    return None


def _read_csv_body(lines: list[str]):
    """Parse '#'-preamble plus comma-separated numeric rows.

    ``lines[i]`` is physical line ``i + 1``. Returns (matrix, preamble dict).
    Row/column positions in errors are 1-based and count physical lines; of
    several faults, the first in reading order is reported.
    """
    preamble: dict[str, list[float]] = {}
    rows: list[list[float]] = []
    linenos: list[int] = []  # physical line of each row
    width = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue  # stray blank lines are tolerated
        if line.startswith("#"):
            if rows:
                _finite_matrix(rows, linenos, lines)
                raise ParseError("comment lines are only allowed before data", row=lineno)
            coeffs = _parse_coefficient_line(line, lineno)
            if coeffs:
                preamble[coeffs[0]] = coeffs[1]
            continue
        cells = line.split(",")
        try:
            values = list(map(float, cells))  # the same grammar as _parse_cell
        except ValueError:
            _finite_matrix(rows, linenos, lines, cells, lineno)
            raise  # not reached: some cell of this line fails _parse_cell
        if width is None:
            width = len(values)
        elif len(values) != width:
            _finite_matrix(rows, linenos, lines, cells, lineno)
            raise RaggedCsv(
                lineno,
                f"row {lineno} has {len(values)} cells, row {linenos[0]} has {width}",
            )
        rows.append(values)
        linenos.append(lineno)
    if not rows:
        raise EmptyFile("no data rows found")
    return _finite_matrix(rows, linenos, lines), preamble


def _finite_matrix(rows, linenos, lines, cells=(), lineno=None) -> np.ndarray:
    """Stack the parsed ``rows``, raising ParseError at their first non-finite
    value; then at the first unparseable or non-finite one of ``cells``, the
    split line ``lineno`` that follows them."""
    matrix = np.array(rows, dtype=float)
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)  # first in row-major order
        cell = lines[linenos[i] - 1].strip().split(",")[j].strip()
        raise ParseError(f"non-finite value {cell!r}", row=linenos[i], col=int(j) + 1)
    for col, cell in enumerate(cells, start=1):
        _parse_cell(cell.strip(), lineno, col)
    return matrix


def load_calibration_csv(path) -> np.ndarray:
    """Calibration data: every row is a channel, every column a sample."""
    matrix, _, _ = load_calibration_data(path)
    return matrix


def load_calibration_data(path):
    """Like :func:`load_calibration_csv` but also returns any shaping-filter
    coefficients carried in the '#' preamble: (matrix, filter_b, filter_a)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    matrix, preamble = _read_csv_body(lines)
    if matrix.shape[1] < 2:
        raise ParseError("calibration data needs at least 2 columns (samples)", row=1)
    return matrix, preamble.get("filter_b"), preamble.get("filter_a")


def format_row(row) -> str:
    """Comma-separated shortest-repr floats: value-exact on reload."""
    return ",".join(map(repr, np.asarray(row, dtype=float).tolist()))


def save_calibration_csv(path, matrix, filter_b=None, filter_a=None) -> None:
    matrix = np.asarray(matrix, dtype=float)
    lines = []
    if filter_b is not None:
        lines.append("# filter_b: " + format_row(filter_b))
    if filter_a is not None:
        lines.append("# filter_a: " + format_row(filter_a))
    lines.extend(map(format_row, matrix))
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class SignalRecord:
    """A recording with its sampling rate; body layout matches the
    calibration CSV (rows are channels)."""

    data: np.ndarray
    srate: float

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def samples(self) -> int:
        return self.data.shape[1]


def save_signal_record(path, record: SignalRecord) -> None:
    lines = [
        f"# channels: {record.channels}",
        f"# srate: {repr(float(record.srate))}",
    ]
    lines.extend(map(format_row, np.asarray(record.data, dtype=float)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_signal_record(path) -> SignalRecord:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    channels = None
    srate = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            lines[lineno - 1] = ""  # the body parser skips it; line numbers stay physical
            body = line.lstrip("#").strip()
            for key in ("channels", "srate"):
                if body.startswith(key):
                    value = body[len(key) :].lstrip(" :=")
                    if key == "channels":
                        try:
                            channels = int(value)
                        except ValueError:
                            raise ParseError("channels header must be an integer", row=lineno) from None
                    else:
                        srate = _parse_cell(value, lineno, 1)
    if channels is None or srate is None:
        raise ParseError("missing '# channels:' or '# srate:' header")
    if srate <= 0:
        raise ParseError("srate must be > 0")
    matrix, _ = _read_csv_body(lines)
    if matrix.shape[0] != channels:
        raise ParseError(
            f"header says {channels} channels but body has {matrix.shape[0]} rows"
        )
    return SignalRecord(data=matrix, srate=srate)


def save_calibration_state(path, state: CalibrationState) -> None:
    payload = {
        "format": STATE_FORMAT_NAME,
        "version": STATE_FORMAT_VERSION,
        "srate": state.srate,
        "mixing": state.mixing.tolist(),
        "threshold": state.threshold.tolist(),
        "filter_b": list(state.filter_b),
        "filter_a": list(state.filter_a),
        "params": asdict(state.params),
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def load_calibration_state(path) -> CalibrationState:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not a valid calibration-state file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT_NAME:
        raise ParseError("not a calibration-state file")
    version = payload.get("version")
    if version != STATE_FORMAT_VERSION:
        raise UnsupportedVersion(
            f"calibration-state version {version!r} is not supported "
            f"(expected {STATE_FORMAT_VERSION})"
        )
    try:
        params = CalibrationParams(**payload["params"])
        state = CalibrationState(
            mixing=np.array(payload["mixing"], dtype=float),
            threshold=np.array(payload["threshold"], dtype=float),
            filter_b=tuple(float(v) for v in payload["filter_b"]),
            filter_a=tuple(float(v) for v in payload["filter_a"]),
            srate=float(payload["srate"]),
            params=params,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"calibration-state file is incomplete or corrupt: {exc}") from None
    return state


# configuration keys, mirroring the runtime's variable names
_REQUIRED_KEYS = {
    "SamplingRate": ("sampling_rate", float),
    "WindowLength": ("window_len", float),
    "VarName": ("var_name", str),
    "CalibrationFileName": ("calibration_file_name", str),
}
_OPTIONAL_KEYS = {
    "Cutoff": ("cutoff", float),
    "Blocksize": ("blocksize", int),
    "WindowOverlap": ("window_overlap", float),
    "MaxDimsFraction": ("max_dims_fraction", float),
    "Stepsize": ("stepsize", int),
    "Lookahead": ("lookahead", int),
    "ChunkCapacity": ("chunk_capacity", int),
    "FifoCapacity": ("fifo_capacity", int),
    "OutputVarName": ("output_var_name", str),
}


def parse_config(text: str) -> PipelineConfig:
    """Parse 'Key = value' lines into a PipelineConfig.

    Unknown keys are rejected; optional algorithm parameters fall back to
    their defaults; every constraint of PipelineConfig and its
    CalibrationParams is validated, and a violation names the key.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected 'Key = value'", row=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        spec = _REQUIRED_KEYS.get(key) or _OPTIONAL_KEYS.get(key)
        if spec is None:
            raise InvalidValue(key, "unknown key")
        field, caster = spec
        if field in values:
            raise InvalidValue(key, "key given more than once")
        try:
            values[field] = caster(value)
        except ValueError:
            raise InvalidValue(key, f"cannot parse {value!r} as {caster.__name__}") from None
    for key, (field, _) in _REQUIRED_KEYS.items():
        if field not in values:
            raise MissingKey(key)
    params = {f.name: values.pop(f.name) for f in fields(CalibrationParams) if f.name in values}
    try:
        values["params"] = CalibrationParams(**params)
    except InvalidValue as exc:
        key = next(k for k, (f, _) in (_REQUIRED_KEYS | _OPTIONAL_KEYS).items() if f == exc.name)
        raise InvalidValue(key, exc.reason) from None
    return PipelineConfig(**values)  # InvalidValue propagates from validation
