"""File formats: calibration CSV, signal records, calibration-state files,
and key-value pipeline configuration.

The text tables (the calibration CSV, the signal record and the CLI's
stream) share one line grammar: :func:`read_preamble` reads the '#' lines
that open a table, :func:`parse_row` each data line after them.

All text is UTF-8 with '.' decimals (locale-independent); LF, CRLF and CR
line endings are accepted. A byte that is not UTF-8 is read as a surrogate
escape, so it fails to parse like any other bad character and the error
names its line. Tables are read and written one line at a time,
so no file is ever held as one string. Floats are written with repr
precision, so every save/load round trip is value-exact. Writers go through
a temp file and an atomic rename, so a failed write never leaves a partial
file behind.
"""

from __future__ import annotations

import json
import os
import re
import string
import tempfile
from dataclasses import asdict, dataclass, fields
from itertools import chain
from math import isfinite
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


def atomic_write_lines(path, lines) -> None:
    """Write each of ``lines``, followed by a newline, to path via a
    same-directory temp file and an atomic rename.

    Each item is written as soon as ``lines`` yields it, so a table is never
    held as one string; an item may itself span several lines. If anything
    fails, ``lines`` raising included, the temp file is removed and path is
    left as it was. The file gets the mode a plain ``open`` would give it
    (0666 less the umask), not the 0600 of the temp file.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
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


def parse_cell(cell: str, row: int, col: int = 1) -> float:
    """The finite float in ``cell``, or a ParseError naming its row and column."""
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"cannot parse {cell!r} as a number", row=row, col=col) from None
    if not isfinite(value):
        raise ParseError(f"non-finite value {cell!r}", row=row, col=col)
    return value


def parse_row(line: str, lineno: int, width: int | None = None) -> list[float]:
    """The comma-separated finite floats of data line ``lineno``; ``width`` of
    them when it is given.

    Of several faults the first in reading order is raised: a '#' line, then
    the first unparseable or non-finite cell (ParseError with its 1-based
    column), then a wrong cell count (RaggedCsv). A good line costs one
    ``float()`` per cell and one finiteness test of their sum; only a line
    that fails that screen is parsed again, cell by cell.
    """
    cells = line.split(",")
    try:
        values = list(map(float, cells))  # the grammar of parse_cell
    except ValueError:
        pass  # some cell fails parse_cell below
    else:
        if isfinite(sum(values)) and (width is None or len(values) == width):
            return values
    if line.lstrip().startswith("#"):
        raise ParseError("comment lines are only allowed before data", row=lineno)
    for col, cell in enumerate(cells, start=1):
        # strip only what float() ignores, so every cell float() refused raises
        parse_cell(cell.strip(string.whitespace), lineno, col)
    if width is not None and len(cells) != width:
        raise RaggedCsv(lineno, f"row {lineno} has {len(cells)} cells, expected {width}")
    return values  # every value is finite; only their sum overflowed


_KEY_LINE = re.compile(r"#+\s*([^\s:=]+)[\s:=]+(.*)")


def read_preamble(lines, keys: dict, start: int = 1):
    """Read the '#' lines that open a table.

    ``lines`` yields text lines, the first of them physical line ``start``.
    A '#' line whose first word is a key of ``keys`` followed by ':', '='
    or whitespace sets that key to ``keys[key](value, lineno)``; any other
    '#' line is a comment. Blank lines are skipped everywhere. Returns
    ``(found, rows)``: the values set, and an iterator over the non-blank
    lines from the first data line on, as (line number, text) pairs.
    """
    numbered = ((n, line) for n, line in enumerate(lines, start) if line.strip())
    found = {}
    for lineno, line in numbered:
        line = line.strip()
        if not line.startswith("#"):
            return found, chain([(lineno, line)], numbered)
        match = _KEY_LINE.fullmatch(line)
        if match and match[1] in keys:
            found[match[1]] = keys[match[1]](match[2], lineno)
    return found, numbered


def parse_rows(rows, width: int | None = None):
    """Parse ``rows``, (line number, text) pairs as :func:`read_preamble`
    returns them, yielding each row's values as it is read; every row must
    have ``width`` cells, or as many as the first."""
    for lineno, line in rows:
        values = parse_row(line, lineno, width)
        width = len(values)
        yield values
        del values  # not held while the next row is read


def _parse_coefficients(value: str, lineno: int) -> list[float]:
    if not value:
        raise ParseError("filter preamble carries no values", row=lineno)
    coefficients = parse_row(value, lineno)
    if len(coefficients) > MAX_FILTER_ORDER + 1:
        raise ParseError(
            f"filter preamble exceeds the supported filter order of {MAX_FILTER_ORDER}",
            row=lineno,
        )
    return coefficients


def load_calibration_data(path):
    """Calibration data, every row a channel and every column a sample, with
    the shaping-filter coefficients its '#' preamble may carry: (matrix,
    filter_b, filter_a)."""
    keys = {"filter_b": _parse_coefficients, "filter_a": _parse_coefficients}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        preamble, rows = read_preamble(fh, keys)
        parsed = [np.array(values) for values in parse_rows(rows)]
    if not parsed:
        raise EmptyFile("no data rows found")
    matrix = np.array(parsed)
    if matrix.shape[1] < 2:
        raise ParseError("calibration data needs at least 2 columns (samples)", row=1)
    return matrix, preamble.get("filter_b"), preamble.get("filter_a")


def format_row(row) -> str:
    """Comma-separated shortest-repr floats: value-exact on reload."""
    return ",".join(map(repr, np.asarray(row, dtype=float).tolist()))


def save_calibration_csv(path, matrix, filter_b=None, filter_a=None) -> None:
    preamble = []
    if filter_b is not None:
        preamble.append("# filter_b: " + format_row(filter_b))
    if filter_a is not None:
        preamble.append("# filter_a: " + format_row(filter_a))
    rows = map(format_row, np.asarray(matrix, dtype=float))
    atomic_write_lines(path, chain(preamble, rows))


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
    preamble = [
        f"# channels: {record.channels}",
        f"# srate: {repr(float(record.srate))}",
    ]
    rows = map(format_row, np.asarray(record.data, dtype=float))
    atomic_write_lines(path, chain(preamble, rows))


def _parse_channels(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError("channels header must be an integer", row=lineno) from None


def load_signal_record(path) -> SignalRecord:
    """The record at path, each data row parsed straight into one matrix
    sized from the '# channels:' header, but never past what the input holds:
    a file's size bounds its rows, and a pipe's matrix grows as rows arrive."""
    keys = {"channels": _parse_channels, "srate": parse_cell}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header, rows = read_preamble(fh, keys)
        if len(header) < len(keys):
            raise ParseError("missing '# channels:' or '# srate:' header")
        if header["srate"] <= 0:
            raise ParseError("srate must be > 0")
        channels, count = header["channels"], 0
        for values in parse_rows(rows):
            if count == 0:
                # a row of w cells takes at least 2w - 1 bytes, so a wrong
                # header allocates no more rows than the file has room for
                size = os.fstat(fh.fileno()).st_size  # 0 for a pipe
                fit = size // (2 * len(values) - 1) if size else 1
                matrix = np.empty((max(min(channels, fit), 0), len(values)))
            elif count == len(matrix) < channels:  # a pipe: double, up to the header's count
                matrix = np.resize(matrix, (min(2 * count, channels), len(values)))
            if count < len(matrix):
                matrix[count] = values
            count += 1
            del values  # not held while the next row is read
    if count == 0:
        raise EmptyFile("no data rows found")
    if count != channels:
        raise ParseError(f"header says {channels} channels but body has {count} rows")
    return SignalRecord(data=matrix, srate=header["srate"])


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
    atomic_write_lines(path, [json.dumps(payload, indent=1)])


def load_calibration_state(path) -> CalibrationState:
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
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
    "FifoCapacity": ("fifo_capacity", int),
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
        return PipelineConfig(**values, params=CalibrationParams(**params))
    except InvalidValue as exc:  # names a field; the file's reader knows it by its key
        key = next(k for k, (f, _) in (_REQUIRED_KEYS | _OPTIONAL_KEYS).items() if f == exc.name)
        raise InvalidValue(key, exc.reason) from None
