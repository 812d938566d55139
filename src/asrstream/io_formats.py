"""File formats: calibration CSV, signal records, calibration-state files,
and key-value pipeline configuration.

The text tables (the calibration CSV, the signal record and the CLI's
stream) share one line grammar: :func:`read_preamble` reads the '#' lines
that open a table, :func:`parse_row` each data line after them.

All text is UTF-8 with '.' decimals (locale-independent); LF, CRLF and CR
line endings are accepted. A byte that is not UTF-8 is read as a surrogate
escape, so it fails to parse like any other bad character and the error
names its line. Tables are read and written one line at a time, so no file
is ever held as one string. In the record and calibration formats a line is
a whole channel, so a line is itself parsed in slices of about
``SLICE_CHARS`` characters and written in pieces of ``PIECE_VALUES``
values: a row's transient Python objects are one slice's or one piece's,
not one float and one string per sample. Floats are written with repr
precision, so every save/load round trip is value-exact. Writers go through
a temp file and an atomic rename, so a failed write never leaves a partial
file behind.

Numbers go through orjson, which reads a float in about a sixth of the
time ``float()`` takes and writes its shortest round-trip digits in about a
twelfth of the time ``repr`` takes (50 ns against 280 ns and 600 ns on a
2-vCPU x86-64 VM). The ``float()`` and ``repr`` code stays as the reference
wherever orjson might differ from it, so values, bytes and errors are those
of that reference:

- A slice, or a group of stream lines of about ``SLICE_CHARS`` characters,
  is read by orjson when it holds no JSON value other than numbers, as many
  numbers as cells, and no zero read from an int (JSON reads ``-0`` as the
  int 0, which has no sign). Any other text is read by ``float()``, which
  raises the located errors.
- A piece, or a stream chunk, is written by orjson. orjson spells every
  float as repr does when it is 0 or has 1e-4 <= |x| < 1e16; outside that
  range the two differ (``0.00001`` for ``1e-05``), so the tokens of those
  values are found by their comma offsets and replaced by repr's text. A
  piece that is more than a quarter such values (data in volts) is written
  by ``repr``.
"""

from __future__ import annotations

import json
import os
import re
import string
import tempfile
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice
from math import inf, isfinite
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
SLICE_CHARS = 1 << 16  # text of a data line parsed at a time, cut at the next comma
PIECE_VALUES = 1 << 12  # values of a row formatted and written at a time


def atomic_write_text(path, pieces) -> None:
    """Write the text ``pieces`` yields to path via a same-directory temp file
    and an atomic rename.

    Each piece is written as soon as ``pieces`` yields it, so a table is never
    held as one string; a piece may be part of a line or span several. If
    anything fails, ``pieces`` raising included, the temp file is removed and
    path is left as it was. The file gets the mode a plain ``open`` would give
    it (0666 less the umask), not the 0600 of the temp file.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as exc:  # name the path asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for piece in pieces:
                fh.write(piece)
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


def parse_row(line: str, lineno: int, width: int | None = None, out=None) -> np.ndarray:
    """The comma-separated finite floats of data line ``lineno`` as an array;
    ``width`` of them when it is given. They are written into ``out``, a
    float array of ``width`` values, when it is given.

    Of several faults the first in reading order is raised: a '#' line, then
    the first unparseable or non-finite cell (ParseError with its 1-based
    column), then a wrong cell count (RaggedCsv). A good line is read a
    slice at a time, by :func:`_json_numbers` or else one ``float()`` per
    cell and one finiteness test of the slice's sum, and gives one value per
    cell; only a line that fails that screen is parsed again, whole and cell
    by cell.
    """
    cells = line.count(",") + 1
    row = np.empty(cells) if out is None else out
    if width is None or cells == width:
        start = filled = 0
        try:
            while True:
                # a slice is cut at a comma, so every cell lies whole in one slice
                cut = line.find(",", start + SLICE_CHARS)
                end = len(line) if cut < 0 else cut
                text = line[start:end]
                values = _json_numbers(text)
                if values is None:
                    # the grammar of parse_cell
                    values = list(map(float, text.split(",")))
                    if not isfinite(sum(values)):
                        break
                row[filled : filled + len(values)] = values
                filled += len(values)
                if cut < 0:
                    if filled == cells:  # a text of blanks reads as no number
                        return row
                    break
                start = cut + 1
        except ValueError:
            pass  # some cell fails parse_cell below
    row[:] = _parse_cells(line, lineno, width)
    return row


# a JSON value other than a number opens with one of these
_JSON_NON_NUMBERS = '[{"tfn'


def _json_numbers(text: str) -> np.ndarray | None:
    """The comma-separated numbers of ``text`` as orjson reads them, or None
    where they might not be ``float()``'s reading of each cell.

    JSON's numbers are a subset of ``float()``'s grammar, read to the same
    correctly rounded double, and orjson refuses those that overflow. So the
    guards here only exclude what else JSON reads: other values, and the int
    0 of ``-0``, which has no sign. The caller checks the count, since a
    text of blanks reads as no number.
    """
    import orjson  # deferred: with what it imports, ~7 ms that cleaning alone never needs

    if any(c in text for c in _JSON_NON_NUMBERS):
        return None
    try:
        values = orjson.loads("[" + text + "]")
    except orjson.JSONDecodeError:
        return None
    array = np.array(values, dtype=float)
    if not array.all() and any(type(values[i]) is int for i in np.flatnonzero(array == 0)):
        return None
    return array


def _parse_cells(line: str, lineno: int, width: int | None) -> list[float]:
    """:func:`parse_row` one cell at a time, for a line that failed its screen."""
    if line.lstrip().startswith("#"):
        raise ParseError("comment lines are only allowed before data", row=lineno)
    cells = line.split(",")
    # strip only what float() ignores, so every cell float() refused raises
    values = [
        parse_cell(cell.strip(string.whitespace), lineno, col)
        for col, cell in enumerate(cells, start=1)
    ]
    if width is not None and len(cells) != width:
        raise RaggedCsv(lineno, f"row {lineno} has {len(cells)} cells, expected {width}")
    return values  # every value is finite; only a slice's sum overflowed


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
    # a data line may hold a whole channel: test its blankness without copying it
    numbered = ((n, line) for n, line in enumerate(lines, start) if line and not line.isspace())
    found = {}
    for lineno, line in numbered:
        if not line.lstrip().startswith("#"):
            return found, chain([(lineno, line)], numbered)
        match = _KEY_LINE.fullmatch(line.strip())
        if match and match[1] in keys:
            found[match[1]] = keys[match[1]](match[2], lineno)
    return found, numbered


def parse_rows(rows, out) -> int:
    """Parse ``rows``, (line number, text) pairs as :func:`read_preamble`
    returns them, into the rows of ``out`` in turn, each row as wide as
    ``out``; returns how many were parsed, fewer than ``out`` holds only when
    ``rows`` ran out.

    Lines are read in groups of about ``SLICE_CHARS`` characters, a group
    by one :func:`_json_numbers` call when each of its lines has as many
    cells as ``out`` is wide, else line by line by :func:`parse_row`, which
    raises the first fault of the group at its line.
    """
    count = start = chars = 0
    group = []
    for lineno, line in islice(rows, len(out)):  # no line is read past out's last row
        group.append((lineno, line))
        count += 1
        chars += len(line)
        if chars >= SLICE_CHARS:
            _parse_group(group, out[start:count])
            group, start, chars = [], count, 0
    _parse_group(group, out[start:count])
    return count


def _parse_group(group, out) -> None:
    """:func:`parse_rows` of one group of lines into the rows of ``out``."""
    width = out.shape[1]
    # parse_row reads a line alone in slices, which bounds what a long one costs
    if len(group) > 1 and all(line.count(",") == width - 1 for _, line in group):
        values = _json_numbers(",".join(line for _, line in group))
        if values is not None and values.size == out.size:
            out[:] = values.reshape(out.shape)
            return
    for row, (lineno, line) in zip(out, group):
        parse_row(line, lineno, width, out=row)


def _parse_coefficients(value: str, lineno: int) -> list[float]:
    if not value:
        raise ParseError("filter preamble carries no values", row=lineno)
    coefficients = parse_row(value, lineno).tolist()
    if len(coefficients) > MAX_FILTER_ORDER + 1:
        raise ParseError(
            f"filter preamble exceeds the supported filter order of {MAX_FILTER_ORDER}",
            row=lineno,
        )
    return coefficients


def _read_matrix(fh, rows, limit=inf) -> tuple[np.ndarray, int]:
    """Parse ``rows`` of the open table ``fh``, (line number, text) pairs as
    :func:`read_preamble` returns them, straight into one matrix as wide as
    the first row: ``(matrix, rows read)``. Rows past ``limit`` are parsed
    and counted but not kept. EmptyFile if there is no row.

    The matrix starts with as many rows as the file's size over the first
    line's length (the lines of a table are about equally long), so no more
    than the file has room for. If rows remain it doubles, and at the end it
    is cut to the rows kept, both through ``ndarray.resize``: a ``realloc``,
    which moves a large array's pages instead of holding two copies.
    """
    count = 0
    for lineno, line in rows:
        if count == 0:
            width = line.count(",") + 1
            guess = round(os.fstat(fh.fileno()).st_size / len(line)) or 1  # a pipe's size reads 0
            matrix = np.empty((max(min(guess, limit), 0), width))
        elif count == len(matrix) < limit:
            matrix.resize((min(2 * count, limit), width), refcheck=False)  # no view of it is alive
        parse_row(line, lineno, width, out=matrix[count] if count < len(matrix) else None)
        count += 1
    if count == 0:
        raise EmptyFile("no data rows found")
    if count < len(matrix):
        matrix.resize((count, width), refcheck=False)
    return matrix, count


def load_calibration_data(path):
    """Calibration data, every row a channel and every column a sample, with
    the shaping-filter coefficients its '#' preamble may carry: (matrix,
    filter_b, filter_a)."""
    keys = {"filter_b": _parse_coefficients, "filter_a": _parse_coefficients}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        preamble, rows = read_preamble(fh, keys)
        matrix, _ = _read_matrix(fh, rows)
    if matrix.shape[1] < 2:
        raise ParseError("calibration data needs at least 2 columns (samples)", row=1)
    return matrix, preamble.get("filter_b"), preamble.get("filter_a")


def format_row(row) -> str:
    """Comma-separated shortest-repr floats: value-exact on reload."""
    return _float_text(np.ascontiguousarray(row, dtype=float))


def format_rows(matrix) -> str:
    """:func:`format_row` of each row of the 2-D ``matrix``, each ending in a
    newline."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if not matrix.size:
        return "\n" * len(matrix)
    return _float_text(matrix) + "\n"


def _float_text(values: np.ndarray) -> str:
    """The contiguous float array ``values`` as repr spells each value, the
    values of a row comma-separated and a matrix's rows newline-separated.

    orjson writes the text, and repr the values it would spell otherwise:
    all but 0 and 1e-4 <= |x| < 1e16, where both write the shortest
    round-trip digits in the same notation; outside it they switch to
    exponents at other bounds. Each such value's token, found by its
    separator offsets, is replaced by repr's. When more than a quarter of
    the values are such (data in volts), repr writes them all, as splicing
    would then save little or cost more.
    """
    import orjson  # deferred, as in _json_numbers

    mag = np.abs(values)
    plain = (mag == 0) | ((mag >= 1e-4) & (mag < 1e16))
    kept = np.count_nonzero(plain)
    if 4 * (values.size - kept) > values.size:
        rows = values.reshape(-1, values.shape[-1]).tolist()
        return "\n".join(",".join(map(repr, row)) for row in rows)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    text = text[1:-1] if values.ndim == 1 else text[2:-2].replace(b"],[", b"\n")
    if kept == values.size:
        return text.decode()
    buf = np.frombuffer(text, np.uint8)
    sep = buf == ord(",")
    sep |= buf == ord("\n")
    # value i's token lies between separators i - 1 and i, or the text's ends
    bounds = np.concatenate([[-1], np.flatnonzero(sep), [len(text)]])
    flat = values.ravel()
    parts, done = [], 0
    for i in np.flatnonzero(~plain).tolist():
        parts += text[done : bounds[i] + 1], repr(float(flat[i])).encode()
        done = bounds[i + 1]
    parts.append(text[done:])
    return b"".join(parts).decode()


def _table_text(preamble, matrix):
    """A table's text: its '#' lines, then a line for each row of ``matrix``,
    which is :func:`format_row` of that row yielded PIECE_VALUES values at a
    time, so that a long row is never one string."""
    for line in preamble:
        yield line + "\n"
    for row in np.asarray(matrix, dtype=float):
        for start in range(0, len(row), PIECE_VALUES):
            if start:
                yield ","
            yield format_row(row[start : start + PIECE_VALUES])
        yield "\n"


def save_calibration_csv(path, matrix, filter_b=None, filter_a=None) -> None:
    preamble = []
    if filter_b is not None:
        preamble.append("# filter_b: " + format_row(filter_b))
    if filter_a is not None:
        preamble.append("# filter_a: " + format_row(filter_a))
    atomic_write_text(path, _table_text(preamble, matrix))


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
    atomic_write_text(path, _table_text(preamble, record.data))


def _parse_channels(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError("channels header must be an integer", row=lineno) from None


def load_signal_record(path) -> SignalRecord:
    """The record at path, its data rows parsed straight into one matrix of
    at most the '# channels:' header's rows (see :func:`_read_matrix`)."""
    keys = {"channels": _parse_channels, "srate": parse_cell}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header, rows = read_preamble(fh, keys)
        if len(header) < len(keys):
            raise ParseError("missing '# channels:' or '# srate:' header")
        if header["srate"] <= 0:
            raise ParseError("srate must be > 0")
        channels = header["channels"]
        matrix, count = _read_matrix(fh, rows, channels)
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
    atomic_write_text(path, [json.dumps(payload, indent=1), "\n"])


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
