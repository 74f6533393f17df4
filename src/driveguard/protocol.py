"""Serial packet framing, ADC conversion, and session file formats.

The headset ships samples over a byte stream framed as

    0xAA 0xAA <len> <payload ...> <checksum>

with len <= 169 and checksum = 0xFF - (sum(payload) mod 256). A raw EEG
sample is the payload row [0x80, 0x02, hi, lo] holding a big-endian
signed 16-bit value. The parser below survives arbitrary garbage, split
writes, and corrupted frames while never emitting a packet whose
checksum did not verify, and it recovers every valid frame embedded in
the noise by rescanning from the byte after a failed sync.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    ADC_MAX,
    ADC_MIN,
    Device,
    FeatureVector,
    SubjectSession,
    TaskLabel,
    check_adc_range,
    shared_schema,
)

SYNC = 0xAA
MAX_PAYLOAD = 169
RAW_CODE = 0x80
RAW_LEN = 2

# transfer function of the analog front end: full scale 1.8 V over a
# 4096-count ADC, behind a gain-2000 amplifier
INPUT_RANGE_VOLTS = 1.8
ADC_COUNTS = 4096
AMP_GAIN = 2000.0
VOLTS_PER_COUNT = INPUT_RANGE_VOLTS / ADC_COUNTS / AMP_GAIN
UV_PER_COUNT = VOLTS_PER_COUNT * 1e6

# fs-vs-timestamp agreement required of session files, in seconds
TIMESTAMP_TOLERANCE_S = 1e-6


class PacketError(ValidationError):
    """Raised when constructing a packet from out-of-range inputs."""


class SessionFormatError(ValidationError):
    """A session CSV or manifest violates the documented layout."""


def raw_to_voltage(raw: int) -> float:
    """Electrode voltage in volts for one signed ADC count."""
    check_adc_range(raw, raw, PacketError, "raw value")
    return raw * VOLTS_PER_COUNT


def raw_to_microvolts(raw) -> np.ndarray:
    """Vectorised ADC-to-microvolt conversion (no range check)."""
    return np.asarray(raw, dtype=np.float64) * UV_PER_COUNT


def checksum(payload: bytes) -> int:
    return 0xFF - (sum(payload) & 0xFF)


# the five fixed bytes of a canonical raw frame, SYNC SYNC len code vlen;
# the value's hi and lo bytes and the checksum follow
RAW_HEADER = bytes((SYNC, SYNC, RAW_LEN + 2, RAW_CODE, RAW_LEN))
RAW_FRAME_LEN = len(RAW_HEADER) + RAW_LEN + 1
_RAW_HEADER_WORD = int.from_bytes(RAW_HEADER, "big")
# a raw frame's checksum byte makes hi + lo + checksum equal this, mod 256
_RAW_CHECK_SUM = (0xFF - RAW_CODE - RAW_LEN) & 0xFF


def encode_packet(raw: int) -> bytes:
    """Frame one raw sample for the wire."""
    check_adc_range(raw, raw, PacketError, "raw value")
    hi, lo = (raw >> 8) & 0xFF, raw & 0xFF
    return RAW_HEADER + bytes((hi, lo, (_RAW_CHECK_SUM - hi - lo) & 0xFF))


@dataclass(slots=True)
class RawPacket:
    """A checksum-verified payload, with the decoded sample when present."""

    payload: bytes
    raw_value: int | None


def _decode_raw_value(payload: bytes):
    # walk the code/value rows inside a verified payload
    i = 0
    n = len(payload)
    while i < n:
        code = payload[i]
        if code >= 0x80:
            if i + 1 >= n:
                return None
            vlen = payload[i + 1]
            if i + 2 + vlen > n:
                return None
            if code == RAW_CODE and vlen == RAW_LEN:
                value = (payload[i + 2] << 8) | payload[i + 3]
                if value >= 0x8000:
                    value -= 0x10000
                return value
            i += 2 + vlen
        else:
            # single-byte rows carry one value byte
            i += 2
    return None


def _scan(buf: bytes, pos: int, out: list, one: bool = False):
    """The frame scanner: read ``buf`` from offset ``pos``.

    Appends each verified frame to ``out`` as a RawPacket and returns
    ``(pos, corrupt, more)``: the offset to resume from, the corrupt
    frames counted, and False once it needs bytes past the end of ``buf``.
    A failed candidate is rescanned from its second byte, so a valid frame
    overlapping garbage is never lost. With ``one`` it returns after one
    step: one frame emitted, or one candidate rejected or slid past.
    ``buf`` is never sliced except for an emitted payload, so the cost is
    linear in ``len(buf) - pos``. A canonical raw frame at ``pos`` is taken
    in one step, by the rule ``packets_to_samples`` applies to its rows;
    the general step below would accept the same frame.
    """
    n = len(buf)
    corrupt = 0
    while True:
        if buf.startswith(RAW_HEADER, pos) and pos + RAW_FRAME_LEN <= n:
            hi, lo, check = buf[pos + 5], buf[pos + 6], buf[pos + 7]
            if (hi + lo + check) & 0xFF == _RAW_CHECK_SUM:
                value = (hi << 8) | lo
                out.append(RawPacket(buf[pos + 3:pos + 7],
                                     value - 0x10000 if value >= 0x8000 else value))
                pos += RAW_FRAME_LEN
                if one:
                    return pos, corrupt, True
                continue
        start = buf.find(b"\xaa\xaa", pos)
        if start < 0:
            # a lone trailing 0xAA may be half a sync pair
            return (n - 1 if buf.endswith(b"\xaa", pos) else n), corrupt, False
        pos = start
        if n - pos < 3:
            return pos, corrupt, False
        length = buf[pos + 2]
        if length == SYNC:
            # runs of sync bytes: slide one and keep looking
            pos += 1
        elif length > MAX_PAYLOAD:
            corrupt += 1
            pos += 1
        else:
            end = pos + length + 4
            if end > n:
                return pos, corrupt, False
            payload = buf[pos + 3:end - 1]
            if buf[end - 1] == checksum(payload):
                out.append(RawPacket(payload=payload,
                                     raw_value=_decode_raw_value(payload)))
                pos = end
            else:
                corrupt += 1
                pos += 1
        if one:
            return pos, corrupt, True


class PacketParser:
    """Incremental frame scanner over an unreliable byte stream.

    Feed it arbitrary chunks; it returns the packets completed by each
    chunk and counts corrupt frames (bad length or failed checksum).
    Memory stays bounded by one maximal frame regardless of input, and a
    failed candidate frame is rescanned from its second byte so a valid
    frame overlapping the garbage is never lost. Each feed scans its bytes
    once, so its cost is linear in the pending bytes plus the chunk.
    """

    def __init__(self):
        self._pending = b""
        self.corrupt_frames = 0
        self.packets_emitted = 0

    def feed(self, data: bytes):
        out = []
        buf = self._pending + bytes(data)
        pos, corrupt, _ = _scan(buf, 0, out)
        self._pending = buf[pos:]
        self.corrupt_frames += corrupt
        self.packets_emitted += len(out)
        return out


def session_to_packets(session: SubjectSession) -> bytes:
    """Serialise a single-channel session as a wire-format byte stream."""
    if len(session.channels) != 1:
        raise PacketError(
            f"packet streams carry one channel, session has {len(session.channels)}"
        )
    raw = session.raw[0]
    check_adc_range(raw.min(), raw.max(), PacketError, "raw value")
    frames = np.empty((raw.size, RAW_FRAME_LEN), dtype=np.uint8)
    frames[:, :5] = tuple(RAW_HEADER)
    frames[:, 5:7] = raw.astype(">i2").view(np.uint8).reshape(-1, 2)
    # uint8 arithmetic wraps mod 256
    frames[:, 7] = _RAW_CHECK_SUM - frames[:, 5] - frames[:, 6]
    return frames.tobytes()


# rows checked per numpy block: reset after an irregular row, doubled after
# a block of canonical frames, so checking costs at most a few times the
# bytes taken plus one small block per irregularity
BULK_MIN_ROWS = 64
BULK_MAX_ROWS = 4096


def packets_to_samples(data: bytes):
    """Decode a byte stream into (raw sample array, corrupt frame count).

    Equal to one PacketParser().feed(data), keeping the raw values of the
    packets that carry one. From the scanner's cursor, a block of the next
    bytes is viewed as 8-byte rows and the canonical raw frames at its
    start (RAW_HEADER, value, valid checksum) are taken as values at once:
    such a frame at the cursor is the frame the scanner would accept
    there. At the first other row the scanner takes one step, then the
    block check resumes. The cost is linear in ``len(data)``.
    """
    buf = bytes(data)
    n = len(buf)
    parts = [np.empty(0, dtype=np.int32)]
    pos = corrupt = 0
    rows_per_block = BULK_MIN_ROWS
    more = True
    while more:
        m = min(rows_per_block, (n - pos) // RAW_FRAME_LEN)
        if m and buf.startswith(RAW_HEADER, pos):
            # one big-endian word per frame: header, hi, lo, checksum
            words = np.frombuffer(buf, ">u8", m, pos)
            hi, lo, check = words.view(np.uint8).reshape(m, RAW_FRAME_LEN)[:, 5:].T
            ok = words >> 24 == _RAW_HEADER_WORD
            ok &= hi + lo + check == _RAW_CHECK_SUM
            k = int(ok.argmin())
            if ok[k]:
                k = m
            # bits 8-23 hold hi, lo: read them as a signed 16-bit value
            parts.append((words[:k] >> 8).astype(np.int16))
            pos += k * RAW_FRAME_LEN
            if k == m:
                rows_per_block = min(2 * rows_per_block, BULK_MAX_ROWS)
                continue
            rows_per_block = BULK_MIN_ROWS
        packets = []
        pos, step_corrupt, more = _scan(buf, pos, packets, one=True)
        corrupt += step_corrupt
        parts += [(p.raw_value,) for p in packets if p.raw_value is not None]
    return np.concatenate(parts, dtype=np.int32), corrupt


# ---------------------------------------------------------------------------
# session CSV + manifest


def _expected_header(n_channels):
    cols = ["t_s", "raw"]
    cols += [f"raw_ch{i}" for i in range(2, n_channels + 1)]
    return cols


def read_bytes(path, what: str, error):
    """The bytes of input file ``path``, read whole. ``error`` is raised,
    naming ``what``, when the file cannot be opened or read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _decode_text(data: bytes, path, what: str, error):
    """The UTF-8 text of the bytes ``data`` read from input file ``path``;
    ``error``, naming ``what``, when they are not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from exc


def read_text(path, what: str, error):
    """The text of input file ``path``, exactly as stored (no newline
    translation). ``error`` is raised, naming ``what``, when the file
    cannot be opened or is not UTF-8."""
    return _decode_text(read_bytes(path, what, error), path, what, error)


def read_json_record(path, what: str, build, error):
    """``build(record)`` for the one JSON object held by input file ``path``.

    An unreadable file, invalid JSON, a top level other than an object, or
    a KeyError, TypeError or ValueError from ``build`` raises ``error``;
    package errors raised by ``build`` pass through unchanged.
    """
    text = read_text(path, what, error)
    try:
        record = json.loads(text)
    # ValueError also covers an integer beyond Python's digit limit, and
    # RecursionError nesting too deep
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise error(f"{what} {path} must hold one JSON object, "
                    f"got {type(record).__name__}")
    try:
        return build(record)
    except KeyError as exc:
        raise error(f"{what} {path} missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise error(f"{what} {path}: {exc}") from exc


def _manifest_fields(manifest: dict) -> dict:
    task = TaskLabel.from_string(str(manifest["task"]))
    device = Device.from_string(str(manifest["device"]))
    fs, channels = manifest["fs_hz"], manifest["channels"]
    if not isinstance(fs, int) or fs != device.fs_hz:
        raise ValueError(f"fs_hz {fs!r} is not the integer rate of device "
                         f"{device.value} ({device.fs_hz} Hz)")
    if not isinstance(channels, list) or not channels:
        raise ValueError(f"channels must be a non-empty list, got {channels!r}")
    return {"subject_id": str(manifest["subject_id"]), "task": task,
            "device": device, "fs_hz": fs, "channels": tuple(str(c) for c in channels)}


def read_manifest(path) -> dict:
    """The validated SubjectSession fields a session manifest declares."""
    return read_json_record(path, "manifest", _manifest_fields, SessionFormatError)


# characters of CSV text converted at a time: a block ends at the last line
# break within this budget, so it holds whole lines, and only one block's
# cells are alive at once
READ_BLOCK_CHARS = 1 << 16

# the bytes of a plain sample line besides its line break: digits, point,
# comma and minus
_PLAIN_BYTES = b"0123456789.,-"
# Python's int refuses a cell of more digits than
# sys.get_int_max_str_digits(), at least 640, and loadtxt does not; a cell
# that long which fits an int64 holds this run of leading zeros
_LONG_ZERO_RUN = b"0" * 600


def read_session(csv_path, manifest_path) -> SubjectSession:
    """Load and validate a session from its CSV and JSON manifest.

    The file's bytes are read once. A plain file, the expected header and
    then non-blank lines made only of digits, points, commas and minus
    signs, is parsed by ``np.loadtxt`` (``_loadtxt_samples``). Any other
    file, and a plain one that ``loadtxt`` rejects, is decoded and read by
    the block reader (``_read_blocks``), which gives every error message:
    its lines are converted a block at a time, with one numpy conversion
    per column, which accepts and rejects exactly what Python's ``float``
    and ``int`` do. Both routes accept the same files and the same values.
    """
    manifest = read_manifest(manifest_path)
    fs, channels = manifest["fs_hz"], manifest["channels"]
    header = ",".join(_expected_header(len(channels)))
    data = read_bytes(csv_path, "session csv", SessionFormatError)
    samples = _loadtxt_samples(data, header, len(channels))
    if samples is None:
        text = _decode_text(data, csv_path, "session csv", SessionFormatError)
        del data
        t, raw = _read_blocks(csv_path, text, header, len(channels))
        del text  # freed before the checks below allocate
    else:
        del data  # freed before the checks below allocate
        t, raw = samples["t"], samples["raw"].T

    if not t[0] >= 0:
        raise SessionFormatError(f"{csv_path}: start timestamp {t[0]} is not >= 0")
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise SessionFormatError(
            f"{csv_path} line {bad[0] + 2}: timestamp {t[bad[0]]} is not finite")
    # the difference of two finite timestamps may overflow to inf, which is
    # off the grid like any other wrong spacing
    with np.errstate(over="ignore"):
        deviation = np.abs(np.diff(t) - 1.0 / fs)
    bad = np.flatnonzero(deviation > TIMESTAMP_TOLERANCE_S)
    if bad.size:
        raise SessionFormatError(
            f"{csv_path} line {bad[0] + 3}: timestamp spacing deviates from "
            f"1/{fs} s by {deviation[bad[0]]:.3e} s "
            f"(tolerance {TIMESTAMP_TOLERANCE_S:.0e})"
        )
    # the first value outside the ADC range in file order (lines, then
    # channels), found before the int64 -> int32 cast below, which would wrap
    bad = np.flatnonzero(((raw < ADC_MIN) | (raw > ADC_MAX)).T)
    if bad.size:
        i, c = divmod(int(bad[0]), len(channels))
        first = int(raw[c, i])
        check_adc_range(first, first, SessionFormatError,
                        f"{csv_path} line {i + 2}: raw sample")

    return SubjectSession(**manifest, raw=raw.astype(np.int32, order="C"))


def _loadtxt_samples(data: bytes, header: str, n_channels: int):
    """The samples of a plain session CSV, read by ``np.loadtxt``, as a
    record array with fields ``t`` and ``raw`` (one column per channel);
    None when ``data`` is not plain or ``loadtxt`` rejects or skips a line.

    On plain lines ``loadtxt`` takes exactly the cells that Python's
    ``float`` and ``int`` take, with the same values. Elsewhere the two
    part: ``loadtxt`` skips blank lines, rejects ``1_0``, Arabic-Indic
    digits and integers beyond int64, and takes ``1\\x1c``, which ``int``
    rejects. So only plain files take this route.
    """
    head = header.encode() + b"\n"
    start = len(head)
    if not data.startswith(head) or data[start:start + 1] in (b"", b"\n"):
        return None
    # translate deletes the plain bytes in C, without copying a slice of
    # data; a plain file leaves the header's letters, then line breaks only
    rest = data.translate(None, _PLAIN_BYTES)
    head_rest = head.translate(None, _PLAIN_BYTES)
    breaks = len(rest) - len(head_rest)
    if rest.count(b"\n", len(head_rest)) != breaks or _LONG_ZERO_RUN in data:
        return None
    # a final line break ends the last line
    n = breaks + (not data.endswith(b"\n"))
    dtype = np.dtype([("t", "f8"), ("raw", "i8", (n_channels,))])
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="") as lines:
            samples = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                 skiprows=1, ndmin=1)
    except ValueError:
        return None
    # fewer rows than lines: loadtxt skipped a blank line
    return samples if samples.size == n else None


def _read_blocks(csv_path, text: str, header: str, n_channels: int):
    """``(t, raw)`` of a session CSV's ``text`` with ``header`` expected,
    converted in blocks of whole lines; SessionFormatError names the first
    bad line."""
    if not text:
        raise SessionFormatError(f"{csv_path} is empty")
    # the samples start after the header's line break (past the end if none)
    pos = text.find("\n") + 1 or len(text) + 1
    if text[:pos - 1] != header:
        raise SessionFormatError(
            f"{csv_path} header {text[:pos - 1]!r} does not match expected "
            f"{header!r} for {n_channels} channel(s)"
        )
    # the sample lines run from pos to end; a final line break ends the last
    end = len(text) - text.endswith("\n")
    if pos > end:
        raise SessionFormatError(f"{csv_path} has a header but no samples")

    n = text.count("\n", pos, end) + 1
    t = np.empty(n)
    raw = np.empty((n_channels, n), dtype=np.int64)
    row = 0
    while row < n:
        stop = end
        if end - pos > READ_BLOCK_CHARS:
            stop = text.rfind("\n", pos, pos + READ_BLOCK_CHARS)
            if stop < 0:  # a line longer than the budget is a block of its own
                stop = text.find("\n", pos, end)
            if stop < 0:
                stop = end
        block = text[pos:stop]
        m = _convert_block(block, t, raw, row)
        if not m:
            m = _convert_lines(csv_path, block, t, raw, row)
        row += m
        pos = stop + 1
    return t, raw


def _convert_block(block, t, raw, row):
    """Store the lines of ``block`` as samples ``row`` onwards of ``t`` and
    ``raw``, and return their count; 0 if a line has the wrong number of
    fields or a cell does not convert."""
    ncol = len(raw) + 1
    # a line break or comma byte is never part of a multi-byte UTF-8 character
    data = np.frombuffer(block.encode(), np.uint8)
    breaks = np.flatnonzero(data == 10)
    commas = np.flatnonzero(data == 44)
    commas_per_line = np.diff(np.searchsorted(commas, breaks),
                              prepend=0, append=commas.size)
    if (commas_per_line != ncol - 1).any():
        return 0
    m = breaks.size + 1
    cells = block.replace("\n", ",").split(",")
    try:
        t[row:row + m] = cells[0::ncol]
        for c in range(ncol - 1):
            raw[c, row:row + m] = cells[c + 1::ncol]
    except (ValueError, OverflowError):  # OverflowError: beyond int64
        return 0
    return m


def _convert_lines(csv_path, block, t, raw, row):
    """``_convert_block`` one line at a time, raising SessionFormatError at
    the first bad line of ``block``, whose first line is sample ``row``."""
    ncol = len(raw) + 1
    lines = block.split("\n")
    for i, line in enumerate(lines, row):
        cells = line.split(",")
        if len(cells) != ncol:
            raise SessionFormatError(
                f"{csv_path} line {i + 2}: {len(cells)} fields, expected {ncol}")
        try:
            t[i] = float(cells[0])
            for c in range(ncol - 1):
                raw[c, i] = int(cells[c + 1])
        except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
            raise SessionFormatError(f"{csv_path} line {i + 2}: {exc}") from exc
    return len(lines)


WRITE_BLOCK_ROWS = 4096


def write_session(session: SubjectSession, csv_path, manifest_path):
    """Write a session in the exact format read_session accepts."""
    row = "%.9f" + ",%d" * len(session.channels) + "\n"
    # i/fs is exact in 9 decimals for the supported power-of-two rates
    times = np.arange(session.n_samples) / session.fs_hz
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_expected_header(len(session.channels))) + "\n")
        # a block of rows at a time, so no session's text is held whole
        for start in range(0, session.n_samples, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            fh.write("".join(map(row.__mod__, zip(
                times[block].tolist(), *session.raw[:, block].tolist()))))
    manifest = {
        "subject_id": session.subject_id,
        "task": session.task.value,
        "fs_hz": session.fs_hz,
        "device": session.device.value,
        "channels": list(session.channels),
    }
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# ARFF export

ARFF_CLASS_VALUES = ",".join(t.value for t in TaskLabel)


def write_arff(vectors, relation: str, schema=None) -> str:
    """Render labelled feature vectors as an ARFF document string.

    All vectors must share one schema. An empty vector list is allowed
    when the schema is passed explicitly, yielding a header-only file.
    Output is byte-stable: fixed declaration order, %.6g numbers, LF
    line endings.
    """
    vectors = list(vectors)
    if vectors:
        first = shared_schema(vectors)
        if schema is not None and tuple(schema) != first:
            raise ValidationError("explicit schema does not match vector schema")
        schema = first
    elif schema is None:
        raise ValidationError("empty vector list needs an explicit schema")

    lines = [f"@relation {relation}", ""]
    for name in schema:
        lines.append(f"@attribute {name} numeric")
    lines.append(f"@attribute class {{{ARFF_CLASS_VALUES}}}")
    lines.append("")
    lines.append("@data")
    for v in vectors:
        cells = [f"{x:.6g}" for x in v.values]
        cells.append(v.label.value)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_arff(path):
    """Parse an ARFF file produced by write_arff back into feature vectors.

    Understands only the subset this package emits: numeric attributes
    followed by one nominal class attribute.
    """
    schema = []
    vectors = []
    in_data = False
    text = read_text(path, "ARFF", SessionFormatError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if low.startswith("@relation"):
            continue
        if low.startswith("@attribute"):
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise SessionFormatError(f"{path} line {lineno}: bad @attribute")
            name, kind = parts[1], parts[2].strip()
            if kind == "numeric":
                schema.append(name)
            elif name == "class":
                continue
            else:
                raise SessionFormatError(
                    f"{path} line {lineno}: unsupported attribute type {kind!r}"
                )
            continue
        if low.startswith("@data"):
            in_data = True
            continue
        if not in_data:
            raise SessionFormatError(f"{path} line {lineno}: data before @data")
        cells = line.split(",")
        if len(cells) != len(schema) + 1:
            raise SessionFormatError(
                f"{path} line {lineno}: {len(cells)} fields, expected {len(schema) + 1}"
            )
        label = TaskLabel.from_string(cells[-1])
        try:
            values = tuple(float(c) for c in cells[:-1])
            if not np.isfinite(values).all():
                raise ValueError("feature values must be finite")
        except ValueError as exc:
            raise SessionFormatError(f"{path} line {lineno}: {exc}") from exc
        vectors.append(FeatureVector(values=values, schema=tuple(schema), label=label))
    if not schema:
        raise SessionFormatError(f"{path}: no numeric attributes found")
    return vectors
