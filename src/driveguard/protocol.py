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

import json
import math
import sys
from dataclasses import dataclass
from itertools import takewhile
from operator import truth

import numpy as np

from .errors import DriveGuardError, ValidationError
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


@dataclass(frozen=True, slots=True)
class RawPacket:
    """A checksum-verified payload, with the decoded sample when present.

    Frozen, because the parser hands out one shared packet per canonical
    raw frame in the ADC range (see ``_RAW_PACKETS``).
    """

    payload: bytes
    raw_value: int | None


# each canonical raw frame whose value is in the ADC range, read as one
# native-order 8-byte word, to the one packet the scanner hands out for it.
# Filled by ``_frame_step`` as it takes such frames, so it never holds
# more than ADC_MAX - ADC_MIN + 1 entries. Shared by every parser in the
# process: an entry is the packet any parser would build for its frame, so
# what a parser returns never depends on what others have read.
_RAW_PACKETS = {}


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


def _frame_step(buf: bytes, pos: int, out: list):
    """One scanner step at the next sync pair in ``buf`` from ``pos``.

    Appends a verified frame to ``out`` as a RawPacket, the stored one
    (``_RAW_PACKETS``) for a canonical raw frame in the ADC range. A failed
    candidate is counted corrupt and rescanned from its second byte, so a
    valid frame overlapping garbage is never lost. Returns ``(pos, corrupt,
    more)``: the offset to resume from, the corrupt frames counted, and
    False when the step needs bytes past the end of ``buf``. Every skipped
    byte and corrupt frame of both packet routes is decided here.
    """
    n = len(buf)
    start = buf.find(b"\xaa\xaa", pos)
    if start < 0:
        # a lone trailing 0xAA may be half a sync pair
        return (n - 1 if buf.endswith(b"\xaa", pos) else n), 0, False
    pos = start
    if n - pos < 3:
        return pos, 0, False
    length = buf[pos + 2]
    if length == SYNC:
        # runs of sync bytes: slide one and keep looking
        return pos + 1, 0, True
    if length > MAX_PAYLOAD:
        return pos + 1, 1, True
    end = pos + length + 4
    if end > n:
        return pos, 0, False
    payload = buf[pos + 3:end - 1]
    if buf[end - 1] != checksum(payload):
        return pos + 1, 1, True
    packet = RawPacket(payload, _decode_raw_value(payload))
    if buf.startswith(RAW_HEADER, pos) and ADC_MIN <= packet.raw_value <= ADC_MAX:
        word = int.from_bytes(buf[pos:end], sys.byteorder)
        packet = _RAW_PACKETS.setdefault(word, packet)
    out.append(packet)
    return end, 0, True


# rows checked per numpy block: reset after an irregular row, doubled after
# a block of canonical frames, so checking costs at most a few times the
# bytes taken plus one small block per irregularity
BULK_MIN_ROWS = 64
BULK_MAX_ROWS = 4096


class PacketParser:
    """Incremental frame scanner over an unreliable byte stream.

    Feed it arbitrary chunks; it returns the packets completed by each
    chunk and counts corrupt frames (bad length or failed checksum).
    Memory stays bounded by one maximal frame regardless of input, and a
    failed candidate frame is rescanned from its second byte so a valid
    frame overlapping the garbage is never lost. Each feed scans its bytes
    once, so its cost is linear in the pending bytes plus the chunk.

    Two steps take frames: the run step takes the run of stored frames
    (``_RAW_PACKETS``) at the cursor in C and counts and skips nothing, and
    at any other byte ``_frame_step`` takes one step. So a canonical raw
    frame in the ADC range always comes back as the one frozen packet
    shared by every parser for that frame, however it was reached.
    """

    def __init__(self):
        self._pending = b""
        self.corrupt_frames = 0
        self.packets_emitted = 0

    def feed(self, data: bytes):
        out = []
        buf = self._pending + bytes(data)
        n = len(buf)
        pos = corrupt = 0
        more = True
        while more:
            if buf.startswith(RAW_HEADER, pos):
                taken = len(out)
                words = memoryview(buf)[pos:n - (n - pos) % RAW_FRAME_LEN].cast("Q")
                out += takewhile(truth, map(_RAW_PACKETS.get, words))
                pos += (len(out) - taken) * RAW_FRAME_LEN
                if n - pos < RAW_FRAME_LEN and RAW_HEADER.startswith(buf[pos:pos + 5]):
                    # the usual end of a read: at most the start of a
                    # canonical frame is left, which _frame_step would
                    # leave pending
                    break
            pos, step_corrupt, more = _frame_step(buf, pos, out)
            corrupt += step_corrupt
        self._pending = buf[pos:]
        self.corrupt_frames += corrupt
        self.packets_emitted += len(out)
        return out

    def feed_samples(self, data: bytes) -> np.ndarray:
        """The raw values of the packets ``feed(data)`` would return, as an
        ``int32`` array, with the same pending bytes and counters. The leading
        canonical raw frames at the cursor are taken a numpy block of 8-byte
        rows at a time, and any other row is one ``_frame_step``."""
        buf = self._pending + bytes(data)
        parts = [np.empty(0, dtype=np.int32)]
        pos = 0
        rows_per_block = BULK_MIN_ROWS
        more = True
        while more:
            m = min(rows_per_block, (len(buf) - pos) // RAW_FRAME_LEN)
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
                self.packets_emitted += k
                if k == m:
                    rows_per_block = min(2 * rows_per_block, BULK_MAX_ROWS)
                    continue
                rows_per_block = BULK_MIN_ROWS
            packets = []
            pos, step_corrupt, more = _frame_step(buf, pos, packets)
            self.corrupt_frames += step_corrupt
            self.packets_emitted += len(packets)
            parts += [(p.raw_value,) for p in packets if p.raw_value is not None]
        self._pending = buf[pos:]
        return np.concatenate(parts, dtype=np.int32)


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


def packets_to_samples(data: bytes):
    """(raw sample array, corrupt frame count) of a whole byte stream, by one
    ``PacketParser().feed_samples``; its pending bytes stay undecoded."""
    parser = PacketParser()
    return parser.feed_samples(data), parser.corrupt_frames


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
    a KeyError, TypeError or ValueError from ``build`` raises ``error``; a
    package error raised by ``build`` is raised again as its own class.
    Each message names the file, and the kind ``what`` once: a message
    from ``build`` that starts with it loses that start.
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
    except (TypeError, ValueError, DriveGuardError) as exc:
        cls = type(exc) if isinstance(exc, DriveGuardError) else error
        raise cls(f"{what} {path}: {str(exc).removeprefix(what + ' ')}") from exc


def json_number(record: dict, key: str, what: str, default=None) -> float:
    """``record[key]``, or ``default`` when absent, which must be a JSON
    number (int or float; ``true`` is not one), as a float. The
    ValidationError otherwise names the key after ``what``."""
    value = record.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} {key} is beyond the float range") from None


def _manifest_fields(manifest: dict) -> dict:
    task = TaskLabel.from_string(str(manifest["task"]))
    device = Device.from_string(str(manifest["device"]))
    fs, channels = manifest["fs_hz"], manifest["channels"]
    subject = manifest["subject_id"]
    if not isinstance(fs, int) or fs != device.fs_hz:
        raise ValueError(f"fs_hz {fs!r} is not the integer rate of device "
                         f"{device.value} ({device.fs_hz} Hz)")
    if not isinstance(subject, str):
        raise ValueError(f"subject_id must be a string, got {subject!r}")
    if (not isinstance(channels, list) or not channels
            or not all(isinstance(c, str) for c in channels)):
        raise ValueError(f"channels must be a non-empty list of names, got {channels!r}")
    return {"subject_id": subject, "task": task,
            "device": device, "fs_hz": fs, "channels": tuple(channels)}


def read_manifest(path) -> dict:
    """The validated SubjectSession fields a session manifest declares."""
    return read_json_record(path, "manifest", _manifest_fields, SessionFormatError)


# bytes of CSV converted at a time: a block ends at the last line break
# within this budget, so it holds whole lines, and only one block's cells
# are alive at once. At 128 KiB a 120 s recording as write_session writes
# it reads with a peak (tracemalloc) of about 1.5 times the file's size on
# the grid route and 2.3 times on the fixed-point route; larger blocks
# weigh more against shorter files (ROADMAP, measured dead ends)
READ_BLOCK_CHARS = 1 << 17

# a fixed-point field is read as little-endian 8-byte words ending at its
# last byte, so its first character is a word's least significant byte
_ASCII_ZEROS = 0x3030303030303030
# added to a byte of a word XORed with _ASCII_ZEROS, sets its high bit
# unless the byte was a digit
_DIGIT_GUARD = 0x7676767676767676
_HIGH_BITS = 0x8080808080808080
# masks keeping the last k of 16 bytes held as two words, indexed by k:
# bytes 0-7 in _LAST_HI, bytes 8-15 in _LAST_LO
_LAST_HI, _LAST_LO = np.array(
    [[((1 << 8 * j) - 1) << (64 - 8 * j) for j in (max(k - 8, 0), min(k, 8))]
     for k in range(17)], dtype=np.uint64).T.copy()
# the fixed-point route's limits: digits of a timestamp, so that its
# integer value is exact in a float, and digits of a raw cell, which fold
# from one word
_MAX_TIME_DIGITS = 15
_MAX_RAW_DIGITS = 8
_POWERS_OF_TEN = 10.0 ** np.arange(_MAX_TIME_DIGITS)
# the grid route takes files that end before this second, so that a
# timestamp, at most six digits, a point and nine, fills at most two words
_GRID_END_S = 10**6
# the shortest grid line: a timestamp of 11 bytes, a comma, a digit and a
# line break
_GRID_MIN_LINE = 14


def read_session(csv_path, manifest_path) -> SubjectSession:
    """Load and validate a session from its CSV and JSON manifest.

    The file's bytes are read once and checked up front: UTF-8 text, not
    empty, the expected header ending in an LF line break, then at least
    one sample line. The sample lines are cut into blocks of whole lines
    within READ_BLOCK_CHARS bytes (a longer line is a block of its own),
    and one loop converts the blocks in file order. In a one-channel file
    whose first timestamp is ``write_session``'s for a whole sample
    (``_grid_start``), a block whose every line is the next sample's is
    read by ``_grid_block``. Any other block of plain lines is read by
    ``_fixed_point_block``; any other block, such as a last line without
    a line break, is read line by line by ``_convert_lines``, which gives
    every error message. All three give the values of Python's ``float``
    and ``int``.

    Timestamps are stored from the first block that leaves the grid
    route, with the rows before it filled in as their grid times, and
    only a read that stores them checks them (``_check_timestamps``):
    grid times pass those checks by construction. A file read on the grid
    route throughout makes no timestamp array, and its read peaks
    (tracemalloc) at about 1.5 times the file's size for a 120 s
    recording.
    """
    manifest = read_manifest(manifest_path)
    fs, channels = manifest["fs_hz"], manifest["channels"]
    header = ",".join(_expected_header(len(channels)))
    data = read_bytes(csv_path, "session csv", SessionFormatError)
    if not data.isascii():
        _decode_text(data, csv_path, "session csv", SessionFormatError)
    if not data:
        raise SessionFormatError(f"{csv_path} is empty")
    # the samples start after the header's line break (past the end if none)
    pos = data.find(b"\n") + 1 or len(data) + 1
    head = data[:pos - 1].decode()
    if head == header + "\r":
        raise SessionFormatError(
            f"{csv_path} has CRLF line endings; session CSVs take LF line endings only")
    if head != header:
        raise SessionFormatError(
            f"{csv_path} header {head!r} does not match expected "
            f"{header!r} for {len(channels)} channel(s)"
        )
    if pos >= len(data):
        raise SessionFormatError(f"{csv_path} has a header but no samples")

    # the blocks, each ending at the last line break within the budget (a
    # longer line, and a last line without a line break, is a block of its
    # own), and their line count: numpy counts a block's line breaks faster
    # than bytes.count does
    blocks, n = [], not data.endswith(b"\n")
    while pos < len(data):
        stop = (data.rfind(b"\n", pos, pos + READ_BLOCK_CHARS) + 1
                or data.find(b"\n", pos) + 1 or len(data))
        blocks.append((pos, stop))
        n += np.count_nonzero(np.frombuffer(data, np.uint8, stop - pos, pos) == 10)
        pos = stop
    # words[i] is bytes i to i + 7 of data, read in place
    words = np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))
    t = None  # made when a block leaves the grid route
    raw = np.empty((len(channels), n), dtype=np.int32)
    grid = len(channels) == 1 and _grid_start(data, blocks[0][0], n, fs)
    row = 0
    for pos, stop in blocks:
        plain = data.endswith(b"\n", pos, stop)
        m = plain and grid and _grid_block(data, words, pos, stop, t, raw, row, grid)
        if not m:
            if t is None:
                t = np.empty(n)
                if row:  # every row so far was read on the grid
                    t[:row] = np.arange(grid[0], grid[0] + row) / fs
            m = plain and _fixed_point_block(data, words, pos, stop, t, raw, row)
        if not m:
            # a cell read line by line may lie beyond int32, and the range
            # check below must report its value
            raw = raw.astype(np.int64, copy=False)
            block = data[pos:stop].decode().removesuffix("\n")
            m = _convert_lines(csv_path, block, t, raw, row)
        row += m
    del data, words  # freed before the checks below allocate

    if t is not None:
        _check_timestamps(csv_path, t, fs)
    # the first value outside the ADC range in file order (lines, then
    # channels), looked for only when there is one, before the cast to
    # int32 below, which would wrap int64 values read line by line
    if raw.min() < ADC_MIN or raw.max() > ADC_MAX:
        bad = np.flatnonzero(((raw < ADC_MIN) | (raw > ADC_MAX)).T)
        i, c = divmod(int(bad[0]), len(channels))
        first = int(raw[c, i])
        check_adc_range(first, first, SessionFormatError,
                        f"{csv_path} line {i + 2}: raw sample")

    return SubjectSession(**manifest, raw=np.ascontiguousarray(raw, dtype=np.int32))


def _check_timestamps(csv_path, t, fs):
    """Raise SessionFormatError for the first bad timestamp ``t`` of the
    sample lines of ``csv_path``: a start below 0, a value that is not
    finite, or a spacing more than TIMESTAMP_TOLERANCE_S off ``1 / fs``.

    Grid times ``g / fs`` for whole samples ``0 <= g < _GRID_END_S * fs``
    pass at every ``Device`` rate, which is why a read that stays on the
    grid route has no timestamps to check.
    """
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


def _grid_start(data, pos, n, fs):
    """The grid of the ``n`` sample lines of a one-channel file that start
    at byte ``pos`` of ``data``, for ``_grid_block``; None unless the first
    timestamp is ``"%.9f" % (g0 / fs)`` for a whole sample ``g0 >= 0`` and
    the last line's sample falls before second _GRID_END_S.

    The grid is ``g0``, ``fs``, and per second of the file from the first:
    the text of the second, right-aligned to end two bytes before the end
    of a little-endian word (where the fraction's point and first digit
    go), with the other bytes 0; the mask of the timestamp's bytes in that
    word; and the bytes from a line break to the next line's raw cell, the
    timestamp's length and two. The fractions come from
    ``_GRID_FRACTIONS``, made once per process.
    """
    first = data[pos:pos + 17].partition(b",")[0]
    try:
        g0 = round(float(first) * fs)
    except (ValueError, OverflowError):  # nan, inf
        return None
    if not 0 <= g0 <= _GRID_END_S * fs - n or first != b"%.9f" % (g0 / fs):
        return None
    texts = _cells(map(str, range(g0 // fs, (g0 + n - 1) // fs + 1)))
    seconds = np.zeros((len(texts), 8), np.uint8)
    seconds[:, 6 - texts.shape[1]:6] = texts
    lengths = np.count_nonzero(texts, axis=1) + 10
    return g0, fs, seconds.view("<u8").ravel(), _LAST_HI[lengths], lengths + 2


def _grid_block(data, words, pos, stop, t, raw, row, grid):
    """Store the lines of ``data[pos:stop]``, which ends in a line break, as
    samples ``row`` onwards of ``t`` (unless it is None) and the one
    channel of ``raw``, and return their count; 0 unless each line is the
    timestamp ``write_session`` writes for its sample on ``grid``
    (``_grid_start``), a comma and a raw cell of an optional minus and 1
    to 8 digits.

    Only the line breaks are searched for. Line i is grid sample
    ``g = g0 + row + i``, of second ``g // fs``; its comma must stand the
    timestamp's length (the second's digits and ten) after the line's
    start, and the two words that end at the comma, the first masked to
    that length, must equal the text of the second and of the fraction.
    The raw cell is checked and folded as ``_fixed_point_block`` does, so
    every byte of the block is checked.
    The timestamp stored is ``g / fs``: the text is that quotient exactly,
    so ``float`` of it is the same rounding of the same number.
    """
    g0, fs, seconds, masks, skips = grid
    block = np.frombuffer(data, np.uint8, stop - pos, pos)
    ends = np.flatnonzero(block == 10)
    m = ends.size
    # the lines' samples, counted from the start of the file's first
    # second, fall in seconds first to last of the file, from sample k0 of
    # the first; the tables of seconds are repeated once per line
    h0 = g0 % fs + row
    first, k0 = divmod(h0, fs)
    last = (h0 + m - 1) // fs
    fractions = _GRID_FRACTIONS[fs][k0:k0 + m]
    if len(fractions) < m:
        # a block outgrows the tables only if READ_BLOCK_CHARS was raised
        # after import
        return 0
    counts = np.full(last + 1 - first, fs)
    counts[0] -= k0
    counts[-1] -= (last + 1) * fs - h0 - m
    # each raw cell's first byte, past the line break before its line, the
    # timestamp and the comma, then its minus and its digits; a line too
    # short for its timestamp has fewer than one digit, and the last one
    # may start its cell past the block, where the minus is not looked for
    starts = np.repeat(skips[first:last + 1], counts)
    starts[1:] += ends[:-1]
    starts[0] -= 1
    digits = ends - starts
    neg = block.take(starts, mode="clip") == 45
    digits -= neg
    if digits.min() < 1 or digits.max() > _MAX_RAW_DIGITS or (
            np.frombuffer(data, np.uint8, stop - pos, pos - 1)[starts] != 44).any():
        return 0
    cells = words[pos - 8:][ends]
    del ends
    cells ^= _ASCII_ZEROS
    cells &= _LAST_LO[digits]
    del digits
    if not _fold_digits(cells):
        return 0
    # the two words before each comma, which ends 17 bytes before its
    # cell's first, XORed with the fraction's and the second's text, are 0
    # in the timestamp's bytes. They are gathered as one 16-byte item of a
    # view of the bytes in place, in about the time words takes for one.
    starts += pos - 17
    pair = np.ndarray((len(data) - 15,), "V16", data, 0, (1,))[starts]
    pair = pair.view("<u8").reshape(m, 2)
    del starts
    pair ^= fractions
    hi = pair[:, 0]
    hi ^= np.repeat(seconds[first:last + 1], counts)
    hi &= np.repeat(masks[first:last + 1], counts)
    if pair.any():
        return 0
    del pair, hi
    _store_raw(cells, neg, raw[0, row:row + m])
    if t is not None:
        t[row:row + m] = np.arange(g0 + row, g0 + row + m) / fs
    return m


def _store_raw(cells, neg, out):
    """Store the folded raw ``cells``, negated where ``neg``, into ``out``
    of the same shape, whatever its integer dtype."""
    sign = neg.view(np.int8) * -2
    sign += 1
    np.multiply(cells.view(np.int64), sign, out=out, casting="unsafe")


def _fold_digits(cells):
    """Fold ``cells``, words XORed with _ASCII_ZEROS that hold up to 8
    digits as their last bytes and zeros before them, into their values
    in place, and return True; False, leaving them as they were, if a kept
    byte was not a digit. The digit check makes one scratch array of their
    size.

    Three folds join each pair of neighbouring lanes, of 1, 2 and then 4
    digits, into one lane of twice the width: a multiply adds the earlier
    lane, times ten to the later lane's digits, to the later one, and a
    shift and a mask keep those sums. No lane overflows: 8 digits make at
    most 99999999.
    """
    work = cells + _DIGIT_GUARD
    work |= cells
    work &= _HIGH_BITS
    if work.any():
        return False
    del work
    cells *= 10 << 8 | 1
    cells >>= 8
    cells &= 0x00FF00FF00FF00FF
    cells *= 100 << 16 | 1
    cells >>= 16
    cells &= 0x0000FFFF0000FFFF
    cells *= 10000 << 32 | 1
    cells >>= 32
    return True


def _fixed_point_block(data, words, pos, stop, t, raw, row):
    """Store the lines of ``data[pos:stop]``, which ends in a line break, as
    samples ``row`` onwards of ``t`` and ``raw``, and return their count;
    0 if a line is not plain.

    A plain line holds a timestamp of 2 to 15 digits with one point
    between them, then ``len(raw)`` raw cells of an optional minus and 1
    to 8 digits. Python's ``float`` and ``int`` take every such cell, and
    the values stored are theirs.
    """
    ncol = len(raw) + 1
    block = np.frombuffer(data, np.uint8, stop - pos, pos)
    # each line's point, commas and line break, in that order; any other
    # byte below "-" stands where one of them should, and fails the pattern
    marks = block < 45
    marks |= block == 46
    marks = np.flatnonzero(marks)
    m = marks.size // (ncol + 1)
    if marks.size != m * (ncol + 1):
        return 0
    marks = marks.reshape(m, ncol + 1)
    if (block[marks] != np.array([46] + [44] * (ncol - 1) + [10], np.uint8)).any():
        return 0
    points, ends = marks[:, 0], marks[:, 1:]
    # digits before and after each point, and in each raw cell after its
    # optional minus
    before = np.empty(m, dtype=np.intp)
    before[0] = -1
    before[1:] = ends[:-1, -1]
    np.subtract(points, before, out=before)
    before -= 1
    after = ends[:, 0] - points
    after -= 1
    time_digits = before + after
    neg = block[ends[:, :-1] + 1] == 45
    raw_digits = ends[:, 1:] - ends[:, :-1]
    raw_digits -= 1
    raw_digits -= neg
    if before.min() < 1 or after.min() < 1 or time_digits.max() > _MAX_TIME_DIGITS or \
            raw_digits.min() < 1 or raw_digits.max() > _MAX_RAW_DIGITS:
        return 0
    del before, points, ends

    # per line, the words of the timestamp's last 16 bytes, then of each
    # raw cell's last 8 bytes; the marks, read no more, become their
    # indexes in place. Only the file's first line can reach back past
    # byte 0; the bytes it would read there precede its timestamp, as the
    # header's 8 or more bytes do, and are masked off, so its index is
    # clamped to 0.
    index = marks
    index += pos - 8
    np.subtract(index[:, 1], 8, out=index[:, 0])
    np.maximum(index[0], 0, out=index[0])
    cells = words[index]
    del index, marks
    cells ^= _ASCII_ZEROS
    # the digits after the point stay where they are; those before it are
    # taken from the words one byte further back, which closes the point's
    # gap. Bytes before each field are masked to zeros.
    hi, lo = cells[:, 0], cells[:, 1]
    keep, moved = _LAST_LO[after], _LAST_LO[time_digits]
    moved ^= keep
    shifted = hi >> 56
    shifted |= lo << 8
    shifted &= moved
    lo &= keep
    lo |= shifted
    np.take(_LAST_HI, after, out=keep)
    np.take(_LAST_HI, time_digits, out=moved)
    del time_digits
    moved ^= keep
    np.left_shift(hi, 8, out=shifted)
    shifted &= moved
    hi &= keep
    hi |= shifted
    del keep, moved, shifted
    cells[:, 2:] &= _LAST_LO[raw_digits]
    del raw_digits
    if not _fold_digits(cells):
        return 0
    # at most 15 digits are exact in a float, and so is 10**after; the
    # quotient is rounded once, as float() rounds the cell
    hi *= 100000000
    hi += lo
    np.divide(hi, _POWERS_OF_TEN[after], out=t[row:row + m])
    _store_raw(cells[:, 2:], neg, raw[:, row:row + m].T)
    return m


def _convert_lines(csv_path, block, t, raw, row):
    """Store the lines of ``block`` as samples ``row`` onwards of ``t`` and
    ``raw`` with Python's ``float`` and ``int``, and return their count;
    SessionFormatError names the first bad line."""
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


def _cells(texts):
    """The ASCII ``texts`` right-aligned to the longest and padded with 0
    bytes, as the rows of a uint8 matrix."""
    texts = list(texts)
    width = max(map(len, texts))
    data = "".join(text.rjust(width, "\0") for text in texts).encode()
    return np.frombuffer(data, np.uint8).reshape(len(texts), width)


# "%.9f" % (i / fs) is i // fs, a point and (i % fs) * (10**9 // fs) as
# nine digits when fs divides 10**9, as every device's rate does
assert all(10**9 % device.fs_hz == 0 for device in Device)
_FRACTION_CELLS = {
    device.fs_hz: _cells(f".{k * (10**9 // device.fs_hz):09d}" for k in range(device.fs_hz))
    for device in Device
}


def _grid_fractions(fs):
    """For ``_grid_block``, per sample of a second at rate ``fs``, the two
    words before the comma of ``write_session``'s timestamp that hold the
    fraction: its point and first digit at the top of the first, with the
    other bytes 0, and its last eight digits as the second. The rows are
    repeated to cover a block that starts at any sample of a second: a
    block holds at most READ_BLOCK_CHARS // _GRID_MIN_LINE lines of
    _GRID_MIN_LINE bytes or more, or one longer line."""
    fractions = np.zeros((fs, 2, 8), np.uint8)
    fractions[:, 0, 6:] = _FRACTION_CELLS[fs][:, :2]
    fractions[:, 1] = _FRACTION_CELLS[fs][:, 2:]
    return np.tile(fractions.view("<u8")[:, :, 0],
                   (2 + READ_BLOCK_CHARS // _GRID_MIN_LINE // fs, 1))


# made once per process, at import, so that no read pays for them
_GRID_FRACTIONS = {fs: _grid_fractions(fs) for fs in _FRACTION_CELLS}
# ",%d" of every ADC count, row raw - ADC_MIN
_ADC_CELLS = _cells(f",{raw}" for raw in range(ADC_MIN, ADC_MAX + 1))
_LINE_BREAKS = np.full((WRITE_BLOCK_ROWS, 1), ord("\n"), np.uint8)


def write_session(session: SubjectSession, csv_path, manifest_path):
    """Write a session in the exact format read_session accepts.

    Each line is ``"%.9f" % (i / fs)`` for sample i, then ``",%d"`` of each
    channel's count. The CSV is written WRITE_BLOCK_ROWS lines at a time,
    so no session's text is held whole. A block is one uint8 matrix, a line
    per row, of table cells: the integer seconds (right-aligned to the
    session's widest), the fraction of a second, one count cell per channel
    and the line break. The fraction table is exact because every device's
    rate divides 10**9 (a sample is 1953125 ns at 512 Hz, 7812500 ns at
    128 Hz). The cells are padded with 0 bytes, which no line holds, and the
    block's bytes without them are its lines.
    """
    fs, n_channels = session.fs_hz, len(session.channels)
    seconds_cells = _cells(map(str, range((session.n_samples - 1) // fs + 1)))
    with open(csv_path, "wb") as fh:
        fh.write((",".join(_expected_header(n_channels)) + "\n").encode())
        for start in range(0, session.n_samples, WRITE_BLOCK_ROWS):
            counts = session.raw[:, start:start + WRITE_BLOCK_ROWS].T - ADC_MIN
            rows = len(counts)
            seconds, sample = np.divmod(np.arange(start, start + rows), fs)
            block = np.hstack((
                np.take(seconds_cells, seconds, axis=0),
                np.take(_FRACTION_CELLS[fs], sample, axis=0),
                np.take(_ADC_CELLS, counts, axis=0).reshape(rows, -1),
                _LINE_BREAKS[:rows],
            ))
            fh.write(block[block != 0])
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
    schema = ()
    vectors = []
    in_data = False
    labels = {t.value: t for t in TaskLabel}
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
                schema += (name,)
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
        # from_string runs only to raise its unknown-label error
        label = labels.get(cells[-1]) or TaskLabel.from_string(cells[-1])
        try:
            values = tuple(map(float, cells[:-1]))
        except ValueError as exc:
            raise SessionFormatError(f"{path} line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise SessionFormatError(
                f"{path} line {lineno}: feature values must be finite")
        vectors.append(FeatureVector(values=values, schema=schema, label=label))
    if not schema:
        raise SessionFormatError(f"{path}: no numeric attributes found")
    return vectors
