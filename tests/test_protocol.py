"""Wire framing, ADC conversion, session files, and ARFF export."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from driveguard import protocol
from driveguard.errors import ValidationError
from driveguard.model import (
    Device,
    EPOC_CHANNELS,
    FeatureVector,
    SubjectSession,
    TaskLabel,
    check_adc_range,
)
from driveguard.protocol import (
    BULK_MAX_ROWS,
    BULK_MIN_ROWS,
    MAX_PAYLOAD,
    PacketError,
    PacketParser,
    RawPacket,
    SessionFormatError,
    TIMESTAMP_TOLERANCE_S,
    UV_PER_COUNT,
    VOLTS_PER_COUNT,
    WRITE_BLOCK_ROWS,
    checksum,
    encode_packet,
    packets_to_samples,
    raw_to_microvolts,
    raw_to_voltage,
    read_manifest,
    read_session,
    read_text,
    session_to_packets,
    write_arff,
    read_arff,
    write_session,
)


class TestAdcConversion:
    def test_scale_constants(self):
        assert VOLTS_PER_COUNT == pytest.approx(1.8 / 4096 / 2000, abs=0)
        assert UV_PER_COUNT == pytest.approx(0.2197265625, abs=0)

    def test_voltage_values(self):
        assert raw_to_voltage(0) == 0.0
        assert raw_to_voltage(1) == pytest.approx(2.197265625e-7, rel=1e-12)
        assert raw_to_voltage(-2048) == pytest.approx(-2048 * VOLTS_PER_COUNT)

    def test_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            raw_to_voltage(2048)

    def test_vectorised_microvolts(self):
        out = raw_to_microvolts([0, 1, -1, 100])
        assert out.dtype == np.float64
        assert out[3] == pytest.approx(21.97265625)


class TestFraming:
    def test_checksum_definition(self):
        assert checksum(b"") == 0xFF
        assert checksum(bytes([1, 2, 3])) == 0xFF - 6
        assert checksum(bytes([0xFF, 0x01])) == 0xFF  # sum wraps mod 256

    def test_encode_layout(self):
        pkt = encode_packet(-1)
        assert pkt[:2] == b"\xaa\xaa"
        assert pkt[2] == 4
        assert pkt[3:7] == bytes([0x80, 0x02, 0xFF, 0xFF])
        assert pkt[7] == checksum(pkt[3:7])

    def test_encode_range_check(self):
        with pytest.raises(PacketError):
            encode_packet(2048)

    def test_single_round_trip(self):
        for value in (-2048, -1, 0, 1, 2047, 321):
            parser = PacketParser()
            packet = encode_packet(value)
            assert parser.feed(packet) == [RawPacket(packet[3:7], value)]
            assert parser.corrupt_frames == 0


class TestRawPacket:
    def test_record_contract(self):
        # a slotted record with value equality and the dataclass repr
        p = RawPacket(payload=b"\x80\x02\x00\x05", raw_value=5)
        assert p == RawPacket(payload=b"\x80\x02\x00\x05", raw_value=5)
        assert p != RawPacket(payload=b"\x80\x02\x00\x05", raw_value=None)
        assert repr(p) == "RawPacket(payload=b'\\x80\\x02\\x00\\x05', raw_value=5)"
        assert RawPacket.__slots__ == ("payload", "raw_value")
        assert not hasattr(p, "__dict__")


class TestParserRobustness:
    def test_split_points_do_not_matter(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-2048, 2048, size=200)
        stream = b"".join(encode_packet(int(v)) for v in values)
        whole = PacketParser().feed(stream)
        parser = PacketParser()
        split = []
        i = 0
        while i < len(stream):
            step = int(rng.integers(1, 7))
            split.extend(parser.feed(stream[i:i + step]))
            i += step
        assert [p.raw_value for p in split] == [p.raw_value for p in whole]
        assert parser.corrupt_frames == 0

    def test_leading_garbage_skipped(self):
        stream = b"\x01\x02\x99" + encode_packet(7)
        parser = PacketParser()
        packets = parser.feed(stream)
        assert [p.raw_value for p in packets] == [7]

    def test_sync_runs_between_frames(self):
        # long 0xAA runs look like sync+sync+len==0xAA; parser must slide
        stream = encode_packet(3) + b"\xaa" * 7 + encode_packet(-3)
        parser = PacketParser()
        packets = parser.feed(stream)
        assert [p.raw_value for p in packets] == [3, -3]

    def test_oversized_length_counts_corrupt(self):
        stream = bytes([0xAA, 0xAA, MAX_PAYLOAD + 1, 0, 0]) + encode_packet(9)
        parser = PacketParser()
        packets = parser.feed(stream)
        assert [p.raw_value for p in packets] == [9]
        assert parser.corrupt_frames == 1

    def test_corrupted_checksum_recovers_later_frames(self):
        good = encode_packet(11)
        bad = bytearray(encode_packet(22))
        bad[-1] ^= 0xFF
        stream = bytes(bad) + good + good
        parser = PacketParser()
        packets = parser.feed(stream)
        assert [p.raw_value for p in packets] == [11, 11]
        assert parser.corrupt_frames >= 1

    def test_valid_frame_inside_corrupt_candidate_recovered(self):
        # 0xAA 0xAA <len> ... where the framed bytes are garbage, but a
        # real packet begins inside the would-be payload
        inner = encode_packet(99)
        stream = bytes([0xAA, 0xAA, 30]) + inner + b"\x00" * 23
        parser = PacketParser()
        packets = parser.feed(stream)
        assert [p.raw_value for p in packets] == [99]
        assert parser.corrupt_frames == 1

    def test_pending_buffer_stays_bounded(self):
        parser = PacketParser()
        for _ in range(50):
            parser.feed(b"\x00" * 1000)
        assert len(parser._pending) <= 2 * (MAX_PAYLOAD + 4)

    def test_non_raw_payload_passes_checksum_without_value(self):
        payload = bytes([0x02, 0x55])  # single-byte row, no raw sample
        frame = bytes([0xAA, 0xAA, len(payload)]) + payload + bytes([checksum(payload)])
        parser = PacketParser()
        packets = parser.feed(frame)
        assert len(packets) == 1
        assert packets[0].raw_value is None
        assert parser.corrupt_frames == 0


def scalar_samples(wire):
    """The scalar route: one feed, the raw values of the packets that carry one."""
    parser = PacketParser()
    values = [p.raw_value for p in parser.feed(wire) if p.raw_value is not None]
    return values, parser.corrupt_frames


def assert_bulk_matches_scalar(wire):
    raw, corrupt = packets_to_samples(wire)
    assert raw.dtype == np.int32
    assert (raw.tolist(), corrupt) == scalar_samples(wire)


def frame(payload):
    return bytes([0xAA, 0xAA, len(payload)]) + payload + bytes([checksum(payload)])


def clean_stream(values):
    return b"".join(encode_packet(int(v)) for v in values)


def wire_of(values):
    """Clean wire bytes for raw ``values`` through the vectorised encoder."""
    session = SubjectSession(subject_id="w", task=TaskLabel.TEXT,
                             device=Device.SINGLE_ELECTRODE_512, fs_hz=512,
                             channels=("FP1",), raw=np.asarray(values)[None, :])
    return session_to_packets(session)


def noisy_stream(n_frames, seed):
    """Clean frames with one byte flipped in one frame of every 200."""
    rng = np.random.default_rng(seed)
    wire = wire_of(rng.integers(-2048, 2048, size=n_frames))
    rows = np.frombuffer(wire, dtype=np.uint8).reshape(n_frames, 8).copy()
    hit = np.arange(0, n_frames, 200)
    hit += rng.integers(0, 200, size=hit.size)
    hit = hit[hit < n_frames]
    rows[hit, rng.integers(3, 8, size=hit.size)] ^= rng.integers(
        1, 256, size=hit.size).astype(np.uint8)
    return rows.tobytes()


# payloads the block check must hand to the scanner, with the raw value
# each carries: no raw row, a raw row after or before other rows, a raw
# code with the wrong value length, and two maximal (169-byte) payloads,
# one ending in a raw row and one holding a whole canonical frame
ODD_PAYLOADS = (
    (bytes([0x02, 0x55]), None),
    (bytes([0x02, 0x55, 0x80, 0x02, 0x07, 0xD0]), 2000),
    (bytes([0x80, 0x02, 0xFF, 0x38, 0x04, 0x22]), -200),
    (bytes([0x80, 0x03, 0x01, 0x02, 0x03]), None),
    (bytes([0x81, 0x01, 0x00]) + bytes([0x04, 0x10]) * 81
     + bytes([0x80, 0x02, 0xF8, 0x00]), -2048),
    (bytes([0x04, 0x10]) * 80 + encode_packet(-5) + b"\x02", None),
)


def mixed_stream(rng, n_frames=60):
    """Canonical frames with odd payloads, garbage and 0xAA runs between."""
    parts = []
    for _ in range(n_frames):
        roll = rng.random()
        if roll < 0.15:
            parts.append(frame(ODD_PAYLOADS[int(rng.integers(len(ODD_PAYLOADS)))][0]))
        elif roll < 0.22:
            parts.append(b"\xaa" * int(rng.integers(1, 10)))
        elif roll < 0.28:
            parts.append(bytes(rng.integers(0, 256, size=int(rng.integers(1, 12)),
                                            dtype=np.uint8)))
        else:
            parts.append(encode_packet(int(rng.integers(-2048, 2048))))
    return b"".join(parts)


def acceptance_six_corpus():
    """100 000 raw frames with one byte flipped in 1000 of them: (values,
    indices of the corrupted frames, wire bytes)."""
    rng = np.random.default_rng(2026)
    n = 100_000
    values = rng.integers(-2048, 2048, size=n)
    frames = [bytearray(encode_packet(int(v))) for v in values]
    corrupted = set(rng.choice(n, size=1000, replace=False).tolist())
    for i in corrupted:
        frames[i][int(rng.integers(3, 8))] ^= int(rng.integers(1, 256))
    return values, corrupted, b"".join(bytes(f) for f in frames)


def mutated_streams(seed=15, count=300):
    """Prefixes of a mixed stream with random byte flips, insertions of
    garbage or 0xAA runs, and deletions."""
    rng = np.random.default_rng(seed)
    base = mixed_stream(rng, n_frames=40) + clean_stream(
        rng.integers(-2048, 2048, size=300))
    for _ in range(count):
        wire = bytearray(base[:int(rng.integers(0, len(base) + 1))])
        for _ in range(int(rng.integers(0, 20))):
            if not wire:
                break
            i = int(rng.integers(0, len(wire)))
            op = int(rng.integers(0, 4))
            if op == 0:
                wire[i] ^= int(rng.integers(1, 256))
            elif op == 1:
                wire[i:i] = bytes(rng.integers(0, 256, size=int(rng.integers(1, 10)),
                                               dtype=np.uint8))
            elif op == 2:
                del wire[i:i + int(rng.integers(1, 10))]
            else:
                wire[i:i] = b"\xaa" * int(rng.integers(1, 5))
        yield bytes(wire)


class TestBulkDecode:
    """packets_to_samples against the scalar route on one feed."""

    def test_acceptance_six_corpus_in_one_shot(self):
        values, corrupted, wire = acceptance_six_corpus()
        raw, corrupt = packets_to_samples(wire)
        assert (raw.tolist(), corrupt) == scalar_samples(wire)
        assert raw.tolist() == [int(v) for i, v in enumerate(values) if i not in corrupted]
        assert corrupt == len(corrupted)

    def test_empty_and_garbage_only(self):
        for wire in (b"", b"\xaa", b"\xaa\xaa", b"\x00" * 100, b"\xaa" * 100):
            assert_bulk_matches_scalar(wire)
            assert packets_to_samples(wire)[0].size == 0

    def test_split_point_sweep(self):
        wire = mixed_stream(np.random.default_rng(8))
        whole, corrupt = packets_to_samples(wire)
        for cut in range(len(wire) + 1):
            assert_bulk_matches_scalar(wire[:cut])
            parser = PacketParser()
            packets = parser.feed(wire[:cut]) + parser.feed(wire[cut:])
            assert [p.raw_value for p in packets if p.raw_value is not None] == whole.tolist()
            assert parser.corrupt_frames == corrupt

    @pytest.mark.parametrize("payload, value", ODD_PAYLOADS)
    def test_odd_payloads_between_canonical_frames(self, payload, value):
        wire = clean_stream([1, -2, 3]) + frame(payload) + clean_stream([4, -5])
        assert_bulk_matches_scalar(wire)
        carried = [] if value is None else [value]
        assert packets_to_samples(wire)[0].tolist() == [1, -2, 3] + carried + [4, -5]

    def test_sync_runs(self):
        rng = np.random.default_rng(12)
        for run in range(1, 10):
            wire = (b"\xaa" * run + encode_packet(1) + b"\xaa" * run
                    + clean_stream(rng.integers(-2048, 2048, size=20)) + b"\xaa" * run)
            assert_bulk_matches_scalar(wire)

    def test_frames_straddling_block_boundaries(self):
        # the first blocks from offset 0 end after these many rows
        ends, rows = [], BULK_MIN_ROWS
        while len(ends) < 4:
            ends.append(rows + (ends[-1] if ends else 0))
            rows = min(2 * rows, BULK_MAX_ROWS)
        values = np.random.default_rng(13).integers(-2048, 2048, size=ends[-1] + 8)
        for end in ends:
            for lead in range(end - 2, end + 2):
                for odd in (frame(ODD_PAYLOADS[-2][0]), b"\x00", encode_packet(3)[:-1]):
                    for skew in (b"", b"\x01\x02\x03"):
                        wire = (skew + clean_stream(values[:lead]) + odd
                                + clean_stream(values[lead:]))
                        assert_bulk_matches_scalar(wire)

    def test_truncated_tail(self):
        wire = clean_stream(np.random.default_rng(14).integers(-2048, 2048, size=300))
        for cut in range(1, 17):
            assert_bulk_matches_scalar(wire[:-cut])
            assert packets_to_samples(wire[:-cut])[0].size == 300 - (cut + 7) // 8

    def test_seeded_mutation_fuzz(self):
        for wire in mutated_streams():
            assert_bulk_matches_scalar(wire)


def reference_raw_value(payload):
    """The raw value of a verified payload, by walking its code/value rows."""
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
            if code == 0x80 and vlen == 2:
                value = (payload[i + 2] << 8) | payload[i + 3]
                return value - 0x10000 if value >= 0x8000 else value
            i += 2 + vlen
        else:
            i += 2
    return None


def reference_scan(buf):
    """The general scanner loop with no canonical-frame step, over all of
    ``buf``: sync search, length check, checksum of the payload, row walk.
    Returns (packets as (payload, raw value) pairs, corrupt frame count)."""
    n = len(buf)
    pos = corrupt = 0
    packets = []
    while True:
        pos = buf.find(b"\xaa\xaa", pos)
        if pos < 0 or n - pos < 3:
            return packets, corrupt
        length = buf[pos + 2]
        if length == 0xAA:
            pos += 1
        elif length > MAX_PAYLOAD:
            corrupt += 1
            pos += 1
        else:
            end = pos + length + 4
            if end > n:
                return packets, corrupt
            payload = buf[pos + 3:end - 1]
            if buf[end - 1] == checksum(payload):
                packets.append((payload, reference_raw_value(payload)))
                pos = end
            else:
                corrupt += 1
                pos += 1


def fed_in_random_reads(wire, seed, max_read=256):
    """PacketParser.feed over reads of 1 to ``max_read`` bytes: (packets as
    (payload, raw value) pairs, corrupt frame count)."""
    rng = np.random.default_rng(seed)
    parser = PacketParser()
    packets = []
    i = 0
    while i < len(wire):
        step = int(rng.integers(1, max_read + 1))
        packets += [(p.payload, p.raw_value) for p in parser.feed(wire[i:i + step])]
        i += step
    return packets, parser.corrupt_frames


def assert_matches_reference(wire, seed=0):
    packets, corrupt = reference_scan(wire)
    assert fed_in_random_reads(wire, seed) == (packets, corrupt)
    assert fed_in_random_reads(wire, seed, max_read=9) == (packets, corrupt)
    raw, bulk_corrupt = packets_to_samples(wire)
    assert (raw.tolist(), bulk_corrupt) == (
        [v for _, v in packets if v is not None], corrupt)


class TestScannerReference:
    """Both parsing routes against a scanner that has no canonical-frame step."""

    def test_acceptance_six_corpus(self):
        _, corrupted, wire = acceptance_six_corpus()
        assert_matches_reference(wire)
        assert reference_scan(wire)[1] == len(corrupted)

    def test_seeded_mutation_fuzz(self):
        for seed, wire in enumerate(mutated_streams()):
            assert_matches_reference(wire, seed)

    @pytest.mark.parametrize("lead", [0, 3, 8 * BULK_MIN_ROWS - 3])
    @pytest.mark.parametrize("shift", [5, 6, 7])
    def test_bad_checksum_header_overlapping_a_valid_frame(self, shift, lead):
        # a raw header whose frame fails its checksum, with a valid frame
        # starting ``shift`` bytes after it, inside its value and checksum
        # bytes; it cannot start 1-4 bytes after, where the header's own
        # length, code and value-length bytes would be its sync bytes
        valid = encode_packet(-77)
        bad = bytearray(protocol.RAW_HEADER + bytes(3))
        bad[shift:] = valid[:8 - shift]
        if shift == 7:
            bad[5:7] = b"\x01\x02"
        assert bad[7] != checksum(bad[3:7])
        head = clean_stream(range(lead // 8)) + bytes(lead % 8)
        wire = head + bytes(bad) + valid[8 - shift:] + clean_stream([5, -6])
        assert_matches_reference(wire)
        for cut in range(len(head), len(wire) + 1):
            parser = PacketParser()
            packets = parser.feed(wire[:cut]) + parser.feed(wire[cut:])
            assert [p.raw_value for p in packets][lead // 8:] == [-77, 5, -6]
            assert parser.corrupt_frames == 1


def parse_time(wire):
    t0 = time.perf_counter()
    packets_to_samples(wire)
    return time.perf_counter() - t0


def doubling_ratio(half, whole, pairs=7):
    """Median over ``pairs`` of parse time of ``whole`` over that of ``half``.

    The two parses of a pair run back to back, in alternating order, so a
    drift in machine speed (a shared VM can drift by 30 % within a second)
    cancels.
    """
    ratios = []
    for i in range(pairs):
        if i % 2:
            t_whole = parse_time(whole)
            t_half = parse_time(half)
        else:
            t_half = parse_time(half)
            t_whole = parse_time(whole)
        ratios.append(t_whole / t_half)
    return float(np.median(ratios))


class TestParserCost:
    def test_noisy_one_shot_cost_is_linear(self):
        half = noisy_stream(156_250, seed=16)     # 1.25 MB
        whole = noisy_stream(312_500, seed=16)    # 2.5 MB
        assert doubling_ratio(half, whole) <= 2.5

    def test_clean_600_s_stream_parses_fast(self):
        values = np.random.default_rng(17).integers(-2048, 2048, size=600 * 512)
        wire = wire_of(values)
        assert min(parse_time(wire) for _ in range(3)) < 0.5
        raw, corrupt = packets_to_samples(wire)
        assert np.array_equal(raw, values) and corrupt == 0

    def test_pending_stays_within_one_frame(self):
        rng = np.random.default_rng(18)
        # a third sync bytes, so candidates with every length keep appearing
        noise = rng.integers(0, 256, size=200_000, dtype=np.uint8)
        noise[rng.random(noise.size) < 0.33] = 0xAA
        wire = noise.tobytes()
        parser = PacketParser()
        pos = 0
        while pos < len(wire):
            step = int(rng.integers(1, 513))
            parser.feed(wire[pos:pos + step])
            pos += step
            assert len(parser._pending) <= MAX_PAYLOAD + 4


class TestSessionFiles:
    def make_session(self, n=64, n_channels=1, fs=512):
        rng = np.random.default_rng(1)
        raw = rng.integers(-500, 500, size=(n_channels, n), dtype=np.int32)
        device = (Device.SINGLE_ELECTRODE_512 if fs == 512
                  else Device.MULTI_ELECTRODE_128)
        return SubjectSession(subject_id="p1", task=TaskLabel.READ,
                              device=device, fs_hz=fs,
                              channels=tuple(f"ch{i}" for i in range(n_channels)),
                              raw=raw)

    def test_round_trip(self, tmp_path):
        sess = self.make_session()
        csv = tmp_path / "s.csv"
        man = tmp_path / "s.manifest.json"
        write_session(sess, csv, man)
        back = read_session(csv, man)
        assert back.subject_id == sess.subject_id
        assert back.task is sess.task
        assert back.fs_hz == 512
        assert np.array_equal(back.raw, sess.raw)

    def test_multichannel_round_trip(self, tmp_path):
        sess = self.make_session(n=32, n_channels=3, fs=128)
        write_session(sess, tmp_path / "m.csv", tmp_path / "m.manifest.json")
        back = read_session(tmp_path / "m.csv", tmp_path / "m.manifest.json")
        assert back.channels == ("ch0", "ch1", "ch2")
        assert np.array_equal(back.raw, sess.raw)

    @pytest.mark.parametrize("n_channels, fs", [(1, 512), (2, 512), (1, 128), (2, 128)])
    def test_bulk_writer_matches_per_row_format(self, tmp_path, n_channels, fs):
        # more than two write blocks, the last one partial
        sess = self.make_session(n=2 * WRITE_BLOCK_ROWS + 5, n_channels=n_channels, fs=fs)
        raw = sess.raw.copy()
        raw[0, :4] = (-2048, 2047, 0, -1)
        raw[-1, -2:] = (2047, -2048)
        sess = SubjectSession(subject_id="p1", task=TaskLabel.READ,
                              device=sess.device, fs_hz=fs,
                              channels=sess.channels, raw=raw)
        csv = tmp_path / "s.csv"
        write_session(sess, csv, tmp_path / "s.manifest.json")
        rows = [{1: "t_s,raw", 2: "t_s,raw,raw_ch2"}[n_channels]]
        for i in range(sess.n_samples):
            rows.append(",".join([f"{i / fs:.9f}"]
                                 + [str(int(v)) for v in sess.raw[:, i]]))
        assert csv.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_timestamp_format_is_nine_decimals(self, tmp_path):
        sess = self.make_session(n=3)
        csv = tmp_path / "s.csv"
        write_session(sess, csv, tmp_path / "s.manifest.json")
        lines = csv.read_text().splitlines()
        assert lines[1].split(",")[0] == "0.000000000"
        assert lines[2].split(",")[0] == "0.001953125"

    def test_bad_timestamp_spacing_rejected(self, tmp_path):
        sess = self.make_session(n=8)
        csv = tmp_path / "s.csv"
        man = tmp_path / "s.manifest.json"
        write_session(sess, csv, man)
        lines = csv.read_text().splitlines()
        cells = lines[4].split(",")
        cells[0] = f"{float(cells[0]) + 5e-6:.9f}"  # beyond 1e-6 tolerance
        lines[4] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError):
            read_session(csv, man)

    def test_wrong_header_rejected(self, tmp_path):
        csv = tmp_path / "s.csv"
        man = tmp_path / "s.manifest.json"
        write_session(self.make_session(n=4), csv, man)
        body = csv.read_text().splitlines()
        body[0] = "time,value"
        csv.write_text("\n".join(body) + "\n")
        with pytest.raises(SessionFormatError):
            read_session(csv, man)

    def test_manifest_missing_key_rejected(self, tmp_path):
        csv = tmp_path / "s.csv"
        man = tmp_path / "s.manifest.json"
        write_session(self.make_session(n=4), csv, man)
        m = json.loads(man.read_text())
        del m["device"]
        man.write_text(json.dumps(m))
        with pytest.raises(SessionFormatError):
            read_manifest(man)

    def test_manifest_fs_device_mismatch_rejected(self, tmp_path):
        csv = tmp_path / "s.csv"
        man = tmp_path / "s.manifest.json"
        write_session(self.make_session(n=4), csv, man)
        m = json.loads(man.read_text())
        m["fs_hz"] = 128
        man.write_text(json.dumps(m))
        with pytest.raises(SessionFormatError):
            read_session(csv, man)

    @pytest.mark.parametrize("field", [
        {"fs_hz": 512.9},   # was truncated to 512
        {"fs_hz": "abc"},
        {"channels": 5},
        {"channels": "ch0"},  # a string, not a list of names
    ])
    def test_manifest_field_types_rejected(self, tmp_path, field):
        csv = tmp_path / "s.csv"
        man = tmp_path / "s.manifest.json"
        write_session(self.make_session(n=4), csv, man)
        man.write_text(json.dumps({**json.loads(man.read_text()), **field}))
        with pytest.raises(SessionFormatError):
            read_session(csv, man)

    def test_packet_stream_round_trip(self):
        sess = self.make_session(n=300)
        raw, corrupt = packets_to_samples(session_to_packets(sess))
        assert corrupt == 0
        assert np.array_equal(raw, sess.raw[0])

    def test_packet_stream_matches_per_sample_frames(self):
        sess = self.make_session(n=300)
        raw = sess.raw.copy()
        raw[0, :4] = (-2048, -1, 0, 2047)
        sess = SubjectSession(subject_id="p1", task=TaskLabel.READ,
                              device=Device.SINGLE_ELECTRODE_512, fs_hz=512,
                              channels=("ch0",), raw=raw)
        assert session_to_packets(sess) == b"".join(
            encode_packet(int(v)) for v in raw[0])

    def test_packet_stream_is_single_channel_only(self):
        with pytest.raises(PacketError):
            session_to_packets(self.make_session(n=16, n_channels=2, fs=128))


def per_line_read_session(csv_path, manifest_path):
    """The per-line CSV reader that read_session replaced, kept as its oracle.

    It differs from read_session in three messages: a timestamp spacing
    error and an out-of-range raw value name no line here, and a non-finite
    timestamp is a spacing error "by nan s" (or "by inf s"). It also accepts
    a one-line file whose timestamp is infinite.
    """
    manifest = read_manifest(manifest_path)
    fs, channels = manifest["fs_hz"], manifest["channels"]
    lines = read_text(csv_path, "session csv", SessionFormatError).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise SessionFormatError(f"{csv_path} is empty")

    expected = ["t_s", "raw"] + [f"raw_ch{i}" for i in range(2, len(channels) + 1)]
    header = lines[0].split(",")
    if header != expected:
        raise SessionFormatError(
            f"{csv_path} header {','.join(header)!r} does not match expected "
            f"{','.join(expected)!r} for {len(channels)} channel(s)"
        )
    n = len(lines) - 1
    if n == 0:
        raise SessionFormatError(f"{csv_path} has a header but no samples")

    t = np.empty(n)
    raw = np.empty((len(channels), n), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != len(expected):
            raise SessionFormatError(
                f"{csv_path} line {i + 2}: {len(parts)} fields, expected {len(expected)}"
            )
        try:
            t[i] = float(parts[0])
            for c in range(len(channels)):
                raw[c, i] = int(parts[c + 1])
        except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
            raise SessionFormatError(f"{csv_path} line {i + 2}: {exc}") from exc

    if not t[0] >= 0:
        raise SessionFormatError(f"{csv_path}: start timestamp {t[0]} is not >= 0")
    if n > 1:
        deltas = np.diff(t)
        worst = np.abs(deltas - 1.0 / fs).max()
        if not worst <= TIMESTAMP_TOLERANCE_S:
            raise SessionFormatError(
                f"{csv_path}: timestamp spacing deviates from 1/{fs} s by "
                f"{worst:.3e} s (tolerance {TIMESTAMP_TOLERANCE_S:.0e})"
            )
    check_adc_range(raw.min(), raw.max(), SessionFormatError,
                    f"{csv_path}: raw samples")

    return SubjectSession(**manifest, raw=raw.astype(np.int32))


def first_bad_sample_line(text, fs):
    """The line read_session names where the oracle names none: the first
    non-finite or mis-spaced timestamp, else the first out-of-range raw
    value, taking lines first and then channels."""
    rows = [line.split(",") for line in text.split("\n")[1:]]
    if rows[-1] == [""]:
        rows.pop()
    times = [float(row[0]) for row in rows]
    for i, t in enumerate(times):
        if not math.isfinite(t):
            return i + 2
    for i in range(1, len(times)):
        if not abs(times[i] - times[i - 1] - 1.0 / fs) <= TIMESTAMP_TOLERANCE_S:
            return i + 2
    for i, row in enumerate(rows):
        if any(not -2048 <= int(cell) <= 2047 for cell in row[1:]):
            return i + 2
    raise AssertionError("no bad sample line")


def read_outcome(read, csv, man):
    try:
        return read(csv, man)
    except SessionFormatError as exc:
        return exc


def assert_matches_oracle(csv, man, fs):
    # the oracle's np.diff warns on inf - inf, which tier-1 makes an error
    with np.errstate(all="ignore"):
        want = read_outcome(per_line_read_session, csv, man)
    got = read_outcome(read_session, csv, man)
    if isinstance(want, SubjectSession):
        assert isinstance(got, SubjectSession), got
        assert (got.subject_id, got.task, got.device, got.fs_hz, got.channels) == \
            (want.subject_id, want.task, want.device, want.fs_hz, want.channels)
        assert got.raw.dtype == np.int32 and np.array_equal(got.raw, want.raw)
        return
    assert isinstance(got, SessionFormatError), got
    if str(want).startswith(f"{csv}: timestamp spacing "):
        kind = r"timestamp (spacing deviates|\S+ is not finite)"
    elif str(want).startswith(f"{csv}: raw samples "):
        kind = r"raw sample -?\d+ outside ADC range"
    else:
        assert str(got) == str(want)
        return
    line = first_bad_sample_line(csv.read_bytes().decode(), fs)
    assert re.match(re.escape(f"{csv} line {line}: ") + kind, str(got)), \
        (str(got), str(want))


def block_starts(text, budget):
    """The lines (the header is line 0) that start a block when read_session
    cuts ``text`` into blocks: after the last line break within ``budget``
    characters, or after the first line if that is longer."""
    pos = text.index("\n") + 1
    end = len(text) - text.endswith("\n")
    starts = []
    while end - pos > budget:
        stop = text.rfind("\n", pos, pos + budget)
        if stop < 0:
            stop = text.index("\n", pos)
        starts.append(text.count("\n", 0, stop) + 1)
        pos = stop + 1
    return starts


# replacements for one cell of a data line; "{t}" is the line's timestamp
RAW_CELLS = (" 12", "12\t", "+5", "1_0", "_1", "1__0", "1_", "\u0661\u0662",
             "1.5", "0x10", "", "100000000000000000000", "3000", "-30000",
             "2048", "-2049")
TIME_CELLS = ("nan", "inf", "-inf", "Infinity", "NaN", " {t} ", "+{t}",
              "{t}\r", "{t_arabic}", "9{t}", "1e308", "-1e308", "{t}.5", "")
ARABIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def mutate_line(line, rng):
    cells = line.split(",")
    # wrong field counts hide every other error, so they come less often
    op = int(rng.choice(6, p=(0.06, 0.06, 0.06, 0.12, 0.3, 0.4)))
    if op == 0:
        return line + ",7"
    if op == 1:
        return ",".join(cells[:-1])
    if op == 2:
        return ""
    if op == 3:
        return line + "\r"
    if op == 4:
        t = cells[0]
        cells[0] = str(rng.choice(TIME_CELLS)).format(
            t=t, t_arabic=t.translate(ARABIC_DIGITS))
    else:
        # a raw cell, or the one cell of a line an earlier mutation emptied
        cells[int(rng.integers(min(1, len(cells) - 1), len(cells)))] = \
            str(rng.choice(RAW_CELLS))
    return ",".join(cells)


def mutated_csv(text, budget, rng):
    """``text`` with a few lines mutated on, before and after block cuts,
    or cut short, or followed by blank lines."""
    lines = text.split("\n")
    starts = block_starts(text, budget)
    for _ in range(int(rng.integers(1, 4))):
        i = min(int(rng.choice(starts)) + int(rng.integers(-1, 2)), len(lines) - 1)
        lines[i] = mutate_line(lines[i], rng)
    text = "\n".join(lines)
    roll = rng.random()
    if roll < 0.15:
        # truncated on, just before or just after a cut
        cut = len("\n".join(lines[:int(rng.choice(starts))]))
        text = text[:cut + int(rng.integers(-3, 4))]
    elif roll < 0.25:
        text += "\n" * int(rng.integers(1, 3))
    return text


def write_random_session(d, n, n_channels, fs, seed=2):
    """A session of ``n`` random raw values per channel, written to ``d``."""
    raw = np.random.default_rng(seed).integers(-2048, 2048, size=(n_channels, n))
    device = (Device.SINGLE_ELECTRODE_512 if fs == 512
              else Device.MULTI_ELECTRODE_128)
    session = SubjectSession(subject_id="p1", task=TaskLabel.READ, device=device,
                             fs_hz=fs, channels=tuple(f"ch{i}" for i in range(n_channels)),
                             raw=raw)
    csv, man = d / "s.csv", d / "s.manifest.json"
    write_session(session, csv, man)
    return csv, man, session


class TestBlockReader:
    """read_session against the per-line reader it replaced."""

    @pytest.mark.parametrize("n_channels, fs", [(1, 512), (2, 512), (1, 128), (2, 128)])
    @pytest.mark.parametrize("budget", [16, 300])
    def test_seeded_mutation_fuzz(self, tmp_path, monkeypatch, n_channels, fs, budget):
        # at 16 characters every line is a block of its own; at 300 a
        # block holds a dozen lines
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", budget)
        csv, man, _ = write_random_session(tmp_path, 150, n_channels, fs)
        text = csv.read_text()
        assert_matches_oracle(csv, man, fs)
        rng = np.random.default_rng(budget + 10 * n_channels + fs)
        for _ in range(150):
            csv.write_text(mutated_csv(text, budget, rng), encoding="utf-8")
            assert_matches_oracle(csv, man, fs)

    def test_fuzz_at_the_default_budget(self, tmp_path):
        # 12000 lines make four blocks
        csv, man, _ = write_random_session(tmp_path, 12000, 1, 512)
        text = csv.read_text()
        assert len(block_starts(text, protocol.READ_BLOCK_CHARS)) >= 2
        rng = np.random.default_rng(19)
        for _ in range(25):
            csv.write_text(mutated_csv(text, protocol.READ_BLOCK_CHARS, rng),
                           encoding="utf-8")
            assert_matches_oracle(csv, man, 512)

    @pytest.mark.parametrize("text", [
        "", "\n", "t_s,raw", "t_s,raw\n", "t_s,raw\n\n", "t_s,raw\r\n0.0,1\r\n",
        "t_s,raw,raw_ch2\n0.0,1,2\n", "t_s,raw\n0.0,1\n\n", "t_s,raw\n0.0,1",
        "t_s,raw\n0.0,1,\n", "t_s,raw\n-0.5,1\n", "t_s,raw\nnan,1\n",
        "t_s,raw\n0.0\u00a0,1\n", "t_s,raw\n0.0,\u0661\n0.001953125,+2\n",
        # a field too many, then one too few: the block holds as many
        # cells as it should, so only the count per line catches it
        "t_s,raw\n0.000000000,1\n0.001953125,5,7\n3\n",
        "t_s,raw,raw_ch2\n0.000000000,1,2\n0.001953125,5\n7,0.00390625,3,4\n",
    ], ids=repr)
    def test_small_files(self, tmp_path, text):
        csv, man, _ = write_random_session(tmp_path, 4, 1, 512)
        csv.write_text(text, encoding="utf-8")
        assert_matches_oracle(csv, man, 512)

    def test_first_out_of_range_value_in_file_order(self, tmp_path):
        csv, man, _ = write_random_session(tmp_path, 4, 2, 128)
        rows = ["t_s,raw,raw_ch2", "0.000000000,0,5", "0.007812500,5,3000",
                "0.015625000,-30000,0"]
        csv.write_text("\n".join(rows) + "\n")
        with pytest.raises(SessionFormatError) as info:
            read_session(csv, man)
        assert str(info.value) == \
            f"{csv} line 3: raw sample 3000 outside ADC range [-2048, 2047]"

    def test_spacing_error_names_its_line(self, tmp_path):
        csv, man, _ = write_random_session(tmp_path, 8, 1, 512)
        lines = csv.read_text().split("\n")
        lines[5] = f"{4 / 512 + 5e-6:.9f}," + lines[5].split(",")[1]
        csv.write_text("\n".join(lines))
        with pytest.raises(SessionFormatError) as info:
            read_session(csv, man)
        assert str(info.value) == (f"{csv} line 6: timestamp spacing deviates from "
                                   "1/512 s by 5.000e-06 s (tolerance 1e-06)")

    @pytest.mark.parametrize("times, line, message", [
        (("0", "inf", "inf"), 3, "timestamp inf is not finite"),
        (("inf", "inf", "0.00390625"), 2, "timestamp inf is not finite"),
        (("0", "nan"), 3, "timestamp nan is not finite"),
        # the per-line reader accepted a one-line file with an infinite time
        (("inf",), 2, "timestamp inf is not finite"),
        # the difference overflows, which numpy used to warn about
        (("1e308", "-1e308"), 3, "timestamp spacing deviates from 1/512 s by inf s"),
    ])
    def test_non_finite_timestamps_name_their_line(self, tmp_path, times, line, message):
        csv, man, _ = write_random_session(tmp_path, 4, 1, 512)
        csv.write_text("t_s,raw\n" + "".join(f"{t},0\n" for t in times))
        with pytest.raises(SessionFormatError) as info:
            read_session(csv, man)
        assert str(info.value).startswith(f"{csv} line {line}: {message}")

    def test_lines_longer_than_the_budget_are_blocks_of_their_own(
            self, tmp_path, monkeypatch):
        blocks = []
        convert_block = protocol._convert_block

        def spy(block, *args):
            blocks.append(block)
            return convert_block(block, *args)
        monkeypatch.setattr(protocol, "_convert_block", spy)
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", 8)
        csv, man, session = write_random_session(tmp_path, 40, 2, 512)
        assert np.array_equal(read_session(csv, man).raw, session.raw)
        assert blocks == csv.read_text().split("\n")[1:-1]


def read_time(read, path):
    t0 = time.perf_counter()
    read(*path)
    return time.perf_counter() - t0


class TestSessionCost:
    @pytest.fixture(scope="class")
    def long_csv(self, tmp_path_factory):
        csv, man, _ = write_random_session(tmp_path_factory.mktemp("long"),
                                           600 * 512, 1, 512, seed=20)
        return csv, man

    def test_faster_than_per_line_reader(self, long_csv):
        # the two reads of a pair run back to back in alternating order,
        # so a drift in machine speed cancels
        ratios = []
        for i in range(7):
            if i % 2:
                t_block = read_time(read_session, long_csv)
                t_lines = read_time(per_line_read_session, long_csv)
            else:
                t_lines = read_time(per_line_read_session, long_csv)
                t_block = read_time(read_session, long_csv)
            ratios.append(t_lines / t_block)
        assert np.median(ratios) >= 2.0

    def test_peak_memory_is_bounded(self, long_csv):
        size = long_csv[0].stat().st_size
        tracemalloc.start()
        try:
            session = read_session(*long_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert session.n_samples == 600 * 512
        assert peak <= 3.5 * size


def _vector(values, label=TaskLabel.BASE, names=None):
    names = names or tuple(f"f{i}" for i in range(len(values)))
    return FeatureVector(values=tuple(values), schema=tuple(names), label=label)


class TestArff:
    def test_layout(self):
        doc = write_arff([_vector([1.5, 2.0]), _vector([3.0, 4.25], TaskLabel.CALL)],
                         relation="demo")
        lines = doc.split("\n")
        assert lines[0] == "@relation demo"
        assert lines[2] == "@attribute f0 numeric"
        assert lines[4] == "@attribute class {Base,Read,Text,Call,Snapshot}"
        assert lines[6] == "@data"
        assert lines[7] == "1.5,2,Base"
        assert lines[8] == "3,4.25,Call"
        assert doc.endswith("\n") and "\r" not in doc

    def test_byte_identical_across_runs(self):
        vecs = [_vector([0.123456789, 7e-5], TaskLabel.TEXT)]
        assert write_arff(vecs, "x") == write_arff(vecs, "x")

    def test_mixed_schemas_rejected(self):
        with pytest.raises(ValidationError):
            write_arff([_vector([1.0]), _vector([1.0], names=("other",))], "x")

    def test_empty_needs_schema(self):
        with pytest.raises(ValidationError):
            write_arff([], "x")
        doc = write_arff([], "x", schema=("a", "b"))
        assert "@data" in doc and doc.count("@attribute") == 3

    def test_read_back(self, tmp_path):
        vecs = [_vector([1.25, -3.5], TaskLabel.SNAPSHOT),
                _vector([0.0, 2.0], TaskLabel.BASE)]
        path = tmp_path / "d.arff"
        path.write_text(write_arff(vecs, "demo"), encoding="utf-8")
        back = read_arff(path)
        assert back == vecs

    def test_rewrite_is_stable(self, tmp_path):
        # quantization to %.6g is idempotent: write -> read -> write matches
        vecs = [_vector([0.123456789, 98765.4321], TaskLabel.READ)]
        path = tmp_path / "d.arff"
        first = write_arff(vecs, "demo")
        path.write_text(first, encoding="utf-8")
        second = write_arff(read_arff(path), "demo")
        assert second == first
