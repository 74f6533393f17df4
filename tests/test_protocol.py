"""Wire framing, ADC conversion, session files, and ARFF export."""

import bisect
import dataclasses
import json
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from driveguard import protocol
from driveguard.errors import ValidationError
from driveguard.model import (
    ADC_MAX,
    ADC_MIN,
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
    read_manifest,
    read_session,
    read_text,
    session_to_packets,
    write_arff,
    read_arff,
    write_session,
)
from driveguard.synth import GeneratorSpec, generate_session


class TestAdcConversion:
    def test_scale_constants(self):
        assert VOLTS_PER_COUNT == pytest.approx(1.8 / 4096 / 2000, abs=0)
        assert UV_PER_COUNT == pytest.approx(0.2197265625, abs=0)

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

    def test_frozen_and_shared(self):
        # the parser hands out one packet per canonical frame, so no caller
        # may change it
        p = RawPacket(payload=b"\x80\x02\x00\x05", raw_value=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.raw_value = 6
        assert hash(p) == hash(RawPacket(b"\x80\x02\x00\x05", 5))
        wire = encode_packet(5)
        first, second = PacketParser().feed(wire), PacketParser().feed(wire)
        assert first == second == [p]
        assert first[0] is second[0]


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
# each carries: no raw row, an extended code as the last byte, a raw row
# after or before other rows, a raw code with the wrong value length, and
# two maximal (169-byte) payloads, one ending in a raw row and one holding
# a whole canonical frame
ODD_PAYLOADS = (
    (bytes([0x02, 0x55]), None),
    (bytes([0x02, 0x55, 0x80]), None),
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
    return reference_scan_with_rest(buf)[:2]


def reference_scan_with_rest(buf):
    """``reference_scan`` and the bytes a parser keeps pending after it:
    an incomplete frame, or a lone trailing 0xAA."""
    n = len(buf)
    pos = corrupt = 0
    packets = []
    while True:
        start, pos = pos, buf.find(b"\xaa\xaa", pos)
        if pos < 0:
            return packets, corrupt, b"\xaa" if buf.endswith(b"\xaa", start) else b""
        if n - pos < 3:
            return packets, corrupt, buf[pos:]
        length = buf[pos + 2]
        if length == 0xAA:
            pos += 1
        elif length > MAX_PAYLOAD:
            corrupt += 1
            pos += 1
        else:
            end = pos + length + 4
            if end > n:
                return packets, corrupt, buf[pos:]
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


def live_style_wire(seed, seconds=60):
    """Clean frames damaged as a live link damages them: one payload or
    checksum byte changed to another value than 0xAA in 0.5 % of the frames,
    and 1-64 bytes of garbage other than 0xAA after 1 % of them."""
    rng = np.random.default_rng(seed)
    frames = np.frombuffer(wire_of(rng.integers(-2048, 2048, size=seconds * 512)),
                           np.uint8).reshape(-1, 8).copy()
    not_sync = np.delete(np.arange(256, dtype=np.uint8), 0xAA)
    for i in np.flatnonzero(rng.random(len(frames)) < 0.005).tolist():
        col = int(rng.integers(3, 8))
        frames[i, col] = rng.choice(not_sync[not_sync != frames[i, col]])
    cuts = np.flatnonzero(rng.random(len(frames)) < 0.01) + 1
    garbage = [rng.choice(not_sync, size=int(rng.integers(1, 65))).tobytes() for _ in cuts]
    pieces = np.split(frames.reshape(-1), 8 * cuts)
    return b"".join(p.tobytes() + g for p, g in zip(pieces, garbage + [b""]))


def random_reads(wire, seed, max_read):
    """``wire`` cut into consecutive reads of 1 to ``max_read`` bytes."""
    rng = np.random.default_rng(seed)
    ends = np.cumsum(rng.integers(1, max_read + 1, size=len(wire) + 1))
    ends = np.append(ends[ends < len(wire)], len(wire))
    return [wire[a:b] for a, b in zip([0, *ends[:-1].tolist()], ends.tolist())]


class TestFeedSamples:
    """PacketParser.feed_samples over random reads against one-shot
    packets_to_samples, the reference scanner, and feed on the same reads."""

    @staticmethod
    def wires():
        yield acceptance_six_corpus()[2]
        live = live_style_wire(seed=21)
        assert reference_scan(live)[1] > 100
        yield live
        for _, wire in zip(range(40), mutated_streams(seed=22)):
            yield wire

    @pytest.mark.parametrize("max_read", [9, 700, 70_000])
    def test_random_reads_match_one_shot_and_feed(self, max_read):
        for seed, wire in enumerate(self.wires()):
            bulk, scalar = PacketParser(), PacketParser()
            parts = [np.empty(0, dtype=np.int32)]
            for read in random_reads(wire, seed, max_read):
                parts.append(bulk.feed_samples(read))
                scalar.feed(read)
                assert parts[-1].dtype == np.int32
                assert (bulk.corrupt_frames, bulk.packets_emitted, bulk._pending) == \
                    (scalar.corrupt_frames, scalar.packets_emitted, scalar._pending)
            packets, corrupt, rest = reference_scan_with_rest(wire)
            whole, one_shot_corrupt = packets_to_samples(wire)
            assert np.concatenate(parts).tolist() == whole.tolist() == \
                [v for _, v in packets if v is not None]
            assert (bulk.corrupt_frames, bulk.packets_emitted, bulk._pending) == \
                (corrupt, len(packets), rest)
            assert one_shot_corrupt == corrupt

    def test_feed_and_feed_samples_mix_on_one_parser(self):
        for seed, wire in enumerate(self.wires()):
            rng = np.random.default_rng(seed)
            parser = PacketParser()
            values = []
            for read in random_reads(wire, seed, 300):
                if rng.random() < 0.5:
                    values += parser.feed_samples(read).tolist()
                else:
                    values += [p.raw_value for p in parser.feed(read)
                               if p.raw_value is not None]
            packets, corrupt, rest = reference_scan_with_rest(wire)
            assert values == [v for _, v in packets if v is not None]
            assert (parser.corrupt_frames, parser.packets_emitted, parser._pending) == \
                (corrupt, len(packets), rest)


def every_canonical_frame():
    """The canonical raw frame of each of the 65536 hi, lo pairs, with a
    valid checksum, in value order from 0."""
    hi, lo = np.divmod(np.arange(65536), 256)
    frames = np.empty((65536, 8), dtype=np.uint8)
    frames[:, :5] = tuple(protocol.RAW_HEADER)
    frames[:, 5], frames[:, 6] = hi, lo
    frames[:, 7] = (0xFF - 0x80 - 0x02 - hi - lo) & 0xFF
    return frames.tobytes()


class TestRunStep:
    """PacketParser.feed against the reference with the intern table of
    shared packets empty and full."""

    def test_cold_and_warm_table(self):
        _, _, wire = acceptance_six_corpus()
        protocol._RAW_PACKETS.clear()
        assert_matches_reference(wire)
        for seed, mutated in enumerate(mutated_streams()):
            protocol._RAW_PACKETS.clear()
            assert_matches_reference(mutated, seed)
        PacketParser().feed(every_canonical_frame())
        assert len(protocol._RAW_PACKETS) == 4096
        assert_matches_reference(wire)
        for seed, mutated in enumerate(mutated_streams()):
            assert_matches_reference(mutated, seed)
        assert len(protocol._RAW_PACKETS) == 4096

    def test_every_canonical_frame(self):
        wire = every_canonical_frame()
        protocol._RAW_PACKETS.clear()
        assert_matches_reference(wire)
        # only the frames in the ADC range are stored, and the others are
        # still emitted, each as a packet of its own
        table = protocol._RAW_PACKETS
        assert len(table) == 4096
        assert sorted(p.raw_value for p in table.values()) == list(range(-2048, 2048))
        packets = PacketParser().feed(wire)
        assert [p.raw_value for p in packets] == [
            v - 0x10000 if v >= 0x8000 else v for v in range(65536)]
        assert [p.payload for p in packets] == [wire[i + 3:i + 7]
                                                for i in range(0, len(wire), 8)]
        assert len(table) == 4096

    @pytest.mark.parametrize("lead", [
        b"\x00",
        b"\x01\xaa\x02",
        protocol.RAW_HEADER + b"\x00\x05\x00",
    ], ids=["garbage", "lone-sync-byte", "corrupt-candidate"])
    def test_frame_reached_by_sync_search_is_the_stored_packet(self, lead):
        # a canonical frame found by the sync search, not at a run's start,
        # comes back as the one shared packet with the table cold and warm
        wire = encode_packet(5)
        for warm in (False, True):
            protocol._RAW_PACKETS.clear()
            stored = PacketParser().feed(wire)[0] if warm else None
            parser = PacketParser()
            (resynced,) = parser.feed(lead + wire)
            assert parser.corrupt_frames == (lead[:2] == b"\xaa\xaa")
            assert resynced is protocol._RAW_PACKETS[int.from_bytes(wire, sys.byteorder)]
            assert resynced is PacketParser().feed(wire)[0]
            if warm:
                assert resynced is stored

    @pytest.mark.parametrize("last", [
        encode_packet(-300),
        frame(bytes([0x02, 0x55, 0x80, 0x02, 0x01, 0x2C])),
        bytes([0x01, 0x02, 0xAA, 0x03, 0x04, 0x05, 0xAA, 0x06]),
    ], ids=["canonical", "non-canonical", "garbage"])
    @pytest.mark.parametrize("kept", range(8))
    def test_tail_left_between_feeds(self, last, kept):
        # a run, then the first ``kept`` bytes of ``last``: the start of a
        # frame stays pending and the next feed completes it
        head = clean_stream([1, -2, 3])
        cut = len(head) + kept
        wire = head + last + clean_stream([4])
        for warm in (False, True):
            protocol._RAW_PACKETS.clear()
            if warm:
                PacketParser().feed(wire)
            parser = PacketParser()
            first = [(p.payload, p.raw_value) for p in parser.feed(wire[:cut])]
            assert (first, parser.corrupt_frames, parser._pending) == \
                reference_scan_with_rest(wire[:cut])
            if last[:2] == b"\xaa\xaa":
                assert parser._pending == last[:kept]
            second = [(p.payload, p.raw_value) for p in parser.feed(wire[cut:])]
            assert (first + second, parser.corrupt_frames, parser._pending) == \
                reference_scan_with_rest(wire)


def parse_time(wire):
    t0 = time.thread_time()
    packets_to_samples(wire)
    return time.thread_time() - t0


def cold_feed_time(wire):
    """Time of one PacketParser().feed of ``wire`` with the intern table
    emptied first."""
    protocol._RAW_PACKETS.clear()
    parser = PacketParser()
    t0 = time.thread_time()
    parser.feed(wire)
    return time.thread_time() - t0


def doubling_ratio(half, whole, pairs=7, timer=parse_time):
    """Median over ``pairs`` of ``timer``'s parse time of ``whole`` over
    that of ``half``.

    The two parses of a pair run back to back, in alternating order, so a
    drift in machine speed (a shared VM can drift by 30 % within a second)
    cancels. Each parse is timed on this thread's CPU clock, which does not
    count the time the host spends on other work.
    """
    ratios = []
    for i in range(pairs):
        if i % 2:
            t_whole = timer(whole)
            t_half = timer(half)
        else:
            t_half = timer(half)
            t_whole = timer(whole)
        ratios.append(t_whole / t_half)
    return float(np.median(ratios))


class TestParserCost:
    def test_noisy_one_shot_cost_is_linear(self):
        half = noisy_stream(156_250, seed=16)     # 1.25 MB
        whole = noisy_stream(312_500, seed=16)    # 2.5 MB
        assert doubling_ratio(half, whole) <= 2.5

    def test_noisy_one_shot_feed_cost_is_linear(self):
        half = noisy_stream(156_250, seed=16)     # 1.25 MB
        whole = noisy_stream(312_500, seed=16)    # 2.5 MB
        assert doubling_ratio(half, whole, timer=cold_feed_time) <= 2.5

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


def per_row_session_csv(session):
    """A session's CSV bytes formatted line by line with f-strings: the
    oracle for ``write_session``."""
    lines = [",".join(["t_s", "raw"] + [f"raw_ch{c}" for c in
                                        range(2, len(session.channels) + 1)])]
    for i, counts in enumerate(session.raw.T.tolist()):
        lines.append(",".join([f"{i / session.fs_hz:.9f}"] + [str(v) for v in counts]))
    return ("\n".join(lines) + "\n").encode()


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
        self.check_writer(tmp_path, raw, fs)

    @pytest.mark.parametrize("seconds, fs", [(101, 512), (1001, 128)], ids=[
        "9-10-99-100s-at-512Hz", "999-1000s-at-128Hz"])
    def test_writer_seconds_widen_inside_a_block(self, tmp_path, seconds, fs):
        # 10 s, 100 s and 1000 s are not block starts, so a block holds
        # seconds of two widths
        for width_change in (10, 100, 1000):
            if width_change < seconds:
                assert width_change * fs % WRITE_BLOCK_ROWS
        raw = np.random.default_rng(seconds).integers(
            -2048, 2048, size=(1, seconds * fs + 3), dtype=np.int32)
        self.check_writer(tmp_path, raw, fs)

    def test_writer_fourteen_channels_at_128hz(self, tmp_path):
        raw = np.random.default_rng(14).integers(
            -2048, 2048, size=(14, WRITE_BLOCK_ROWS + 77), dtype=np.int32)
        self.check_writer(tmp_path, raw, 128)

    @pytest.mark.parametrize("n_channels, fs", [(1, 512), (14, 128)])
    def test_writer_one_sample(self, tmp_path, n_channels, fs):
        self.check_writer(tmp_path, np.full((n_channels, 1), -7, np.int32), fs)

    @pytest.mark.parametrize("fs", [512, 128])
    def test_writer_every_adc_count_on_every_channel(self, tmp_path, fs):
        counts = np.arange(ADC_MIN, ADC_MAX + 1, dtype=np.int32)
        # each channel a different order, across a block boundary
        raw = np.stack([np.roll(counts, 1000 * c) for c in range(3)])
        raw = np.concatenate([raw, raw[:, ::-1]], axis=1)
        self.check_writer(tmp_path, raw, fs)

    def check_writer(self, tmp_path, raw, fs):
        device = (Device.SINGLE_ELECTRODE_512 if fs == 512
                  else Device.MULTI_ELECTRODE_128)
        sess = SubjectSession(subject_id="p1", task=TaskLabel.READ, device=device,
                              fs_hz=fs, channels=tuple(f"ch{i}" for i in range(len(raw))),
                              raw=raw)
        csv = tmp_path / "s.csv"
        write_session(sess, csv, tmp_path / "s.manifest.json")
        assert csv.read_bytes() == per_row_session_csv(sess)

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

    It differs from read_session in four messages: a timestamp spacing
    error and an out-of-range raw value name no line here, a non-finite
    timestamp is a spacing error "by nan s" (or "by inf s"), and a header
    ending in a carriage return is a header mismatch, where read_session
    names the CRLF line endings. It also accepts a one-line file whose
    timestamp is infinite.
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


CRLF_MESSAGE = "{csv} has CRLF line endings; session CSVs take LF line endings only"


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
    header = re.match(re.escape(f"{csv} header ")
                      + r"'(.*)\\r' does not match expected '(.*)'", str(want))
    if header and header[1] == header[2]:
        assert str(got) == CRLF_MESSAGE.format(csv=csv)
        return
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
    bytes, or after the first line if that is longer."""
    data = text.encode()
    pos = data.index(b"\n") + 1
    starts = []
    while True:
        pos = data.rfind(b"\n", pos, pos + budget) + 1 or data.find(b"\n", pos) + 1
        if not 0 < pos < len(data):
            return starts
        starts.append(data.count(b"\n", 0, pos))


# replacements for one cell of a data line; "{t}" is the line's timestamp
RAW_CELLS = (" 12", "12\t", "+5", "1_0", "_1", "1__0", "1_", "\u0661\u0662",
             "1.5", "0x10", "", "100000000000000000000", "3000", "-30000",
             "2048", "-2049", "3000000000", "-2147483649", "+3000000000")
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


# cells too long to show in a test id
LONG_ZEROS = "0" * 5000


def decline_fixed_point(monkeypatch):
    """Make read_session's grid and fixed-point routes decline every block,
    so each is read line by line."""
    monkeypatch.setattr(protocol, "_grid_block", lambda *args: None)
    monkeypatch.setattr(protocol, "_fixed_point_block", lambda *args: None)


def spy_lines(monkeypatch):
    """The ``(row, block)`` of each block read_session reads line by line,
    appended as it runs."""
    blocks = []
    convert_lines = protocol._convert_lines

    def spy(csv_path, block, row, n_channels):
        blocks.append((row, block))
        return convert_lines(csv_path, block, row, n_channels)
    monkeypatch.setattr(protocol, "_convert_lines", spy)
    return blocks


class TestBlockReader:
    """read_session against the per-line reader it replaced, as it runs:
    grid blocks through the grid route, other plain blocks through the
    fixed-point route, every other one line by line. ``TestBlockRoute``
    repeats each check with every block read line by line."""

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
        # lines of about 18 bytes make four blocks
        csv, man, _ = write_random_session(tmp_path, 3 * protocol.READ_BLOCK_CHARS // 16,
                                           1, 512)
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
        # np.loadtxt takes a cell ending in \x1c-\x1f, which int rejects
        "t_s,raw\n0.0,1\x1c\n", "t_s,raw\n0.0\x1f,1\n",
        # np.loadtxt skips blank lines, which are errors
        "t_s,raw\n0.000000000,1\n\n0.001953125,2\n",
        "t_s,raw\n0.000000000,1\n0.001953125,2\n\n\n", "t_s,raw\n\n\n",
        "t_s,raw\n0.000000000,1\r\n0.001953125,2\r\n",
        "t_s,raw\n0.000000000,+5\n", "t_s,raw\n0.000000000,1_0\n",
        "t_s,raw\n0.000000000,99999999999999999999\n",
        "t_s,raw\n0.000000000,-9223372036854775809\n",
        # beyond int32: the range check names the value
        "t_s,raw\n0.000000000,3000000000\n", "t_s,raw\n0.000000000,-2147483649\n",
        "t_s,raw\n0.000000000,+3000000000\n",
        "t_s,raw\n0,1\n1.953125e-3,2\n", "t_s,raw\n1e-3,1\n",
        "t_s,raw\n0.000000000,1\n0.001953125,2",
        # more digits than int takes: loadtxt reads the first as 1
        pytest.param(f"t_s,raw\n0.000000000,{LONG_ZEROS}1\n", id="long-raw-cell"),
        pytest.param(f"t_s,raw\n{LONG_ZEROS}.0,1\n", id="long-timestamp-cell"),
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
        # plain blocks take the grid or fixed-point route, so decline both
        decline_fixed_point(monkeypatch)
        blocks = spy_lines(monkeypatch)
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", 8)
        csv, man, session = write_random_session(tmp_path, 40, 2, 512)
        assert np.array_equal(read_session(csv, man).raw, session.raw)
        assert [block for _, block in blocks] == csv.read_text().split("\n")[1:-1]


class TestBlockRoute(TestBlockReader):
    """Every TestBlockReader check with the grid and fixed-point routes
    declining."""

    @pytest.fixture(autouse=True)
    def lines_only(self, monkeypatch):
        decline_fixed_point(monkeypatch)


# timestamp forms a session CSV may hold: write_session's, a shorter
# fixed-point form, and Python's shortest repr
TIME_FORMATS = {"%.9f": "%.9f".__mod__, "%.6f": "%.6f".__mod__, "str": str}


def write_timed_session(d, n, n_channels, fs, time_format):
    """A random session of ``n`` samples written to ``d`` with timestamps
    in ``time_format``, one of TIME_FORMATS."""
    csv, man, session = write_random_session(d, n, n_channels, fs)
    lines = csv.read_text().split("\n")
    times = map(TIME_FORMATS[time_format], (np.arange(n) / fs).tolist())
    lines[1:-1] = [t + line[line.index(","):] for t, line in zip(times, lines[1:-1])]
    csv.write_text("\n".join(lines))
    return csv, man, session


def spy_routes(monkeypatch):
    """Follows read_session's blocks as it runs: the returned dict's
    "calls" gets ``(route, row, lines taken)`` for each try of a route on
    a block, in order, with 0 lines when the route declined; "samples" is
    ``(None, None)`` until a read checks its timestamps, then ``(t, raw)``:
    the timestamps checked and the raw cells the routes returned, joined."""
    route = {"calls": [], "samples": None}
    raws = []

    def start(path):
        # each read starts with its manifest
        raws.clear()
        route["samples"] = (None, None)
        return read_manifest(path)

    def spy(name, convert):
        def tried(*args):
            part = convert(*args)
            route["calls"].append((name, sum(raw.shape[1] for raw in raws),
                                   0 if part is None else part[1].shape[1]))
            if part is not None:
                raws.append(part[1])
            return part
        return tried

    def check_timestamps(csv_path, t, fs):
        route["samples"] = (t, np.concatenate(raws, axis=1))
        return check(csv_path, t, fs)
    check = protocol._check_timestamps
    monkeypatch.setattr(protocol, "read_manifest", start)
    monkeypatch.setattr(protocol, "_check_timestamps", check_timestamps)
    for name, attr in [("grid", "_grid_block"), ("fixed_point", "_fixed_point_block"),
                       ("lines", "_convert_lines")]:
        monkeypatch.setattr(protocol, attr, spy(name, getattr(protocol, attr)))
    return route


def test_written_sessions_take_the_fixed_point_route(tmp_path, monkeypatch):
    route = spy_routes(monkeypatch)
    for n_channels in (1, 2, 3):
        for fs in (512, 128):
            for time_format in TIME_FORMATS:
                csv, man, session = write_timed_session(tmp_path, 700, n_channels, fs,
                                                        time_format)
                got = read_session(csv, man)
                assert all(name != "lines" for name, _, _ in route["calls"]), \
                    (n_channels, fs, time_format)
                assert got.raw.flags.c_contiguous and np.array_equal(got.raw, session.raw)


def replace_time(line, time):
    return time + line[line.index(","):]


def replace_raw(line, raw):
    return line[:line.rindex(",") + 1] + raw


def move_point(time, shift):
    digits = time.replace(".", "")
    at = time.index(".") + shift
    return digits[:at] + "." + digits[at:]


def pad_time(time, digits):
    """``time`` with trailing zeros to ``digits`` digits."""
    return time + "0" * (digits + 1 - len(time))


def pad_raw(raw, digits):
    """``raw`` with leading zeros to ``digits`` digits."""
    sign = "-" if raw.startswith("-") else ""
    return sign + raw.lstrip("-").rjust(digits, "0")


# edits of one sample line, each on the line as written
LINE_MUTATIONS = {
    "point-moved-left": lambda line, t, r: replace_time(line, move_point(t, -1)),
    "point-moved-right": lambda line, t, r: replace_time(line, move_point(t, 1)),
    "point-dropped": lambda line, t, r: replace_time(line, t.replace(".", "")),
    "point-doubled": lambda line, t, r: replace_time(line, t.replace(".", "..")),
    "point-in-raw": lambda line, t, r: replace_raw(line, r[:1] + "." + r[1:]),
    "no-integer-digit": lambda line, t, r: replace_time(line, t[t.index("."):]),
    "no-fraction-digit": lambda line, t, r: replace_time(line, t[:t.index(".") + 1]),
    "fraction-dropped": lambda line, t, r: replace_time(line, t[:t.index(".")]),
    "15-time-digits": lambda line, t, r: replace_time(line, pad_time(t, 15)),
    "16-time-digits": lambda line, t, r: replace_time(line, pad_time(t, 16)),
    "15-time-digits-leading": lambda line, t, r: replace_time(
        line, "0" * (16 - len(t)) + t),
    "16-time-digits-leading": lambda line, t, r: replace_time(
        line, "0" * (17 - len(t)) + t),
    "8-raw-digits": lambda line, t, r: replace_raw(line, pad_raw(r, 8)),
    "9-raw-digits": lambda line, t, r: replace_raw(line, pad_raw(r, 9)),
    "8-raw-digits-beyond-adc": lambda line, t, r: replace_raw(line, "12345678"),
    "9-raw-digits-beyond-adc": lambda line, t, r: replace_raw(line, "-123456789"),
    "minus-zero": lambda line, t, r: replace_raw(line, "-0"),
    "leading-zeros": lambda line, t, r: replace_raw(line, "007"),
    "time-leading-zero": lambda line, t, r: replace_time(line, "0" + t),
    "half-with-leading-zeros": lambda line, t, r: replace_time(line, "00.5"),
    "negative-time": lambda line, t, r: replace_time(line, "-" + t),
    "minus-inside-time": lambda line, t, r: replace_time(line, t.replace(".", ".-")),
    "minus-inside-raw": lambda line, t, r: replace_raw(line, r[:1] + "-" + r[1:]),
    "minus-after-raw": lambda line, t, r: replace_raw(line, r + "-"),
    "lone-minus": lambda line, t, r: replace_raw(line, "-"),
    "double-minus": lambda line, t, r: replace_raw(line, "--" + r.lstrip("-")),
    "plus-raw": lambda line, t, r: replace_raw(line, "+" + r.lstrip("-")),
    "plus-time": lambda line, t, r: replace_time(line, "+" + t),
    "space-before-raw": lambda line, t, r: replace_raw(line, " " + r),
    "space-after-time": lambda line, t, r: replace_time(line, t + " "),
    "high-byte-in-raw": lambda line, t, r: replace_raw(line, r[:1] + "\u00e9" + r[1:]),
    "arabic-digit-raw": lambda line, t, r: replace_raw(line, "\u0661\u0662"),
    "high-byte-in-time": lambda line, t, r: replace_time(line, t[:-1] + "\u0665"),
    "slash-in-time": lambda line, t, r: replace_time(line, t[:-1] + "/"),
    "colon-in-raw": lambda line, t, r: replace_raw(line, r + ":"),
    "empty-raw": lambda line, t, r: replace_raw(line, ""),
    "extra-field": lambda line, t, r: line + ",5",
    "blank-line": lambda line, t, r: "",
    "crlf": lambda line, t, r: line + "\r",
}


class TestFixedPointRoute:
    """read_session against the per-line reader on edits of one line at
    and next to the fixed-point route's block cuts, for every time form:
    equal sessions where the oracle accepts, the same message where it
    rejects."""

    @pytest.mark.parametrize("time_format", list(TIME_FORMATS))
    @pytest.mark.parametrize("n_channels, fs", [(1, 512), (2, 512), (3, 512),
                                                (1, 128), (2, 128), (3, 128)])
    def test_line_mutations_at_block_cuts(self, tmp_path, monkeypatch, n_channels, fs,
                                          time_format):
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", 200)
        csv, man, _ = write_timed_session(tmp_path, 60, n_channels, fs, time_format)
        text = csv.read_text()
        lines = text.split("\n")
        starts = block_starts(text, 200)
        assert len(starts) >= 3
        rng = np.random.default_rng(n_channels + fs)
        for mutate in LINE_MUTATIONS.values():
            # the first and last lines, the lines around two cuts, and a
            # random line next to a cut in a file whose last line break is
            # dropped
            at_random = min(int(rng.choice(starts)) + int(rng.integers(-1, 2)),
                            len(lines) - 2)
            for at, end in [(1, "\n"), (starts[0] - 1, "\n"), (starts[0], "\n"),
                            (starts[1] + 1, "\n"), (len(lines) - 2, "\n"),
                            (at_random, "")]:
                line = lines[at]
                mutated = lines[:-1]
                mutated[at] = mutate(line, line.split(",")[0], line.split(",")[-1])
                csv.write_text("\n".join(mutated) + end, encoding="utf-8")
                assert_matches_oracle(csv, man, fs)

    @pytest.mark.parametrize("time_format", list(TIME_FORMATS))
    def test_values_equal_float_and_int(self, tmp_path, monkeypatch, time_format):
        # every timestamp of a 20 minute recording and every raw value, then
        # the widest cells the route takes, off the time grid
        route = spy_routes(monkeypatch)
        n = 20 * 60 * 128
        csv, man, _ = write_timed_session(tmp_path, n, 1, 128, time_format)
        lines = csv.read_text().split("\n")[1:-1]
        lines[:4096] = [replace_raw(line, str(v))
                        for line, v in zip(lines, range(-2048, 2048))]
        lines += [f"{t},{r}" for t, r in zip(
            ["00.5", "0.00000000000001", "99999999999999.9", "9.99999999999999",
             "123456789.012345", "0000000.00000005", "1.0", "5.00000000000000"],
            ["-0", "007", "00000012", "-99999999", "99999999", "-00000000", "0", "-1"])]
        csv.write_text("t_s,raw\n" + "\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError):
            read_session(csv, man)
        assert all(name != "lines" for name, _, _ in route["calls"])
        t, raw = route["samples"]
        cells = [line.split(",") for line in lines]
        assert t.tolist() == [float(c[0]) for c in cells]
        assert raw[0].tolist() == [int(c[1]) for c in cells]


class TestBlockRouting:
    """Only the blocks the fixed-point route declines are read line by
    line."""

    @pytest.fixture
    def written(self, tmp_path):
        # lines of about 18 bytes make four blocks
        csv, man, _ = write_random_session(tmp_path, 3 * protocol.READ_BLOCK_CHARS // 16,
                                           1, 512)
        return csv, man, csv.read_text().split("\n")[:-1]

    def test_one_odd_line_declines_its_block_alone(self, monkeypatch, written):
        csv, man, lines = written
        at = len(lines) // 2
        lines[at] = replace_time(lines[at], pad_time(lines[at].split(",")[0], 16))
        text = "\n".join(lines) + "\n"
        csv.write_text(text)
        starts = block_starts(text, protocol.READ_BLOCK_CHARS)
        # the odd line's block, which is neither the first nor the last
        i = bisect.bisect_right(starts, at)
        assert 0 < i < len(starts)
        blocks = spy_lines(monkeypatch)
        assert_matches_oracle(csv, man, 512)
        assert blocks == [(starts[i - 1] - 1, "\n".join(lines[starts[i - 1]:starts[i]]))]

    def test_no_final_line_break_declines_the_last_block_alone(self, monkeypatch,
                                                               written):
        csv, man, lines = written
        text = "\n".join(lines)
        csv.write_text(text)
        last = block_starts(text, protocol.READ_BLOCK_CHARS)[-1]
        blocks = spy_lines(monkeypatch)
        assert_matches_oracle(csv, man, 512)
        assert blocks == [(last - 1, "\n".join(lines[last:]))]


def shift_to_sample(csv, g0, fs):
    """Rewrite the timestamps of session file ``csv`` as those of grid
    samples ``g0`` onwards, in write_session's form."""
    lines = csv.read_text().split("\n")
    lines[1:-1] = [replace_time(line, f"{(g0 + i) / fs:.9f}")
                   for i, line in enumerate(lines[1:-1])]
    csv.write_text("\n".join(lines))


def timestamps(lines):
    """``float`` of the timestamp of each sample line in ``lines``."""
    return [float(line.split(",")[0]) for line in lines]


def nanoseconds_plus(time, delta):
    """A ``%.9f`` timestamp text ``delta`` nanoseconds later."""
    ns = int(time.replace(".", "")) + delta
    return f"{'-' if ns < 0 else ''}{abs(ns) // 10**9}.{abs(ns) % 10**9:09d}"


# edits of one line that leave a plain line off its grid sample, or a raw
# cell at the limits of the grid route's digit test
GRID_EDITS = {
    "last-digit-plus-1": lambda line, t, r: replace_time(line, nanoseconds_plus(t, 1)),
    "last-digit-minus-1": lambda line, t, r: replace_time(line, nanoseconds_plus(t, -1)),
    "seconds-digit-changed": lambda line, t, r: replace_time(
        line, str(int(t[:t.index(".")]) + 1) + t[t.index("."):]),
    "seconds-leading-zero": lambda line, t, r: replace_time(line, "0" + t),
    "fraction-digit-dropped": lambda line, t, r: replace_time(line, t[:-1]),
    "fraction-digit-added": lambda line, t, r: replace_time(line, t + "0"),
    "comma-to-semicolon": lambda line, t, r: line.replace(",", ";"),
    "comma-to-digit": lambda line, t, r: line.replace(",", "0"),
    "comma-to-point": lambda line, t, r: line.replace(",", "."),
    "comma-moved-left": lambda line, t, r: f"{t[:-1]},{t[-1]}{r}",
    "comma-moved-right": lambda line, t, r: f"{t}{r[:1]},{r[1:] or '0'}",
    "lone-minus": lambda line, t, r: replace_raw(line, "-"),
    "double-minus": lambda line, t, r: replace_raw(line, "--5"),
    "plus-raw": lambda line, t, r: replace_raw(line, "+5"),
    "leading-zeros": lambda line, t, r: replace_raw(line, "007"),
    "minus-zero": lambda line, t, r: replace_raw(line, "-0"),
    "9-digit-raw": lambda line, t, r: replace_raw(line, "000000007"),
    "9-digit-raw-beyond-adc": lambda line, t, r: replace_raw(line, "123456789"),
    "minus-8-digit-raw": lambda line, t, r: replace_raw(line, "-00000007"),
    "minus-8-digit-raw-beyond-adc": lambda line, t, r: replace_raw(line, "-12345678"),
}


class TestGridRoute:
    """The grid route takes every block of a one-channel file as
    write_session writes it, from any whole sample, and no block of any
    other file; with it, read_session matches the per-line reader on
    edits at the grid's edges."""

    @pytest.mark.parametrize("fs", [512, 128])
    @pytest.mark.parametrize("g0", [0, 1, "last-of-second", "5-seconds-in"])
    def test_written_files_take_the_grid_route(self, tmp_path, monkeypatch, fs, g0):
        g0 = {"last-of-second": fs - 1, "5-seconds-in": 5 * fs + 3}.get(g0, g0)
        csv, man, session = write_random_session(tmp_path, 101 * fs - g0 + 3, 1, fs)
        shift_to_sample(csv, g0, fs)
        # seconds 10 and 100 start inside a block, so a block holds
        # timestamps of two lengths
        starts = block_starts(csv.read_text(), protocol.READ_BLOCK_CHARS)
        assert 10 * fs - g0 + 1 not in starts and 100 * fs - g0 + 1 not in starts
        route = spy_routes(monkeypatch)
        assert np.array_equal(read_session(csv, man).raw, session.raw)
        calls = route["calls"]
        assert len(calls) == len(starts) + 1
        assert all(name == "grid" and m for name, _, m in calls)
        # a read that stays on the grid route stores no timestamps
        assert route["samples"][0] is None

    @pytest.mark.parametrize("fs", [512, 128])
    def test_blocks_of_the_shortest_lines(self, tmp_path, monkeypatch, fs):
        # one-digit raw cells make lines of 14 bytes, so a block holds the
        # most lines it can, and the first block starts at the last sample
        # of a second
        n = protocol.READ_BLOCK_CHARS // 10
        csv, man, session = write_random_session(tmp_path, n, 1, fs)
        raw = np.random.default_rng(3).integers(0, 10, (1, n))
        session = dataclasses.replace(session, raw=raw)
        write_session(session, csv, man)
        shift_to_sample(csv, fs - 1, fs)
        route = spy_routes(monkeypatch)
        assert np.array_equal(read_session(csv, man).raw, raw)
        assert route["calls"][0][2] > protocol.READ_BLOCK_CHARS // 15
        assert all(name == "grid" and m for name, _, m in route["calls"])

    @pytest.mark.parametrize("budgets", [("default", 16, 300, "raised"),
                                         (300, 16, "raised", "default")])
    def test_budgets_in_either_order_in_one_process(self, tmp_path, monkeypatch,
                                                    budgets):
        # the grid route's tables are made at import, so a read at one
        # budget never limits the blocks of a later read at another; a
        # budget raised after import makes blocks longer than the tables,
        # which the fixed-point route reads
        default = protocol.READ_BLOCK_CHARS
        csv, man, _ = write_random_session(tmp_path, default // 10, 1, 512)
        # two blocks at the default budget, one when it is raised
        assert len(block_starts(csv.read_text(), default)) == 1
        route = spy_routes(monkeypatch)
        for budget in budgets:
            raised = budget == "raised"
            monkeypatch.setattr(protocol, "READ_BLOCK_CHARS",
                                4 * default if raised else
                                default if budget == "default" else budget)
            route["calls"].clear()
            assert_matches_oracle(csv, man, 512)
            assert [(name, m > 0) for name, _, m in route["calls"]] == (
                [("grid", False), ("fixed_point", True)] if raised else
                [("grid", True)] * len(route["calls"])), budget

    @pytest.mark.parametrize("g0, on_grid", [
        (99999 * 512 - 700, True),   # seconds of 5 and 6 digits in one block
        (10**6 * 512 - 1500, True),  # the last sample before second 10**6
        (10**6 * 512 - 1499, False),  # a sample of second 10**6
    ])
    def test_seconds_to_the_grid_end(self, tmp_path, monkeypatch, g0, on_grid):
        csv, man, session = write_random_session(tmp_path, 1500, 1, 512)
        shift_to_sample(csv, g0, 512)
        route = spy_routes(monkeypatch)
        assert_matches_oracle(csv, man, 512)
        assert [name for name, _, m in route["calls"] if m] == \
            ["grid" if on_grid else "lines"]

    def test_blocks_from_the_grid_end_leave_the_grid_route(self, tmp_path, monkeypatch):
        # about nine lines a block from 35 samples before second 10**6: the
        # blocks before it take the grid route, and the block that crosses
        # it and the blocks after it are read line by line, as their
        # 16-digit timestamps are too long for the fixed-point route
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", 200)
        g0 = 10**6 * 512 - 35
        csv, man, _ = write_random_session(tmp_path, 80, 1, 512)
        shift_to_sample(csv, g0, 512)
        starts = block_starts(csv.read_text(), 200)
        # the line of second 10**6's first sample lies inside a block
        crossing = 10**6 * 512 - g0 + 1
        assert crossing not in starts
        before = bisect.bisect_right(starts, crossing)
        assert before >= 2
        route = spy_routes(monkeypatch)
        assert_matches_oracle(csv, man, 512)
        assert [(name, m > 0) for name, _, m in route["calls"]] == \
            [("grid", True)] * before + \
            [("grid", False), ("fixed_point", False), ("lines", True)] * \
            (len(starts) + 1 - before)

    @pytest.mark.parametrize("n_channels, fs, time_format", [
        (2, 512, "%.9f"), (3, 128, "%.9f"), (14, 128, "%.9f"),
        (1, 512, "%.6f"), (1, 128, "%.6f"), (1, 512, "str"), (1, 128, "str")])
    def test_other_files_never_take_the_grid_route(self, tmp_path, monkeypatch,
                                                   n_channels, fs, time_format):
        csv, man, session = write_timed_session(tmp_path, 700, n_channels, fs,
                                                time_format)
        route = spy_routes(monkeypatch)
        assert np.array_equal(read_session(csv, man).raw, session.raw)
        assert route["calls"] and all(name == "fixed_point" and m
                                      for name, _, m in route["calls"])

    @pytest.mark.parametrize("start", [0.0001, 0.5 / 512, 3 / 512 + 1e-9])
    def test_off_grid_start_never_takes_the_grid_route(self, tmp_path, monkeypatch,
                                                       start):
        csv, man, session = write_random_session(tmp_path, 700, 1, 512)
        lines = csv.read_text().split("\n")
        lines[1:-1] = [replace_time(line, f"{start + i / 512:.9f}")
                       for i, line in enumerate(lines[1:-1])]
        csv.write_text("\n".join(lines))
        route = spy_routes(monkeypatch)
        assert np.array_equal(read_session(csv, man).raw, session.raw)
        assert route["calls"] and all(name == "fixed_point" and m
                                      for name, _, m in route["calls"])

    @pytest.mark.parametrize("fs", [512, 128])
    @pytest.mark.parametrize("g0_seconds", [0, 10, 100])
    @pytest.mark.parametrize("edit", list(GRID_EDITS))
    def test_grid_edits(self, tmp_path, monkeypatch, fs, g0_seconds, edit):
        # 80 lines from 40 samples before second g0_seconds, about ten a
        # block: edits on the first line, the lines either side of the
        # second's start, a block's first line and the last line
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", 200)
        g0 = max(g0_seconds * fs - 40, 0)
        csv, man, _ = write_random_session(tmp_path, 80, 1, fs)
        shift_to_sample(csv, g0, fs)
        lines = csv.read_text().split("\n")[:-1]
        starts = block_starts(csv.read_text(), 200)
        route = spy_routes(monkeypatch)
        for at in sorted({1, g0_seconds * fs - g0, g0_seconds * fs - g0 + 1, starts[2],
                          len(lines) - 1} - {0}):
            line = lines[at]
            t, r = line.split(",")
            mutated = lines.copy()
            mutated[at] = GRID_EDITS[edit](line, t, r)
            csv.write_text("\n".join(mutated) + "\n")
            assert_matches_oracle(csv, man, fs)
            route["calls"].clear()
            if isinstance(read_outcome(read_session, csv, man), SubjectSession):
                # accepted: t holds float of each timestamp once the read
                # leaves the grid route, and is never made if it does not
                t = route["samples"][0]
                if all(name == "grid" for name, _, _ in route["calls"]):
                    assert t is None, at
                else:
                    assert t.tolist() == timestamps(mutated[1:]), at


# edits of one line that send its block off the grid route, with the
# tries of the other routes that then read the block
FIXED_POINT = [("fixed_point", True)]
LINES = [("fixed_point", False), ("lines", True)]
LEAVE_GRID_EDITS = {
    "%.6f-time": (lambda line, t, r: replace_time(line, f"{float(t):.6f}"), FIXED_POINT),
    "shortest-time": (lambda line, t, r: replace_time(line, str(float(t))), FIXED_POINT),
    "plus-raw": (lambda line, t, r: replace_raw(line, "+" + r.lstrip("-")), LINES),
    "late-within-tolerance": (lambda line, t, r: replace_time(line, nanoseconds_plus(t, 900)),
                              FIXED_POINT),
    "late": (lambda line, t, r: replace_time(line, nanoseconds_plus(t, 1100)), FIXED_POINT),
    "early": (lambda line, t, r: replace_time(line, nanoseconds_plus(t, -1100)), FIXED_POINT),
    "inf-time": (lambda line, t, r: replace_time(line, "inf"), LINES),
    "nan-time": (lambda line, t, r: replace_time(line, "nan"), LINES),
}


class TestLeavingTheGridRoute:
    """Grid blocks, one block the grid route declines, then grid blocks
    again: the timestamps joined when a block leaves the grid route hold
    the grid blocks' times too, and the checks cover them, so
    read_session matches the per-line reader."""

    @pytest.mark.parametrize("fs", [512, 128])
    @pytest.mark.parametrize("g0_seconds", [0, 100])
    @pytest.mark.parametrize("edit", list(LEAVE_GRID_EDITS))
    def test_grid_blocks_around_one_other_block(self, tmp_path, monkeypatch, fs,
                                                g0_seconds, edit):
        # 80 lines, about ten a block; the edit is on the third block's
        # first line, which a shorter line may move to the second block
        monkeypatch.setattr(protocol, "READ_BLOCK_CHARS", 200)
        g0 = max(g0_seconds * fs - 40, 0)
        csv, man, _ = write_random_session(tmp_path, 80, 1, fs)
        shift_to_sample(csv, g0, fs)
        text = csv.read_text()
        lines = text.split("\n")[:-1]
        mutate, tries = LEAVE_GRID_EDITS[edit]
        at = block_starts(text, 200)[1]
        lines[at] = mutate(lines[at], *lines[at].split(","))
        text = "\n".join(lines) + "\n"
        csv.write_text(text)
        starts = block_starts(text, 200)
        i = bisect.bisect_right(starts, at)
        assert 0 < i < len(starts)
        assert_matches_oracle(csv, man, fs)
        route = spy_routes(monkeypatch)
        read_outcome(read_session, csv, man)
        assert [(name, m > 0) for name, _, m in route["calls"]] == \
            [("grid", True)] * i + [("grid", False)] + tries + \
            [("grid", True)] * (len(starts) - i)
        # every timestamp is stored, whether the read is accepted or not
        assert np.array_equal(route["samples"][0], timestamps(lines[1:]), equal_nan=True)


@pytest.mark.parametrize("device", list(Device))
@pytest.mark.parametrize("start", ["first", "last"])
def test_grid_times_pass_the_timestamp_checks(device, start):
    # a read that stays on the grid route skips the timestamp checks: its
    # times g / fs pass them from sample 0 to the last the grid allows
    fs, n = device.fs_hz, 1 << 16
    g0 = 0 if start == "first" else protocol._GRID_END_S * fs - n
    protocol._check_timestamps("grid.csv", np.arange(g0, g0 + n) / fs, fs)


def read_time(read, path):
    """The CPU time of ``read(*path)`` on this thread, in seconds."""
    t0 = time.thread_time()
    read(*path)
    return time.thread_time() - t0


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

    @staticmethod
    def peak_over_size(csv, man):
        """The session read from ``csv`` and the peak memory traced while
        reading it, as a multiple of the file's size."""
        tracemalloc.start()
        try:
            session = read_session(csv, man)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return session, peak / csv.stat().st_size

    def test_peak_memory_is_bounded(self, long_csv):
        session, peak = self.peak_over_size(*long_csv)
        assert session.n_samples == 600 * 512
        assert peak <= 2.5

    def test_peak_memory_on_the_grid_route(self, tmp_path):
        # a generated 120 s recording as written, read on the grid route
        # throughout, so no timestamp array is made
        csv, man = tmp_path / "s.csv", tmp_path / "s.manifest.json"
        write_session(generate_session(GeneratorSpec(seed=11, duration_s=120.0)),
                      csv, man)
        session, peak = self.peak_over_size(csv, man)
        assert session.n_samples == 120 * 512
        assert peak <= 1.8

    def test_peak_memory_of_a_short_recording_on_the_grid_route(self, tmp_path):
        # a generated 40 s recording as written, the length of evaluate's
        # sessions, where one block's temporaries weigh more against the
        # file: blocks convert into arrays of their own, so none is made
        # for the whole file before the last block is read
        csv, man = tmp_path / "s.csv", tmp_path / "s.manifest.json"
        write_session(generate_session(GeneratorSpec(seed=11, duration_s=40.0)),
                      csv, man)
        session, peak = self.peak_over_size(csv, man)
        assert session.n_samples == 40 * 512
        assert peak <= 1.95

    def test_peak_memory_is_bounded_off_grid(self, tmp_path, monkeypatch):
        # a generated 120 s recording, with the grid route declined so that
        # the fixed-point route reads it: one block's temporaries weigh
        # more against a short file of short cells
        csv, man = tmp_path / "s.csv", tmp_path / "s.manifest.json"
        write_session(generate_session(GeneratorSpec(seed=11, duration_s=120.0)),
                      csv, man)
        monkeypatch.setattr(protocol, "_grid_start", lambda *args: None)
        session, peak = self.peak_over_size(csv, man)
        assert session.n_samples == 120 * 512
        assert peak <= 2.5


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

    def test_explicit_schema_must_match_vectors(self):
        with pytest.raises(ValidationError, match="explicit schema does not match"):
            write_arff([_vector([1.0, 2.0])], "x", schema=("f0", "other"))

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

    @pytest.mark.parametrize("row, error, message", [
        ("1,2,Bas", ValidationError, "unknown task label 'Bas'; expected one of: "
         "Base, Read, Text, Call, Snapshot"),
        ("1,inf,Base", SessionFormatError, "line 11: feature values must be finite"),
        ("1e999,2,Read", SessionFormatError, "line 11: feature values must be finite"),
        ("1,x,Base", SessionFormatError,
         "line 11: could not convert string to float: 'x'"),
        ("1,Base", SessionFormatError, "line 11: 2 fields, expected 3"),
    ])
    def test_read_errors(self, tmp_path, row, error, message):
        # the second data row is bad; a comment and a blank line come first
        path = tmp_path / "d.arff"
        doc = write_arff([_vector([1.0, 2.0])], "demo")
        path.write_text(doc + "% note\n\n" + row + "\n", encoding="utf-8")
        with pytest.raises(error) as info:
            read_arff(path)
        assert str(info.value).endswith(message)

    def test_read_skips_comments_and_blank_rows(self, tmp_path):
        path = tmp_path / "d.arff"
        doc = write_arff([_vector([1.0, 2.0])], "demo")
        path.write_text(doc + "% note\n\n  3,4,Call  \n", encoding="utf-8")
        assert read_arff(path) == [_vector([1.0, 2.0]),
                                   _vector([3.0, 4.0], TaskLabel.CALL)]

    def test_rewrite_is_stable(self, tmp_path):
        # quantization to %.6g is idempotent: write -> read -> write matches
        vecs = [_vector([0.123456789, 98765.4321], TaskLabel.READ)]
        path = tmp_path / "d.arff"
        first = write_arff(vecs, "demo")
        path.write_text(first, encoding="utf-8")
        second = write_arff(read_arff(path), "demo")
        assert second == first
