"""Wire framing, ADC conversion, session files, and ARFF export."""

import json

import numpy as np
import pytest

from driveguard.errors import ValidationError
from driveguard.model import Device, EPOC_CHANNELS, FeatureVector, SubjectSession, TaskLabel
from driveguard.protocol import (
    MAX_PAYLOAD,
    PacketError,
    PacketParser,
    SessionFormatError,
    UV_PER_COUNT,
    VOLTS_PER_COUNT,
    checksum,
    decode_stream,
    encode_packet,
    packets_to_samples,
    raw_to_microvolts,
    raw_to_voltage,
    read_manifest,
    read_session,
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
            packets, parser = decode_stream(encode_packet(value))
            assert len(packets) == 1
            assert packets[0].raw_value == value
            assert parser.corrupt_frames == 0


class TestParserRobustness:
    def test_split_points_do_not_matter(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-2048, 2048, size=200)
        stream = b"".join(encode_packet(int(v)) for v in values)
        whole, _ = decode_stream(stream)
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
        packets, parser = decode_stream(stream)
        assert [p.raw_value for p in packets] == [7]

    def test_sync_runs_between_frames(self):
        # long 0xAA runs look like sync+sync+len==0xAA; parser must slide
        stream = encode_packet(3) + b"\xaa" * 7 + encode_packet(-3)
        packets, parser = decode_stream(stream)
        assert [p.raw_value for p in packets] == [3, -3]

    def test_oversized_length_counts_corrupt(self):
        stream = bytes([0xAA, 0xAA, MAX_PAYLOAD + 1, 0, 0]) + encode_packet(9)
        packets, parser = decode_stream(stream)
        assert [p.raw_value for p in packets] == [9]
        assert parser.corrupt_frames == 1

    def test_corrupted_checksum_recovers_later_frames(self):
        good = encode_packet(11)
        bad = bytearray(encode_packet(22))
        bad[-1] ^= 0xFF
        stream = bytes(bad) + good + good
        packets, parser = decode_stream(stream)
        assert [p.raw_value for p in packets] == [11, 11]
        assert parser.corrupt_frames >= 1

    def test_valid_frame_inside_corrupt_candidate_recovered(self):
        # 0xAA 0xAA <len> ... where the framed bytes are garbage, but a
        # real packet begins inside the would-be payload
        inner = encode_packet(99)
        stream = bytes([0xAA, 0xAA, 30]) + inner + b"\x00" * 23
        packets, parser = decode_stream(stream)
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
        packets, parser = decode_stream(frame)
        assert len(packets) == 1
        assert packets[0].raw_value is None
        assert parser.corrupt_frames == 0


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

    def test_packet_stream_is_single_channel_only(self):
        with pytest.raises(PacketError):
            session_to_packets(self.make_session(n=16, n_channels=2, fs=128))


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
