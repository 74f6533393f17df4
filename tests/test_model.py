"""Domain model: labels, devices, sessions, trial splitting."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from driveguard.errors import ParameterError, ValidationError
from driveguard.model import (
    ADC_MAX,
    ADC_MIN,
    BandPowers,
    Device,
    EegSample,
    EPOC_CHANNELS,
    FeatureVector,
    SubjectSession,
    TaskLabel,
    TrialSplitError,
    TrialWindow,
    split_into_trials,
)


def make_session(n_samples=4096, n_channels=1, fs=512, task=TaskLabel.BASE,
                 subject="s1", fill=None):
    if fill is None:
        rng = np.random.default_rng(0)
        raw = rng.integers(-100, 100, size=(n_channels, n_samples), dtype=np.int32)
    else:
        raw = np.full((n_channels, n_samples), fill, dtype=np.int32)
    device = Device.SINGLE_ELECTRODE_512 if fs == 512 else Device.MULTI_ELECTRODE_128
    channels = tuple(f"C{i}" for i in range(n_channels))
    return SubjectSession(subject_id=subject, task=task, device=device,
                          fs_hz=fs, channels=channels, raw=raw)


class TestTaskLabel:
    def test_canonical_order(self):
        assert [t.value for t in TaskLabel] == [
            "Base", "Read", "Text", "Call", "Snapshot"]

    def test_distraction_partition(self):
        assert not TaskLabel.BASE.is_distraction
        assert all(t.is_distraction for t in TaskLabel if t is not TaskLabel.BASE)

    def test_from_string(self):
        assert TaskLabel.from_string("Call") is TaskLabel.CALL
        with pytest.raises(ValidationError):
            TaskLabel.from_string("Driving")


class TestDevice:
    def test_sampling_rates(self):
        assert Device.SINGLE_ELECTRODE_512.fs_hz == 512
        assert Device.MULTI_ELECTRODE_128.fs_hz == 128

    def test_from_string_round_trip(self):
        for d in Device:
            assert Device.from_string(d.value) is d
        with pytest.raises(ValidationError):
            Device.from_string("Consumer256")

    def test_epoc_montage(self):
        assert len(EPOC_CHANNELS) == 14
        assert EPOC_CHANNELS[0] == "AF3" and EPOC_CHANNELS[-1] == "AF4"
        assert "FC5" in EPOC_CHANNELS and "O2" in EPOC_CHANNELS


class TestEegSample:
    def test_valid(self):
        s = EegSample(t=0.5, raw=-2048)
        assert s.t == 0.5 and s.raw == -2048

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            EegSample(t=-0.001, raw=0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        # NaN used to pass, because nan < 0 is False
        with pytest.raises(ValidationError,
                           match=f"sample timestamp must be finite and >= 0, got {t}"):
            EegSample(t=t, raw=0)

    @pytest.mark.parametrize("raw", [ADC_MIN - 1, ADC_MAX + 1])
    def test_out_of_range_raw_rejected(self, raw):
        with pytest.raises(ValidationError,
                           match=f"raw sample {raw} outside ADC range"):
            EegSample(t=0.0, raw=raw)

    @pytest.mark.parametrize("raw", [None, "12", b"\x01"])
    def test_non_number_raw_rejected(self, raw):
        # PacketParser.feed can emit a packet whose raw_value is None
        with pytest.raises(ValidationError,
                           match=f"raw sample must be a number, got {re.escape(repr(raw))}"):
            EegSample(t=0.0, raw=raw)

    def test_record_contract(self):
        # a slotted record with value equality and the dataclass repr
        s = EegSample(t=0.5, raw=3)
        assert s == EegSample(t=0.5, raw=3)
        assert s != EegSample(t=0.5, raw=4) and s != EegSample(t=1.0, raw=3)
        assert repr(s) == "EegSample(t=0.5, raw=3)"
        assert EegSample.__slots__ == ("t", "raw")
        assert not hasattr(s, "__dict__")

    def test_positional_keyword_and_dataclass_helpers(self):
        # __init__ is written by hand; it must still behave as a dataclass's
        s = EegSample(0.5, 3)
        assert s == EegSample(t=0.5, raw=3) == EegSample(0.5, raw=3)
        assert [f.name for f in dataclasses.fields(EegSample)] == ["t", "raw"]
        moved = dataclasses.replace(s, raw=-7)
        assert moved == EegSample(t=0.5, raw=-7) and s.raw == 3
        with pytest.raises(ValidationError, match="raw sample 4000 outside ADC range"):
            dataclasses.replace(s, raw=4000)
        with pytest.raises(TypeError):
            EegSample(0.5)

    def test_time_is_checked_before_raw(self):
        with pytest.raises(ValidationError,
                           match="sample timestamp must be finite and >= 0, got nan"):
            EegSample(t=math.nan, raw=None)


class TestSubjectSession:
    def test_device_rate_must_match(self):
        with pytest.raises(ValidationError):
            SubjectSession(subject_id="s", task=TaskLabel.BASE,
                           device=Device.MULTI_ELECTRODE_128, fs_hz=512,
                           channels=("C0",), raw=np.zeros((1, 10), dtype=np.int32))

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ValidationError):
            SubjectSession(subject_id="s", task=TaskLabel.BASE,
                           device=Device.SINGLE_ELECTRODE_512, fs_hz=512,
                           channels=("A", "A"),
                           raw=np.zeros((2, 10), dtype=np.int32))

    @pytest.mark.parametrize("field, value, message", [
        ("subject_id", "", "subject_id must be non-empty"),
        ("task", "Base", "task must be a TaskLabel"),
        ("device", 512, "device must be a Device"),
        ("channels", (), "at least one channel"),
        ("raw", np.zeros(10, dtype=np.int32), r"raw must be 2-D .* shape \(10,\)"),
    ])
    def test_constructor_rejections(self, field, value, message):
        fields = dict(subject_id="s", task=TaskLabel.BASE,
                      device=Device.SINGLE_ELECTRODE_512, fs_hz=512,
                      channels=("A",), raw=np.zeros((1, 10), dtype=np.int32))
        with pytest.raises(ValidationError, match=message):
            SubjectSession(**{**fields, field: value})

    def test_raw_range_enforced(self):
        with pytest.raises(ValidationError):
            make_session(fill=ADC_MAX + 1)

    def test_channel_count_must_match_rows(self):
        with pytest.raises(ValidationError):
            SubjectSession(subject_id="s", task=TaskLabel.BASE,
                           device=Device.SINGLE_ELECTRODE_512, fs_hz=512,
                           channels=("A", "B"),
                           raw=np.zeros((1, 10), dtype=np.int32))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            make_session(n_samples=0)

    def test_raw_is_frozen(self):
        sess = make_session()
        with pytest.raises(ValueError):
            sess.raw[0, 0] = 1

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_frozen(self, protocol):
        sess = make_session(n_channels=2, task=TaskLabel.CALL, subject="s4")
        back = pickle.loads(pickle.dumps(sess, protocol))
        assert back.raw.dtype == np.int32 and not back.raw.flags.writeable
        assert np.array_equal(back.raw, sess.raw)
        assert (back.subject_id, back.task, back.device, back.fs_hz, back.channels) == \
            (sess.subject_id, sess.task, sess.device, sess.fs_hz, sess.channels)

    def test_unpickling_validates(self):
        sess = make_session()
        object.__setattr__(sess, "raw", np.full((1, 4), ADC_MAX + 1))
        with pytest.raises(ValidationError, match="outside ADC range"):
            pickle.loads(pickle.dumps(sess))

    def test_times_spacing(self):
        sess = make_session(n_samples=1024)
        t = sess.times()
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 1 / 512)
        assert sess.duration_s == pytest.approx(2.0)

    def test_channel_data(self):
        sess = make_session(n_channels=3)
        assert np.array_equal(sess.channel_data("C2"), sess.raw[2])
        with pytest.raises(ValidationError):
            sess.channel_data("Cz")


class TestTrialSplitting:
    def test_counts_and_remainder_dropped(self):
        sess = make_session(n_samples=5 * 2048 + 100)
        windows = split_into_trials(sess, 4.0)
        assert len(windows) == 5

    def test_trial_major_channel_order(self):
        sess = make_session(n_samples=4096, n_channels=2)
        windows = split_into_trials(sess, 4.0)
        assert [(w.trial_index, w.channel) for w in windows] == [
            (0, "C0"), (0, "C1"), (1, "C0"), (1, "C1")]
        assert np.array_equal(windows[2].samples, sess.raw[0, 2048:4096])

    def test_window_carries_session_identity(self):
        sess = make_session(task=TaskLabel.TEXT, subject="s9")
        w = split_into_trials(sess, 4.0)[0]
        assert w.subject_id == "s9" and w.task is TaskLabel.TEXT
        assert w.fs_hz == 512 and w.duration_s == 4.0

    def test_too_short_session_raises(self):
        sess = make_session(n_samples=2047)
        with pytest.raises(TrialSplitError):
            split_into_trials(sess, 4.0)

    @pytest.mark.parametrize("bad", [2.9, 5.1, 0.0])
    def test_duration_bounds(self, bad):
        sess = make_session()
        with pytest.raises(ParameterError):
            split_into_trials(sess, bad)

    def test_samples_are_frozen(self):
        w = split_into_trials(make_session(), 4.0)[0]
        with pytest.raises(ValueError):
            w.samples[0] = 1

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_frozen(self, protocol):
        w = split_into_trials(make_session(n_samples=4096), 4.0)[1]
        back = pickle.loads(pickle.dumps(w, protocol))
        assert back.samples.dtype == np.int32 and not back.samples.flags.writeable
        assert np.array_equal(back.samples, w.samples)
        assert (back.subject_id, back.task, back.channel, back.fs_hz,
                back.duration_s, back.trial_index) == \
            (w.subject_id, w.task, w.channel, w.fs_hz, w.duration_s, w.trial_index)

    def test_window_length_validated(self):
        with pytest.raises(ValidationError):
            TrialWindow(subject_id="s", task=TaskLabel.BASE, channel="C0",
                        fs_hz=512, duration_s=4.0, trial_index=0,
                        samples=np.zeros(100, dtype=np.int32))


class TestBandPowers:
    def test_accessors(self):
        bp = BandPowers(1.0, 2.0, 3.0, 4.0, 5.0)
        assert bp.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert bp.beta == 4.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValidationError):
            BandPowers(1.0, 1.0, bad, 1.0, 1.0)


class TestFeatureVector:
    def test_fields_are_tuples(self):
        v = FeatureVector(values=(1.0, 2.0), schema=("a", "b"),
                          label=TaskLabel.READ)
        assert isinstance(v.values, tuple) and isinstance(v.schema, tuple)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match=re.escape(
                "feature vector has 1 values but schema names 2")):
            FeatureVector(values=(1.0,), schema=("a", "b"),
                          label=TaskLabel.READ)

    def test_values_are_floats_and_names_are_strings(self):
        v = FeatureVector(values=np.array([1, 2.5], dtype=np.float32),
                          schema=(np.str_("a"), 7), label=TaskLabel.READ)
        assert v.values == (1.0, 2.5) and v.schema == ("a", "7")
        assert [type(x) for x in v.values] == [float, float]
        assert [type(s) for s in v.schema] == [str, str]
        v = FeatureVector(values=(np.float64(0.25), np.int64(3)), schema=("a", "b"),
                          label=TaskLabel.READ)
        assert [type(x) for x in v.values] == [float, float]

    def test_bad_value_and_label_errors(self):
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            FeatureVector(values=("x",), schema=("a",), label=TaskLabel.READ)
        with pytest.raises(TypeError):
            FeatureVector(values=(None,), schema=("a",), label=TaskLabel.READ)
        with pytest.raises(ValidationError, match="label must be a TaskLabel"):
            FeatureVector(values=(1.0,), schema=("a",), label="Read")
