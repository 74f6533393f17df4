"""Domain model: labels, devices, sessions, trial splitting."""

import math

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
    dataset_summary,
    split_into_trials,
    summary_text,
    trial_count,
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

    def test_record_contract(self):
        # a slotted record with value equality and the dataclass repr
        s = EegSample(t=0.5, raw=3)
        assert s == EegSample(t=0.5, raw=3)
        assert s != EegSample(t=0.5, raw=4) and s != EegSample(t=1.0, raw=3)
        assert repr(s) == "EegSample(t=0.5, raw=3)"
        assert EegSample.__slots__ == ("t", "raw")
        assert not hasattr(s, "__dict__")


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
        assert trial_count(sess, 4.0) == 5

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

    def test_window_length_validated(self):
        with pytest.raises(ValidationError):
            TrialWindow(subject_id="s", task=TaskLabel.BASE, channel="C0",
                        fs_hz=512, duration_s=4.0, trial_index=0,
                        samples=np.zeros(100, dtype=np.int32))


class TestDatasetSummary:
    def test_counts_per_subject_and_task(self):
        sessions = [
            make_session(n_samples=4096, subject="a", task=TaskLabel.BASE),
            make_session(n_samples=4096, subject="a", task=TaskLabel.BASE),
            make_session(n_samples=2048, subject="a", task=TaskLabel.READ),
            make_session(n_samples=6144, subject="b", task=TaskLabel.CALL),
        ]
        table = dataset_summary(sessions, 4.0)
        assert table["a"][TaskLabel.BASE] == 4
        assert table["a"][TaskLabel.READ] == 1
        assert table["b"][TaskLabel.CALL] == 3

    def test_too_short_counts_zero_instead_of_raising(self):
        table = dataset_summary([make_session(n_samples=100)], 4.0)
        assert table["s1"][TaskLabel.BASE] == 0

    def test_summary_text_layout(self):
        table = dataset_summary([make_session(n_samples=4096)], 4.0)
        text = summary_text(table)
        lines = text.splitlines()
        assert lines[0].split() == [
            "subject", "Base", "Read", "Text", "Call", "Snapshot", "total"]
        assert lines[1].split() == ["s1", "2", "0", "0", "0", "0", "2"]


class TestBandPowers:
    def test_accessors(self):
        bp = BandPowers(1.0, 2.0, 3.0, 4.0, 5.0)
        assert bp.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert bp.as_dict()["beta"] == 4.0

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
        with pytest.raises(ValidationError):
            FeatureVector(values=(1.0,), schema=("a", "b"),
                          label=TaskLabel.READ)
