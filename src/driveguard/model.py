"""Core domain types for single- and multi-electrode EEG driving sessions.

A recording session holds one raw ADC stream per electrode at a fixed
sampling rate. Analysis operates on fixed-length trial windows cut from
those streams, and on the per-band spectral powers computed from each
window.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError

# 12-bit signed ADC output range of the headset front end
ADC_MIN = -2048
ADC_MAX = 2047

# electrode names of the 14-channel headset, in its fixed montage order
EPOC_CHANNELS = (
    "AF3", "F7", "F3", "FC5", "T7", "P7", "O1",
    "O2", "P8", "T8", "FC6", "F4", "F8", "AF4",
)

DEFAULT_TRIAL_SECONDS = 4.0
MIN_TRIAL_SECONDS = 3.0
MAX_TRIAL_SECONDS = 5.0


def _member_by_value(enum_cls, name: str, what: str):
    for member in enum_cls:
        if member.value == name:
            return member
    valid = ", ".join(m.value for m in enum_cls)
    raise ValidationError(f"unknown {what} {name!r}; expected one of: {valid}")


class TaskLabel(enum.Enum):
    """Driving condition during a recording.

    Base is ordinary undistracted driving and is the sole negative class
    of the two-class problem; the other four are distraction tasks.
    Enum order is the canonical class order everywhere (stratification,
    tie breaks, ARFF class declarations).
    """

    BASE = "Base"
    READ = "Read"
    TEXT = "Text"
    CALL = "Call"
    SNAPSHOT = "Snapshot"

    @property
    def is_distraction(self):
        return self is not TaskLabel.BASE

    @classmethod
    def from_string(cls, name: str) -> "TaskLabel":
        return _member_by_value(cls, name, "task label")


DISTRACTION_TASKS = tuple(t for t in TaskLabel if t.is_distraction)


class Device(enum.Enum):
    """Supported acquisition hardware, each pinned to one sampling rate."""

    SINGLE_ELECTRODE_512 = "SingleElectrode512"
    MULTI_ELECTRODE_128 = "MultiElectrode128"

    @property
    def fs_hz(self) -> int:
        return 512 if self is Device.SINGLE_ELECTRODE_512 else 128

    @classmethod
    def from_string(cls, name: str) -> "Device":
        return _member_by_value(cls, name, "device")


@dataclass(slots=True)
class EegSample:
    """One timestamped ADC reading from a single electrode.

    A slotted record, not a frozen one: a frozen dataclass's ``__init__``
    writes each field through ``object.__setattr__``, which would double
    the cost of the one record built per streamed sample.
    """

    t: float
    raw: int

    def __post_init__(self):
        # the checks' functions are called only to raise
        if not 0 <= self.t < math.inf:
            check_timestamp(self.t)
        try:
            if not ADC_MIN <= self.raw <= ADC_MAX:
                check_adc_range(self.raw, self.raw)
        except TypeError:  # a value that does not compare with numbers
            raise ValidationError(
                f"raw sample must be a number, got {self.raw!r}") from None


def check_timestamp(t):
    """Raise ValidationError unless ``t`` is a finite time >= 0 s."""
    if not 0 <= t < math.inf:
        raise ValidationError(f"sample timestamp must be finite and >= 0, got {t}")


def check_adc_range(lo, hi, error=ValidationError, what="raw sample"):
    """Raise ``error`` unless counts ``lo`` to ``hi`` lie in the ADC range.

    One count is passed as both bounds (an array as its min and max).
    """
    if not (ADC_MIN <= lo and hi <= ADC_MAX):
        bad = hi if ADC_MIN <= lo else lo
        raise error(f"{what} {bad} outside ADC range [{ADC_MIN}, {ADC_MAX}]")


def _freeze_array(obj, name, arr):
    arr = np.asarray(arr)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class SubjectSession:
    """One continuous recording of one subject performing one task.

    raw has shape (channels, samples) and dtype int32. Timestamps are
    implicit: sample i of every channel is at i / fs_hz seconds.
    """

    subject_id: str
    task: TaskLabel
    device: Device
    fs_hz: int
    channels: tuple
    raw: np.ndarray

    def __post_init__(self):
        if not self.subject_id:
            raise ValidationError("subject_id must be non-empty")
        if not isinstance(self.task, TaskLabel):
            raise ValidationError(f"task must be a TaskLabel, got {self.task!r}")
        if not isinstance(self.device, Device):
            raise ValidationError(f"device must be a Device, got {self.device!r}")
        if self.fs_hz != self.device.fs_hz:
            raise ValidationError(
                f"fs {self.fs_hz} Hz does not match device "
                f"{self.device.value} ({self.device.fs_hz} Hz)"
            )
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if not channels:
            raise ValidationError("session must have at least one channel")
        if len(set(channels)) != len(channels):
            raise ValidationError(f"duplicate channel names in {channels}")
        raw = np.asarray(self.raw, dtype=np.int32)
        if raw.ndim != 2:
            raise ValidationError(f"raw must be 2-D (channels, samples), got shape {raw.shape}")
        if raw.shape[0] != len(channels):
            raise ValidationError(
                f"raw has {raw.shape[0]} rows but session declares {len(channels)} channels"
            )
        if raw.shape[1] == 0:
            raise ValidationError("session contains no samples")
        check_adc_range(raw.min(), raw.max(), what="raw samples")
        _freeze_array(self, "raw", raw)

    @property
    def n_samples(self) -> int:
        return self.raw.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs_hz

    def times(self) -> np.ndarray:
        """Per-sample timestamps in seconds since session start."""
        return np.arange(self.n_samples) / self.fs_hz

    def channel_data(self, channel: str) -> np.ndarray:
        try:
            idx = self.channels.index(channel)
        except ValueError:
            raise ValidationError(
                f"channel {channel!r} not in session channels {self.channels}"
            ) from None
        return self.raw[idx]


@dataclass(frozen=True)
class TrialWindow:
    """A fixed-duration single-channel slice of a session."""

    subject_id: str
    task: TaskLabel
    channel: str
    fs_hz: int
    duration_s: float
    trial_index: int
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.int32)
        expected = int(round(self.duration_s * self.fs_hz))
        if samples.ndim != 1 or samples.shape[0] != expected:
            raise ValidationError(
                f"trial window must hold round(duration*fs)={expected} samples, "
                f"got shape {samples.shape}"
            )
        if samples.size:
            check_adc_range(samples.min(), samples.max(), what="trial samples")
        _freeze_array(self, "samples", samples)


class TrialSplitError(ValidationError):
    """Session too short to yield even one trial window."""


def _trial_sample_count(trial_seconds, fs_hz):
    if not (MIN_TRIAL_SECONDS <= trial_seconds <= MAX_TRIAL_SECONDS):
        raise ParameterError(
            f"trial_seconds must lie in [{MIN_TRIAL_SECONDS}, {MAX_TRIAL_SECONDS}], "
            f"got {trial_seconds}"
        )
    return int(round(trial_seconds * fs_hz))


def trial_stack(session: SubjectSession, trial_seconds: float = DEFAULT_TRIAL_SECONDS):
    """A session's whole trials as one read-only ``(channels, trials, n)``
    view of ``session.raw``, channels in session order; a trailing partial
    trial is left out. A session shorter than one trial raises
    TrialSplitError, since that always indicates a misconfigured recording.
    """
    n_per = _trial_sample_count(trial_seconds, session.fs_hz)
    n_trials = session.n_samples // n_per
    if n_trials == 0:
        raise TrialSplitError(
            f"session has {session.n_samples} samples "
            f"({session.duration_s:.2f} s) but one {trial_seconds} s trial "
            f"needs {n_per}"
        )
    return session.raw[:, :n_trials * n_per].reshape(len(session.channels), n_trials, n_per)


def split_into_trials(session: SubjectSession, trial_seconds: float = DEFAULT_TRIAL_SECONDS):
    """Cut a session into consecutive non-overlapping trial windows.

    Returns the windows of ``trial_stack`` trial-major: all channels of
    trial 0, then all channels of trial 1, and so on, channels in session
    order.
    """
    stack = trial_stack(session, trial_seconds)
    return [
        TrialWindow(
            subject_id=session.subject_id,
            task=session.task,
            channel=channel,
            fs_hz=session.fs_hz,
            duration_s=trial_seconds,
            trial_index=i,
            samples=stack[ch_idx, i],
        )
        for i in range(stack.shape[1])
        for ch_idx, channel in enumerate(session.channels)
    ]


def trial_count(session: SubjectSession, trial_seconds: float = DEFAULT_TRIAL_SECONDS) -> int:
    """Number of whole trials a session yields; 0 if shorter than one trial."""
    n_per = _trial_sample_count(trial_seconds, session.fs_hz)
    return session.n_samples // n_per


def dataset_summary(sessions, trial_seconds: float = DEFAULT_TRIAL_SECONDS):
    """Tabulate trial counts per subject and task.

    Returns {subject_id: {TaskLabel: trial_count}}. Unlike
    split_into_trials, a too-short session is reported as contributing
    zero trials instead of raising, so the summary can describe any
    dataset it is handed.
    """
    table: dict = {}
    for session in sessions:
        per_subject = table.setdefault(session.subject_id, {})
        count = trial_count(session, trial_seconds)
        per_subject[session.task] = per_subject.get(session.task, 0) + count
    return table


def summary_text(table) -> str:
    """Render a dataset_summary table as aligned text, one subject per row."""
    tasks = list(TaskLabel)
    header = ["subject"] + [t.value for t in tasks] + ["total"]
    rows = [header]
    for subject in sorted(table):
        counts = [table[subject].get(t, 0) for t in tasks]
        rows.append([subject] + [str(c) for c in counts] + [str(sum(counts))])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


@dataclass(frozen=True)
class BandPowers:
    """Mean spectral power per canonical EEG band, in uV^2/Hz."""

    delta: float
    theta: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("delta", "theta", "alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"band power {name}={v} must be finite and >= 0")

    def as_tuple(self):
        return (self.delta, self.theta, self.alpha, self.beta, self.gamma)


BAND_NAMES = ("delta", "theta", "alpha", "beta", "gamma")


@dataclass(frozen=True)
class FeatureVector:
    """A labelled numeric feature row with a named schema."""

    values: tuple
    schema: tuple
    label: TaskLabel

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        schema = tuple(str(s) for s in self.schema)
        if len(values) != len(schema):
            raise ValidationError(
                f"feature vector has {len(values)} values but schema names {len(schema)}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "schema", schema)
        if not isinstance(self.label, TaskLabel):
            raise ValidationError(f"label must be a TaskLabel, got {self.label!r}")


def shared_schema(vectors) -> tuple:
    """The schema every FeatureVector of the non-empty sequence ``vectors``
    has; ValidationError when two disagree."""
    first = vectors[0].schema
    for v in vectors[1:]:
        if v.schema != first:
            raise ValidationError(
                "feature vectors disagree on schema: "
                f"{first[:3]}... vs {v.schema[:3]}..."
            )
    return first
