"""Real-time distraction detector over a single-electrode raw stream.

A sliding window of the most recent samples is re-scored once per hop
(1 Hz by default) into a row of band powers and distraction index, and
``judge_hop`` checks the row against a per-subject calibration profile.
A hop alerts when any configured criterion crosses its threshold; alerts
are structured events, rate-limited by a refractory period.

The detector keeps only the current window and its latest hop, so
arbitrarily long streams run in constant space. ``replay_session`` cuts
the same windows directly from a stored session array and must produce
identical alerts and hop trace; tests rely on the two routes cutting
windows independently. The block routes (``feed_block``, ``replay_session``
and calibration) score stacks of windows with ``score_windows``; the
per-sample route scores its hop's one window with ``band_power_rows`` and
the scalar ``di_value``, which give that window ``score_windows``' row bit
for bit. Every route judges rows with ``judge_hop``, whose rule calibration
searches over and ``evaluate_profile`` scores, and checks the refractory
period first, so a hop it suppresses is never judged.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

# perfbench/tracing.py rebinds stream.band_powers_from_samples and
# stream.distraction_index, so keep both imported
from .dsp import SCORE_STACK, band_power_rows, band_powers_from_samples  # noqa: F401
from .errors import ParameterError, ValidationError
from .index import di_rows, di_value, distraction_index  # noqa: F401
from .model import (ADC_MAX, ADC_MIN, BAND_NAMES, EegSample, SubjectSession,
                    check_timestamp)
from .protocol import json_number

STREAM_FS_HZ = 512
DEFAULT_WINDOW_S = 4.0
DEFAULT_HOP_S = 1.0
MIN_WINDOW_S = 2.0
# the longest window or hop, which bounds the detector's buffer (14 MiB at 512 Hz)
MAX_SPAN_S = 3600.0
DI_KEY = "di"


class SequencingError(ValidationError):
    """Sample arrived with a timestamp earlier than its predecessor."""


class CalibrationError(ValidationError):
    """Calibration inputs unusable (wrong labels, no windows, fs mismatch)."""


# ---------------------------------------------------------------------------
# profile


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-subject alert thresholds and detector timing.

    ``band_thresholds`` maps band name to a power threshold in uV^2/Hz;
    bands without an entry are never checked. ``di_threshold`` of None
    disables the index criterion. A hop alerts when any configured
    criterion crosses its threshold.
    """

    subject_id: str
    band_thresholds: dict
    di_threshold: float | None = None
    refractory_s: float = 2.0
    window_s: float = DEFAULT_WINDOW_S
    hop_s: float = DEFAULT_HOP_S

    def __post_init__(self):
        for band, thr in self.band_thresholds.items():
            if band not in BAND_NAMES:
                raise ParameterError(f"unknown band {band!r} in thresholds")
            if not (np.isfinite(thr) or thr == math.inf) or not thr > 0:
                raise ParameterError(f"threshold for {band} must be > 0, got {thr}")
        if self.di_threshold is not None and not self.di_threshold > 0:
            raise ParameterError(f"DI threshold must be > 0, got {self.di_threshold}")
        # "not <=" also catches NaN
        if not MIN_WINDOW_S <= self.window_s <= MAX_SPAN_S:
            raise ParameterError(f"window_s must lie in [{MIN_WINDOW_S}, {MAX_SPAN_S}] s, "
                                 f"got {self.window_s}")
        if not 0 < self.hop_s <= MAX_SPAN_S:
            raise ParameterError(f"hop_s must lie in (0, {MAX_SPAN_S}] s, got {self.hop_s}")
        if not (math.isfinite(self.refractory_s) and self.refractory_s >= self.hop_s):
            raise ParameterError(
                f"refractory {self.refractory_s} s must be finite and >= hop {self.hop_s} s")

    def sample_counts(self, fs_hz: int) -> tuple:
        """(window, hop) lengths in samples at ``fs_hz``; both must be whole."""
        win_n = self.window_s * fs_hz
        hop_n = self.hop_s * fs_hz
        if abs(win_n - round(win_n)) > 1e-9 or abs(hop_n - round(hop_n)) > 1e-9:
            raise ParameterError(
                f"window/hop of {self.window_s}/{self.hop_s} s are not "
                f"whole sample counts at {fs_hz} Hz")
        return int(round(win_n)), int(round(hop_n))

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationProfile":
        """The profile a JSON object describes: every key must be a field,
        and every threshold and timing a JSON number. A ``combine`` key,
        which older profiles hold, is read only as ``"or"``."""
        if unknown := sorted(d.keys() - {f.name for f in fields(cls)} - {"combine"}):
            raise ValidationError(f"profile has unknown fields {unknown}")
        if d.get("combine", "or") != "or":
            raise ValidationError(f'profile combine must be "or", got {d["combine"]!r}')
        try:
            bands, di = d["band_thresholds"], d.get("di_threshold")
            if not isinstance(bands, dict):
                raise ValidationError(
                    f"profile band_thresholds must be an object, got {bands!r}")
            if not isinstance(subject := d["subject_id"], str):
                raise ValidationError(f"profile subject_id must be a string, got {subject!r}")
            number = functools.partial(json_number, what="profile")
            return cls(subject_id=subject,
                       band_thresholds={b: number(bands, b) for b in bands},
                       di_threshold=None if di is None else number(d, "di_threshold"),
                       refractory_s=number(d, "refractory_s", default=2.0),
                       window_s=number(d, "window_s", default=DEFAULT_WINDOW_S),
                       hop_s=number(d, "hop_s", default=DEFAULT_HOP_S))
        except KeyError as exc:
            raise ValidationError(f"profile missing field {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# events and hop rows


@dataclass(frozen=True)
class AlertEvent:
    """One threshold crossing, emitted at a hop boundary.

    ``trigger`` lists the criteria that crossed ('delta'..'gamma', 'di');
    ``observed`` maps every configured criterion to its value at trigger
    time. ``severity`` is the instantaneous distraction index (None when
    the index is undefined for the window).
    """

    t: float
    trigger: tuple
    observed: dict
    severity: float | None

    def to_dict(self) -> dict:
        return {"t": self.t, "trigger": list(self.trigger),
                "observed": dict(self.observed), "severity": self.severity}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# the columns of a trace: one row per hop, its end time and then its hop row
TRACE_HEADER = "t_s,delta,theta,alpha,beta,gamma,di"


def trace_line(hop) -> str:
    """The CSV line of one trace row, in ``TRACE_HEADER``'s columns; the DI
    cell is empty where the DI is undefined."""
    t, *powers, di = hop
    return ",".join([f"{t:.9f}", *(f"{v:.9g}" for v in powers),
                     "" if math.isnan(di) else f"{di:.9g}"]) + "\n"


def score_windows(windows, fs_hz: int) -> np.ndarray:
    """The hop row of each window of an ``(m, n)`` stack of raw samples:
    its five band powers, then its DI, NaN where the DI is undefined."""
    rows = np.empty((len(windows), 6))
    for i in range(0, len(windows), SCORE_STACK):
        powers = band_power_rows(windows[i:i + SCORE_STACK], fs_hz)
        rows[i:i + SCORE_STACK, :5] = powers
        rows[i:i + SCORE_STACK, 5] = di_rows(powers)
    return rows


def _row_di(row):
    return None if math.isnan(row[5]) else row[5]


def judge_hop(row, profile: CalibrationProfile):
    """``(trigger, observed)`` for one hop row of six floats: the criteria
    that crossed, bands in band order then 'di', and each criterion's
    value, in the profile's order (DI None where undefined). The hop
    alerts when ``trigger`` is not empty."""
    thresholds = profile.band_thresholds
    trigger = [band for band, value in zip(BAND_NAMES, row)
               if band in thresholds and value > thresholds[band]]
    observed = {band: row[BAND_NAMES.index(band)] for band in thresholds}
    if profile.di_threshold is not None:
        observed[DI_KEY] = _row_di(row)
        if row[5] > profile.di_threshold:  # False for NaN
            trigger.append(DI_KEY)
    return tuple(trigger), observed


def _hop_alert(t: float, row, last_alert_t: float | None,
               profile: CalibrationProfile):
    """The alert that hop row ``row`` at ``t`` raises, or None: within the
    refractory period since ``last_alert_t``, checked before the row is
    judged, or no alert."""
    if last_alert_t is not None and t - last_alert_t < profile.refractory_s - 1e-9:
        return None
    trigger, observed = judge_hop(row, profile)
    if not trigger:
        return None
    return AlertEvent(t=t, trigger=trigger, observed=observed, severity=_row_di(row))


# ---------------------------------------------------------------------------
# streaming detector


class DetectorState:
    """Single-owner detector memory: one window, the latest hop, alert timing.

    ``_buf`` is one linear buffer of ``_size = hop_n + win_n`` samples, of
    which the first ``_fill`` are written. The first window fills it from
    offset ``hop_n``. A hop is due when the buffer is full, and its window is
    always the contiguous slice ``_buf[hop_n:]``; after it the last
    ``win_n`` samples move to the front and the next ``hop_n`` samples
    fill the rest, whether the hop is shorter or longer than the window.
    Feeding a sample is O(1) and each hop touches only the buffer.
    ``_hops`` counts the hops taken, and ``last_hop`` is the latest one's
    trace row as a 7-tuple (None before the first hop).
    """

    __slots__ = ("profile", "fs_hz", "win_n", "hop_n", "_buf", "_size", "_fill",
                 "_hops", "_prev_t", "last_hop", "last_alert_t")

    def __init__(self, profile: CalibrationProfile, fs_hz: int = STREAM_FS_HZ):
        if not (0 < fs_hz < math.inf and fs_hz == int(fs_hz)):
            raise ParameterError(f"fs must be finite and positive, in whole Hz, got {fs_hz}")
        self.win_n, self.hop_n = profile.sample_counts(fs_hz)
        self.profile = profile
        self.fs_hz = int(fs_hz)
        self._size = self.hop_n + self.win_n
        self._buf = np.zeros(self._size, dtype=np.int32)
        self._fill = self.hop_n
        self._hops = 0
        self._prev_t = -math.inf
        self.last_hop = None
        self.last_alert_t = None

    @property
    def samples_seen(self) -> int:
        return self._hops * self.hop_n + self._fill - self.hop_n


def _judge(state: DetectorState, t: float, row):
    """Take hop row ``row`` of the window ending at ``t``, the hop boundary
    both feeding routes reach: replaces ``state.last_hop`` and returns the
    alert, if any."""
    state.last_hop = (t, *row)
    alert = _hop_alert(t, row, state.last_alert_t, state.profile)
    if alert is not None:
        state.last_alert_t = t
    return alert


def process_sample(state: DetectorState, sample: EegSample):
    """Advance the detector by one sample.

    Returns ``(state, alert)`` where ``alert`` is None except at hop
    boundaries where a configured criterion crossed its threshold and
    the refractory period since the previous alert has elapsed. Each hop
    boundary replaces ``state.last_hop``. This is the route for samples
    that arrive one at a time; ``feed_block`` takes arrays. A hop scores
    its one window with ``band_power_rows`` and ``di_value``, which give
    the row ``score_windows`` gives that window, without its stack handling.
    """
    t = sample.t
    # "not >=" also stops a NaN set on a sample after its checks ran
    if not t >= state._prev_t:
        raise SequencingError(f"sample at t={t} precedes previous t={state._prev_t}")
    state._prev_t = t
    buf = state._buf
    fill = state._fill
    buf[fill] = sample.raw
    fill += 1
    if fill < state._size:
        state._fill = fill
        return state, None
    window = buf[state.hop_n:]
    row = band_power_rows(window, state.fs_hz).tolist()
    row.append(di_value(row))
    alert = _judge(state, t, row)
    buf[:state.win_n] = window
    state._fill = state.win_n
    state._hops += 1
    return state, alert


def feed_block(state: DetectorState, raw, t0: float):
    """Advance the detector by an array of raw samples, sample j at t0 + j / fs.

    Leaves ``state`` as feeding the same samples one by one through
    ``process_sample`` would. The buffer's written samples followed by the
    block are cast into one array, as the buffer casts; the window of
    every hop the block completes is a contiguous slice of it, and the
    windows are scored as one strided stack by ``score_windows`` and
    judged in order. What is left after the last hop goes back to the
    front of the buffer. The per-sample checks are made once for the
    block, before anything changes: ``t0`` must be finite, >= 0 and not
    precede the previous sample, the block must be 1-D, and the first raw
    value that ``EegSample`` rejects, in stream order, is reported as it
    reports it. An empty block changes nothing. Returns ``(alerts, trace)``,
    the trace row of every hop the block completed as a ``(hops, 7)`` array
    in ``TRACE_HEADER``'s columns.
    """
    raw = np.asarray(raw)
    n = raw.size
    alerts = []
    if n == 0:
        return alerts, np.empty((0, 7))
    check_timestamp(t0)
    if t0 < state._prev_t:
        raise SequencingError(f"sample at t={t0} precedes previous t={state._prev_t}")
    if raw.ndim != 1:
        raise ValidationError(f"raw samples must be a 1-D block, got shape {raw.shape}")
    if raw.dtype.kind in "biuf":
        # "not in range" also catches NaN
        bad = np.flatnonzero(~((raw >= ADC_MIN) & (raw <= ADC_MAX)))
        suspects = raw[bad[:1]]
    else:
        # strings and objects: every value, as the per-sample route sees it
        suspects = raw
    for value in suspects.tolist():
        EegSample(t0, value)
    buf, fill, hop_n, fs = state._buf, state._fill, state.hop_n, state.fs_hz
    samples = np.concatenate([buf[:fill], raw], dtype=buf.dtype, casting="unsafe")
    # the offsets in ``samples`` just past each hop the block completes
    ends = np.arange(buf.size, samples.size + 1, hop_n)
    trace = np.empty((ends.size, 7))
    if ends.size:
        trace[:, 0] = t0 + (ends - fill - 1) / fs
        trace[:, 1:] = score_windows(np.lib.stride_tricks.sliding_window_view(
            samples[hop_n:ends[-1]], state.win_n)[::hop_n], fs)
    for t, *row in trace.tolist():
        alert = _judge(state, t, row)
        if alert is not None:
            alerts.append(alert)
    state._fill = keep = samples.size - ends.size * hop_n
    buf[:keep] = samples[-keep:]
    state._hops += ends.size
    state._prev_t = t0 + (n - 1) / fs
    return alerts, trace


def stream_samples(raw, profile: CalibrationProfile):
    """Feed raw ADC samples through a fresh detector, sample i at i / 512 s.

    Returns ``(alerts, trace)`` as ``feed_block`` does, the trace holding
    a row for every hop the detector evaluated, as ``replay_session``'s does.
    """
    return feed_block(DetectorState(profile), raw, 0.0)


# ---------------------------------------------------------------------------
# batch replay


def stream_channel(session: SubjectSession) -> np.ndarray:
    """The one 512 Hz channel of a stored session, as the detector scores it."""
    if session.fs_hz != STREAM_FS_HZ:
        raise ValidationError(
            f"detector expects a {STREAM_FS_HZ} Hz stream, session is "
            f"{session.fs_hz} Hz")
    if len(session.channels) != 1:
        raise ValidationError(
            f"detector expects a single-electrode session, got "
            f"{len(session.channels)} channels")
    return session.raw[0]


def _stored_rows(session: SubjectSession, profile: CalibrationProfile):
    """The ``(hops, 6)`` rows of a stored session's windows, cut directly from
    the session array rather than by delegating to the streaming path."""
    data = stream_channel(session)
    win_n, hop_n = profile.sample_counts(session.fs_hz)
    if data.size < win_n:
        return np.empty((0, 6))
    return score_windows(np.lib.stride_tricks.sliding_window_view(data, win_n)[::hop_n],
                         session.fs_hz)


def replay_session(session: SubjectSession, profile: CalibrationProfile):
    """Score a stored session offline.

    Returns ``(alerts, trace)``: the same alert sequence that streaming
    the samples through ``process_sample`` yields, plus the trace row of
    every evaluated window, a ``(hops, 7)`` array in ``TRACE_HEADER``'s
    columns.
    """
    rows = _stored_rows(session, profile)
    win_n, hop_n = profile.sample_counts(session.fs_hz)
    ends = np.arange(win_n, session.n_samples + 1, hop_n)
    trace = np.column_stack([(ends - 1) / session.fs_hz, rows])
    alerts = []
    for t, *row in trace.tolist():
        alert = _hop_alert(t, row, alerts[-1].t if alerts else None, profile)
        if alert is not None:
            alerts.append(alert)
    return alerts, trace


def stream_session(session: SubjectSession, profile: CalibrationProfile):
    """Stream a stored session's channel through the detector, as ``stream_samples``."""
    return stream_samples(stream_channel(session), profile)


# ---------------------------------------------------------------------------
# threshold calibration


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a threshold search.

    ``ok`` is False when no threshold combination reached ``min_f1``;
    the profile then still carries the best thresholds found, and ``f1``
    reports the best achievable window-level score. ``n_windows`` rows
    were searched, ``n_base`` of them Base and ``n_positive`` distraction;
    ``f1_always_alert`` is the score of alerting on every window, 2/3
    when both labels have rows, against which ``f1`` can be read.
    """

    ok: bool
    f1: float
    profile: CalibrationProfile
    n_windows: int
    n_positive: int
    n_base: int
    f1_always_alert: float
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _hop_feature_rows(sessions, profile: CalibrationProfile):
    """The stored hop rows of every session on the profile's window and
    hop, plus each row's distraction label; CalibrationError without a row."""
    rows = [np.empty((0, 6))]
    labels = [np.empty(0, dtype=bool)]
    for session in sessions:
        rows.append(_stored_rows(session, profile))
        labels.append(np.full(len(rows[-1]), session.task.is_distraction))
    if not sum(map(len, rows)):
        raise CalibrationError("sessions yielded no analysis windows")
    return np.concatenate(rows), np.concatenate(labels)


def _f1(tp, fp, fn, truth):
    """F1 from integer true-positive, false-positive and false-negative row
    counts of a prediction of the labels ``truth``, with both labels
    weighing the same whatever the ratio of recording lengths: each Base
    row counts as many times as there are distraction rows, and each
    distraction row as many times as there are Base rows (once if a label
    has none), in integers. 0 without a true positive. With as many rows
    of each label, every ratio is the unweighted F1's rational, so the
    result is its double."""
    n_distraction = int(np.count_nonzero(truth))
    base, distraction = max(n_distraction, 1), max(truth.size - n_distraction, 1)
    tp, fp, fn = distraction * tp, base * fp, distraction * fn
    with np.errstate(invalid="ignore"):  # 0/0 only where tp == 0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2.0 * precision * recall / (precision + recall)
    return np.where(tp > 0, f1, 0.0)


def _count_above(values, thresholds):
    """How many of ``values`` exceed each threshold; NaN never does."""
    values = np.sort(values[~np.isnan(values)])
    return values.size - np.searchsorted(values, thresholds, side="right")


def _candidate_thresholds(values, max_candidates):
    """Midpoints between consecutive distinct finite values."""
    uniq = np.unique(values[np.isfinite(values)])
    if uniq.size < 2:
        return np.empty(0)
    mids = 0.5 * (uniq[:-1] + uniq[1:])
    if mids.size > max_candidates:
        idx = np.linspace(0, mids.size - 1, max_candidates).round().astype(int)
        mids = mids[np.unique(idx)]
    return mids


def _search_thresholds(rows, truth, use_di, max_candidates):
    """``({column: threshold} in pick order, F1)`` of the greedy search
    that ``calibrate_thresholds`` describes, over hop rows, in linear memory."""
    cands = [(dim, _candidate_thresholds(rows[:, dim], max_candidates))
             for dim in range(6 if use_di else 5)]
    chosen = {}
    best_pred = np.zeros(truth.size, dtype=bool)
    best_f1 = 0.0  # predicting nothing
    while True:
        tp0 = np.count_nonzero(best_pred & truth)
        fp0 = np.count_nonzero(best_pred & ~truth)
        fn0 = np.count_nonzero(~best_pred & truth)
        steps = []  # (F1, threshold, -column): max() breaks ties as documented
        for dim, thrs in cands:
            if dim not in chosen and thrs.size:
                gained = _count_above(rows[~best_pred & truth, dim], thrs)
                fp = fp0 + _count_above(rows[~best_pred & ~truth, dim], thrs)
                f1s = _f1(tp0 + gained, fp, fn0 - gained, truth)
                i = np.flatnonzero(f1s == f1s.max())[-1]  # the highest threshold
                steps.append((float(f1s[i]), float(thrs[i]), -dim))
        if not steps or max(steps)[0] <= best_f1 + 1e-12:
            return chosen, best_f1
        best_f1, thr, neg_dim = max(steps)
        chosen[-neg_dim] = thr
        best_pred |= rows[:, -neg_dim] > thr


def calibrate_thresholds(sessions, subject_id: str | None = None,
                         window_s: float = DEFAULT_WINDOW_S,
                         hop_s: float = DEFAULT_HOP_S,
                         refractory_s: float = 2.0,
                         max_candidates: int = 32,
                         min_f1: float = 0.75,
                         use_di: bool = True) -> CalibrationResult:
    """Pick alert thresholds separating Base windows from distraction windows.

    Every session is replayed into per-hop rows of five band powers plus
    the distraction index; rows inherit the session's task label. A
    greedy forward search then adds one (criterion, threshold) pair at a
    time, each step scoring all midpoint candidates of every unused
    dimension at once and keeping the addition that maximizes window-level
    F1 of the OR-combined predicate; ties break toward the higher threshold
    (fewer false alerts) and earlier criterion in canonical order. The
    search stops when no addition improves F1, so when none beats never
    alerting the profile has no criteria. The F1 weighs both labels
    equally (``_f1``), so alerting on every window scores 2/3, below the
    default ``min_f1``, however much longer the distraction recordings are
    than the Base ones.

    Needs at least one Base and one distraction session: a distraction
    detector is calibrated on a Base recording and a recording of every
    distraction task. A best F1 below ``min_f1`` yields ``ok=False`` with
    the best thresholds found.
    """
    if max_candidates < 1:
        raise ParameterError(f"max_candidates must be >= 1, got {max_candidates}")
    if not 0.0 <= min_f1 <= 1.0:
        raise ParameterError(f"min_f1 must lie in [0, 1], got {min_f1}")
    sessions = list(sessions)
    tasks = {s.task.is_distraction for s in sessions}
    if tasks != {True, False}:
        raise CalibrationError(
            "calibration needs at least one Base session and one distraction session")
    subjects = {s.subject_id for s in sessions}
    if subject_id is None:
        if len(subjects) != 1:
            raise CalibrationError(
                f"sessions span multiple subjects {sorted(subjects)}; "
                "pass subject_id explicitly")
        subject_id = next(iter(subjects))
    # validates the timing up front; the search fills in the thresholds
    profile = CalibrationProfile(subject_id=subject_id, band_thresholds={},
                                 refractory_s=refractory_s,
                                 window_s=window_s, hop_s=hop_s)
    rows, truth = _hop_feature_rows(sessions, profile)
    n_positive = int(np.count_nonzero(truth))
    chosen, best_f1 = _search_thresholds(rows, truth, use_di, max_candidates)
    di_threshold = chosen.pop(5, None)
    profile = replace(profile, di_threshold=di_threshold, band_thresholds={
        BAND_NAMES[d]: t for d, t in chosen.items()})
    ok = best_f1 >= min_f1
    note = None if ok else (
        f"no threshold combination reached F1 {min_f1:g}; best {best_f1:.4f}")
    n_base = truth.size - n_positive
    return CalibrationResult(
        ok=ok, f1=best_f1, profile=profile, n_windows=truth.size, n_positive=n_positive,
        n_base=n_base, f1_always_alert=float(_f1(n_positive, n_base, 0, truth)), note=note)


def evaluate_profile(sessions, profile: CalibrationProfile):
    """Window-level F1 of a profile's crossing predicate on labeled sessions.

    Refractory suppression is ignored here: each hop window counts
    independently as alert-vs-quiet against its session's label, both
    labels weighted equally as in the search. A window alerts as
    ``judge_hop`` decides, by the OR ``_search_thresholds`` builds.
    """
    rows, truth = _hop_feature_rows(sessions, profile)
    pred = np.zeros(truth.size, dtype=bool)
    for band, thr in profile.band_thresholds.items():
        pred |= rows[:, BAND_NAMES.index(band)] > thr
    if profile.di_threshold is not None:
        pred |= rows[:, 5] > profile.di_threshold  # False for NaN
    return float(_f1(np.sum(pred & truth), np.sum(pred & ~truth), np.sum(~pred & truth),
                     truth))
