"""Real-time distraction detector over a single-electrode raw stream.

A sliding window of the most recent samples is re-scored once per hop
(1 Hz by default) into a row of band powers and distraction index, and
``judge_hop`` checks the row against a per-subject calibration profile.
Crossings raise structured alert events, rate-limited by a refractory period.

The detector keeps only the current window and its latest hop, so
arbitrarily long streams run in constant space. ``replay_session`` cuts
the same windows directly from a stored session array and must produce
identical alerts and hop trace; tests rely on the two routes cutting
windows independently. Both score windows with ``score_windows`` and judge
rows with ``judge_hop``, which calibration and ``evaluate_profile`` share.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

# perfbench/tracing.py rebinds stream.band_powers_from_samples and
# stream.distraction_index, so keep both imported
from .dsp import SCORE_STACK, band_power_rows, band_powers_from_samples  # noqa: F401
from .errors import ParameterError, ValidationError
from .index import di_rows, distraction_index  # noqa: F401
from .model import (ADC_MAX, ADC_MIN, BAND_NAMES, BandPowers, EegSample,
                    SubjectSession, check_adc_range, check_timestamp)

STREAM_FS_HZ = 512
DEFAULT_WINDOW_S = 4.0
DEFAULT_HOP_S = 1.0
MIN_WINDOW_S = 2.0
COMBINATORS = ("or", "and")
DI_KEY = "di"


class SequencingError(ValidationError):
    """Sample arrived with a timestamp earlier than its predecessor."""


class CalibrationError(ValidationError):
    """Calibration inputs unusable (wrong labels, no windows, fs mismatch)."""


# ---------------------------------------------------------------------------
# profile


def _json_number(record: dict, key: str, default=None) -> float:
    """``record[key]``, or ``default`` when absent, which must be a JSON
    number (int or float; ``true`` is not one), as a float."""
    value = record.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"profile {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"profile {key} is beyond the float range") from None


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-subject alert thresholds and detector timing.

    ``band_thresholds`` maps band name to a power threshold in uV^2/Hz;
    bands without an entry are never checked. ``di_threshold`` of None
    disables the index criterion. ``combine`` selects whether one
    crossing suffices ("or") or every configured criterion must cross
    at once ("and").
    """

    subject_id: str
    band_thresholds: dict
    di_threshold: float | None = None
    refractory_s: float = 2.0
    window_s: float = DEFAULT_WINDOW_S
    hop_s: float = DEFAULT_HOP_S
    combine: str = "or"

    def __post_init__(self):
        for band, thr in self.band_thresholds.items():
            if band not in BAND_NAMES:
                raise ParameterError(f"unknown band {band!r} in thresholds")
            if not (np.isfinite(thr) or thr == math.inf) or not thr > 0:
                raise ParameterError(f"threshold for {band} must be > 0, got {thr}")
        if self.di_threshold is not None and not self.di_threshold > 0:
            raise ParameterError(f"DI threshold must be > 0, got {self.di_threshold}")
        if not (math.isfinite(self.window_s) and self.window_s >= MIN_WINDOW_S):
            raise ParameterError(
                f"window must be finite and >= {MIN_WINDOW_S} s, got {self.window_s}")
        if not (math.isfinite(self.hop_s) and self.hop_s > 0):
            raise ParameterError(f"hop must be finite and > 0, got {self.hop_s}")
        if not (math.isfinite(self.refractory_s) and self.refractory_s >= self.hop_s):
            raise ParameterError(
                f"refractory {self.refractory_s} s must be finite and >= hop {self.hop_s} s")
        if self.combine not in COMBINATORS:
            raise ParameterError(f"combine must be one of {COMBINATORS}")

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
        and every threshold and timing a JSON number."""
        if unknown := sorted(d.keys() - {f.name for f in fields(cls)}):
            raise ValidationError(f"profile has unknown fields {unknown}")
        try:
            bands, di = d["band_thresholds"], d.get("di_threshold")
            if not isinstance(bands, dict):
                raise ValidationError(
                    f"profile band_thresholds must be an object, got {bands!r}")
            return cls(subject_id=d["subject_id"],
                       band_thresholds={b: _json_number(bands, b) for b in bands},
                       di_threshold=None if di is None else _json_number(d, "di_threshold"),
                       refractory_s=_json_number(d, "refractory_s", 2.0),
                       window_s=_json_number(d, "window_s", DEFAULT_WINDOW_S),
                       hop_s=_json_number(d, "hop_s", DEFAULT_HOP_S),
                       combine=d.get("combine", "or"))
        except KeyError as exc:
            raise ValidationError(f"profile missing field {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# events and per-hop trace records


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


@dataclass(frozen=True)
class HopRecord:
    """Band powers and DI for one evaluated window."""

    t: float
    powers: BandPowers
    di: float | None

    def csv_row(self) -> str:
        vals = [f"{v:.9g}" for v in self.powers.as_tuple()]
        di = "" if self.di is None else f"{self.di:.9g}"
        return ",".join([f"{self.t:.9f}", *vals, di])


TRACE_HEADER = "t_s,delta,theta,alpha,beta,gamma,di"


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
    """``(trigger, observed, alert)`` for one hop row of six floats: the
    criteria that crossed, bands in band order then 'di'; each criterion's
    value, in the profile's order (DI None where undefined); and whether
    the profile's combination alerts."""
    thresholds = profile.band_thresholds
    trigger = [band for band, value in zip(BAND_NAMES, row)
               if band in thresholds and value > thresholds[band]]
    observed = {band: row[BAND_NAMES.index(band)] for band in thresholds}
    if profile.di_threshold is not None:
        observed[DI_KEY] = _row_di(row)
        if row[5] > profile.di_threshold:  # False for NaN
            trigger.append(DI_KEY)
    alert = 0 < len(trigger) == len(observed) if profile.combine == "and" else bool(trigger)
    return tuple(trigger), observed, alert


def _hop_alert(t: float, row, last_alert_t: float | None,
               profile: CalibrationProfile):
    """The alert that hop row ``row`` at ``t`` raises, or None: no alert, or
    within the refractory period since ``last_alert_t``."""
    trigger, observed, alert = judge_hop(row, profile)
    if not alert or (last_alert_t is not None
                     and t - last_alert_t < profile.refractory_s - 1e-9):
        return None
    return AlertEvent(t=t, trigger=trigger, observed=observed, severity=_row_di(row))


# ---------------------------------------------------------------------------
# streaming detector


class DetectorState:
    """Single-owner detector memory: one window, the latest HopRecord, alert timing.

    The buffer is a fixed ring of window_s * fs samples; feeding a
    sample is O(1) and each hop evaluation touches only the buffer.
    ``_to_hop`` counts the samples still due before the next hop: the
    first hop ends the first full window, each later one ``hop_n``
    samples after its predecessor.
    """

    __slots__ = ("profile", "fs_hz", "win_n", "hop_n", "_buf", "_count",
                 "_to_hop", "_prev_t", "last_hop", "last_alert_t")

    def __init__(self, profile: CalibrationProfile, fs_hz: int = STREAM_FS_HZ):
        if fs_hz <= 0:
            raise ParameterError(f"fs must be positive, got {fs_hz}")
        self.win_n, self.hop_n = profile.sample_counts(fs_hz)
        self.profile = profile
        self.fs_hz = int(fs_hz)
        self._buf = np.zeros(self.win_n, dtype=np.int32)
        self._count = 0
        self._to_hop = self.win_n
        self._prev_t = -math.inf
        self.last_hop = None
        self.last_alert_t = None

    @property
    def samples_seen(self) -> int:
        return self._count

    def window_samples(self) -> np.ndarray:
        """The buffered window in arrival order (only valid once full)."""
        if self._count < self.win_n:
            raise ValidationError("window not yet full")
        cut = self._count % self.win_n
        return np.concatenate([self._buf[cut:], self._buf[:cut]])


def _judge(state: DetectorState, t: float, row):
    """Take hop row ``row`` of the window ending at ``t``, the hop boundary
    both feeding routes reach: replaces ``state.last_hop`` and returns the
    alert, if any."""
    state.last_hop = HopRecord(t, BandPowers(*row[:5]), _row_di(row))
    alert = _hop_alert(t, row, state.last_alert_t, state.profile)
    if alert is not None:
        state.last_alert_t = t
    return alert


def _hop(state: DetectorState, t: float):
    """Score and judge the ring's window, which ends at ``t``, and restart
    the countdown."""
    state._to_hop = state.hop_n
    return _judge(state, t, score_windows(state.window_samples()[None],
                                          state.fs_hz)[0].tolist())


def process_sample(state: DetectorState, sample: EegSample):
    """Advance the detector by one sample.

    Returns ``(state, alert)`` where ``alert`` is None except at hop
    boundaries where a configured criterion crossed its threshold and
    the refractory period since the previous alert has elapsed. Each hop
    boundary replaces ``state.last_hop``. This is the route for samples
    that arrive one at a time; ``feed_block`` takes arrays.
    """
    t = sample.t
    # "not >=" also stops a NaN set on a sample after its checks ran
    if not t >= state._prev_t:
        raise SequencingError(f"sample at t={t} precedes previous t={state._prev_t}")
    state._prev_t = t
    state._buf[state._count % state.win_n] = sample.raw
    state._count += 1
    state._to_hop -= 1
    return state, None if state._to_hop else _hop(state, t)


def feed_block(state: DetectorState, raw, t0: float):
    """Advance the detector by an array of raw samples, sample j at t0 + j / fs.

    Leaves ``state`` as feeding the same samples one by one through
    ``process_sample`` would. The windows of every hop the block completes
    are cut from the ring's samples in arrival order followed by the block,
    scored as one strided stack by ``score_windows`` and judged in order;
    only the block's last ``win_n`` samples are written into the ring. The
    per-sample checks are made once for the block, before anything
    changes: ``t0`` must be finite, >= 0 and not precede the previous
    sample, and the first raw value outside the ADC range, in stream order,
    is the one reported. An empty block changes nothing. Returns
    ``(alerts, hops)``, every HopRecord the block completed.
    """
    raw = np.asarray(raw)
    n = raw.size
    alerts = []
    hops = []
    if n == 0:
        return alerts, hops
    check_timestamp(t0)
    if t0 < state._prev_t:
        raise SequencingError(f"sample at t={t0} precedes previous t={state._prev_t}")
    bad = np.flatnonzero((raw < ADC_MIN) | (raw > ADC_MAX))
    if bad.size:
        first = int(raw[bad[0]])
        check_adc_range(first, first)
    buf, win_n, hop_n, fs = state._buf, state.win_n, state.hop_n, state.fs_hz
    count = state._count
    # the block offsets just past each hop the block completes
    ends = range(state._to_hop, n + 1, hop_n)
    if ends:
        held = buf[:count] if count < win_n else state.window_samples()
        # cast as the ring casts
        samples = np.empty(held.size + ends[-1], dtype=buf.dtype)
        samples[:held.size] = held
        samples[held.size:] = raw[:ends[-1]]
        first_start = held.size + ends[0] - win_n
        windows = np.lib.stride_tricks.sliding_window_view(
            samples[first_start:], win_n)[::hop_n]
        for end, row in zip(ends, score_windows(windows, fs).tolist()):
            alert = _judge(state, t0 + (end - 1) / fs, row)
            hops.append(state.last_hop)
            if alert is not None:
                alerts.append(alert)
        state._to_hop = ends[-1] + hop_n - n
    else:
        state._to_hop -= n
    # only the block's last win_n samples survive in the ring
    tail = raw[max(0, n - win_n):]
    pos = (count + n - tail.size) % win_n
    head = min(tail.size, win_n - pos)
    buf[pos:pos + head] = tail[:head]
    buf[:tail.size - head] = tail[head:]
    state._count += n
    state._prev_t = t0 + (n - 1) / fs
    return alerts, hops


def stream_samples(raw, profile: CalibrationProfile):
    """Feed raw ADC samples through a fresh detector, sample i at i / 512 s.

    Returns ``(alerts, trace)``, the trace holding every HopRecord the
    detector evaluated, as ``replay_session`` does.
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
    the samples through ``process_sample`` yields, plus a HopRecord for
    every evaluated window.
    """
    rows = _stored_rows(session, profile)
    win_n, hop_n = profile.sample_counts(session.fs_hz)
    alerts = []
    trace = []
    for end, row in zip(range(win_n, session.n_samples + 1, hop_n), rows.tolist()):
        t = (end - 1) / session.fs_hz
        trace.append(HopRecord(t, BandPowers(*row[:5]), _row_di(row)))
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
    reports the best achievable window-level score.
    """

    ok: bool
    f1: float
    profile: CalibrationProfile
    n_windows: int
    n_positive: int
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


def _f1(tp, fp, fn):
    """F1 from integer true-positive, false-positive and false-negative
    counts; 0 without a true positive."""
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
                f1s = _f1(tp0 + gained, fp, fn0 - gained)
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
    alerting the profile has no criteria.

    Needs at least one Base and one distraction session. A best F1 below
    ``min_f1`` yields ``ok=False`` with the best thresholds found.
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
    chosen, best_f1 = _search_thresholds(rows, truth, use_di, max_candidates)
    di_threshold = chosen.pop(5, None)
    profile = replace(profile, di_threshold=di_threshold, band_thresholds={
        BAND_NAMES[d]: t for d, t in chosen.items()})
    ok = best_f1 >= min_f1
    note = None if ok else (
        f"no threshold combination reached F1 {min_f1:g}; best {best_f1:.4f}")
    return CalibrationResult(ok=ok, f1=best_f1, profile=profile,
                             n_windows=int(truth.size),
                             n_positive=int(truth.sum()), note=note)


def evaluate_profile(sessions, profile: CalibrationProfile):
    """Window-level F1 of a profile's crossing predicate on labeled sessions.

    Refractory suppression is ignored here: each hop window counts
    independently as alert-vs-quiet against its session's label.
    """
    rows, truth = _hop_feature_rows(sessions, profile)
    pred = np.array([judge_hop(row, profile)[2] for row in rows.tolist()], dtype=bool)
    return float(_f1(np.sum(pred & truth), np.sum(pred & ~truth), np.sum(~pred & truth)))
