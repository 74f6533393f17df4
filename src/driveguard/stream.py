"""Real-time distraction detector over a single-electrode raw stream.

A sliding window of the most recent samples is re-scored once per hop
(1 Hz by default): band powers, the distraction index, and a threshold
check against a per-subject calibration profile. Crossings raise
structured alert events, rate-limited by a refractory period.

The detector keeps only the current window and its latest hop, so
arbitrarily long streams run in constant space. ``replay_session`` cuts
the same windows directly from a stored session array and must produce
identical alerts and hop trace; tests rely on the two routes cutting
windows independently. Both score a window with ``_hop_record``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dsp import band_powers_from_samples
from .errors import ParameterError, ValidationError
from .index import UndefinedIndexError, distraction_index
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

    @property
    def criteria(self) -> tuple:
        """Names of the configured criteria, band order then 'di'."""
        names = [b for b in BAND_NAMES if b in self.band_thresholds]
        if self.di_threshold is not None:
            names.append(DI_KEY)
        return tuple(names)

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


def _hop_record(t: float, window, fs_hz: int) -> HopRecord:
    """The one step from a window of raw samples ending at ``t`` to its band
    powers and DI, shared by the streaming and the stored-array routes."""
    powers = band_powers_from_samples(window, fs_hz)
    try:
        di = distraction_index(powers)
    except UndefinedIndexError:
        di = None
    return HopRecord(t=t, powers=powers, di=di)


CRITERION_ORDER = (*BAND_NAMES, DI_KEY)


def _evaluate_window(hop: HopRecord, profile: CalibrationProfile):
    """Returns (crossed criteria names, observed values for all criteria)."""
    pd = hop.powers.as_dict()
    crossed = []
    observed = {}
    for band, thr in profile.band_thresholds.items():
        observed[band] = pd[band]
        if pd[band] > thr:
            crossed.append(band)
    if profile.di_threshold is not None:
        observed[DI_KEY] = hop.di
        if hop.di is not None and hop.di > profile.di_threshold:
            crossed.append(DI_KEY)
    crossed.sort(key=CRITERION_ORDER.index)
    return tuple(crossed), observed


def _should_alert(crossed, profile: CalibrationProfile) -> bool:
    if profile.combine == "or":
        return len(crossed) > 0
    return 0 < len(crossed) == len(profile.criteria)


def _hop_alert(hop: HopRecord, last_alert_t: float | None,
               profile: CalibrationProfile):
    """The alert raised by ``hop``, or None when no criterion combination
    crossed or the refractory period since ``last_alert_t`` has not yet
    elapsed."""
    crossed, observed = _evaluate_window(hop, profile)
    if not _should_alert(crossed, profile):
        return None
    if last_alert_t is not None and hop.t - last_alert_t < profile.refractory_s - 1e-9:
        return None
    return AlertEvent(t=hop.t, trigger=crossed, observed=observed, severity=hop.di)


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


def _hop(state: DetectorState, t: float):
    """Score the window ending at ``t``, the hop boundary both feeding
    routes reach: replaces ``state.last_hop``, restarts the countdown and
    returns the alert, if any."""
    state._to_hop = state.hop_n
    hop = state.last_hop = _hop_record(t, state.window_samples(), state.fs_hz)
    alert = _hop_alert(hop, state.last_alert_t, state.profile)
    if alert is not None:
        state.last_alert_t = t
    return alert


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
    ``process_sample`` would, but copies whole slices into the ring and
    runs Python only at hop boundaries. The per-sample checks are made
    once for the block, before anything changes: ``t0`` must be finite,
    >= 0 and not precede the previous sample, and the first raw value
    outside the ADC range, in stream order, is the one reported. An empty
    block changes nothing. Returns ``(alerts, hops)``, every HopRecord the
    block completed.
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
    buf, win_n, fs = state._buf, state.win_n, state.fs_hz
    j = 0
    while j < n:
        take = min(state._to_hop, n - j)
        # only the last win_n samples of a slice survive in the ring
        tail = raw[j + max(0, take - win_n):j + take]
        pos = (state._count + take - tail.size) % win_n
        head = min(tail.size, win_n - pos)
        buf[pos:pos + head] = tail[:head]
        buf[:tail.size - head] = tail[head:]
        state._count += take
        state._to_hop -= take
        j += take
        if not state._to_hop:
            alert = _hop(state, t0 + (j - 1) / fs)
            hops.append(state.last_hop)
            if alert is not None:
                alerts.append(alert)
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


def _hop_trace(session: SubjectSession, profile: CalibrationProfile):
    """A HopRecord for every window of a stored session, cut directly from
    the session array rather than by delegating to the streaming path."""
    data = stream_channel(session)
    fs = session.fs_hz
    win_n, hop_n = profile.sample_counts(fs)
    return [_hop_record((end - 1) / fs, data[end - win_n:end], fs)
            for end in range(win_n, data.size + 1, hop_n)]


def replay_session(session: SubjectSession, profile: CalibrationProfile):
    """Score a stored session offline.

    Returns ``(alerts, trace)``: the same alert sequence that streaming
    the samples through ``process_sample`` yields, plus a HopRecord for
    every evaluated window.
    """
    trace = _hop_trace(session, profile)
    alerts = []
    for rec in trace:
        alert = _hop_alert(rec, alerts[-1].t if alerts else None, profile)
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
    """Per-hop (delta..gamma, di) rows plus distraction labels, on the
    profile's window and hop."""
    rows = []
    labels = []
    for session in sessions:
        for rec in _hop_trace(session, profile):
            di = math.nan if rec.di is None else rec.di
            rows.append((*rec.powers.as_tuple(), di))
            labels.append(session.task.is_distraction)
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=bool)


def _f1_score(pred, truth):
    """F1 of boolean predictions over the last axis; 0 without a true positive."""
    tp = np.sum(pred & truth, axis=-1)
    fp = np.sum(pred & ~truth, axis=-1)
    fn = np.sum(~pred & truth, axis=-1)
    with np.errstate(invalid="ignore"):  # 0/0 only where tp == 0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2.0 * precision * recall / (precision + recall)
    return np.where(tp > 0, f1, 0.0)


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
    that ``calibrate_thresholds`` describes, over hop rows."""
    cands = [(dim, _candidate_thresholds(rows[:, dim], max_candidates))
             for dim in range(6 if use_di else 5)]
    chosen = {}
    best_pred = np.zeros(truth.size, dtype=bool)
    best_f1 = 0.0  # predicting nothing
    while True:
        steps = []  # (F1, threshold, -column): max() breaks ties as documented
        for dim, thrs in cands:
            if dim not in chosen and thrs.size:
                f1s = _f1_score(best_pred | (rows[:, dim] > thrs[:, None]), truth)
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
    if rows.size == 0:
        raise CalibrationError("sessions yielded no analysis windows")
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
    preds = []
    truths = []
    for session in sessions:
        for rec in _hop_trace(session, profile):
            crossed, _ = _evaluate_window(rec, profile)
            preds.append(_should_alert(crossed, profile))
            truths.append(session.task.is_distraction)
    if not preds:
        raise CalibrationError("sessions yielded no analysis windows")
    return float(_f1_score(np.array(preds, dtype=bool), np.array(truths, dtype=bool)))
