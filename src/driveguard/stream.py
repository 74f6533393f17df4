"""Real-time distraction detector over a single-electrode raw stream.

A sliding window of the most recent samples is re-scored once per hop
(1 Hz by default): band powers, the distraction index, and a threshold
check against a per-subject calibration profile. Crossings raise
structured alert events, rate-limited by a refractory period.

The detector keeps only the current window in memory, so arbitrarily
long streams run in constant space. ``replay_session`` recomputes the
same schedule directly from a stored session array and must produce an
identical alert sequence; tests rely on the two code paths staying
independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dsp import band_powers_from_samples
from .errors import ParameterError, ValidationError
from .index import UndefinedIndexError, distraction_index
from .model import BAND_NAMES, BandPowers, EegSample, SubjectSession

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
        return {
            "subject_id": self.subject_id,
            "band_thresholds": dict(self.band_thresholds),
            "di_threshold": self.di_threshold,
            "refractory_s": self.refractory_s,
            "window_s": self.window_s,
            "hop_s": self.hop_s,
            "combine": self.combine,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationProfile":
        try:
            return cls(subject_id=d["subject_id"],
                       band_thresholds=dict(d["band_thresholds"]),
                       di_threshold=d.get("di_threshold"),
                       refractory_s=float(d.get("refractory_s", 2.0)),
                       window_s=float(d.get("window_s", DEFAULT_WINDOW_S)),
                       hop_s=float(d.get("hop_s", DEFAULT_HOP_S)),
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


def _window_di(powers: BandPowers) -> float | None:
    try:
        return distraction_index(powers)
    except UndefinedIndexError:
        return None


CRITERION_ORDER = (*BAND_NAMES, DI_KEY)


def _evaluate_window(powers: BandPowers, di: float | None,
                     profile: CalibrationProfile):
    """Returns (crossed criteria names, observed values for all criteria)."""
    pd = powers.as_dict()
    crossed = []
    observed = {}
    for band, thr in profile.band_thresholds.items():
        observed[band] = pd[band]
        if pd[band] > thr:
            crossed.append(band)
    if profile.di_threshold is not None:
        observed[DI_KEY] = di
        if di is not None and di > profile.di_threshold:
            crossed.append(DI_KEY)
    crossed.sort(key=CRITERION_ORDER.index)
    return tuple(crossed), observed


def _should_alert(crossed, profile: CalibrationProfile) -> bool:
    n_criteria = len(profile.criteria)
    if n_criteria == 0:
        return False
    if profile.combine == "or":
        return len(crossed) > 0
    return len(crossed) == n_criteria


def _hop_alert(t: float, powers: BandPowers, di: float | None,
               last_alert_t: float | None, profile: CalibrationProfile):
    """The alert raised by the hop ending at ``t``, or None when no criterion
    combination crossed or the refractory period since ``last_alert_t`` has
    not yet elapsed."""
    crossed, observed = _evaluate_window(powers, di, profile)
    if not _should_alert(crossed, profile):
        return None
    if last_alert_t is not None and t - last_alert_t < profile.refractory_s - 1e-9:
        return None
    return AlertEvent(t=t, trigger=crossed, observed=observed, severity=di)


# ---------------------------------------------------------------------------
# streaming detector


class DetectorState:
    """Single-owner detector memory: one window of samples plus alert timing.

    The buffer is a fixed ring of window_s * fs samples; feeding a
    sample is O(1) and each hop evaluation touches only the buffer.
    """

    __slots__ = ("profile", "fs_hz", "win_n", "hop_n", "_buf", "_count",
                 "_prev_t", "last_alert_t")

    def __init__(self, profile: CalibrationProfile, fs_hz: int = STREAM_FS_HZ):
        if fs_hz <= 0:
            raise ParameterError(f"fs must be positive, got {fs_hz}")
        self.win_n, self.hop_n = profile.sample_counts(fs_hz)
        self.profile = profile
        self.fs_hz = int(fs_hz)
        self._buf = np.zeros(self.win_n, dtype=np.int32)
        self._count = 0
        self._prev_t = -math.inf
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


def process_sample(state: DetectorState, sample: EegSample):
    """Advance the detector by one sample.

    Returns ``(state, alert)`` where ``alert`` is None except at hop
    boundaries where a configured criterion crossed its threshold and
    the refractory period since the previous alert has elapsed.
    """
    if sample.t < state._prev_t:
        raise SequencingError(
            f"sample at t={sample.t} precedes previous t={state._prev_t}")
    state._prev_t = sample.t
    state._buf[state._count % state.win_n] = sample.raw
    state._count += 1
    if state._count < state.win_n or (state._count - state.win_n) % state.hop_n != 0:
        return state, None
    powers = band_powers_from_samples(state.window_samples(), state.fs_hz)
    alert = _hop_alert(sample.t, powers, _window_di(powers),
                       state.last_alert_t, state.profile)
    if alert is not None:
        state.last_alert_t = sample.t
    return state, alert


def stream_samples(raw, profile: CalibrationProfile):
    """Feed raw ADC samples through a fresh detector, sample i at i / 512 s.

    Returns ``(alerts, state)``.
    """
    state = DetectorState(profile)
    alerts = []
    for i, value in enumerate(np.asarray(raw).tolist()):
        state, alert = process_sample(state, EegSample(t=i / STREAM_FS_HZ, raw=value))
        if alert is not None:
            alerts.append(alert)
    return alerts, state


# ---------------------------------------------------------------------------
# batch replay


def _session_stream_channel(session: SubjectSession) -> np.ndarray:
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
    data = _session_stream_channel(session)
    fs = session.fs_hz
    win_n, hop_n = profile.sample_counts(fs)
    trace = []
    for end in range(win_n, data.size + 1, hop_n):
        powers = band_powers_from_samples(data[end - win_n:end], fs)
        trace.append(HopRecord(t=(end - 1) / fs, powers=powers, di=_window_di(powers)))
    return trace


def replay_session(session: SubjectSession, profile: CalibrationProfile):
    """Score a stored session offline.

    Returns ``(alerts, trace)``: the same alert sequence that streaming
    the samples through ``process_sample`` yields, plus a HopRecord for
    every evaluated window.
    """
    trace = _hop_trace(session, profile)
    alerts = []
    last_alert_t = None
    for rec in trace:
        alert = _hop_alert(rec.t, rec.powers, rec.di, last_alert_t, profile)
        if alert is not None:
            last_alert_t = rec.t
            alerts.append(alert)
    return alerts, trace


def stream_session(session: SubjectSession, profile: CalibrationProfile):
    """Feed a stored session through the streaming detector sample by sample."""
    return stream_samples(_session_stream_channel(session), profile)


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
        return {"ok": self.ok, "f1": self.f1, "profile": self.profile.to_dict(),
                "n_windows": self.n_windows, "n_positive": self.n_positive,
                "note": self.note}

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


def _f1_score(pred, truth) -> float:
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def _candidate_thresholds(values, max_candidates):
    """Midpoints between consecutive distinct finite values."""
    finite = np.sort(values[np.isfinite(values)])
    uniq = np.unique(finite)
    if uniq.size < 2:
        return np.empty(0)
    mids = 0.5 * (uniq[:-1] + uniq[1:])
    if mids.size > max_candidates:
        idx = np.linspace(0, mids.size - 1, max_candidates).round().astype(int)
        mids = mids[np.unique(idx)]
    return mids


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
    time, each step scanning midpoint candidates on every unused
    dimension and keeping the addition that maximizes window-level F1 of
    the OR-combined predicate; ties break toward the higher threshold
    (fewer false alerts) and earlier criterion in canonical order. The
    search stops when no addition improves F1.

    Needs at least one Base and one distraction session. A best F1 below
    ``min_f1`` yields ``ok=False`` with the best thresholds found.
    """
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

    dims = list(range(6)) if use_di else list(range(5))
    chosen = {}
    best_pred = np.zeros(truth.size, dtype=bool)
    best_f1 = _f1_score(best_pred, truth)
    while True:
        step_best = None
        for dim in dims:
            if dim in chosen:
                continue
            col = rows[:, dim]
            for thr in _candidate_thresholds(col, max_candidates):
                pred = best_pred | (col > thr)
                f1 = _f1_score(pred, truth)
                key = (f1, thr)
                if step_best is None or key > step_best[0]:
                    step_best = (key, dim, thr, pred)
        if step_best is None or step_best[0][0] <= best_f1 + 1e-12:
            break
        _, dim, thr, pred = step_best
        chosen[dim] = thr
        best_pred = pred
        best_f1 = step_best[0][0]

    band_thresholds = {BAND_NAMES[d]: float(t) for d, t in chosen.items() if d < 5}
    di_threshold = float(chosen[5]) if 5 in chosen else None
    if not chosen:
        # nothing improved on predicting no alerts; pin thresholds above
        # everything observed so the profile stays silent
        band_thresholds = {"beta": float(np.max(rows[:, 3]) * 2.0 + 1.0)}
    profile = replace(profile, band_thresholds=band_thresholds,
                      di_threshold=di_threshold)
    ok = best_f1 >= min_f1
    note = None if ok else (
        f"no threshold combination reached F1 {min_f1:g}; best {best_f1:.4f}")
    return CalibrationResult(ok=ok, f1=float(best_f1), profile=profile,
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
            crossed, _ = _evaluate_window(rec.powers, rec.di, profile)
            preds.append(_should_alert(crossed, profile))
            truths.append(session.task.is_distraction)
    if not preds:
        raise CalibrationError("sessions yielded no analysis windows")
    return _f1_score(np.array(preds, dtype=bool), np.array(truths, dtype=bool))
