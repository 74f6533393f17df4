"""Streaming detector, batch replay equivalence, and threshold calibration."""

import math

import numpy as np
import pytest

from driveguard.dsp import band_powers_from_samples
from driveguard.errors import ParameterError, ValidationError
from driveguard.index import distraction_index
from driveguard.model import Device, EegSample, SubjectSession, TaskLabel
from driveguard.stream import (
    AlertEvent,
    CalibrationError,
    CalibrationProfile,
    CalibrationResult,
    DetectorState,
    HopRecord,
    SequencingError,
    STREAM_FS_HZ,
    TRACE_HEADER,
    calibrate_thresholds,
    evaluate_profile,
    process_sample,
    replay_session,
    stream_session,
)
from driveguard.synth import BurstSpec, GeneratorSpec, PinkNoiseSpec, generate_session

FS = STREAM_FS_HZ


def profile(**kw):
    base = dict(subject_id="s1", band_thresholds={"beta": 1.0},
                refractory_s=2.0, window_s=4.0, hop_s=1.0)
    base.update(kw)
    return CalibrationProfile(**base)


def raw_session(raw, task=TaskLabel.BASE, fs=FS, subject="s1"):
    raw = np.asarray(raw, dtype=np.int32).reshape(1, -1)
    device = Device.SINGLE_ELECTRODE_512 if fs == 512 else Device.MULTI_ELECTRODE_128
    return SubjectSession(subject_id=subject, task=task, device=device,
                          fs_hz=fs, channels=("FP1",), raw=raw)


def synth_session(seed, task=TaskLabel.BASE, bursts=(), amp=10.0, dur=20.0,
                  subject="cal-1"):
    return generate_session(GeneratorSpec(
        seed=seed, task=task, duration_s=dur, subject_id=subject,
        baseline=PinkNoiseSpec(amplitude_uv=amp), bursts=bursts))


STRONG_BETA = (BurstSpec(band="beta", center_hz=22.0, rate_hz=3.0, gain=3.0),)


class TestProfile:
    def test_validation_matrix(self):
        with pytest.raises(ParameterError):
            profile(band_thresholds={"sigma": 1.0})
        with pytest.raises(ParameterError):
            profile(band_thresholds={"beta": 0.0})
        with pytest.raises(ParameterError):
            profile(band_thresholds={"beta": -2.0})
        with pytest.raises(ParameterError):
            profile(di_threshold=0.0)
        with pytest.raises(ParameterError):
            profile(window_s=1.5)
        with pytest.raises(ParameterError):
            profile(hop_s=0.0)
        with pytest.raises(ParameterError):
            profile(refractory_s=0.5, hop_s=1.0)
        with pytest.raises(ParameterError):
            profile(combine="xor")

    def test_infinite_threshold_allowed(self):
        p = profile(band_thresholds={"beta": math.inf})
        assert p.band_thresholds["beta"] == math.inf

    def test_criteria_order(self):
        p = profile(band_thresholds={"gamma": 1.0, "theta": 2.0},
                    di_threshold=3.0)
        assert p.criteria == ("theta", "gamma", "di")
        assert profile(band_thresholds={}).criteria == ()

    def test_json_round_trip(self):
        p = profile(band_thresholds={"alpha": 2.5, "beta": 1.25},
                    di_threshold=4.0, combine="and")
        back = CalibrationProfile.from_json(p.to_json())
        assert back == p

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            CalibrationProfile.from_dict({"subject_id": "x"})


class TestDetectorState:
    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError):
            DetectorState(profile(), fs_hz=0)
        with pytest.raises(ParameterError):
            DetectorState(profile(hop_s=1.0 / 3.0), fs_hz=FS)

    def test_buffer_is_fixed_size_ring(self):
        state = DetectorState(profile(), fs_hz=FS)
        assert state.win_n == 4 * FS
        assert state.hop_n == FS
        assert state._buf.size == state.win_n
        for i in range(3 * state.win_n):
            process_sample(state, EegSample(t=i / FS, raw=i % 1024))
        assert state._buf.size == state.win_n
        assert state.samples_seen == 3 * state.win_n
        expected = np.array([i % 1024 for i in range(2 * state.win_n,
                                                     3 * state.win_n)])
        assert np.array_equal(state.window_samples(), expected)

    def test_last_hop_replaced_only_at_hop_boundaries(self):
        state = DetectorState(profile(), fs_hz=FS)
        hops = []
        for i in range(state.win_n + 2 * state.hop_n):
            process_sample(state, EegSample(t=i / FS, raw=i % 1024))
            if not hops or state.last_hop is not hops[-1]:
                hops.append(state.last_hop)
        assert hops[0] is None
        assert [h.t for h in hops[1:]] == [
            (state.win_n + k * state.hop_n - 1) / FS for k in range(3)]

    def test_window_before_full_rejected(self):
        state = DetectorState(profile(), fs_hz=FS)
        process_sample(state, EegSample(t=0.0, raw=0))
        with pytest.raises(ValidationError):
            state.window_samples()

    def test_sequencing(self):
        state = DetectorState(profile(), fs_hz=FS)
        process_sample(state, EegSample(t=0.10, raw=0))
        process_sample(state, EegSample(t=0.10, raw=1))  # equal t is fine
        with pytest.raises(SequencingError):
            process_sample(state, EegSample(t=0.05, raw=2))


def tone(freq, seconds, amp=400.0, fs=FS):
    t = np.arange(int(round(seconds * fs))) / fs
    return np.round(amp * np.sin(2 * np.pi * freq * t)).astype(np.int32)


class TestStreaming:
    def test_no_alert_before_window_fills_then_every_hop(self):
        data = tone(10.0, 6.0)
        session = raw_session(data)
        p = profile(band_thresholds={"alpha": 0.001}, refractory_s=1.0)
        alerts, _ = stream_session(session, p)
        assert [a.t for a in alerts] == [
            (2048 - 1) / FS, (2560 - 1) / FS, (3072 - 1) / FS]
        assert all(a.trigger == ("alpha",) for a in alerts)

    def test_quiet_stream_never_alerts(self):
        rng = np.random.default_rng(0)
        data = rng.integers(-3, 4, size=60 * FS, dtype=np.int32)
        alerts, _ = stream_session(raw_session(data),
                                   profile(band_thresholds={"beta": 1e9}))
        assert alerts == []

    def test_single_burst_single_alert_with_offline_oracle(self):
        data = np.zeros(20 * FS, dtype=np.int32)
        data[8 * FS:10 * FS] = tone(20.0, 2.0, amp=300.0)
        session = raw_session(data)
        p = profile(band_thresholds={"beta": 1.0}, refractory_s=10.0)

        crossings = []
        for end in range(4 * FS, data.size + 1, FS):
            bp = band_powers_from_samples(data[end - 4 * FS:end], FS)
            if bp.beta > 1.0:
                crossings.append(((end - 1) / FS, bp))
        assert len(crossings) > 1  # several windows cross...

        alerts, _ = stream_session(session, p)
        assert len(alerts) == 1    # ...but refractory keeps one alert
        t0, bp0 = crossings[0]
        assert alerts[0].t == t0
        assert alerts[0].trigger == ("beta",)
        assert alerts[0].observed["beta"] == bp0.beta
        # truncated tone leaks into every band, so the index is defined
        assert alerts[0].severity == distraction_index(bp0)

    def test_severity_none_when_index_undefined(self):
        # 16 Hz square wave: spectrum sits at 16 Hz and harmonics >= 48 Hz,
        # so a window holding exactly the burst has zero alpha power.
        period = FS // 16
        wave = np.repeat([100, -100], period // 2)
        burst = np.tile(wave, 2048 // period).astype(np.int32)
        data = np.zeros(12 * FS, dtype=np.int32)
        data[4 * FS:8 * FS] = burst
        full = band_powers_from_samples(burst, FS)
        assert full.alpha == 0.0
        p = profile(band_thresholds={"beta": 0.9 * full.beta},
                    refractory_s=1.0, hop_s=1.0)
        alerts, _ = stream_session(raw_session(data), p)
        assert len(alerts) == 1  # partial-overlap windows stay below 0.9x
        assert alerts[0].t == (8 * FS - 1) / FS
        assert alerts[0].severity is None

    def test_severity_equals_offline_di(self):
        session = synth_session(3, dur=12.0)
        p = profile(band_thresholds={"delta": 1e-6}, refractory_s=1.0)
        alerts, _ = stream_session(session, p)
        assert alerts
        data = session.raw[0]
        for alert in alerts:
            end = int(round(alert.t * FS)) + 1
            bp = band_powers_from_samples(data[end - 4 * FS:end], FS)
            assert alert.severity == pytest.approx(distraction_index(bp), abs=1e-9)
            assert alert.observed["delta"] == pytest.approx(bp.delta, abs=1e-9)

    def test_refractory_spacing(self):
        data = tone(10.0, 12.0)
        p = profile(band_thresholds={"alpha": 0.001}, refractory_s=2.0)
        alerts, _ = stream_session(raw_session(data), p)
        times = [a.t for a in alerts]
        assert len(times) == 5  # hops at 4..12 s, every other one fires
        assert all(b - a >= 2.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_and_combinator(self):
        data = tone(20.0, 8.0)  # beta only
        both = {"beta": 0.001, "delta": 0.001}
        or_alerts, _ = stream_session(raw_session(data),
                                      profile(band_thresholds=both))
        and_alerts, _ = stream_session(raw_session(data),
                                       profile(band_thresholds=both,
                                               combine="and"))
        assert or_alerts and not and_alerts

    def test_no_criteria_never_alerts(self):
        data = tone(20.0, 8.0)
        alerts, _ = stream_session(raw_session(data),
                                   profile(band_thresholds={}))
        assert alerts == []


class TestReplay:
    def test_trace_schedule(self):
        session = synth_session(1)
        _, trace = replay_session(session, profile())
        assert len(trace) == 17  # ends 4..20 s on 1 s hops
        assert trace[0].t == (4 * FS - 1) / FS
        assert trace[-1].t == (20 * FS - 1) / FS

    def test_short_session_yields_nothing(self):
        session = raw_session(np.zeros(2 * FS, dtype=np.int32))
        alerts, trace = replay_session(session, profile())
        assert alerts == [] and trace == []

    def test_infinite_thresholds_trace_only(self):
        session = synth_session(2, dur=8.0)
        alerts, trace = replay_session(
            session, profile(band_thresholds={"beta": math.inf}))
        assert alerts == []
        assert len(trace) == 5

    def test_trace_csv_layout(self):
        session = synth_session(2, dur=8.0)
        _, trace = replay_session(session, profile())
        assert TRACE_HEADER == "t_s,delta,theta,alpha,beta,gamma,di"
        row = trace[0].csv_row()
        cells = row.split(",")
        assert len(cells) == 7
        assert float(cells[0]) == trace[0].t
        undefined = HopRecord(t=1.0, powers=trace[0].powers, di=None)
        assert undefined.csv_row().endswith(",")

    def test_rejects_wrong_rate_or_channels(self):
        slow = raw_session(np.zeros(1024, dtype=np.int32), fs=128)
        with pytest.raises(ValidationError):
            replay_session(slow, profile())
        multi = SubjectSession(subject_id="s", task=TaskLabel.BASE,
                               device=Device.SINGLE_ELECTRODE_512, fs_hz=FS,
                               channels=("a", "b"),
                               raw=np.zeros((2, 4 * FS), dtype=np.int32))
        with pytest.raises(ValidationError):
            replay_session(multi, profile())

    def test_threshold_monotonicity(self):
        session = synth_session(7, task=TaskLabel.TEXT, bursts=STRONG_BETA,
                                dur=30.0)
        counts = []
        for thr in (0.5, 5.0, 50.0, 5000.0):
            alerts, _ = replay_session(
                session, profile(band_thresholds={"beta": thr},
                                 refractory_s=1.0))
            counts.append(len(alerts))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 0

    def test_stream_matches_replay(self):
        for seed, bursts in ((3, ()), (4, STRONG_BETA)):
            session = synth_session(seed, task=TaskLabel.TEXT, bursts=bursts,
                                    dur=25.0)
            p = profile(band_thresholds={"beta": 2.0, "theta": 1.0},
                        di_threshold=5.0, refractory_s=3.0)
            streamed, streamed_trace = stream_session(session, p)
            replayed, replayed_trace = replay_session(session, p)
            assert [a.to_dict() for a in streamed] == \
                [a.to_dict() for a in replayed]
            assert streamed_trace == replayed_trace


class TestAlertEvent:
    def test_round_trip_dict(self):
        a = AlertEvent(t=4.5, trigger=("beta", "di"),
                       observed={"beta": 3.2, "di": 6.0}, severity=6.0)
        d = a.to_dict()
        assert d == {"t": 4.5, "trigger": ["beta", "di"],
                     "observed": {"beta": 3.2, "di": 6.0}, "severity": 6.0}


class TestCalibration:
    def test_separable_subject_reaches_perfect_f1(self):
        train = [synth_session(1, TaskLabel.BASE),
                 synth_session(2, TaskLabel.TEXT, STRONG_BETA)]
        result = calibrate_thresholds(train, max_candidates=200)
        assert isinstance(result, CalibrationResult)
        assert result.ok
        assert result.f1 == 1.0
        assert result.note is None
        assert result.n_windows == 34
        assert result.n_positive == 17
        assert evaluate_profile(train, result.profile) == 1.0
        held = [synth_session(11, TaskLabel.BASE),
                synth_session(12, TaskLabel.TEXT, STRONG_BETA)]
        assert evaluate_profile(held, result.profile) == 1.0

    def test_identical_data_cannot_calibrate(self):
        a = synth_session(5, TaskLabel.BASE)
        b = SubjectSession(subject_id=a.subject_id, task=TaskLabel.READ,
                           device=a.device, fs_hz=a.fs_hz,
                           channels=a.channels, raw=a.raw.copy())
        result = calibrate_thresholds([a, b])
        assert not result.ok
        assert result.f1 < 0.75
        assert "best" in result.note

    def test_greedy_at_least_as_good_as_single_dim_sweep(self):
        from driveguard.stream import (_candidate_thresholds, _f1_score,
                                       _hop_feature_rows)
        train = [synth_session(1, TaskLabel.BASE),
                 synth_session(2, TaskLabel.TEXT, STRONG_BETA)]
        rows, truth = _hop_feature_rows(train, profile(window_s=4.0, hop_s=1.0))
        best_single = 0.0
        for dim in range(6):
            col = rows[:, dim]
            for thr in _candidate_thresholds(col, 200):
                best_single = max(best_single, _f1_score(col > thr, truth))
        result = calibrate_thresholds(train, max_candidates=200)
        assert result.f1 >= best_single - 1e-12

    def test_band_thresholds_scale_quadratically(self):
        train = [synth_session(1, TaskLabel.BASE),
                 synth_session(2, TaskLabel.TEXT, STRONG_BETA)]
        scaled = [SubjectSession(subject_id=s.subject_id, task=s.task,
                                 device=s.device, fs_hz=s.fs_hz,
                                 channels=s.channels, raw=s.raw * 2)
                  for s in train]
        plain = calibrate_thresholds(train, max_candidates=200, use_di=False)
        double = calibrate_thresholds(scaled, max_candidates=200, use_di=False)
        assert plain.profile.band_thresholds.keys() == \
            double.profile.band_thresholds.keys()
        for band, thr in plain.profile.band_thresholds.items():
            assert double.profile.band_thresholds[band] == 4.0 * thr
        assert double.f1 == plain.f1

    def test_needs_both_labels(self):
        with pytest.raises(CalibrationError):
            calibrate_thresholds([synth_session(1, TaskLabel.BASE)])
        with pytest.raises(CalibrationError):
            calibrate_thresholds([synth_session(2, TaskLabel.TEXT, STRONG_BETA)])

    def test_multi_subject_needs_explicit_id(self):
        a = synth_session(1, TaskLabel.BASE, subject="p1")
        b = synth_session(2, TaskLabel.TEXT, STRONG_BETA, subject="p2")
        with pytest.raises(CalibrationError):
            calibrate_thresholds([a, b])
        result = calibrate_thresholds([a, b], subject_id="pooled")
        assert result.profile.subject_id == "pooled"

    @pytest.mark.parametrize("timing", [
        {"window_s": 1.5}, {"hop_s": 0.0}, {"refractory_s": 0.5},
        {"window_s": math.nan}, {"window_s": math.inf}, {"hop_s": math.nan},
        {"refractory_s": math.nan}, {"refractory_s": math.inf},
        {"refractory_s": -math.inf},
        {"window_s": 4.001}])  # not a whole number of samples at 512 Hz
    def test_invalid_timing_rejected(self, timing):
        train = [synth_session(1, TaskLabel.BASE),
                 synth_session(2, TaskLabel.TEXT, STRONG_BETA)]
        with pytest.raises(ParameterError):
            calibrate_thresholds(train, **timing)

    @pytest.mark.parametrize("setting", [
        {"max_candidates": 0}, {"max_candidates": -3},
        {"min_f1": math.nan}, {"min_f1": math.inf}, {"min_f1": -0.1},
        {"min_f1": 1.5}])
    def test_invalid_search_settings_rejected(self, setting):
        train = [synth_session(1, TaskLabel.BASE),
                 synth_session(2, TaskLabel.TEXT, STRONG_BETA)]
        with pytest.raises(ParameterError):
            calibrate_thresholds(train, **setting)

    def test_sessions_too_short_for_windows(self):
        short = [raw_session(np.zeros(2 * FS, dtype=np.int32), TaskLabel.BASE),
                 raw_session(np.zeros(2 * FS, dtype=np.int32), TaskLabel.READ)]
        with pytest.raises(CalibrationError):
            calibrate_thresholds(short)

    def test_evaluate_profile_needs_windows(self):
        short = [raw_session(np.zeros(FS, dtype=np.int32))]
        with pytest.raises(CalibrationError):
            evaluate_profile(short, profile())
