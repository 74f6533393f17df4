"""Streaming detector, batch replay equivalence, and threshold calibration."""

import json
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from driveguard.dsp import SCORE_STACK, band_powers_from_samples
from driveguard.errors import ParameterError, ValidationError
from driveguard.index import UndefinedIndexError, distraction_index
from driveguard.model import BAND_NAMES, Device, EegSample, SubjectSession, TaskLabel
from driveguard.stream import (
    AlertEvent,
    CalibrationError,
    CalibrationProfile,
    CalibrationResult,
    DetectorState,
    SequencingError,
    STREAM_FS_HZ,
    TRACE_HEADER,
    _candidate_thresholds,
    _hop_feature_rows,
    _search_thresholds,
    _stored_rows,
    calibrate_thresholds,
    evaluate_profile,
    feed_block,
    judge_hop,
    process_sample,
    replay_session,
    stream_samples,
    stream_session,
    trace_line,
)
from driveguard.synth import (BurstSpec, GeneratorSpec, PinkNoiseSpec,
                              generate_benchmark_suite, generate_session)

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


def outputs(result):
    """``(alerts, trace)`` as a comparable value: the alerts, then the trace
    array's shape and bytes, so NaN DI cells compare equal bit for bit."""
    alerts, trace = result
    assert trace.dtype == np.float64 and trace.ndim == 2 and trace.shape[1] == 7
    return alerts, trace.shape, trace.tobytes()


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

    def test_infinite_threshold_allowed(self):
        p = profile(band_thresholds={"beta": math.inf})
        assert p.band_thresholds["beta"] == math.inf

    def test_criteria_order(self):
        # a row crossing everything: triggers in band order then di,
        # observed values in the profile's order then di
        p = profile(band_thresholds={"gamma": 1.0, "theta": 2.0},
                    di_threshold=3.0)
        trigger, observed = judge_hop([9.0] * 6, p)
        assert trigger == ("theta", "gamma", "di")
        assert list(observed) == ["gamma", "theta", "di"]
        assert judge_hop([9.0] * 6, profile(band_thresholds={})) == ((), {})

    def test_json_round_trip(self):
        p = profile(band_thresholds={"alpha": 2.5, "beta": 1.25},
                    di_threshold=4.0)
        back = CalibrationProfile.from_json(p.to_json())
        assert back == p

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            CalibrationProfile.from_dict({"subject_id": "x"})

    @pytest.mark.parametrize("field, value", [
        ("refactory_s", 9.0), ("refractory_s", True), ("window_s", "4"),
        ("hop_s", 10 ** 400), ("di_threshold", False), ("di_threshold", "6"),
        ("band_thresholds", {"beta": True}), ("band_thresholds", {"beta": "1"}),
        ("band_thresholds", [["beta", 1.0]]), ("combine", "xor")])
    def test_from_dict_takes_only_fields_and_numbers(self, field, value):
        # an unknown field, a value that is no JSON number, or a combine
        # other than "or"
        record = {**profile().to_dict(), field: value}
        with pytest.raises(ValidationError):
            CalibrationProfile.from_dict(record)

    def test_from_dict_reads_integers_as_floats(self):
        p = CalibrationProfile.from_dict({
            "subject_id": "x", "band_thresholds": {"beta": 5}, "di_threshold": 6,
            "refractory_s": 3, "window_s": 4, "hop_s": 1})
        assert p == profile(subject_id="x", band_thresholds={"beta": 5.0},
                            di_threshold=6.0, refractory_s=3.0)
        assert json.loads(p.to_json())["band_thresholds"] == {"beta": 5.0}

    def test_from_dict_reads_combine_only_as_or(self):
        # profiles written while the profile had a combine setting hold
        # "combine": "or"; that key still reads, and no other value does
        record = profile(di_threshold=4.0).to_dict()
        assert "combine" not in record
        assert CalibrationProfile.from_dict({**record, "combine": "or"}) == \
            profile(di_threshold=4.0)
        for value in ("and", 5, None, [1]):
            with pytest.raises(ValidationError, match="combine"):
                CalibrationProfile.from_dict({**record, "combine": value})


class TestDetectorState:
    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError):
            DetectorState(profile(), fs_hz=0)
        with pytest.raises(ParameterError):
            DetectorState(profile(hop_s=1.0 / 3.0), fs_hz=FS)

    def test_rejects_a_fractional_rate(self):
        # 4 s are 401 whole samples at 100.25 Hz, but hop times were stamped
        # at a rate truncated to 100 Hz
        p = profile(window_s=4.0, hop_s=4.0, refractory_s=4.0)
        with pytest.raises(ParameterError, match="whole Hz, got 100.25"):
            DetectorState(p, fs_hz=100.25)

    def test_whole_float_rate_is_that_integer(self):
        state = DetectorState(profile(), fs_hz=512.0)
        assert state.fs_hz == 512 and type(state.fs_hz) is int
        raw = np.arange(3 * FS) % 100
        assert outputs(feed_block(state, raw, 0.0)) == \
            outputs(feed_block(DetectorState(profile()), raw, 0.0))

    @pytest.mark.parametrize("fs", [-512, math.nan, math.inf])
    def test_rejects_rates_that_are_not_finite_and_positive(self, fs):
        with pytest.raises(ParameterError, match="fs must be finite and positive"):
            DetectorState(profile(), fs_hz=fs)

    def test_buffer_is_fixed_size(self):
        state = DetectorState(profile(), fs_hz=FS)
        assert state.win_n == 4 * FS
        assert state.hop_n == FS
        assert state._buf.size == state.win_n + state.hop_n
        # at a hop boundary, then between two hops
        for start, n in ((0, 3 * state.win_n), (3 * state.win_n, 3 * state.win_n + 100)):
            for i in range(start, n):
                process_sample(state, EegSample(t=i / FS, raw=i % 1024))
            assert state._buf.size == state.win_n + state.hop_n
            assert state.samples_seen == n
            expected = np.array([i % 1024 for i in range(n - state.win_n, n)])
            assert np.array_equal(state._buf[state._fill - state.win_n:state._fill],
                                  expected)

    def test_last_hop_replaced_only_at_hop_boundaries(self):
        state = DetectorState(profile(), fs_hz=FS)
        hops = []
        for i in range(state.win_n + 2 * state.hop_n):
            process_sample(state, EegSample(t=i / FS, raw=i % 1024))
            if not hops or state.last_hop is not hops[-1]:
                hops.append(state.last_hop)
        assert hops[0] is None
        assert all(type(h) is tuple and len(h) == 7 for h in hops[1:])
        assert [h[0] for h in hops[1:]] == [
            (state.win_n + k * state.hop_n - 1) / FS for k in range(3)]

    def test_window_not_full_after_one_sample(self):
        state = DetectorState(profile(), fs_hz=FS)
        process_sample(state, EegSample(t=0.0, raw=7))
        assert state._fill - state.hop_n == 1 < state.win_n
        assert state._buf[state.hop_n:state._fill].tolist() == [7]
        assert state.last_hop is None

    def test_sequencing(self):
        state = DetectorState(profile(), fs_hz=FS)
        process_sample(state, EegSample(t=0.10, raw=0))
        process_sample(state, EegSample(t=0.10, raw=1))  # equal t is fine
        with pytest.raises(SequencingError):
            process_sample(state, EegSample(t=0.05, raw=2))

    def test_nan_cannot_hide_a_step_back_in_time(self):
        # t = 1.0, nan, 0.5 was accepted: nan became the previous t, and
        # 0.5 < nan is False. EegSample now rejects nan, but a record is not
        # frozen, so a nan set after its checks must be stopped here
        state = DetectorState(profile(), fs_hz=FS)
        process_sample(state, EegSample(t=1.0, raw=0))
        sample = EegSample(t=2.0, raw=1)
        sample.t = math.nan
        with pytest.raises(SequencingError):
            process_sample(state, sample)
        with pytest.raises(SequencingError):
            process_sample(state, EegSample(t=0.5, raw=2))
        assert state.samples_seen == 1 and state._prev_t == 1.0


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

    def test_no_criteria_never_alerts(self):
        data = tone(20.0, 8.0)
        alerts, _ = stream_session(raw_session(data),
                                   profile(band_thresholds={}))
        assert alerts == []


# the acceptance-5 corpus: 100 seeded 8 s sessions over four burst variants
A5_VARIANTS = (
    (),
    (BurstSpec(band="beta", center_hz=22.0, rate_hz=2.0, gain=2.5),),
    (BurstSpec(band="theta", center_hz=6.0, rate_hz=1.5, gain=2.0),),
    (BurstSpec(band="alpha", center_hz=10.0, rate_hz=1.0, gain=2.0),
     BurstSpec(band="gamma", center_hz=34.0, rate_hz=1.0, gain=1.5)),
)
A5_PROFILE = CalibrationProfile(
    subject_id="fuzz", band_thresholds={"beta": 2.0, "theta": 3.0},
    di_threshold=6.0, refractory_s=2.0)


def fed_one_by_one(state, raw, t0=0.0):
    """The per-sample route: ``process_sample`` on each sample, j at t0 + j / fs,
    with its trace gathered from ``state.last_hop``."""
    alerts, hops = [], []
    for j, value in enumerate(np.asarray(raw).tolist()):
        before = state.last_hop
        _, alert = process_sample(state, EegSample(t=t0 + j / state.fs_hz, raw=value))
        if state.last_hop is not before:
            hops.append(state.last_hop)
        if alert is not None:
            alerts.append(alert)
    return alerts, np.array(hops, dtype=np.float64).reshape(-1, 7)


def fed_in_blocks(state, raw, sizes):
    """``feed_block`` over consecutive slices of ``raw`` with the given sizes."""
    alerts, traces = [], [np.empty((0, 7))]
    start = 0
    for size in sizes:
        a, trace = feed_block(state, raw[start:start + size], start / state.fs_hz)
        alerts += a
        traces.append(trace)
        start += size
    assert start == raw.size
    return alerts, np.concatenate(traces)


def state_of(state):
    last_hop = None if state.last_hop is None else np.array(state.last_hop).tobytes()
    return (state.samples_seen, state._prev_t, last_hop,
            state.last_alert_t, state._fill, state._buf[:state._fill].tolist())


def split_sizes(n, size):
    return [size] * (n // size) + ([n % size] if n % size else [])


def random_sizes(n, seed, high):
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(0, high)), n - sum(sizes)))
    return sizes


@pytest.fixture(scope="module")
def a5_oracle():
    """Each acceptance-5 recording with its per-sample alerts, hops and state."""
    corpus = []
    for seed in range(100):
        raw = generate_session(GeneratorSpec(
            seed=seed, task=TaskLabel.TEXT if seed % 4 else TaskLabel.BASE,
            duration_s=8.0, baseline=PinkNoiseSpec(amplitude_uv=15.0),
            bursts=A5_VARIANTS[seed % 4])).raw[0]
        state = DetectorState(A5_PROFILE)
        alerts, hops = fed_one_by_one(state, raw)
        corpus.append((raw, alerts, hops, state_of(state)))
    assert sum(len(alerts) for _, alerts, _, _ in corpus) > 0
    return corpus


class TestFeedBlock:
    @pytest.mark.parametrize("split", ["1", "hop_n-1", "hop_n", "win_n",
                                       "win_n+1", "whole", "random"])
    def test_equals_per_sample_route(self, a5_oracle, split):
        for seed, (raw, alerts, hops, final) in enumerate(a5_oracle):
            state = DetectorState(A5_PROFILE)
            win_n, hop_n = state.win_n, state.hop_n
            sizes = {"1": lambda: split_sizes(raw.size, 1),
                     "hop_n-1": lambda: split_sizes(raw.size, hop_n - 1),
                     "hop_n": lambda: split_sizes(raw.size, hop_n),
                     "win_n": lambda: split_sizes(raw.size, win_n),
                     "win_n+1": lambda: split_sizes(raw.size, win_n + 1),
                     "whole": lambda: [raw.size],
                     "random": lambda: random_sizes(raw.size, seed, 2 * win_n),
                     }[split]()
            assert outputs(fed_in_blocks(state, raw, sizes)) == outputs((alerts, hops)), seed
            assert state_of(state) == final, seed

    def test_buffer_stores_values_as_feed_block_casts_them(self):
        # both routes write the int32 buffer by numpy's cast: a numpy integer
        # and a bool as their values, an in-range float truncated
        values = [np.int16(-5), True, 100.7, -3.9, np.int64(2047)]
        one = DetectorState(A5_PROFILE)
        fed_one_by_one(one, np.array(values, dtype=object))
        block = DetectorState(A5_PROFILE)
        feed_block(block, values, 0.0)
        assert one._buf[one.hop_n:][:5].tolist() == [-5, 1, 100, -3, 2047]
        assert state_of(one) == state_of(block)
        assert state_of(pickle.loads(pickle.dumps(one))) == state_of(one)

    def test_offset_start_time(self, a5_oracle):
        for raw, _, _, _ in a5_oracle[:8]:
            t0 = 3.3  # not a multiple of 1 / fs
            one = DetectorState(A5_PROFILE)
            block = DetectorState(A5_PROFILE)
            assert outputs(feed_block(block, raw, t0)) == outputs(fed_one_by_one(one, raw, t0))
            assert state_of(block) == state_of(one)

    def test_routes_mix(self, a5_oracle):
        raw, alerts, hops, final = a5_oracle[1]
        state = DetectorState(A5_PROFILE)
        cut = 2500
        head = fed_one_by_one(state, raw[:cut])
        tail = feed_block(state, raw[cut:], cut / FS)
        assert outputs((head[0] + tail[0], np.concatenate([head[1], tail[1]]))) == \
            outputs((alerts, hops))
        assert state_of(state) == final

    @pytest.mark.parametrize("hop_s", [1.0, 4.0, 5.0])
    def test_hop_at_or_beyond_window(self, a5_oracle, hop_s):
        # a block longer than the buffer keeps only what the next hop needs
        p = profile(window_s=4.0, hop_s=hop_s, refractory_s=hop_s)
        raw = np.concatenate([a5_oracle[5][0], a5_oracle[6][0]])
        one = DetectorState(p)
        expected = outputs(fed_one_by_one(one, raw))
        assert expected == outputs(replay_session(raw_session(raw), p))
        for size in (1, 700, 3000, raw.size):
            block = DetectorState(p)
            assert outputs(fed_in_blocks(block, raw, split_sizes(raw.size, size))) == expected
            assert state_of(block) == state_of(one)

    def test_block_of_several_score_stacks(self):
        # 37 hops in one block: two score stacks, and every hop crosses
        raw = np.random.default_rng(23).integers(-300, 300, size=40 * FS)
        p = profile(band_thresholds={"beta": 1e-9}, refractory_s=3.0)
        one = DetectorState(p)
        alerts, hops = fed_one_by_one(one, raw)
        assert len(hops) == 37 > SCORE_STACK
        alert_times = {a.t for a in alerts}
        # the alert at hop 30 suppresses hop 32, across the stacks' boundary
        assert [i for i, t in enumerate(hops[:, 0].tolist()) if t in alert_times] == \
            list(range(0, 37, 3))
        for sizes in ([raw.size], [1000, raw.size - 1000], [5000, raw.size - 5000]):
            block = DetectorState(p)
            assert outputs(fed_in_blocks(block, raw, sizes)) == outputs((alerts, hops)), sizes
            assert state_of(block) == state_of(one)

    @pytest.mark.parametrize("sizes", [[700, 3000], [2047, 2], [1, 2600, 512, 513]])
    def test_block_starting_before_the_window_fills(self, a5_oracle, sizes):
        raw, alerts, hops, final = a5_oracle[2]
        sizes = sizes + [raw.size - sum(sizes)]
        state = DetectorState(A5_PROFILE)
        assert outputs(fed_in_blocks(state, raw, sizes)) == outputs((alerts, hops))
        assert state_of(state) == final

    @pytest.mark.parametrize("size", [1, 100, 1000, 3 * FS - 1])
    def test_hop_longer_than_window_in_blocks_shorter_than_a_hop(self, a5_oracle, size):
        p = profile(window_s=2.0, hop_s=3.0, refractory_s=3.0)
        raw = np.concatenate([a5_oracle[5][0], a5_oracle[6][0]])
        one = DetectorState(p)
        expected = outputs(fed_one_by_one(one, raw))
        assert expected[1] == (5, 7)
        assert expected == outputs(replay_session(raw_session(raw), p))
        block = DetectorState(p)
        assert outputs(fed_in_blocks(block, raw, split_sizes(raw.size, size))) == expected
        assert state_of(block) == state_of(one)

    def test_empty_block_changes_nothing(self, a5_oracle):
        raw = a5_oracle[0][0]
        state = DetectorState(A5_PROFILE)
        feed_block(state, raw[:3000], 0.0)
        before = state_of(state)
        assert outputs(feed_block(state, raw[:0], 3000 / FS)) == ([], (0, 7), b"")
        assert state_of(state) == before

    def test_first_out_of_range_value_in_stream_order(self):
        raw = np.zeros(40, dtype=np.int64)
        raw[5], raw[9] = 3000, -30000
        with pytest.raises(ValidationError) as per_sample:
            fed_one_by_one(DetectorState(profile()), raw)
        state = DetectorState(profile())
        feed_block(state, np.ones(10, dtype=np.int32), 0.0)
        before = state_of(state)
        with pytest.raises(ValidationError) as block:
            feed_block(state, raw, 10 / FS)
        assert str(block.value) == str(per_sample.value) == \
            "raw sample 3000 outside ADC range [-2048, 2047]"
        assert state_of(state) == before

    @pytest.mark.parametrize("values, message", [
        ([1, math.nan, 3000], "raw sample nan outside ADC range [-2048, 2047]"),
        ([math.inf], "raw sample inf outside ADC range [-2048, 2047]"),
        ([0, -math.inf], "raw sample -inf outside ADC range [-2048, 2047]"),
        ([2, 2047.5], "raw sample 2047.5 outside ADC range [-2048, 2047]"),
        (["x"], "raw sample must be a number, got 'x'"),
        ([1, None, 3000], "raw sample must be a number, got None"),
        ([1, 2**70], "raw sample 1180591620717411303424 outside ADC range [-2048, 2047]"),
        ([1j], "raw sample must be a number, got 1j"),
    ], ids=["nan", "inf", "-inf", "float", "str", "none", "big-int", "complex"])
    def test_bad_values_rejected_as_per_sample(self, values, message):
        with pytest.raises(ValidationError) as per_sample:
            fed_one_by_one(DetectorState(profile()), np.array(values, dtype=object))
        state = DetectorState(profile())
        feed_block(state, [0, 1], 0.0)
        before = state_of(state)
        # a NaN cast into the ring would also warn, which fails the test
        with pytest.raises(ValidationError) as block:
            feed_block(state, values, 2 / FS)
        assert str(block.value) == str(per_sample.value) == message
        assert state_of(state) == before

    @pytest.mark.parametrize("raw", [np.zeros((2, 3)), np.int32(5)], ids=["2-D", "0-D"])
    def test_block_must_be_one_dimensional(self, raw):
        state = DetectorState(profile())
        with pytest.raises(ValidationError, match=r"1-D block, got shape \("):
            feed_block(state, raw, 0.0)
        assert state.samples_seen == 0

    def test_object_block_of_numbers_is_stored_as_numbers(self):
        values = np.array([3, 100.7, -2048], dtype=object)
        one = DetectorState(A5_PROFILE)
        fed_one_by_one(one, values)
        block = DetectorState(A5_PROFILE)
        feed_block(block, values, 0.0)
        assert block._buf[block.hop_n:][:3].tolist() == [3, 100, -2048]
        assert state_of(one) == state_of(block)

    def test_negative_start_time(self):
        with pytest.raises(ValidationError) as per_sample:
            fed_one_by_one(DetectorState(profile()), [0, 1], t0=-0.5)
        state = DetectorState(profile())
        with pytest.raises(ValidationError) as block:
            feed_block(state, [0, 1], -0.5)
        assert str(block.value) == str(per_sample.value)
        assert state.samples_seen == 0

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time(self, t0):
        with pytest.raises(ValidationError) as per_sample:
            fed_one_by_one(DetectorState(profile()), [0, 1], t0=t0)
        state = DetectorState(profile())
        feed_block(state, [0, 1], 0.0)
        before = state_of(state)
        with pytest.raises(ValidationError) as block:
            feed_block(state, [2, 3], t0)
        assert str(block.value) == str(per_sample.value) == \
            f"sample timestamp must be finite and >= 0, got {t0}"
        assert state_of(state) == before

    def test_start_time_before_previous_sample(self):
        per_sample = DetectorState(profile())
        fed_one_by_one(per_sample, [0, 1, 2], t0=0.5)
        with pytest.raises(SequencingError) as expected:
            process_sample(per_sample, EegSample(t=0.5, raw=3))
        state = DetectorState(profile())
        feed_block(state, [0, 1, 2], 0.5)
        before = state_of(state)
        with pytest.raises(SequencingError) as block:
            feed_block(state, [3, 4], 0.5)
        assert str(block.value) == str(expected.value)
        assert state_of(state) == before
        # an equal timestamp is fine, as for process_sample
        feed_block(state, [3], 0.5 + 2 / FS)
        assert state.samples_seen == 4


class TestStreamCost:
    def test_600_s_recording_streams_fast(self):
        raw = np.random.default_rng(19).integers(-2048, 2048, size=600 * FS)
        p = profile(band_thresholds={"beta": 50.0}, di_threshold=5.0)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            alerts, trace = stream_samples(raw, p)
            best = min(best, time.perf_counter() - start)
        assert best < 0.25
        session = raw_session(raw)
        assert outputs((alerts, trace)) == outputs(replay_session(session, p))
        assert len(trace) == 597


class TestReplay:
    def test_trace_schedule(self):
        session = synth_session(1)
        _, trace = replay_session(session, profile())
        assert trace.shape == (17, 7)  # ends 4..20 s on 1 s hops
        assert trace[0, 0] == (4 * FS - 1) / FS
        assert trace[-1, 0] == (20 * FS - 1) / FS

    def test_short_session_yields_nothing(self):
        session = raw_session(np.zeros(2 * FS, dtype=np.int32))
        assert outputs(replay_session(session, profile())) == ([], (0, 7), b"")

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
        row = trace_line(trace[0].tolist())
        assert row.endswith("\n")
        cells = row[:-1].split(",")
        assert len(cells) == 7
        assert float(cells[0]) == trace[0, 0]
        assert cells[0] == f"{trace[0, 0]:.9f}"
        assert cells[1:] == [f"{v:.9g}" for v in trace[0, 1:].tolist()]
        undefined = [1.0, *trace[0, 1:6].tolist(), math.nan]
        assert trace_line(undefined).endswith(",\n")

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
            assert streamed_trace.tobytes() == replayed_trace.tobytes()


def per_window_hop_trace(session, p):
    """The trace of a stored session with each window cut and scored on its
    own, a row of end time, band powers and DI (NaN where undefined): the
    oracle for the stacked rows of ``_stored_rows`` and for both routes'
    trace arrays."""
    data = session.raw[0]
    win_n, hop_n = p.sample_counts(session.fs_hz)
    trace = []
    for end in range(win_n, data.size + 1, hop_n):
        powers = band_powers_from_samples(data[end - win_n:end], session.fs_hz)
        try:
            di = distraction_index(powers)
        except UndefinedIndexError:
            di = math.nan
        trace.append([(end - 1) / session.fs_hz, *powers.as_tuple(), di])
    return np.array(trace, dtype=np.float64).reshape(-1, 7)


class TestStoredRows:
    """The stacked rows of a stored recording equal scoring each window alone."""

    @pytest.mark.parametrize("seed", [11, 37, 5])
    def test_equal_to_per_window_route(self, seed):
        session = synth_session(seed, task=TaskLabel.TEXT, bursts=STRONG_BETA,
                                dur=100.0)
        # 129 hops: more than one stacked call
        p = profile(hop_s=0.75)
        want = per_window_hop_trace(session, p)
        rows = _stored_rows(session, p)
        assert rows.shape == (len(want), 6)
        assert np.array_equal(rows, want[:, 1:], equal_nan=True)
        assert np.array_equal(replay_session(session, p)[1], want, equal_nan=True)

    def test_zero_windows_and_odd_length(self):
        rng = np.random.default_rng(8)
        data = rng.integers(-200, 200, size=16 * FS, dtype=np.int32)
        data[:6 * FS] = 0  # the first windows are all zero
        session = raw_session(data)
        p = profile(window_s=1025 / FS, hop_s=0.5)  # an odd window length
        want = per_window_hop_trace(session, p)
        assert math.isnan(want[0, 6]) and want[0, 1:6].tolist() == [0.0] * 5
        assert not math.isnan(want[-1, 6])
        rows = _stored_rows(session, p)
        assert math.isnan(rows[0, 5])
        assert np.array_equal(rows, want[:, 1:], equal_nan=True)
        assert np.array_equal(replay_session(session, p)[1], want, equal_nan=True)
        assert np.array_equal(stream_session(session, p)[1], want, equal_nan=True)


class TestTraceArray:
    """Every route returns one float64 ``(hops, 7)`` trace array, and the
    streamed traces are replay's bit for bit, NaN DI cells included."""

    @staticmethod
    def with_undefined_di():
        # the windows ending at 9..12 s hold only zeros: no power, no DI
        data = np.random.default_rng(41).integers(-300, 300, size=20 * FS)
        data[5 * FS:12 * FS] = 0
        return raw_session(data)

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_stream_and_replay_traces_are_bit_identical(self, seed):
        session = (self.with_undefined_di() if seed == 0 else
                   synth_session(seed, TaskLabel.TEXT, STRONG_BETA))
        p = profile(band_thresholds={"beta": 2.0}, di_threshold=5.0)
        replayed = replay_session(session, p)
        want, trace = outputs(replayed), replayed[1]
        assert np.isnan(trace[:, 6]).any() == (seed == 0)
        assert np.array_equal(trace, per_window_hop_trace(session, p), equal_nan=True)
        raw = session.raw[0]
        routes = {"stream_session": stream_session(session, p),
                  "stream_samples": stream_samples(raw, p),
                  "process_sample": fed_one_by_one(DetectorState(p), raw)}
        for k in range(6):
            sizes = random_sizes(raw.size, 10 * seed + k, 3 * FS)
            routes[f"split {k}"] = fed_in_blocks(DetectorState(p), raw, sizes)
        for route, got in routes.items():
            assert outputs(got) == want, route

    def test_last_hop_is_the_last_trace_row(self):
        session = self.with_undefined_di()
        state = DetectorState(profile())
        _, trace = feed_block(state, session.raw[0][:11 * FS], 0.0)
        assert math.isnan(state.last_hop[6])
        assert np.array(state.last_hop).tobytes() == trace[-1].tobytes()

    @pytest.mark.parametrize("n", [4 * FS - 1, 4 * FS, 5 * FS - 1, 5 * FS, 20 * FS + 3])
    def test_length_is_the_hop_count(self, n):
        # perfbench counts replay's hops as len(replay_session(...)[1])
        session = raw_session(np.zeros(n, dtype=np.int32))
        hops = max(0, (n - 4 * FS) // FS + 1)
        assert len(replay_session(session, profile())[1]) == hops
        assert len(stream_session(session, profile())[1]) == hops


class TestJudgeHop:
    ROW = [0.5, 2.0, 1.0, 3.0, 0.25, 7.5]  # delta..gamma, then DI

    def test_values_and_crossings(self):
        p = profile(band_thresholds={"gamma": 0.1, "delta": 9.0, "theta": 1.0},
                    di_threshold=5.0)
        trigger, observed = judge_hop(self.ROW, p)
        assert trigger == ("theta", "gamma", "di")
        assert list(observed.items()) == [
            ("gamma", 0.25), ("delta", 0.5), ("theta", 2.0), ("di", 7.5)]

    def test_undefined_di_never_crosses(self):
        row = [*self.ROW[:5], math.nan]
        assert judge_hop(row, profile(band_thresholds={}, di_threshold=1.0)) == (
            (), {"di": None})

    def test_agrees_with_the_searchs_array_form(self, monkeypatch):
        # judge_hop decides alerts one row at a time; _search_thresholds
        # builds the same OR as ``pred |= rows[:, col] > thr`` over arrays,
        # and evaluate_profile scores with it
        rng = np.random.default_rng(29)
        rows = rng.lognormal(size=(400, 6))
        rows[rng.random(400) < 0.25, 5] = math.nan  # undefined DI
        truth = rng.random(400) < 0.5
        monkeypatch.setattr("driveguard.stream._hop_feature_rows",
                            lambda sessions, profile: (rows, truth))
        profiles = [profile(band_thresholds={}),
                    profile(band_thresholds={}, di_threshold=1.0),
                    profile(band_thresholds={}, di_threshold=math.inf)]

        def threshold(col):
            # a tie with some row, a fresh value, or a criterion that never crosses
            column = rows[:, col][~np.isnan(rows[:, col])]
            return float(rng.choice([rng.choice(column), rng.lognormal(), math.inf]))

        for _ in range(200):
            bands = {b: threshold(i) for i, b in enumerate(BAND_NAMES)
                     if rng.random() < 0.4}
            di = threshold(5) if rng.random() < 0.5 else None
            profiles.append(profile(band_thresholds=bands, di_threshold=di))
        for p in profiles:
            cols = {BAND_NAMES.index(b): t for b, t in p.band_thresholds.items()}
            if p.di_threshold is not None:
                cols[5] = p.di_threshold
            want = np.zeros(len(rows), dtype=bool)
            for col, thr in cols.items():
                want |= rows[:, col] > thr
            got = [bool(judge_hop(row, p)[0]) for row in rows.tolist()]
            assert got == want.tolist(), p
            assert evaluate_profile([], p) == scalar_f1(np.array(got), truth), p


class TestAlertEvent:
    def test_round_trip_dict(self):
        a = AlertEvent(t=4.5, trigger=("beta", "di"),
                       observed={"beta": 3.2, "di": 6.0}, severity=6.0)
        d = a.to_dict()
        assert d == {"t": 4.5, "trigger": ["beta", "di"],
                     "observed": {"beta": 3.2, "di": 6.0}, "severity": 6.0}


def scalar_f1(pred, truth, weighted=True):
    """F1 of one prediction, in Python integers and floats. Weighted, each
    label's rows count as many times as the other label has rows (at least
    once), so both labels weigh the same."""
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    if weighted:
        n_pos = int(np.sum(truth))
        n_neg = truth.size - n_pos
        tp, fp, fn = max(n_neg, 1) * tp, max(n_pos, 1) * fp, max(n_neg, 1) * fn
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def per_candidate_search(rows, truth, use_di, max_candidates, weighted=True):
    """The greedy search scoring one candidate at a time: the oracle for
    ``_search_thresholds``, and unweighted, the search before both labels
    were weighted equally."""
    dims = list(range(6)) if use_di else list(range(5))
    chosen = {}
    best_pred = np.zeros(truth.size, dtype=bool)
    best_f1 = scalar_f1(best_pred, truth, weighted)
    while True:
        step_best = None
        for dim in dims:
            if dim in chosen:
                continue
            col = rows[:, dim]
            for thr in _candidate_thresholds(col, max_candidates):
                pred = best_pred | (col > thr)
                f1 = scalar_f1(pred, truth, weighted)
                key = (f1, thr)
                if step_best is None or key > step_best[0]:
                    step_best = (key, dim, thr, pred)
        if step_best is None or step_best[0][0] <= best_f1 + 1e-12:
            break
        _, dim, thr, pred = step_best
        chosen[dim] = float(thr)
        best_pred = pred
        best_f1 = step_best[0][0]
    return chosen, best_f1


def random_hop_table(rng):
    """Hop rows (five band powers and DI) and labels that stress the
    search: repeated values, constant columns, NaN DI, skewed labels."""
    n = int(rng.integers(1, 60))
    truth = rng.random(n) < rng.choice([0.05, 0.3, 0.5, 0.7, 0.95])
    rows = np.empty((n, 6))
    for dim in range(6):
        kind = rng.choice(["spread", "ties", "constant", "shifted"])
        if kind == "spread":
            rows[:, dim] = rng.lognormal(size=n)
        elif kind == "ties":
            rows[:, dim] = rng.integers(0, 4, size=n) * 0.5
        elif kind == "constant":
            rows[:, dim] = 3.0
        else:  # lifts a random part of the positives
            rows[:, dim] = rng.lognormal(size=n) + 3.0 * (truth & (rng.random(n) < 0.5))
    if rng.random() < 0.3:  # two columns tie on every candidate
        a, b = rng.choice(6, size=2, replace=False)
        rows[:, b] = rows[:, a]
    if rng.random() < 0.5:
        rows[rng.random(n) < rng.choice([0.2, 1.0]), 5] = np.nan
    return rows, truth


class TestSearch:
    """The array search picks what the per-candidate loop picks."""

    @pytest.mark.parametrize("max_candidates", [1, 3, 32, 500])
    def test_matches_per_candidate_loop(self, max_candidates):
        rng = np.random.default_rng(max_candidates)
        picks = set()
        for _ in range(60):
            rows, truth = random_hop_table(rng)
            use_di = bool(rng.random() < 0.7)
            want = per_candidate_search(rows, truth, use_di, max_candidates)
            got = _search_thresholds(rows, truth, use_di, max_candidates)
            assert list(got[0].items()) == list(want[0].items())
            assert got[1] == want[1]
            assert type(got[1]) is float
            picks.add(min(len(want[0]), 2))
        assert picks == {0, 1, 2}  # no pick, one pick and several all occur

    def test_tie_goes_to_higher_threshold_then_earlier_column(self):
        truth = np.array([False, True, True, False])
        rows = np.zeros((4, 6))
        rows[:, 1] = rows[:, 4] = [0.0, 2.0, 2.0, 0.0]  # theta and gamma tie
        rows[:, 2] = [0.0, 1.0, 1.0, 0.0]  # alpha ties at a lower threshold
        chosen, f1 = _search_thresholds(rows, truth, True, 32)
        assert chosen == {1: 1.0} and f1 == 1.0

    def test_memory_linear_without_candidate_cap(self):
        rng = np.random.default_rng(3000)
        truth = rng.random(3000) < 0.5
        rows = rng.lognormal(size=(3000, 6)) + 0.3 * truth[:, None]
        tracemalloc.start()
        try:
            chosen, _ = _search_thresholds(rows, truth, True, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chosen
        assert peak < 3_000_000


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

    def test_search_f1_is_the_profiles_f1(self):
        # the F1 the search reports is the one evaluate_profile scores with
        # judge_hop, also where the best profile still misses windows
        suite = generate_benchmark_suite(11, n_subjects=4, trials_per_task=30)
        f1s = []
        for subject in sorted({s.subject_id for s in suite}):
            sessions = [s for s in suite if s.subject_id == subject]
            for train in (sessions, [s for s in sessions
                                     if s.task in (TaskLabel.BASE, TaskLabel.TEXT)]):
                result = calibrate_thresholds(train)
                assert result.f1 == evaluate_profile(train, result.profile)
                f1s.append(result.f1)
        assert len(f1s) == 8 and max(f1s) < 1.0

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
        train = [synth_session(1, TaskLabel.BASE),
                 synth_session(2, TaskLabel.TEXT, STRONG_BETA)]
        rows, truth = _hop_feature_rows(train, profile(window_s=4.0, hop_s=1.0))
        best_single = 0.0
        for dim in range(6):
            col = rows[:, dim]
            for thr in _candidate_thresholds(col, 200):
                best_single = max(best_single, scalar_f1(col > thr, truth))
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

    def test_errors_keep_their_order(self):
        base, text = synth_session(1, TaskLabel.BASE), synth_session(2, TaskLabel.TEXT)
        slow = raw_session(np.zeros(20 * 128, dtype=np.int32), TaskLabel.READ, fs=128,
                           subject="cal-1")
        # the labels are checked before any session's rows are cut
        with pytest.raises(CalibrationError, match="at least one Base"):
            calibrate_thresholds([slow, text])
        with pytest.raises(ValidationError, match="512 Hz"):
            calibrate_thresholds([base, slow, text])

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


def suite_by_subject(seed, epsilon=1.0):
    """Each subject's five 120 s recordings of a benchmark suite."""
    by_subject = {}
    for session in generate_benchmark_suite(seed, n_subjects=4, trials_per_task=30,
                                            epsilon=epsilon):
        by_subject.setdefault(session.subject_id, []).append(session)
    return by_subject


class TestEqualLabelWeights:
    """Calibration and ``evaluate_profile`` weigh Base and distraction
    windows equally, however the recording lengths compare."""

    def test_noise_cannot_calibrate(self):
        # one Base and four distraction recordings: counted a row at a time,
        # alerting on every window scored F1 0.889 and passed
        for subject, sessions in suite_by_subject(11, epsilon=0.0).items():
            result = calibrate_thresholds(sessions)
            assert not result.ok, subject
            assert result.f1 < 0.75
            assert (result.n_base, result.n_positive, result.n_windows) == (117, 468, 585)
            assert result.f1_always_alert == 2 / 3
            always = profile(subject_id=subject, band_thresholds={"delta": 1e-12})
            assert evaluate_profile(sessions, always) == 2 / 3

    def test_held_out_profile_alerts_on_tasks_not_on_base(self):
        # calibrated on seed 11's five recordings of a subject, scored on
        # seed 37's: 0-5.1 % of Base windows and 88-100 % of each task's
        # windows alert, for the four subjects
        held_out = suite_by_subject(37)
        for subject, sessions in suite_by_subject(11).items():
            result = calibrate_thresholds(sessions)
            assert result.ok, subject
            for session in held_out[subject]:
                rows = _stored_rows(session, result.profile).tolist()
                share = np.mean([bool(judge_hop(row, result.profile)[0]) for row in rows])
                if session.task.is_distraction:
                    assert share >= 0.85, (subject, session.task)
                else:
                    assert share <= 0.10, subject

    def test_equal_length_pairs_match_the_unweighted_search(self):
        # equal label counts scale every F1's terms alike, so the weighted
        # search picks the unweighted search's thresholds and F1 to the bit
        for subject, sessions in suite_by_subject(11).items():
            base = sessions[0]
            assert base.task is TaskLabel.BASE
            for other in sessions[1:]:
                rows, truth = _hop_feature_rows([base, other], profile())
                chosen, f1 = per_candidate_search(rows, truth, True, 32, weighted=False)
                assert chosen
                result = calibrate_thresholds([base, other])
                assert result.f1 == f1
                assert result.profile.di_threshold == chosen.pop(5, None)
                assert list(result.profile.band_thresholds.items()) == [
                    (BAND_NAMES[col], thr) for col, thr in chosen.items()]

    def test_balanced_tables_match_the_unweighted_search(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            rows, _ = random_hop_table(rng)
            n = len(rows) // 2 * 2
            if n == 0:
                continue
            rows = rows[:n]
            truth = rng.permutation(np.arange(n) < n // 2)
            want = per_candidate_search(rows, truth, True, 32, weighted=False)
            got = _search_thresholds(rows, truth, True, 32)
            assert list(got[0].items()) == list(want[0].items())
            assert got[1] == want[1]
