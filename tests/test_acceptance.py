"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each test prints an ACCEPTANCE marker on success and enforces a wall-clock
budget, so a slow regression fails as loudly as a wrong number.
"""

import time

import numpy as np
import pytest

from driveguard.classify import (
    MlpConfig,
    init_mlp_weights,
    kfold_evaluate,
    mlp_sample_gradients,
    vectors_to_dataset,
)
from driveguard.dsp import (
    BANDS,
    band_powers_fft,
    band_powers_from_samples,
    feature_vectors_from_sessions,
)
from driveguard.index import distraction_index, rank_tasks
from driveguard.model import BandPowers, TaskLabel, split_into_trials
from driveguard.protocol import PacketParser, encode_packet, write_arff
from driveguard.stats import table5_report, table6_reports
from driveguard.stream import (
    CalibrationProfile,
    calibrate_thresholds,
    evaluate_profile,
    replay_session,
    stream_session,
)
from driveguard.synth import (
    BurstSpec,
    GeneratorSpec,
    PinkNoiseSpec,
    generate_benchmark_suite,
    generate_session,
)
from driveguard.wavelet import dwt_db8, idwt_db8, max_decomposition_level

FS = 512


def test_acceptance_1_statistics_reproduction():
    start = time.monotonic()

    t5 = table5_report()
    assert t5.statistic == 0.0
    assert t5.p_value == pytest.approx(6.1035e-05, abs=1e-9)
    assert t5.method == "exact"
    assert t5.n == 15
    assert t5.reject

    fried, *posthoc = table6_reports()
    assert fried.statistic == pytest.approx(34.54, abs=0.5)
    assert fried.df == 13
    assert fried.reject

    pinned = {"FC5-FC6": (2.9733, 0.0015), "FC5-O1": (2.6630, 0.0039),
              "FC5-O2": (2.4562, 0.0070)}
    assert [r.test for r in posthoc] == list(pinned)
    for report in posthoc:
        z_ref, p_ref = pinned[report.test]
        assert report.z_value == pytest.approx(z_ref, abs=0.05)
        assert report.p_value == pytest.approx(p_ref, abs=0.001)
        assert report.sided == "one"
        assert report.reject

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS ({elapsed:.2f} s)")


def test_acceptance_2_classifier_benchmark():
    start = time.monotonic()

    suite = generate_benchmark_suite(7)
    assert len({s.subject_id for s in suite}) == 5
    vectors = feature_vectors_from_sessions(suite, mode="fft",
                                            trial_seconds=4.0)
    assert len(vectors) == 5 * 125

    accuracies = {}
    for problem, floor in (("two", 95.0), ("five", 70.0)):
        X, y, names = vectors_to_dataset(vectors, problem=problem)
        gnb, _ = kfold_evaluate(X, y, names, k=10, classifier="gnb", seed=1)
        epochs = 150 if problem == "two" else 60
        mlp, _ = kfold_evaluate(X, y, names, k=10, classifier="mlp", seed=1,
                                mlp_config=MlpConfig(epochs=epochs))
        accuracies[problem] = (gnb.accuracy_pct, mlp.accuracy_pct)
        assert gnb.accuracy_pct >= floor
        assert mlp.accuracy_pct >= floor

    flat = generate_benchmark_suite(7, epsilon=0.0)
    fv = feature_vectors_from_sessions(flat, mode="fft", trial_seconds=4.0)
    X0, y0, names0 = vectors_to_dataset(fv, problem="five")
    chance, _ = kfold_evaluate(X0, y0, names0, k=10, classifier="gnb", seed=1)
    assert 15.0 <= chance.accuracy_pct <= 25.0

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 2 PASS ({elapsed:.1f} s) two={accuracies['two']} "
          f"five={accuracies['five']} chance={chance.accuracy_pct:.1f}")


def test_acceptance_3_numerical_properties():
    start = time.monotonic()

    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(64, 4097))
        mode = ("symmetric", "periodization")[int(rng.integers(0, 2))]
        level = int(rng.integers(1, max_decomposition_level(n) + 1))
        x = rng.normal(size=n)
        back = idwt_db8(dwt_db8(x, level, mode=mode))
        rel = np.max(np.abs(back - x)) / np.max(np.abs(x))
        assert rel <= 1e-9

    for _ in range(10):
        # lengths divisible by 2^level keep periodization padding-free,
        # which is the regime where the transform is exactly orthonormal
        p = int(rng.integers(7, 12))
        n = int(rng.integers(1, 4)) * 2 ** p
        level = max_decomposition_level(n)
        assert n % (2 ** level) == 0
        x = rng.normal(size=n)
        d = dwt_db8(x, level, mode="periodization")
        energy = float(np.sum(d.approx ** 2)) \
            + sum(float(np.sum(det ** 2)) for det in d.details)
        ref = float(np.sum(x ** 2))
        assert abs(energy - ref) / ref <= 1e-9

    def loss(*args):
        err = mlp_sample_gradients(*args)[0]
        return 0.5 * float(np.sum(err * err))

    eps = 1e-5
    worst = 0.0
    for seed in range(20):
        g = np.random.default_rng(seed)
        f, h, c = g.integers(2, 8), g.integers(2, 6), g.integers(2, 5)
        w1, b1, w2, b2 = init_mlp_weights(f, h, c, seed)
        b1, b2 = b1[np.newaxis], b2[np.newaxis]    # vectors are rows
        x = g.normal(size=(1, f))
        t = np.zeros((1, c))
        t[0, g.integers(0, c)] = 1.0
        _, gw1, gb1, gw2, gb2 = mlp_sample_gradients(w1, b1, w2, b2, x, t)
        for arr, grad in ((w1, gw1), (b1, gb1), (w2, gw2), (b2, gb2)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp = loss(w1, b1, w2, b2, x, t)
                arr[ix] = orig - eps
                lm = loss(w1, b1, w2, b2, x, t)
                arr[ix] = orig
                num = (lp - lm) / (2 * eps)
                denom = max(abs(num), abs(grad[ix]), 1e-8)
                worst = max(worst, abs(num - grad[ix]) / denom)
    assert worst <= 1e-4

    names = [b.name for b in BANDS]
    tt = np.arange(2048) / FS
    for _ in range(50):
        band = BANDS[int(rng.integers(0, 5))]
        freq = rng.uniform(band.lo_hz + 0.5, band.hi_hz - 0.5)
        amp = rng.uniform(50, 300)
        sig = np.round(amp * np.sin(2 * np.pi * freq * tt)).astype(np.int32)
        bp = band_powers_from_samples(sig, FS)
        assert names[int(np.argmax(bp.as_tuple()))] == band.name

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS ({elapsed:.1f} s) gradcheck worst {worst:.2e}")


def test_acceptance_4_distraction_index():
    start = time.monotonic()

    equal = BandPowers(delta=2.0, theta=5.0, alpha=5.0, beta=5.0, gamma=5.0)
    assert distraction_index(equal) == 3.0

    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.uniform(0.1, 40.0, size=5)
        bp = BandPowers(*vals)
        scaled = BandPowers(*(vals * rng.uniform(1e-3, 1e3)))
        assert abs(distraction_index(scaled) - distraction_index(bp)) \
            <= 1e-12 * distraction_index(bp)

    graded = list(zip(
        [TaskLabel.READ, TaskLabel.TEXT, TaskLabel.CALL, TaskLabel.SNAPSHOT],
        (0.5, 1.0, 2.0, 4.0)))
    want = [task for task, _ in graded[::-1]]
    for seed in range(20):
        labeled = []
        for ti, (task, gain) in enumerate([(TaskLabel.BASE, None)] + graded):
            bursts = ()
            if gain is not None:
                bursts = (BurstSpec(band="theta", center_hz=6.0, rate_hz=3.0,
                                    duration_s=1.0, gain=gain),)
            session = generate_session(GeneratorSpec(
                seed=(seed, ti), task=task, duration_s=20.0,
                baseline=PinkNoiseSpec(amplitude_uv=10.0), bursts=bursts))
            for w in split_into_trials(session, 4.0):
                labeled.append((task, band_powers_fft(w)))
        ranking = rank_tasks(labeled)
        assert [task for task, _ in ranking.entries] == want

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS ({elapsed:.1f} s)")


def test_acceptance_5_streaming_and_calibration():
    start = time.monotonic()

    variants = {
        0: (),
        1: (BurstSpec(band="beta", center_hz=22.0, rate_hz=2.0, gain=2.5),),
        2: (BurstSpec(band="theta", center_hz=6.0, rate_hz=1.5, gain=2.0),),
        3: (BurstSpec(band="alpha", center_hz=10.0, rate_hz=1.0, gain=2.0),
            BurstSpec(band="gamma", center_hz=34.0, rate_hz=1.0, gain=1.5)),
    }
    profile = CalibrationProfile(
        subject_id="fuzz", band_thresholds={"beta": 2.0, "theta": 3.0},
        di_threshold=6.0, refractory_s=2.0)
    total_alerts = 0
    for seed in range(100):
        session = generate_session(GeneratorSpec(
            seed=seed, task=TaskLabel.TEXT if seed % 4 else TaskLabel.BASE,
            duration_s=8.0, baseline=PinkNoiseSpec(amplitude_uv=15.0),
            bursts=variants[seed % 4]))
        streamed, streamed_trace = stream_session(session, profile)
        replayed, replayed_trace = replay_session(session, profile)
        assert [a.to_dict() for a in streamed] == \
            [a.to_dict() for a in replayed]
        assert streamed_trace == replayed_trace
        times = [a.t for a in streamed]
        assert all(b - a >= profile.refractory_s - 1e-9
                   for a, b in zip(times, times[1:]))
        total_alerts += len(streamed)
    assert total_alerts > 0

    strong = (BurstSpec(band="beta", center_hz=22.0, rate_hz=3.0, gain=3.0),)

    def calib_session(seed, task, bursts):
        return generate_session(GeneratorSpec(
            seed=seed, task=task, duration_s=20.0, subject_id="cal-1",
            baseline=PinkNoiseSpec(amplitude_uv=10.0), bursts=bursts))

    train = [calib_session(1, TaskLabel.BASE, ()),
             calib_session(2, TaskLabel.TEXT, strong)]
    result = calibrate_thresholds(train, max_candidates=200)
    assert result.ok
    assert result.f1 == 1.0
    held_out = [calib_session(11, TaskLabel.BASE, ()),
                calib_session(12, TaskLabel.TEXT, strong)]
    assert evaluate_profile(held_out, result.profile) == 1.0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 PASS ({elapsed:.1f} s) alerts={total_alerts}")


def test_acceptance_6_packet_fuzz():
    start = time.monotonic()

    rng = np.random.default_rng(2026)
    n = 100_000
    values = rng.integers(-2048, 2048, size=n)
    frames = [bytearray(encode_packet(int(v))) for v in values]
    frame_len = len(frames[0])
    corrupted = set(rng.choice(n, size=1000, replace=False).tolist())
    for i in corrupted:
        pos = int(rng.integers(3, frame_len))  # payload or checksum byte
        frames[i][pos] ^= int(rng.integers(1, 256))
    stream = b"".join(bytes(f) for f in frames)

    parser = PacketParser()
    emitted = []
    pos = 0
    while pos < len(stream):
        step = int(rng.integers(1, 4097))
        for packet in parser.feed(stream[pos:pos + step]):
            emitted.append(packet.raw_value)
        pos += step

    expected = [int(v) for i, v in enumerate(values) if i not in corrupted]
    assert emitted == expected           # 100% valid recovery, nothing extra
    assert parser.corrupt_frames == len(corrupted)
    assert all(-2048 <= v <= 2047 for v in emitted)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6 PASS ({elapsed:.1f} s)")


def test_acceptance_7_arff_format():
    channels = ("AF3", "F7", "F3", "FC5", "T7", "P7", "O1", "O2",
                "P8", "T8", "FC6", "F4", "F8", "AF4")

    def build():
        sessions = []
        for ti, task in enumerate(TaskLabel):
            sessions.append(generate_session(GeneratorSpec(
                seed=(41, ti), task=task, fs_hz=128, duration_s=16.0,
                baseline=PinkNoiseSpec(amplitude_uv=25.0), channels=channels,
                subject_id="synth-14")))
        vectors = feature_vectors_from_sessions(sessions, mode="fft",
                                                trial_seconds=4.0)
        return write_arff(vectors, relation="bench-14ch")

    first = build()
    second = build()
    attr_lines = [line for line in first.splitlines()
                  if line.startswith("@attribute")]
    assert len(attr_lines) == 71  # 14 channels x 5 bands + class
    assert first.encode("utf-8") == second.encode("utf-8")
    print("ACCEPTANCE 7 PASS")
