"""Synthetic EEG generator: validation, spectra, and the benchmark suite."""

import math

import numpy as np
import pytest

from driveguard.dsp import band_powers_from_samples
from driveguard.errors import ParameterError
from driveguard.model import Device, TaskLabel
from driveguard.protocol import packets_to_samples, session_to_packets
from driveguard.synth import (
    BurstSpec,
    ClippingError,
    GeneratorSpec,
    PinkNoiseSpec,
    QUANTIZATION_NOISE_PSD,
    TASK_SIGNATURES,
    expected_band_power,
    expected_band_power_sd,
    generate_benchmark_suite,
    generate_session,
)

FS = 512
BAND_NAMES = ("delta", "theta", "alpha", "beta", "gamma")


def spec(**kw):
    base = dict(seed=0, duration_s=4.0,
                baseline=PinkNoiseSpec(amplitude_uv=30.0))
    base.update(kw)
    return GeneratorSpec(**base)


class TestSpecValidation:
    def test_seed_forms(self):
        assert spec(seed=7).seed == 7
        assert spec(seed=(1, 2)).seed == (1, 2)
        assert spec(seed=[1, 2]).seed == (1, 2)
        with pytest.raises(ParameterError):
            spec(seed="seven")
        with pytest.raises(ParameterError):
            spec(seed=(1, "a"))
        with pytest.raises(ParameterError):
            spec(seed=-1)  # numpy seeds must be >= 0
        with pytest.raises(ParameterError):
            spec(seed=(1, -2))
        for with_bool in (True, (1, True)):  # a bool is not a seed
            with pytest.raises(ParameterError):
                spec(seed=with_bool)

    def test_task_and_rate(self):
        with pytest.raises(ParameterError):
            spec(task="Base")
        with pytest.raises(ParameterError):
            spec(fs_hz=256)
        for not_int in (512.0, 512.9):
            with pytest.raises(ParameterError):
                spec(fs_hz=not_int)
        assert spec(fs_hz=128).device is Device.MULTI_ELECTRODE_128
        assert spec().device is Device.SINGLE_ELECTRODE_512

    def test_duration_sample_alignment(self):
        with pytest.raises(ParameterError):
            spec(duration_s=0.003)
        with pytest.raises(ParameterError):
            spec(duration_s=1.0 / FS)
        for non_finite in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                spec(duration_s=non_finite)
        assert spec(duration_s=2.0 / FS).n_samples == 2

    def test_channels_and_bursts(self):
        with pytest.raises(ParameterError):
            spec(channels=())
        with pytest.raises(ParameterError):
            spec(channels="FP1")  # a string, not three channels F, P, 1
        with pytest.raises(ParameterError, match="list of names"):
            spec(channels=("FP1", 7))
        with pytest.raises(ParameterError, match="subject_id must be a string"):
            spec(subject_id=None)
        with pytest.raises(ParameterError):
            spec(bursts=("alpha",))
        two = spec(channels=("AF3", "AF4"))
        assert generate_session(two).raw.shape == (2, 4 * FS)

    def test_pink_noise_domains(self):
        with pytest.raises(ParameterError):
            PinkNoiseSpec(amplitude_uv=0.0)
        with pytest.raises(ParameterError):
            PinkNoiseSpec(amplitude_uv=-3.0)
        with pytest.raises(ParameterError):
            PinkNoiseSpec(amplitude_uv=math.inf)
        with pytest.raises(ParameterError):
            PinkNoiseSpec(exponent=-0.1)
        with pytest.raises(ParameterError):
            PinkNoiseSpec(exponent=3.1)
        assert PinkNoiseSpec(exponent=0.0).exponent == 0.0
        assert PinkNoiseSpec(exponent=3.0).exponent == 3.0

    def test_burst_domains(self):
        with pytest.raises(ParameterError):
            BurstSpec(band="sigma", center_hz=10.0)
        with pytest.raises(ParameterError):
            BurstSpec(band="delta", center_hz=0.5)
        with pytest.raises(ParameterError):
            BurstSpec(band="gamma", center_hz=41.0)
        with pytest.raises(ParameterError):
            BurstSpec(band="alpha", center_hz=12.0)  # [8, 12) is half open
        assert BurstSpec(band="gamma", center_hz=40.0).center_hz == 40.0
        assert BurstSpec(band="alpha", center_hz=8.0).band == "alpha"
        with pytest.raises(ParameterError):
            BurstSpec(band="beta", center_hz=20.0, rate_hz=0.0)
        with pytest.raises(ParameterError):
            BurstSpec(band="beta", center_hz=20.0, duration_s=0.0)
        with pytest.raises(ParameterError):
            BurstSpec(band="beta", center_hz=20.0, gain=0.0)
        for field in ("rate_hz", "duration_s", "gain"):
            with pytest.raises(ParameterError):
                BurstSpec(band="beta", center_hz=20.0, **{field: math.inf})


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_session(spec(seed=11))
        b = generate_session(spec(seed=11))
        c = generate_session(spec(seed=12))
        assert np.array_equal(a.raw, b.raw)
        assert not np.array_equal(a.raw, c.raw)

    def test_session_metadata(self):
        s = generate_session(spec(subject_id="p9", task=TaskLabel.CALL))
        assert s.subject_id == "p9"
        assert s.task is TaskLabel.CALL
        assert s.fs_hz == FS
        assert s.raw.dtype == np.int32

    def test_band_powers_match_analytic_spectrum(self):
        pink = PinkNoiseSpec(amplitude_uv=30.0)
        n = 4 * FS
        for seed in range(8):
            s = generate_session(spec(seed=seed))
            bp = band_powers_from_samples(s.raw[0], FS)
            for band in BAND_NAMES:
                mean = expected_band_power(pink, band, FS, n) \
                    + QUANTIZATION_NOISE_PSD[FS]
                sd = expected_band_power_sd(pink, band, FS, n)
                assert abs(getattr(bp, band) - mean) < 5.0 * sd

    def test_flat_exponent_gives_equal_band_means(self):
        pink = PinkNoiseSpec(amplitude_uv=10.0, exponent=0.0)
        vals = [expected_band_power(pink, b, FS, 2048) for b in BAND_NAMES]
        assert all(v == pytest.approx(vals[0], rel=1e-12) for v in vals)

    def test_expected_power_needs_bins(self):
        with pytest.raises(ParameterError):
            expected_band_power(PinkNoiseSpec(), "delta", FS, 32)

    def test_sd_positive_and_below_mean(self):
        pink = PinkNoiseSpec(amplitude_uv=30.0)
        for band in BAND_NAMES:
            mean = expected_band_power(pink, band, FS, 2048)
            sd = expected_band_power_sd(pink, band, FS, 2048)
            assert 0.0 < sd < mean

    def test_burst_boosts_its_band(self):
        sig = BurstSpec(band="beta", center_hz=25.0, rate_hz=1.0,
                        duration_s=1.5, gain=1.5)
        for seed in range(10):
            base = generate_session(spec(seed=seed))
            text = generate_session(spec(seed=seed, task=TaskLabel.TEXT,
                                         bursts=(sig,)))
            quiet = band_powers_from_samples(base.raw[0], FS).beta
            loud = band_powers_from_samples(text.raw[0], FS).beta
            assert loud > 2.0 * quiet

    def test_clipping_guard(self):
        generate_session(spec(baseline=PinkNoiseSpec(amplitude_uv=50.0)))
        with pytest.raises(ClippingError):
            generate_session(spec(baseline=PinkNoiseSpec(amplitude_uv=260.0)))
        with pytest.raises(ClippingError):
            generate_session(spec(bursts=(
                BurstSpec(band="beta", center_hz=20.0, rate_hz=5.0,
                          gain=50.0),)))

    def test_packet_round_trip(self):
        s = generate_session(spec(seed=4, duration_s=1.0))
        raw, corrupt = packets_to_samples(session_to_packets(s))
        assert corrupt == 0
        assert np.array_equal(np.asarray(raw), s.raw[0])


class TestBenchmarkSuite:
    def test_shape_and_labels(self):
        suite = generate_benchmark_suite(3, n_subjects=2, trials_per_task=3)
        assert len(suite) == 10
        assert [s.task for s in suite[:5]] == list(TaskLabel)
        assert sorted({s.subject_id for s in suite}) == ["synth-01", "synth-02"]
        assert all(s.raw.shape == (1, 3 * 4 * FS) for s in suite)

    def test_deterministic(self):
        a = generate_benchmark_suite(3, n_subjects=1, trials_per_task=2)
        b = generate_benchmark_suite(3, n_subjects=1, trials_per_task=2)
        c = generate_benchmark_suite(4, n_subjects=1, trials_per_task=2)
        assert all(np.array_equal(x.raw, y.raw) for x, y in zip(a, b))
        assert any(not np.array_equal(x.raw, y.raw) for x, y in zip(a, c))

    def test_signature_bands_separate_tasks(self):
        suite = generate_benchmark_suite(3, n_subjects=2, trials_per_task=3)
        means = {}
        for sess in suite:
            bp = band_powers_from_samples(sess.raw[0], FS)
            means.setdefault(sess.task, []).append(bp)
        for task, sig in TASK_SIGNATURES.items():
            if not sig:
                continue
            band = sig[0][0]
            dist = np.mean([getattr(b, band) for b in means[task]])
            base = np.mean([getattr(b, band) for b in means[TaskLabel.BASE]])
            assert dist > 1.5 * base

    def test_epsilon_zero_removes_separation(self):
        suite = generate_benchmark_suite(3, n_subjects=2, trials_per_task=3,
                                         epsilon=0.0)
        means = {}
        for sess in suite:
            bp = band_powers_from_samples(sess.raw[0], FS)
            means.setdefault(sess.task, []).append(bp)
        for task, sig in TASK_SIGNATURES.items():
            if not sig:
                continue
            band = sig[0][0]
            dist = np.mean([getattr(b, band) for b in means[task]])
            base = np.mean([getattr(b, band) for b in means[TaskLabel.BASE]])
            assert 0.6 < dist / base < 1.6

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            generate_benchmark_suite(1, n_subjects=0)
        with pytest.raises(ParameterError):
            generate_benchmark_suite(1, trials_per_task=0)
        with pytest.raises(ParameterError):
            generate_benchmark_suite(1, epsilon=-0.5)
