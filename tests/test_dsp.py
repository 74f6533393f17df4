"""Periodogram, band powers, spectrogram, and feature assembly."""

import numpy as np
import pytest

from driveguard.errors import ParameterError, ValidationError
from driveguard.dsp import (
    BANDS,
    FEATURE_MODES,
    MIN_STFT_WINDOW_SAMPLES,
    ResolutionError,
    SPECTROGRAM_DB_FLOOR,
    band_bins,
    band_powers_fft,
    band_powers_from_samples,
    build_feature_vector,
    feature_vectors_from_sessions,
    periodogram,
    spectrogram_csv,
    spectrogram_triples_csv,
    stft_spectrogram,
    wavelet_band_features,
)
from driveguard.model import BAND_NAMES, Device, SubjectSession, TaskLabel, TrialWindow
from driveguard.protocol import UV_PER_COUNT

FS = 512
N = 2048
T = np.arange(N) / FS


def make_trial(signal, fs=FS, channel="ch0", task=TaskLabel.BASE, trial_index=0):
    raw = np.clip(np.round(signal), -2048, 2047).astype(np.int32)
    return TrialWindow(subject_id="s1", task=task, channel=channel, fs_hz=fs,
                       duration_s=raw.size / fs, trial_index=trial_index,
                       samples=raw)


def dominant(bp):
    return BAND_NAMES[int(np.argmax(bp.as_tuple()))]


class TestPeriodogram:
    def test_parseval(self):
        rng = np.random.default_rng(0)
        for n in (256, 511, 2048):
            x = rng.normal(scale=12.0, size=n)
            freqs, psd = periodogram(x, FS)
            total = np.sum(psd) * FS / n
            assert total == pytest.approx(np.var(x), rel=1e-12)

    def test_bin_aligned_tone_peak(self):
        amp = 3.0
        freq = 32.0  # exact bin: 32 / (512/2048) = bin 128
        x = amp * np.cos(2 * np.pi * freq * T)
        freqs, psd = periodogram(x, FS)
        k = int(freq * N / FS)
        assert freqs[k] == freq
        assert psd[k] == pytest.approx(amp ** 2 * N / (2 * FS), rel=1e-9)
        rest = np.delete(psd, k)
        assert np.max(rest) < 1e-12 * psd[k]

    def test_mean_removed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=512)
        _, base = periodogram(x, FS)
        _, shifted = periodogram(x + 1000.0, FS)
        assert np.allclose(base, shifted, rtol=0, atol=1e-6 * np.max(base))
        assert shifted[0] == pytest.approx(0.0, abs=1e-12)


class TestBandDefinitions:
    def test_canonical_ladder(self):
        names = [b.name for b in BANDS]
        assert names == list(BAND_NAMES) == ["delta", "theta", "alpha", "beta", "gamma"]
        edges = [(b.lo_hz, b.hi_hz) for b in BANDS]
        assert edges == [(1, 4), (4, 8), (8, 12), (12, 30), (30, 40)]
        assert [b.closed_top for b in BANDS] == [False, False, False, False, True]

    def test_edge_membership(self):
        freqs = np.array([0.75, 1.0, 3.75, 4.0, 8.0, 12.0, 29.75, 30.0, 40.0, 40.25])
        owner = {}
        for band in BANDS:
            for f in freqs[band.mask(freqs)]:
                assert f not in owner, f"{f} claimed twice"
                owner[f] = band.name
        assert owner == {
            1.0: "delta", 3.75: "delta",
            4.0: "theta",
            8.0: "alpha",
            12.0: "beta", 29.75: "beta",
            30.0: "gamma", 40.0: "gamma",
        }
        assert 0.75 not in owner and 40.25 not in owner

    @pytest.mark.parametrize("n, fs", [(1024, 512), (2048, 512), (2049, 512),
                                       (3000, 512), (512, 128), (64, 512)])
    def test_bins_are_the_mask_ranges(self, n, fs):
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        bins = band_bins(n, fs)
        assert len(bins) == len(BANDS)
        for band, sl in zip(BANDS, bins):
            assert np.array_equal(np.arange(freqs.size)[sl],
                                  np.flatnonzero(band.mask(freqs)))
        assert band_bins(n, fs) is bins


class TestBandPowers:
    def test_window_too_short(self):
        with pytest.raises(ResolutionError):
            band_powers_from_samples(np.zeros(2 * FS - 1), FS)

    def test_flat_signal_is_silent(self):
        bp = band_powers_from_samples(np.full(N, 123.0), FS)
        assert bp.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_alpha_tone_exact_value(self):
        amp = 400.0
        x = amp * np.cos(2 * np.pi * 10.0 * T)
        bp = band_powers_from_samples(x, FS)
        # tone lands in one of the 16 alpha bins at df = 0.25 Hz
        expected = (amp * UV_PER_COUNT) ** 2 * N / (2 * FS) / 16
        assert bp.alpha == pytest.approx(expected, rel=1e-9)
        assert dominant(bp) == "alpha"
        for other in ("delta", "theta", "beta", "gamma"):
            assert getattr(bp, other) < 1e-9 * bp.alpha

    def test_quadratic_amplitude_scaling(self):
        x = 200.0 * np.sin(2 * np.pi * 19.0 * T) + 60.0 * np.sin(2 * np.pi * 6.5 * T)
        a = band_powers_from_samples(x, FS)
        b = band_powers_from_samples(3.0 * x, FS)
        for band in BAND_NAMES:
            assert getattr(b, band) == pytest.approx(
                9.0 * getattr(a, band), rel=1e-12)

    def test_band_edge_tones(self):
        for freq, band in ((4.0, "theta"), (8.0, "alpha"), (12.0, "beta"),
                           (30.0, "gamma"), (40.0, "gamma")):
            bp = band_powers_from_samples(
                300.0 * np.sin(2 * np.pi * freq * T), FS)
            assert dominant(bp) == band, freq

    def test_trial_wrapper(self):
        trial = make_trial(350 * np.sin(2 * np.pi * 10.0 * T))
        bp = band_powers_fft(trial)
        assert dominant(bp) == "alpha"


class TestSpectrogram:
    def test_frame_layout(self):
        spec = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        assert spec.freqs_hz.size == 257
        assert np.allclose(spec.times_s, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        assert spec.power_db.shape == (257, 7)

    def test_silence_hits_floor(self):
        spec = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        assert np.all(spec.power_db == SPECTROGRAM_DB_FLOOR)

    def test_tone_row_dominates(self):
        x = np.round(500 * np.sin(2 * np.pi * 16.0 * T)).astype(np.int32)
        spec = stft_spectrogram(x, FS)
        row = int(np.argmax(spec.power_db.mean(axis=1)))
        assert spec.freqs_hz[row] == 16.0

    def test_window_too_small(self):
        with pytest.raises(ParameterError):
            stft_spectrogram(np.zeros(N), FS, window_s=(MIN_STFT_WINDOW_SAMPLES - 1) / FS)

    @pytest.mark.parametrize("window_s", [np.nan, np.inf, -np.inf, 1e308])
    def test_window_not_finite(self, window_s):
        with pytest.raises(ParameterError):
            stft_spectrogram(np.zeros(N), FS, window_s=window_s)

    def test_overlap_domain(self):
        with pytest.raises(ParameterError):
            stft_spectrogram(np.zeros(N), FS, overlap=1.0)
        with pytest.raises(ParameterError):
            stft_spectrogram(np.zeros(N), FS, overlap=-0.1)

    def test_signal_shorter_than_window(self):
        with pytest.raises(ResolutionError):
            stft_spectrogram(np.zeros(300), FS, window_s=1.0)

    def test_grid_csv_layout(self):
        spec = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        lines = spectrogram_csv(spec).splitlines()
        assert lines[0].split(",")[0] == "freq_hz"
        assert len(lines) == 1 + 257
        assert len(lines[1].split(",")) == 1 + 7

    def test_triples_csv_layout(self):
        spec = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        lines = spectrogram_triples_csv(spec).splitlines()
        assert lines[0] == "freq_hz,time_s,power_db"
        assert len(lines) == 1 + 257 * 7


class TestWaveletFeatures:
    def test_zero_trial(self):
        feats = wavelet_band_features(make_trial(np.zeros(N)))
        assert set(feats) == set(BAND_NAMES)
        assert all(v == (0.0, 0.0) for v in feats.values())

    def test_band_contrast_between_signals(self):
        beta_trial = make_trial(300 * np.sin(2 * np.pi * 20.0 * T))
        theta_trial = make_trial(300 * np.sin(2 * np.pi * 6.0 * T))
        fb = wavelet_band_features(beta_trial)
        ft = wavelet_band_features(theta_trial)
        assert fb["beta"][1] > 20 * ft["beta"][1]
        assert ft["theta"][1] > 20 * fb["theta"][1]

    def test_mean_abs_and_power_consistency(self):
        feats = wavelet_band_features(make_trial(
            np.random.default_rng(2).integers(-400, 400, size=N)))
        for mean_abs, mean_pow in feats.values():
            assert mean_abs >= 0 and mean_pow >= 0
            assert mean_abs ** 2 <= mean_pow + 1e-12  # Jensen

    def test_128_hz_ladder(self):
        t = np.arange(512) / 128
        trial = make_trial(200 * np.sin(2 * np.pi * 10.0 * t), fs=128)
        feats = wavelet_band_features(trial)
        assert max(feats, key=lambda b: feats[b][1]) == "alpha"

    def test_unsupported_rate(self):
        t = np.arange(400) / 100
        trial = make_trial(np.zeros(400), fs=100)
        with pytest.raises(ParameterError):
            wavelet_band_features(trial)

    def test_trial_too_short_for_ladder(self):
        trial = make_trial(np.zeros(1024), fs=FS)  # needs depth 7, allows 6
        with pytest.raises(ResolutionError):
            wavelet_band_features(trial)


class TestFeatureAssembly:
    def test_fft_schema(self):
        vec = build_feature_vector(make_trial(np.zeros(N)), mode="fft")
        assert vec.schema == tuple(f"ch0_fft_{b}" for b in BAND_NAMES)
        assert vec.label is TaskLabel.BASE

    def test_dwt_schema(self):
        vec = build_feature_vector(make_trial(np.zeros(N)), mode="dwt")
        expected = []
        for band in BAND_NAMES:
            expected += [f"ch0_dwt_{band}_mabs", f"ch0_dwt_{band}_pow"]
        assert vec.schema == tuple(expected)

    def test_combined_is_channel_major(self):
        trials = [make_trial(np.zeros(N), channel="a"),
                  make_trial(np.zeros(N), channel="b")]
        vec = build_feature_vector(trials, mode="combined")
        assert len(vec.values) == 30
        assert vec.schema[0] == "a_fft_delta"
        assert vec.schema[5] == "a_dwt_delta_mabs"
        assert vec.schema[15] == "b_fft_delta"
        assert vec.schema[20] == "b_dwt_delta_mabs"

    def test_mode_validation(self):
        assert FEATURE_MODES == ("fft", "dwt", "combined")
        with pytest.raises(ParameterError):
            build_feature_vector(make_trial(np.zeros(N)), mode="psd")

    def test_mismatched_trials_rejected(self):
        a = make_trial(np.zeros(N), channel="a", trial_index=0)
        b = make_trial(np.zeros(N), channel="b", trial_index=1)
        with pytest.raises(ValidationError):
            build_feature_vector([a, b])

    def test_duplicate_channel_rejected(self):
        a = make_trial(np.zeros(N), channel="a")
        with pytest.raises(ValidationError):
            build_feature_vector([a, a])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_feature_vector([])

    def test_vectors_from_sessions(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(-300, 300, size=(2, 3 * N), dtype=np.int32)
        session = SubjectSession(
            subject_id="p7", task=TaskLabel.TEXT,
            device=Device.SINGLE_ELECTRODE_512, fs_hz=FS,
            channels=("c0", "c1"), raw=raw)
        vecs = feature_vectors_from_sessions([session], mode="fft")
        assert len(vecs) == 3
        assert all(len(v.values) == 10 for v in vecs)
        assert all(v.label is TaskLabel.TEXT for v in vecs)
        assert vecs[0].schema[:5] == tuple(f"c0_fft_{b}" for b in BAND_NAMES)
        assert vecs[0].schema[5:] == tuple(f"c1_fft_{b}" for b in BAND_NAMES)
