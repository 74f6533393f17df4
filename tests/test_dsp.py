"""Periodogram, band powers, spectrogram, and feature assembly."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from driveguard.errors import DriveGuardError, ParameterError, ValidationError
from driveguard.dsp import (
    BANDS,
    FEATURE_MODES,
    MIN_STFT_WINDOW_SAMPLES,
    ResolutionError,
    SCORE_STACK,
    SPECTROGRAM_DB_FLOOR,
    band_bins,
    band_power_rows,
    band_powers_fft,
    band_powers_from_samples,
    band_widths,
    build_feature_vector,
    feature_schema,
    feature_vectors_from_sessions,
    periodogram,
    spectrogram_csv,
    spectrogram_triples_csv,
    stft_spectrogram,
    trial_feature_rows,
    wavelet_band_features,
    wavelet_band_rows,
)
from driveguard.model import (BAND_NAMES, EPOC_CHANNELS, Device, FeatureVector,
                              SubjectSession, TaskLabel, TrialWindow,
                              split_into_trials, trial_stack)
from driveguard.protocol import UV_PER_COUNT, raw_to_microvolts
from driveguard.wavelet import (DB8_DEC_HI, DB8_DEC_LO, FILTER_LEN, dwt_db8,
                                max_decomposition_level)

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

    @pytest.mark.parametrize("n, fs", [(2048, 512), (511, 512), (300, 128), (257, 128.0)])
    def test_freqs_are_rfftfreq_and_read_only(self, n, fs):
        x = np.random.default_rng(n).normal(size=(2, n))
        freqs, _ = periodogram(x, fs)
        assert np.array_equal(freqs, np.fft.rfftfreq(n, 1.0 / fs))
        assert freqs.dtype == np.float64 and not freqs.flags.writeable
        tapered, _ = periodogram(x, fs, taper=np.hanning(n))
        assert tapered is freqs

    @pytest.mark.parametrize("stop", [None, 161])
    def test_callers_frames_unchanged(self, stop):
        frames = np.random.default_rng(3).normal(loc=40.0, size=(4, N))
        kept = frames.copy()
        periodogram(frames, FS, _stop=stop)
        periodogram(frames[0], FS, _stop=stop)
        periodogram(frames, FS, taper=np.hanning(N), _stop=stop)
        assert np.array_equal(frames, kept)


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


def per_window_band_powers(raw, fs):
    """One window's band powers through a 1-D periodogram: the oracle for
    the stacked ``band_power_rows``."""
    x = raw_to_microvolts(raw)
    x = x - x.mean()
    spec = np.fft.rfft(x)
    psd = (spec.real ** 2 + spec.imag ** 2) / (fs * x.size)
    psd[1:(x.size + 1) // 2] *= 2.0
    return [float(psd[bins].mean()) for bins in band_bins(x.size, fs)]


class TestBandPowerRows:
    """A stack of windows scores as each window alone."""

    @pytest.mark.parametrize("n, fs", [(2048, 512), (1025, 512), (3001, 512),
                                       (256, 128)])
    def test_equal_to_per_window_oracle(self, n, fs):
        rng = np.random.default_rng(n)
        raw = rng.integers(-2048, 2048, size=(9, n)).astype(np.int32)
        raw[3] = 0  # silence: every band power is 0
        raw[5] = 77  # a flat signal too
        rows = band_power_rows(raw, fs)
        assert rows.shape == (9, 5)
        assert np.array_equal(rows, [per_window_band_powers(r, fs) for r in raw])
        assert not rows[3].any() and not rows[5].any()
        assert band_powers_from_samples(raw[0], fs).as_tuple() == tuple(rows[0])


def full_spectrum_band_power_rows(raw_windows, fs_hz):
    """Band powers with every rfft bin squared, scaled and folded, as
    ``band_power_rows`` computed them before its kernel stopped at the top
    band: the oracle for the trimmed kernel."""
    raw_windows = np.asarray(raw_windows)
    n = raw_windows.shape[-1]
    _, psd = periodogram(raw_to_microvolts(raw_windows), fs_hz)
    out = np.empty(psd.shape[:-1] + (len(BANDS),))
    for i, bins in enumerate(band_bins(n, fs_hz)):
        np.add.reduce(psd[..., bins], axis=-1, out=out[..., i])
    out /= band_widths(n, fs_hz)
    return out


class TestTrimmedKernel:
    """Band powers square only the bins below the top band's stop, bit for
    bit as the full spectrum gives them."""

    @pytest.mark.parametrize("fs", [64, 80, 128, 512])
    @pytest.mark.parametrize("seconds", [2, 3, 5, 8])
    @pytest.mark.parametrize("odd", [False, True], ids=["even-n", "odd-n"])
    def test_equal_to_full_spectrum(self, fs, seconds, odd):
        n = seconds * fs + odd
        rng = np.random.default_rng(n)
        # a stack of SCORE_STACK windows, as feature extraction scores them
        raw = rng.integers(-2048, 2048, size=(SCORE_STACK, n)).astype(np.int32)
        raw[2] = 0
        raw[4] = np.where(np.arange(n) % 2, -2000, 2000)  # a Nyquist tone
        rows = band_power_rows(raw, fs)
        assert np.array_equal(rows, full_spectrum_band_power_rows(raw, fs))
        assert np.array_equal(band_power_rows(raw[4], fs),
                              full_spectrum_band_power_rows(raw[4], fs))
        stop = band_bins(n, fs)[-1].stop
        _, psd = periodogram(raw_to_microvolts(raw), fs, _stop=stop)
        assert psd.shape == (SCORE_STACK, stop)

    def test_nyquist_bin_in_gamma_stays_undoubled(self):
        # at 80 Hz and even n the Nyquist bin is 40 Hz, gamma's closed top
        n = 4 * 80
        assert band_bins(n, 80)[-1].stop == n // 2 + 1
        tone = np.where(np.arange(n) % 2, -2000, 2000)
        gamma = band_power_rows(tone, 80)[4]
        x = raw_to_microvolts(tone)
        nyquist = np.abs(np.fft.rfft(x - x.mean())[-1]) ** 2 / (80 * n)
        assert gamma == pytest.approx(nyquist / band_widths(n, 80)[4], rel=1e-12)


def per_frame_stft(samples, fs_hz, window_s=1.0, overlap=0.5):
    """The frame-by-frame STFT loop: the oracle for ``stft_spectrogram``'s
    stacked frames. Returns (times, freqs, power_db)."""
    x = raw_to_microvolts(samples)
    w = int(round(window_s * fs_hz))
    hop = max(1, int(round(w * (1.0 - overlap))))
    window = np.hanning(w)
    norm = fs_hz * np.sum(window ** 2)
    starts = np.arange(0, x.size - w + 1, hop)
    freqs = np.fft.rfftfreq(w, 1.0 / fs_hz)
    grid = np.empty((freqs.size, starts.size))
    for j, s in enumerate(starts):
        spec = np.fft.rfft(x[s:s + w] * window)
        psd = (spec.real ** 2 + spec.imag ** 2) / norm
        psd[1:(w + 1) // 2] *= 2.0
        grid[:, j] = 10.0 * np.log10(np.maximum(psd, 10.0 ** (SPECTROGRAM_DB_FLOOR / 10.0)))
    return (starts + w / 2.0) / fs_hz, freqs, grid


class TestSpectrogram:
    @pytest.mark.parametrize("fs, n, window_s, overlap", [
        (512, 5000, 1.0, 0.5), (512, 4097, 359 / 512, 0.3), (128, 1300, 1.0, 0.5),
        (128, 999, 97 / 128, 0.0), (512, 2048, 4.0, 0.9)])  # odd frames too
    def test_equal_to_per_frame_loop(self, fs, n, window_s, overlap):
        rng = np.random.default_rng(n)
        x = rng.integers(-2048, 2048, size=n).astype(np.int32)
        x[: n // 4] = 0  # silent frames hit the floor
        spec = stft_spectrogram(x, fs, window_s, overlap)
        times, freqs, grid = per_frame_stft(x, fs, window_s, overlap)
        assert np.array_equal(spec.times_s, times)
        assert np.array_equal(spec.freqs_hz, freqs)
        assert np.array_equal(spec.power_db, grid)
        assert spectrogram_csv(spec) == spectrogram_csv(
            type(spec)(times_s=times, freqs_hz=freqs, power_db=grid))

    def test_frame_layout(self):
        spec = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        assert spec.freqs_hz.size == 257
        assert np.allclose(spec.times_s, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        assert spec.power_db.shape == (257, 7)

    def test_shared_freqs_cannot_be_changed(self):
        spec = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        with pytest.raises(ValueError):
            spec.freqs_hz[1] = -1.0
        again = stft_spectrogram(np.zeros(N, dtype=np.int32), FS)
        assert np.array_equal(again.freqs_hz, np.fft.rfftfreq(512, 1.0 / FS))

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

    @pytest.mark.parametrize("hz, band", [(2.5, "delta"), (6.0, "theta")])
    def test_three_second_trial(self, hz, band):
        # 1536 samples allow 6 levels: theta is the deepest detail level
        # and delta is the approximation alone
        t = np.arange(3 * FS) / FS
        feats = wavelet_band_features(make_trial(300 * np.sin(2 * np.pi * hz * t)))
        assert max(feats, key=lambda b: feats[b][1]) == band

    def test_trial_too_short_for_ladder(self):
        trial = make_trial(np.zeros(512), fs=FS)  # theta needs depth 6, allows 5
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


# ---------------------------------------------------------------------------
# the per-trial route: the oracle for the stacked feature route


def convolve_dwt_step(x):
    """One symmetric db8 level of a 1-D signal through two full
    ``np.convolve`` passes, keeping the odd-phase stride-2 outputs."""
    n = x.size
    ext = np.pad(x, (FILTER_LEN - 1, FILTER_LEN - 1), mode="symmetric")
    lo = np.convolve(ext, DB8_DEC_LO)
    hi = np.convolve(ext, DB8_DEC_HI)
    sl = slice(FILTER_LEN, FILTER_LEN + n + FILTER_LEN - 2, 2)
    return lo[sl], hi[sl]


def convolve_dwt(x, levels):
    approx, details = x, []
    for _ in range(levels):
        approx, detail = convolve_dwt_step(approx)
        details.append(detail)
    return approx, details


def per_trial_wavelet_features(trial):
    """One trial's {band: (mean |coeff|, mean coeff^2)} through the
    ``np.convolve`` DWT, with the feature route's checks and messages."""
    fs = trial.fs_hz
    gamma_level = int(round(np.log2(fs))) - 6
    if 2 ** (gamma_level + 6) != fs or gamma_level < 1:
        raise ParameterError(
            f"no dyadic level covers the gamma band at fs={fs} Hz; "
            "supported rates are powers of two >= 128")
    theta_level = gamma_level + 3
    n = trial.samples.size
    allowed = max_decomposition_level(n)
    if allowed < theta_level:
        raise ResolutionError(
            f"trial of {n} samples allows {allowed} decomposition levels "
            f"but the band ladder at fs={fs} needs {theta_level}")
    approx, per_level = convolve_dwt(raw_to_microvolts(trial.samples),
                                     min(theta_level + 1, allowed))
    band_coeffs = {
        "gamma": [per_level[gamma_level - 1]],
        "beta": [per_level[gamma_level]],
        "alpha": [per_level[gamma_level + 1]],
        "theta": [per_level[theta_level - 1]],
        "delta": per_level[theta_level:] + [approx],
    }
    out = {}
    for band in BAND_NAMES:
        coeffs = np.concatenate(band_coeffs[band])
        out[band] = (float(np.mean(np.abs(coeffs))), float(np.mean(coeffs ** 2)))
    return out


def per_trial_vector(trials, mode):
    """One trial's feature vector, window by window: ``band_powers_fft`` and
    the ``np.convolve`` DWT of each channel in turn."""
    if mode not in FEATURE_MODES:
        raise ParameterError(f"mode must be one of {FEATURE_MODES}, got {mode!r}")
    names, values = [], []
    for tr in trials:
        if mode in ("fft", "combined"):
            names += [f"{tr.channel}_fft_{b}" for b in BAND_NAMES]
            values += band_powers_fft(tr).as_tuple()
        if mode in ("dwt", "combined"):
            feats = per_trial_wavelet_features(tr)
            for band in BAND_NAMES:
                names += [f"{tr.channel}_dwt_{band}_mabs", f"{tr.channel}_dwt_{band}_pow"]
                values += feats[band]
    return FeatureVector(values=values, schema=names, label=trials[0].task)


def per_trial_feature_vectors(sessions, mode="fft", trial_seconds=4.0):
    """Every session's feature vectors one trial at a time, from
    ``split_into_trials``."""
    vectors = []
    for session in sessions:
        windows = split_into_trials(session, trial_seconds)
        per_trial = len(session.channels)
        for i in range(0, len(windows), per_trial):
            vectors.append(per_trial_vector(windows[i:i + per_trial], mode))
    return vectors


def per_session_feature_vectors(sessions, mode="fft", trial_seconds=4.0):
    """Every session's feature vectors scored from its own ``trial_stack``,
    one stack per session: the oracle for stacking across sessions."""
    vectors = []
    for session in sessions:
        stack = trial_stack(session, trial_seconds)
        schema = feature_schema(session.channels, mode)
        for rows in trial_feature_rows(stack, session.fs_hz, mode):
            vectors += [FeatureVector(values=row, schema=schema, label=session.task)
                        for row in rows.tolist()]
    return vectors


def random_session(channels, fs, n, task=TaskLabel.TEXT, seed=0):
    device = Device.SINGLE_ELECTRODE_512 if fs == 512 else Device.MULTI_ELECTRODE_128
    names = tuple(EPOC_CHANNELS[:channels]) if channels > 1 else ("FP1",)
    raw = np.random.default_rng(seed).integers(-2048, 2048, size=(channels, n),
                                               dtype=np.int32)
    raw[-1, : n // 3] = 0  # silent trials score 0 in every column
    return SubjectSession(subject_id=f"s{seed}", task=task, device=device,
                          fs_hz=fs, channels=names, raw=raw)


def assert_same_vectors(got, want):
    assert [(v.schema, v.label) for v in got] == [(v.schema, v.label) for v in want]
    for g, w in zip(got, want):
        fft = np.array(["_fft_" in name for name in g.schema])
        values, expected = np.array(g.values), np.array(w.values)
        assert np.array_equal(values[fft], expected[fft])
        np.testing.assert_allclose(values[~fft], expected[~fft], rtol=1e-12, atol=0)


class TestStackedFeatures:
    """The stacked feature route equals the per-trial route."""

    @pytest.mark.parametrize("trial_seconds", [3.0, 3.3, 4.0, 5.0])
    @pytest.mark.parametrize("channels, fs", [(1, 512), (14, 128)])
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_equal_to_per_trial_oracle(self, mode, channels, fs, trial_seconds):
        n_per = int(round(trial_seconds * fs))
        # 34 trials cross a SCORE_STACK boundary; half a trial trails
        long = random_session(channels, fs, 34 * n_per + n_per // 2, seed=1)
        short = random_session(channels, fs, 2 * n_per, task=TaskLabel.BASE, seed=2)
        got = feature_vectors_from_sessions([long, short], mode, trial_seconds)
        want = per_trial_feature_vectors([long, short], mode, trial_seconds)
        assert len(got) == 36 > SCORE_STACK
        assert_same_vectors(got, want)
        # the last channel's block of the first trial is silent
        assert not any(got[0].values[-(len(got[0].values) // channels):])

    @pytest.mark.parametrize("trial_seconds", [3.0, 4.0])
    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_stacked_across_sessions_equal_to_per_session_oracle(self, mode,
                                                                 trial_seconds):
        def session(n_channels, fs, trials, seed, **fields):
            n_per = int(round(trial_seconds * fs))
            s = random_session(n_channels, fs, trials * n_per + seed % 3 * n_per // 3,
                               seed=seed)
            return dataclasses.replace(s, **fields)

        tasks = list(TaskLabel)
        sessions = [
            # 20 + 7 + 9 trials: the second stack starts inside the third session
            session(1, 512, 20, 1), session(1, 512, 7, 2, task=tasks[0]),
            session(1, 512, 9, 3, task=tasks[1]),
            # the same rate and channel count under other channel names: one
            # stack, two schemas; 30 + 5 trials cross a stack boundary
            session(3, 128, 30, 4), session(3, 128, 5, 5, channels=("a", "b", "c")),
            session(14, 128, 2, 6, task=tasks[2]),
            session(1, 512, 40, 7, task=tasks[3]), session(1, 512, 1, 8),
        ]
        got = feature_vectors_from_sessions(sessions, mode, trial_seconds)
        want = per_session_feature_vectors(sessions, mode, trial_seconds)
        assert len(got) == 114
        assert [(v.schema, v.label) for v in got] == [(v.schema, v.label) for v in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
        assert got[65].schema != got[66].schema  # one stack, two schemas

    @pytest.mark.parametrize("call", [
        pytest.param(lambda route: route([random_session(1, 512, 3 * 512 - 1)],
                                         "fft", 3.0), id="session-too-short"),
        pytest.param(lambda route: route([random_session(1, 512, 4096)],
                                         "fft", 2.9), id="trial-seconds"),
        pytest.param(lambda route: route([random_session(1, 512, 4096)],
                                         "psd", 4.0), id="mode"),
    ])
    def test_session_errors_match_oracle(self, call):
        with pytest.raises(DriveGuardError) as want:
            call(per_trial_feature_vectors)
        with pytest.raises(type(want.value)) as got:
            call(feature_vectors_from_sessions)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n, fs, mode", [
        (512, 512, "dwt"), (512, 512, "combined"), (400, 100, "dwt"),
        (1000, 512, "fft"), (2048, 512, "psd")])
    def test_trial_errors_match_oracle(self, n, fs, mode):
        trial = make_trial(np.zeros(n), fs=fs)
        with pytest.raises(DriveGuardError) as want:
            per_trial_vector([trial], mode)
        with pytest.raises(type(want.value)) as got:
            build_feature_vector(trial, mode)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_one_trial_calls_equal_stack_rows(self):
        session = random_session(3, 128, 250 * 512, seed=5)
        vectors = feature_vectors_from_sessions([session], "combined")
        windows = split_into_trials(session, 4.0)
        for i in (0, 31, 32, 249):
            trials = windows[3 * i:3 * i + 3]
            assert build_feature_vector(trials, "combined") == vectors[i]
        stack = trial_stack(session)[1]
        for m in (32, 250):
            rows = wavelet_band_rows(stack[:m], 128)
            for i in (0, m - 1):
                feats = wavelet_band_features(windows[3 * i + 1])
                assert [v for band in BAND_NAMES for v in feats[band]] == rows[i].tolist()

    @pytest.mark.parametrize("n, levels", [(30, 1), (31, 1), (512, 5), (1536, 6),
                                           (2048, 7), (3001, 7)])
    def test_dwt_db8_equal_to_convolve_step(self, n, levels):
        x = np.random.default_rng(n).normal(scale=40.0, size=n)
        decomp = dwt_db8(x, levels)
        approx, details = convolve_dwt(x, levels)
        for got, want in zip((decomp.approx, *decomp.details), (approx, *details)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_memory_bounded_by_the_stack(self):
        # 150 trials x 14 channels; scoring each channel's trials in one
        # call would hold roughly 1 to 1.5 MB above the vectors returned
        session = random_session(14, 128, 600 * 128, seed=6)
        for mode in FEATURE_MODES:
            tracemalloc.start()
            try:
                vectors = feature_vectors_from_sessions([session], mode)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(vectors) == 150
            assert peak - held < 640 * 1024, mode
