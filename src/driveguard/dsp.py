"""Spectral and wavelet feature extraction from trial windows.

Band powers come from a single whole-trial periodogram: remove the mean,
take the one-sided squared FFT magnitude scaled to power density, and
average the density over each canonical band. The wavelet route maps
dyadic detail levels onto the same five bands and summarises each with
the mean absolute coefficient and the mean squared coefficient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .model import BAND_NAMES, BandPowers, FeatureVector, TrialWindow
from .protocol import raw_to_microvolts
from .wavelet import dwt_db8, max_decomposition_level

SPECTROGRAM_DB_FLOOR = -120.0
_PSD_FLOOR = 10.0 ** (SPECTROGRAM_DB_FLOOR / 10.0)
MIN_STFT_WINDOW_SAMPLES = 64


@dataclass(frozen=True)
class BandDefinition:
    """Half-open frequency band [lo_hz, hi_hz); the top band closes at hi."""

    name: str
    lo_hz: float
    hi_hz: float
    closed_top: bool = False

    def mask(self, freqs):
        if self.closed_top:
            return (freqs >= self.lo_hz) & (freqs <= self.hi_hz)
        return (freqs >= self.lo_hz) & (freqs < self.hi_hz)


# canonical EEG bands; gamma is capped at 40 Hz and keeps its endpoint
BANDS = (
    BandDefinition("delta", 1.0, 4.0),
    BandDefinition("theta", 4.0, 8.0),
    BandDefinition("alpha", 8.0, 12.0),
    BandDefinition("beta", 12.0, 30.0),
    BandDefinition("gamma", 30.0, 40.0, closed_top=True),
)


class ResolutionError(ValidationError):
    """Window too short for the frequency resolution a computation needs."""


@functools.lru_cache(maxsize=32)
def band_bins(n: int, fs_hz) -> tuple:
    """Each band's contiguous bin range in an n-point rfft at ``fs_hz``, as
    slices in ``BANDS`` order; a band that holds no bin gets an empty slice."""
    freqs = np.fft.rfftfreq(n, 1.0 / fs_hz)
    bins = []
    for band in BANDS:
        m = band.mask(freqs)
        lo = int(np.argmax(m))
        bins.append(slice(lo, lo + int(m.sum())))
    return tuple(bins)


def fold_one_sided(power, n):
    """Double, in place, the bins of an n-point rfft power array that have a
    negative-frequency mirror: all but DC and, for even n, Nyquist."""
    power[1:(n + 1) // 2] *= 2.0
    return power


def periodogram(x, fs_hz):
    """One-sided power spectral density of a mean-removed signal.

    Returns (freqs, psd) with psd in input-units^2/Hz, folded by
    ``fold_one_sided``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    x = x - x.mean()
    spec = np.fft.rfft(x)
    psd = fold_one_sided((spec.real ** 2 + spec.imag ** 2) / (fs_hz * n), n)
    return np.fft.rfftfreq(n, 1.0 / fs_hz), psd


def band_powers_from_samples(raw_samples, fs_hz) -> BandPowers:
    """Mean in-band PSD per EEG band for one window of raw ADC samples."""
    raw_samples = np.asarray(raw_samples)
    n = raw_samples.size
    if n < 2 * fs_hz:
        raise ResolutionError(
            f"window of {n} samples at {fs_hz} Hz is shorter than 2 s; "
            "band edges need at most 0.5 Hz bin spacing"
        )
    _, psd = periodogram(raw_to_microvolts(raw_samples), fs_hz)
    values = []
    for band, bins in zip(BANDS, band_bins(n, fs_hz)):
        if bins.start == bins.stop:
            raise ResolutionError(f"no FFT bins fall inside band {band.name}")
        values.append(float(psd[bins].mean()))
    return BandPowers(*values)


def band_powers_fft(trial: TrialWindow) -> BandPowers:
    return band_powers_from_samples(trial.samples, trial.fs_hz)


# ---------------------------------------------------------------------------
# spectrogram


@dataclass(frozen=True)
class Spectrogram:
    """Time-frequency power map in dB, frames in columns."""

    times_s: np.ndarray
    freqs_hz: np.ndarray
    power_db: np.ndarray

    def __post_init__(self):
        if self.power_db.shape != (self.freqs_hz.size, self.times_s.size):
            raise ValidationError(
                f"power grid {self.power_db.shape} does not match "
                f"{self.freqs_hz.size} freqs x {self.times_s.size} frames"
            )


def stft_spectrogram(samples, fs_hz, window_s: float = 1.0, overlap: float = 0.5) -> Spectrogram:
    """Short-time Fourier spectrogram with a Hann window.

    Frames start every round(w*(1-overlap)) samples and are timestamped
    at their centres. Power below the -120 dB floor (including exact
    silence) is clamped to the floor.
    """
    x = raw_to_microvolts(samples)
    if not np.isfinite(window_s * fs_hz):
        raise ParameterError(f"window must be finite, got {window_s} s")
    w = int(round(window_s * fs_hz))
    if w < MIN_STFT_WINDOW_SAMPLES:
        raise ParameterError(
            f"window of {w} samples is below the minimum {MIN_STFT_WINDOW_SAMPLES}"
        )
    if not (0.0 <= overlap < 1.0):
        raise ParameterError(f"overlap must lie in [0, 1), got {overlap}")
    if x.size < w:
        raise ResolutionError(f"signal of {x.size} samples shorter than one {w}-sample window")
    hop = max(1, int(round(w * (1.0 - overlap))))
    window = np.hanning(w)
    norm = fs_hz * np.sum(window ** 2)
    starts = np.arange(0, x.size - w + 1, hop)
    freqs = np.fft.rfftfreq(w, 1.0 / fs_hz)
    grid = np.empty((freqs.size, starts.size))
    for j, s in enumerate(starts):
        spec = np.fft.rfft(x[s:s + w] * window)
        psd = fold_one_sided((spec.real ** 2 + spec.imag ** 2) / norm, w)
        grid[:, j] = 10.0 * np.log10(np.maximum(psd, _PSD_FLOOR))
    times = (starts + w / 2.0) / fs_hz
    return Spectrogram(times_s=times, freqs_hz=freqs, power_db=grid)


def spectrogram_csv(spec: Spectrogram) -> str:
    """Grid layout: one row per frequency, one column per frame time."""
    lines = ["freq_hz," + ",".join(f"{t:.6f}" for t in spec.times_s)]
    for i, f in enumerate(spec.freqs_hz):
        lines.append(f"{f:.6f}," + ",".join(f"{v:.3f}" for v in spec.power_db[i]))
    return "\n".join(lines) + "\n"


def spectrogram_triples_csv(spec: Spectrogram) -> str:
    """Long layout for plotting tools: freq_hz,time_s,power_db rows."""
    lines = ["freq_hz,time_s,power_db"]
    for i, f in enumerate(spec.freqs_hz):
        for j, t in enumerate(spec.times_s):
            lines.append(f"{f:.6f},{t:.6f},{spec.power_db[i, j]:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# wavelet features


def _gamma_level(fs_hz):
    # level whose dyadic band is [32, 64) Hz; requires a power-of-two rate
    level = int(round(np.log2(fs_hz))) - 6
    if 2 ** (level + 6) != fs_hz or level < 1:
        raise ParameterError(
            f"no dyadic level covers the gamma band at fs={fs_hz} Hz; "
            "supported rates are powers of two >= 128"
        )
    return level


def wavelet_band_features(trial: TrialWindow, mode: str = "symmetric"):
    """Per-band (mean |coeff|, mean coeff^2) pairs from a db8 decomposition.

    Detail levels are matched to bands by their dyadic frequency ranges;
    the delta band pools the deepest detail level with the final
    approximation so the whole [0, 4) Hz residue is covered. Returns a
    dict {band: (mean_abs, mean_power)} in microvolt units.
    """
    fs = trial.fs_hz
    gamma_level = _gamma_level(fs)
    depth = gamma_level + 4
    n = trial.samples.size
    allowed = max_decomposition_level(n)
    if depth > allowed:
        raise ResolutionError(
            f"trial of {n} samples allows {allowed} decomposition levels "
            f"but the band ladder at fs={fs} needs {depth}"
        )
    x = raw_to_microvolts(trial.samples)
    decomp = dwt_db8(x, depth, mode)
    per_level = list(decomp.details)
    band_coeffs = {
        "gamma": [per_level[gamma_level - 1]],
        "beta": [per_level[gamma_level]],
        "alpha": [per_level[gamma_level + 1]],
        "theta": [per_level[gamma_level + 2]],
        "delta": [per_level[gamma_level + 3], decomp.approx],
    }
    out = {}
    for band in BAND_NAMES:
        coeffs = np.concatenate(band_coeffs[band])
        out[band] = (float(np.mean(np.abs(coeffs))), float(np.mean(coeffs ** 2)))
    return out


# ---------------------------------------------------------------------------
# feature vector assembly

FEATURE_MODES = ("fft", "dwt", "combined")


def _fft_block(trial):
    bp = band_powers_fft(trial)
    names = [f"{trial.channel}_fft_{band}" for band in BAND_NAMES]
    return names, list(bp.as_tuple())


def _dwt_block(trial):
    feats = wavelet_band_features(trial)
    names = []
    values = []
    for band in BAND_NAMES:
        mean_abs, mean_pow = feats[band]
        names += [f"{trial.channel}_dwt_{band}_mabs", f"{trial.channel}_dwt_{band}_pow"]
        values += [mean_abs, mean_pow]
    return names, values


def build_feature_vector(trials, mode: str = "fft") -> FeatureVector:
    """Assemble one labelled feature row from the channels of one trial.

    `trials` is a single TrialWindow or a list holding the same trial
    index across a session's channels; channel blocks appear in the
    given order, FFT features before wavelet features within a channel.
    """
    if mode not in FEATURE_MODES:
        raise ParameterError(f"mode must be one of {FEATURE_MODES}, got {mode!r}")
    trials = [trials] if isinstance(trials, TrialWindow) else list(trials)
    if not trials:
        raise ValidationError("no trial windows given")
    first = trials[0]
    seen = set()
    for tr in trials:
        if (tr.subject_id, tr.task, tr.trial_index) != (
            first.subject_id,
            first.task,
            first.trial_index,
        ):
            raise ValidationError(
                "all channels of a feature vector must come from the same trial"
            )
        if tr.channel in seen:
            raise ValidationError(f"duplicate channel {tr.channel!r} in trial set")
        seen.add(tr.channel)

    blocks = {"fft": (_fft_block,), "dwt": (_dwt_block,),
              "combined": (_fft_block, _dwt_block)}[mode]
    names = []
    values = []
    for tr in trials:
        for block in blocks:
            n, v = block(tr)
            names += n
            values += v
    return FeatureVector(values=tuple(values), schema=tuple(names), label=first.task)


def feature_vectors_from_sessions(sessions, mode="fft", trial_seconds=4.0):
    """All per-trial feature vectors of several sessions, in session order."""
    from .model import split_into_trials

    vectors = []
    for session in sessions:
        windows = split_into_trials(session, trial_seconds)
        per_trial = len(session.channels)
        for i in range(0, len(windows), per_trial):
            vectors.append(build_feature_vector(windows[i:i + per_trial], mode))
    return vectors
