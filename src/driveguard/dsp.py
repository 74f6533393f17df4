"""Spectral and wavelet feature extraction from trial windows.

``periodogram`` is the one spectral kernel: the one-sided squared FFT
magnitude, scaled to power density, of each window in a stack. Band powers
average a mean-removed window's density over each canonical band, and pass
the kernel an internal bin limit, the top band's stop, so that only the bins
the bands use are squared, scaled and folded (at 4 s and 512 Hz, 161 of
1025), and their own microvolt array, whose mean it removes in place; the
spectrogram is one call over its Hann-tapered frames and keeps every bin.
The wavelet route maps dyadic detail levels onto the same five bands and
summarises each with the mean absolute coefficient and the mean squared
coefficient.
Feature vectors score the trials of consecutive sessions of one rate and
channel count as stacks of rows, at most SCORE_STACK windows per numpy
call; the one-trial functions are one-row calls of the same scorers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .model import BAND_NAMES, BandPowers, FeatureVector, TrialWindow, trial_stack
from .protocol import raw_to_microvolts
# perfbench/tracing.py rebinds dsp.dwt_db8, so keep it imported
from .wavelet import dwt_db8, dwt_db8_rows, max_decomposition_level  # noqa: F401

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
def rfft_freqs(n: int, fs_hz) -> np.ndarray:
    """The bin frequencies of an n-point rfft at ``fs_hz``, built once per
    ``(n, fs_hz)`` and shared, so read-only."""
    freqs = np.fft.rfftfreq(n, 1.0 / fs_hz)
    freqs.setflags(write=False)
    return freqs


@functools.lru_cache(maxsize=32)
def band_bins(n: int, fs_hz) -> tuple:
    """Each band's contiguous bin range in an n-point rfft at ``fs_hz``, as
    slices in ``BANDS`` order; a band that holds no bin gets an empty slice."""
    freqs = rfft_freqs(n, fs_hz)
    bins = []
    for band in BANDS:
        m = band.mask(freqs)
        lo = int(np.argmax(m))
        bins.append(slice(lo, lo + int(m.sum())))
    return tuple(bins)


@functools.lru_cache(maxsize=32)
def band_widths(n: int, fs_hz) -> np.ndarray:
    """The bin count of each band in ``band_bins(n, fs_hz)``, as a shared,
    read-only float array; ResolutionError when a band holds no bin."""
    widths = np.array([bins.stop - bins.start for bins in band_bins(n, fs_hz)],
                      dtype=np.float64)
    if not widths.all():
        band = BANDS[int(widths.argmin())]
        raise ResolutionError(f"no FFT bins fall inside band {band.name}")
    widths.setflags(write=False)
    return widths


def fold_one_sided(power, n):
    """Double, in place, the bins of n-point rfft power rows (last axis)
    that have a negative-frequency mirror: all but DC and, for even n,
    Nyquist."""
    power[..., 1:(n + 1) // 2] *= 2.0
    return power


def periodogram(frames, fs_hz, taper=None, _stop=None, _fresh=False):
    """(freqs, psd): the one-sided PSD, in input-units^2/Hz, of each row of
    ``frames`` (a 1-D signal is one row), mean-removed and scaled by fs * n;
    with ``taper``, multiplied by it and scaled by fs * sum(taper^2) instead.
    ``freqs`` is the shared, read-only ``rfft_freqs(n, fs_hz)``. With the
    internal bin limit ``_stop``, only the bins below it are squared, scaled
    and folded, and both arrays end there; each kept bin is as without it.
    ``frames`` is left as it is, unless the internal ``_fresh`` says that
    the caller made it for this call alone: then the mean is removed in
    place, one temporary fewer, and each value is as without it."""
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[-1]
    if taper is None:
        # np.mean's sum and division, without its Python overhead
        mean = np.add.reduce(frames, axis=-1, keepdims=True) / n
        spec = np.fft.rfft(np.subtract(frames, mean, out=frames if _fresh else None))
        scale = fs_hz * n
    else:
        spec = np.fft.rfft(frames * taper)
        scale = fs_hz * np.sum(taper ** 2)
    freqs = rfft_freqs(n, fs_hz)
    if _stop is not None:
        spec, freqs = spec[..., :_stop], freqs[:_stop]
    psd = spec.real ** 2
    psd += spec.imag ** 2
    psd /= scale
    return freqs, fold_one_sided(psd, n)


def band_power_rows(raw_windows, fs_hz) -> np.ndarray:
    """Mean in-band PSD per EEG band, in ``BANDS`` order, of each row
    (window) of raw ADC samples: shape ``(..., 5)`` for ``(..., n)``."""
    raw_windows = np.asarray(raw_windows)
    n = raw_windows.shape[-1]
    if n < 2 * fs_hz:
        raise ResolutionError(
            f"window of {n} samples at {fs_hz} Hz is shorter than 2 s; "
            "band edges need at most 0.5 Hz bin spacing"
        )
    bands = band_bins(n, fs_hz)
    # the bands ascend, so no band reaches past the top band's stop
    _, psd = periodogram(raw_to_microvolts(raw_windows), fs_hz, _stop=bands[-1].stop,
                         _fresh=True)
    widths = band_widths(n, fs_hz)
    out = np.empty(psd.shape[:-1] + (len(BANDS),))
    for i, bins in enumerate(bands):
        np.add.reduce(psd[..., bins], axis=-1, out=out[..., i])
    out /= widths
    return out


def band_powers_from_samples(raw_samples, fs_hz) -> BandPowers:
    """Mean in-band PSD per EEG band for one window of raw ADC samples."""
    return BandPowers(*band_power_rows(raw_samples, fs_hz).tolist())


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
    frames = np.lib.stride_tricks.sliding_window_view(x, w)[::hop]
    freqs, psd = periodogram(frames, fs_hz, taper=np.hanning(w))
    times = (np.arange(0, x.size - w + 1, hop) + w / 2.0) / fs_hz
    return Spectrogram(times_s=times, freqs_hz=freqs,
                       power_db=10.0 * np.log10(np.maximum(psd, _PSD_FLOOR)).T)


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


WAVELET_STATS = ("mabs", "pow")


def wavelet_band_rows(raw_windows, fs_hz) -> np.ndarray:
    """Per band, in ``BANDS`` order, the mean |coeff| then the mean coeff^2
    of each row's db8 decomposition, in microvolt units: shape ``(..., 10)``
    for ``(..., n)`` raw ADC samples.

    Detail levels are matched to bands by their dyadic frequency ranges.
    The decomposition goes one level below theta where the trial is long
    enough, and the delta band pools every detail level below theta with
    the final approximation, so it covers [0, 4) Hz at either depth.
    """
    raw_windows = np.asarray(raw_windows)
    gamma_level = _gamma_level(fs_hz)
    theta_level = gamma_level + 3
    n = raw_windows.shape[-1]
    allowed = max_decomposition_level(n)
    if allowed < theta_level:
        raise ResolutionError(
            f"trial of {n} samples allows {allowed} decomposition levels "
            f"but the band ladder at fs={fs_hz} needs {theta_level}"
        )
    approx, details = dwt_db8_rows(raw_to_microvolts(raw_windows),
                                   min(theta_level + 1, allowed))
    # details[gamma_level - 1] is gamma; each next level is the next band down
    bands = [np.concatenate(details[theta_level:] + (approx,), axis=-1),
             *details[gamma_level - 1:theta_level][::-1]]
    out = np.empty(raw_windows.shape[:-1] + (len(bands) * len(WAVELET_STATS),))
    for i, coeffs in enumerate(bands):
        out[..., 2 * i] = np.mean(np.abs(coeffs), axis=-1)
        out[..., 2 * i + 1] = np.mean(coeffs ** 2, axis=-1)
    return out


def wavelet_band_features(trial: TrialWindow):
    """{band: (mean |coeff|, mean coeff^2)}: one trial's ``wavelet_band_rows``."""
    row = wavelet_band_rows(trial.samples[None], trial.fs_hz)[0].tolist()
    return {band: (row[2 * i], row[2 * i + 1]) for i, band in enumerate(BAND_NAMES)}


# ---------------------------------------------------------------------------
# feature vector assembly

FEATURE_MODES = ("fft", "dwt", "combined")

# windows scored per numpy call: each temporary array stays near 0.5 MB at
# a 4 s window at 512 Hz, whatever the stack's length
SCORE_STACK = 32

# each mode's column blocks within a channel: (scorer, column names)
_FFT_BLOCK = (band_power_rows, tuple(f"fft_{band}" for band in BAND_NAMES))
_DWT_BLOCK = (wavelet_band_rows, tuple(f"dwt_{band}_{stat}" for band in BAND_NAMES
                                       for stat in WAVELET_STATS))
_MODE_BLOCKS = {"fft": (_FFT_BLOCK,), "dwt": (_DWT_BLOCK,),
                "combined": (_FFT_BLOCK, _DWT_BLOCK)}


def _check_mode(mode):
    if mode not in FEATURE_MODES:
        raise ParameterError(f"mode must be one of {FEATURE_MODES}, got {mode!r}")


def feature_schema(channels, mode: str) -> tuple:
    """Feature names of one trial: channel blocks in ``channels`` order, FFT
    columns before wavelet columns within a channel."""
    _check_mode(mode)
    return tuple(f"{channel}_{name}" for channel in channels
                 for _, names in _MODE_BLOCKS[mode] for name in names)


def trial_feature_rows(stack, fs_hz, mode: str):
    """Yield the ``feature_schema`` rows of a ``(channels, trials, n)`` stack
    of raw samples, one row per trial, in runs of at most SCORE_STACK
    trials; each scorer call takes one channel's windows of a run."""
    _check_mode(mode)
    blocks = _MODE_BLOCKS[mode]
    for i in range(0, stack.shape[1], SCORE_STACK):
        yield np.concatenate([score(windows, fs_hz)
                              for windows in stack[:, i:i + SCORE_STACK]
                              for score, _ in blocks], axis=1)


def build_feature_vector(trials, mode: str = "fft") -> FeatureVector:
    """Assemble one labelled feature row from the channels of one trial.

    `trials` is a single TrialWindow or a list holding the same trial
    index across a session's channels; channel blocks appear in the
    given order, FFT features before wavelet features within a channel.
    Each channel's block is the row of its one-trial stack.
    """
    _check_mode(mode)
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

    names = []
    values = []
    for tr in trials:
        names += feature_schema((tr.channel,), mode)
        values += next(trial_feature_rows(tr.samples[None, None], tr.fs_hz, mode))[0].tolist()
    return FeatureVector(values=tuple(values), schema=tuple(names), label=first.task)


def feature_vectors_from_sessions(sessions, mode="fft", trial_seconds=4.0):
    """All per-trial feature vectors of several sessions, in session order.

    The trials of consecutive sessions that share a rate and a channel
    count, and so a trial length, are scored as one stack, at most
    SCORE_STACK windows per call; each session keeps its own schema and
    label. A bad mode raises before any session is cut into trials, then
    the first session shorter than one trial raises; every trial length
    allowed at a session's rate can be scored.
    """
    _check_mode(mode)
    vectors = []
    for (fs_hz, _), run in itertools.groupby(
            sessions, key=lambda s: (s.fs_hz, len(s.channels))):
        run = [(session, trial_stack(session, trial_seconds)) for session in run]
        stacks = [stack for _, stack in run]
        # one copy of the run's trials, unless the run is one session
        stack = np.concatenate(stacks, axis=1) if len(stacks) > 1 else stacks[0]
        rows = iter(np.concatenate(list(trial_feature_rows(stack, fs_hz, mode))).tolist())
        for session, trials in run:
            schema = feature_schema(session.channels, mode)
            vectors += [FeatureVector(values=row, schema=schema, label=session.task)
                        for row in itertools.islice(rows, trials.shape[1])]
    return vectors
