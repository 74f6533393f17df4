"""Seeded synthetic EEG generator with analytic spectral ground truth.

Sessions are a pink-noise carrier (power ~ 1/f^p) plus Hann-enveloped
band-limited tone bursts at Poisson-scheduled onsets, quantized to ADC
counts. The carrier is synthesized in the frequency domain with a
closed-form scale, so the expected periodogram of any band is known
exactly (``expected_band_power``); bursts then raise specific bands by
construction. The benchmark suite assigns each distraction task a
signature burst band, giving labeled data whose separability is tuned
by a single knob.

Determinism contract: for a given spec, draws happen in a fixed order
per channel - carrier spectrum real parts, imaginary parts, then per
burst spec its count, onset times, phases. Identical specs therefore
yield byte-identical sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import BANDS, band_bins, fold_one_sided
from .errors import ParameterError, ValidationError
from .model import (ADC_MAX, ADC_MIN, DEFAULT_TRIAL_SECONDS, Device,
                    SubjectSession, TaskLabel)
from .protocol import UV_PER_COUNT

DEFAULT_AMPLITUDE_UV = 30.0
# one-sided PSD of the round-to-nearest quantization error, treated as
# white with variance step^2/12
QUANTIZATION_NOISE_PSD = {fs: UV_PER_COUNT ** 2 / 12.0 * 2.0 / fs
                          for fs in (512, 128)}
MAX_CLIP_FRACTION = 0.01


class ClippingError(ValidationError):
    """Generated amplitude exceeds the ADC range on too many samples."""


def _band_by_name(name: str):
    for band in BANDS:
        if band.name == name:
            return band
    raise ParameterError(f"unknown band {name!r}")


@dataclass(frozen=True)
class PinkNoiseSpec:
    """Carrier spectrum: power ~ 1/f^exponent, RMS ``amplitude_uv``."""

    amplitude_uv: float = DEFAULT_AMPLITUDE_UV
    exponent: float = 1.0

    def __post_init__(self):
        if not 0 < self.amplitude_uv < math.inf:
            raise ParameterError(f"amplitude must be finite and > 0, got {self.amplitude_uv}")
        if not 0.0 <= self.exponent <= 3.0:
            raise ParameterError(f"exponent must be in [0, 3], got {self.exponent}")


@dataclass(frozen=True)
class BurstSpec:
    """Poisson-scheduled Hann-enveloped tone bursts in one band.

    ``gain`` scales the carrier RMS to the burst's peak amplitude.
    """

    band: str
    center_hz: float
    rate_hz: float = 1.0
    duration_s: float = 1.5
    gain: float = 1.0

    def __post_init__(self):
        # the bands tile [1, 40] Hz, so membership also bounds the center
        if not _band_by_name(self.band).mask(self.center_hz):
            raise ParameterError(
                f"burst center {self.center_hz} Hz outside its {self.band} band")
        if not 0 < self.rate_hz < math.inf:
            raise ParameterError(f"burst rate must be finite and > 0, got {self.rate_hz}")
        if not 0 < self.duration_s < math.inf:
            raise ParameterError(f"burst duration must be finite and > 0, got {self.duration_s}")
        if not 0 < self.gain < math.inf:
            raise ParameterError(f"burst gain must be finite and > 0, got {self.gain}")


def _is_seed_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


@dataclass(frozen=True)
class GeneratorSpec:
    """Full recipe for one synthetic session."""

    seed: object
    task: TaskLabel = TaskLabel.BASE
    fs_hz: int = 512
    duration_s: float = 100.0
    baseline: PinkNoiseSpec = field(default_factory=PinkNoiseSpec)
    bursts: tuple = ()
    subject_id: str = "synth-01"
    channels: tuple = ("FP1",)

    def __post_init__(self):
        if isinstance(self.seed, (list, tuple)):
            if not all(_is_seed_int(v) for v in self.seed):
                raise ParameterError(f"seed sequence must be ints >= 0, got {self.seed!r}")
            object.__setattr__(self, "seed", tuple(self.seed))
        elif not _is_seed_int(self.seed):
            raise ParameterError(f"seed must be an int >= 0 or tuple of ints, got {self.seed!r}")
        if not isinstance(self.task, TaskLabel):
            raise ParameterError(f"task must be a TaskLabel, got {self.task!r}")
        if not isinstance(self.fs_hz, int) or self.fs_hz not in (512, 128):
            raise ParameterError(f"fs must be 512 or 128 Hz, got {self.fs_hz}")
        n = self.duration_s * self.fs_hz
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ParameterError(
                f"duration {self.duration_s} s is not a whole sample count >= 2 "
                f"at {self.fs_hz} Hz")
        object.__setattr__(self, "bursts", tuple(self.bursts))
        for b in self.bursts:
            if not isinstance(b, BurstSpec):
                raise ParameterError(f"bursts must be BurstSpec, got {b!r}")
        if not isinstance(self.subject_id, str):
            raise ParameterError(f"subject_id must be a string, got {self.subject_id!r}")
        if (not isinstance(self.channels, (list, tuple)) or not self.channels
                or not all(isinstance(c, str) for c in self.channels)):
            raise ParameterError(
                f"channels must be a non-empty list of names, got {self.channels!r}")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.fs_hz))

    @property
    def device(self) -> Device:
        return (Device.SINGLE_ELECTRODE_512 if self.fs_hz == 512
                else Device.MULTI_ELECTRODE_128)


# ---------------------------------------------------------------------------
# carrier synthesis and its analytic periodogram


def _carrier_bin_amplitudes(pink: PinkNoiseSpec, fs_hz: int, n: int):
    """Per-bin spectral amplitudes a_k giving E|X_k|^2 = a_k^2 and exact
    expected time-domain RMS equal to pink.amplitude_uv."""
    freqs = np.fft.rfftfreq(n, 1.0 / fs_hz)
    mag = np.zeros(freqs.size)
    mag[1:] = freqs[1:] ** (-0.5 * pink.exponent)
    # mag[0] is 0, so the DC weight does not matter
    weights = fold_one_sided(np.ones(freqs.size), n)
    scale = pink.amplitude_uv * n / math.sqrt(float(np.sum(weights * mag ** 2)))
    return freqs, mag * scale


def _pink_noise(rng: np.random.Generator, pink: PinkNoiseSpec,
                fs_hz: int, n: int) -> np.ndarray:
    _, a = _carrier_bin_amplitudes(pink, fs_hz, n)
    re = rng.standard_normal(a.size)
    im = rng.standard_normal(a.size)
    spec = (re + 1j * im) / math.sqrt(2.0)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = re[-1]
    return np.fft.irfft(a * spec, n=n)


def _expected_periodogram(pink: PinkNoiseSpec, fs_hz: int, n: int):
    _, a = _carrier_bin_amplitudes(pink, fs_hz, n)
    return fold_one_sided(np.ones(a.size), n) * a ** 2 / (fs_hz * n)


def _band_bins(band_name: str, fs_hz: int, n: int) -> slice:
    bins = band_bins(n, fs_hz)[BANDS.index(_band_by_name(band_name))]
    if bins.start == bins.stop:
        raise ParameterError(f"no spectral bins fall in band {band_name!r}")
    return bins


def expected_band_power(pink: PinkNoiseSpec, band_name: str,
                        fs_hz: int, n: int) -> float:
    """Expected mean in-band PSD of the carrier, uV^2/Hz.

    Matches the estimator convention: one-sided periodogram over the
    whole window, mean across in-band bins. Quantization adds roughly
    ``QUANTIZATION_NOISE_PSD[fs]`` on top of this.
    """
    exp_p = _expected_periodogram(pink, fs_hz, n)
    return float(np.mean(exp_p[_band_bins(band_name, fs_hz, n)]))


def expected_band_power_sd(pink: PinkNoiseSpec, band_name: str,
                           fs_hz: int, n: int) -> float:
    """Standard deviation of one window's mean in-band PSD estimate.

    Per-bin periodogram values of a Gaussian carrier are independent
    exponentials, so the bin variance equals the squared bin mean.
    """
    vals = _expected_periodogram(pink, fs_hz, n)[_band_bins(band_name, fs_hz, n)]
    return float(math.sqrt(np.sum(vals ** 2)) / vals.size)


# ---------------------------------------------------------------------------
# bursts


def _burst_train(rng: np.random.Generator, burst: BurstSpec, base_amp_uv: float,
                 fs_hz: int, n: int) -> np.ndarray:
    out = np.zeros(n)
    duration = n / fs_hz
    count = int(rng.poisson(burst.rate_hz * duration))
    max_onset = max(duration - burst.duration_s, 0.0)
    onsets = rng.uniform(0.0, max_onset, size=count)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    if count == 0:
        return out
    m = max(int(round(burst.duration_s * fs_hz)), 2)
    tt = np.arange(m) / fs_hz
    envelope = 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(m) / (m - 1)))
    amp = burst.gain * base_amp_uv
    for onset, phase in zip(onsets, phases):
        start = int(round(onset * fs_hz))
        stop = min(start + m, n)
        seg = stop - start
        if seg <= 0:
            continue
        tone = amp * envelope[:seg] * np.sin(
            2.0 * math.pi * burst.center_hz * tt[:seg] + phase)
        out[start:stop] += tone
    return out


# ---------------------------------------------------------------------------
# session generation


def generate_session(spec: GeneratorSpec) -> SubjectSession:
    """Render a spec to a quantized session.

    Raises ClippingError when more than 1% of samples fall outside the
    ADC range; samples past the rails on fewer than that are clipped.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    rows = np.empty((len(spec.channels), n), dtype=np.int32)
    clipped = 0
    for c in range(len(spec.channels)):
        x = _pink_noise(rng, spec.baseline, spec.fs_hz, n)
        for burst in spec.bursts:
            x += _burst_train(rng, burst, spec.baseline.amplitude_uv,
                              spec.fs_hz, n)
        counts = np.rint(x / UV_PER_COUNT)
        clipped += int(np.sum((counts < ADC_MIN) | (counts > ADC_MAX)))
        rows[c] = np.clip(counts, ADC_MIN, ADC_MAX).astype(np.int32)
    total = n * len(spec.channels)
    if clipped > MAX_CLIP_FRACTION * total:
        raise ClippingError(
            f"{clipped} of {total} samples ({clipped / total:.1%}) exceed the "
            f"ADC range; lower the amplitude or gains")
    return SubjectSession(subject_id=spec.subject_id, task=spec.task,
                          device=spec.device, fs_hz=spec.fs_hz,
                          channels=spec.channels, raw=rows)


# ---------------------------------------------------------------------------
# labeled benchmark suite

# signature burst per distraction task: (band, center Hz, rate 1/s,
# duration s, gain at separation 1). Base has no bursts.
TASK_SIGNATURES = {
    TaskLabel.BASE: (),
    TaskLabel.READ: (("alpha", 10.0, 1.0, 1.5, 1.2),),
    TaskLabel.TEXT: (("beta", 25.0, 1.0, 1.5, 1.5),),
    TaskLabel.CALL: (("theta", 6.0, 1.0, 1.5, 1.0),),
    TaskLabel.SNAPSHOT: (("gamma", 34.0, 1.0, 1.5, 1.8),),
}
_JITTER_STREAM = 10007


def generate_benchmark_suite(seed: int, n_subjects: int = 5,
                             trials_per_task: int = 25,
                             epsilon: float = 1.0):
    """Labeled sessions for all five tasks across synthetic subjects.

    One 512 Hz session per (subject, task), each long enough to split into
    exactly ``trials_per_task`` trials of ``DEFAULT_TRIAL_SECONDS``. ``epsilon``
    scales every signature burst gain: 0 removes the bursts entirely so
    all tasks share one distribution (classifiers should hit chance),
    1 is the default well-separated regime. Subjects get small seeded
    jitters of carrier amplitude, burst center, and gain so they are
    not clones of each other.
    """
    if n_subjects < 1:
        raise ParameterError(f"need >= 1 subject, got {n_subjects}")
    if trials_per_task < 1:
        raise ParameterError(f"need >= 1 trial per task, got {trials_per_task}")
    if epsilon < 0:
        raise ParameterError(f"separation must be >= 0, got {epsilon}")
    sessions = []
    for s in range(n_subjects):
        jitter = np.random.default_rng((seed, s, _JITTER_STREAM))
        pink = PinkNoiseSpec(amplitude_uv=DEFAULT_AMPLITUDE_UV * jitter.uniform(0.9, 1.1))
        subject_id = f"synth-{s + 1:02d}"
        for ti, task in enumerate(TaskLabel):
            bursts = []
            for band, center, rate, dur, gain in TASK_SIGNATURES[task]:
                center_j = center * jitter.uniform(0.95, 1.05)
                gain_j = gain * jitter.uniform(0.9, 1.1)
                if epsilon > 0:
                    bursts.append(BurstSpec(band=band, center_hz=center_j,
                                            rate_hz=rate, duration_s=dur,
                                            gain=epsilon * gain_j))
            spec = GeneratorSpec(seed=(seed, s, ti), task=task,
                                 duration_s=trials_per_task * DEFAULT_TRIAL_SECONDS,
                                 baseline=pink, bursts=tuple(bursts),
                                 subject_id=subject_id)
            sessions.append(generate_session(spec))
    return sessions
