"""Discrete wavelet transform with the 16-tap Daubechies-8 filter pair.

The filter bank is hand-rolled so its behaviour is pinned by this
package rather than by an external implementation: analysis filters are
the time-reversed synthesis filters, the high-pass is the quadrature
mirror of the low-pass, and two boundary policies are supported.

  symmetric      half-sample reflection padding; coefficient arrays grow
                 by the filter transient, matching common practice for
                 feature extraction.
  periodization  circular convolution on an even-length signal; the
                 transform is orthogonal, so reconstruction is the
                 adjoint and energy is preserved exactly.

Dyadic level d of a rate-fs signal covers [fs/2^(d+1), fs/2^d) Hz; the
final approximation covers [0, fs/2^(J+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError

# Daubechies-8 scaling filter (synthesis low-pass), extremal phase.
# Derived by spectral factorisation of the order-8 binomial half-band
# polynomial; satisfies sum h = sqrt(2) and shift-2 orthonormality to
# machine precision.
DB8_REC_LO = np.array([
    0.05441584224310401,
    0.31287159091429995,
    0.6756307362972898,
    0.5853546836542067,
    -0.015829105256349306,
    -0.2840155429615469,
    0.0004724845739132828,
    0.12874742662047847,
    -0.017369301001807547,
    -0.044088253930794755,
    0.013981027917398282,
    0.008746094047405777,
    -0.004870352993451574,
    -0.00039174037337694705,
    0.0006754494064505693,
    -0.00011747678412476953,
])

FILTER_LEN = DB8_REC_LO.size

DB8_DEC_LO = DB8_REC_LO[::-1].copy()
DB8_REC_HI = (DB8_REC_LO[::-1] * np.where(np.arange(FILTER_LEN) % 2 == 0, 1.0, -1.0))
DB8_DEC_HI = DB8_REC_HI[::-1].copy()

MIN_SIGNAL_LEN = 16
MODES = ("symmetric", "periodization")


def max_decomposition_level(n: int) -> int:
    """Deepest level at which coefficient arrays stay usefully long."""
    if n < MIN_SIGNAL_LEN:
        return 0
    return int(math.floor(math.log2(n / (MIN_SIGNAL_LEN - 1))))


def _check_mode(mode):
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")


# the reversed analysis filters, low then high, as the columns of one matrix
_DEC_PAIR_REVERSED = np.stack([DB8_DEC_LO[::-1], DB8_DEC_HI[::-1]], axis=1)


def _dwt_step_symmetric(x):
    """One symmetric level along the last axis of a stack of signals.

    Only the kept outputs are computed: the odd-phase, stride-2 points of
    the fully overlapped convolution with each analysis filter, for both
    filters in one product of the padded signal's filter-length windows.
    """
    pad = [(0, 0)] * (x.ndim - 1) + [(FILTER_LEN - 1, FILTER_LEN - 1)]
    ext = np.pad(x, pad, mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(ext, FILTER_LEN, axis=-1)
    out = windows[..., 1::2, :] @ _DEC_PAIR_REVERSED
    return out[..., 0], out[..., 1]


def _idwt_single_symmetric(approx, detail, out_len):
    m = approx.size
    up_a = np.zeros(2 * m)
    up_d = np.zeros(2 * m)
    up_a[::2] = approx
    up_d[::2] = detail
    rec = np.convolve(up_a, DB8_REC_LO) + np.convolve(up_d, DB8_REC_HI)
    start = FILTER_LEN - 2
    if out_len > rec.size - start:
        raise ValidationError(
            f"cannot reconstruct {out_len} samples from {m} coefficients"
        )
    return rec[start:start + out_len]


def _dwt_single_periodic(x):
    n = x.size
    if n % 2:
        x = np.append(x, x[-1])
        n += 1
    half = n // 2
    idx = (2 * np.arange(half)[:, None] + 1 - np.arange(FILTER_LEN)[None, :]) % n
    windows = x[idx]
    return windows @ DB8_DEC_LO, windows @ DB8_DEC_HI


def _idwt_single_periodic(approx, detail, out_len):
    half = approx.size
    n = 2 * half
    idx = (2 * np.arange(half)[:, None] + 1 - np.arange(FILTER_LEN)[None, :]) % n
    x = np.zeros(n)
    np.add.at(x, idx, approx[:, None] * DB8_DEC_LO[None, :])
    np.add.at(x, idx, detail[:, None] * DB8_DEC_HI[None, :])
    if out_len > n:
        raise ValidationError(
            f"cannot reconstruct {out_len} samples from {half} coefficients"
        )
    return x[:out_len]


@dataclass(frozen=True)
class WaveletDecomposition:
    """Multi-level DWT output.

    details[0] is level 1 (the finest, highest-frequency band) and
    details[-1] is level J; approx is the level-J approximation.
    _lengths records the input length consumed at each level so the
    inverse can undo boundary padding exactly.
    """

    approx: np.ndarray
    details: tuple
    mode: str
    _lengths: tuple
    fs_hz: float | None = None

    @property
    def level(self) -> int:
        return len(self.details)

    def coefficient_energy(self) -> float:
        total = float(np.sum(self.approx ** 2))
        for d in self.details:
            total += float(np.sum(d ** 2))
        return total

    def _fs(self, fs_hz):
        fs = fs_hz if fs_hz is not None else self.fs_hz
        if fs is None:
            raise ParameterError("no sampling rate attached to this decomposition")
        return fs

    def level_band_hz(self, level: int, fs_hz: float | None = None):
        """Frequency band [lo, hi) in Hz covered by detail `level`."""
        if not (1 <= level <= self.level):
            raise ParameterError(f"level {level} outside 1..{self.level}")
        fs = self._fs(fs_hz)
        return fs / 2 ** (level + 1), fs / 2 ** level

    def approx_band_hz(self, fs_hz: float | None = None):
        fs = self._fs(fs_hz)
        return 0.0, fs / 2 ** (self.level + 1)


def _check_levels(n: int, max_level: int):
    if n < MIN_SIGNAL_LEN:
        raise ValidationError(f"signal length {n} below minimum {MIN_SIGNAL_LEN}")
    allowed = max_decomposition_level(n)
    if not (1 <= max_level <= allowed):
        raise ParameterError(
            f"max_level {max_level} outside 1..{allowed} for length {n}"
        )


def _decompose(x, max_level: int, step):
    approx = x
    details = []
    for _ in range(max_level):
        approx, detail = step(approx)
        details.append(detail)
    return approx, tuple(details)


def dwt_db8(
    signal, max_level: int, mode: str = "symmetric", fs_hz: float | None = None
) -> WaveletDecomposition:
    """Decompose a signal to `max_level` dyadic scales."""
    _check_mode(mode)
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"signal must be 1-D, got shape {x.shape}")
    _check_levels(x.size, max_level)
    step = _dwt_step_symmetric if mode == "symmetric" else _dwt_single_periodic
    approx, details = _decompose(x, max_level, step)
    return WaveletDecomposition(
        approx=approx,
        details=details,
        mode=mode,
        # the input length of each level
        _lengths=(x.size,) + tuple(d.size for d in details[:-1]),
        fs_hz=fs_hz,
    )


def dwt_db8_rows(signals, max_level: int):
    """``(approx, details)`` of the symmetric-mode ``dwt_db8`` of each row of
    a ``(..., n)`` stack, along its last axis: ``details[0]`` holds level 1
    of every row and ``approx`` the level-``max_level`` approximations."""
    x = np.asarray(signals, dtype=np.float64)
    _check_levels(x.shape[-1], max_level)
    return _decompose(x, max_level, _dwt_step_symmetric)


def idwt_db8(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert dwt_db8; exact to rounding error for both modes."""
    single = (
        _idwt_single_symmetric
        if decomp.mode == "symmetric"
        else _idwt_single_periodic
    )
    approx = decomp.approx
    for level in range(decomp.level, 0, -1):
        out_len = decomp._lengths[level - 1]
        approx = single(approx, decomp.details[level - 1], out_len)
    return approx
