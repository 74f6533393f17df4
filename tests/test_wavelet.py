"""Daubechies-8 filter bank: tap derivation, orthonormality, PR, energy."""

import dataclasses
import math

import numpy as np
import pytest

from driveguard.errors import ParameterError, ValidationError
from driveguard.wavelet import (
    DB8_DEC_HI,
    DB8_DEC_LO,
    DB8_REC_HI,
    DB8_REC_LO,
    FILTER_LEN,
    MIN_SIGNAL_LEN,
    dwt_db8,
    idwt_db8,
    max_decomposition_level,
)


def periodic_windows_index(n):
    """Index of sample 2k + 1 - j (mod n), row k and column j: the taps that
    output k of a periodization level weighs."""
    return (2 * np.arange(n // 2)[:, None] + 1 - np.arange(FILTER_LEN)[None, :]) % n


def periodic_analysis(x):
    """One periodization level as a 1-D index gather: an odd length first
    repeats its last sample."""
    if x.size % 2:
        x = np.append(x, x[-1])
    windows = x[periodic_windows_index(x.size)]
    return windows @ DB8_DEC_LO, windows @ DB8_DEC_HI


def periodic_synthesis(approx, detail, out_len):
    """The adjoint of ``periodic_analysis``, scattered with ``np.add.at``."""
    n = 2 * approx.size
    idx = periodic_windows_index(n)
    x = np.zeros(n)
    np.add.at(x, idx, approx[:, None] * DB8_DEC_LO[None, :])
    np.add.at(x, idx, detail[:, None] * DB8_DEC_HI[None, :])
    return x[:out_len]


def derive_db8_taps():
    """Independent construction of the extremal-phase db8 scaling filter.

    Spectral factorisation of the order-8 binomial half-band polynomial:
    roots of P(y) = sum C(7+k,k) y^k are mapped through y = (2-z-1/z)/4,
    the inside-unit-circle z root is kept per pair, and the filter is the
    monic polynomial with those roots plus an 8-fold zero at z=-1,
    normalised to sum sqrt(2).
    """
    n_moments = 8
    p_desc = [math.comb(n_moments - 1 + k, k) for k in range(n_moments)][::-1]
    zroots = []
    for y in np.roots(p_desc):
        cand = np.roots([1.0, 4.0 * y - 2.0, 1.0])
        zroots.append(cand[np.argmin(np.abs(cand))])
    h = np.real(np.poly([-1.0] * n_moments + zroots))
    return h * np.sqrt(2.0) / np.sum(h)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestFilterBank:
    def test_taps_match_independent_derivation(self):
        assert np.max(np.abs(derive_db8_taps() - DB8_REC_LO)) < 1e-10

    def test_filter_relations(self):
        alt = np.where(np.arange(FILTER_LEN) % 2 == 0, 1.0, -1.0)
        assert np.array_equal(DB8_DEC_LO, DB8_REC_LO[::-1])
        assert np.array_equal(DB8_REC_HI, DB8_REC_LO[::-1] * alt)
        assert np.array_equal(DB8_DEC_HI, DB8_REC_HI[::-1])

    def test_orthonormality(self):
        h = DB8_REC_LO
        assert np.sum(h) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert np.sum(h ** 2) == pytest.approx(1.0, abs=1e-12)
        for k in range(1, FILTER_LEN // 2):
            assert abs(np.dot(h[2 * k:], h[:-2 * k])) < 1e-12
        # low and high pass are orthogonal at all even shifts
        g = DB8_REC_HI
        assert abs(np.dot(h, g)) < 1e-12
        for k in range(1, FILTER_LEN // 2):
            assert abs(np.dot(h[2 * k:], g[:-2 * k])) < 1e-12
            assert abs(np.dot(g[2 * k:], h[:-2 * k])) < 1e-12

    def test_eight_vanishing_moments(self):
        n = np.arange(FILTER_LEN, dtype=np.float64)
        for p in range(8):
            assert abs(np.sum(n ** p * DB8_REC_HI)) < 1e-8


class TestLevels:
    def test_max_level_values(self):
        assert max_decomposition_level(15) == 0
        assert max_decomposition_level(16) == 0
        assert max_decomposition_level(29) == 0
        assert max_decomposition_level(30) == 1
        assert max_decomposition_level(2048) == 7

    def test_short_signal_rejected(self):
        with pytest.raises(ValidationError):
            dwt_db8(np.zeros(15), 1)

    def test_level_zero_budget_rejected(self):
        with pytest.raises(ParameterError):
            dwt_db8(np.zeros(16), 1)

    def test_too_deep_rejected(self):
        with pytest.raises(ParameterError):
            dwt_db8(np.zeros(31), 2)

    def test_non_1d_rejected(self):
        with pytest.raises(ValidationError):
            dwt_db8(np.zeros((4, 64)), 1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            dwt_db8(np.zeros(64), 1, mode="zero")

    def test_band_edges(self):
        d = dwt_db8(np.random.default_rng(0).normal(size=2048), 3, fs_hz=512.0)
        assert d.level == 3
        assert d.level_band_hz(1) == (128.0, 256.0)
        assert d.level_band_hz(2) == (64.0, 128.0)
        assert d.level_band_hz(3) == (32.0, 64.0)
        assert d.approx_band_hz() == (0.0, 32.0)
        with pytest.raises(ParameterError):
            d.level_band_hz(4)

    def test_band_requires_fs(self):
        d = dwt_db8(np.zeros(64), 1)
        with pytest.raises(ParameterError):
            d.level_band_hz(1)
        assert d.level_band_hz(1, 128.0) == (32.0, 64.0)


RANDOM_LENGTHS = (31, 64, 100, 257, 512, 1023, 2048)


class TestPerfectReconstruction:
    @pytest.mark.parametrize("mode", ["symmetric", "periodization"])
    def test_random_signals(self, mode):
        rng = np.random.default_rng(42)
        for n in RANDOM_LENGTHS:
            x = rng.normal(scale=30.0, size=n)
            levels = max_decomposition_level(n)
            for lev in range(1, levels + 1):
                d = dwt_db8(x, lev, mode=mode)
                back = idwt_db8(d)
                assert back.shape == x.shape
                err = np.max(np.abs(back - x)) / np.max(np.abs(x))
                assert err < 1e-9, (mode, n, lev, err)

    def test_periodization_matches_index_gather_oracle(self):
        rng = np.random.default_rng(42)
        for n in RANDOM_LENGTHS:
            x = rng.normal(scale=30.0, size=n)
            for lev in range(1, max_decomposition_level(n) + 1):
                d = dwt_db8(x, lev, mode="periodization")
                approx, lengths = x, []
                for got in d.details:
                    lengths.append(approx.size)
                    approx, detail = periodic_analysis(approx)
                    assert_close(got, detail)
                assert_close(d.approx, approx)
                back = d.approx
                for level in range(lev, 0, -1):
                    back = periodic_synthesis(back, d.details[level - 1],
                                              lengths[level - 1])
                assert_close(idwt_db8(d), back)

    @pytest.mark.parametrize("mode, spare", [("symmetric", 1), ("periodization", 0)])
    def test_reconstruction_longer_than_coefficients_allow(self, mode, spare):
        # one level of m coefficients gives at most 2m + spare samples
        d = dwt_db8(np.random.default_rng(5).normal(size=64), 1, mode=mode)
        m = d.approx.size
        fits = dataclasses.replace(d, _lengths=(2 * m + spare,))
        assert idwt_db8(fits).size == 2 * m + spare
        too_long = dataclasses.replace(d, _lengths=(2 * m + spare + 1,))
        with pytest.raises(ValidationError, match=f"cannot reconstruct {2 * m + spare + 1} "
                                                  f"samples from {m} coefficients"):
            idwt_db8(too_long)

    def test_zero_signal(self):
        d = dwt_db8(np.zeros(128), 2)
        assert np.all(d.approx == 0)
        assert all(np.all(det == 0) for det in d.details)
        assert np.all(idwt_db8(d) == 0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=256)
        y = rng.normal(size=256)
        a, b = 2.5, -0.75
        dx = dwt_db8(x, 3)
        dy = dwt_db8(y, 3)
        dz = dwt_db8(a * x + b * y, 3)
        assert np.allclose(dz.approx, a * dx.approx + b * dy.approx, atol=1e-10)
        for dzd, dxd, dyd in zip(dz.details, dx.details, dy.details):
            assert np.allclose(dzd, a * dxd + b * dyd, atol=1e-10)


class TestEnergy:
    def test_parseval_periodization(self):
        rng = np.random.default_rng(7)
        for n in (64, 256, 2048):
            x = rng.normal(scale=10.0, size=n)
            sig_energy = float(np.sum(x ** 2))
            for lev in range(1, max_decomposition_level(n) + 1):
                d = dwt_db8(x, lev, mode="periodization")
                assert d.coefficient_energy() == pytest.approx(
                    sig_energy, rel=1e-9)

    def test_coefficient_energy_sums_all_arrays(self):
        d = dwt_db8(np.ones(64), 2, mode="periodization")
        manual = float(np.sum(d.approx ** 2))
        for det in d.details:
            manual += float(np.sum(det ** 2))
        assert d.coefficient_energy() == manual

    def test_lowpass_captures_constant_signal(self):
        # a constant signal has no detail content under periodization
        d = dwt_db8(np.full(256, 5.0), 3, mode="periodization")
        for det in d.details:
            assert np.max(np.abs(det)) < 1e-9
        assert d.approx == pytest.approx(np.full(d.approx.size, 5.0 * 2 ** 1.5))
