"""Tests for the eavesdropper SINR analytics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from seafdm import ContractViolation, build_codebook
from seafdm.sinr import sa, sinr_eve_average, sinr_eve_symbol, sinr_eve_symbol_discrete

from oracles import sinr_eve_measured, sinr_eve_saturated


def test_sa_known_values():
    assert sa(0.0) == 1.0
    assert abs(sa(np.pi)) < 1e-15
    assert sa(np.pi / 2) == pytest.approx(2 / np.pi)
    np.testing.assert_allclose(sa(np.array([0.0, np.pi / 2])), [1.0, 2 / np.pi])


def test_sa_series_is_continuous_at_switch():
    below, above = 0.999e-6, 1.001e-6
    assert abs(sa(below) - sa(above)) < 1e-12
    assert sa(1e-7) == pytest.approx(1.0 - 1e-14 / 6.0)


def test_sa_matches_defining_integral():
    # the closed form is the mean of cos(2*pi*p*p*t) over t ~ U(-c, c)
    for p, c in [(1, 0.1), (3, 0.02), (7, 1e-3)]:
        val, _ = integrate.quad(lambda t: np.cos(2 * np.pi * p * p * t), -c, c)
        np.testing.assert_allclose(sa(2 * np.pi * p * p * c), val / (2 * c), atol=1e-10)


def test_symbol_sinr_degenerate_cases():
    gamma = 316.227766
    p = np.arange(16)
    np.testing.assert_allclose(sinr_eve_symbol(p, gamma, 0.0), gamma)
    assert sinr_eve_symbol(0, gamma, 50.0) == pytest.approx(gamma)


def test_symbol_sinr_validation():
    with pytest.raises(ContractViolation):
        sinr_eve_symbol(1, 0.0, 1e-5)
    with pytest.raises(ContractViolation):
        sinr_eve_symbol(1, np.inf, 1e-5)
    # NaN slips past a bare c2max < 0 test, and inf turns Sa into NaN
    for c2max in (-1e-4, np.nan, np.inf):
        with pytest.raises(ContractViolation, match="c2max"):
            sinr_eve_symbol(np.arange(4), 100.0, c2max)
    with pytest.raises(ContractViolation, match="frame size"):
        sinr_eve_average(0, 100.0, 1e-5)


@pytest.mark.parametrize("c2max", [7.5, 50.0])
@pytest.mark.parametrize("gamma", [1e2, 1e4, 1e6])
def test_saturated_symbol_sinr_pins_to_half(c2max, gamma):
    # at these strengths 2*pi*p*p*c2max is an integer multiple of pi, so the
    # residual-phasor mean vanishes and the SINR sits at gamma/(2*gamma+1),
    # within 1/(4*gamma) of the high-SNR ceiling of one half
    for p in range(1, 9):
        val = float(sinr_eve_symbol(p, gamma, c2max))
        assert abs(val - 0.5) <= 1.0 / (4.0 * gamma)
        assert val == pytest.approx(gamma / (2 * gamma + 1), rel=1e-9)


def test_frame_average_never_beats_snr():
    gamma = 10**2.5
    assert sinr_eve_average(64, gamma, 0.0) == pytest.approx(gamma)
    assert sinr_eve_average(1, gamma, 1.0) == pytest.approx(gamma)
    assert sinr_eve_average(64, gamma, 1e-5) < gamma


def test_frame_average_decreases_with_scrambling_strength():
    # on this grid the largest phase argument stays below the first lobe
    # boundary, where the residual power grows monotonically
    gamma = 10**2.5
    grid = [0.0, 1e-7, 1e-6, 1e-5, 1e-4]
    vals = [sinr_eve_average(64, gamma, c) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_frame_average_saturates():
    gamma = 10**2.5
    n = 1024
    sat = sinr_eve_saturated(n, gamma)
    got = sinr_eve_average(n, gamma, 50.0)
    np.testing.assert_allclose(got, sat, rtol=1e-6)


def test_saturated_average_known_point():
    gamma = 10**2.5
    expected = (gamma + 1023 * gamma / (2 * gamma + 1)) / 1024
    got = sinr_eve_saturated(1024, gamma)
    assert got == pytest.approx(expected, rel=1e-12)
    assert 10 * np.log10(got) == pytest.approx(-0.9284, abs=5e-4)
    # the run path's frame average reaches the same point once c2max is large
    assert 10 * np.log10(sinr_eve_average(1024, gamma, 50.0)) == pytest.approx(-0.9284, abs=5e-4)


def test_discrete_codebook_sinr_approaches_continuous():
    gamma = 10**2.5
    c2max = 1e-3
    p = 7
    target = float(sinr_eve_symbol(p, gamma, c2max))
    errors = []
    for m in (2, 16, 256, 4096):
        book = build_codebook(c2max, m)
        errors.append(abs(float(sinr_eve_symbol_discrete(p, gamma, book)) - target))
    # the level mean converges to the integral like 1/m
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[3] < 1e-3 * target


def test_measured_sinr_exact_when_nothing_scrambles():
    rng = np.random.default_rng(0)
    book = build_codebook(0.0, 4)
    assert sinr_eve_measured(1000, 3, 4.0, book, rng) == 4.0
    book = build_codebook(1e-4, 4)
    assert sinr_eve_measured(1000, 0, 4.0, book, rng) == 4.0


def test_measured_sinr_matches_closed_form():
    rng = np.random.default_rng(1)
    gamma = 10**2.5
    for p, c2max in [(1, 0.05), (3, 1e-3), (7, 1e-4)]:
        book = build_codebook(c2max, 4)
        got = sinr_eve_measured(200_000, p, gamma, book, rng)
        want = float(sinr_eve_symbol(p, gamma, c2max))
        np.testing.assert_allclose(got, want, rtol=0.02)

