"""Closed-form eavesdropper SINR under random chirp-rate scrambling.

An eavesdropper who equalizes perfectly but guesses the schedule wrong is
left with the residual phasor exp(2j*pi*d[q]*q**2) on symbol q, where d[q]
is the rate error.  Averaging that phasor over a rate error uniform on
[-c2max, c2max] keeps only the fraction Sa(2*pi*q**2*c2max) of the useful
amplitude and turns the rest into self-interference, which gives the
per-symbol SINR below.  sinr_eve_symbol(0, ...) equals the receive SNR: the
q = 0 symbol never gets scrambled.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ContractViolation

__all__ = [
    "sa",
    "sinr_eve_symbol",
    "sinr_eve_symbol_discrete",
    "sinr_eve_average",
]


def sa(x) -> np.ndarray:
    """Unnormalized sampling function sin(x)/x with sa(0) = 1."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    # two-term series keeps full precision through the removable singularity
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def _check_gamma(gamma: float) -> None:
    if gamma <= 0 or not np.isfinite(gamma):
        raise ContractViolation("snr must be positive and finite")


def sinr_eve_symbol(p, gamma: float, c2max: float) -> np.ndarray:
    """Eavesdropper SINR on subcarrier p at receive SNR gamma.

    gamma / (2*gamma*(1 - Sa(2*pi*p**2*c2max)) + 1), the uniform-rate-error
    average of the descrambling residual.
    """
    _check_gamma(gamma)
    if not 0 <= c2max < np.inf:
        raise ContractViolation(f"c2max must be finite and nonnegative, got {c2max!r}")
    p = np.asarray(p, dtype=np.float64)
    leak = 1.0 - sa(2.0 * np.pi * p * p * c2max)
    return gamma / (2.0 * gamma * leak + 1.0)


def sinr_eve_symbol_discrete(p, gamma: float, book) -> np.ndarray:
    """Same SINR with the rate error averaged over the discrete codebook.

    The closed form above treats the unknown rate as continuous-uniform;
    a real schedule draws from the m quantized levels, so the exact
    expectation replaces Sa with the level average of cos.  The two agree
    as m grows.
    """
    _check_gamma(gamma)
    p = np.asarray(p, dtype=np.float64)
    phases = 2.0 * np.pi * np.multiply.outer(p * p, book.levels)
    leak = 1.0 - np.mean(np.cos(phases), axis=-1)
    return gamma / (2.0 * gamma * leak + 1.0)


def sinr_eve_average(n: int, gamma: float, c2max: float) -> float:
    """Arithmetic mean of the per-subcarrier eavesdropper SINR over a frame."""
    if n < 1:
        raise ContractViolation("frame size must be positive")
    values = sinr_eve_symbol(np.arange(n), gamma, c2max)
    if np.all(values == values[0]):
        # keep the unscrambled case bit-exact: summation rounding must not
        # perturb the mean of a constant vector away from the receive SNR
        return float(values[0])
    return float(np.mean(values))
