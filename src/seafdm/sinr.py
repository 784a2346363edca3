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

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation

__all__ = [
    "sa",
    "sinr_eve_symbol",
    "sinr_eve_symbol_discrete",
    "sinr_eve_average",
    "sinr_eve_saturated",
    "sinr_eve_measured",
    "measured_sinr",
    "SinrCurve",
    "eve_sinr_curve",
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
    if c2max < 0:
        raise ContractViolation("c2max must be nonnegative")
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


def sinr_eve_measured(
    trials: int,
    p: int,
    gamma: float,
    book,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo counterpart of :func:`sinr_eve_symbol`.

    Draws the unknown rate continuous-uniform on [-c2max, c2max], measures
    the empirical residual power E|exp(2j*pi*c2*p**2) - 1|^2, and returns
    1 / (that + 1/gamma) for unit-energy symbols.
    """
    _check_gamma(gamma)
    if trials < 1:
        raise ContractViolation("trial count must be positive")
    if p < 0:
        raise ContractViolation("subcarrier index must be nonnegative")
    c2 = rng.uniform(-book.c2max, book.c2max, size=trials)
    residual = np.exp(2j * np.pi * c2 * float(p * p)) - 1.0
    interference = float(np.mean(np.abs(residual) ** 2))
    if interference == 0.0:
        return float(gamma)
    return float(1.0 / (interference + 1.0 / gamma))


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


def sinr_eve_saturated(n: int, gamma: float) -> float:
    """Large-c2max limit of the frame average: (gamma + (n-1)*gamma/(2*gamma+1))/n.

    Every scrambled subcarrier floors at gamma/(2*gamma+1), which is below
    one (0 dB) for any gamma; only the untouched p = 0 term keeps gamma.
    At high SNR the floor approaches 1/2, hence the -3 dB wall.
    """
    if n < 1:
        raise ContractViolation("frame size must be positive")
    _check_gamma(gamma)
    floor = gamma / (2.0 * gamma + 1.0)
    return float((gamma + (n - 1) * floor) / n)


def measured_sinr(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Empirical SINR of an estimate: useful-projection power over the rest."""
    x = np.asarray(x, dtype=np.complex128)
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    if x.shape != x_hat.shape or x.ndim != 1 or not x.size:
        raise ContractViolation("need two equal-length nonempty vectors")
    denom = np.vdot(x, x).real
    if denom == 0.0:
        raise ContractViolation("reference signal has zero energy")
    a = np.vdot(x, x_hat) / denom
    err = x_hat - a * x
    noise = np.vdot(err, err).real
    if noise == 0.0:
        return float("inf")
    return float((abs(a) ** 2) * denom / noise)


@dataclass(frozen=True)
class SinrCurve:
    c2max: np.ndarray
    sinr: np.ndarray

    @property
    def sinr_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.sinr)


def eve_sinr_curve(n: int, gamma: float, c2max_values) -> SinrCurve:
    """Frame-averaged eavesdropper SINR swept over scrambling strength."""
    values = np.asarray(c2max_values, dtype=np.float64)
    if values.ndim != 1 or not values.size:
        raise ContractViolation("c2max sweep must be a nonempty vector")
    out = np.array([sinr_eve_average(n, gamma, v) for v in values])
    return SinrCurve(c2max=values, sinr=out)
