"""Reference implementations the tests compare the simulator against.

None of these is on the simulator's run path: each is the slow, literal
form of something the package computes another way.
"""

from __future__ import annotations

import numpy as np

from seafdm.daft import chirp_diag


def daft_matrix(n: int, c1: float, c2) -> np.ndarray:
    """Dense analysis matrix L(c2) F L(c1); c2 scalar or per-subcarrier."""
    f = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    return chirp_diag(c2, n)[:, None] * f * chirp_diag(c1, n)[None, :]


def sinr_eve_measured(trials: int, p: int, gamma: float, book, rng: np.random.Generator) -> float:
    """Monte Carlo counterpart of ``seafdm.sinr.sinr_eve_symbol``.

    Draws the unknown rate continuous-uniform on [-c2max, c2max], measures
    the empirical residual power E|exp(2j*pi*c2*p**2) - 1|^2, and returns
    1 / (that + 1/gamma) for unit-energy symbols.
    """
    c2 = rng.uniform(-book.c2max, book.c2max, size=trials)
    residual = np.exp(2j * np.pi * c2 * float(p * p)) - 1.0
    interference = float(np.mean(np.abs(residual) ** 2))
    if interference == 0.0:
        return float(gamma)
    return float(1.0 / (interference + 1.0 / gamma))


def sinr_eve_saturated(n: int, gamma: float) -> float:
    """Large-c2max limit of the frame average: (gamma + (n-1)*gamma/(2*gamma+1))/n.

    Every scrambled subcarrier floors at gamma/(2*gamma+1), which is below
    one (0 dB) for any gamma; only the untouched p = 0 term keeps gamma.
    At high SNR the floor approaches 1/2, hence the -3 dB wall.
    """
    floor = gamma / (2.0 * gamma + 1.0)
    return float((gamma + (n - 1) * floor) / n)
