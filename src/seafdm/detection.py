"""Linear MMSE symbol detection and hard demapping."""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .exceptions import ContractViolation, SolverError
from .waveform import Constellation

__all__ = [
    "mmse_equalize",
    "demap",
    "count_errors",
]


def mmse_equalize(y: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    """x_hat = H^H (H H^H + sigma2 I)^{-1} y for unit-energy symbols.

    The Gram matrix is Hermitian positive definite for sigma2 > 0 (and for
    sigma2 == 0 whenever H has full row rank), so a Cholesky solve is both
    the cheap and the numerically honest route.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolation("channel matrix must be square")
    if y.shape != (h.shape[0],):
        raise ContractViolation("observation length does not match the channel")
    if sigma2 < 0:
        raise ContractViolation("noise variance must be nonnegative")
    gram = h @ h.conj().T
    gram[np.diag_indices_from(gram)] += sigma2
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"MMSE Gram matrix is not positive definite: {exc}") from exc
    return h.conj().T @ cho_solve(factor, y, check_finite=False)


def demap(x_hat: np.ndarray, spec: Constellation) -> np.ndarray:
    """Nearest-point hard decision back to bits, MSB first per symbol."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    dist = np.abs(x_hat[:, None] - spec.points[None, :])
    labels = np.argmin(dist, axis=1)
    k = spec.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    bits = (labels[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(np.uint8)


def count_errors(sent: np.ndarray, received: np.ndarray) -> int:
    sent = np.asarray(sent)
    received = np.asarray(received)
    if sent.shape != received.shape:
        raise ContractViolation("bit vectors must have equal length")
    return int(np.count_nonzero(sent != received))
