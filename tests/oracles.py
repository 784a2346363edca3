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


def demap_argmin(x_hat: np.ndarray, spec) -> np.ndarray:
    """Counterpart of ``seafdm.detection.demap``: the distance to every point, first-index argmin."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    dist = np.abs(x_hat[..., None] - spec.points)
    labels = np.argmin(dist, axis=-1)
    k = spec.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1
    return bits.reshape(*labels.shape[:-1], -1).astype(np.uint8)


def gram_band(taps: np.ndarray, sigma2: float) -> np.ndarray:
    """Counterpart of ``seafdm.detection._gram_band``: every kept Gram term scattered by ``np.bincount``.

    taps has shape (S, L + 1, n).  G[k, j] gets taps[l, k] * conj(taps[m, j])
    with j = (k + m - l) mod n for every delay pair (l, m); the folded order
    puts k at position 2k for k < (n + 1) / 2 and n - 1 - k at 2k + 1, and
    the lower band keeps band[a - b, b] = G'[a, b] for a >= b.  Each cell
    sums its terms in (l, m, k) order, starting from zero.
    """
    count, rows, n = taps.shape
    delays = np.arange(rows)
    idx = np.arange(n)
    pos = np.where(idx < (n + 1) // 2, 2 * idx, 2 * (n - 1 - idx) + 1)
    cols = (idx + delays[None, :, None] - delays[:, None, None]) % n
    left = np.broadcast_to(delays[:, None, None] * n + idx, cols.shape)
    right = delays[None, :, None] * n + cols
    a, b = pos, pos[cols]
    keep = a >= b
    band_rows = min(2 * (rows - 1), n - 1) + 1
    width = count * n + band_rows - 1
    target = (((a - b) * width + b)[keep] + (np.arange(count) * n)[:, None]).reshape(-1)
    flat = taps.reshape(count, -1)
    # np.take returns arrays of their own, so a product large enough for NumPy
    # to compute in place lands in the left factor; a fancy-indexed left
    # factor would make it reuse the right one and swap the factors, which
    # can flip the sign of the rounding left in a diagonal imaginary part
    vals = np.take(flat, left[keep], axis=1) * np.conj(np.take(flat, right[keep], axis=1))
    band = np.empty((band_rows, width), dtype=np.complex128)
    band.real.flat = np.bincount(target, vals.real.ravel(), band.size)
    band.imag.flat = np.bincount(target, vals.imag.ravel(), band.size)
    band[0] += sigma2
    band[0, count * n :] = 1.0
    return band
