"""Linear MMSE symbol detection and hard demapping."""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cho_solve_banded, cholesky_banded

from .channel import ChannelRealization, _tap_diagonals
from .daft import FrameParams
from .exceptions import ContractViolation, SolverError
from .waveform import Constellation

__all__ = [
    "mmse_equalize",
    "banded_mmse_equalize",
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


def banded_mmse_equalize(
    r: np.ndarray, realization: ChannelRealization, params: FrameParams, sigma2: float
) -> np.ndarray:
    """s_hat = H_t^H (H_t H_t^H + sigma2 I)^{-1} r on the prefix-free received core r.

    H_t is the circular time-domain channel, so with exact channel knowledge
    the subcarrier-domain MMSE estimate of any receiver is daft(s_hat) under
    the transmit schedule: every DAFT is unitary, and the receiver's own
    transform cancels inside the solve.

    The Gram matrix is cyclically banded with half-width L = max_delay.
    Folding the index order (position 2k holds k, position 2k+1 holds
    n-1-k) turns it into an ordinary Hermitian band of half-width 2L, which
    a banded Cholesky factors in O(L^2 n).  When n <= 2L several cyclic
    offsets land on the same entry, so entries are accumulated.
    """
    n = params.n
    r = np.asarray(r, dtype=np.complex128)
    if r.shape != (n,):
        raise ContractViolation(f"received core must have shape ({n},), got {r.shape}")
    if sigma2 < 0:
        raise ContractViolation("noise variance must be nonnegative")
    taps = _tap_diagonals(realization, params).reshape(-1)
    plan = _band_plan(n, realization.max_delay)
    # lower band of the folded Gram matrix, entries summed in plan order
    vals = taps[plan.left] * np.conj(taps[plan.right])
    band = np.empty((plan.band_rows, n), dtype=np.complex128)
    band.real.flat = np.bincount(plan.target, vals.real, band.size)
    band.imag.flat = np.bincount(plan.target, vals.imag, band.size)
    band[0] += sigma2
    try:
        factor = cholesky_banded(band, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"MMSE Gram matrix is not positive definite: {exc}") from exc
    z = np.empty(n, dtype=np.complex128)
    z[plan.order] = cho_solve_banded((factor, True), r[plan.order], check_finite=False)
    # (H_t^H z)[k] = sum_l conj(taps[l, j]) * z[j] with j = (k + l) mod n
    return np.sum(np.conj(taps[plan.adjoint_taps]) * z[plan.adjoint_rows], axis=0)


class _BandPlan(NamedTuple):
    """Index tables of the banded solve; they depend only on (n, max_delay)."""

    order: np.ndarray  # folded position -> frame index
    band_rows: int
    left: np.ndarray  # flat tap index l*n + k of each kept Gram term
    right: np.ndarray  # flat tap index m*n + j of the same term
    target: np.ndarray  # flat lower-band index (a - b)*n + b it sums into
    adjoint_taps: np.ndarray  # flat tap index l*n + (k + l) mod n, shape (L + 1, n)
    adjoint_rows: np.ndarray  # (k + l) mod n, shape (L + 1, n)


@functools.lru_cache(maxsize=16)
def _band_plan(n: int, max_delay: int) -> _BandPlan:
    delays = np.arange(max_delay + 1)
    idx = np.arange(n)
    order = np.empty(n, dtype=np.intp)
    order[0::2] = idx[: (n + 1) // 2]
    order[1::2] = n - 1 - idx[: n // 2]
    pos = np.empty(n, dtype=np.intp)
    pos[order] = idx

    # G[k, j] += taps[l, k] * conj(taps[m, j]) with j = (k + m - l) mod n, for every delay pair (l, m)
    cols = (idx + delays[None, :, None] - delays[:, None, None]) % n
    left = np.broadcast_to(delays[:, None, None] * n + idx, cols.shape)
    right = delays[None, :, None] * n + cols
    # lower band storage of the folded Gram matrix: band[a - b, b] = G'[a, b] for a >= b
    a, b = pos, pos[cols]
    keep = a >= b
    rows = (idx[None, :] + delays[:, None]) % n
    plan = _BandPlan(
        order=order,
        band_rows=min(2 * max_delay, n - 1) + 1,
        left=left[keep],
        right=right[keep],
        target=((a - b) * n + b)[keep],
        adjoint_taps=delays[:, None] * n + rows,
        adjoint_rows=rows,
    )
    for table in plan:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return plan


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
