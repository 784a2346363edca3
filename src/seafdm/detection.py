"""Linear MMSE symbol detection and hard demapping."""

from __future__ import annotations

import functools
from collections.abc import Sequence
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


# Frame samples per stacked banded solve.  Its temporaries take about half a
# kilobyte per sample with three paths.  Larger stacks measured hundreds of
# page faults per call, as freed temporaries went back to the system, and ran
# slower than separate solves.
_STACK_SAMPLES = 1024


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
    if not sigma2 >= 0:
        raise ContractViolation(f"noise variance must be a nonnegative number, got {sigma2}")
    gram = h @ h.conj().T
    gram[np.diag_indices_from(gram)] += sigma2
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"MMSE Gram matrix is not positive definite: {exc}") from exc
    return h.conj().T @ cho_solve(factor, y, check_finite=False)


def banded_mmse_equalize(
    r: np.ndarray,
    realizations: Sequence[ChannelRealization],
    params: FrameParams,
    sigma2: float,
) -> np.ndarray:
    """s_hat = H_t^H (H_t H_t^H + sigma2 I)^{-1} r on prefix-free received cores r.

    H_t is the circular time-domain channel, so with exact channel knowledge
    the subcarrier-domain MMSE estimate of any receiver is daft(s_hat) under
    the transmit schedule: every DAFT is unitary, and the receiver's own
    transform cancels inside the solve.

    The Gram matrix is cyclically banded with half-width L = max_delay.
    Folding the index order (position 2k holds k, position 2k+1 holds
    n-1-k) turns it into an ordinary Hermitian band of half-width 2L, which
    a banded Cholesky factors in O(L^2 n).  When n <= 2L several cyclic
    offsets land on the same entry, so entries are accumulated.

    realizations holds S channels of one delay profile and r has shape
    (S, k, n), k right-hand sides per system; the result has the shape of r.
    Every system is solved at once: their folded bands sit side by side in
    one band whose entries across a seam are zero, so each system's
    solution is, bit for bit, the one it gets alone.  Long stacks are
    solved in runs of at most _STACK_SAMPLES // n systems.
    """
    n = params.n
    systems = tuple(realizations)
    r = np.asarray(r, dtype=np.complex128)
    if not systems or r.ndim != 3 or r.shape[0] != len(systems) or r.shape[2] != n:
        raise ContractViolation(f"received cores must have shape ({len(systems)}, k, {n}), got {r.shape}")
    if not sigma2 >= 0:
        raise ContractViolation(f"noise variance must be a nonnegative number, got {sigma2}")
    taps = _tap_diagonals(systems, params)
    step = max(1, _STACK_SAMPLES // n)
    return np.concatenate([_banded_solve(r[i : i + step], taps[i : i + step], sigma2) for i in range(0, len(systems), step)])


def _banded_solve(r: np.ndarray, taps: np.ndarray, sigma2: float) -> np.ndarray:
    """The stacked solve of banded_mmse_equalize on the tap diagonals of each system."""
    count, rows, n = taps.shape
    plan = _band_plan(n, rows - 1, count)
    taps = taps.reshape(count, -1)
    # lower band of each folded Gram matrix, entries summed in plan order;
    # np.take gathers along one axis row by row, which beats fancy indexing
    # on a trailing axis when there are few systems
    vals = np.take(taps, plan.left, axis=1) * np.conj(np.take(taps, plan.right, axis=1))
    cols = count * n + plan.band_rows - 1
    band = np.empty((plan.band_rows, cols), dtype=np.complex128)
    band.real.flat = np.bincount(plan.target, vals.real.ravel(), band.size)
    band.imag.flat = np.bincount(plan.target, vals.imag.ravel(), band.size)
    band[0] += sigma2
    band[0, count * n :] = 1.0
    try:
        factor = cholesky_banded(band, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"MMSE Gram matrix is not positive definite: {exc}") from exc
    rhs = np.take(r, plan.order, axis=2)
    folded = np.zeros((cols, rhs.shape[1]), dtype=np.complex128)
    folded[: count * n] = rhs.transpose(0, 2, 1).reshape(count * n, -1)
    z = cho_solve_banded((factor, True), folded, check_finite=False)[: count * n].reshape(count, n, -1)
    # (H_t^H z)[k] = sum_l conj(taps[l, j]) * z[j] with j = (k + l) mod n, read from its folded position
    adjoint = np.conj(np.take(taps, plan.adjoint_taps, axis=1))[..., None] * np.take(z, plan.adjoint_rows, axis=1)
    return np.sum(adjoint, axis=1).transpose(0, 2, 1)


class _BandPlan(NamedTuple):
    """Index tables of the banded solve; they depend only on (n, max_delay, systems).

    The band of S stacked systems has S*n + band_rows - 1 columns: entry
    (d, b) of system s sits at column s*n + b, and an identity block as wide
    as the band follows the last system, so the triangular solves run the
    same kernel lengths on every system's tail whether another system
    follows it or not.
    """

    order: np.ndarray  # folded position -> frame index
    band_rows: int
    left: np.ndarray  # flat tap index l*n + k of each kept Gram term
    right: np.ndarray  # flat tap index m*n + j of the same term
    target: np.ndarray  # flat stacked-band index of each system's terms, shape (S * terms,)
    adjoint_taps: np.ndarray  # flat tap index l*n + (k + l) mod n, shape (L + 1, n)
    adjoint_rows: np.ndarray  # folded position of (k + l) mod n, shape (L + 1, n)


@functools.lru_cache(maxsize=32)
def _band_plan(n: int, max_delay: int, systems: int = 1) -> _BandPlan:
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
    band_rows = min(2 * max_delay, n - 1) + 1
    width = systems * n + band_rows - 1
    plan = _BandPlan(
        order=order,
        band_rows=band_rows,
        left=left[keep],
        right=right[keep],
        target=(((a - b) * width + b)[keep] + (np.arange(systems) * n)[:, None]).reshape(-1),
        adjoint_taps=delays[:, None] * n + rows,
        adjoint_rows=pos[rows],
    )
    for table in plan:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return plan


def demap(x_hat: np.ndarray, spec: Constellation) -> np.ndarray:
    """Nearest-point hard decision back to bits, MSB first per symbol.

    Leading axes of x_hat are kept: each row of symbols becomes a row of bits.
    """
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    dist = np.abs(x_hat[..., None] - spec.points)
    labels = np.argmin(dist, axis=-1)
    k = spec.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1
    return bits.reshape(*labels.shape[:-1], -1).astype(np.uint8)


def count_errors(sent: np.ndarray, received: np.ndarray) -> int | np.ndarray:
    """Differing bits of two bit vectors, or per row of two equal-shape stacks."""
    sent = np.asarray(sent)
    received = np.asarray(received)
    if sent.shape != received.shape:
        raise ContractViolation("bit vectors must have equal length")
    if sent.ndim < 2:
        return int(np.count_nonzero(sent != received))
    return np.count_nonzero(sent != received, axis=-1)
