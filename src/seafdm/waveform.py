"""Transmit and receive chains of the scrambled-chirp waveform.

The transmitter synthesizes the frame with an inverse DAFT whose
subcarrier-domain chirp rate varies per subcarrier according to the
keystream schedule, then attaches the chirp-periodic prefix.  A receiver
holding the same schedule applies the matching analysis transform and sees
an ordinary AFDM link.  A receiver without it sees every symbol multiplied
by the unknown unit phasor exp(2j*pi*c2[q]*q**2), which is the entire
security mechanism: magnitudes, spectra, and noise statistics are
untouched.

Hard decisions live next to their alphabet: each Constellation builds its
per-axis decision tables once, and demap reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .daft import FrameParams, SignalBlock, add_cpp, chirp_diag, daft, idaft, remove_cpp
from .exceptions import ContractViolation
from .keystream import C2Schedule

__all__ = [
    "Constellation",
    "qpsk",
    "qam16",
    "constellation_by_name",
    "map_bits",
    "demap",
    "count_errors",
    "descramble",
    "se_afdm_modulate",
    "bob_front_end",
    "eve_front_end",
]


class _AxisSlicer(NamedTuple):
    """Per-axis hard-decision tables of a product-grid alphabet.

    A coordinate's level index is the number of cuts below it.  Each cut is
    the midpoint between two adjacent levels, or the float just below it
    where the upper level carries the lower labels, so a coordinate on a
    midpoint takes the lower label, as a first-index argmin does on a tie.
    """

    re_cuts: np.ndarray
    im_cuts: np.ndarray
    bits: np.ndarray  # row i * (len(im_cuts) + 1) + q: label bits, MSB first, of the point (re level i, im level q)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-energy alphabet indexed by the integer value of its Gray label.

    The points must form a product grid, every real level paired once with
    every imaginary level, whose labels break each midpoint tie the same
    way along the other axis; demap then decides each axis on its own.
    points is stored as a read-only copy, so its decision tables, built
    here once, stay valid.
    """

    name: str
    points: np.ndarray
    bits_per_symbol: int

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=np.complex128)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if points.shape != (1 << self.bits_per_symbol,) or not np.isfinite(points).all():
            raise ContractViolation(f"{self.name}: need 2**bits_per_symbol finite points, got shape {points.shape}")
        re_levels, re_idx = np.unique(points.real, return_inverse=True)
        im_levels, im_idx = np.unique(points.imag, return_inverse=True)
        labels = np.full((re_levels.size, im_levels.size), -1)
        labels[re_idx, im_idx] = np.arange(points.size)
        if (labels < 0).any() or labels.size != points.size:
            raise ContractViolation(f"{self.name}: points do not form a product grid of real and imaginary levels")
        cuts = []
        for levels, table in ((re_levels, labels), (im_levels, labels.T)):
            up = table[1:] < table[:-1]  # the upper level of a midpoint carries the lower label
            if (up.any(axis=1) != up.all(axis=1)).any():
                raise ContractViolation(f"{self.name}: a midpoint tie breaks differently along the other axis")
            mid = (levels[:-1] + levels[1:]) / 2.0
            cuts.append(np.where(up[:, 0], np.nextafter(mid, -np.inf), mid))
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        slicer = _AxisSlicer(*cuts, ((labels.reshape(-1, 1) >> shifts) & 1).astype(np.uint8))
        for table in slicer:
            table.flags.writeable = False
        object.__setattr__(self, "_slicer", slicer)


def qpsk() -> Constellation:
    """Gray QPSK:  00 -> (1+1j)/sqrt(2), 01 -> (-1+1j)/sqrt(2),
    11 -> (-1-1j)/sqrt(2), 10 -> (1-1j)/sqrt(2)."""
    points = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
    return Constellation("qpsk", points, 2)


def qam16() -> Constellation:
    """Square 16-QAM, Gray per axis, first bit pair on I and second on Q."""
    # per-axis Gray labels: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
    axis = np.array([-3.0, -1.0, 3.0, 1.0])
    idx = np.arange(16)
    points = (axis[idx >> 2] + 1j * axis[idx & 3]) / np.sqrt(10.0)
    return Constellation("qam16", points, 4)


_FACTORIES = {"qpsk": qpsk, "qam16": qam16}


def constellation_by_name(name: str) -> Constellation:
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ContractViolation(f"unknown modulation {name!r}; known: {sorted(_FACTORIES)}") from None


def map_bits(bits, spec: Constellation) -> np.ndarray:
    """Map a flat 0/1 vector onto symbols, MSB first within each label."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ContractViolation("bit vector must be one-dimensional")
    if bits.size % spec.bits_per_symbol:
        raise ContractViolation(
            f"bit count {bits.size} is not a multiple of {spec.bits_per_symbol}"
        )
    if not ((bits == 0) | (bits == 1)).all():
        raise ContractViolation("bits must be 0 or 1")
    groups = bits.reshape(-1, spec.bits_per_symbol).astype(np.int64)
    weights = 1 << np.arange(spec.bits_per_symbol - 1, -1, -1)
    return spec.points[groups @ weights]


def demap(x_hat: np.ndarray, spec: Constellation) -> np.ndarray:
    """Nearest-point hard decision back to bits, MSB first per symbol.

    The alphabet is a product grid, so the nearest point is the nearest
    level on each axis: each coordinate is compared with the midpoints
    between levels, and a coordinate exactly on a midpoint takes the lower
    of the two labels.  This is the first-index argmin over the distances
    to every point, except within a few ulp of a midpoint, where those
    rounded distances can tie or order the two points the other way.
    Leading axes of x_hat are kept: each row of symbols becomes a row of bits.
    """
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    slicer = spec._slicer
    point = np.searchsorted(slicer.re_cuts, x_hat.real) * (slicer.im_cuts.size + 1)
    point += np.searchsorted(slicer.im_cuts, x_hat.imag)
    return np.take(slicer.bits, point, axis=0).reshape(*x_hat.shape[:-1], -1)


def count_errors(sent: np.ndarray, received: np.ndarray) -> int | np.ndarray:
    """Differing bits of two bit vectors, or per row of two equal-shape stacks."""
    sent = np.asarray(sent)
    received = np.asarray(received)
    if sent.shape != received.shape:
        raise ContractViolation("bit vectors must have equal length")
    if sent.ndim < 2:
        return int(np.count_nonzero(sent != received))
    return np.count_nonzero(sent != received, axis=-1)


def descramble(x_hat: np.ndarray, guess: C2Schedule) -> np.ndarray:
    """Strip a (possibly wrong) schedule's phasors from a symbol estimate.

    The schedule imprints the unit phasor exp(2j*pi*c2[q]*q**2) on symbol q.
    With the exact transmit schedule this inverts the scrambling; with a
    guess it leaves the residual phasor exp(2j*pi*(c2_true - c2_guess)*q**2).
    """
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    if x_hat.shape != guess.values.shape:
        raise ContractViolation("estimate and schedule lengths differ")
    return x_hat * np.conj(chirp_diag(guess.values, len(guess), conjugate=True))


def _check_schedule(sched: C2Schedule, owner: str, params: FrameParams, who: str) -> None:
    if sched.owner != owner:
        raise ContractViolation(f"{who} needs a schedule owned by {owner!r}, got {sched.owner!r}")
    if len(sched) != params.n:
        raise ContractViolation(f"schedule length {len(sched)} != n = {params.n}")


def se_afdm_modulate(x: np.ndarray, params: FrameParams, sched: C2Schedule) -> SignalBlock:
    """Transmit chain: schedule-varied inverse DAFT plus chirp-periodic prefix.

    x is one symbol frame, shape (n,), or F frames, shape (F, n), and the
    schedule's values have x's shape: one frame's rates, or a stack of F.
    The prefix-free part of each output frame keeps its symbol energy
    exactly (the transform is unitary for any schedule).
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_schedule(sched, "alice", params, "se_afdm_modulate")
    if sched.values.shape != x.shape:
        raise ContractViolation(f"a schedule of shape {sched.values.shape} does not fit frames of shape {x.shape}")
    return add_cpp(idaft(x, params, sched.chirp_rates), params)


def bob_front_end(r: SignalBlock, params: FrameParams, sched: C2Schedule) -> np.ndarray:
    """Synchronized receiver: strip the prefix, apply the matching analysis DAFT."""
    _check_schedule(sched, "bob", params, "bob_front_end")
    return daft(remove_cpp(r, params), params, sched.values)


def eve_front_end(r: SignalBlock, params: FrameParams, sched: C2Schedule) -> np.ndarray:
    """Eavesdropper front end: identical math, but with her own schedule guess.

    Whatever she applies here is known to her and folded into her channel
    matrix, so the guess itself carries no information loss; the loss is in
    the descrambling step afterwards.
    """
    _check_schedule(sched, "eve", params, "eve_front_end")
    return daft(remove_cpp(r, params), params, sched.values)
