"""Discrete affine Fourier transform (DAFT) primitives.

The analysis transform of a length-n frame is A @ s with

    A = L(c2) @ F @ L(c1),      L(c)[k, k] = exp(-2j*pi*c*k**2),

where F is the unitary DFT, F[p, q] = exp(-2j*pi*p*q/n) / sqrt(n), and the
chirp rates c1 (time index squared) and c2 (subcarrier index squared) are
dimensionless cycles.  The synthesis direction is the conjugate transpose,

    s[k] = (1/sqrt(n)) * sum_m x[m] * exp(2j*pi*(c1*k**2 + c2*m**2 + m*k/n)),

applied here as three O(n) or O(n log n) stages rather than a dense matrix.
c2 may be a per-subcarrier vector, which is what the keystream-scrambled
waveform uses.  Its rates come from a few codebook levels, so they may be
given as LevelRates (levels and one level index per subcarrier), whose
chirps are gathered from a per-level table instead of exponentiated.

Frames are protected by a chirp-periodic prefix (CPP) instead of a plain
cyclic prefix: the copied tail samples carry the phase
exp(-2j*pi*c1*(n**2 + 2*n*k)) at prefix position k in [-ncp, -1], so that a
delayed copy of the frame remains circular with respect to the c1 chirp.
When 2*n*c1 is an integer and n is even, every prefix phase equals 1 and
the CPP degenerates to the familiar cyclic prefix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ContractViolation

__all__ = [
    "FrameParams",
    "SignalBlock",
    "LevelRates",
    "chirp_diag",
    "daft",
    "idaft",
    "prefix_phasors",
    "add_cpp",
    "remove_cpp",
]


@dataclass(frozen=True)
class FrameParams:
    """Frame geometry plus the fixed time-chirp rate.

    n           subcarrier count (also the core frame length in samples)
    ncp         prefix length in samples, 0 <= ncp <= n
    c1          time-domain chirp rate in cycles per sample-index squared
    modulation  symbol alphabet name, resolved by the waveform layer
    """

    n: int
    ncp: int
    c1: float
    modulation: str = "qpsk"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ContractViolation(f"frame needs an integer n >= 2, got {self.n!r}")
        if not isinstance(self.ncp, int) or not 0 <= self.ncp <= self.n:
            raise ContractViolation(f"prefix length must lie in [0, n], got {self.ncp!r}")
        if not np.isfinite(self.c1):
            raise ContractViolation("c1 must be finite")

    @classmethod
    def for_profile(cls, n: int, alpha_max: float, max_delay: int, modulation: str = "qpsk") -> "FrameParams":
        """Default tuning for a doubly selective link.

        c1 = (2*alpha_max + 1) / (2n) keeps paths with distinct integer
        Doppler shifts on distinct subcarrier couplings, and the prefix
        covers the longest delay.
        """
        return cls(n=n, ncp=int(max_delay), c1=(2.0 * alpha_max + 1.0) / (2.0 * n), modulation=modulation)


@dataclass(frozen=True, eq=False)
class SignalBlock:
    """Prefixed time-domain frames: prefix_len prefix samples, then the core.

    samples holds one frame, or one frame per row along leading axes.  Only
    the prefix stages produce or consume blocks; the transforms work on the
    bare length-n cores.  The type keeps the transmit and receive chains
    honest about stage ordering.
    """

    samples: np.ndarray
    prefix_len: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim < 1 or not 0 <= self.prefix_len < samples.shape[-1]:
            raise ContractViolation("prefix length inconsistent with sample count")

    @property
    def n(self) -> int:
        """Core frame length, excluding the prefix."""
        return self.samples.shape[-1] - self.prefix_len


def _core(s: np.ndarray, n: int, who: str) -> np.ndarray:
    """Bare length-n cores, one per row of any leading axes; a prefixed block is the wrong kind of frame."""
    if isinstance(s, SignalBlock):
        raise ContractViolation(f"{who} expects the prefix-free core; remove_cpp first")
    s = np.asarray(s, dtype=np.complex128)
    if s.shape[-1:] != (n,):
        raise ContractViolation(f"{who} expects cores of length n = {n}, got shape {s.shape}")
    return s


# Largest chirp table in entries, 16 bytes each: 4 MiB per (levels, n, sign).
# Levels and frames past it (n = m = 2**16 would take 64 GiB) exponentiate
# each row's chirps instead.
_LEVEL_TABLE_ENTRIES = 2**18
# Chirp tables kept, at most 128 MiB: a geometry reads its c1 rows and its
# codebook's tables, each for both signs, so this holds several geometries.
_LEVEL_TABLES = 32


class LevelRates(NamedTuple):
    """Per-index chirp rates picked from a few levels: the rates levels[index].

    levels is a vector of finite rates, such as a codebook's, and index holds
    one level index per rate, its last axis of length n.
    """

    levels: np.ndarray
    index: np.ndarray

    def reshape(self, *shape) -> "LevelRates":
        """The same rates with the index in another shape, as ndarray.reshape takes it."""
        return LevelRates(self.levels, self.index.reshape(*shape))


def chirp_diag(c, n: int, conjugate: bool = False) -> np.ndarray:
    """Diagonal entries of the chirp operator, exp(-2j*pi*c*k**2) for k < n.

    c is a scalar rate, an array of per-index rates whose last axis has
    length n (one rate vector per row), or LevelRates.  conjugate=True flips
    the sign of the exponent.  The quadratic argument is reduced mod 1 before
    exponentiation so large indices keep full phase precision.

    Rate arrays are exponentiated.  LevelRates gather each row from their
    levels' chirp table, and a scalar rate is row 0 of its one-level table,
    read-only and shared.  Either way the bytes are those of the rates
    exponentiated.
    """
    n, conjugate = int(n), bool(conjugate)
    if isinstance(c, LevelRates):
        levels = np.asarray(c.levels, dtype=np.float64)
        index = np.asarray(c.index)
        if levels.ndim != 1 or index.ndim < 1 or index.shape[-1] != n or index.dtype.kind not in "iu":
            raise ContractViolation(f"need a level vector and integer level indices of length n = {n} per row")
        table = _chirp_table(levels, n, conjugate)
        if table is None:
            return _chirp(levels[index], n, conjugate)
        return np.take(table, index.astype(np.intp, copy=False) * n + np.arange(n))
    if np.ndim(c) == 0:
        table = _chirp_table(np.array([float(c)]), n, conjugate)
        if table is not None:
            return table[0]
    return _chirp(c, n, conjugate)


def _chirp_table(levels: np.ndarray, n: int, conjugate: bool) -> np.ndarray | None:
    """Row k holds the chirp of levels[k]; None where the table would pass _LEVEL_TABLE_ENTRIES."""
    if levels.size * n > _LEVEL_TABLE_ENTRIES:
        return None
    # keyed by the level values: every config builds its own codebook object
    return _level_table(levels.tobytes(), n, conjugate)


@functools.lru_cache(maxsize=_LEVEL_TABLES)
def _level_table(levels: bytes, n: int, conjugate: bool) -> np.ndarray:
    rates = np.frombuffer(levels, dtype=np.float64)
    out = _chirp(np.repeat(rates[:, None], n, axis=1), n, conjugate)
    out.flags.writeable = False
    return out


def _chirp(c, n: int, conjugate: bool) -> np.ndarray:
    idx = np.arange(n, dtype=np.float64)
    rate = np.asarray(c, dtype=np.float64)
    if rate.ndim and rate.shape[-1] != n:
        raise ContractViolation(f"rate vector length {rate.shape[-1]} != n = {n}")
    if not np.all(np.isfinite(rate)):
        raise ContractViolation("chirp rate must be finite")
    sign = 1.0 if conjugate else -1.0
    return np.exp(sign * 2j * np.pi * np.mod(rate * idx * idx, 1.0))


def daft(s: np.ndarray, params: FrameParams, c2) -> np.ndarray:
    """Analysis transform: subcarrier symbols L(c2) F L(c1) s of the core s.

    s may carry leading axes, one core per row, transformed over the last
    axis.  c2 may be a scalar, a per-subcarrier vector of rates, or one rate
    vector per row of s, each given as rates or as LevelRates.  idaft takes
    x and c2 of the same shapes.
    """
    s = _core(s, params.n, "daft")
    y = np.fft.fft(chirp_diag(params.c1, params.n) * s, norm="ortho")
    return chirp_diag(c2, params.n) * y


def idaft(x: np.ndarray, params: FrameParams, c2) -> np.ndarray:
    """Synthesis transform: the length-n core L(c1)^H F^H L(c2)^H x."""
    x = _core(x, params.n, "idaft")
    s = np.fft.ifft(chirp_diag(c2, params.n, conjugate=True) * x, norm="ortho")
    return chirp_diag(params.c1, params.n, conjugate=True) * s


@functools.lru_cache(maxsize=32)
def prefix_phasors(n: int, ncp: int, c1: float) -> np.ndarray:
    """exp(-2j*pi*c1*(n**2 + 2*n*k)) at prefix positions k in [-ncp, -1], read-only and built once."""
    k = np.arange(-ncp, 0, dtype=np.float64)
    out = np.exp(-2j * np.pi * np.mod(c1 * (n * float(n) + 2.0 * n * k), 1.0))
    out.flags.writeable = False
    return out


def add_cpp(s: np.ndarray, params: FrameParams) -> SignalBlock:
    """Prepend the chirp-periodic prefix to the length-n core s (to each row of a stack).

    Prefix position k in [-ncp, -1] holds s[k + n] times its prefix phasor.
    """
    s = _core(s, params.n, "add_cpp")
    # phasors get the frames' axes: NumPy multiplies a (1, 1) stack by a (1,)
    # vector without FMA, so a stack of one would round unlike a lone frame
    phasors = prefix_phasors(params.n, params.ncp, params.c1).reshape((1,) * (s.ndim - 1) + (-1,))
    prefix = s[..., params.n - params.ncp :] * phasors
    return SignalBlock(np.concatenate([prefix, s], axis=-1), prefix_len=params.ncp)


def remove_cpp(block: SignalBlock, params: FrameParams) -> np.ndarray:
    """Drop the prefix, returning the length-n core of each frame."""
    if not isinstance(block, SignalBlock):
        raise ContractViolation("remove_cpp expects a prefixed block")
    if block.prefix_len != params.ncp or block.n != params.n:
        raise ContractViolation(
            f"block geometry ({block.n}, ncp={block.prefix_len}) does not match params "
            f"({params.n}, ncp={params.ncp})"
        )
    return block.samples[..., block.prefix_len :].copy()
