"""Discrete affine Fourier transform (DAFT) primitives.

The analysis transform of a length-n frame is A @ s with

    A = L(c2) @ F @ L(c1),      L(c)[k, k] = exp(-2j*pi*c*k**2),

where F is the unitary DFT, F[p, q] = exp(-2j*pi*p*q/n) / sqrt(n), and the
chirp rates c1 (time index squared) and c2 (subcarrier index squared) are
dimensionless cycles.  The synthesis direction is the conjugate transpose,

    s[k] = (1/sqrt(n)) * sum_m x[m] * exp(2j*pi*(c1*k**2 + c2*m**2 + m*k/n)),

applied here as three O(n) or O(n log n) stages rather than a dense matrix.
c2 may be a per-subcarrier vector, which is what the keystream-scrambled
waveform uses.

Frames are protected by a chirp-periodic prefix (CPP) instead of a plain
cyclic prefix: the copied tail samples carry the phase
exp(-2j*pi*c1*(n**2 + 2*n*k)) at prefix position k in [-ncp, -1], so that a
delayed copy of the frame remains circular with respect to the c1 chirp.
When 2*n*c1 is an integer and n is even, every prefix phase equals 1 and
the CPP degenerates to the familiar cyclic prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation

__all__ = [
    "FrameParams",
    "SignalBlock",
    "chirp_diag",
    "daft",
    "idaft",
    "add_cpp",
    "remove_cpp",
    "daft_matrix",
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


@dataclass(frozen=True)
class SignalBlock:
    """A prefixed time-domain frame: prefix_len prefix samples, then the core.

    Only the prefix stages produce or consume blocks; the transforms work on
    the bare length-n core vector.  The type keeps the transmit and receive
    chains honest about stage ordering.
    """

    samples: np.ndarray
    prefix_len: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ContractViolation("a signal block is one-dimensional")
        if not 0 <= self.prefix_len < len(samples):
            raise ContractViolation("prefix length inconsistent with sample count")

    @property
    def n(self) -> int:
        """Core frame length, excluding the prefix."""
        return len(self.samples) - self.prefix_len


def _core(s: np.ndarray, n: int, who: str) -> np.ndarray:
    """The bare length-n core vector; a prefixed block is the wrong kind of frame."""
    if isinstance(s, SignalBlock):
        raise ContractViolation(f"{who} expects the prefix-free core; remove_cpp first")
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (n,):
        raise ContractViolation(f"{who} expects a vector of length n = {n}, got shape {s.shape}")
    return s


def chirp_diag(c, n: int, conjugate: bool = False) -> np.ndarray:
    """Diagonal entries of the chirp operator, exp(-2j*pi*c*k**2) for k < n.

    c is a scalar rate or a length-n vector of per-index rates.  conjugate=True
    flips the sign of the exponent.  The quadratic argument is reduced mod 1
    before exponentiation so large indices keep full phase precision.
    """
    idx = np.arange(n, dtype=np.float64)
    rate = np.asarray(c, dtype=np.float64)
    if rate.ndim not in (0, 1):
        raise ContractViolation("chirp rate must be a scalar or a vector")
    if rate.ndim == 1 and rate.shape[0] != n:
        raise ContractViolation(f"rate vector length {rate.shape[0]} != n = {n}")
    if not np.all(np.isfinite(rate)):
        raise ContractViolation("chirp rate must be finite")
    frac = np.mod(rate * idx * idx, 1.0)
    sign = 1.0 if conjugate else -1.0
    return np.exp(sign * 2j * np.pi * frac)


def daft(s: np.ndarray, params: FrameParams, c2) -> np.ndarray:
    """Analysis transform: subcarrier symbols L(c2) F L(c1) s of the core s.

    c2 may be a scalar or a per-subcarrier vector of rates.
    """
    s = _core(s, params.n, "daft")
    y = np.fft.fft(chirp_diag(params.c1, params.n) * s, norm="ortho")
    return chirp_diag(c2, params.n) * y


def idaft(x: np.ndarray, params: FrameParams, c2) -> np.ndarray:
    """Synthesis transform: the length-n core L(c1)^H F^H L(c2)^H x."""
    x = _core(x, params.n, "idaft")
    s = np.fft.ifft(chirp_diag(c2, params.n, conjugate=True) * x, norm="ortho")
    return chirp_diag(params.c1, params.n, conjugate=True) * s


def daft_matrix(n: int, c1: float, c2) -> np.ndarray:
    """Dense analysis matrix L(c2) F L(c1); c2 scalar or per-subcarrier."""
    f = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    return chirp_diag(c2, n)[:, None] * f * chirp_diag(c1, n)[None, :]


def add_cpp(s: np.ndarray, params: FrameParams) -> SignalBlock:
    """Prepend the chirp-periodic prefix to the length-n core s.

    Prefix position k in [-ncp, -1] holds s[k + n] * exp(-2j*pi*c1*(n**2 + 2*n*k)).
    """
    s = _core(s, params.n, "add_cpp")
    if params.ncp == 0:
        return SignalBlock(s.copy(), prefix_len=0)
    k = np.arange(-params.ncp, 0, dtype=np.float64)
    frac = np.mod(params.c1 * (params.n * float(params.n) + 2.0 * params.n * k), 1.0)
    prefix = s[params.n - params.ncp:] * np.exp(-2j * np.pi * frac)
    return SignalBlock(np.concatenate([prefix, s]), prefix_len=params.ncp)


def remove_cpp(block: SignalBlock, params: FrameParams) -> np.ndarray:
    """Drop the prefix, returning the length-n core vector."""
    if not isinstance(block, SignalBlock):
        raise ContractViolation("remove_cpp expects a prefixed block")
    if block.prefix_len != params.ncp or block.n != params.n:
        raise ContractViolation(
            f"block geometry ({block.n}, ncp={block.prefix_len}) does not match params "
            f"({params.n}, ncp={params.ncp})"
        )
    return block.samples[block.prefix_len:].copy()
