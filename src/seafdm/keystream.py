"""Keystream expansion for the per-subcarrier chirp schedule.

Both ends of the link share a short seed and expand it with the same
Fibonacci LFSR into the bit stream that selects each subcarrier's
subcarrier-domain chirp rate from a small quantized codebook.  The
register is a stand-in for whatever stream cipher a deployment would
use; the simulator needs determinism, balance, and a documented
polynomial, nothing more.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation

__all__ = [
    "DEFAULT_TAPS",
    "Lfsr",
    "Codebook",
    "build_codebook",
    "C2Schedule",
    "zero_schedule",
    "generate_schedule",
    "schedule_rates",
]

# Primitive characteristic polynomial x^32 + x^22 + x^2 + x + 1, written as
# its exponent set.  Small primitive alternatives for tests: (3, 1, 0),
# (4, 1, 0), (5, 2, 0).
DEFAULT_TAPS = (32, 22, 2, 1, 0)

SCHEDULE_OWNERS = ("alice", "bob", "eve")


@functools.lru_cache(maxsize=16)
def _polynomial(taps: tuple) -> tuple[tuple[int, ...], int]:
    """Exponents, highest first, and feedback mask of a tap list; each distinct list is checked once."""
    taps = tuple(sorted({int(t) for t in taps}, reverse=True))
    if len(taps) < 2 or taps[-1] != 0:
        raise ContractViolation("taps must include the constant term 0 and the degree")
    if not 2 <= taps[0] <= 64:
        raise ContractViolation(f"supported register degrees are 2..64, got {taps[0]}")
    mask = 0
    for t in taps[1:]:
        mask |= 1 << t
    return taps, mask


class Lfsr:
    """Fibonacci linear feedback shift register over GF(2).

    ``taps`` lists the exponents of the characteristic polynomial, including
    the leading degree and the constant term: x^3 + x + 1 is ``(3, 1, 0)``.
    Each step emits the register's least significant bit and shifts in the
    parity of the bits selected by the non-leading coefficients.  With a
    primitive polynomial the state walks all 2**degree - 1 nonzero values
    before repeating.
    """

    def __init__(self, taps=DEFAULT_TAPS, seed: int = 1):
        self.taps, self._feedback_mask = _polynomial(tuple(taps))
        self.degree = degree = self.taps[0]
        seed = int(seed)
        if not 1 <= seed < (1 << degree):
            raise ContractViolation(f"seed must be a nonzero {degree}-bit state, got {seed}")
        self.state = seed

    def step(self) -> int:
        """Advance one tick; returns the emitted bit."""
        out = self.state & 1
        feedback = (self.state & self._feedback_mask).bit_count() & 1
        self.state = (self.state >> 1) | (feedback << (self.degree - 1))
        return out

    def next_bits(self, count: int) -> np.ndarray:
        """The next ``count`` output bits as a uint8 vector; same as ``count`` steps.

        The output obeys o[k + d] = XOR over t in taps[1:] of o[k + t], and
        because squaring over GF(2) is linear, p(x)**s = p(x**s) for s a power
        of two, so o[k + d*s] = XOR of o[k + t*s] as well.  The stream is held
        as one Python int (bit i is o[i], starting from the register state)
        and each round appends (d - max tap) * s bits with one shift and XOR
        per tap, doubling s as the known stream grows.
        """
        if count < 0:
            raise ContractViolation("bit count must be nonnegative")
        d = self.degree
        taps = self.taps[1:]
        block = d - taps[0]
        stream, known, s = self.state, d, 1
        while known < count + d:
            while d * 2 * s <= known:
                s *= 2
            start = known - d * s
            chunk = 0
            for t in taps:
                chunk ^= stream >> (start + t * s)
            stream |= (chunk & ((1 << (block * s)) - 1)) << known
            known += block * s
        self.state = (stream >> count) & ((1 << d) - 1)
        raw = (stream & ((1 << count) - 1)).to_bytes((count + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count, bitorder="little")


@dataclass(frozen=True)
class Codebook:
    """Quantized symmetric grid of subcarrier-domain chirp rates."""

    c2max: float
    m: int
    levels: np.ndarray

    @property
    def bits_per_subcarrier(self) -> int:
        return self.m.bit_length() - 1


def build_codebook(c2max: float, m: int) -> Codebook:
    """Uniform m-level codebook on [-c2max, c2max].

    level[k] = -c2max + k * 2*c2max/(m - 1); m must be a power of two >= 2 so
    each subcarrier consumes an exact number of keystream bits.  c2max = 0
    degenerates every level to zero (scrambling disabled).
    """
    if not isinstance(m, int) or m < 2 or (m & (m - 1)) != 0:
        raise ContractViolation(f"codebook size must be a power of two >= 2, got {m!r}")
    if not np.isfinite(c2max) or c2max < 0:
        raise ContractViolation(f"c2max must be a finite nonnegative rate, got {c2max!r}")
    grid = -c2max + np.arange(m, dtype=np.float64) * (2.0 * c2max / (m - 1))
    # antisymmetrize and pin the endpoints so the +/- pairing is bit-exact
    levels = 0.5 * (grid - grid[::-1])
    levels[0] = -c2max
    levels[-1] = c2max
    return Codebook(c2max=float(c2max), m=m, levels=levels)


@dataclass(frozen=True)
class C2Schedule:
    """Per-subcarrier chirp rates plus the end that holds them.

    values is one frame's rates, shape (n,), or a stack of F frames' rates,
    shape (F, n), held by one end; the length is n either way.
    """

    values: np.ndarray
    owner: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2) or not np.all(np.isfinite(values)):
            raise ContractViolation("schedule values must be a finite vector, or a stack of them")
        if self.owner not in SCHEDULE_OWNERS:
            raise ContractViolation(f"schedule owner must be one of {SCHEDULE_OWNERS}, got {self.owner!r}")

    def __len__(self) -> int:
        return self.values.shape[-1]


def zero_schedule(n: int, owner: str) -> C2Schedule:
    """All-zero schedule: plain AFDM behavior, or an eavesdropper guessing nothing."""
    return C2Schedule(np.zeros(n, dtype=np.float64), owner)


def generate_schedule(state: Lfsr, book: Codebook, n: int, owner: str = "alice") -> C2Schedule:
    """Draw the next frame's schedule from the keystream.

    Consumes exactly n * log2(m) bits, MSB-first per subcarrier, and maps each
    index straight into the codebook.  Successive calls on the same register
    continue the stream, which is how consecutive frames stay synchronized.
    """
    if n < 1:
        raise ContractViolation("schedule length must be positive")
    return C2Schedule(schedule_rates(state.next_bits(n * book.bits_per_subcarrier), book), owner)


def schedule_rates(bits: np.ndarray, book: Codebook) -> np.ndarray:
    """Codebook level of each subcarrier from its log2(m) keystream bits, MSB first.

    bits has shape (..., n * log2(m)), one frame's keystream per row of any
    leading axes, and the rates have shape (..., n).
    """
    k = book.bits_per_subcarrier
    bits = np.asarray(bits)
    if bits.ndim < 1 or bits.shape[-1] % k:
        raise ContractViolation(f"keystream rows of shape {bits.shape} do not split into {k}-bit levels")
    weights = 1 << np.arange(k - 1, -1, -1)
    return book.levels[bits.reshape(*bits.shape[:-1], -1, k).astype(np.int64) @ weights]
