"""Keystream expansion for the per-subcarrier chirp schedule.

Both ends of the link share a short seed and expand it with the same
Fibonacci LFSR into the bit stream that selects each subcarrier's
subcarrier-domain chirp rate from a small quantized codebook.  The
register is a stand-in for whatever stream cipher a deployment would
use; the simulator needs determinism, balance, and a documented
polynomial, nothing more.

The register's output is linear over GF(2) in its state: output bit j of
the register started in state s is the parity of s & mask[j], where the
masks depend only on the taps (keystream_bits).  So any register_degree
correct output bits at independent positions give the state, and with it
every later bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .daft import LevelRates
from .exceptions import ContractViolation

__all__ = [
    "DEFAULT_TAPS",
    "Lfsr",
    "tap_polynomial",
    "keystream_bits",
    "Codebook",
    "build_codebook",
    "C2Schedule",
    "zero_schedule",
    "generate_schedule",
    "schedule_levels",
]

# Primitive characteristic polynomial x^32 + x^22 + x^2 + x + 1, written as
# its exponent set.  Small primitive alternatives for tests: (3, 1, 0),
# (4, 1, 0), (5, 2, 0).
DEFAULT_TAPS = (32, 22, 2, 1, 0)

SCHEDULE_OWNERS = ("alice", "bob", "eve")


@functools.lru_cache(maxsize=16)
def tap_polynomial(taps: tuple) -> tuple[int, ...]:
    """Exponents of a tap list, highest first; each distinct list is checked once."""
    taps = tuple(sorted({int(t) for t in taps}, reverse=True))
    if len(taps) < 2 or taps[-1] != 0:
        raise ContractViolation("taps must include the constant term 0 and the degree")
    if not 2 <= taps[0] <= 64:
        raise ContractViolation(f"supported register degrees are 2..64, got {taps[0]}")
    return taps


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
        self.taps = tap_polynomial(tuple(taps))
        self.degree = degree = self.taps[0]
        seed = int(seed)
        if not 1 <= seed < (1 << degree):
            raise ContractViolation(f"seed must be a nonzero {degree}-bit state, got {seed}")
        self.state = seed

    def next_bits(self, count: int) -> np.ndarray:
        """The next ``count`` output bits as a uint8 vector; same as ``count`` steps.

        Bits count..count+d-1 of the stream from the current state are the
        register's state after ``count`` steps, least significant first.
        """
        if count < 0:
            raise ContractViolation("bit count must be nonnegative")
        stream = keystream_bits(self.state, self.taps, count + self.degree)
        self.state = int.from_bytes(np.packbits(stream[count:], bitorder="little").tobytes(), "little")
        return stream[:count]


@functools.lru_cache(maxsize=16)
def _output_masks(taps: tuple, count: int) -> np.ndarray:
    """Read-only uint64 masks 0..count-1: output bit j of state s is the parity of s & masks[j].

    Mask i < d is the state bit 1 << i, and the masks obey the output
    recurrence m[k + d] = XOR over t in taps[1:] of m[k + t].  A run reads
    one count per tap set, so each (taps, count) is built once and cached,
    like the other geometry tables.  Squaring over GF(2) is linear, so
    p(x)**s = p(x**s) for s a power of two and m[k + d*s] = XOR over t of
    m[k + t*s] as well; each round fills (d - max tap) * s entries with one
    XOR per tap, doubling s as the known table grows.
    """
    d, rest = taps[0], taps[1:]
    out = np.empty(count, dtype=np.uint64)
    known, s = min(d, count), 1
    out[:known] = np.left_shift(np.uint64(1), np.arange(known, dtype=np.uint64))
    while known < count:
        while d * 2 * s <= known:
            s *= 2
        stop = min(known + (d - rest[0]) * s, count)
        acc = np.zeros(stop - known, dtype=np.uint64)
        for t in rest:
            acc ^= out[known - (d - t) * s : stop - (d - t) * s]
        out[known:stop] = acc
        known = stop
    out.flags.writeable = False
    return out


def keystream_bits(states, taps, count: int) -> np.ndarray:
    """The first ``count`` output bits of the register started in each state, shape (..., count) uint8.

    states holds register states of any shape (each below 2**degree), and
    bit j of row s is the parity of s & mask[j], from the read-only masks
    cached for (taps, count) (_output_masks): the bits
    Lfsr(taps, s).next_bits(count) gives, for every state at once.
    """
    if count < 0:
        raise ContractViolation("bit count must be nonnegative")
    masks = _output_masks(tap_polynomial(tuple(taps)), count)
    states = np.asarray(states, dtype=np.uint64)
    return (np.bitwise_count(states[..., None] & masks) & 1).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Quantized symmetric grid of subcarrier-domain chirp rates; levels is read-only."""

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
    degenerates every level to zero (scrambling disabled).  A chirp rate acts
    modulo 1 (rates c and c + 1 give one chirp), so c2max is at most 1.
    """
    if not isinstance(m, int) or m < 2 or (m & (m - 1)) != 0:
        raise ContractViolation(f"codebook size must be a power of two >= 2, got {m!r}")
    if not 0.0 <= c2max <= 1.0:
        raise ContractViolation(f"c2max must be a rate in [0, 1], got {c2max!r}")
    grid = -c2max + np.arange(m, dtype=np.float64) * (2.0 * c2max / (m - 1))
    # antisymmetrize and pin the endpoints so the +/- pairing is bit-exact
    levels = 0.5 * (grid - grid[::-1])
    levels[0] = -c2max
    levels[-1] = c2max
    levels.flags.writeable = False
    return Codebook(c2max=float(c2max), m=m, levels=levels)


@dataclass(frozen=True, eq=False)
class C2Schedule:
    """Per-subcarrier chirp rates plus the end that holds them.

    values is one frame's rates, shape (n,), or a stack of F frames' rates,
    shape (F, n).  Given LevelRates, values holds the rates levels[index] and
    chirp_rates, which se_afdm_modulate passes to idaft, keeps the LevelRates.
    """

    values: np.ndarray
    owner: str

    def __post_init__(self) -> None:
        rates = self.values
        coded = isinstance(rates, LevelRates)
        values = np.asarray(rates.levels, dtype=np.float64)[rates.index] if coded else np.asarray(rates, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "chirp_rates", rates if coded else values)
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
    index = schedule_levels(state.next_bits(n * book.bits_per_subcarrier), book)
    return C2Schedule(LevelRates(book.levels, index), owner)


def schedule_levels(bits: np.ndarray, book: Codebook) -> np.ndarray:
    """Codebook level index of each subcarrier from its log2(m) keystream bits, MSB first.

    bits has shape (..., n * log2(m)), one frame's keystream per row of any
    leading axes, and the indices have shape (..., n).
    """
    k = book.bits_per_subcarrier
    bits = np.asarray(bits)
    if bits.ndim < 1 or bits.shape[-1] % k:
        raise ContractViolation(f"keystream rows of shape {bits.shape} do not split into {k}-bit levels")
    weights = 1 << np.arange(k - 1, -1, -1)
    return bits.reshape(*bits.shape[:-1], -1, k).astype(np.int64) @ weights
