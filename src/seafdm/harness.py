"""Monte Carlo experiment harness: configs, sweeps, CSV output.

Reproducibility contract: every trial owns a seed tree rooted at
SeedSequence(config.seed, spawn_key=(point_index, trial_index)), whose
eight children come in a fixed order (data bits, keystream seed, Bob
channel, Bob noise, Eve channel, Eve noise, Eve guess, channel estimation
error).  A trial builds only the children it reads.  Child k's generator is
PCG64 on the four words SeedSequence(config.seed, spawn_key=(point_index,
trial_index, k)).generate_state(4, uint64), the tree's spawn(8)[k] state
for state; _stream_words computes them for many trials and children at
once with SeedSequence's own mix on uint32 arrays.  The data bits and the
keystream register's state are read from the raw 64-bit outputs of that
PCG64, with no Generator built: they are the values Generator.integers(0,
2) and Generator.bytes give on it (_draw_bits, _draw_lfsr_states), each
unpacked once over the stacked raw words of the trials that read them.
Results depend only on (seed, point, trial), never on worker count or
completion order, and error counts are summed as integers before any
division.

The plain-AFDM reference inside ``bob-vs-afdm-ber`` reuses the same
channel realization, Bob's noise and Bob's own channel-estimate error
matrix, so the comparison isolates the scrambling itself.  Both chains draw
each receiver's noise once, as (2, n + ncp) standard normals (none at an
infinite SNR), and add Bob's draws to both of his frames.  Both end in one
decision, _decide: a hard demap of each row of estimates and its bit errors.

With exact channel knowledge the trials of a point run serially in blocks
of at most _BLOCK_SAMPLES frame samples (one trial when a frame alone is
larger), and a block's counts are a function of its trial range alone: its
last trial makes every trial's draws from that trial's own generators, maps
them at once (symbols, schedule level indices, Eve's guess, path gains and
Dopplers), then modulates, passes through the channel, equalizes,
transforms and demaps the whole block; nothing is kept between trials.
Every stacked stage gives each frame the bytes it gets alone, so the
block size changes no count.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import numbers
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import (
    apply_channel,
    circular_taps,
    draw_paths,
    effective_channel,
    paths_from_draws,
    sample_channel,
)
from .daft import FrameParams, LevelRates, SignalBlock, daft, remove_cpp
from .detection import banded_mmse_equalize, mmse_equalize
from .exceptions import ConfigError, ContractViolation
from .keystream import (
    DEFAULT_TAPS,
    C2Schedule,
    Lfsr,
    build_codebook,
    generate_schedule,
    keystream_bits,
    schedule_levels,
    tap_polynomial,
    zero_schedule,
)
from .sinr import sinr_eve_average
from .waveform import (
    bob_front_end,
    constellation_by_name,
    count_errors,
    demap,
    descramble,
    eve_front_end,
    map_bits,
    se_afdm_modulate,
)

__all__ = [
    "SCENARIOS",
    "EVE_MODES",
    "ExperimentConfig",
    "TrialRecord",
    "run_scenario",
    "run_sinr_curve",
    "search_space_summary",
    "emit_csv",
    "write_staged",
    "wilson",
]

SCENARIOS = (
    "bob-vs-afdm-ber",
    "eve-ber",
    "csi-error-ber",
    "bias-sweep",
)

EVE_MODES = ("zeros", "random", "biased")

_SEED_POLICY = "SeedSequence(seed, spawn_key=(point_index, trial_index)).spawn(8)"
# the seed tree's children in spawn order
_STREAMS = ("data", "key", "bob_channel", "bob_noise", "eve_channel", "eve_noise", "eve_guess", "csi")

# Largest counts a config takes: a trial index is one uint32 word of its
# seed tree's spawn key, n and m bound the frame and codebook tables, and
# workers bounds the threads a CSI-error point starts, the same on every host
_LARGEST = {"n": 2**16, "m": 2**16, "trials": 2**32 - 1, "workers": 256}

# Most frame samples (trials times n) per exact-CSI trial block: enough
# frames to spread a block's fixed cost, one trial per block once n exceeds
# it.  The largest of the caps 2048 to 16384 that made no timed n slower
# than 2048 did, at n = 64 to 2048 and 8 to 200 trials; the per-trial times
# are in the README.
_BLOCK_SAMPLES = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: link geometry, adversary model, sweep, and budget.

    snr_db is the sweep axis for the BER scenarios; bias-sweep sweeps
    bias_values at snr_db[0] instead, with the biased guess.  An unset
    eve_mode is biased for bias-sweep and zeros for every other scenario.
    csi_error_var is the per-entry variance of the complex Gaussian error
    added to every receiver's channel estimate (zero means genie CSI).
    Construction coerces and checks every field, and builds the tables
    every trial shares: frame_params, codebook and constellation.
    """

    scenario: str = "eve-ber"
    n: int = 64
    modulation: str = "qpsk"
    m: int = 4
    c2max: float = 4.88e-5
    paths: int = 3
    alpha_max: float = 2.0
    integer_doppler: bool = False
    ncp: int | None = None
    snr_db: tuple[float, ...] = (25.0,)
    trials: int = 200
    seed: int = 1
    eve_mode: str | None = None
    eve_bias: float = 0.0
    csi_error_var: float = 0.0
    workers: int = 1
    lfsr_taps: tuple[int, ...] = DEFAULT_TAPS
    bias_values: tuple[float, ...] = ()
    c2max_values: tuple[float, ...] = ()

    def __post_init__(self):
        set_ = functools.partial(object.__setattr__, self)
        counts = ["seed", "n", "m", "paths", "trials", "workers"]
        if self.ncp is not None:
            counts.append("ncp")
        for name in counts:
            set_(name, _as_int(getattr(self, name), name))
        if not isinstance(self.lfsr_taps, (list, tuple, np.ndarray)):
            raise ConfigError(f"lfsr_taps must be a list of exponents, got {self.lfsr_taps!r}")
        set_("lfsr_taps", tuple(_as_int(t, "lfsr_taps entry") for t in self.lfsr_taps))
        for name in ("c2max", "alpha_max", "eve_bias", "csi_error_var"):
            set_(name, _as_float(getattr(self, name), name))
        set_("snr_db", _as_float_tuple(self.snr_db, "snr_db"))
        for name in ("bias_values", "c2max_values"):
            set_(name, _as_float_tuple(getattr(self, name), name, empty_ok=True))
        if not isinstance(self.integer_doppler, (bool, np.bool_)):
            raise ConfigError(f"integer_doppler must be true or false, got {self.integer_doppler!r}")
        set_("integer_doppler", bool(self.integer_doppler))
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; known: {SCENARIOS}")
        if self.eve_mode is None:
            # the sweep varies the biased guess's error, so that is the guess it runs
            set_("eve_mode", "biased" if self.scenario == "bias-sweep" else "zeros")
        if self.eve_mode not in EVE_MODES:
            raise ConfigError(f"unknown eve_mode {self.eve_mode!r}; known: {EVE_MODES}")
        if not isinstance(self.modulation, str):
            raise ConfigError(f"modulation must be a name, got {self.modulation!r}")
        # n, m, c2max, modulation and the taps are checked by the constructors below
        for name, least in {"seed": 0, "paths": 1, "trials": 1, "workers": 1, "ncp": self.paths - 1}.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name}={value} is below its least value {least}")
        for name, most in _LARGEST.items():
            if getattr(self, name) > most:
                raise ConfigError(f"{name}={getattr(self, name)} exceeds its largest value {most}")
        for name in ("alpha_max", "eve_bias", "csi_error_var", "bias_values", "c2max_values"):
            value = getattr(self, name)
            if not all(0 <= v < np.inf for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("eve_bias", "bias_values", "c2max_values"):
            if max(np.atleast_1d(getattr(self, name)), default=0.0) > 1.0:
                # a chirp rate acts modulo 1 (c and c + 1 give one chirp): 1 spans every rate and every rate error
                raise ConfigError(f"{name}={getattr(self, name)} exceeds its largest value 1.0")
        if not all(abs(v) <= 3000.0 or v == np.inf for v in self.snr_db):
            # 10**(-snr/10) and 10**(snr/10) overflow past 3082 dB; NaN and -inf fail, +inf means noiseless
            raise ConfigError(f"snr_db values must lie in [-3000, 3000] dB or be +inf, got {self.snr_db}")
        if self.paths > self.n:
            raise ConfigError(f"paths={self.paths} exceeds n={self.n}")
        if self.alpha_max > self.n:
            # Dopplers nu and nu + n (and chirp rates c1 and c1 + 1) are one on the integer sample grid
            raise ConfigError(f"alpha_max={self.alpha_max} exceeds n={self.n}")
        if self.scenario == "bias-sweep":
            if not self.bias_values:
                raise ConfigError("bias-sweep needs a nonempty bias_values list")
            if self.eve_mode != "biased":
                raise ConfigError(f"bias-sweep runs the biased guess; eve_mode={self.eve_mode!r} contradicts it")
        if self.scenario == "bob-vs-afdm-ber" and self.eve_mode != "zeros":
            # an unset eve_mode resolves to zeros, so only a guess nothing draws passes
            raise ConfigError(f"bob-vs-afdm-ber has no interceptor; eve_mode={self.eve_mode!r} would be ignored")
        if self.eve_bias > 0.0 and (self.eve_mode != "biased" or self.scenario == "bias-sweep"):
            # bias-sweep sweeps bias_values in its place
            raise ConfigError(
                f"eve_bias={self.eve_bias} is read only by the biased guess of eve-ber and csi-error-ber, "
                f"not by {self.scenario} with eve_mode={self.eve_mode!r}"
            )
        if self.scenario == "csi-error-ber" and self.csi_error_var == 0.0:
            raise ConfigError("csi-error-ber needs csi_error_var > 0")
        ncp = self.paths - 1 if self.ncp is None else self.ncp
        try:
            tap_polynomial(self.lfsr_taps)
            set_("frame_params", FrameParams.for_profile(self.n, self.alpha_max, ncp, self.modulation))
            set_("codebook", build_codebook(self.c2max, self.m))
            set_("constellation", constellation_by_name(self.modulation))
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        try:
            return cls(**raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _as_int(value, name: str) -> int:
    # bool is an int subclass, but true/false in a YAML file is no count
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    # YAML 1.1 reads 1e-4 (no dot) as a string, which float() parses; true/false is no number
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _as_float_tuple(value, name: str, empty_ok: bool = False) -> tuple[float, ...]:
    if np.isscalar(value) or not hasattr(value, "__iter__"):  # a lone number, or None from an empty YAML value
        value = (value,)
    out = tuple(_as_float(v, f"{name} entry") for v in value)
    if not empty_ok and not out:
        raise ConfigError(f"{name} must not be empty")
    return out


@dataclass(frozen=True)
class TrialRecord:
    """Aggregated result for one sweep point."""

    point: float
    bob_ber: float
    eve_ber: float
    afdm_ber: float
    bit_count: int
    seed: int
    wall_ms: float = float("nan")


# numpy.random.SeedSequence's entropy mix and state output, on uint32 arrays
_MASK32 = 0xFFFFFFFF
_MIX_MULT = np.array([[0xCA01F9DD], [0x4973F715]], dtype=np.uint32)
_XSHIFT = np.array([16], dtype=np.uint32)


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """Row 0: the constant each hashed word is XORed with; row 1: the next one, which multiplies it."""
    out = np.empty((2, count), dtype=np.uint32)
    for i in range(count):
        out[0, i] = start
        start = start * mult & _MASK32
        out[1, i] = start
    return out


# generate_state(4, uint64) hashes the pool, cycled twice, into eight uint32 words
_STATE_CONST = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


@functools.lru_cache(maxsize=8)
def _key_constants(words: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants of the trial word and the child word that follow ``words`` entropy words.

    The first four words fill the pool and the pool cross-mixes itself
    (16 constants); every later word is mixed into each of the four pool
    words, each time with the next constant.
    """
    const = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * words + 8)
    out = (const[:, -8:-4], const[:, None, -4:])
    for table in out:
        table.flags.writeable = False
    return out


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    value = (value ^ const[0]) * const[1]
    return value ^ (value >> _XSHIFT)


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    out = _MIX_MULT[0] * pool - _MIX_MULT[1] * hashed
    return out ^ (out >> _XSHIFT)


def _stream_words(seed: int, point_idx: int, trials, children) -> np.ndarray:
    """PCG64 seed words of the given children of the given trials' seed trees, shape (T, K, 4) uint64.

    Entry [t, k] equals SeedSequence(seed, spawn_key=(point_idx,
    trials[t], children[k])).generate_state(4, np.uint64), computed for
    every (trial, child) pair at once: SeedSequence(seed,
    spawn_key=(point_idx,)) mixes the seed and the point index into the
    pool they share, and the trial and child words are mixed in after it.
    Each spawn-key entry must fit one uint32 word, so numpy raises
    OverflowError for a trial or point index of 2**32 or more.
    """
    # the seed's uint32 words, padded to the pool's four, then the point index
    words = max(4, -(-int(seed).bit_length() // 32)) + 1
    pool = np.random.SeedSequence(seed, spawn_key=(np.uint32(point_idx),)).pool
    trial_const, child_const = _key_constants(words)
    pool = _mix(pool, _hashmix(np.array(trials, dtype=np.uint32)[:, None], trial_const))
    pool = _mix(pool[:, None], _hashmix(np.array(children, dtype=np.uint32)[:, None], child_const))
    state = _hashmix(np.concatenate((pool, pool), axis=-1), _STATE_CONST)
    # SeedSequence reads the uint32 words as little-endian pairs
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 state words _stream_words already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ContractViolation(f"hashed seed words serve PCG64's four uint64 words, not {n_words} {dtype}")
        return self.words


def _rng(words: np.ndarray) -> np.random.Generator:
    """A fresh generator on one child's seed words."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(words)))


def _raw_words(seed_words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit outputs of PCG64 on each row of seed words, shape (T, count) little-endian."""
    return np.array([np.random.PCG64(_HashedSeed(words)).random_raw(count) for words in seed_words], dtype="<u8")


def _draw_bits(seed_words: np.ndarray, count: int) -> np.ndarray:
    """Generator.integers(0, 2, size=count) on each row of seed words, shape (T, count) uint32.

    Each bit takes one 32-bit draw u, the low half of a 64-bit word before
    its high half, and Lemire's bounded draw gives (2 * u) >> 32, the top
    bit of u; with a range of 2 it never rejects, so no draw is skipped.
    The raw words of every row are unpacked at once.
    """
    return _raw_words(seed_words, -(-count // 2)).view("<u4")[:, :count] >> 31


def _draw_lfsr_states(seed_words: np.ndarray, taps: tuple[int, ...]) -> np.ndarray:
    """Each row's nonzero register state, shape (T,) uint64: its first raw PCG64 word's low degree bits, or 1 if all zero.

    Generator.bytes(k) with k <= 8 gives that word's first k little-endian
    bytes, so this is the state a generator on the same words draws as
    bytes((degree + 7) // 8) masked to the degree.
    """
    return np.maximum(_raw_words(seed_words, 1)[:, 0] & ((1 << max(taps)) - 1), 1)


def _trial_seeds(config: ExperimentConfig, point_idx: int, trials) -> dict[str, np.ndarray]:
    """Seed words of the given trials, shape (T, 4), by the name of each child a trial of this config reads."""
    skip = {"csi"} if config.csi_error_var == 0.0 else set()
    if config.scenario == "bob-vs-afdm-ber":
        skip |= {"eve_channel", "eve_noise"}
    if config.eve_mode == "zeros":
        skip.add("eve_guess")  # the all-zeros guess, bob-vs-afdm-ber's only one, draws nothing
    names = [name for name in _STREAMS if name not in skip]
    words = _stream_words(config.seed, point_idx, trials, [_STREAMS.index(name) for name in names])
    return {name: words[:, k] for k, name in enumerate(names)}


def _draw_guess(mode: str, rng: np.random.Generator | None, n: int, m: int, bias: float) -> np.ndarray | None:
    """Eve's draws for one frame: none for zeros, level indices for random, offsets from Alice's rates for biased."""
    if mode == "zeros":
        return None
    if mode == "random":
        return rng.integers(0, m, size=n)
    offset = rng.uniform(-bias, bias, size=n)
    if bias > 0.0:
        # pin one entry to the boundary so the guess error sup-norm is exact
        j = int(rng.integers(0, n))
        offset[j] = bias if rng.integers(0, 2) else -bias
    return offset


def _guess_rates(mode: str, alice: LevelRates, draws) -> LevelRates | np.ndarray:
    """Eve's guessed rates, shaped like alice.index: one frame's, or a stack's from the stacked draws.

    The zeros and random guesses are codebook levels, given as LevelRates
    over the codebook's levels with the zero level appended (its table row
    is exact ones).  A biased guess is off the codebook: the float rates of
    Alice's schedule plus the offsets.
    """
    if mode == "biased":
        return alice.levels[alice.index] + draws
    levels = np.append(alice.levels, 0.0)
    return LevelRates(levels, np.full_like(alice.index, alice.levels.size) if mode == "zeros" else draws)


def _add_csi_error(h: np.ndarray, rng: np.random.Generator, var: float, draw: np.ndarray) -> np.ndarray:
    """Add one n-by-n channel-estimate error sqrt(var/2) * (a + 1j*b) to h in place and return h.

    a and b are drawn in that order into draw, an (n, n) float64 scratch
    array, each scaled there and added to h.real, then h.imag, so no complex
    error matrix is made and h ends with the bytes of
    h + sqrt(var/2) * (a + 1j*b).
    Two (n, n) draws, not one (2, n, n) draw of the same values: at n=256
    the single draw's larger buffer cost up to twice the page faults and
    3-13% more time per CSI-error trial.
    """
    scale = np.sqrt(var / 2.0)
    for part in (h.real, h.imag):
        rng.standard_normal(out=draw)
        draw *= scale
        part += draw
    return h


def _decide(const, bits: np.ndarray, rows: np.ndarray) -> int | np.ndarray:
    """Bit errors of each row of symbol estimates, hard-demapped, against the frame bits broadcast over the rows."""
    received = demap(rows, const)
    return count_errors(np.broadcast_to(bits, received.shape), received)


def _block_size(n: int) -> int:
    """Exact-CSI trials per block."""
    return max(1, _BLOCK_SAMPLES // n)


def _frame_draws(
    config: ExperimentConfig, seeds: dict[str, np.ndarray], bias: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Each trial's data bits (T, bits), keystream register state (T,) and Eve's guess draws (T, n), None for zeros."""
    bits = _draw_bits(seeds["data"], config.n * config.constellation.bits_per_symbol)
    states = _draw_lfsr_states(seeds["key"], config.lfsr_taps)
    if "eve_guess" not in seeds:
        return bits, states, None  # the zeros guess draws nothing
    n, m = config.n, config.codebook.m
    return bits, states, np.array([_draw_guess(config.eve_mode, _rng(w), n, m, bias) for w in seeds["eve_guess"]])


def _run_block(
    config: ExperimentConfig, point_idx: int, trials: range, sigma2: float, bias: float
) -> tuple[int, int, int]:
    """Exact-CSI trials of one sweep point run as one stack; returns their summed (bob, other, bits).

    Each trial draws only from its own generators, each stream once, so the
    counts are those of its trials run alone.  Keystream bits become
    codebook level indices, not rates, so Alice's rows gather their chirps
    from the codebook's table.  A zeros or random guess is a level of the
    codebook with the zero level appended (a row of exact ones), so Bob's
    and Eve's rows gather from that table too; a biased guess is off the
    codebook, so both rows are exponentiated as one stack of rates.
    """
    afdm = config.scenario == "bob-vs-afdm-ber"
    params, const, n = config.frame_params, config.constellation, config.n
    seeds = _trial_seeds(config, point_idx, trials)
    bits, states, guesses = _frame_draws(config, seeds, bias)
    # each trial's links and noise, receiver by receiver: the plain-AFDM frame
    # shares Bob's link and his noise draws
    receivers = ("bob",) if afdm else ("bob", "eve")
    path_draws = np.empty((len(trials), len(receivers), 3, config.paths))
    noise = np.empty((len(trials), len(receivers), 2, n + params.ncp)) if sigma2 > 0.0 else None
    for r, name in enumerate(receivers):
        for t, words in enumerate(seeds[f"{name}_channel"]):
            path_draws[t, r] = draw_paths(_rng(words), config.paths)
        if noise is not None:
            for t, words in enumerate(seeds[f"{name}_noise"]):
                _rng(words).standard_normal(out=noise[t, r])
    x = map_bits(bits.ravel(), const).reshape(len(trials), n)
    book = config.codebook
    keys = keystream_bits(states, config.lfsr_taps, n * book.bits_per_subcarrier)
    alice = LevelRates(book.levels, schedule_levels(keys, book))
    count = len(trials) * len(receivers)  # links, one per receiver of each trial
    links = paths_from_draws(
        path_draws.reshape(count, 3, config.paths), config.alpha_max, n=n, integer_doppler=config.integer_doppler
    )
    # each trial's receive rows, shape (T, 2, n): Bob's, then the zero rates or Eve's guess
    guess = _guess_rates(config.eve_mode, alice, guesses)  # zeros on bob-vs-afdm-ber
    if isinstance(guess, LevelRates):
        rates = LevelRates(guess.levels, np.stack((alice.index, guess.index), axis=1))
    else:
        rates = np.stack((alice.levels[alice.index], guess), axis=1)
    if afdm:
        # the plain-AFDM frame is a second right-hand side of Bob's system
        tx = se_afdm_modulate(np.repeat(x, 2, axis=0), params, C2Schedule(rates.reshape(-1, n), "alice"))
    else:
        tx = se_afdm_modulate(x, params, C2Schedule(alice, "alice"))
    # each link carries its rows: Bob's two frames, or one frame per receiver
    samples = tx.samples if afdm else np.repeat(tx.samples, 2, axis=0)
    rows = SignalBlock(samples.reshape(count, -1, samples.shape[-1]), tx.prefix_len)
    if noise is not None:
        noise = noise.reshape(count, 1, *noise.shape[2:])  # a link's draws serve every frame it carries
    cores = remove_cpp(apply_channel(rows, links, noise, sigma2), params)
    # the banded time-domain solve seen through the transmit DAFT equals
    # the subcarrier-domain MMSE (the receiver's own DAFT cancels), so
    # each row's solution goes through the DAFT at its row's rates; Eve
    # does not undo the transmit schedule, and her DAFT at rate zero
    # followed by descramble(guess) is her DAFT at the guessed rates
    s_hat = banded_mmse_equalize(cores, circular_taps(links, params), sigma2)
    rows = daft(s_hat, params, rates.reshape(cores.shape)).reshape(len(trials), 2, n)
    bob, other = _decide(const, bits[:, None], rows).sum(axis=0).tolist()
    return bob, other, bits.size


def _run_trial(
    config: ExperimentConfig, point_idx: int, trial_idx: int, sigma2: float, bias: float, block: range | None = None
) -> tuple[int, int, int]:
    """One frame end to end; returns the (bob, other, bits) error counts it completes.

    The other receiver is the plain-AFDM frame on ``bob-vs-afdm-ber`` and
    Eve on every other scenario.  With exact CSI (``block`` given, the
    range of trials the frame's block holds) the block's last trial runs
    the whole block and returns its summed counts, and every other trial
    of it completes nothing.
    """
    if block is not None:
        return _run_block(config, point_idx, block, sigma2, bias) if trial_idx == block[-1] else (0, 0, 0)
    params = config.frame_params
    book = config.codebook
    const = config.constellation
    n = config.n
    afdm = config.scenario == "bob-vs-afdm-ber"

    # the trial's seed words and draws as a block of one
    seeds = _trial_seeds(config, point_idx, (trial_idx,))
    bits, states, draws = _frame_draws(config, seeds, bias)
    bits, draws = bits[0], None if draws is None else draws[0]  # draws is None for zeros, bob-vs-afdm-ber's guess

    x = map_bits(bits, const)
    alice = generate_schedule(Lfsr(config.lfsr_taps, int(states[0])), book, n, "alice")

    def channel(name):
        rng = _rng(seeds[name][0])
        return sample_channel(config.paths, config.alpha_max, rng, n=n, integer_doppler=config.integer_doppler)

    def noise_draws(name):  # none when the point is noiseless
        return _rng(seeds[name][0]).standard_normal((2, n + params.ncp)) if sigma2 > 0.0 else None

    def receive(front_end, link, signal, noise, sched_rx, sched_tx, error=None):
        """Imperfect CSI perturbs the dense subcarrier matrix, so it runs
        front end, effective matrix, CSI error and dense MMSE.  Without a
        given error it adds the csi generator's next draw in place.  The
        solve takes the matrix over and conjugates it in place, and writes
        its Gram into the trial's buffer, so a receiver holds two n-by-n
        arrays, the matrix and the buffer."""
        r = apply_channel(signal, link, noise, sigma2)
        y = front_end(r, params, sched_rx)
        h = effective_channel(link, params, sched_rx, sched_tx).matrix
        if error is None:
            _add_csi_error(h, rng_csi, config.csi_error_var, draw)
        else:
            h += error
        return mmse_equalize(y, h, sigma2, overwrite_h=True, gram=gram)

    realization = channel("bob_channel")
    tx = se_afdm_modulate(x, params, alice)
    rng_csi = _rng(seeds["csi"][0])
    # one buffer for the trial: each error's draws, then each solve's Gram.  Held
    # across both receivers, so a receiver frees only its matrix: a matrix and a
    # Gram freed together passed glibc's heap trim threshold, and a 1-worker
    # n=256 trial in a plain process took 1406 minor faults against 705
    work = np.empty(2 * n * n)
    draw, gram = work[: n * n].reshape(n, n), work.view(np.complex128).reshape((n, n), order="F")
    # Bob's error, added to zeros, is kept only where the plain-AFDM row adds it too
    bob_error = None
    if afdm:
        bob_error = _add_csi_error(np.zeros((n, n), dtype=np.complex128), rng_csi, config.csi_error_var, draw)
    bob_noise = noise_draws("bob_noise")
    bob = C2Schedule(alice.values, "bob")
    # decided before the other receive: Bob's estimate held through it kept the heap from
    # shrinking, and perfbench's 2-worker n=256 16-QAM process peaked 0.7 MB higher
    bob_err = _decide(const, bits, receive(bob_front_end, realization, tx, bob_noise, bob, alice, bob_error))
    if afdm:
        # the plain-AFDM frame takes Bob's link, his noise draws and his error
        a0 = zero_schedule(n, "alice")
        tx0 = se_afdm_modulate(x, params, a0)
        other_hat = receive(bob_front_end, realization, tx0, bob_noise, zero_schedule(n, "bob"), a0, bob_error)
    else:
        # she knows her own front end, not the transmit schedule; her error is the csi generator's second draw
        guess = C2Schedule(_guess_rates(config.eve_mode, alice.chirp_rates, draws), "eve")
        scrambled_hat = receive(eve_front_end, channel("eve_channel"), tx, noise_draws("eve_noise"), guess, None)
        other_hat = descramble(scrambled_hat, guess)
    return bob_err, _decide(const, bits, other_hat), bits.size


def _run_point(config: ExperimentConfig, point_idx: int, point: float) -> TrialRecord:
    if config.scenario == "bias-sweep":
        sigma2 = 10.0 ** (-config.snr_db[0] / 10.0)
        bias = point
    else:
        sigma2 = 10.0 ** (-point / 10.0)
        bias = config.eve_bias

    def one(trial_idx: int, block: range | None = None) -> tuple[int, int, int]:
        return _run_trial(config, point_idx, trial_idx, sigma2, bias, block)

    workers = min(config.workers, config.trials)
    start = time.perf_counter()
    if config.csi_error_var == 0.0:
        # serial blocks: the stacked receive side leaves a thread nothing to overlap
        outcomes = []
        size = _block_size(config.n)
        for first in range(0, config.trials, size):
            block = range(first, min(first + size, config.trials))
            outcomes += [one(t, block) for t in block]
    elif workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, range(config.trials)))
    else:
        outcomes = [one(t) for t in range(config.trials)]
    wall_ms = (time.perf_counter() - start) * 1e3

    bob_err, other_err, bit_count = (sum(column) for column in zip(*outcomes))
    afdm = config.scenario == "bob-vs-afdm-ber"
    other, nan = other_err / bit_count, float("nan")
    return TrialRecord(
        point=point,
        bob_ber=bob_err / bit_count,
        eve_ber=nan if afdm else other,
        afdm_ber=other if afdm else nan,
        bit_count=bit_count,
        seed=config.seed,
        wall_ms=wall_ms,
    )


def run_scenario(config: ExperimentConfig) -> list[TrialRecord]:
    """Run a Monte Carlo scenario, one aggregated record per sweep point."""
    points = config.bias_values if config.scenario == "bias-sweep" else config.snr_db
    return [_run_point(config, i, p) for i, p in enumerate(points)]


def run_sinr_curve(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eavesdropper SINR over the configured c2max sweep.

    Returns the sweep and the frame-averaged SINR as two float64 arrays.
    The closed form needs a finite snr_db[0]; without c2max_values it sweeps
    four decades around c2max, which must then be positive, and keeps the
    points at most 1 (a chirp rate acts modulo 1).
    """
    snr_db = config.snr_db[0]
    if snr_db == np.inf:
        raise ConfigError(f"sinr-curve needs a finite snr_db[0], got {snr_db}")
    values = config.c2max_values
    if not values:
        if config.c2max == 0.0:
            raise ConfigError("sinr-curve with c2max=0 needs explicit c2max_values: the default sweep scales c2max")
        values = tuple(v for v in (config.c2max * 10.0 ** e for e in np.linspace(-2, 2, 17)) if v <= 1.0)
    c2max = np.array(values, dtype=np.float64)
    gamma = 10.0 ** (snr_db / 10.0)
    return c2max, np.array([sinr_eve_average(config.n, gamma, v) for v in c2max])


def search_space_summary(config: ExperimentConfig) -> dict:
    """Size of one frame's schedule, n * log2(m) bits, and the degree of the register that draws it.

    The schedule bits bound a search that treats each frame's schedule as
    free.  Every schedule comes from one nonzero register state, so at most
    2**register_degree - 1 of them can occur.
    """
    bits = config.n * config.codebook.bits_per_subcarrier
    return {
        "n": config.n,
        "codebook_size": config.m,
        "bits_per_subcarrier": config.codebook.bits_per_subcarrier,
        "search_space_bits": bits,
        "log10_schedules": bits * float(np.log10(2.0)),
        "register_degree": max(config.lfsr_taps),
    }


def wilson(errors: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for an error probability."""
    if total <= 0 or errors < 0 or errors > total:
        raise ConfigError("need 0 <= errors <= total with total > 0")
    phat = errors / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * np.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


_CSV_COLUMNS = ("point", "bob_ber", "eve_ber", "afdm_ber", "bit_count", "seed")


def emit_csv(records: list[TrialRecord], path: str | Path, config: ExperimentConfig) -> None:
    """Write sweep records to CSV plus a JSON sidecar with run provenance.

    The CSV holds only reproducible numbers; wall-clock times and config
    echo live in ``<path>.meta.json`` so diffing two runs of the same seed
    yields byte-identical CSVs.  Both files are written in full to
    temporary files next to their targets before either is renamed into
    place, so a failure while writing leaves an earlier pair intact.
    """
    path = Path(path)
    table = io.StringIO(newline="")
    writer = csv.writer(table)
    writer.writerow(_CSV_COLUMNS)
    for rec in records:
        writer.writerow([repr(getattr(rec, name)) for name in _CSV_COLUMNS])
    meta = {
        "version": __version__,
        "rng": "numpy.random.default_rng (PCG64)",
        "seed_policy": _SEED_POLICY,
        "config": asdict(config),
        "provenance": _provenance(),
        "wall_ms": [rec.wall_ms for rec in records],
        "wilson_95": {
            name: [_interval(getattr(rec, f"{name}_ber"), rec.bit_count) for rec in records]
            for name in ("bob", "eve", "afdm")
        },
    }
    write_staged(
        [
            (path, table.getvalue()),
            (Path(f"{path}.meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n"),
        ]
    )


def write_staged(targets: list[tuple[Path, str]]) -> None:
    """Write each (path, text) in full to a temporary file next to it, then rename every one into place.

    A failure while writing leaves the earlier files intact and no
    temporary file behind.
    """
    # named by hand, not by tempfile, so the files get the umask's permissions
    staged = [target.with_name(f".{target.name}.{os.getpid()}.tmp") for target, _ in targets]
    try:
        for (_, text), tmp in zip(targets, staged):
            with tmp.open("w", newline="") as fh:
                fh.write(text)
        for (target, _), tmp in zip(targets, staged):
            os.replace(tmp, target)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _provenance() -> dict:
    """Library versions, CPU count and BLAS thread settings of the running process."""
    out = {"python": platform.python_version(), "cpu_count": os.cpu_count()}
    for module in (np, scipy):
        out[module.__name__] = module.__version__
        try:
            out[f"{module.__name__}_blas"] = module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            out[f"{module.__name__}_blas"] = None
    out["thread_env"] = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return out


def _interval(ber: float, bits: int) -> tuple[float, float] | None:
    if not np.isfinite(ber):
        return None
    return wilson(int(round(ber * bits)), bits)
