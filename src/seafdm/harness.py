"""Monte Carlo experiment harness: configs, sweeps, CSV output.

Reproducibility contract: every trial owns a seed tree rooted at
SeedSequence(config.seed, spawn_key=(point_index, trial_index)), whose
eight children come in a fixed order (data bits, keystream seed, Bob
channel, Bob noise, Eve channel, Eve noise, Eve guess, channel estimation
error).  A trial builds only the children it reads.  Child k's generator is
PCG64 on the four words SeedSequence(config.seed, spawn_key=(point_index,
trial_index, k)).generate_state(4, uint64), the tree's spawn(8)[k] state
for state; _stream_words computes them for many trials and children at
once with SeedSequence's own mix on uint32 arrays.  Results depend only on
(seed, point, trial), never on worker count or completion order, and error
counts are summed as integers before any division.

The plain-AFDM reference inside ``bob-vs-afdm-ber`` reuses the same
channel realization, the same noise vector and the same channel-estimate
error as the scrambled frame (two generators built from one child's words
replay identical draws), so the comparison isolates the scrambling itself.

With exact channel knowledge the trials of a point run serially in blocks:
each trial makes only the draws of its own generators, and the trial that
completes a block maps every draw at once (symbols, schedule rates, Eve's
guess, path gains and Dopplers), then modulates, passes through the
channel, equalizes, transforms and demaps the whole block.  Every draw
still comes from the trial's own seed tree, and every stacked stage gives
each frame the bytes it gets alone, so the block size changes no count.
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
    ChannelRealization,
    apply_channel,
    circular_taps,
    draw_paths,
    effective_channel,
    paths_from_draws,
    sample_channel,
)
from .daft import FrameParams, SignalBlock, daft, remove_cpp
from .detection import banded_mmse_equalize, mmse_equalize
from .exceptions import ConfigError, ContractViolation
from .keystream import (
    DEFAULT_TAPS,
    C2Schedule,
    Codebook,
    Lfsr,
    build_codebook,
    generate_schedule,
    schedule_rates,
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
    "read_csv",
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

# Frame samples (trials times n) per exact-CSI trial block: enough frames to
# spread each receive-side stage's fixed cost at small n, one trial per
# block once n exceeds 1024.  Measured per-trial times are in the README.
_BLOCK_SAMPLES = 2048


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
        if not all(v > -np.inf for v in self.snr_db):
            # rejects NaN and -inf; +inf is legal, it means a noiseless link
            raise ConfigError(f"snr_db values must be numbers or +inf, got {self.snr_db}")
        if self.paths > self.n:
            raise ConfigError(f"paths={self.paths} exceeds n={self.n}")
        if self.scenario == "bias-sweep":
            if not self.bias_values:
                raise ConfigError("bias-sweep needs a nonempty bias_values list")
            if self.eve_mode != "biased":
                raise ConfigError(f"bias-sweep runs the biased guess; eve_mode={self.eve_mode!r} contradicts it")
        if self.scenario == "csi-error-ber" and self.csi_error_var == 0.0:
            raise ConfigError("csi-error-ber needs csi_error_var > 0")
        ncp = self.paths - 1 if self.ncp is None else self.ncp
        try:
            Lfsr(self.lfsr_taps)
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
    """A fresh generator on one child's seed words: two from one child replay identical draws."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(words)))


def _trial_seeds(config: ExperimentConfig, point_idx: int, trials) -> list[dict[str, np.ndarray]]:
    """Seed words by child name of each trial, for the children a trial of this config reads."""
    skip = {"csi"} if config.csi_error_var == 0.0 else set()
    if config.scenario == "bob-vs-afdm-ber":
        skip |= {"eve_channel", "eve_noise", "eve_guess"}
    if config.eve_mode == "zeros":
        skip.add("eve_guess")  # the all-zeros guess draws nothing
    names = [name for name in _STREAMS if name not in skip]
    words = _stream_words(config.seed, point_idx, trials, [_STREAMS.index(name) for name in names])
    return [dict(zip(names, row)) for row in words]


def _draw_lfsr_state(rng: np.random.Generator, taps: tuple[int, ...]) -> int:
    degree = max(taps)
    nbytes = (degree + 7) // 8
    state = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << degree) - 1)
    return state or 1


def _eve_guess(
    mode: str,
    alice: C2Schedule,
    book: Codebook,
    rng: np.random.Generator | None,
    bias: float,
) -> C2Schedule:
    return C2Schedule(_guess_rates(mode, alice.values, book, _draw_guess(mode, rng, len(alice), book.m, bias)), "eve")


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


def _guess_rates(mode: str, alice: np.ndarray, book: Codebook, draws) -> np.ndarray:
    """Eve's guessed rates, shaped like alice: one frame's, or a stack's from the stacked draws."""
    if mode == "zeros":
        return np.zeros_like(alice)
    if mode == "random":
        return book.levels[draws]
    return alice + draws


def _perturb(matrix: np.ndarray, rng: np.random.Generator, var: float) -> np.ndarray:
    """matrix + sqrt(var/2) * (a + 1j*b), with a and b drawn in that order, in one new array."""
    if var == 0.0:
        return matrix
    out = np.empty(matrix.shape, dtype=np.complex128)
    out.real = rng.standard_normal(matrix.shape)
    out.imag = rng.standard_normal(matrix.shape)
    out *= np.sqrt(var / 2.0)
    out += matrix
    return out


def _block_size(n: int) -> int:
    """Exact-CSI trials per block."""
    return max(1, _BLOCK_SAMPLES // n)


class _Block:
    """Exact-CSI trials of one sweep point whose chain runs as one stack.

    The first trial to ask computes the seed words of every trial of the
    block at once.  Each trial parks only the draws of its own generators:
    data bits, keystream bits, the path draws of each channel it samples,
    Eve's guess draws and one noise generator per received row.  Every
    trial has two rows: Bob's, then the plain-AFDM frame through his
    channel or Eve's row through hers.  The trial that fills the block maps
    all the draws at once (symbols, rates, guesses, path gains and
    Dopplers), then modulates, passes through the channel, equalizes,
    transforms and demaps every row.
    """

    def __init__(self, config: ExperimentConfig, point_idx: int, trials: range):
        self.config = config
        self.point_idx = point_idx
        self.trials = trials
        self.size = len(trials)
        self.bits, self.keys, self.guesses, self.links, self.noise = [], [], [], [], []
        self._seeds = None

    def seeds(self, trial_idx: int) -> dict[str, np.ndarray]:
        """Seed words by child name of one of the block's trials."""
        if self._seeds is None:
            self._seeds = _trial_seeds(self.config, self.point_idx, self.trials)
        return self._seeds[trial_idx - self.trials.start]

    def park(self, bits: np.ndarray, keys: np.ndarray, guess, links: list, noise: list) -> bool:
        """Add one trial's draws; True once the block is full."""
        self.bits.append(bits)
        self.keys.append(keys)
        self.guesses.append(guess)
        self.links += links
        self.noise += noise
        return len(self.bits) == self.size

    def finish(self, sigma2: float, afdm: bool) -> list[int]:
        """Bit errors of each trial's two rows, each summed over the block."""
        config = self.config
        params, const, n = config.frame_params, config.constellation, config.n
        bits = np.array(self.bits)
        x = map_bits(bits.ravel(), const).reshape(self.size, n)
        alice = schedule_rates(np.array(self.keys), config.codebook)
        gains, dopplers = paths_from_draws(
            np.array(self.links), config.alpha_max, n=n, integer_doppler=config.integer_doppler
        )
        delays = np.arange(config.paths)
        links = [ChannelRealization(g, delays, nu) for g, nu in zip(gains, dopplers)]
        if afdm:
            # the plain-AFDM frame is a second right-hand side of Bob's system
            rates = np.stack((alice, np.zeros_like(alice)), axis=1)
            tx = se_afdm_modulate(np.repeat(x, 2, axis=0), params, C2Schedule(rates.reshape(-1, n), "alice"))
            samples, row_links = tx.samples, [link for link in links for _ in range(2)]
        else:
            # she does not undo the transmit schedule; her DAFT at rate zero
            # followed by descramble(guess) is her DAFT at the guessed rates
            guesses = _guess_rates(config.eve_mode, alice, config.codebook, np.array(self.guesses))
            rates = np.stack((alice, guesses), axis=1)
            tx = se_afdm_modulate(x, params, C2Schedule(alice, "alice"))
            samples, row_links = np.repeat(tx.samples, 2, axis=0), links
        rx = apply_channel(SignalBlock(samples, tx.prefix_len), row_links, self.noise, sigma2)
        cores = remove_cpp(rx, params).reshape(len(links), -1, n)
        # the banded time-domain solve seen through the transmit DAFT equals
        # the subcarrier-domain MMSE (the receiver's own DAFT cancels), so
        # each row's solution goes through the DAFT at its row's rates
        s_hat = banded_mmse_equalize(cores, circular_taps(links, params), sigma2)
        received = demap(daft(s_hat, params, rates.reshape(cores.shape)), const).reshape(self.size, 2, -1)
        sent = np.broadcast_to(bits[:, None, :], received.shape)
        return count_errors(sent, received).sum(axis=0).tolist()


def _run_trial(
    config: ExperimentConfig,
    point_idx: int,
    trial_idx: int,
    sigma2: float,
    bias: float,
    need_eve: bool,
    need_afdm: bool,
    block: _Block | None = None,
) -> tuple[int, int, int, int]:
    """One frame end to end; returns the (bob, eve, afdm, bits) error counts it completes.

    With exact CSI (``block`` given) the frame waits in the block: the call
    parks its draws and completes nothing, unless it fills the block, in
    which case it runs every parked frame.
    """
    params = config.frame_params
    book = config.codebook
    const = config.constellation
    n = config.n

    seeds = _trial_seeds(config, point_idx, (trial_idx,))[0] if block is None else block.seeds(trial_idx)
    bits = _rng(seeds["data"]).integers(0, 2, size=n * const.bits_per_symbol)
    keystream = Lfsr(config.lfsr_taps, _draw_lfsr_state(_rng(seeds["key"]), config.lfsr_taps))
    rng_guess = _rng(seeds["eve_guess"]) if "eve_guess" in seeds else None

    if block is not None:
        # the trial's own draws; the block maps them once it is full
        links = [draw_paths(_rng(seeds["bob_channel"]), config.paths)]
        noise = [_rng(seeds["bob_noise"])]
        guess = None
        if need_afdm:
            # the plain-AFDM frame replays Bob's noise through Bob's channel
            noise.append(_rng(seeds["bob_noise"]))
        if need_eve:
            guess = _draw_guess(config.eve_mode, rng_guess, n, book.m, bias)
            links.append(draw_paths(_rng(seeds["eve_channel"]), config.paths))
            noise.append(_rng(seeds["eve_noise"]))
        if not block.park(bits, keystream.next_bits(n * book.bits_per_subcarrier), guess, links, noise):
            return 0, 0, 0, 0
        bob_err, other_err = block.finish(sigma2, need_afdm)
        if need_afdm:
            return bob_err, 0, other_err, block.size * bits.size
        return bob_err, other_err, 0, block.size * bits.size

    x = map_bits(bits, const)
    alice = generate_schedule(keystream, book, n, "alice")

    def channel(name, label=""):
        rng = _rng(seeds[name])
        return sample_channel(config.paths, config.alpha_max, rng, n=n, integer_doppler=config.integer_doppler, label=label)

    realization = channel("bob_channel")
    if need_eve:
        guess = _eve_guess(config.eve_mode, alice, book, rng_guess, bias)
        eve_channel = channel("eve_channel", "eve")
    tx = se_afdm_modulate(x, params, alice)
    rng_csi = _rng(seeds["csi"])

    def receive(front_end, link, signal, noise, sched_rx, sched_tx, rng_err):
        """Imperfect CSI perturbs the dense subcarrier matrix, so it runs
        front end, effective matrix, CSI error and dense MMSE."""
        r = apply_channel(signal, link, _rng(seeds[noise]), sigma2)
        y = front_end(r, params, sched_rx)
        h = effective_channel(link, params, sched_rx, sched_tx).matrix
        h = _perturb(h, rng_err, config.csi_error_var)  # frees the exact matrix before the solve
        return mmse_equalize(y, h, sigma2)

    def errors(x_hat):
        return count_errors(bits, demap(x_hat, const))

    bob = C2Schedule(alice.values, "bob")
    bob_err = errors(receive(bob_front_end, realization, tx, "bob_noise", bob, alice, rng_csi))

    eve_err = 0
    if need_eve:
        # she knows her own front end, not the transmit schedule
        scrambled_hat = receive(eve_front_end, eve_channel, tx, "eve_noise", guess, None, rng_csi)
        eve_err = errors(descramble(scrambled_hat, guess))

    afdm_err = 0
    if need_afdm:
        # fresh generators from Bob's seed words replay his noise and CSI error
        a0 = zero_schedule(n, "alice")
        tx0 = se_afdm_modulate(x, params, a0)
        x0 = receive(bob_front_end, realization, tx0, "bob_noise", zero_schedule(n, "bob"), a0, _rng(seeds["csi"]))
        afdm_err = errors(x0)

    return bob_err, eve_err, afdm_err, bits.size


def _run_point(config: ExperimentConfig, point_idx: int, point: float) -> TrialRecord:
    if config.scenario == "bias-sweep":
        sigma2 = 10.0 ** (-config.snr_db[0] / 10.0)
        bias = point
    else:
        sigma2 = 10.0 ** (-point / 10.0)
        bias = config.eve_bias
    need_eve = config.scenario in ("eve-ber", "csi-error-ber", "bias-sweep")
    need_afdm = config.scenario == "bob-vs-afdm-ber"

    def one(trial_idx: int, block: _Block | None = None) -> tuple[int, int, int, int]:
        return _run_trial(config, point_idx, trial_idx, sigma2, bias, need_eve, need_afdm, block)

    workers = min(config.workers, config.trials)
    start = time.perf_counter()
    if config.csi_error_var == 0.0:
        # serial blocks: the stacked receive side leaves a thread nothing to overlap
        outcomes = []
        size = _block_size(config.n)
        for first in range(0, config.trials, size):
            block = _Block(config, point_idx, range(first, min(first + size, config.trials)))
            outcomes += [one(t, block) for t in block.trials]
    elif workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, range(config.trials)))
    else:
        outcomes = [one(t) for t in range(config.trials)]
    wall_ms = (time.perf_counter() - start) * 1e3

    bob_err = sum(o[0] for o in outcomes)
    eve_err = sum(o[1] for o in outcomes)
    afdm_err = sum(o[2] for o in outcomes)
    bit_count = sum(o[3] for o in outcomes)
    nan = float("nan")
    return TrialRecord(
        point=point,
        bob_ber=bob_err / bit_count,
        eve_ber=eve_err / bit_count if need_eve else nan,
        afdm_ber=afdm_err / bit_count if need_afdm else nan,
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
    four decades around c2max, which must then be positive.
    """
    snr_db = config.snr_db[0]
    if snr_db == np.inf:
        raise ConfigError(f"sinr-curve needs a finite snr_db[0], got {snr_db}")
    values = config.c2max_values
    if not values:
        if config.c2max == 0.0:
            raise ConfigError("sinr-curve with c2max=0 needs explicit c2max_values: the default sweep scales c2max")
        values = tuple(config.c2max * 10.0 ** e for e in np.linspace(-2, 2, 17))
    c2max = np.array(values, dtype=np.float64)
    gamma = 10.0 ** (snr_db / 10.0)
    return c2max, np.array([sinr_eve_average(config.n, gamma, v) for v in c2max])


def search_space_summary(config: ExperimentConfig) -> dict:
    """Exhaustive-search size of the schedule space: n * log2(m) bits per frame."""
    bits = config.n * config.codebook.bits_per_subcarrier
    return {
        "n": config.n,
        "codebook_size": config.m,
        "bits_per_subcarrier": config.codebook.bits_per_subcarrier,
        "search_space_bits": bits,
        "log10_schedules": bits * float(np.log10(2.0)),
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


def emit_csv(records: list[TrialRecord], path: str | Path, config: ExperimentConfig | None = None) -> None:
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
        writer.writerow(
            [
                repr(rec.point),
                repr(rec.bob_ber),
                repr(rec.eve_ber),
                repr(rec.afdm_ber),
                rec.bit_count,
                rec.seed,
            ]
        )
    meta = {
        "version": __version__,
        "rng": "numpy.random.default_rng (PCG64)",
        "seed_policy": _SEED_POLICY,
        "config": None if config is None else asdict(config),
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


def read_csv(path: str | Path) -> list[TrialRecord]:
    """Load records written by :func:`emit_csv` (wall times stay in the sidecar)."""
    out = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != _CSV_COLUMNS:
            raise ConfigError(f"unexpected CSV header in {path}: {reader.fieldnames}")
        for row in reader:
            out.append(
                TrialRecord(
                    point=float(row["point"]),
                    bob_ber=float(row["bob_ber"]),
                    eve_ber=float(row["eve_ber"]),
                    afdm_ber=float(row["afdm_ber"]),
                    bit_count=int(row["bit_count"]),
                    seed=int(row["seed"]),
                )
            )
    return out
