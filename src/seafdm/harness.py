"""Monte Carlo experiment harness: configs, sweeps, CSV output.

Reproducibility contract: every trial owns a seed tree rooted at
SeedSequence(config.seed, spawn_key=(point_index, trial_index)), whose
eight children come in a fixed order (data bits, keystream seed, Bob
channel, Bob noise, Eve channel, Eve noise, Eve guess, channel estimation
error).  A trial builds only the children it reads: child k alone is
SeedSequence(config.seed, spawn_key=(point_index, trial_index, k)), the
tree's spawn(8)[k] state for state.  Results depend only on (seed, point,
trial), never on worker count or completion order, and error counts are
summed as integers before any division.

The plain-AFDM reference inside ``bob-vs-afdm-ber`` reuses the same
channel realization, the same noise vector and the same channel-estimate
error as the scrambled frame (two generators built from one child sequence
replay identical draws), so the comparison isolates the scrambling itself.

With exact channel knowledge the trials of a point run serially in blocks:
each trial makes its draws on its own, and the trial that completes a
block modulates, passes through the channel, equalizes, transforms and
demaps the whole block at once.  Every draw still comes from the trial's
own seed tree, and every stacked stage gives each frame the bytes it gets
alone, so the block size changes no count.
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
from .channel import ChannelRealization, apply_channel, circular_taps, effective_channel, sample_channel
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
    zero_schedule,
)
from .sinr import sinr_eve_average
from .waveform import (
    Constellation,
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


def _seed_stream(seed: int, point_idx: int, trial_idx: int, name: str) -> np.random.SeedSequence:
    """The named child of trial (point_idx, trial_idx)'s seed tree, built alone."""
    return np.random.SeedSequence(seed, spawn_key=(point_idx, trial_idx, _STREAMS.index(name)))


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
    n = len(alice)
    if mode == "zeros":
        return zero_schedule(n, "eve")
    if mode == "random":
        idx = rng.integers(0, book.m, size=n)
        return C2Schedule(book.levels[idx], "eve")
    offset = rng.uniform(-bias, bias, size=n)
    if bias > 0.0:
        # pin one entry to the boundary so the guess error sup-norm is exact
        j = int(rng.integers(0, n))
        offset[j] = bias if rng.integers(0, 2) else -bias
    return C2Schedule(alice.values + offset, "eve")


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

    Each trial parks its own draws: its data bits, its (symbols, schedule)
    frames, and one system per channel it sampled.  A system is the
    realization plus one row per frame sent through it: the frame's index
    within the trial, the generator of the row's noise, and the DAFT rate
    that maps the row's solution to the receiver's symbols.  The trial that
    fills the block modulates, passes through the channel, equalizes,
    transforms and demaps every parked frame at once.
    """

    def __init__(self, size: int):
        self.size = size
        self.bits, self.frames, self.realizations, self.rows = [], [], [], []

    def park(self, bits: np.ndarray, frames: list, systems: list) -> bool:
        """Add one trial; True once the block is full."""
        first = len(self.frames)
        self.bits.append(bits)
        self.frames += frames
        for realization, rows in systems:
            self.realizations.append(realization)
            self.rows += [(first + frame, realization, rng, rate) for frame, rng, rate in rows]
        return len(self.bits) == self.size

    def finish(self, params: FrameParams, const: Constellation, sigma2: float) -> list[int]:
        """Bit errors per receiver summed over the block, in the order each trial parked its rows."""
        symbols, schedules = zip(*self.frames)
        sources, links, gens, rates = zip(*self.rows)
        tx = se_afdm_modulate(np.array(symbols), params, schedules)
        rx = apply_channel(SignalBlock(tx.samples[list(sources)], tx.prefix_len), links, gens, sigma2)
        cores = remove_cpp(rx, params).reshape(len(self.realizations), -1, params.n)
        s_hat = banded_mmse_equalize(cores, circular_taps(self.realizations, params), sigma2)
        received = demap(daft(s_hat, params, np.array(rates).reshape(cores.shape)), const)
        received = received.reshape(self.size, -1, received.shape[-1])
        sent = np.broadcast_to(np.array(self.bits)[:, None, :], received.shape)
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

    stream = functools.partial(_seed_stream, config.seed, point_idx, trial_idx)
    bits = np.random.default_rng(stream("data")).integers(0, 2, size=n * const.bits_per_symbol)
    x = map_bits(bits, const)

    state = _draw_lfsr_state(np.random.default_rng(stream("key")), config.lfsr_taps)
    alice = generate_schedule(Lfsr(config.lfsr_taps, state), book, n, "alice")

    def channel(name, label=""):
        rng = np.random.default_rng(stream(name))
        return sample_channel(config.paths, config.alpha_max, rng, n=n, integer_doppler=config.integer_doppler, label=label)

    realization = channel("bob_channel")
    ss_nb = stream("bob_noise")
    a0 = zero_schedule(n, "alice") if need_afdm else None
    if need_eve:
        # the all-zeros guess draws nothing, so its stream is not built
        rng_guess = None if config.eve_mode == "zeros" else np.random.default_rng(stream("eve_guess"))
        guess = _eve_guess(config.eve_mode, alice, book, rng_guess, bias)
        eve_channel = channel("eve_channel", "eve")
        ss_ne = stream("eve_noise")

    if block is not None:
        # exact CSI: the banded time-domain solve seen through the transmit
        # DAFT equals the subcarrier-domain MMSE (the receiver's own DAFT
        # cancels), so each row's solution goes through the transmit DAFT
        frames = [(x, alice)]
        bob_rows = [(0, np.random.default_rng(ss_nb), alice.values)]
        if need_afdm:
            # the plain-AFDM frame replays Bob's noise through Bob's channel:
            # a second right-hand side of his system
            frames.append((x, a0))
            bob_rows.append((1, np.random.default_rng(ss_nb), a0.values))
        systems = [(realization, bob_rows)]
        if need_eve:
            # she does not undo the transmit schedule; her DAFT at rate zero
            # followed by descramble(guess) is her DAFT at the guessed rates
            systems.append((eve_channel, [(0, np.random.default_rng(ss_ne), guess.values)]))
        if not block.park(bits, frames, systems):
            return 0, 0, 0, 0
        counts = iter(block.finish(params, const, sigma2))
        bob_err = next(counts)
        afdm_err = next(counts) if need_afdm else 0
        eve_err = next(counts) if need_eve else 0
        return bob_err, eve_err, afdm_err, block.size * bits.size

    tx = se_afdm_modulate(x, params, alice)
    ss_csi = stream("csi")
    rng_csi = np.random.default_rng(ss_csi)

    def receive(front_end, link, signal, ss_noise, sched_rx, sched_tx, rng_err):
        """Imperfect CSI perturbs the dense subcarrier matrix, so it runs
        front end, effective matrix, CSI error and dense MMSE."""
        r = apply_channel(signal, link, np.random.default_rng(ss_noise), sigma2)
        y = front_end(r, params, sched_rx)
        h = effective_channel(link, params, sched_rx, sched_tx).matrix
        h = _perturb(h, rng_err, config.csi_error_var)  # frees the exact matrix before the solve
        return mmse_equalize(y, h, sigma2)

    def errors(x_hat):
        return count_errors(bits, demap(x_hat, const))

    bob = C2Schedule(alice.values, "bob")
    bob_err = errors(receive(bob_front_end, realization, tx, ss_nb, bob, alice, rng_csi))

    eve_err = 0
    if need_eve:
        # she knows her own front end, not the transmit schedule
        scrambled_hat = receive(eve_front_end, eve_channel, tx, ss_ne, guess, None, rng_csi)
        eve_err = errors(descramble(scrambled_hat, guess))

    afdm_err = 0
    if need_afdm:
        # fresh generators from Bob's child sequences replay his noise and CSI error
        tx0 = se_afdm_modulate(x, params, a0)
        x0 = receive(bob_front_end, realization, tx0, ss_nb, zero_schedule(n, "bob"), a0, np.random.default_rng(ss_csi))
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
            block = _Block(min(size, config.trials - first))
            outcomes += [one(t, block) for t in range(first, first + block.size)]
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
