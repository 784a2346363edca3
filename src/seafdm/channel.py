"""Doubly dispersive channel: sampling, time-domain application, DAFT-domain forms.

Delays are integer sample counts and Doppler shifts are normalized to the
subcarrier spacing (nu = f_d * N * T_s), so a path contributes
gain * s[n - l] * exp(2j*pi*nu*n/N).  Path gains absorb the delay-dependent
phase exp(-2j*pi*nu*l/N) at sampling time, which makes the time response
start at the first received sample of each echo.

Two receive-side matrix forms are provided.  The operator form builds the
exact end-to-end subcarrier coupling matrix from FFTs of the circularized
time response.  The closed form evaluates the same matrix entrywise from
the Dirichlet kernel, which is what the sparsity and eavesdropper-SINR
analysis rest on.  They agree to machine precision and tests pin that.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .daft import FrameParams, SignalBlock, chirp_diag
from .exceptions import ContractViolation
from .keystream import C2Schedule

__all__ = [
    "PathSpec",
    "ChannelRealization",
    "sample_channel",
    "apply_channel",
    "awgn",
    "EffectiveChannel",
    "effective_channel",
    "effective_channel_closed_form",
    "coupling_kernel",
]


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: complex gain, integer delay, normalized Doppler."""

    gain: complex
    delay: int
    doppler: float

    def __post_init__(self):
        if self.delay < 0 or self.delay != int(self.delay):
            raise ContractViolation(f"delay must be a nonnegative integer, got {self.delay}")
        if not np.isfinite(self.doppler):
            raise ContractViolation("doppler must be finite")


@dataclass(frozen=True)
class ChannelRealization:
    paths: tuple[PathSpec, ...]
    label: str = ""

    def __post_init__(self):
        if not self.paths:
            raise ContractViolation("a realization needs at least one path")

    @property
    def max_delay(self) -> int:
        return max(p.delay for p in self.paths)


def sample_channel(
    path_count: int,
    alpha_max: float,
    rng: np.random.Generator,
    *,
    n: int,
    integer_doppler: bool = False,
    label: str = "",
) -> ChannelRealization:
    """Draw one Rayleigh multipath realization with Jakes-distributed Doppler.

    Path i sits at delay i, its Doppler is alpha_max * cos(theta) with theta
    uniform on [-pi, pi], and gains are i.i.d. CN(0, 1/path_count) so the
    average channel energy is one regardless of the path count.
    """
    if path_count < 1:
        raise ContractViolation("path_count must be positive")
    if path_count > n:
        raise ContractViolation("more paths than samples in a frame")
    if alpha_max < 0:
        raise ContractViolation("alpha_max must be nonnegative")
    theta = rng.uniform(-np.pi, np.pi, size=path_count)
    nu = alpha_max * np.cos(theta)
    if integer_doppler:
        nu = np.rint(nu)
    scale = np.sqrt(0.5 / path_count)
    h = scale * (rng.standard_normal(path_count) + 1j * rng.standard_normal(path_count))
    delays = np.arange(path_count)
    gains = h * np.exp(-2j * np.pi * nu * delays / n)
    paths = tuple(
        PathSpec(gain=complex(g), delay=int(l), doppler=float(v))
        for g, l, v in zip(gains, delays, nu)
    )
    return ChannelRealization(paths=paths, label=label)


def awgn(rng, size: int, sigma2: float) -> np.ndarray:
    """Complex Gaussian noise of total variance sigma2; one row per generator of a sequence."""
    if sigma2 < 0:
        raise ContractViolation("noise variance must be nonnegative")
    lone = isinstance(rng, np.random.Generator)
    gens = [rng] if lone else list(rng)
    if sigma2 == 0.0:
        return np.zeros(size if lone else (len(gens), size), dtype=np.complex128)
    draws = np.empty((len(gens), 2, size))
    for gen, row in zip(gens, draws):
        gen.standard_normal(out=row)
    noise = np.sqrt(sigma2 / 2.0) * (draws[:, 0] + 1j * draws[:, 1])
    return noise[0] if lone else noise


def apply_channel(
    s: SignalBlock,
    realization: ChannelRealization | Sequence[ChannelRealization],
    rng: np.random.Generator | Sequence[np.random.Generator] | None,
    sigma2: float,
) -> SignalBlock:
    """Push prefixed frames through the channel by direct time-domain convolution.

    Works on the whole prefixed block so prefix contamination is physical,
    not modeled.  The longest path delay must fit inside the prefix.  Frames
    stacked in rows take one realization and one generator per row, all
    realizations with one delay profile; each row gets what it gets alone.
    """
    if not isinstance(s, SignalBlock):
        raise ContractViolation("apply_channel expects a prefixed block; add_cpp first")
    lone = s.samples.ndim == 1
    links = [realization] if lone else list(realization)
    samples = s.samples.reshape(-1, s.samples.shape[-1])
    if len(links) != len(samples):
        raise ContractViolation(f"{len(links)} realizations for {len(samples)} frames")
    delays = [p.delay for p in links[0].paths]
    if any([p.delay for p in link.paths] != delays for link in links):
        raise ContractViolation("stacked frames need realizations with one delay profile")
    if max(delays) > s.prefix_len:
        raise ContractViolation(f"path delay {max(delays)} exceeds prefix length {s.prefix_len}")
    n = s.n
    total = samples.shape[1]
    gains = np.array([[p.gain for p in link.paths] for link in links], dtype=np.complex128)
    rotations = 2j * np.pi * np.array([[p.doppler for p in link.paths] for link in links])
    # sample clock: prefix samples sit at negative indices
    t = np.arange(total, dtype=np.float64) - s.prefix_len
    out = np.zeros_like(samples)
    for j, delay in enumerate(delays):
        shifted = np.zeros_like(samples)
        shifted[:, delay:] = samples[:, : total - delay]
        out += gains[:, j, None] * shifted * np.exp(rotations[:, j, None] * t / n)
    if sigma2 > 0.0:
        gens = [rng] if lone else list(rng or ())
        if len(gens) != len(links) or None in gens:
            raise ContractViolation(f"noise needs one generator per frame, got {len(gens)} for {len(links)}")
        out += awgn(gens, total, sigma2)
    return SignalBlock(out.reshape(s.samples.shape), prefix_len=s.prefix_len)


def _tap_diagonals(realizations: Sequence[ChannelRealization], params: FrameParams) -> np.ndarray:
    """Per-delay diagonals of each circular channel: taps[s, l, k] multiplies s[(k - l) mod n].

    The chirp-periodic prefix turns each delayed echo into a circular shift
    with an extra unit phasor on the rows that wrap (k < l), so the map from
    prefix-free input to prefix-free output is exactly circular.  Systems
    share one max_delay L; paths of equal delay add up in path order.
    """
    n = params.n
    paths = [(s, p) for s, real in enumerate(realizations) for p in real.paths]
    system = np.array([s for s, _ in paths])
    delay = np.array([p.delay for _, p in paths])
    gain = np.array([p.gain for _, p in paths], dtype=np.complex128)
    rotation = 2j * np.pi * np.array([p.doppler for _, p in paths])
    vals = gain[:, None] * np.exp(rotation[:, None] * np.arange(n) / n)
    wrap = _wrap_phasors(n, int(delay.max()), params.c1)
    # not in place: NumPy multiplies length-1 complex arrays in place without FMA
    vals[:, : wrap.shape[1]] = vals[:, : wrap.shape[1]] * wrap[delay]
    taps = np.zeros((len(realizations) * wrap.shape[0], n), dtype=np.complex128)
    index = (system * wrap.shape[0] + delay).tolist()
    if len(set(index)) == len(index):
        taps[index] += vals
    else:  # equal delays add in path order (np.add.at would too, at about 0.15 ms a call)
        for row, diagonal in zip(index, vals):
            taps[row] += diagonal
    return taps.reshape(len(realizations), wrap.shape[0], n)


@functools.lru_cache(maxsize=32)
def _wrap_phasors(n: int, max_delay: int, c1: float) -> np.ndarray:
    """Row l: the prefix phasor on the first l samples of an echo delayed by l, then ones."""
    delay = np.arange(max_delay + 1)[:, None]
    k = np.arange(min(max_delay, n))
    phase = np.mod(c1 * (n * n - 2.0 * n * (delay - k)), 1.0)
    out = np.where(k < delay, np.exp(-2j * np.pi * phase), 1.0)
    out.flags.writeable = False
    return out


def _time_domain_matrix(realization: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Equivalent circular matrix acting on the prefix-free transmit block."""
    n = params.n
    rows = np.arange(n)
    mat = np.zeros((n, n), dtype=np.complex128)
    for delay, diagonal in enumerate(_tap_diagonals([realization], params)[0]):
        mat[rows, (rows - delay) % n] += diagonal
    return mat


@dataclass(frozen=True)
class EffectiveChannel:
    """Subcarrier-domain coupling matrix from transmit symbols to receiver output."""

    matrix: np.ndarray


def _apply_schedules(acc: np.ndarray, sched_rx: C2Schedule, sched_tx: C2Schedule | None) -> EffectiveChannel:
    """Receive schedule phasors on rows, conjugate transmit schedule phasors on columns.

    chirp_diag rejects a schedule whose length is not the frame size.
    """
    n = acc.shape[0]
    acc = chirp_diag(sched_rx.values, n)[:, None] * acc
    if sched_tx is not None:
        acc = acc * np.conj(chirp_diag(sched_tx.values, n))[None, :]
    return EffectiveChannel(acc)


def effective_channel(
    realization: ChannelRealization,
    params: FrameParams,
    sched_rx: C2Schedule,
    sched_tx: C2Schedule | None = None,
) -> EffectiveChannel:
    """End-to-end subcarrier coupling matrix, built by operator composition.

    ``sched_tx`` is the schedule that actually shaped the transmitted frame.
    Passing ``None`` models a receiver that does not undo the transmit
    scrambling at all: its symbol estimate targets the scrambled frame
    x * exp(2j*pi*c2_tx[q]*q**2), which is the eavesdropper's situation
    (her own front-end guess is hers to undo losslessly, so it drops out).
    """
    n = params.n
    ht = _time_domain_matrix(realization, params)
    lam1 = chirp_diag(params.c1, n)
    work = lam1[:, None] * ht * np.conj(lam1)[None, :]
    work = np.fft.fft(work, axis=0, norm="ortho")
    work = np.fft.ifft(work, axis=1, norm="ortho")
    return _apply_schedules(work, sched_rx, sched_tx)


def _dirichlet_sum(z: np.ndarray, n: int) -> np.ndarray:
    """sum_{k=0}^{n-1} exp(-2j*pi*z*k/n), accurate near every integer z.

    The sum has period n in z, so it is evaluated on the offset f reduced to
    [-n/2, n/2] as exp(-1j*pi*f*(n-1)/n) * sin(pi*f) / sin(pi*f/n).  Unlike
    the ratio of two phasor differences this never cancels: sin(pi*f) is
    taken on f minus its nearest integer, so it keeps full relative
    precision at the kernel's zeros.  Within 1e-9 of the peak the sine ratio
    equals n to a relative 2e-18 (and would underflow for subnormal f), so
    it is n there, while the phase is kept.
    """
    z = np.asarray(z, dtype=np.float64)
    f = z - n * np.rint(z / n)
    whole = np.rint(f)
    sin_pi_f = np.sin(np.pi * (f - whole)) * (1.0 - 2.0 * np.mod(whole, 2.0))
    peak = np.abs(f) < 1e-9
    ratio = np.where(peak, float(n), sin_pi_f / np.sin(np.pi * np.where(peak, 1.0, f) / n))
    return np.exp(-1j * np.pi * f * (n - 1) / n) * ratio


def coupling_kernel(p, q, nu: float, delay: int, params: FrameParams) -> np.ndarray:
    """Magnitude profile of the subcarrier coupling for one path.

    Row p couples to column q through a Dirichlet kernel centered where
    p - q - nu + 2*N*c1*delay is a multiple of N; with integer Doppler and
    2*N*c1 integer the kernel collapses to a single column per row.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = params.n
    z = p - q - nu + 2.0 * n * params.c1 * delay
    return _dirichlet_sum(z, n)


def effective_channel_closed_form(
    realization: ChannelRealization,
    params: FrameParams,
    sched_rx: C2Schedule,
    sched_tx: C2Schedule | None = None,
) -> EffectiveChannel:
    """Entrywise evaluation of the subcarrier coupling matrix.

    Per path:  H[p, q] = (1/N) * exp(2j*pi*(c1*l*l - q*l/N)) * D(p - q - nu + 2*N*c1*l)
    with D the length-N Dirichlet sum, then the receive schedule phasors on
    rows and the conjugate transmit schedule phasors on columns.
    """
    n = params.n
    rows = np.arange(n, dtype=np.float64)[:, None]
    cols = np.arange(n, dtype=np.float64)[None, :]
    acc = np.zeros((n, n), dtype=np.complex128)
    for path in realization.paths:
        kernel = coupling_kernel(rows, cols, path.doppler, path.delay, params)
        # carrier-dependent phase from the delay passing through the chirps
        phase = np.mod(params.c1 * path.delay * path.delay - cols * path.delay / n, 1.0)
        acc += path.gain * np.exp(2j * np.pi * phase) * kernel / n
    return _apply_schedules(acc, sched_rx, sched_tx)
