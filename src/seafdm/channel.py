"""Doubly dispersive channel: sampling, time-domain application, DAFT-domain forms.

Delays are integer sample counts and Doppler shifts are normalized to the
subcarrier spacing (nu = f_d * N * T_s), so a path contributes
gain * s[n - l] * exp(2j*pi*nu*n/N).  Path gains absorb the delay-dependent
phase exp(-2j*pi*nu*l/N) at sampling time, which makes the time response
start at the first received sample of each echo.

A ChannelRealization is one link or a stack of links on one delay profile,
which apply_channel and circular_taps take at once; sampled links put path
i at delay i.

Two receive-side matrix forms are provided.  The operator form builds the
exact end-to-end subcarrier coupling matrix from FFTs of the circularized
time response.  The closed form evaluates the same matrix entrywise from
the Dirichlet kernel, which is what the sparsity and eavesdropper-SINR
analysis rest on.  They agree to machine precision and tests pin that.
Both take one link.  The banded time-domain solver takes circular_taps
instead: the per-delay diagonals of each circular channel, which are all
its nonzeros.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .daft import FrameParams, SignalBlock, chirp_diag, prefix_phasors
from .exceptions import ContractViolation
from .keystream import C2Schedule

__all__ = [
    "ChannelRealization",
    "sample_channel",
    "draw_paths",
    "paths_from_draws",
    "apply_channel",
    "circular_taps",
    "EffectiveChannel",
    "effective_channel",
    "effective_channel_closed_form",
    "coupling_kernel",
]


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One link, or a stack of links on one delay profile, as three read-only arrays.

    Complex gains and normalized Dopplers have shape (P,) for one link or
    (R, P) for R links, the link shape () or (R,); every link has path p at
    integer delay delays[p], shape (P,).  A realization keeps its Doppler
    phasor rows per frame geometry once they are built (see _doppler_rows),
    and every stage that passes a frame through it reads them.
    """

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    label: str = ""

    def __post_init__(self):
        gains = np.array(self.gains, dtype=np.complex128)
        delays = np.asarray(self.delays)
        dopplers = np.array(self.dopplers, dtype=np.float64)
        if gains.ndim not in (1, 2) or not gains.size or gains.shape != dopplers.shape or delays.shape != gains.shape[-1:]:
            shapes = f"{gains.shape}, {delays.shape}, {dopplers.shape}"
            raise ContractViolation(f"need gains and dopplers of shape (P,) or (R, P) and delays of shape (P,), got {shapes}")
        with np.errstate(invalid="ignore"):  # a NaN or infinite delay casts to some integer unequal to it
            ints = delays.astype(np.intp)
        if not np.array_equal(ints, delays) or min(ints.tolist()) < 0:
            raise ContractViolation(f"delays must be nonnegative integers, got {delays}")
        if not np.isfinite(dopplers).all():
            raise ContractViolation("dopplers must be finite")
        for name, value in (("gains", gains), ("delays", ints), ("dopplers", dopplers)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_phasor_rows", {})


def _doppler_rows(realization: ChannelRealization, n: int, prefix: int) -> np.ndarray:
    """Row p of each link: exp(2j*pi*dopplers[p]*t/n) on the sample clock t in [-prefix, n).

    The result has shape (R, P, prefix + n), with R = 1 for a lone link.  The
    realization keeps it read-only for every later stage of the same geometry.
    The real and imaginary parts are cos and sin of the real phase: the
    bytes np.exp gives on the complex argument, in less time.
    """
    key = (n, prefix)
    rows = realization._phasor_rows.get(key)
    if rows is None:
        t = np.arange(prefix + n, dtype=np.float64) - prefix
        nu = realization.dopplers.reshape(-1, realization.delays.size, 1)
        # the imaginary part of numpy's complex (2j*pi*nu)*t, signed zeros
        # included: 2j*pi*nu is (copysign(0, nu), 2*pi*nu + 0), so that part
        # is copysign(0, nu) + (2*pi*nu + 0)*t, which is 2*pi*nu*t but at zeros
        phase = (2.0 * np.pi * nu + 0.0) * t
        phase += np.copysign(0.0, nu)
        phase *= 1.0 / n  # numpy's complex division by n multiplies by 1/n
        rows = np.empty(phase.shape, dtype=np.complex128)
        np.cos(phase, out=rows.real)
        np.sin(phase, out=rows.imag)
        rows.flags.writeable = False
        realization._phasor_rows[key] = rows
    return rows


def _lone(realization: ChannelRealization) -> ChannelRealization:
    """The realization, if it is one link: a subcarrier matrix is built per link."""
    if realization.gains.ndim != 1:
        raise ContractViolation(f"a subcarrier matrix takes one link, not a stack of {realization.gains.shape[0]}")
    return realization


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
    average channel energy is one regardless of the path count.  This is
    the lone link of paths_from_draws on the draw_paths of one generator.
    """
    stack = paths_from_draws(draw_paths(rng, path_count)[None], alpha_max, n=n, integer_doppler=integer_doppler)
    return ChannelRealization(stack.gains[0], stack.delays, stack.dopplers[0], label)


def draw_paths(rng: np.random.Generator, path_count: int) -> np.ndarray:
    """One link's draws, shape (3, P): the angles theta, then the real and imaginary gain parts."""
    out = np.empty((3, max(path_count, 0)))
    out[0] = rng.uniform(-np.pi, np.pi, size=out.shape[1])
    rng.standard_normal(out=out[1:])  # one call draws the real parts, then the imaginary ones
    return out


def paths_from_draws(draws: np.ndarray, alpha_max: float, *, n: int, integer_doppler: bool = False) -> ChannelRealization:
    """The stacked realization of R links from their stacked draw_paths, (R, 3, P); path i sits at delay i.

    Each link gets the bytes sample_channel gives it alone.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 3 or draws.shape[1] != 3:
        raise ContractViolation(f"need stacked path draws of shape (R, 3, P), got {draws.shape}")
    path_count = draws.shape[2]
    if path_count < 1:
        raise ContractViolation("path_count must be positive")
    if path_count > n:
        raise ContractViolation("more paths than samples in a frame")
    if alpha_max < 0:
        raise ContractViolation("alpha_max must be nonnegative")
    theta, re, im = draws[:, 0], draws[:, 1], draws[:, 2]
    nu = alpha_max * np.cos(theta)
    if integer_doppler:
        nu = np.rint(nu)
    scale = np.sqrt(0.5 / path_count)
    h = scale * (re + 1j * im)
    delays = np.arange(path_count)
    return ChannelRealization(h * np.exp(-2j * np.pi * nu * delays / n), delays, nu)


def apply_channel(
    s: SignalBlock,
    realization: ChannelRealization,
    noise: np.random.Generator | np.ndarray | None,
    sigma2: float,
) -> SignalBlock:
    """Push prefixed frames through the channel by direct time-domain convolution.

    Works on the whole prefixed block so prefix contamination is physical,
    not modeled.  The longest path delay must fit inside the prefix.  The
    frames lead with the link shape, () or (R,), and each link carries the
    frame rows after it.  Each frame gets complex Gaussian noise of total
    variance sigma2 from its standard normal draws, real parts then
    imaginary parts: ``noise`` holds them, shape (*frames, 2, total) with
    the frames' leading shape, where an axis of length 1 shares its draws
    with every frame along it; a lone frame may take its generator instead,
    which draws them.
    """
    if not isinstance(s, SignalBlock):
        raise ContractViolation("apply_channel expects a prefixed block; add_cpp first")
    if not sigma2 >= 0:
        raise ContractViolation(f"noise variance must be a nonnegative number, got {sigma2}")
    links = realization.gains.shape[:-1]
    if s.samples.shape[: len(links)] != links or s.samples.ndim == len(links):
        raise ContractViolation(f"frames of shape {s.samples.shape} do not lead with the link shape {links}")
    delays = realization.delays.tolist()
    if max(delays) > s.prefix_len:
        raise ContractViolation(f"path delay {max(delays)} exceeds prefix length {s.prefix_len}")
    phasors = _doppler_rows(realization, s.n, s.prefix_len)
    frames, total = s.samples.shape[:-1], s.samples.shape[-1]
    samples = s.samples.reshape(len(phasors), -1, total)
    gains = realization.gains.reshape(len(phasors), -1)
    out = np.zeros_like(samples)
    for j, delay in enumerate(delays):
        out[..., delay:] += gains[:, j, None, None] * samples[..., : total - delay] * phasors[:, j, None, delay:]
    out = out.reshape(s.samples.shape)
    if sigma2 > 0.0:
        want = (*frames, 2, total)
        if isinstance(noise, np.random.Generator) and out.size == total:
            noise = noise.standard_normal(want)
        shape = getattr(noise, "shape", ())
        shared = all(have in (1, size) for have, size in zip(shape, frames))  # an axis of length 1 shares its draws
        if len(shape) != len(want) or shape[-2:] != want[-2:] or not shared:
            got = shape or type(noise).__name__
            raise ContractViolation(f"noise needs draws of shape {want} or a lone frame's generator, got {got}")
        out += np.sqrt(sigma2 / 2.0) * (noise[..., 0, :] + 1j * noise[..., 1, :])
    return SignalBlock(out, prefix_len=s.prefix_len)


def circular_taps(realization: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Per-delay diagonals of each link's circular channel: taps[s, l, k] multiplies s[(k - l) mod n].

    The chirp-periodic prefix turns each delayed echo into a circular shift
    with an extra unit phasor on the rows that wrap (k < l), so the map from
    prefix-free input to prefix-free output is exactly circular.  The result
    has shape (R, L + 1, n), with R = 1 for a lone link; paths of equal
    delay add up in path order.
    """
    n = params.n
    delays = realization.delays.tolist()
    rows = _doppler_rows(realization, n, params.ncp)
    count = len(rows)
    # the t >= 0 part of the rows apply_channel read on the prefixed clock
    vals = realization.gains.reshape(-1, 1) * rows[..., params.ncp :].reshape(count * len(delays), n)
    wrap = _wrap_phasors(n, max(delays), params.c1)
    # each path's wrap row, link by link; not in place: NumPy multiplies
    # length-1 complex arrays in place without FMA
    vals[:, : wrap.shape[1]] = vals[:, : wrap.shape[1]] * wrap[delays * count]
    vals = vals.reshape(count, len(delays), n)
    taps = np.zeros((count, wrap.shape[0], n), dtype=np.complex128)
    for path, delay in enumerate(delays):
        taps[:, delay] += vals[:, path]
    return taps


@functools.lru_cache(maxsize=32)
def _wrap_phasors(n: int, max_delay: int, c1: float) -> np.ndarray:
    """Row l: the prefix phasor on the first l samples of an echo delayed by l, then ones."""
    delay = np.arange(max_delay + 1)[:, None]
    k = np.arange(min(max_delay, n))
    # an echo delayed by l reads prefix position k - l at sample k < l
    prefix = prefix_phasors(n, max_delay, c1)
    out = np.where(k < delay, prefix[np.minimum(max_delay + k - delay, max_delay - 1)], 1.0)
    out.flags.writeable = False
    return out


def _time_domain_matrix(realization: ChannelRealization, params: FrameParams) -> np.ndarray:
    """Equivalent circular matrix acting on the prefix-free transmit block."""
    n = params.n
    rows = np.arange(n)
    mat = np.zeros((n, n), dtype=np.complex128)
    for delay, diagonal in enumerate(circular_taps(_lone(realization), params)[0]):
        mat[rows, (rows - delay) % n] += diagonal
    return mat


@dataclass(frozen=True, eq=False)
class EffectiveChannel:
    """Subcarrier-domain coupling matrix from transmit symbols to receiver output."""

    matrix: np.ndarray


def _apply_schedules(acc: np.ndarray, sched_rx: C2Schedule, sched_tx: C2Schedule | None) -> EffectiveChannel:
    """Receive schedule phasors on rows, conjugate transmit schedule phasors on columns, in place.

    Each product keeps its operand order: with FMA, swapping a complex
    product's factors can change its bytes.  chirp_diag rejects a schedule
    whose length is not the frame size.
    """
    n = acc.shape[0]
    np.multiply(chirp_diag(sched_rx.values, n)[:, None], acc, out=acc)
    if sched_tx is not None:
        np.multiply(acc, np.conj(chirp_diag(sched_tx.values, n))[None, :], out=acc)
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
    # every stage writes into the matrix _time_domain_matrix returns
    work = _time_domain_matrix(realization, params)
    lam1 = chirp_diag(params.c1, n)
    np.multiply(lam1[:, None], work, out=work)
    np.multiply(work, np.conj(lam1)[None, :], out=work)
    np.fft.fft(work, axis=0, norm="ortho", out=work)
    np.fft.ifft(work, axis=1, norm="ortho", out=work)
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
    for gain, delay, doppler in zip(_lone(realization).gains, realization.delays, realization.dopplers):
        kernel = coupling_kernel(rows, cols, doppler, delay, params)
        # carrier-dependent phase from the delay passing through the chirps
        phase = np.mod(params.c1 * delay * delay - cols * delay / n, 1.0)
        acc += gain * np.exp(2j * np.pi * phase) * kernel / n
    return _apply_schedules(acc, sched_rx, sched_tx)
