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

from .daft import FrameParams, SignalBlock, chirp_diag, prefix_phasors
from .exceptions import ContractViolation
from .keystream import C2Schedule

__all__ = [
    "ChannelRealization",
    "sample_channel",
    "apply_channel",
    "EffectiveChannel",
    "effective_channel",
    "effective_channel_closed_form",
    "coupling_kernel",
]


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """P paths as three read-only arrays of shape (P,): complex gains, integer delays, normalized Dopplers.

    Each realization keeps its Doppler phasor rows per frame geometry once
    they are built (see _doppler_rows), and every stage that passes a frame
    through it reads them.
    """

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    label: str = ""

    def __post_init__(self):
        gains = np.array(self.gains, dtype=np.complex128)
        delays = np.asarray(self.delays)
        dopplers = np.array(self.dopplers, dtype=np.float64)
        if gains.ndim != 1 or not gains.size or not gains.shape == delays.shape == dopplers.shape:
            shapes = f"{gains.shape}, {delays.shape}, {dopplers.shape}"
            raise ContractViolation(f"need P >= 1 gains, delays and dopplers of shape (P,), got {shapes}")
        with np.errstate(invalid="ignore"):  # a NaN or infinite delay casts to some integer unequal to it
            ints = delays.astype(np.intp)
        if delays.dtype.kind not in "iu" and not np.array_equal(ints, delays) or min(ints.tolist()) < 0:
            raise ContractViolation(f"delays must be nonnegative integers, got {delays}")
        if not np.isfinite(dopplers).all():
            raise ContractViolation("dopplers must be finite")
        for name, value in (("gains", gains), ("delays", ints), ("dopplers", dopplers)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_phasor_rows", {})


def _doppler_rows(realizations: Sequence[ChannelRealization], n: int, prefix: int) -> np.ndarray:
    """Row p of each realization: exp(2j*pi*dopplers[p]*t/n) on the sample clock t in [-prefix, n).

    The result has shape (R, P, prefix + n).  Each realization keeps its
    rows read-only for every later stage of the same geometry; the ones a
    stack lacks are built in one pass.  Realizations share a path count.
    """
    key = (n, prefix)
    fresh = [real for real in dict.fromkeys(realizations) if key not in real._phasor_rows]
    if fresh:
        t = np.arange(prefix + n, dtype=np.float64) - prefix
        rows = np.exp(2j * np.pi * np.array([real.dopplers for real in fresh])[..., None] * t / n)
        rows.flags.writeable = False
        for real, own in zip(fresh, rows):
            real._phasor_rows[key] = own
    return np.array([real._phasor_rows[key] for real in realizations])


def _shared_delays(realizations: Sequence[ChannelRealization]) -> list[int]:
    """The one delay profile of a stack of realizations, in path order."""
    delays = realizations[0].delays.tolist()
    if any(real.delays.tolist() != delays for real in realizations):
        raise ContractViolation("stacked channels need one delay profile")
    return delays


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
    return ChannelRealization(gains, delays, nu, label)


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
    Each row's noise is complex Gaussian of total variance sigma2, its real
    then its imaginary parts drawn from the row's generator.
    """
    if not isinstance(s, SignalBlock):
        raise ContractViolation("apply_channel expects a prefixed block; add_cpp first")
    if not sigma2 >= 0:
        raise ContractViolation(f"noise variance must be a nonnegative number, got {sigma2}")
    lone = s.samples.ndim == 1
    links = [realization] if lone else list(realization)
    samples = s.samples.reshape(-1, s.samples.shape[-1])
    if len(links) != len(samples):
        raise ContractViolation(f"{len(links)} realizations for {len(samples)} frames")
    delays = _shared_delays(links)
    if max(delays) > s.prefix_len:
        raise ContractViolation(f"path delay {max(delays)} exceeds prefix length {s.prefix_len}")
    total = samples.shape[1]
    gains = np.array([link.gains for link in links])
    # frames through one realization (Bob's scrambled and plain-AFDM rows) read one set of rows
    phasors = _doppler_rows(links, s.n, s.prefix_len)
    out = np.zeros_like(samples)
    for j, delay in enumerate(delays):
        shifted = np.zeros_like(samples)
        shifted[:, delay:] = samples[:, : total - delay]
        out += gains[:, j, None] * shifted * phasors[:, j]
    if sigma2 > 0.0:
        gens = [rng] if lone else list(rng or ())
        if len(gens) != len(links) or None in gens:
            raise ContractViolation(f"noise needs one generator per frame, got {len(gens)} for {len(links)}")
        draws = np.empty((len(gens), 2, total))
        for gen, row in zip(gens, draws):
            gen.standard_normal(out=row)
        out += np.sqrt(sigma2 / 2.0) * (draws[:, 0] + 1j * draws[:, 1])
    return SignalBlock(out.reshape(s.samples.shape), prefix_len=s.prefix_len)


def _tap_diagonals(realizations: Sequence[ChannelRealization], params: FrameParams) -> np.ndarray:
    """Per-delay diagonals of each circular channel: taps[s, l, k] multiplies s[(k - l) mod n].

    The chirp-periodic prefix turns each delayed echo into a circular shift
    with an extra unit phasor on the rows that wrap (k < l), so the map from
    prefix-free input to prefix-free output is exactly circular.  Systems
    share one delay profile; paths of equal delay add up in path order.
    """
    n = params.n
    delays = _shared_delays(realizations)
    gains = np.concatenate([real.gains for real in realizations])
    # the t >= 0 part of the rows apply_channel read on the prefixed clock
    vals = gains[:, None] * _doppler_rows(realizations, n, params.ncp)[..., params.ncp :].reshape(len(gains), n)
    wrap = _wrap_phasors(n, max(delays), params.c1)
    # each path's wrap row, system by system; not in place: NumPy multiplies
    # length-1 complex arrays in place without FMA
    vals[:, : wrap.shape[1]] = vals[:, : wrap.shape[1]] * wrap[delays * len(realizations)]
    vals = vals.reshape(len(realizations), len(delays), n)
    taps = np.zeros((len(realizations), wrap.shape[0], n), dtype=np.complex128)
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
    for gain, delay, doppler in zip(realization.gains, realization.delays, realization.dopplers):
        kernel = coupling_kernel(rows, cols, doppler, delay, params)
        # carrier-dependent phase from the delay passing through the chirps
        phase = np.mod(params.c1 * delay * delay - cols * delay / n, 1.0)
        acc += gain * np.exp(2j * np.pi * phase) * kernel / n
    return _apply_schedules(acc, sched_rx, sched_tx)
