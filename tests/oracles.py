"""Reference implementations the tests compare the simulator against.

None of these is on the simulator's run path: each is the slow, literal
form of something the package computes another way, or reads back what
it writes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from seafdm import (
    C2Schedule,
    ConfigError,
    Lfsr,
    apply_channel,
    bob_front_end,
    descramble,
    effective_channel_closed_form,
    eve_front_end,
    map_bits,
    sample_channel,
    se_afdm_modulate,
    zero_schedule,
)
from seafdm.daft import chirp_diag
from seafdm.harness import _CSV_COLUMNS, TrialRecord


def daft_matrix(n: int, c1: float, c2) -> np.ndarray:
    """Dense analysis matrix L(c2) F L(c1); c2 scalar or per-subcarrier."""
    f = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    return chirp_diag(c2, n)[:, None] * f * chirp_diag(c1, n)[None, :]


def sinr_eve_measured(trials: int, p: int, gamma: float, book, rng: np.random.Generator) -> float:
    """Monte Carlo counterpart of ``seafdm.sinr.sinr_eve_symbol``.

    Draws the unknown rate continuous-uniform on [-c2max, c2max], measures
    the empirical residual power E|exp(2j*pi*c2*p**2) - 1|^2, and returns
    1 / (that + 1/gamma) for unit-energy symbols.
    """
    c2 = rng.uniform(-book.c2max, book.c2max, size=trials)
    residual = np.exp(2j * np.pi * c2 * float(p * p)) - 1.0
    interference = float(np.mean(np.abs(residual) ** 2))
    if interference == 0.0:
        return float(gamma)
    return float(1.0 / (interference + 1.0 / gamma))


def sinr_eve_saturated(n: int, gamma: float) -> float:
    """Large-c2max limit of the frame average: (gamma + (n-1)*gamma/(2*gamma+1))/n.

    Every scrambled subcarrier floors at gamma/(2*gamma+1), which is below
    one (0 dB) for any gamma; only the untouched p = 0 term keeps gamma.
    At high SNR the floor approaches 1/2, hence the -3 dB wall.
    """
    floor = gamma / (2.0 * gamma + 1.0)
    return float((gamma + (n - 1) * floor) / n)


def mmse_f2py(y: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    """Counterpart of ``seafdm.detection.mmse_equalize``: a matmul Gram and scipy's f2py Cholesky.

    cho_factor and cho_solve run LAPACK zpotrf/zpotrs while holding the GIL.
    """
    gram = h @ h.conj().T
    gram[np.diag_indices_from(gram)] += sigma2
    factor = cho_factor(gram, lower=True, check_finite=False)
    return h.conj().T @ cho_solve(factor, y, check_finite=False)


def demap_argmin(x_hat: np.ndarray, spec) -> np.ndarray:
    """Counterpart of ``seafdm.waveform.demap``: the distance to every point, first-index argmin."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    dist = np.abs(x_hat[..., None] - spec.points)
    labels = np.argmin(dist, axis=-1)
    k = spec.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    bits = (labels[..., None] >> shifts) & 1
    return bits.reshape(*labels.shape[:-1], -1).astype(np.uint8)


def gram_band(taps: np.ndarray, sigma2: float) -> np.ndarray:
    """Counterpart of ``seafdm.detection._gram_band``: every kept Gram term scattered by ``np.bincount``.

    taps has shape (S, L + 1, n).  G[k, j] gets taps[l, k] * conj(taps[m, j])
    with j = (k + m - l) mod n for every delay pair (l, m); the folded order
    puts k at position 2k for k < (n + 1) / 2 and n - 1 - k at 2k + 1, and
    the lower band keeps band[a - b, b] = G'[a, b] for a >= b.  Each cell
    sums its terms in (l, m, k) order, starting from zero.
    """
    count, rows, n = taps.shape
    delays = np.arange(rows)
    idx = np.arange(n)
    pos = np.where(idx < (n + 1) // 2, 2 * idx, 2 * (n - 1 - idx) + 1)
    cols = (idx + delays[None, :, None] - delays[:, None, None]) % n
    left = np.broadcast_to(delays[:, None, None] * n + idx, cols.shape)
    right = delays[None, :, None] * n + cols
    a, b = pos, pos[cols]
    keep = a >= b
    band_rows = min(2 * (rows - 1), n - 1) + 1
    width = count * n + band_rows - 1
    target = (((a - b) * width + b)[keep] + (np.arange(count) * n)[:, None]).reshape(-1)
    flat = taps.reshape(count, -1)
    # np.take returns arrays of their own, so a product large enough for NumPy
    # to compute in place lands in the left factor; a fancy-indexed left
    # factor would make it reuse the right one and swap the factors, which
    # can flip the sign of the rounding left in a diagonal imaginary part
    vals = np.take(flat, left[keep], axis=1) * np.conj(np.take(flat, right[keep], axis=1))
    band = np.empty((band_rows, width), dtype=np.complex128)
    band.real.flat = np.bincount(target, vals.real.ravel(), band.size)
    band.imag.flat = np.bincount(target, vals.imag.ravel(), band.size)
    band[0] += sigma2
    band[0, count * n :] = 1.0
    return band


def lfsr_step(reg) -> int:
    """Counterpart of ``seafdm.Lfsr.next_bits``: advance the register one tick and return the emitted bit.

    The emitted bit is the state's least significant one, and the parity of
    the state bits at the non-leading tap exponents shifts in at the top.
    """
    out = reg.state & 1
    feedback = sum((reg.state >> t) & 1 for t in reg.taps[1:]) & 1
    reg.state = (reg.state >> 1) | (feedback << (reg.degree - 1))
    return out


def replay_trial(config, point_idx: int, trial_idx: int) -> tuple[int, int, int]:
    """Counterpart of one trial of ``seafdm.harness.run_scenario``: its (bob, other, bits) error counts.

    Written from the README's reproducibility contract in the literal forms:
    the trial's seed tree by spawn(8) with a Generator on each child, the
    register stepped one bit at a time, each receiver's subcarrier matrix in
    closed form with its estimate error added, and a direct solve of the
    MMSE.  The other receiver is the plain-AFDM frame on bob-vs-afdm-ber,
    through Bob's link with his noise draws and his estimate error, and the
    interceptor elsewhere, who descrambles her estimate by her guess.
    """
    if len(config.eve_bias) > 1:
        snr_db, bias = config.snr_db[0], config.eve_bias[point_idx]
    else:
        snr_db, bias = config.snr_db[point_idx], config.eve_bias[0]
    sigma2 = 10.0 ** (-snr_db / 10.0)
    names = ("data", "key", "bob_channel", "bob_noise", "eve_channel", "eve_noise", "eve_guess", "csi")
    tree = np.random.SeedSequence(config.seed, spawn_key=(point_idx, trial_idx)).spawn(8)
    rng = {name: np.random.Generator(np.random.PCG64(child)) for name, child in zip(names, tree)}
    params, book, const, n = config.frame_params, config.codebook, config.constellation, config.n

    bits = rng["data"].integers(0, 2, size=n * const.bits_per_symbol)
    degree = max(config.lfsr_taps)
    state = int.from_bytes(rng["key"].bytes((degree + 7) // 8), "little") & ((1 << degree) - 1)
    reg, k = Lfsr(config.lfsr_taps, state or 1), book.bits_per_subcarrier
    key = np.array([lfsr_step(reg) for _ in range(n * k)]).reshape(n, k)
    alice = book.levels[key @ (1 << np.arange(k - 1, -1, -1))]

    def channel(name):
        return sample_channel(config.paths, config.alpha_max, rng[name], n=n, integer_doppler=config.integer_doppler)

    def noise(name):
        return rng[name].standard_normal((2, n + params.ncp)) if sigma2 > 0.0 else None

    def error():  # the csi generator's next (n, n) real parts, then imaginary parts
        if config.csi_error_var == 0.0:
            return 0.0
        real = rng["csi"].standard_normal((n, n))
        return np.sqrt(config.csi_error_var / 2.0) * (real + 1j * rng["csi"].standard_normal((n, n)))

    def receive(front_end, link, tx, draws, sched_rx, sched_tx, err):
        y = front_end(apply_channel(tx, link, draws, sigma2), params, sched_rx)
        h = effective_channel_closed_form(link, params, sched_rx, sched_tx).matrix + err
        return h.conj().T @ np.linalg.solve(h @ h.conj().T + sigma2 * np.eye(n), y)

    def errors(x_hat):
        return int(np.count_nonzero(demap_argmin(x_hat, const) != bits))

    x = map_bits(bits, const)
    sched = C2Schedule(alice, "alice")
    tx = se_afdm_modulate(x, params, sched)
    link, draws, err = channel("bob_channel"), noise("bob_noise"), error()
    bob = errors(receive(bob_front_end, link, tx, draws, C2Schedule(alice, "bob"), sched, err))
    if config.scenario == "bob-vs-afdm-ber":
        plain = zero_schedule(n, "alice")
        other = receive(bob_front_end, link, se_afdm_modulate(x, params, plain), draws, zero_schedule(n, "bob"), plain, err)
        return bob, errors(other), bits.size
    # random: codebook level indices; biased: offsets from Alice's rates, one pinned to +-bias
    draw = rng["eve_guess"]
    if config.eve_mode == "random":
        guess = book.levels[draw.integers(0, book.m, size=n)]
    elif config.eve_mode == "biased":
        offset = draw.uniform(-bias, bias, size=n)
        if bias > 0.0:
            j = int(draw.integers(0, n))
            offset[j] = bias if draw.integers(0, 2) else -bias
        guess = alice + offset
    else:
        guess = np.zeros(n)
    eve = C2Schedule(guess, "eve")
    scrambled = receive(eve_front_end, channel("eve_channel"), tx, noise("eve_noise"), eve, None, error())
    return bob, errors(descramble(scrambled, eve)), bits.size


def read_csv(path: str | Path) -> list[TrialRecord]:
    """The records a CSV of ``seafdm.harness.emit_csv`` holds (wall times stay in the sidecar)."""
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
