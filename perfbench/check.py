"""Output check: replay a workload's first trial outside the harness.

``replay_first_trial`` rebuilds trial (point 0, trial 0) from the documented
seed tree, SeedSequence(seed, spawn_key=(point, trial)).spawn(8), with the
children consumed in the documented order (data bits, keystream seed, Bob
channel, Bob noise, Eve channel, Eve noise, Eve guess, channel estimation
error).  It uses the closed-form effective channel and a direct dense solve
where the harness uses the operator-product matrix and a Cholesky solve, so
it checks the harness's wiring and its solver against independent code.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from seafdm import (
    C2Schedule,
    FrameParams,
    Lfsr,
    apply_channel,
    bob_front_end,
    build_codebook,
    count_errors,
    demap,
    descramble,
    effective_channel_closed_form,
    eve_front_end,
    generate_schedule,
    map_bits,
    run_scenario,
    sample_channel,
    se_afdm_modulate,
    zero_schedule,
)
from seafdm.waveform import constellation_by_name

RECEIVERS = ("bob", "eve", "afdm")


def counts_from_record(record) -> dict[str, int | None]:
    """Integer error counts of one ``TrialRecord`` (None where not simulated)."""
    out = {}
    for name in RECEIVERS:
        ber = getattr(record, f"{name}_ber")
        out[name] = None if np.isnan(ber) else int(round(ber * record.bit_count))
    return out


def _mmse_direct(y: np.ndarray, h: np.ndarray, sigma2: float) -> np.ndarray:
    gram = h @ h.conj().T + sigma2 * np.eye(h.shape[0])
    return h.conj().T @ np.linalg.solve(gram, y)


def _perturb(h: np.ndarray, rng: np.random.Generator, var: float) -> np.ndarray:
    if var == 0.0:
        return h
    scale = np.sqrt(var / 2.0)
    return h + scale * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))


def replay_first_trial(config) -> dict[str, int | None]:
    """Error counts of trial (0, 0) of a single-point BER scenario."""
    if config.scenario not in ("bob-vs-afdm-ber", "eve-ber", "csi-error-ber"):
        raise ValueError(f"no replay for scenario {config.scenario!r}")
    if config.eve_mode != "zeros":
        raise ValueError("the replay models the all-zeros eavesdropper guess only")
    n = config.n
    sigma2 = 10.0 ** (-config.snr_db[0] / 10.0)
    ncp = config.ncp if config.ncp is not None else config.paths - 1
    params = FrameParams.for_profile(n, config.alpha_max, ncp, config.modulation)
    book = build_codebook(config.c2max, config.m)
    const = constellation_by_name(config.modulation)
    tree = np.random.SeedSequence(config.seed, spawn_key=(0, 0)).spawn(8)
    ss_data, ss_key, ss_chb, ss_nb, ss_che, ss_ne, _ss_eve, ss_csi = tree

    bits = np.random.default_rng(ss_data).integers(0, 2, size=n * const.bits_per_symbol)
    x = map_bits(bits, const)
    degree = max(config.lfsr_taps)
    raw = np.random.default_rng(ss_key).bytes((degree + 7) // 8)
    state = (int.from_bytes(raw, "little") & ((1 << degree) - 1)) or 1
    alice = generate_schedule(Lfsr(config.lfsr_taps, state), book, n, "alice")
    bob = C2Schedule(alice.values, "bob")
    rng_csi = np.random.default_rng(ss_csi)

    def channel(ss, label=""):
        return sample_channel(
            config.paths,
            config.alpha_max,
            np.random.default_rng(ss),
            n=n,
            integer_doppler=config.integer_doppler,
            label=label,
        )

    def receive(front_end, realization, ss_noise, tx, sched_rx, sched_tx):
        r = apply_channel(tx, realization, np.random.default_rng(ss_noise), sigma2)
        y = front_end(r, params, sched_rx)
        h = effective_channel_closed_form(realization, params, sched_rx, sched_tx).matrix
        return _mmse_direct(y, _perturb(h, rng_csi, config.csi_error_var), sigma2)

    realization = channel(ss_chb)
    tx = se_afdm_modulate(x, params, alice)
    counts = {name: None for name in RECEIVERS}
    x_bob = receive(bob_front_end, realization, ss_nb, tx, bob, alice)
    counts["bob"] = count_errors(bits, demap(x_bob, const))

    if config.scenario in ("eve-ber", "csi-error-ber"):
        guess = zero_schedule(n, "eve")
        x_eve = receive(eve_front_end, channel(ss_che, "eve"), ss_ne, tx, guess, None)
        counts["eve"] = count_errors(bits, demap(descramble(x_eve, guess), const))
    else:
        a0, b0 = zero_schedule(n, "alice"), zero_schedule(n, "bob")
        tx0 = se_afdm_modulate(x, params, a0)
        x_afdm = receive(bob_front_end, realization, ss_nb, tx0, b0, a0)
        counts["afdm"] = count_errors(bits, demap(x_afdm, const))
    return counts


def first_trial_record(config):
    """``run_scenario`` on the config cut to its first trial and first point."""
    return run_scenario(replace(config, trials=1, snr_db=config.snr_db[:1]))[0]


def mismatches(harness: dict, replay: dict) -> list[str]:
    """Receivers whose harness and replay error counts differ, as messages."""
    return [
        f"{name}: harness {harness[name]} errors, replay {replay[name]}"
        for name in RECEIVERS
        if harness[name] != replay[name]
    ]
