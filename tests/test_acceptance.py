"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines on
passing tests too; pytest only echoes captured output for failures.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from seafdm import (
    ExperimentConfig,
    FrameParams,
    build_codebook,
    effective_channel,
    effective_channel_closed_form,
    run_scenario,
    sample_channel,
    zero_schedule,
)
from seafdm.channel import ChannelRealization
from seafdm.daft import daft, idaft
from seafdm.harness import emit_csv
from seafdm.keystream import C2Schedule
from seafdm.sinr import sinr_eve_average, sinr_eve_symbol

from oracles import daft_matrix, sinr_eve_measured


def _verdict(ok: bool, tag: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag} {detail}"
    print(line)
    return line


def _binomial_se(ber: float, bits: int) -> float:
    return float(np.sqrt(ber * (1.0 - ber) / bits))


def _within_two_se(ber_a: float, ber_b: float, bits_a: int, bits_b: int) -> tuple[bool, float]:
    """|a - b| against twice the combined binomial standard error."""
    comb = np.hypot(_binomial_se(ber_a, bits_a), _binomial_se(ber_b, bits_b))
    diff = abs(ber_a - ber_b)
    if comb == 0.0:
        return diff == 0.0, 0.0 if diff == 0.0 else np.inf
    return diff <= 2.0 * comb, diff / (2.0 * comb)


def test_a01_transform_identity_and_unitarity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    worst_uni = 0.0
    for n in (8, 16, 64, 256):
        eye = np.eye(n)
        for _ in range(25):
            c1 = rng.uniform(0.01, 0.49)
            values = rng.uniform(-0.5, 0.5, size=n)
            params = FrameParams(n=n, ncp=0, c1=c1)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            back = daft(idaft(x, params, values), params, values)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))
            m = daft_matrix(n, c1, values)
            worst_uni = max(worst_uni, float(np.max(np.abs(m.conj().T @ m - eye))))
    elapsed = time.perf_counter() - start
    ok = worst_rt <= 1e-10 and worst_uni <= 1e-10 and elapsed < 10
    _verdict(
        ok,
        "A1",
        f"transform round-trip max err {worst_rt:.2e}, unitarity max err "
        f"{worst_uni:.2e} over 100 draws, n up to 256 ({elapsed:.1f}s)",
    )
    assert ok


def test_a02_effective_channel_closed_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    grid = [(16, False, 13), (16, True, 13), (32, False, 12), (32, True, 12)]
    for n, integer_doppler, count in grid:
        params = FrameParams.for_profile(n, 2.0, 2)
        for _ in range(count):
            paths = int(rng.integers(1, 4))
            real = sample_channel(paths, 2.0, rng, n=n, integer_doppler=integer_doppler)
            values = rng.uniform(-1e-3, 1e-3, size=n)
            rx = C2Schedule(values, "bob")
            tx = C2Schedule(values, "alice")
            a = effective_channel(real, params, rx, tx).matrix
            b = effective_channel_closed_form(real, params, rx, tx).matrix
            worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30
    _verdict(
        ok,
        "A2",
        f"analytic vs operator-product channel, max entry err {worst:.2e} "
        f"over 50 realizations ({elapsed:.1f}s)",
    )
    assert ok


def test_a03_integer_doppler_sparsity_exhaustive():
    start = time.perf_counter()
    n = 16
    params = FrameParams.for_profile(n, 2.0, 2)  # 2*n*c1 = 5
    rx = zero_schedule(n, "bob")
    tx = zero_schedule(n, "alice")
    checked = 0
    ok = True
    for delay in (0, 1, 2):
        for alpha in (-2, -1, 0, 1, 2):
            real = ChannelRealization([1.0], [delay], [alpha])
            mags = np.abs(effective_channel(real, params, rx, tx).matrix)
            loc = (5 * delay - alpha) % n
            for p in range(n):
                q = (p + loc) % n
                others = np.delete(mags[p], q)
                ok = ok and mags[p, q] >= 1 - 1e-9 and np.all(others <= 1e-9)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5
    _verdict(
        ok,
        "A3",
        f"one coupling entry per row at the shifted location for all "
        f"{checked} (delay, doppler) combos at n=16 ({elapsed:.1f}s)",
    )
    assert ok


def test_a04_eve_sinr_saturation_endpoint():
    start = time.perf_counter()
    gamma = 10**2.5
    n = 1024
    saturated_db = [10 * np.log10(sinr_eve_average(n, gamma, c)) for c in (5.0, 50.0)]
    exact = sinr_eve_average(n, gamma, 0.0) == gamma
    elapsed = time.perf_counter() - start
    ok = all(abs(db + 0.93) <= 0.1 for db in saturated_db) and exact and elapsed < 1
    _verdict(
        ok,
        "A4",
        f"frame-average interceptor SINR saturates at "
        f"{saturated_db[0]:+.4f} dB (target -0.93 +/- 0.1) and equals the "
        f"receive SNR bit-exactly with scrambling off ({elapsed:.2f}s)",
    )
    assert ok


def test_a05_sinr_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    gamma = 10**2.5
    worst = 0.0
    for p in (1, 7, 31):
        for c2max in (1e-6, 1e-5):
            book = build_codebook(c2max, 4)
            got = sinr_eve_measured(1_000_000, p, gamma, book, rng)
            want = float(sinr_eve_symbol(p, gamma, c2max))
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 60
    _verdict(
        ok,
        "A5",
        f"closed form vs 1e6-draw Monte Carlo SINR, worst rel err "
        f"{worst:.2e} (budget 2e-2) over 6 operating points ({elapsed:.1f}s)",
    )
    assert ok


def test_a06_bob_parity_with_plain_afdm():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="bob-vs-afdm-ber",
        n=64,
        paths=3,
        alpha_max=2.0,
        snr_db=(5.0, 10.0, 15.0, 20.0, 25.0),
        trials=200,
        seed=1,
        c2max=4.88e-5,
        m=4,
    )
    records = run_scenario(cfg)
    worst_ratio = 0.0
    ok = True
    for rec in records:
        inside, ratio = _within_two_se(rec.bob_ber, rec.afdm_ber, rec.bit_count, rec.bit_count)
        ok = ok and inside
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600
    _verdict(
        ok,
        "A6",
        f"scheduled vs plain-waveform receiver BER on shared "
        f"channel/noise/data, worst |diff|/(2 SE) = {worst_ratio:.2f} across "
        f"5 SNR points x 200 frames ({elapsed:.1f}s)",
    )
    assert ok


def _rotation_ber(n: int, c2max: float, m: int) -> float:
    """Noiseless QPSK BER of an interceptor left with exp(2j*pi*c2[q]*q**2).

    Every codebook level is equally likely on every subcarrier.  A point
    rotated by theta lands k = floor((theta + pi/4) / (pi/2)) mod 4 Gray
    QPSK decision regions away, which costs 0, 1, 2, 1 of its 2 bits.
    """
    levels = build_codebook(c2max, m).levels
    q = np.arange(n, dtype=np.float64)
    theta = 2.0 * np.pi * levels[None, :] * q[:, None] ** 2
    regions = np.floor((theta + np.pi / 4) / (np.pi / 2)).astype(np.int64) % 4
    return float(np.mean(np.array([0, 1, 2, 1])[regions]) / 2.0)


def test_a07_eve_collapse_window():
    start = time.perf_counter()
    n = 64
    # Hold c2max*n**2 at the paper's n=1024 point so subcarrier q = u*n
    # carries the phase 2*pi*51.2*u**2 at both frame sizes.
    c2max = 4.88e-5 * (1024 / n) ** 2
    cycles = c2max * (n - 1) ** 2
    cfg = ExperimentConfig(
        scenario="eve-ber", n=n, paths=3, snr_db=(25.0,), trials=200, seed=1,
        c2max=c2max, m=4,
    )
    rec = run_scenario(cfg)[0]
    elapsed = time.perf_counter() - start
    ok = 0.45 <= rec.eve_ber <= 0.55 and elapsed < 300
    _verdict(
        ok,
        "A7-collapse",
        f"interceptor BER {rec.eve_ber:.4f} vs window [0.45, 0.55] at n={n}, "
        f"c2max={c2max:.4g} (c2max*n^2 of the n=1024 point), top subcarrier "
        f"sweeps {cycles:.1f} cycles ({elapsed:.1f}s)",
    )
    # The scrambling phase on subcarrier q is 2*pi*c2max*q**2, so the frame's
    # geometry is set by c2max*n**2, not by c2max alone.  The paper's rate
    # 4.88e-5 = 1/(20*1024) belongs to n=1024; scaled by (1024/n)**2 it makes
    # the top subcarrier wrap ~50 times, as it does there, and the noiseless
    # rotation count predicts BER 0.477 at both frame sizes.
    assert ok, (
        f"interceptor BER {rec.eve_ber:.4f} outside [0.45, 0.55] at n={n}, "
        f"c2max={c2max:.4g} (c2max*n^2 held at the n=1024 point, "
        f"{cycles:.1f} cycles on the top subcarrier)"
    )


def test_a07_unwrapped_rotation_matches_prediction():
    start = time.perf_counter()
    n, c2max, m = 64, 4.88e-5, 4
    cfg = ExperimentConfig(
        scenario="eve-ber", n=n, paths=3, snr_db=(25.0,), trials=200, seed=1,
        c2max=c2max, m=m,
    )
    rec = run_scenario(cfg)[0]
    want = _rotation_ber(n, c2max, m)
    se = _binomial_se(want, rec.bit_count)
    elapsed = time.perf_counter() - start
    ok = abs(rec.eve_ber - want) <= 3.0 * se and elapsed < 300
    _verdict(
        ok,
        "A7-rotation",
        f"interceptor BER {rec.eve_ber:.4f} vs noiseless rotation prediction "
        f"{want:.4f} +/- 3 SE ({3.0 * se:.4f}) at n={n}, c2max={c2max:g}, "
        f"top phase {2 * np.pi * c2max * (n - 1) ** 2:.2f} rad ({elapsed:.1f}s)",
    )
    # At the paper's n=1024 rate on a 64-subcarrier frame no phase wraps:
    # only the top subcarriers drawing a +/-c2max level cross the pi/4
    # decision boundary, which is all the security this point offers.
    assert ok, (
        f"interceptor BER {rec.eve_ber:.4f} differs from the rotation "
        f"prediction {want:.4f} by more than 3 SE ({3.0 * se:.4f})"
    )


def test_a07_companion_collapse_at_wrapping_frame_size():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="eve-ber", n=1024, paths=3, snr_db=(25.0,), trials=12, seed=1,
        c2max=4.88e-5, m=4,
    )
    rec = run_scenario(cfg)[0]
    elapsed = time.perf_counter() - start
    ok = 0.45 <= rec.eve_ber <= 0.55 and elapsed < 300
    _verdict(
        ok,
        "A7-companion",
        f"interceptor BER {rec.eve_ber:.4f} inside [0.45, 0.55] at the "
        f"paper's literal point n=1024, c2max=4.88e-5, the same c2max*n^2 as "
        f"A7-collapse ({elapsed:.1f}s)",
    )
    assert ok


def test_a07_no_security_when_scrambling_disabled():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="eve-ber", n=64, paths=3, snr_db=(25.0,), trials=200, seed=1,
        c2max=0.0, m=4,
    )
    rec = run_scenario(cfg)[0]
    inside, ratio = _within_two_se(rec.bob_ber, rec.eve_ber, rec.bit_count, rec.bit_count)
    elapsed = time.perf_counter() - start
    ok = inside and elapsed < 300
    _verdict(
        ok,
        "A7-nosec",
        f"with c2max=0 the interceptor matches the intended receiver: "
        f"bob {rec.bob_ber:.2e}, eve {rec.eve_ber:.2e}, |diff|/(2 SE) = "
        f"{ratio:.2f} ({elapsed:.1f}s)",
    )
    assert ok


def test_a08_guess_error_thresholds():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="eve-ber",
        n=1024,
        paths=3,
        snr_db=(25.0,),
        eve_mode="biased",
        eve_bias=(1e-6, 1e-8),
        trials=30,
        seed=1,
        c2max=4.88e-5,
        m=4,
    )
    coarse, fine = run_scenario(cfg)
    matched, ratio = _within_two_se(fine.bob_ber, fine.eve_ber, fine.bit_count, fine.bit_count)
    elapsed = time.perf_counter() - start
    ok = coarse.eve_ber > 0.1 and matched and elapsed < 600
    _verdict(
        ok,
        "A8",
        f"schedule guess error 1e-6 leaves interceptor BER "
        f"{coarse.eve_ber:.4f} (> 0.1); at 1e-8 she matches the intended "
        f"receiver, |diff|/(2 SE) = {ratio:.2f} ({elapsed:.1f}s)",
    )
    assert ok


def _within_budget(rec, ref) -> tuple[bool, float]:
    """A9's budget check on the intended receiver: its BER with CSI error
    against the clean BER 2 dB lower, within twice the combined standard
    error; also the slack left, in combined standard errors."""
    comb = np.hypot(
        _binomial_se(rec.bob_ber, rec.bit_count), _binomial_se(ref.bob_ber, ref.bit_count)
    )
    bound = ref.bob_ber + 2.0 * comb
    return rec.bob_ber <= bound, (bound - rec.bob_ber) / comb if comb else 0.0


def test_a09_csi_error_robustness():
    start = time.perf_counter()
    # csi_error_var = 5e-7 puts n*var ~ 1.0e-3 of mismatch interference under
    # each symbol, about a third of the thermal noise at 25 dB, an analytic
    # penalty of ~1.2 dB; the clean 23 dB run brackets that budget empirically
    csi = ExperimentConfig(
        scenario="csi-error-ber",
        n=2048,
        paths=3,
        snr_db=(25.0,),
        csi_error_var=5e-7,
        trials=10,
        seed=1,
        c2max=4.88e-6,
        m=4,
    )
    rec = run_scenario(csi)[0]
    clean = ExperimentConfig(
        scenario="bob-vs-afdm-ber", n=2048, paths=3, snr_db=(23.0,), trials=10,
        seed=1, c2max=4.88e-6, m=4,
    )
    ref = run_scenario(clean)[0]
    bob_within_budget, _ = _within_budget(rec, ref)
    eve_collapsed = 0.45 <= rec.eve_ber <= 0.55
    elapsed = time.perf_counter() - start
    ok = bob_within_budget and eve_collapsed and elapsed < 300
    _verdict(
        ok,
        "A9",
        f"with estimation error on every receiver the intended one stays "
        f"within a 2 dB budget (ber {rec.bob_ber:.2e} vs {ref.bob_ber:.2e} "
        f"clean at 23 dB) while the interceptor holds {rec.eve_ber:.4f} in "
        f"[0.45, 0.55] ({elapsed:.1f}s)",
    )
    assert ok


def _budget_point(csi_error_var: float):
    """The intended receiver at n=256, 10 dB with CSI error, and clean at 8 dB.

    The clean BER is well above zero here.  sigma2 = 0.1, so
    csi_error_var = 1.25e-4 gives n*var / sigma2 = 0.32, A9's ratio.
    """
    common = dict(n=256, paths=3, trials=40, seed=1, m=4)
    rec = run_scenario(
        ExperimentConfig(scenario="csi-error-ber", snr_db=(10.0,), csi_error_var=csi_error_var, workers=2, **common)
    )[0]
    ref = run_scenario(ExperimentConfig(scenario="bob-vs-afdm-ber", snr_db=(8.0,), **common))[0]
    return rec, ref


def test_a09_companion_budget_with_errors_to_count():
    # A9's ratio of mismatch interference to noise costs about 1.2 dB, so the
    # check holds, and with slack, at a point where both BERs are counted
    start = time.perf_counter()
    rec, ref = _budget_point(1.25e-4)
    ok, slack = _within_budget(rec, ref)
    elapsed = time.perf_counter() - start
    ok = ok and ref.bob_ber > 0.01 and rec.bob_ber < ref.bob_ber and elapsed < 60
    _verdict(
        ok,
        "A9-companion",
        f"at n*var/sigma2 = 0.32 the intended receiver's ber {rec.bob_ber:.4f} "
        f"is within 2 dB of the clean {ref.bob_ber:.4f}, {slack:.1f} SE to spare ({elapsed:.1f}s)",
    )
    assert ok


def test_a09_negative_control_fails_the_budget():
    # n*var = 0.1024 = 1.02 sigma2 doubles the effective noise, about 3 dB
    start = time.perf_counter()
    rec, ref = _budget_point(4e-4)
    within, slack = _within_budget(rec, ref)
    elapsed = time.perf_counter() - start
    ok = not within and elapsed < 60
    _verdict(
        ok,
        "A9-negative",
        f"at n*var/sigma2 = 1.02 the intended receiver's ber {rec.bob_ber:.4f} "
        f"misses the 2 dB budget against the clean {ref.bob_ber:.4f} by {-slack:.1f} SE ({elapsed:.1f}s)",
    )
    assert ok


def test_a10_deterministic_csv_across_worker_counts(tmp_path):
    start = time.perf_counter()
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        cfg = ExperimentConfig(
            scenario="eve-ber", n=64, paths=3, snr_db=(15.0, 25.0), trials=20,
            seed=11, c2max=4.88e-5, m=4, workers=workers,
        )
        path = tmp_path / f"run_{tag}.csv"
        emit_csv(run_scenario(cfg), path, cfg)
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 60
    _verdict(
        ok,
        "A10",
        f"byte-identical CSV data rows across repeat runs and worker counts "
        f"1 vs 4 ({elapsed:.1f}s)",
    )
    assert ok


def test_a10_companion_csi_error_pool(tmp_path):
    # exact-CSI runs ignore workers; CSI-error runs map trials over the pool,
    # whose threads run their BLAS/LAPACK solves at the same time
    start = time.perf_counter()
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        cfg = ExperimentConfig(
            scenario="csi-error-ber", n=64, paths=3, modulation="qam16", snr_db=(15.0, 25.0), trials=20,
            seed=11, c2max=4.88e-5, m=4, csi_error_var=1e-3, workers=workers,
        )
        path = tmp_path / f"run_{tag}.csv"
        emit_csv(run_scenario(cfg), path, cfg)
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 60
    _verdict(
        ok,
        "A10-companion",
        f"byte-identical CSI-error CSV data rows across repeat runs and worker "
        f"counts 1 vs 4 ({elapsed:.1f}s)",
    )
    assert ok
