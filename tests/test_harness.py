"""Tests for the Monte Carlo harness: configs, determinism, persistence."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy import stats

from seafdm import (
    ChannelRealization,
    ConfigError,
    ExperimentConfig,
    FrameParams,
    PathSpec,
    TrialRecord,
    apply_channel,
    bias_between,
    bob_front_end,
    build_codebook,
    count_errors,
    demap,
    effective_channel,
    emit_csv,
    map_bits,
    mmse_equalize,
    qpsk,
    read_csv,
    run_scenario,
    run_sinr_curve,
    search_space_summary,
    se_afdm_modulate,
    wilson,
)
from seafdm.harness import _eve_guess
from seafdm.keystream import C2Schedule
from seafdm.sinr import eve_sinr_curve


def tiny_config(**overrides):
    base = dict(
        scenario="eve-ber", n=32, paths=2, snr_db=(25.0,), trials=8, seed=3, c2max=0.05
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def records_equal(a: TrialRecord, b: TrialRecord) -> bool:
    for name in ("point", "bob_ber", "eve_ber", "afdm_ber"):
        va, vb = getattr(a, name), getattr(b, name)
        if math.isnan(va) != math.isnan(vb):
            return False
        if not math.isnan(va) and va != vb:
            return False
    return a.bit_count == b.bit_count and a.seed == b.seed


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"scenario": "eve-ber", "turbo": True})


@pytest.mark.parametrize(
    "overrides",
    [
        {"scenario": "warp-drive"},
        {"eve_mode": "psychic"},
        {"n": 1},
        {"paths": 0},
        {"paths": 99, "n": 32},
        {"trials": 0},
        {"workers": 0},
        {"snr_db": ()},
        {"c2max": -1.0},
        {"eve_bias": -0.1},
        {"csi_error_var": -1.0},
        {"scenario": "bias-sweep", "bias_values": ()},
        {"scenario": "csi-error-ber", "csi_error_var": 0.0},
        {"modulation": "qam7"},
        {"m": 1},
    ],
)
def test_config_rejects_bad_values(overrides):
    base = dict(n=32, paths=2)
    base.update(overrides)
    with pytest.raises(ConfigError):
        ExperimentConfig(**base)


def test_config_coerces_scalar_sweeps():
    cfg = ExperimentConfig(snr_db=20, n=32, paths=2)
    assert cfg.snr_db == (20.0,)
    assert isinstance(cfg.lfsr_taps, tuple)


def test_config_from_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("scenario: eve-ber\nn: 32\npaths: 2\nsnr_db: [10, 20]\ntrials: 5\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.n == 32
    assert cfg.snr_db == (10.0, 20.0)
    assert cfg.trials == 5
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert ExperimentConfig.from_file(empty) == ExperimentConfig()


def test_config_rejects_prefix_shorter_than_delay_spread():
    with pytest.raises(ConfigError, match="ncp=0"):
        ExperimentConfig(n=32, paths=3, ncp=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(n=32, paths=3, ncp=1)
    assert ExperimentConfig(n=32, paths=3, ncp=2).frame_params.ncp == 2


def test_derived_frame_geometry():
    cfg = tiny_config(paths=3)
    params = cfg.frame_params
    assert params.n == 32
    assert params.ncp == 2
    # c1 = (2*ceil(alpha_max) + 1) / (2n) keeps doppler shifts separable
    assert params.c1 == pytest.approx(5.0 / 64.0)
    assert tiny_config(ncp=7).frame_params.ncp == 7


def test_same_seed_reproduces_records():
    cfg = tiny_config()
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert len(a) == len(b) == 1
    assert records_equal(a[0], b[0])


def test_worker_count_does_not_change_results():
    serial = run_scenario(tiny_config(trials=12, workers=1))
    threaded = run_scenario(tiny_config(trials=12, workers=4))
    assert all(records_equal(s, t) for s, t in zip(serial, threaded))


def test_bit_count_accounting():
    cfg = tiny_config(trials=8)
    rec = run_scenario(cfg)[0]
    assert rec.bit_count == 8 * 32 * 2
    rec16 = run_scenario(tiny_config(modulation="qam16", trials=4))[0]
    assert rec16.bit_count == 4 * 32 * 4


def test_quiet_channel_is_error_free():
    rec = run_scenario(tiny_config(snr_db=(60.0,), trials=6))[0]
    assert rec.bob_ber == 0.0
    assert rec.eve_ber > 0.0  # scrambling still ruins the interceptor


def test_eve_ber_nan_outside_eve_scenarios():
    rec = run_scenario(tiny_config(scenario="bob-vs-afdm-ber", trials=4))[0]
    assert math.isnan(rec.eve_ber)
    assert not math.isnan(rec.afdm_ber)
    rec = run_scenario(tiny_config(trials=4))[0]
    assert math.isnan(rec.afdm_ber)
    assert not math.isnan(rec.eve_ber)


def test_run_scenario_rejects_analytic_scenarios():
    for scenario in ("sinr-vs-c2max", "search-space"):
        with pytest.raises(ConfigError):
            run_scenario(tiny_config(scenario=scenario))


def test_awgn_reference_ber():
    # flat unit-gain channel, synchronized schedules: the chain must land on
    # the QPSK AWGN curve Q(sqrt(snr)) since every transform in it is unitary
    rng = np.random.default_rng(11)
    n = 64
    params = FrameParams.for_profile(n, 2.0, 2)
    spec = qpsk()
    flat = ChannelRealization((PathSpec(1.0, 0, 0.0),))
    snr_db = 7.0
    sigma2 = 10 ** (-snr_db / 10)
    book = build_codebook(4.88e-5, 4)

    errors = 0
    total = 0
    for _ in range(300):
        bits = rng.integers(0, 2, size=2 * n)
        x = map_bits(bits, spec)
        values = book.levels[rng.integers(0, 4, size=n)]
        alice = C2Schedule(values, "alice")
        bob = C2Schedule(values, "bob")
        r = apply_channel(se_afdm_modulate(x, params, alice), flat, rng, sigma2)
        y = bob_front_end(r, params, bob)
        h = effective_channel(flat, params, bob, alice).matrix
        errors += count_errors(bits, demap(mmse_equalize(y, h, sigma2), spec))
        total += bits.size

    theory = stats.norm.sf(np.sqrt(1 / sigma2))
    se = np.sqrt(theory * (1 - theory) / total)
    assert abs(errors / total - theory) < 3.5 * se


def test_guess_modes():
    rng = np.random.default_rng(4)
    book = build_codebook(0.05, 4)
    alice = C2Schedule(book.levels[rng.integers(0, 4, size=32)], "alice")

    zeros = _eve_guess("zeros", alice, book, rng, 0.0)
    assert zeros.owner == "eve"
    assert np.all(zeros.values == 0)

    random_guess = _eve_guess("random", alice, book, rng, 0.0)
    assert random_guess.owner == "eve"
    assert np.all(np.isin(random_guess.values, book.levels))

    exact = _eve_guess("biased", alice, book, rng, 0.0)
    assert bias_between(alice, exact) == 0.0
    for bias in (1e-3, 0.02):
        guess = _eve_guess("biased", alice, book, rng, bias)
        # one entry is pinned to the boundary; addition rounding is all
        # that separates the measured sup-norm from the requested bias
        assert bias_between(alice, guess) == pytest.approx(bias, rel=1e-9)


def test_bias_sweep_scenario():
    cfg = tiny_config(
        scenario="bias-sweep",
        snr_db=(60.0,),
        bias_values=(0.0, 0.3),
        trials=6,
        eve_mode="zeros",  # forced to biased internally
    )
    recs = run_scenario(cfg)
    assert [r.point for r in recs] == [0.0, 0.3]
    assert recs[0].eve_ber == 0.0  # exact schedule knowledge, no noise
    assert recs[1].eve_ber > 0.3


def test_csi_error_scenario_degrades_bob():
    clean = run_scenario(tiny_config(snr_db=(35.0,), trials=10))[0]
    noisy = run_scenario(
        tiny_config(scenario="csi-error-ber", csi_error_var=0.05, snr_db=(35.0,), trials=10)
    )[0]
    assert noisy.bob_ber > clean.bob_ber


def test_afdm_reference_replays_bob_csi_error():
    # with scrambling off Bob and the plain-AFDM reference run the same
    # link, so they must agree bit for bit, estimate error included
    cfg = tiny_config(
        scenario="bob-vs-afdm-ber", n=64, paths=3, c2max=0.0, csi_error_var=1e-3,
        snr_db=(15.0,), trials=20,
    )
    rec = run_scenario(cfg)[0]
    assert rec.bob_ber > 0.0
    assert rec.bob_ber == rec.afdm_ber


def test_run_sinr_curve_matches_analytics():
    cfg = tiny_config(scenario="sinr-vs-c2max", c2max_values=(1e-6, 1e-5, 1e-4))
    curve = run_sinr_curve(cfg)
    direct = eve_sinr_curve(32, 10**2.5, (1e-6, 1e-5, 1e-4))
    np.testing.assert_allclose(curve.sinr, direct.sinr, rtol=1e-12)
    default = run_sinr_curve(tiny_config(scenario="sinr-vs-c2max"))
    assert default.c2max.size == 17
    assert default.c2max[0] == pytest.approx(0.05 * 1e-2)
    assert default.c2max[-1] == pytest.approx(0.05 * 1e2)


def test_search_space_summary():
    out = search_space_summary(tiny_config(n=64, m=4, c2max=4.88e-5))
    assert out["search_space_bits"] == 128
    assert out["bits_per_subcarrier"] == 2
    assert out["log10_schedules"] == pytest.approx(128 * np.log10(2))


def test_wilson_interval():
    lo, hi = wilson(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12) and hi <= 1.0
    lo, hi = wilson(50, 100)
    assert lo < 0.5 < hi
    assert lo + hi == pytest.approx(1.0)
    wide = wilson(5, 100)
    narrow = wilson(500, 10_000)
    assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])
    with pytest.raises(ConfigError):
        wilson(5, 0)
    with pytest.raises(ConfigError):
        wilson(7, 5)


def test_csv_round_trip(tmp_path):
    cfg = tiny_config(scenario="bob-vs-afdm-ber", trials=4, snr_db=(10.0, 20.0))
    recs = run_scenario(cfg)
    path = tmp_path / "sweep.csv"
    emit_csv(recs, path, cfg)
    loaded = read_csv(path)
    assert len(loaded) == 2
    assert all(records_equal(a, b) for a, b in zip(recs, loaded))
    # wall clock stays out of the reproducible artifact
    assert all(math.isnan(r.wall_ms) for r in loaded)

    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert set(meta) == {"version", "rng", "seed_policy", "config", "wall_ms", "wilson_95"}
    assert meta["config"]["n"] == 32
    assert meta["config"]["snr_db"] == [10.0, 20.0]
    assert len(meta["wilson_95"]["bob"]) == 2
    assert meta["wilson_95"]["eve"] == [None, None]


def test_csv_of_empty_run(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert read_csv(path) == []
    assert path.read_text().startswith("point,bob_ber,eve_ber,afdm_ber")


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ConfigError, match="unexpected CSV header"):
        read_csv(path)


def test_identical_seeds_identical_csv_bytes(tmp_path):
    cfg = tiny_config(trials=6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scenario(cfg), a)
    emit_csv(run_scenario(cfg), b)
    assert a.read_bytes() == b.read_bytes()
