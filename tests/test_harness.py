"""Tests for the Monte Carlo harness: configs, determinism, persistence."""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from seafdm import (
    ConfigError,
    ContractViolation,
    ExperimentConfig,
    FrameParams,
    apply_channel,
    bob_front_end,
    build_codebook,
    count_errors,
    demap,
    effective_channel,
    map_bits,
    mmse_equalize,
    qpsk,
    run_scenario,
    se_afdm_modulate,
)
import seafdm
from seafdm import detection, harness
from seafdm.channel import ChannelRealization
from seafdm.harness import (
    TrialRecord,
    _eve_guess,
    emit_csv,
    read_csv,
    run_sinr_curve,
    search_space_summary,
    wilson,
)
from seafdm.keystream import C2Schedule
from seafdm.sinr import sinr_eve_average


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
    with pytest.raises(ConfigError, match="must be a mapping"):
        ExperimentConfig.from_dict([("scenario", "eve-ber")])


def test_unset_eve_mode_is_the_scenario_default():
    assert ExperimentConfig().eve_mode == "zeros"
    assert ExperimentConfig(scenario="bias-sweep", bias_values=(1e-3,)).eve_mode == "biased"
    assert ExperimentConfig(scenario="bias-sweep", bias_values=(1e-3,), eve_mode="biased").eve_mode == "biased"
    assert ExperimentConfig.from_dict({"eve_mode": None, "scenario": "bias-sweep", "bias_values": [0.0]}).eve_mode == "biased"
    with pytest.raises(ConfigError, match="eve_mode='random'"):
        ExperimentConfig(scenario="bias-sweep", bias_values=(1e-3,), eve_mode="random")


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
        {"eve_bias": float("inf")},
        {"eve_bias": float("nan")},
        {"scenario": "bias-sweep", "bias_values": (1e-6, -1e-6)},
        {"scenario": "bias-sweep", "bias_values": (float("inf"),)},
        {"scenario": "bias-sweep", "bias_values": (float("nan"),)},
        {"snr_db": (float("nan"),)},
        {"snr_db": (20.0, float("-inf"))},
        {"csi_error_var": -1.0},
        {"scenario": "csi-error-ber", "csi_error_var": float("nan")},
        {"scenario": "csi-error-ber", "csi_error_var": float("inf")},
        {"alpha_max": -1.0},
        {"scenario": "bias-sweep", "bias_values": ()},
        {"scenario": "csi-error-ber", "csi_error_var": 0.0},
        {"modulation": "qam7"},
        {"m": 1},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"n": 32.0},
        {"n": "32"},
        {"m": 4.0},
        {"paths": 2.5},
        {"trials": 2.5},
        {"trials": True},
        {"workers": 2.5},
        {"ncp": 1.5},
        {"ncp": False},
        {"lfsr_taps": (5, 2)},
        {"lfsr_taps": (65, 1, 0)},
        {"lfsr_taps": (1, 0)},
        {"lfsr_taps": (5.5, 2, 0)},
        {"lfsr_taps": 5},
        {"c2max": True},
        {"alpha_max": False},
        {"eve_bias": "wide"},
        {"csi_error_var": None},
        {"c2max": [1e-4]},
        {"snr_db": (True,)},
        {"c2max_values": ("x",)},
        {"integer_doppler": "maybe"},
        {"integer_doppler": "false"},
        {"integer_doppler": 1},
        {"integer_doppler": None},
        {"c2max_values": (float("nan"),)},
        {"c2max_values": (1e-4, float("inf"))},
        {"c2max_values": (-1e-4,)},
        {"modulation": ["qpsk"]},
        {"snr_db": None},
        {"scenario": "bias-sweep", "bias_values": None},
        {"c2max_values": None},
        {"c2max": 10**400},
        {"m": 2**17},
        {"m": 2**63},
        {"n": 2**16 + 2},
        {"n": 10**400},
        {"trials": 2**32},
        {"workers": 257},
        {"workers": 100_000},
    ],
)
def test_config_rejects_bad_values(overrides):
    base = dict(n=32, paths=2)
    base.update(overrides)
    with pytest.raises(ConfigError):
        ExperimentConfig(**base)


def test_config_takes_its_largest_counts():
    cfg = ExperimentConfig(n=2**16, m=2**16, trials=2**32 - 1, workers=256)
    assert (cfg.frame_params.n, cfg.codebook.levels.size, cfg.trials, cfg.workers) == (2**16, 2**16, 2**32 - 1, 256)
    for name, most in harness._LARGEST.items():
        with pytest.raises(ConfigError, match=f"{name}={2 * most} exceeds"):
            ExperimentConfig(**{name: 2 * most})


def test_workers_bound_is_the_same_on_every_host(monkeypatch):
    # construction starts no thread, and a host's core count moves no bound
    for cores in (1, 4096):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert ExperimentConfig(scenario="csi-error-ber", csi_error_var=1e-3, workers=256, trials=100_000).workers == 256
        with pytest.raises(ConfigError, match="workers=257 exceeds its largest value 256"):
            ExperimentConfig(workers=257)
        with pytest.raises(ConfigError, match="workers=100000 exceeds"):
            ExperimentConfig.from_dict(
                {"scenario": "csi-error-ber", "csi_error_var": 1e-3, "workers": 100_000, "trials": 100_000}
            )


def test_integer_doppler_is_a_plain_bool():
    assert ExperimentConfig(integer_doppler=np.bool_(True)).integer_doppler is True
    assert ExperimentConfig(integer_doppler=False).integer_doppler is False
    with pytest.raises(ConfigError, match="integer_doppler"):
        ExperimentConfig.from_dict({"integer_doppler": "maybe"})


def test_each_seed_stream_is_its_spawned_child():
    for seed, point, trial in [(0, 0, 0), (1, 3, 17), (2**40 + 5, 9, 123456), (2**150 + 3, 4, 9), (0, 17, 2**32 - 1)]:
        tree = np.random.SeedSequence(seed, spawn_key=(point, trial)).spawn(8)
        words = harness._stream_words(seed, point, [trial], range(8))[0]
        for k, name in enumerate(harness._STREAMS):
            assert words[k].tobytes() == tree[k].generate_state(4, np.uint64).tobytes(), name
            drawn = harness._rng(words[k]).standard_normal(5)
            assert drawn.tobytes() == np.random.default_rng(tree[k]).standard_normal(5).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**256 - 1),
    point=st.integers(0, 2**32 - 1),
    trials=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    children=st.permutations(range(8)),
)
@example(seed=0, point=3, trials=[0, 2**32 - 1], children=list(range(8)))
@example(seed=2**200 + 3, point=17, trials=[5], children=list(range(7, -1, -1)))  # seven seed words
def test_stream_words_equal_seed_sequence(seed, point, trials, children):
    words = harness._stream_words(seed, point, trials, children)
    assert words.shape == (len(trials), 8, 4) and words.dtype == np.uint64
    for t, trial in enumerate(trials):
        for k, child in enumerate(children):
            ss = np.random.SeedSequence(seed, spawn_key=(point, trial, child))
            assert words[t, k].tobytes() == ss.generate_state(4, np.uint64).tobytes()
            assert harness._rng(words[t, k]).random(3).tobytes() == np.random.default_rng(ss).random(3).tobytes()


def test_hashed_seed_serves_only_pcg64_words():
    words = harness._stream_words(1, 0, [0], [0])[0, 0]
    for request in [(4, np.uint32), (8, np.uint64)]:
        with pytest.raises(ContractViolation):
            harness._HashedSeed(words).generate_state(*request)
    with pytest.raises(OverflowError):
        harness._stream_words(1, 0, [2**32], [0])


@pytest.mark.parametrize(
    "overrides, streams",
    [
        ({"scenario": "bob-vs-afdm-ber"}, {"data", "key", "bob_channel", "bob_noise"}),
        ({}, {"data", "key", "bob_channel", "bob_noise", "eve_channel", "eve_noise"}),
        ({"eve_mode": "random"}, {"data", "key", "bob_channel", "bob_noise", "eve_channel", "eve_noise", "eve_guess"}),
        ({"scenario": "csi-error-ber", "csi_error_var": 1e-3}, set(harness._STREAMS) - {"eve_guess"}),
    ],
    ids=["bob-vs-afdm", "eve-zeros", "eve-random", "csi-error"],
)
def test_a_trial_builds_only_the_streams_it_reads(overrides, streams, monkeypatch):
    built = []
    words = harness._stream_words

    def recording(seed, point_idx, trials, children):
        built.extend((trial, harness._STREAMS[k]) for trial in trials for k in children)
        return words(seed, point_idx, trials, children)

    monkeypatch.setattr(harness, "_stream_words", recording)
    cfg = tiny_config(trials=3, **overrides)
    run_scenario(cfg)
    assert sorted(built) == sorted((trial, name) for trial in range(cfg.trials) for name in streams)


def test_infinite_snr_means_noiseless():
    rec = run_scenario(tiny_config(scenario="bob-vs-afdm-ber", snr_db=(float("inf"),), trials=4))[0]
    assert rec.point == float("inf")
    assert rec.bob_ber == 0.0 and rec.afdm_ber == 0.0


def test_float_fields_name_themselves_and_parse_strings():
    with pytest.raises(ConfigError, match="c2max"):
        ExperimentConfig.from_dict({"c2max": True})
    with pytest.raises(ConfigError, match="bias_values entry"):
        ExperimentConfig(n=32, paths=2, bias_values=(1e-6, "x"))
    # YAML 1.1 leaves 1e-4 as a string
    cfg = ExperimentConfig(n=32, paths=2, csi_error_var="1e-4", c2max="1e-3", alpha_max=1, snr_db="10")
    assert (cfg.csi_error_var, cfg.c2max, cfg.alpha_max, cfg.snr_db) == (1e-4, 1e-3, 1.0, (10.0,))
    assert all(type(v) is float for v in (cfg.csi_error_var, cfg.c2max, cfg.alpha_max, cfg.eve_bias))


def test_derived_tables_are_resolved_once_per_config(monkeypatch):
    cfg = ExperimentConfig(n=32, paths=2)
    assert cfg.codebook is cfg.codebook
    assert cfg.frame_params is cfg.frame_params
    assert cfg.constellation is cfg.constellation
    other = replace(cfg, c2max=1e-3)
    assert other.codebook is not cfg.codebook
    assert other.codebook.c2max == 1e-3 and cfg.codebook.c2max == 4.88e-5
    assert replace(cfg, n=64).frame_params.n == 64
    # a run reads them from its config instead of rebuilding them per trial
    calls = []
    live = harness.build_codebook
    monkeypatch.setattr(harness, "build_codebook", lambda *args: calls.append(args) or live(*args))
    run_scenario(tiny_config(scenario="bob-vs-afdm-ber", trials=10, snr_db=(10.0, 20.0)))
    assert len(calls) == 1


def test_config_coerces_scalar_sweeps():
    cfg = ExperimentConfig(snr_db=20, n=32, paths=2)
    assert cfg.snr_db == (20.0,)
    assert isinstance(cfg.lfsr_taps, tuple)


# The config echo the sidecar stores, pinned for configs whose values need
# coercion: YAML 1.1 strings, NumPy scalars and arrays, scalar sweeps, list
# taps, a set ncp and a seed past 32 bits.
CONFIG_ECHOES = {
    "yaml-strings": (
        lambda: ExperimentConfig.from_dict(
            yaml.safe_load(
                "scenario: csi-error-ber\nn: 32\npaths: 2\nc2max: 1e-3\ncsi_error_var: 1e-4\n"
                "alpha_max: 1\nsnr_db: [1e1, 20]\n"
            )
        ),
        '{"alpha_max": 1.0, "bias_values": [], "c2max": 0.001, "c2max_values": [], "csi_error_var": 0.0001, '
        '"eve_bias": 0.0, "eve_mode": "zeros", "integer_doppler": false, "lfsr_taps": [32, 22, 2, 1, 0], "m": 4, '
        '"modulation": "qpsk", "n": 32, "ncp": null, "paths": 2, "scenario": "csi-error-ber", "seed": 1, '
        '"snr_db": [10.0, 20.0], "trials": 200, "workers": 1}',
    ),
    "numpy-scalars": (
        lambda: ExperimentConfig(
            scenario="bob-vs-afdm-ber", n=np.int64(64), m=np.int32(8), paths=np.uint8(3), trials=np.int16(5),
            workers=np.int64(2), integer_doppler=np.bool_(True), snr_db=np.array([5.0, 10.0]), c2max=np.float32(0.5),
        ),
        '{"alpha_max": 2.0, "bias_values": [], "c2max": 0.5, "c2max_values": [], "csi_error_var": 0.0, '
        '"eve_bias": 0.0, "eve_mode": "zeros", "integer_doppler": true, "lfsr_taps": [32, 22, 2, 1, 0], "m": 8, '
        '"modulation": "qpsk", "n": 64, "ncp": null, "paths": 3, "scenario": "bob-vs-afdm-ber", "seed": 1, '
        '"snr_db": [5.0, 10.0], "trials": 5, "workers": 2}',
    ),
    "scalar-sweeps-list-taps-ncp": (
        lambda: ExperimentConfig(
            scenario="bias-sweep", n=16, paths=2, ncp=4, snr_db=20, bias_values=1e-3, c2max_values=[1e-6, 1e-4],
            lfsr_taps=[5, 2, 0], eve_bias=0,
        ),
        '{"alpha_max": 2.0, "bias_values": [0.001], "c2max": 4.88e-05, "c2max_values": [1e-06, 0.0001], '
        '"csi_error_var": 0.0, "eve_bias": 0.0, "eve_mode": "biased", "integer_doppler": false, '
        '"lfsr_taps": [5, 2, 0], "m": 4, "modulation": "qpsk", "n": 16, "ncp": 4, "paths": 2, '
        '"scenario": "bias-sweep", "seed": 1, "snr_db": [20.0], "trials": 200, "workers": 1}',
    ),
    "big-seed": (
        lambda: ExperimentConfig(
            seed=2**40, modulation="qam16", eve_mode="biased", eve_bias="2e-4", lfsr_taps=np.array([7, 6, 0]),
            snr_db=(float("inf"), -3), alpha_max=0.0,
        ),
        '{"alpha_max": 0.0, "bias_values": [], "c2max": 4.88e-05, "c2max_values": [], "csi_error_var": 0.0, '
        '"eve_bias": 0.0002, "eve_mode": "biased", "integer_doppler": false, "lfsr_taps": [7, 6, 0], "m": 4, '
        '"modulation": "qam16", "n": 64, "ncp": null, "paths": 3, "scenario": "eve-ber", "seed": 1099511627776, '
        '"snr_db": [Infinity, -3.0], "trials": 200, "workers": 1}',
    ),
}


@pytest.mark.parametrize("name", CONFIG_ECHOES)
def test_config_echo_is_pinned(name, tmp_path):
    make, echo = CONFIG_ECHOES[name]
    cfg = make()
    assert json.dumps(asdict(cfg), sort_keys=True) == echo
    emit_csv([], tmp_path / "echo.csv", cfg)
    assert json.loads((tmp_path / "echo.csv.meta.json").read_text())["config"] == json.loads(echo)


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


@pytest.mark.parametrize("scenario", ["eve-ber", "bob-vs-afdm-ber", "csi-error-ber"])
def test_two_workers_match_one(scenario):
    # the threads share the cached chirps and band plans; results must not notice
    extra = dict(csi_error_var=1e-3) if scenario == "csi-error-ber" else {}
    for n in (32, 48):
        serial = run_scenario(tiny_config(scenario=scenario, n=n, trials=10, workers=1, **extra))
        threaded = run_scenario(tiny_config(scenario=scenario, n=n, trials=10, workers=2, **extra))
        assert all(records_equal(s, t) for s, t in zip(serial, threaded))


def test_pool_is_capped_by_trial_count(monkeypatch):
    requested = []

    class SerialPool:
        """Stands in for the thread pool: records its size, runs nothing in threads."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
    threads = threading.active_count()
    # only CSI-error runs, which keep the dense per-trial solve, use a pool
    dense = dict(scenario="csi-error-ber", csi_error_var=1e-3)
    capped = run_scenario(tiny_config(trials=3, workers=8, **dense))
    assert requested == [3]
    assert threading.active_count() == threads
    assert records_equal(capped[0], run_scenario(tiny_config(trials=3, workers=1, **dense))[0])
    run_scenario(tiny_config(trials=1, workers=8, **dense))
    assert requested == [3]  # one trial runs inline, with no pool at all
    run_scenario(tiny_config(trials=20, workers=8))
    assert requested == [3]  # exact CSI runs its trial blocks serially


BLOCK_SCENARIOS = [
    tiny_config(n=32, paths=3, trials=20, snr_db=(6.0, 14.0), seed=31),
    tiny_config(n=32, paths=3, trials=20, snr_db=(10.0,), seed=32, eve_mode="random"),
    tiny_config(n=32, paths=3, trials=20, snr_db=(10.0,), seed=33, eve_mode="biased", eve_bias=1e-3),
    tiny_config(scenario="bob-vs-afdm-ber", n=32, paths=3, trials=20, snr_db=(4.0, 10.0), seed=34),
    tiny_config(scenario="bias-sweep", n=32, paths=2, trials=20, snr_db=(12.0,), seed=35, bias_values=(0.0, 1e-3)),
    tiny_config(n=1024, paths=3, trials=7, snr_db=(8.0,), seed=36),
    tiny_config(n=32, paths=3, trials=20, snr_db=(8.0,), seed=37, integer_doppler=True),
    tiny_config(n=32, paths=3, trials=20, snr_db=(12.0,), seed=38, modulation="qam16", m=16, eve_mode="random"),
    tiny_config(scenario="bob-vs-afdm-ber", n=32, paths=3, trials=20, snr_db=(14.0,), seed=39, modulation="qam16", m=16),
]


# Ids name each case by its config as written: bias-sweep's "zeros" is the default it was
# built with, before the config turns it into the biased guess that bias-sweep runs.
BLOCK_IDS = [
    "eve-ber-zeros-n32",
    "eve-ber-random-n32",
    "eve-ber-biased-n32",
    "bob-vs-afdm-ber-zeros-n32",
    "bias-sweep-zeros-n32",
    "eve-ber-zeros-n1024",
    "eve-ber-integer-doppler-n32",
    "eve-ber-random-qam16-m16-n32",
    "bob-vs-afdm-ber-qam16-m16-n32",
]


@pytest.mark.parametrize("cfg", BLOCK_SCENARIOS, ids=BLOCK_IDS)
def test_trial_blocks_do_not_change_records(cfg, monkeypatch):
    default = harness._block_size(cfg.n)
    assert cfg.trials % default and cfg.trials % 3  # a short last block at every size
    solves = []
    banded = harness.banded_mmse_equalize

    def counted(r, taps, sigma2):
        solves.append(len(taps))
        return banded(r, taps, sigma2)

    monkeypatch.setattr(harness, "banded_mmse_equalize", counted)
    records = {}
    for size in (1, 3, default):
        monkeypatch.setattr(harness, "_block_size", lambda n, size=size: size)
        solves.clear()
        records[size] = run_scenario(cfg)
        points = len(records[size])
        assert len(solves) == -(-cfg.trials // size) * points  # one stacked solve per block
        per_trial = 1 if cfg.scenario == "bob-vs-afdm-ber" else 2  # Bob's system, and Eve's
        assert sum(solves) == cfg.trials * per_trial * points
    for size in (3, default):
        assert all(records_equal(a, b) for a, b in zip(records[1], records[size]))
    assert any(r.bob_ber > 0 for r in records[1])


def test_one_banded_factorization_per_block(monkeypatch):
    cfg = BLOCK_SCENARIOS[0]  # eve-ber, n=32: all 20 trials of a point in one block of 40 systems
    assert cfg.trials <= harness._block_size(cfg.n)
    calls = []
    factor = detection._zpbtrf

    def counted(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(detection, "_zpbtrf", counted)
    run_scenario(cfg)
    assert len(calls) == len(cfg.snr_db)


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


def test_config_rejects_analytic_scenario_names():
    # the sinr-curve and search-space subcommands never read the scenario
    for scenario in ("sinr-vs-c2max", "search-space"):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ExperimentConfig.from_dict({"scenario": scenario})


def test_awgn_reference_ber():
    # flat unit-gain channel, synchronized schedules: the chain must land on
    # the QPSK AWGN curve Q(sqrt(snr)) since every transform in it is unitary
    rng = np.random.default_rng(11)
    n = 64
    params = FrameParams.for_profile(n, 2.0, 2)
    spec = qpsk()
    flat = ChannelRealization([1.0], [0], [0.0])
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
    assert np.max(np.abs(alice.values - exact.values)) == 0.0
    for bias in (1e-3, 0.02):
        guess = _eve_guess("biased", alice, book, rng, bias)
        # one entry is pinned to the boundary; addition rounding is all
        # that separates the measured sup-norm from the requested bias
        assert np.max(np.abs(alice.values - guess.values)) == pytest.approx(bias, rel=1e-9)


def test_bias_sweep_scenario():
    cfg = tiny_config(
        scenario="bias-sweep",
        snr_db=(60.0,),
        bias_values=(0.0, 0.3),
        trials=6,
    )
    assert cfg.eve_mode == "biased"  # the guess an unset eve_mode means for bias-sweep
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


@pytest.mark.parametrize(
    "cfg",
    [
        tiny_config(n=64, paths=3, trials=40, snr_db=(6.0, 14.0), seed=21),
        tiny_config(n=64, paths=3, trials=40, snr_db=(10.0,), seed=22, eve_mode="random", c2max=0.0125),
        tiny_config(scenario="bob-vs-afdm-ber", n=64, paths=3, trials=40, snr_db=(4.0, 10.0), seed=23),
        tiny_config(
            scenario="bob-vs-afdm-ber", n=48, paths=4, trials=30, snr_db=(8.0,), seed=24, integer_doppler=True
        ),
        tiny_config(scenario="bias-sweep", n=64, paths=3, trials=20, snr_db=(12.0,), seed=25, bias_values=(0.0, 1e-4, 1e-3)),
    ],
    ids=["eve-zeros", "eve-random", "bob-vs-afdm", "bob-vs-afdm-integer", "bias-sweep"],
)
def test_time_domain_solve_matches_dense_replay(cfg, monkeypatch):
    fast = run_scenario(cfg)
    # a positive csi_error_var sends every receiver through its front end, the
    # dense effective matrix and the Cholesky MMSE; the identity perturbation
    # keeps that channel knowledge exact
    monkeypatch.setattr(harness, "_perturb", lambda matrix, rng, var: matrix)
    dense = run_scenario(replace(cfg, csi_error_var=1e-300))
    assert all(records_equal(a, b) for a, b in zip(fast, dense))
    assert any(r.bob_ber > 0 for r in fast)


def test_run_sinr_curve_matches_analytics():
    c2max, sinr = run_sinr_curve(tiny_config(c2max_values=(1e-6, 1e-5, 1e-4)))
    assert c2max.dtype == sinr.dtype == np.float64
    assert c2max.tolist() == [1e-6, 1e-5, 1e-4]
    assert sinr.tolist() == [sinr_eve_average(32, 10**2.5, c) for c in (1e-6, 1e-5, 1e-4)]
    default, _ = run_sinr_curve(tiny_config())
    assert default.size == 17
    assert default[0] == pytest.approx(0.05 * 1e-2)
    assert default[-1] == pytest.approx(0.05 * 1e2)


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
    assert set(meta) == {"version", "rng", "seed_policy", "provenance", "config", "wall_ms", "wilson_95"}
    assert meta["config"]["n"] == 32
    assert meta["config"]["snr_db"] == [10.0, 20.0]
    assert len(meta["wilson_95"]["bob"]) == 2
    assert meta["wilson_95"]["eve"] == [None, None]


@pytest.mark.parametrize("scenario", ["bob-vs-afdm-ber", "eve-ber"])
def test_sidecar_intervals_cover_every_receiver(scenario, tmp_path):
    cfg = tiny_config(scenario=scenario, trials=4, snr_db=(10.0, 20.0))
    recs = run_scenario(cfg)
    emit_csv(recs, tmp_path / "sweep.csv", cfg)
    intervals = json.loads((tmp_path / "sweep.csv.meta.json").read_text())["wilson_95"]
    assert set(intervals) == {"bob", "eve", "afdm"}
    for name in intervals:
        simulated = [not math.isnan(getattr(rec, f"{name}_ber")) for rec in recs]
        assert [iv is not None for iv in intervals[name]] == simulated
        assert all(lo <= hi for lo, hi in filter(None, intervals[name]))


def test_sidecar_records_the_package_version_and_the_guess_that_ran(tmp_path):
    cfg = tiny_config(scenario="bias-sweep", trials=2, bias_values=(0.0, 1e-3))
    emit_csv(run_scenario(cfg), tmp_path / "sweep.csv", cfg)
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["version"] == seafdm.__version__
    assert meta["config"]["eve_mode"] == "biased"


def test_sidecar_records_provenance_and_leaves_the_csv_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    recs = [TrialRecord(10.0, 0.25, 0.5, float("nan"), 128, 7, wall_ms=3.5)]
    path = tmp_path / "sweep.csv"
    emit_csv(recs, path, tiny_config())
    assert path.read_bytes() == b"point,bob_ber,eve_ber,afdm_ber,bit_count,seed\r\n10.0,0.25,0.5,nan,128,7\r\n"
    prov = json.loads((tmp_path / "sweep.csv.meta.json").read_text())["provenance"]
    assert set(prov) == {"python", "numpy", "numpy_blas", "scipy", "scipy_blas", "cpu_count", "thread_env"}
    assert prov["numpy"] == np.__version__
    assert prov["cpu_count"] == os.cpu_count()
    assert prov["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}


def test_csi_error_is_drawn_in_place_with_the_same_bytes():
    rng = np.random.default_rng(41)
    exact = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    before = exact.copy()
    for var in (1e-4, 0.3):
        got = harness._perturb(exact, np.random.default_rng(42), var)
        draw = np.random.default_rng(42)
        a, b = draw.standard_normal(exact.shape), draw.standard_normal(exact.shape)
        assert got.tobytes() == (exact + np.sqrt(var / 2.0) * (a + 1j * b)).tobytes()
        assert exact.tobytes() == before.tobytes()
    assert harness._perturb(exact, rng, 0.0) is exact


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


def test_failed_sidecar_write_keeps_the_earlier_pair(tmp_path, monkeypatch):
    path = tmp_path / "sweep.csv"
    emit_csv(run_scenario(tiny_config(trials=2)), path, tiny_config(trials=2))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"sweep.csv", "sweep.csv.meta.json"}

    real_open = Path.open

    def full_disk_for_sidecars(self, *args, **kwargs):
        if ".meta.json" in self.name:
            raise OSError(28, "No space left on device")
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", full_disk_for_sidecars)
    cfg = tiny_config(trials=3, seed=4)
    with pytest.raises(OSError):
        emit_csv(run_scenario(cfg), path, cfg)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_identical_seeds_identical_csv_bytes(tmp_path):
    cfg = tiny_config(trials=6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scenario(cfg), a)
    emit_csv(run_scenario(cfg), b)
    assert a.read_bytes() == b.read_bytes()


# Integer (bob, eve, afdm, bit_count) per sweep point, None where a receiver
# is not simulated.  Any change to a draw, its order or a stage's rounding
# moves these counts, so a refactor that keeps them keeps the CSV bytes.
GOLDEN_COUNTS = [
    (
        ExperimentConfig(scenario="eve-ber", n=64, snr_db=(5.0, 20.0), trials=24, seed=3),
        [(322, 375, None, 3072), (0, 170, None, 3072)],
    ),
    (
        ExperimentConfig(scenario="eve-ber", n=64, snr_db=(15.0,), trials=24, seed=4, eve_mode="random"),
        [(9, 263, None, 3072)],
    ),
    (
        ExperimentConfig(scenario="eve-ber", n=64, snr_db=(15.0,), trials=24, seed=5, eve_mode="biased", eve_bias=2e-4),
        [(13, 717, None, 3072)],
    ),
    (
        ExperimentConfig(scenario="bob-vs-afdm-ber", n=64, snr_db=(0.0, 10.0), trials=40, seed=6),
        [(1039, None, 1080, 5120), (229, None, 221, 5120)],
    ),
    (
        ExperimentConfig(scenario="bob-vs-afdm-ber", n=256, snr_db=(10.0,), trials=10, seed=7, integer_doppler=True),
        [(170, None, 157, 5120)],
    ),
    (
        ExperimentConfig(scenario="bob-vs-afdm-ber", n=64, snr_db=(10.0,), trials=12, seed=8, csi_error_var=1e-3),
        [(81, None, 81, 1536)],
    ),
    (
        ExperimentConfig(scenario="bob-vs-afdm-ber", n=64, snr_db=(float("inf"),), trials=8, seed=9),
        [(0, None, 0, 1024)],
    ),
    (
        ExperimentConfig(scenario="bias-sweep", n=64, snr_db=(20.0,), bias_values=(0.0, 1e-3), trials=12, seed=10),
        [(1, 1, None, 1536), (1, 579, None, 1536)],
    ),
    (
        ExperimentConfig(
            scenario="csi-error-ber", n=64, modulation="qam16", snr_db=(20.0,), trials=10, seed=11,
            csi_error_var=1e-3, workers=2,
        ),
        [(331, 484, None, 2560)],
    ),
    (
        ExperimentConfig(scenario="eve-ber", n=64, snr_db=(10.0,), trials=12, seed=12, lfsr_taps=(5, 2, 0)),
        [(52, 124, None, 1536)],
    ),
    (
        ExperimentConfig(scenario="eve-ber", n=4, paths=3, snr_db=(10.0,), trials=37, seed=13),
        [(9, 6, None, 296)],
    ),
    (
        ExperimentConfig(scenario="bob-vs-afdm-ber", n=32, paths=2, ncp=1, snr_db=(10.0,), trials=20, seed=14),
        [(34, None, 35, 1280)],
    ),
    (
        ExperimentConfig(scenario="eve-ber", n=1024, snr_db=(10.0,), trials=3, seed=15),
        [(298, 2978, None, 6144)],
    ),
]


@pytest.mark.parametrize(
    "cfg, expected",
    GOLDEN_COUNTS,
    ids=[
        "eve-zeros", "eve-random", "eve-biased", "bob-vs-afdm", "integer-doppler-n256", "csi-error-afdm",
        "noiseless", "bias-sweep", "csi-error-qam16-2-workers", "taps-5-2-0", "n4-3-paths",
        "two-paths-ncp1", "eve-n1024",
    ],
)
def test_golden_error_counts(cfg, expected):
    got = []
    for rec in run_scenario(cfg):
        counts = [None if math.isnan(ber) else round(ber * rec.bit_count) for ber in (rec.bob_ber, rec.eve_ber, rec.afdm_ber)]
        got.append((*counts, rec.bit_count))
    assert got == expected
