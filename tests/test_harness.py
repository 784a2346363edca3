"""Tests for the Monte Carlo harness: configs, determinism, persistence."""

from __future__ import annotations

import json
import math
import os
import threading
import tracemalloc
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
from seafdm import daft as daft_module
from seafdm import detection, harness, keystream
from seafdm.channel import ChannelRealization
from seafdm.daft import LevelRates
from seafdm.harness import (
    TrialRecord,
    _draw_guess,
    _guess_rates,
    emit_csv,
    run_sinr_curve,
    search_space_summary,
    wilson,
)
from seafdm.keystream import C2Schedule
from seafdm.sinr import sinr_eve_average

from oracles import read_csv


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
    # bob-vs-afdm-ber has no interceptor: its unset eve_mode is zeros, which
    # a copy of its config passes on, and any guess that draws is rejected
    bob = ExperimentConfig(scenario="bob-vs-afdm-ber")
    assert bob.eve_mode == "zeros" and replace(bob, seed=2).eve_mode == "zeros"
    for mode in ("random", "biased"):
        with pytest.raises(ConfigError, match=f"eve_mode='{mode}'"):
            ExperimentConfig(scenario="bob-vs-afdm-ber", eve_mode=mode)


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
        # eve_bias only the biased guess reads
        {"eve_bias": 0.5},
        {"eve_bias": 0.5, "eve_mode": "random"},
        {"scenario": "bob-vs-afdm-ber", "eve_bias": 0.5},
        {"scenario": "bob-vs-afdm-ber", "eve_mode": "biased", "eve_bias": 0.5},
        {"scenario": "bias-sweep", "bias_values": (1e-3,), "eve_bias": 0.5},
        # bob-vs-afdm-ber has no interceptor to guess
        {"scenario": "bob-vs-afdm-ber", "eve_mode": "random"},
        {"scenario": "bob-vs-afdm-ber", "eve_mode": "biased"},
        # finite values past the bounds that keep trial 0 and the closed form from overflowing
        {"snr_db": (-4000.0,)},
        {"snr_db": (20.0, 4000.0)},
        {"snr_db": (-3000.5,)},
        {"eve_mode": "biased", "eve_bias": 1e308},
        {"eve_mode": "biased", "eve_bias": 1.5},
        {"scenario": "bias-sweep", "bias_values": (1e308,)},
        {"scenario": "bias-sweep", "bias_values": (0.0, 1.0 + 2**-52)},
        # a chirp rate acts modulo 1 and a Doppler modulo n (here 32)
        {"c2max": 1e308},
        {"c2max": 1.0 + 2**-52},
        {"c2max_values": (1e308,)},
        {"c2max_values": (1e-4, 1.5)},
        {"alpha_max": 1e307},
        {"alpha_max": 1e308},
        {"alpha_max": 32.5},
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


def test_config_takes_its_largest_snr_and_bias_and_runs_them():
    # each bound is a value that runs: no overflow in the trial or the closed
    # form (a RuntimeWarning fails the suite); the largest c2max is 1 and the
    # largest alpha_max is n
    common = dict(snr_db=(-3000.0, 3000.0, float("inf")), trials=2)
    largest = dict(c2max=1.0, alpha_max=32.0)
    for cfg in (
        tiny_config(eve_mode="biased", eve_bias=1.0, **common),
        tiny_config(scenario="csi-error-ber", csi_error_var=1e-3, eve_mode="biased", eve_bias=1.0, **common),
        tiny_config(scenario="bob-vs-afdm-ber", csi_error_var=1e-3, **common),
        tiny_config(scenario="bias-sweep", bias_values=(1.0,), trials=2),
        tiny_config(eve_mode="random", **largest, **common),
        tiny_config(scenario="bob-vs-afdm-ber", integer_doppler=True, **largest, **common),
        tiny_config(scenario="csi-error-ber", csi_error_var=1e-3, **largest, **common),
    ):
        assert all(0.0 <= r.bob_ber <= 1.0 for r in run_scenario(cfg))
    for value in (-3000.0, 3000.0):
        assert np.isfinite(run_sinr_curve(tiny_config(snr_db=(value,)))[1]).all()
    assert np.isfinite(run_sinr_curve(tiny_config(c2max_values=(0.0, 1.0)))[1]).all()


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


def test_raw_word_bits_are_the_generators_bits():
    # odd counts leave the high half of the last word unread, as the generator does;
    # a stack of seed words gives each row the bits it gets alone
    stack = harness._stream_words(7, 2, range(200), [0])[:, 0]
    for count in (1, 2, 3, 64, 127, 128, 257):
        bits = harness._draw_bits(stack, count)
        assert bits.dtype == np.uint32 and bits.shape == (200, count)
        assert np.array_equal(harness._draw_bits(stack[5:6], count), bits[5:6])
        for words, row in zip(stack, bits):
            assert np.array_equal(row, harness._rng(words).integers(0, 2, size=count))


def test_raw_word_states_follow_the_bytes_rule():
    zero_low_bits = 0
    stack = harness._stream_words(9, 1, range(200), [1])[:, 0]
    for degree in range(2, 65):
        states = harness._draw_lfsr_states(stack, (degree, 0))
        assert states.dtype == np.uint64 and states.shape == (200,)
        for words, state in zip(stack, states.tolist()):
            low = int.from_bytes(harness._rng(words).bytes((degree + 7) // 8), "little") & ((1 << degree) - 1)
            zero_low_bits += low == 0
            assert state == (low or 1), degree
    assert zero_low_bits > 0  # the all-zero draw becomes state 1


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
    tiny_config(n=1024, paths=3, trials=10, snr_db=(8.0,), seed=36),  # blocks of 8 and 2 at the default size
    tiny_config(n=32, paths=3, trials=20, snr_db=(8.0,), seed=37, integer_doppler=True),
    tiny_config(n=32, paths=3, trials=20, snr_db=(12.0,), seed=38, modulation="qam16", m=16, eve_mode="random"),
    tiny_config(scenario="bob-vs-afdm-ber", n=32, paths=3, trials=20, snr_db=(14.0,), seed=39, modulation="qam16", m=16),
    # two full default blocks of 128 and a short one of 7
    tiny_config(n=64, paths=3, trials=2 * 128 + 7, snr_db=(8.0,), seed=40, eve_mode="random"),
    tiny_config(scenario="bob-vs-afdm-ber", n=64, paths=3, trials=2 * 128 + 7, snr_db=(6.0,), seed=42),
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
    "eve-ber-random-n64-three-blocks",
    "bob-vs-afdm-ber-zeros-n64-three-blocks",
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


def test_a_block_holds_the_most_frames_within_the_sample_cap():
    cap = harness._BLOCK_SAMPLES
    for n in range(2, harness._LARGEST["n"] + 1):
        size = harness._block_size(n)
        # one trial per block once a frame alone exceeds the cap
        assert size * n <= cap or size == 1, n
        assert (size + 1) * n > cap, n


@pytest.mark.parametrize(
    "overrides, exponentiated",
    [
        (dict(scenario="bob-vs-afdm-ber"), False),
        (dict(eve_mode="zeros"), False),
        (dict(eve_mode="random"), False),
        (dict(eve_mode="biased", eve_bias=1e-3), True),
    ],
    ids=["bob-vs-afdm-ber", "eve-ber-zeros", "eve-ber-random", "eve-ber-biased"],
)
def test_a_second_block_exponentiates_no_scheduled_rate(overrides, exponentiated, monkeypatch):
    # scheduled rates and Eve's random guess are codebook levels, so a block
    # gathers their chirps from the tables an earlier block at the same
    # geometry built; zero rates are exact ones, and the continuous biased
    # guess is exponentiated
    cfg = tiny_config(n=32, paths=3, trials=2 * harness._block_size(32), seed=41, **overrides)
    blocks, rates = [], []
    chirp, run_block = daft_module._chirp, harness._run_block

    def recorded(c, n, conjugate):
        rates.append((len(blocks), np.array(c, dtype=np.float64)))
        return chirp(c, n, conjugate)

    def counted(*args):
        blocks.append(args[2])
        return run_block(*args)

    monkeypatch.setattr(daft_module, "_chirp", recorded)
    monkeypatch.setattr(harness, "_run_block", counted)
    run_scenario(cfg)
    assert len(blocks) == 2
    second = [c for block, c in rates if block == 2 and c.ndim and c.any()]
    assert bool(second) == exponentiated
    if exponentiated:
        # Bob's rows are stacked with Eve's, one row per link
        assert all(np.isin(c.reshape(-1, 2, cfg.n)[:, 0], cfg.codebook.levels).all() for c in second)


@pytest.mark.parametrize(
    "cfg, size, block",
    # a full block of the 20-trial point, then its short last block
    [(cfg, 5, range(5, 10)) for cfg in BLOCK_SCENARIOS[:5]] + [(cfg, 6, range(18, 20)) for cfg in BLOCK_SCENARIOS[:5]],
    ids=BLOCK_IDS[:5] + [f"{name}-short-last-block" for name in BLOCK_IDS[:5]],
)
def test_a_block_is_a_function_of_its_trial_range(cfg, size, block, monkeypatch):
    # a trial finds its block from its index, and the block's last trial runs it
    # alone: no earlier trial leaves it anything
    monkeypatch.setattr(harness, "_block_size", lambda n: size)
    sigma2, bias = 10.0 ** (-cfg.snr_db[0] / 10.0), max(cfg.bias_values, default=cfg.eve_bias)
    alone = harness._run_trial(cfg, 1, block[-1], sigma2, bias)
    every = [harness._run_trial(cfg, 1, t, sigma2, bias) for t in block]
    assert every[:-1] == [(0, 0, 0)] * (len(block) - 1)
    assert alone == tuple(map(sum, zip(*every)))
    singles = [harness._run_block(cfg, 1, range(t, t + 1), sigma2, bias) for t in block]
    assert alone == tuple(map(sum, zip(*singles)))
    assert alone[1] > 0 and alone[2] == len(block) * cfg.n * cfg.constellation.bits_per_symbol


def test_an_exact_csi_point_builds_no_register(monkeypatch):
    # a block maps its trials' register states to bits through one mask
    # table; only the CSI-error chain builds and steps a register per trial
    dense = tiny_config(scenario="csi-error-ber", csi_error_var=1e-3, trials=3)
    built, stepped = [], []
    init, next_bits = keystream.Lfsr.__init__, keystream.Lfsr.next_bits

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_next_bits(self, count):
        stepped.append(count)
        return next_bits(self, count)

    monkeypatch.setattr(keystream.Lfsr, "__init__", counted_init)
    monkeypatch.setattr(keystream.Lfsr, "next_bits", counted_next_bits)
    for cfg in BLOCK_SCENARIOS[:5]:
        run_scenario(cfg)
    assert built == [] and stepped == []
    run_scenario(dense)
    assert len(built) == len(stepped) == dense.trials


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
    levels = LevelRates(book.levels, rng.integers(0, 4, size=32))
    alice = C2Schedule(levels, "alice").values

    def guess(mode, bias):
        # the float rates of the guess, as the CSI-error trial's schedule holds them; zeros draws nothing
        draws = None if mode == "zeros" else _draw_guess(mode, rng, alice.size, book.m, bias)
        rates = _guess_rates(mode, levels, draws)
        return C2Schedule(rates, "eve").values

    assert np.all(guess("zeros", 0.0) == 0)
    assert np.all(np.isin(guess("random", 0.0), book.levels))
    assert np.max(np.abs(alice - guess("biased", 0.0))) == 0.0
    for bias in (1e-3, 0.02):
        # one entry is pinned to the boundary; addition rounding is all
        # that separates the measured sup-norm from the requested bias
        assert np.max(np.abs(alice - guess("biased", bias))) == pytest.approx(bias, rel=1e-9)


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


@pytest.mark.parametrize("guess", [dict(eve_mode="zeros"), dict(eve_mode="random"), dict(eve_mode="biased", eve_bias=1e-3)])
def test_csi_error_ber_is_eve_ber_with_a_csi_error(guess):
    # one decision picks the receiver beside Bob, so the scenario name adds
    # nothing once csi_error_var is set
    common = dict(n=32, paths=2, trials=6, snr_db=(10.0, 20.0), csi_error_var=1e-3, **guess)
    csi = run_scenario(tiny_config(scenario="csi-error-ber", **common))
    eve = run_scenario(tiny_config(scenario="eve-ber", **common))
    assert len(csi) == 2 and all(records_equal(a, b) for a, b in zip(csi, eve))


@pytest.mark.parametrize("bias", [0.0, 1e-4, 1e-3])
def test_a_bias_sweep_point_is_eve_ber_with_that_bias(bias):
    # point 0 of the sweep is trial for trial the biased eve-ber point at snr_db[0]
    common = dict(n=64, paths=3, trials=40, seed=9, snr_db=(15.0,))
    swept = run_scenario(tiny_config(scenario="bias-sweep", bias_values=(bias,), **common))[0]
    fixed = run_scenario(tiny_config(scenario="eve-ber", eve_mode="biased", eve_bias=bias, **common))[0]
    assert records_equal(replace(swept, point=15.0), fixed)


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
    # dense effective matrix and the Cholesky MMSE; a zero estimate error
    # keeps that channel knowledge exact
    monkeypatch.setattr(harness, "_add_csi_error", lambda h, rng, var, draw: h)
    dense = run_scenario(replace(cfg, csi_error_var=1e-300))
    assert all(records_equal(a, b) for a, b in zip(fast, dense))
    assert any(r.bob_ber > 0 for r in fast)


def test_run_sinr_curve_matches_analytics():
    c2max, sinr = run_sinr_curve(tiny_config(c2max_values=(1e-6, 1e-5, 1e-4)))
    assert c2max.dtype == sinr.dtype == np.float64
    assert c2max.tolist() == [1e-6, 1e-5, 1e-4]
    assert sinr.tolist() == [sinr_eve_average(32, 10**2.5, c) for c in (1e-6, 1e-5, 1e-4)]
    default, _ = run_sinr_curve(tiny_config())
    # the four decades around c2max = 0.05 stop at the last point at most 1
    assert default.size == 14
    assert default[0] == pytest.approx(0.05 * 1e-2)
    assert default[-1] == pytest.approx(0.05 * 10**1.25)


def test_search_space_summary():
    out = search_space_summary(tiny_config(n=64, m=4, c2max=4.88e-5))
    assert out["search_space_bits"] == 128
    assert out["bits_per_subcarrier"] == 2
    assert out["log10_schedules"] == pytest.approx(128 * np.log10(2))
    # every schedule comes from one state of the degree-32 register
    assert out["register_degree"] == 32
    assert search_space_summary(tiny_config(n=1024, lfsr_taps=(5, 2, 0)))["register_degree"] == 5


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


def _replayed_error(rng: np.random.Generator, n: int, var: float) -> np.ndarray:
    """The csi generator's next estimate error, sqrt(var/2) * (a + 1j*b) with a drawn before b."""
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return np.sqrt(var / 2.0) * (a + 1j * b)


def test_csi_error_is_drawn_in_place_with_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(41)
    exact = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    for var in (1e-4, 0.3):
        want = (exact + _replayed_error(np.random.default_rng(42), 24, var)).tobytes()
        estimate = exact.copy()
        assert harness._add_csi_error(estimate, np.random.default_rng(42), var, np.empty((24, 24))) is estimate
        assert estimate.tobytes() == want
        # the plain-AFDM row's kept error: the same draw added to zeros, then to the matrix
        kept = harness._add_csi_error(np.zeros_like(exact), np.random.default_rng(42), var, np.empty((24, 24)))
        assert (exact + kept).tobytes() == want
    # exact channel knowledge draws no error: its trials have no csi child and never perturb
    cfg = tiny_config(scenario="bob-vs-afdm-ber", trials=3)
    assert "csi" not in harness._trial_seeds(cfg, 0, range(3))
    monkeypatch.setattr(harness, "_add_csi_error", None)
    assert run_scenario(cfg)[0].bit_count == 3 * 64


@pytest.mark.parametrize("scenario", ["bob-vs-afdm-ber", "csi-error-ber"])
def test_each_receiver_adds_its_estimate_error_to_its_exact_matrix(scenario, monkeypatch):
    # Bob's error is the csi generator's first draw; the plain-AFDM row adds
    # that same error, and Eve's is the generator's second draw
    cfg = tiny_config(scenario=scenario, csi_error_var=1e-2, trials=3, snr_db=(10.0,))
    exact, estimates = [], []
    draws = 0
    build, solve, add = harness.effective_channel, harness.mmse_equalize, harness._add_csi_error

    def built(*args):
        out = build(*args)
        exact.append(out.matrix.copy())
        return out

    def solved(y, h, sigma2, **kwargs):
        # the receive hands its matrix over and gives the trial's buffer for the Gram
        assert kwargs["overwrite_h"] is True and kwargs["gram"].shape == h.shape
        estimates.append(h.copy())
        return solve(y, h, sigma2, **kwargs)

    def added(h, rng, var, draw):
        nonlocal draws
        draws += 1
        return add(h, rng, var, draw)

    monkeypatch.setattr(harness, "effective_channel", built)
    monkeypatch.setattr(harness, "mmse_equalize", solved)
    monkeypatch.setattr(harness, "_add_csi_error", added)
    run_scenario(cfg)
    afdm = scenario == "bob-vs-afdm-ber"
    assert len(estimates) == len(exact) == 2 * cfg.trials
    assert draws == (1 if afdm else 2) * cfg.trials
    for t, words in enumerate(harness._trial_seeds(cfg, 0, range(cfg.trials))["csi"]):
        replay = harness._rng(words)
        bob = _replayed_error(replay, cfg.n, cfg.csi_error_var)
        other = bob if afdm else _replayed_error(replay, cfg.n, cfg.csi_error_var)
        for row, error in zip((2 * t, 2 * t + 1), (bob, other)):
            assert estimates[row].tobytes() == (exact[row] + error).tobytes()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(eve_mode="zeros"),
        dict(eve_mode="random"),
        dict(eve_mode="biased", eve_bias=1e-3),
        dict(scenario="bob-vs-afdm-ber"),
        dict(scenario="bias-sweep", bias_values=(0.0, 1e-3)),
        dict(scenario="csi-error-ber", csi_error_var=1e-3, eve_mode="random"),
        dict(scenario="bob-vs-afdm-ber", csi_error_var=1e-3),
    ],
    ids=["eve-zeros", "eve-random", "eve-biased", "bob-vs-afdm", "bias-sweep", "csi-error", "csi-error-afdm"],
)
def test_both_chains_decide_in_one_stage(overrides, monkeypatch):
    # a block decides all its rows at once; a CSI-error trial decides each receiver's estimate
    cfg = tiny_config(n=32, paths=3, trials=8, snr_db=(6.0,), **overrides)
    decided = []
    decide = harness._decide

    def recorded(const, bits, rows):
        errors = decide(const, bits, rows)
        decided.append((rows.shape, int(np.sum(errors))))
        return errors

    monkeypatch.setattr(harness, "_decide", recorded)
    monkeypatch.setattr(harness, "_block_size", lambda n: 3)
    records = run_scenario(cfg)
    if cfg.csi_error_var == 0.0:
        per_point = [(3, 2, cfg.n), (3, 2, cfg.n), (2, 2, cfg.n)]  # blocks of 3, 3 and 2 trials
    else:
        per_point = [(cfg.n,)] * 2 * cfg.trials
    assert [shape for shape, _ in decided] == per_point * len(records)
    bers = [(ber, r.bit_count) for r in records for ber in (r.bob_ber, r.eve_ber, r.afdm_ber) if not math.isnan(ber)]
    counted = sum(round(ber * bits) for ber, bits in bers)
    assert sum(errors for _, errors in decided) == counted > 0


@pytest.mark.parametrize("scenario, streams", [("bob-vs-afdm-ber", ["bob_noise"]), ("csi-error-ber", ["bob_noise", "eve_noise"])])
def test_a_csi_error_trial_draws_each_noise_stream_once(scenario, streams, monkeypatch):
    # the plain-AFDM frame adds Bob's draws, so no second generator replays them,
    # and a noiseless point builds no noise generator
    built = []
    rng = harness._rng

    def recorded(words):
        built.append(words.tobytes())
        return rng(words)

    monkeypatch.setattr(harness, "_rng", recorded)
    for snr_db, generators in ((10.0, 1), (float("inf"), 0)):
        built.clear()
        cfg = tiny_config(scenario=scenario, csi_error_var=1e-3, trials=3, snr_db=(snr_db,))
        run_scenario(cfg)
        seeds = harness._trial_seeds(cfg, 0, range(cfg.trials))
        for name in streams:
            assert [built.count(words.tobytes()) for words in seeds[name]] == [generators] * cfg.trials, name


@pytest.mark.parametrize("scenario, floor", [("csi-error-ber", 2.25), ("bob-vs-afdm-ber", 3.25)])
def test_dense_receive_holds_two_matrices_per_receiver(scenario, floor):
    # a dense receiver holds its estimated matrix and the matrix's Gram, n-by-n
    # complex each; the plain-AFDM row's kept error is the scenario's third
    n = 256
    cfg = tiny_config(scenario=scenario, n=n, paths=3, trials=2, workers=1, csi_error_var=1e-4, snr_db=(10.0,))
    run_scenario(cfg)  # warm: plans and caches are built
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / (16 * n * n) <= floor


def test_csv_of_empty_run(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path, tiny_config())
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
    emit_csv(run_scenario(cfg), a, cfg)
    emit_csv(run_scenario(cfg), b, cfg)
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
    (
        ExperimentConfig(
            scenario="csi-error-ber", n=64, snr_db=(15.0,), trials=12, seed=16, csi_error_var=1e-3, eve_mode="random"
        ),
        [(51, 185, None, 1536)],
    ),
    (
        ExperimentConfig(
            scenario="csi-error-ber", n=64, snr_db=(15.0,), trials=12, seed=17, csi_error_var=1e-3,
            eve_mode="biased", eve_bias=2e-4,
        ),
        [(38, 441, None, 1536)],
    ),
]


@pytest.mark.parametrize(
    "cfg, expected",
    GOLDEN_COUNTS,
    ids=[
        "eve-zeros", "eve-random", "eve-biased", "bob-vs-afdm", "integer-doppler-n256", "csi-error-afdm",
        "noiseless", "bias-sweep", "csi-error-qam16-2-workers", "taps-5-2-0", "n4-3-paths",
        "two-paths-ncp1", "eve-n1024", "csi-error-random", "csi-error-biased",
    ],
)
def test_golden_error_counts(cfg, expected):
    got = []
    for rec in run_scenario(cfg):
        counts = [None if math.isnan(ber) else round(ber * rec.bit_count) for ber in (rec.bob_ber, rec.eve_ber, rec.afdm_ber)]
        got.append((*counts, rec.bit_count))
    assert got == expected
