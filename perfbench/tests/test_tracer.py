"""The traced run must time the simulator without changing what it computes."""

from __future__ import annotations

import importlib
import sys

import pytest

import tracer
from check import counts_from_record
from seafdm import ExperimentConfig, run_scenario


def config(**overrides):
    base = dict(scenario="eve-ber", n=32, paths=2, trials=6, seed=5, c2max=0.05)
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIGS = [
    config(scenario="bob-vs-afdm-ber"),
    config(),
    config(scenario="csi-error-ber", modulation="qam16", m=16, csi_error_var=1e-3, workers=2),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.scenario)
def test_wrappers_keep_error_counts_and_are_removed(cfg):
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _ in tracer.PLAN
    }
    plain = run_scenario(cfg)
    with tracer.Tracer() as tr:
        timed = run_scenario(cfg)
    assert [counts_from_record(r) for r in timed] == [counts_from_record(r) for r in plain]
    assert [r.bit_count for r in timed] == [r.bit_count for r in plain]
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn
    assert tr.totals()[tracer.TRIAL]["calls"] == cfg.trials


def test_layers_and_harness_self_add_up_to_the_trial_wall():
    cfg = config(scenario="bob-vs-afdm-ber", trials=50)
    with tracer.Tracer() as tr:
        rec = run_scenario(cfg)[0]
    metrics = tracer.layer_metrics(tr.totals(), cfg.trials, rec.wall_ms / 1e3, cfg.n, 2)
    parts = sum(metrics[f"{layer}_ms"][0] for layer in tracer.LAYERS) + metrics["harness.self_ms"][0]
    assert parts == pytest.approx(metrics["harness.trial_ms"][0], rel=0.05)
    assert metrics["harness.pool_overlap"][0] == pytest.approx(1.0, abs=0.05)


def test_per_thread_counts_survive_a_contended_pool():
    # more workers than cores and a short switch interval: a lost update
    # in the per-layer tables would break the exact call counts
    cfg = config(scenario="csi-error-ber", csi_error_var=1e-3, n=16, trials=48, workers=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.Tracer() as tr:
            run_scenario(cfg)
    finally:
        sys.setswitchinterval(interval)
    per_trial = {
        tracer.TRIAL: 1,
        "keystream.schedule": 1,
        "waveform.map": 1,
        "waveform.modulate": 1,
        "waveform.front_end": 3,  # Bob's and Eve's front ends, Eve's descramble
        "daft.transform": 3,
        "daft.prefix": 3,
        "channel.sample": 2,
        "channel.apply": 2,
        "channel.matrix": 2,
        "detection.mmse": 2,
        "detection.demap": 4,
    }
    totals = tr.totals()
    assert {layer: row["calls"] for layer, row in totals.items()} == {
        layer: k * cfg.trials for layer, k in per_trial.items()
    }
