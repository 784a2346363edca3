"""The output check replays trial (0, 0) and must catch a single wrong bit."""

from __future__ import annotations

import pytest

import check
from seafdm import ExperimentConfig

CONFIGS = [
    ExperimentConfig(scenario="bob-vs-afdm-ber", n=64, paths=3, trials=4, seed=11, snr_db=(8.0,)),
    ExperimentConfig(scenario="eve-ber", n=64, paths=3, trials=4, seed=12),
    ExperimentConfig(
        scenario="csi-error-ber", n=64, paths=3, modulation="qam16", m=16,
        csi_error_var=1e-3, trials=4, seed=13, snr_db=(15.0,),
    ),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.scenario)
def test_replay_matches_the_harness(cfg):
    harness = check.counts_from_record(check.first_trial_record(cfg))
    replay = check.replay_first_trial(cfg)
    assert check.mismatches(harness, replay) == []
    assert any(harness[name] for name in check.RECEIVERS)  # errors occur, so counts are informative


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.scenario)
def test_check_fails_when_a_replayed_bit_is_flipped(cfg, monkeypatch):
    harness = check.counts_from_record(check.first_trial_record(cfg))
    demap = check.demap

    def flipped(x_hat, spec):
        bits = demap(x_hat, spec)
        bits[0] ^= 1
        return bits

    monkeypatch.setattr(check, "demap", flipped)
    assert check.mismatches(harness, check.replay_first_trial(cfg))
