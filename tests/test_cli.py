"""Command line interface tests."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from seafdm import ExperimentConfig, harness
from seafdm.channel import ChannelRealization
from seafdm.cli import _load_config, build_parser, main

from oracles import read_csv


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "ok" in capsys.readouterr().out


def test_simulate_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        [
            "simulate",
            "--set", "n=32",
            "--set", "paths=2",
            "--set", "trials=4",
            "--set", "snr_db=[15, 25]",
            "--set", "seed=5",
            "--out", str(out),
        ]
    )
    assert code == 0
    records = read_csv(out)
    assert [r.point for r in records] == [15.0, 25.0]
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 5
    assert f"wrote {out}" in capsys.readouterr().out


def test_simulate_scenario_flag_overrides_config(tmp_path):
    # the scenario is a config field like any other: --set overrides the file's
    cfg = tmp_path / "eve.yaml"
    cfg.write_text("scenario: eve-ber\nn: 32\npaths: 2\ntrials: 3\n")
    out = tmp_path / "ref.csv"
    code = main(["simulate", "--config", str(cfg), "--set", "scenario=bob-vs-afdm-ber", "--out", str(out)])
    assert code == 0
    rec = read_csv(out)[0]
    assert rec.afdm_ber == rec.afdm_ber  # reference branch actually ran


def test_config_file_plus_override(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("n: 32\npaths: 2\ntrials: 3\nsnr_db: [20]\nseed: 9\n")
    out = tmp_path / "cfg.csv"
    assert main(["simulate", "--config", str(cfg), "--set", "seed=11", "--out", str(out)]) == 0
    assert read_csv(out)[0].seed == 11


def load(*argv):
    return _load_config(build_parser().parse_args(["simulate", *argv]))


def test_config_from_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("scenario: eve-ber\nn: 32\npaths: 2\nsnr_db: [10, 20]\ntrials: 5\n")
    cfg = load("--config", str(path))
    assert cfg.n == 32
    assert cfg.snr_db == (10.0, 20.0)
    assert cfg.trials == 5
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load("--config", str(empty)) == ExperimentConfig()
    # a lone eve_bias is a one-value sweep, in a file or an override
    path.write_text("eve_mode: biased\neve_bias: 2.0e-4\nsnr_db: [10, 20]\n")
    assert load("--config", str(path)).eve_bias == (2e-4,)
    assert load("--config", str(path), "--set", "eve_bias=1e-3").eve_bias == (1e-3,)


def test_float_written_without_a_dot_runs(tmp_path):
    # YAML 1.1 reads 1e-4 as a string; the config parses it as the number it spells
    cfg = tmp_path / "csi.yaml"
    cfg.write_text("n: 16\npaths: 2\ntrials: 2\nsnr_db: [20]\ncsi_error_var: 1e-4\n")
    out = tmp_path / "csi.csv"
    assert main(["simulate", "--config", str(cfg), "--set", "c2max=1e-3", "--out", str(out)]) == 0
    assert load("--config", str(cfg), "--set", "c2max=1e-3").csi_error_var == 1e-4
    assert read_csv(out)[0].bit_count == 64


def test_bool_float_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bool.yaml"
    cfg.write_text("c2max: true\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "c2max" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["maybe", "1", "0", "[true]"])
def test_non_boolean_integer_doppler_exits_2(value, tmp_path, capsys):
    out = tmp_path / "doppler.csv"
    assert main(["simulate", "--set", f"integer_doppler={value}", "--out", str(out)]) == 2
    assert "integer_doppler" in capsys.readouterr().err
    assert not out.exists()
    assert load("--set", "integer_doppler=true").integer_doppler is True


def test_bad_override_exits_2(capsys):
    assert main(["simulate", "--set", "bogus_key=1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--set", "no-equals-sign"]) == 2


BIAS_SWEEP = ["simulate", "--set", "eve_mode=biased", "--set", "n=32", "--set", "paths=2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", "snr_db=[.nan]"],
        ["simulate", "--set", "snr_db=[20, -.inf]"],
        ["simulate", "--set", "eve_bias=.inf"],
        [*BIAS_SWEEP, "--set", "eve_bias=[0.0, -0.001]"],
        [*BIAS_SWEEP, "--set", "eve_bias=[1.0e-6, -1.0e-6]"],
        [*BIAS_SWEEP, "--set", "eve_bias=[.nan]"],
    ],
)
def test_bad_snr_or_bias_exits_2_before_any_trial(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_dead_noiseless_channel_exits_4(tmp_path, monkeypatch, capsys):
    def dead_paths(draws, alpha_max, *, n, integer_doppler=False):
        shape = (len(draws), draws.shape[-1])  # (links, paths)
        return ChannelRealization(np.zeros(shape), np.arange(shape[1]), np.zeros(shape))

    monkeypatch.setattr(harness, "paths_from_draws", dead_paths)
    argv = ["simulate", "--set", "n=16", "--set", "trials=1", "--set", "snr_db=[.inf]"]
    assert main([*argv, "--out", str(tmp_path / "dead.csv")]) == 4
    assert "numeric error:" in capsys.readouterr().err
    assert not (tmp_path / "dead.csv").exists()


def test_solver_error_while_a_block_finishes_exits_4(tmp_path, monkeypatch, capsys):
    # the third frame's channel is dead; its block fails when its last trial finishes it
    calls = []
    live = harness.paths_from_draws

    def third_dead(draws, alpha_max, *, n, integer_doppler=False):
        calls.append(len(draws))
        links = live(draws, alpha_max, n=n, integer_doppler=integer_doppler)
        gains = links.gains.copy()
        gains[4] = 0.0  # Bob's and Eve's channels alternate: this is trial 2's Bob
        return ChannelRealization(gains, links.delays, links.dopplers)

    monkeypatch.setattr(harness, "paths_from_draws", third_dead)
    monkeypatch.setattr(harness, "_block_size", lambda n: 4)
    argv = ["simulate", "--set", "n=16", "--set", "trials=6", "--set", "snr_db=[.inf]"]
    assert main([*argv, "--out", str(tmp_path / "dead.csv")]) == 4
    assert "numeric error:" in capsys.readouterr().err
    assert calls == [8]  # the failure surfaced when trial 3 completed the first block, before the second began
    assert not (tmp_path / "dead.csv").exists()


@pytest.mark.parametrize(
    "override",
    [
        "seed=-1", "seed=1.5", "trials=2.5", "paths=2.5", "workers=2.5", "ncp=true", "lfsr_taps=[5, 2]",
        f"m={2**64}",  # past the largest codebook size
    ],
)
def test_bad_integer_field_exits_2(override, capsys):
    assert main(["simulate", "--set", "n=32", "--set", override]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_yaml_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("n: [32\npaths: 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--set", "snr_db=[10, 20"]) == 2
    assert "error:" in capsys.readouterr().err
    cfg.write_text("- n: 32\n- paths: 2\n")  # well-formed YAML, but a list
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "must contain a mapping" in capsys.readouterr().err


def test_missing_config_file_exits_3(capsys):
    assert main(["simulate", "--config", "/nonexistent/exp.yaml"]) == 3
    assert "io error:" in capsys.readouterr().err


def test_bias_sweep_command(tmp_path):
    out = tmp_path / "bias.csv"
    code = main(
        [
            "simulate",
            "--set", "eve_mode=biased",
            "--set", "n=32",
            "--set", "paths=2",
            "--set", "trials=3",
            "--set", "snr_db=[60]",
            "--set", "eve_bias=[0.0, 0.3]",
            "--out", str(out),
        ]
    )
    assert code == 0
    records = read_csv(out)
    assert [r.point for r in records] == [0.0, 0.3]
    assert records[0].eve_ber == 0.0
    assert records[1].eve_ber > 0.3


def test_bias_sweep_without_values_exits_2(capsys):
    assert main([*BIAS_SWEEP, "--set", "eve_bias=[]"]) == 2
    assert "eve_bias" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ("snr_db=", "snr_db"),
        ("bias_values=", "bias_values"),
        ("c2max_values=", "c2max_values"),
        (f"c2max={10**400}", "c2max"),
        ("eve_mode=random", "eve_mode"),
        ("eve_mode=zeros", "eve_mode"),
        (f"m={2**63}", "m"),
        (f"n={10**400}", "n"),
        (f"trials={2**32}", "trials"),
        ("workers=257", "workers"),
        # one interceptor scenario, swept over snr_db or eve_bias, not both
        ("snr_db=[5, 10]", "snr_db"),
        ("scenario=bias-sweep", "scenario"),
    ],
)
def test_bad_value_exits_2_naming_its_field(override, field, capsys):
    assert main([*BIAS_SWEEP, "--set", "eve_bias=[0.0, 0.001]", "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["simulate", "--set", "snr_db=[-4000]"], "snr_db"),
        (["sinr-curve", "--set", "snr_db=[4000]"], "snr_db"),
        (["simulate", "--set", "eve_mode=biased", "--set", "eve_bias=1e308"], "eve_bias"),
        ([*BIAS_SWEEP, "--set", "eve_bias=[0.0, 1e308]"], "eve_bias"),
        (["simulate", "--set", "n=32", "--set", "paths=2", "--set", "c2max=1e308"], "c2max"),
        (["search-space", "--set", "c2max=1e308"], "c2max"),
        (["sinr-curve", "--set", "c2max_values=[1e308]"], "c2max_values"),
        (["simulate", "--set", "n=32", "--set", "paths=2", "--set", "alpha_max=1e307"], "alpha_max"),
        (["simulate", "--set", "n=32", "--set", "paths=2", "--set", "alpha_max=1e308"], "alpha_max"),
    ],
)
def test_a_finite_value_that_would_overflow_exits_2_naming_its_field(argv, field, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["random", "biased"])
def test_a_guess_on_bob_vs_afdm_exits_2_naming_eve_mode(mode, capsys):
    argv = ["simulate", "--set", "scenario=bob-vs-afdm-ber", "--set", f"eve_mode={mode}", "--set", "n=32", "--set", "paths=2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eve_mode" in err


@pytest.mark.parametrize("argv", [["simulate", "--scenario", "eve-ber"], ["bias-sweep", "--bias", "0.0"]])
def test_second_spellings_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_sinr_curve_table_and_csv(tmp_path, capsys):
    assert main(["sinr-curve", "--set", "c2max_values=[1.0e-6, 1.0e-4]"]) == 0
    out_text = capsys.readouterr().out
    assert out_text.count("c2max=") == 2
    out = tmp_path / "curve.csv"
    assert main(["sinr-curve", "--set", "c2max_values=[1.0e-6, 1.0e-4]", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c2max,sinr,sinr_db"
    assert len(lines) == 3
    # every cell is a plain float, and the dB column is the SINR column in dB
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [1.0e-6, 1.0e-4]
    for _, sinr, sinr_db in rows:
        assert sinr_db == 10.0 * np.log10(sinr)


@pytest.mark.parametrize("values", ["[.nan]", "[.inf]", "[1.0e-4, -1.0e-4]"])
def test_sinr_curve_rejects_non_finite_or_negative_c2max(values, capsys):
    assert main(["sinr-curve", "--set", f"c2max_values={values}"]) == 2
    captured = capsys.readouterr()
    assert "c2max_values" in captured.err
    assert captured.out == ""


def test_sinr_curve_with_infinite_snr_exits_2(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["sinr-curve", "--set", "snr_db=[.inf]", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "snr_db[0]" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sinr_curve_with_zero_c2max_needs_explicit_values(capsys):
    assert main(["sinr-curve", "--set", "c2max=0"]) == 2
    captured = capsys.readouterr()
    assert "c2max=0" in captured.err and "c2max_values" in captured.err
    assert captured.out == ""
    assert main(["sinr-curve", "--set", "c2max=0", "--set", "c2max_values=[0.0, 1.0e-4]"]) == 0
    assert capsys.readouterr().out.count("c2max=") == 2


def test_sinr_curve_default_sweep_stops_at_rate_1(capsys):
    # four decades around c2max = 1 keep only the nine points at most 1
    assert main(["sinr-curve", "--set", "c2max=1.0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 9
    assert rows[-1].startswith("c2max=1.0000e+00 ")


def test_failed_sinr_curve_write_keeps_the_earlier_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curve.csv"
    assert main(["sinr-curve", "--set", "c2max_values=[1.0e-6, 1.0e-4]", "--out", str(out)]) == 0
    before = out.read_bytes()
    real_open = Path.open

    class FullDisk:
        """A staged file that takes half of what is written, then runs out of space."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    def full_disk_for_staged_files(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        return FullDisk(fh) if self.name.endswith(".tmp") else fh

    monkeypatch.setattr(Path, "open", full_disk_for_staged_files)
    assert main(["sinr-curve", "--set", "c2max_values=[1.0e-5, 1.0e-3, 1.0e-2]", "--out", str(out)]) == 3
    monkeypatch.undo()
    assert "No space left" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


def test_search_space_report(capsys):
    assert main(["search-space", "--set", "n=64", "--set", "m=4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["search_space_bits"] == 128
    assert payload["register_degree"] == 32
    assert main(["search-space", "--set", "n=1024", "--set", "lfsr_taps=[7, 6, 0]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["search_space_bits"], payload["register_degree"]) == (2048, 7)
