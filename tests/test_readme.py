"""The README's code must run against the current API."""

from __future__ import annotations

import dataclasses
import re
import shlex
from pathlib import Path

from seafdm import ExperimentConfig, harness
from seafdm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block_after(marker: str, lang: str = "python") -> str:
    """Source of the first fenced ``lang`` block that follows ``marker``."""
    text = README.read_text()
    match = re.search(rf"```{lang}\n(.*?)```", text[text.index(marker):], re.S)
    assert match, f"no {lang} block after {marker!r}"
    return match.group(1)


def test_low_level_quickstart_runs(capsys):
    source = fenced_block_after("Low level, one frame end to end")
    exec(compile(source, str(README), "exec"), {})
    ber = float(capsys.readouterr().out)
    # one 25 dB frame of 128 bits through the synchronized receiver
    assert 0.0 <= ber <= 0.05


def test_command_line_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = fenced_block_after("## Command line", "sh").replace("\\\n", " ").splitlines()
    assert len(commands) == 5
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "seafdm"
        assert main(argv) == 0, command


def test_config_table_lists_every_field_in_order():
    text = README.read_text()
    table = text[text.index("Config fields"):text.index("Scenarios, the values")]
    keys = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert keys == [field.name for field in dataclasses.fields(ExperimentConfig)]


def test_block_rule_is_the_harness_rule():
    rule = re.search(r"run in blocks of `B = ([^`]+)` trials", README.read_text()).group(1)
    for n in (16, 64, 256, 1024, 2048, 4096):
        assert eval(rule, {"max": max, "n": n}) == harness._block_size(n), (rule, n)
