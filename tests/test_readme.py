"""The README's code must run against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block_after(marker: str) -> str:
    """Source of the first fenced Python block that follows ``marker``."""
    text = README.read_text()
    match = re.search(r"```python\n(.*?)```", text[text.index(marker):], re.S)
    assert match, f"no python block after {marker!r}"
    return match.group(1)


def test_low_level_quickstart_runs(capsys):
    source = python_block_after("Low level, one frame end to end")
    exec(compile(source, str(README), "exec"), {})
    ber = float(capsys.readouterr().out)
    # one 25 dB frame of 128 bits through the synchronized receiver
    assert 0.0 <= ber <= 0.05
