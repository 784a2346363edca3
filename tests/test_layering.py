"""The package's import layering, read from the source files with ast."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "seafdm"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of every import of the package in a source file, nested ones too.

    A relative import is resolved against the package; a plain
    ``import seafdm.x`` has no name.
    """
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["seafdm" if node.level else None, node.module]))
            if module.split(".")[0] == "seafdm":
                out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "seafdm"]
    return out


def _private(name: str | None) -> bool:
    return name is not None and name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_siblings_private_name():
    sources = sorted(SRC.glob("*.py"))
    assert {path.name for path in sources} >= {"__init__.py", "channel.py", "detection.py", "harness.py", "waveform.py"}
    leaks = [(path.name, module, name) for path in sources for module, name in _package_imports(path) if _private(name)]
    assert leaks == []
    # the reader sees relative imports, dunders included
    assert {("seafdm", "__version__"), ("seafdm.channel", "circular_taps")} <= set(_package_imports(SRC / "harness.py"))


def test_detection_imports_only_the_exceptions_from_the_package():
    assert {module for module, _ in _package_imports(SRC / "detection.py")} == {"seafdm.exceptions"}



def test_every_name_the_benchmark_reaches_for_resolves():
    """The tracer wraps each (module, attribute) of its PLAN, and the output check imports its chain from seafdm."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    plan = next(
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PLAN" for t in node.targets)
    )
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in plan.elts]
    names += [(module, name) for module, name in _package_imports(PERFBENCH / "check.py") if name is not None]
    assert {("seafdm.harness", "_run_trial"), ("seafdm", "run_scenario")} <= set(names)
    missing = [(module, name) for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []
