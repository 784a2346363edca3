"""The package's import layering, read from the source files with ast."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_the_delay_profile_is_written_in_the_channel_module_alone():
    # the harness gets its links from paths_from_draws and never builds a realization itself
    harness = _package_imports(SRC / "harness.py")
    assert ("seafdm.channel", "paths_from_draws") in harness
    assert [entry for entry in harness if entry[1] == "ChannelRealization"] == []


def test_detection_imports_only_the_exceptions_from_the_package():
    assert {module for module, _ in _package_imports(SRC / "detection.py")} == {"seafdm.exceptions"}


_UNIMPORTED_RUN = """
import ctypes, json, sys
from seafdm import ExperimentConfig, detection, run_scenario
common = dict(n=16, paths=2, trials=1, snr_db=(10.0,))
run_scenario(ExperimentConfig(scenario="eve-ber", **common))
run_scenario(ExperimentConfig(scenario="csi-error-ber", csi_error_var=1e-3, **common))
unimported = sorted({"scipy.linalg", "numpy.f2py"} - set(sys.modules))
import scipy.linalg.cython_lapack
lapack = scipy.linalg.cython_lapack
address = lambda fn: ctypes.cast(fn, ctypes.c_void_p).value
print(json.dumps({
    "unimported": unimported,
    "same_module": lapack is detection._cython_lapack,
    "same_pointer": address(detection._routine(lapack, "zpbtrf", 6)) == address(detection._zpbtrf),
}))
"""


def test_a_run_imports_neither_scipy_linalg_nor_f2py():
    """Both solvers reach scipy's Cython LAPACK without the scipy.linalg package; a later import of it finds the same module."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _UNIMPORTED_RUN], env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"unimported": ["numpy.f2py", "scipy.linalg"], "same_module": True, "same_pointer": True}
    # with scipy.linalg imported first, the solvers use the module it holds
    first = "import scipy.linalg, sys; from seafdm import detection as d; m = d._cython_lapack; "
    first += "print(scipy.linalg.cython_lapack is m and sys.modules['scipy.linalg.cython_lapack'] is m)"
    out = subprocess.run([sys.executable, "-c", first], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"]


_RELOADED_SOLVE = """
import importlib, json, sys
import numpy as np
from seafdm import detection
rng = np.random.default_rng(3)
taps = rng.standard_normal((2, 3, 16)) + 1j * rng.standard_normal((2, 3, 16))
r = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
before = detection.banded_mmse_equalize(r, taps, 0.1)
importlib.reload(detection)
after = detection.banded_mmse_equalize(r, taps, 0.1)
print(json.dumps({
    "same_bytes": before.tobytes() == after.tobytes(),
    "entered": sorted(name for name in ("scipy.linalg", "scipy.linalg.cython_blas", "scipy.linalg.cython_lapack") if name in sys.modules),
}))
"""


def test_reloading_the_solvers_keeps_their_bytes():
    """A second load of the extension modules finds no sys.modules entry of theirs to remove."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _RELOADED_SOLVE], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {"same_bytes": True, "entered": []}


def test_a_missing_extension_file_names_its_path():
    from seafdm import detection

    with pytest.raises(ImportError, match=r"scipy\.linalg\.cython_nothing .*linalg[/\\]cython_nothing"):
        detection._scipy_cython("cython_nothing")



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
