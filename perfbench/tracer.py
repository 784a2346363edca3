"""Per-layer timing by wrapping the layer functions the harness calls.

The simulator has no internal stage timers, so the traced run replaces the
names ``seafdm.harness`` (and, for the DAFT stages, ``seafdm.waveform``)
looks up at call time with timing wrappers, and puts the originals back on
exit.  Each wrapper records its call count, its total duration and its self
time (duration minus the wrapped calls nested inside it), so self times of
all layers plus the harness's own self time add up to the trial wall time.

Accumulation is per thread: ``run_scenario`` with ``workers > 1`` runs
trials on a thread pool, and every thread keeps its own table and span
stack, which ``totals`` merges once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

TRIAL = "harness.trial"

# (module, attribute, layer).  Names are wrapped where they are looked up:
# the harness's imports for every layer, and the waveform module's imports
# for the transform and prefix stages nested inside modulate / front end.
PLAN = (
    ("seafdm.harness", "_run_trial", TRIAL),
    ("seafdm.harness", "generate_schedule", "keystream.schedule"),
    ("seafdm.harness", "map_bits", "waveform.map"),
    ("seafdm.harness", "se_afdm_modulate", "waveform.modulate"),
    ("seafdm.harness", "bob_front_end", "waveform.front_end"),
    ("seafdm.harness", "eve_front_end", "waveform.front_end"),
    ("seafdm.harness", "descramble", "waveform.front_end"),
    ("seafdm.waveform", "daft", "daft.transform"),
    ("seafdm.waveform", "idaft", "daft.transform"),
    ("seafdm.waveform", "add_cpp", "daft.prefix"),
    ("seafdm.waveform", "remove_cpp", "daft.prefix"),
    ("seafdm.harness", "sample_channel", "channel.sample"),
    ("seafdm.harness", "apply_channel", "channel.apply"),
    ("seafdm.harness", "effective_channel", "channel.matrix"),
    ("seafdm.harness", "mmse_equalize", "detection.mmse"),
    ("seafdm.harness", "demap", "detection.demap"),
    ("seafdm.harness", "count_errors", "detection.demap"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in PLAN if layer != TRIAL))


class Tracer:
    """Context manager that installs the timing wrappers of ``PLAN``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list[float]]] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, layer in PLAN:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, layer))
                self._saved.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict[str, list[float]] = {}
            state = self._local.state = (table, [])
            with self._lock:
                self._tables.append(table)
        return state

    def _wrap(self, fn, layer: str):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            table, stack = self._thread_state()
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                row = table.setdefault(layer, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - nested

        return timed

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds, summed over threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (calls, total, own) in table.items():
                acc = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                acc["calls"] += calls
                acc["total_s"] += total
                acc["self_s"] += own
        return out


def mmse_flops(n: int) -> float:
    """Real floating-point operations of one dense complex MMSE solve.

    Gram product H H^H (8 n^3), complex Cholesky (4/3 n^3), two triangular
    solves and the final H^H product (8 n^2 each).  Counted, not measured.
    """
    return 8.0 * n**3 + 4.0 / 3.0 * n**3 + 3 * 8.0 * n**2


def layer_metrics(totals: dict, trials: int, wall_s: float, n: int, bits_per_subcarrier: int) -> dict:
    """Per-trial layer metrics, as ``{name: (value, unit)}``."""
    if trials < 1 or wall_s <= 0.0:
        raise ValueError("traced run measured no trials")
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for layer in LAYERS:
        row = totals.get(layer, empty)
        out[f"{layer}_ms"] = (row["self_s"] * 1e3 / trials, "ms")
        out[f"{layer}_calls"] = (row["calls"] / trials, "count")
    trial = totals.get(TRIAL, empty)
    out["keystream.bits_per_trial"] = (
        totals.get("keystream.schedule", empty)["calls"] * n * bits_per_subcarrier / trials,
        "count",
    )
    out["channel.matrix_bytes_per_trial"] = (
        totals.get("channel.matrix", empty)["calls"] * n * n * 16 / trials,
        "bytes",
    )
    out["detection.mmse_gflop_per_trial"] = (
        totals.get("detection.mmse", empty)["calls"] * mmse_flops(n) / 1e9 / trials,
        "GFLOP",
    )
    out["harness.self_ms"] = (trial["self_s"] * 1e3 / trials, "ms")
    out["harness.trial_ms"] = (wall_s * 1e3 / trials, "ms")
    out["harness.pool_overlap"] = (trial["total_s"] / wall_s, "ratio")
    return out
