"""seafdm Monte Carlo benchmark: trials/s per frame regime, plus traced layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload, both modes

Every measurement runs in a fresh ``workload.py`` process with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 (see NOTES.md for why).

--trace 0 starts five processes, each timing --seconds/5 of batches, and
reports the end-to-end metrics: trials_per_cal (median over batches of the
trials done in the time one run of the fixed calibration kernel took right
after the batch; see calibrate.py), setup_s (median time from process start
to ready) and peak_rss_mb (median peak resident memory).  The raw
trials_per_s is printed as a line; it follows the shared host's speed.
--trace 1 starts one untraced and one traced process,
--seconds/2 each, and reports the per-layer metrics of the traced one plus
the tracing overhead; both must give the same error counts batch by batch.

The first process of either mode also replays its first trial outside the
harness (check.py).  Failed sweep points and failed checks are counted in
``failed``; any failure makes the exit code 1.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 5
BUDGET_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("bob-afdm-n64", "eve-n1024", "csi-n256-qam16")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, seconds: float, deadline: float, *, trace=False, check=False) -> dict:
    """Run one workload process to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", repr(seconds)] + ["--trace"] * trace + ["--check"] * check
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, cwd=ROOT, env={**os.environ, **THREAD_ENV}, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process overran the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} process printed no report")
    return json.loads(lines[-1])


def batch_rates(report: dict, per_cal: bool = True) -> list[float]:
    """Trials per calibration-kernel run (or per second) of every good batch."""
    trials = report["trials_per_batch"]
    return [
        trials * (b["cal_seconds"] if per_cal else 1.0) / b["seconds"]
        for b in report["batches"]
        if b["ok"]
    ]


def tally(reports: list[dict]) -> tuple[int, int]:
    """(attempted, failed) sweep points, counting each output check as one."""
    attempted = failed = 0
    for rep in reports:
        attempted += len(rep["batches"]) + (rep["check"] is not None)
        failed += sum(not b["ok"] for b in rep["batches"]) + bool(rep["check"])
    return attempted, failed


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    reports = [
        spawn(workload, seed, seconds / PROCESSES, deadline, check=(i == 0))
        for i in range(PROCESSES)
    ]
    rates = [r for rep in reports for r in batch_rates(rep)]
    raw = [r for rep in reports for r in batch_rates(rep, per_cal=False)]
    print(f"{workload} trials_per_s = {statistics.median(raw) if raw else 0.0:.6g} 1/s (raw, host-dependent)")
    metrics = {
        "trials_per_cal": (statistics.median(rates) if rates else 0.0, "1/cal"),
        "setup_s": (statistics.median(rep["setup_s"] for rep in reports), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reports), "MB"),
    }
    attempted, failed = tally(reports)
    return metrics, attempted, failed, reports


def traced(workload: str, seed: int, seconds: float, deadline: float):
    plain = spawn(workload, seed, seconds / 2, deadline, check=True)
    timed = spawn(workload, seed, seconds / 2, deadline, trace=True)
    attempted, failed = tally([plain, timed])
    pairs = zip(plain["batches"], timed["batches"])
    diverged = sum(a["ok"] and b["ok"] and a["errors"] != b["errors"] for a, b in pairs)
    failed += diverged
    if diverged:
        print(f"{workload}: {diverged} batches differ between traced and untraced runs", file=sys.stderr)
    metrics = dict(timed["layers"] or {})
    if metrics:
        plain_rate = statistics.median(batch_rates(plain))
        timed_rate = statistics.median(batch_rates(timed))
        metrics["trace.overhead_pct"] = ((plain_rate / timed_rate - 1.0) * 100.0, "%")
    return metrics, attempted, failed, [plain, timed]


def source_provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_one(workload: str, seed: int, seconds: float, trace: bool, source: dict):
    deadline = time.monotonic() + BUDGET_S
    mode = traced if trace else untraced
    metrics, attempted, failed, reports = mode(workload, seed, seconds, deadline)
    print("provenance " + json.dumps({**reports[0]["provenance"], **source}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    if "harness.trial_ms" in metrics:
        busy = sum(v for k, (v, unit) in metrics.items() if unit == "ms" and k != "harness.trial_ms")
        print(
            f"{workload} layers + harness.self = {busy:.6g} ms busy per trial, summed over threads; "
            f"traced wall {metrics['harness.trial_ms'][0]:.6g} ms per trial"
        )
    print(f"{workload} failed_share = {failed / attempted:.6g} ({failed} of {attempted} points)")
    for rep in reports:
        for line in rep["check"] or ():
            print(f"{workload}: output check failed: {line}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="ignored with --workload all")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "seafdm" / "__init__.py").is_file():
        print("no seafdm source tree next to the benchmark", file=sys.stderr)
        return 2

    source = source_provenance()
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload, trace in runs:
            got, a, f = run_one(workload, args.seed, args.seconds, trace, source)
            prefix = "" if len(runs) == 1 else f"{workload}/"
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
