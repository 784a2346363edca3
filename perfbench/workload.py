"""One workload process: set up, time batches of trials, report as JSON.

``run.py`` starts this file as a fresh process for every measurement, with
the BLAS thread variables pinned in its environment, and reads the single
JSON object it prints.  Usage:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --spawned-at MONOTONIC [--trace] [--check]

The process imports ``seafdm`` from the ``src`` directory of the tree it
sits in, never from an installed copy, and exits with code 2 if that tree
holds no ``seafdm``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Each workload is one single-point ExperimentConfig; ``batch`` is the
# trial count of one timed run_scenario call (about a tenth of a second at
# seed speed, one trial where a trial alone takes half a second), short so
# that the calibration run after it sees the same host speed.  The
# n=64 link runs at 10 dB so its Bob and AFDM error counts, which the
# output check compares, are not all zero.  ``calibration`` names the
# kernels of calibrate.py timed after each batch: the ones that match where
# the workload's trials spend their time.  Why each exists is in NOTES.md.
WORKLOADS = {
    "bob-afdm-n64": dict(
        config=dict(
            scenario="bob-vs-afdm-ber", n=64, modulation="qpsk", m=4, paths=3, snr_db=10.0, workers=1
        ),
        batch=40,
        calibration=("interpreter",),
    ),
    "eve-n1024": dict(
        config=dict(scenario="eve-ber", n=1024, modulation="qpsk", m=4, paths=3, workers=1),
        batch=1,
        calibration=("dense",),
    ),
    "csi-n256-qam16": dict(
        config=dict(
            scenario="csi-error-ber",
            n=256,
            modulation="qam16",
            m=16,
            paths=3,
            csi_error_var=1e-4,
            workers=2,
        ),
        batch=8,
        calibration=("interpreter", "dense"),
    ),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def batch_seed(seed: int, k: int) -> int:
    """Config seed of timed batch k; distinct for every (seed, k < 10**6)."""
    return seed * 1_000_000 + k


def provenance(seafdm) -> dict:
    import numpy
    import scipy

    def blas(module) -> str | None:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "seafdm_path": str(Path(seafdm.__file__).parent.relative_to(ROOT)),
    }


def sane(record, config) -> bool:
    """Structural check of one timed batch's record."""
    bits = config.trials * config.n * config.constellation.bits_per_symbol
    need_eve = config.scenario in ("eve-ber", "csi-error-ber")
    need_afdm = config.scenario == "bob-vs-afdm-ber"
    ok = record.bit_count == bits and 0.0 <= record.bob_ber <= 1.0
    for ber, needed in ((record.eve_ber, need_eve), (record.afdm_ber, need_afdm)):
        ok = ok and (0.0 <= ber <= 1.0 if needed else math.isnan(ber))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "seafdm" / "__init__.py").is_file():
        print(f"no seafdm package under {SRC.name}/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seafdm
    from seafdm import ConfigError, ContractViolation, ExperimentConfig, SolverError, run_scenario

    if Path(seafdm.__file__).resolve().parent != SRC / "seafdm":
        print(f"imported seafdm from {seafdm.__file__}, not from the tree", file=sys.stderr)
        return 2
    import calibrate
    import check

    spec = WORKLOADS[args.workload]
    config = ExperimentConfig(**spec["config"], seed=args.seed, trials=spec["batch"])
    failures = (ConfigError, ContractViolation, SolverError)
    try:
        first = check.first_trial_record(config)  # the warm-up trial
    except failures as exc:
        first = exc
    setup_s = time.monotonic() - args.spawned_at
    # the calibration warm-up is the benchmark's own set-up, not the program's
    calibrate.seconds(spec["calibration"])
    batches = []

    def measure():
        deadline = time.perf_counter() + args.seconds
        k = 0
        while not batches or time.perf_counter() < deadline:
            cfg = replace(config, seed=batch_seed(args.seed, k))
            start = time.perf_counter()
            try:
                record = run_scenario(cfg)[0]
            except failures as exc:
                print(f"batch {k} failed: {exc!r}", file=sys.stderr)
                batches.append({"seconds": time.perf_counter() - start, "ok": False, "errors": None})
            else:
                seconds = time.perf_counter() - start
                ok = sane(record, cfg)
                batches.append({"seconds": seconds, "ok": ok, "errors": check.counts_from_record(record)})
            batches[-1]["cal_seconds"] = calibrate.seconds(spec["calibration"])
            k += 1

    layers = None
    if args.trace:
        import tracer

        with tracer.Tracer() as tr:
            measure()
        if all(b["ok"] for b in batches):
            layers = tracer.layer_metrics(
                tr.totals(),
                trials=len(batches) * config.trials,
                wall_s=sum(b["seconds"] for b in batches),
                n=config.n,
                bits_per_subcarrier=config.codebook.bits_per_subcarrier,
            )
    else:
        measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatch = None
    if isinstance(first, Exception):
        mismatch = [f"first trial raised {first!r}"]
    elif args.check:
        mismatch = check.mismatches(
            check.counts_from_record(first), check.replay_first_trial(config)
        )

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "trials_per_batch": config.trials,
                "batches": batches,
                "peak_rss_mb": peak_rss_mb,
                "layers": layers,
                "check": mismatch,
                "provenance": provenance(seafdm),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
