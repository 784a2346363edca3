"""Fixed host-speed probes, one of which is timed right after every batch.

The host this benchmark runs on is shared: other tenants' load changes the
speed of a single core by up to 1.9x from one second to the next, with the
process's CPU time tracking its wall time.  A run cannot average that out,
because it drifts over minutes.  So every timed batch is paired with one
run of a kernel that never changes, and the bounded rate is trials per
kernel run rather than per second (see NOTES.md).

Contention slows interpreter-bound and BLAS-bound code by different
amounts, so there are two kernels and each workload names the ones that
match where its trials spend their time:

- ``interpreter``: a Python loop over 64-point FFTs, like the per-trial
  overhead that dominates small frames;
- ``dense``: a dense complex Hermitian solve and product at n=640, like the
  MMSE algebra that dominates large frames.

Their inputs are fixed and independent of the workload seed.
"""

from __future__ import annotations

import functools
import time

import numpy as np

LOOP_STEPS = 2000
DENSE_N = 640


def _interpreter() -> float:
    v, acc = np.arange(64, dtype=complex), 0
    for i in range(LOOP_STEPS):
        acc += i * 3 % 7
        v = np.fft.fft(v) / 8.0
    return acc + float(v[0].real)


@functools.cache
def _dense_inputs() -> tuple[np.ndarray, np.ndarray]:
    # built on first use, so a workload that never runs this kernel does
    # not carry its matrices in peak_rss_mb
    rng = np.random.default_rng(0)
    g = rng.standard_normal((DENSE_N, DENSE_N)) + 1j * rng.standard_normal((DENSE_N, DENSE_N))
    return g @ g.conj().T + DENSE_N * np.eye(DENSE_N), rng.standard_normal(DENSE_N) + 0j


def _dense() -> float:
    a, b = _dense_inputs()
    x = np.linalg.solve(a, b)
    return float((a @ a)[0, 0].real) + float(x[0].real)


KERNELS = {"interpreter": _interpreter, "dense": _dense}


def seconds(kinds: tuple[str, ...]) -> float:
    """Wall time of one run of each named kernel, back to back."""
    start = time.perf_counter()
    for kind in kinds:
        KERNELS[kind]()
    return time.perf_counter() - start
