"""Linear MMSE symbol detection: the dense subcarrier-domain solve and the banded time-domain solve."""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .exceptions import ContractViolation, SolverError

__all__ = [
    "mmse_equalize",
    "banded_mmse_equalize",
]


def _scipy_cython(name: str):
    """scipy.linalg's public Cython module ``name``, loaded from its extension file.

    Importing it as scipy.linalg.<name> would first run the scipy.linalg
    package's __init__, which imports all of scipy.linalg's Python layer
    and, through scipy's array-API shim, numpy.f2py and numpy.testing.  The
    extension needs none of that, and skipping it took 0.24 s and 17 MB off
    a benchmark workload process's set-up (2-core host).
    """
    full = f"scipy.linalg.{name}"
    stem = Path(scipy.__file__).parent / "linalg" / name
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for p in (Path(f"{stem}{suffix}") for suffix in suffixes) if p.is_file()), None)
    if path is None:
        raise ImportError(f"{full} has no extension file at {stem}{{{','.join(suffixes)}}}")
    known = full in sys.modules
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not known:
        # the extension enters itself in sys.modules on its first load only;
        # without the entry a later import of it goes through scipy.linalg,
        # which then binds the same module object as its attribute
        sys.modules.pop(full, None)
    return module


def _routine(module, name: str, nargs: int):
    """The Fortran routine that a scipy.linalg.cython_* module exports, as a ctypes function.

    Every argument is an address.  A ctypes foreign call releases the GIL.
    """
    # local prototypes, so that ctypes.pythonapi keeps its defaults for everyone else
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(get_pointer(capsule, get_name(capsule)))


_cython_blas = _scipy_cython("cython_blas")
_cython_lapack = _scipy_cython("cython_lapack")
_zherk = _routine(_cython_blas, "zherk", 10)
_zpotrf = _routine(_cython_lapack, "zpotrf", 5)
_zpotrs = _routine(_cython_lapack, "zpotrs", 8)
_zpbtrf = _routine(_cython_lapack, "zpbtrf", 6)
_zpbtrs = _routine(_cython_lapack, "zpbtrs", 9)


def mmse_equalize(
    y: np.ndarray, h: np.ndarray, sigma2: float, *, overwrite_h: bool = False, gram: np.ndarray | None = None
) -> np.ndarray:
    """x_hat = H^H (H H^H + sigma2 I)^{-1} y for unit-energy symbols.

    The Gram matrix is Hermitian positive definite for sigma2 > 0 (and for
    sigma2 == 0 whenever H has full row rank), so a Cholesky solve is both
    the cheap and the numerically honest route.

    It runs on scipy's own BLAS and LAPACK.  zherk('L', 'C') reads the
    C-ordered conj(H), whose Fortran view is H^H, and writes the lower
    triangle of H H^H into a Fortran-ordered Gram, half the flops of
    H @ H^H; sigma2 goes on its diagonal, zpotrf('L') factors it, zpotrs('L')
    solves for z, and conj(H).T @ z gives the estimate.  The three routines
    are called through ctypes, which releases the GIL, so the threads of a
    `workers` pool overlap their solves.  A 16-QAM CSI-error trial at n=256
    (two dense receivers; OPENBLAS_NUM_THREADS=1, 2-core host) took about
    21 ms with one worker and 10 ms with two.

    With ``overwrite_h`` the caller hands h over, as with scipy's
    ``overwrite_a``: a C-ordered complex128 h is conjugated in place and
    holds conj(H) afterwards, so the solve holds two n-by-n arrays, h and
    the Gram.  Otherwise, and for any other h, the conjugate is a C-ordered
    copy and h is left as it was.  Both give the same estimate bytes.
    ``gram``, an (n, n) Fortran-ordered complex128 array that shares no
    memory with h or y, takes the Gram and its factor in place of a fresh
    array; its values on entry are never read.  A caller that solves one
    system after another can so keep one buffer for all of them.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolation("channel matrix must be square")
    if y.shape != (h.shape[0],):
        raise ContractViolation("observation length does not match the channel")
    if not sigma2 >= 0:
        raise ContractViolation(f"noise variance must be a nonnegative number, got {sigma2}")
    n = h.shape[0]
    # LAPACK reads raw memory: C order whatever the layout of h
    if overwrite_h and h.flags.c_contiguous and h.flags.writeable:
        h_conj = np.conjugate(h, out=h)
    else:
        h_conj = np.conj(h, order="C")
    if gram is None:
        gram = np.empty((n, n), dtype=np.complex128, order="F")
    elif not (
        isinstance(gram, np.ndarray) and gram.dtype == np.complex128 and gram.shape == (n, n)
        and gram.flags.f_contiguous and gram.flags.writeable
        and not np.may_share_memory(gram, h) and not np.may_share_memory(gram, y)
    ):
        raise ContractViolation("gram must be a writeable Fortran-ordered complex128 n-by-n array apart from h and y")
    z = np.array(y)
    lower, adjoint = ctypes.c_char(b"L"), ctypes.c_char(b"C")
    dim, lead, one = ctypes.c_int(n), ctypes.c_int(max(n, 1)), ctypes.c_int(1)
    alpha, beta, info = ctypes.c_double(1.0), ctypes.c_double(0.0), ctypes.c_int(0)
    ref = ctypes.byref
    _zherk(ref(lower), ref(adjoint), ref(dim), ref(dim), ref(alpha), h_conj.ctypes.data, ref(lead), ref(beta),
           gram.ctypes.data, ref(lead))
    gram[np.diag_indices(n)] += sigma2
    _zpotrf(ref(lower), ref(dim), gram.ctypes.data, ref(lead), ref(info))
    if info.value:
        raise SolverError(f"MMSE Gram matrix is not positive definite: its leading minor of order {info.value} is not")
    _zpotrs(ref(lower), ref(dim), ref(one), gram.ctypes.data, ref(lead), z.ctypes.data, ref(lead), ref(info))
    return h_conj.T @ z


def banded_mmse_equalize(r: np.ndarray, taps: np.ndarray, sigma2: float) -> np.ndarray:
    """s_hat = H_t^H (H_t H_t^H + sigma2 I)^{-1} r on prefix-free received cores r.

    H_t is the circular time-domain channel, so with exact channel knowledge
    the subcarrier-domain MMSE estimate of any receiver is daft(s_hat) under
    the transmit schedule: every DAFT is unitary, and the receiver's own
    transform cancels inside the solve.

    The Gram matrix is cyclically banded with half-width L = max_delay.
    Folding the index order (position 2k holds k, position 2k+1 holds
    n-1-k) turns it into an ordinary Hermitian band of half-width 2L, which
    a banded Cholesky factors in O(L^2 n).  When n <= 2L several cyclic
    offsets land on the same entry, so entries are accumulated.

    taps holds S channels as circular taps of shape (S, L + 1, n), the form
    channel.circular_taps builds, and r has shape (S, k, n), k right-hand
    sides per system; the result has the shape of r.
    Every system is solved at once: their folded bands sit side by side in
    one band whose entries across a seam are zero, so each system's
    solution is, bit for bit, the one it gets alone.  zpbtrf('L') factors
    the band in place and zpbtrs('L') solves every right-hand side on it,
    both called like mmse_equalize's routines, through ctypes, with the GIL
    released.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    r = np.asarray(r, dtype=np.complex128)
    if taps.ndim != 3 or 0 in taps.shape or r.ndim != 3 or r.shape[::2] != taps.shape[::2]:
        raise ContractViolation(f"need cores (S, k, n) and taps (S, L + 1, n), got {r.shape} and {taps.shape}")
    if not sigma2 >= 0:
        raise ContractViolation(f"noise variance must be a nonnegative number, got {sigma2}")
    count, rows, n = taps.shape
    plan = _band_plan(n, rows - 1, count)
    band = np.asfortranarray(_gram_band(taps, sigma2))  # LAPACK reads raw memory column by column
    rhs = np.take(r, plan.order, axis=2)
    folded = np.zeros((rhs.shape[1], band.shape[1]), dtype=np.complex128).T
    folded[: count * n] = rhs.transpose(0, 2, 1).reshape(count * n, -1)
    lower, info = ctypes.c_char(b"L"), ctypes.c_int(0)
    dim, width, lead = ctypes.c_int(band.shape[1]), ctypes.c_int(plan.band_rows - 1), ctypes.c_int(plan.band_rows)
    nrhs = ctypes.c_int(folded.shape[1])
    ref = ctypes.byref
    _zpbtrf(ref(lower), ref(dim), ref(width), band.ctypes.data, ref(lead), ref(info))
    if info.value:
        raise SolverError(f"MMSE Gram matrix is not positive definite: its leading minor of order {info.value} is not")
    _zpbtrs(ref(lower), ref(dim), ref(width), ref(nrhs), band.ctypes.data, ref(lead), folded.ctypes.data, ref(dim), ref(info))
    z = folded[: count * n].reshape(count, n, -1)
    # (H_t^H z)[k] = sum_l conj(taps[l, j]) * z[j] with j = (k + l) mod n, read from its folded position
    taps = taps.reshape(count, -1)
    adjoint = np.conj(np.take(taps, plan.adjoint_taps, axis=1))[..., None] * np.take(z, plan.adjoint_rows, axis=1)
    return np.sum(adjoint, axis=1).transpose(0, 2, 1)


def _gram_band(taps: np.ndarray, sigma2: float) -> np.ndarray:
    """Lower band of the stacked folded Gram matrices plus sigma2 on the diagonal, then the identity block.

    The band is built in column order, the layout LAPACK's banded Cholesky reads.

    Every band cell sums its terms taps[l, k] * conj(taps[m, j]) in plan
    order, starting from zero: the cells are accumulated rank by rank, the
    cells with a term of rank r first, then placed in the band.
    """
    count, rows, n = taps.shape
    plan = _band_plan(n, rows - 1, count)
    flat = taps.reshape(-1)
    terms = np.take(flat, plan.left) * np.conj(np.take(flat, plan.right))
    sums = np.zeros(plan.cells.size, dtype=np.complex128)
    start = 0
    for size in plan.rank_sizes:
        sums[:size] += terms[start : start + size]
        start += size
    columns = np.zeros((count * n + plan.band_rows - 1, plan.band_rows), dtype=np.complex128)
    columns.reshape(-1)[plan.cells] = sums
    band = columns.T
    band[0] += sigma2
    band[0, count * n :] = 1.0
    return band


class _BandPlan(NamedTuple):
    """Index tables of the banded solve; they depend only on (n, max_delay, systems).

    The band of S stacked systems has S*n + band_rows - 1 columns: entry
    (d, b) of system s sits at column s*n + b, and an identity block as wide
    as the band follows the last system, so the triangular solves run the
    same kernel lengths on every system's tail whether another system
    follows it or not.

    The Gram terms are listed rank by rank: first the first term of every
    band cell that has one, then the second term of every cell that has
    two, and so on, each rank's cells in the order of cells.  A cell's terms
    keep their (l, m, k) order, so its sum adds them as it always has.
    """

    order: np.ndarray  # folded position -> frame index
    band_rows: int
    left: np.ndarray  # flat stacked tap index s*(L + 1)*n + l*n + k of each term
    right: np.ndarray  # flat stacked tap index s*(L + 1)*n + m*n + j of the same term
    cells: np.ndarray  # column-order flat band index of each cell that has terms, by falling term count
    rank_sizes: tuple[int, ...]  # terms of each rank: the cells that have at least r + 1 terms
    adjoint_taps: np.ndarray  # flat tap index l*n + (k + l) mod n, shape (L + 1, n)
    adjoint_rows: np.ndarray  # folded position of (k + l) mod n, shape (L + 1, n)


@functools.lru_cache(maxsize=32)
def _band_plan(n: int, max_delay: int, systems: int = 1) -> _BandPlan:
    delays = np.arange(max_delay + 1)
    idx = np.arange(n)
    order = np.empty(n, dtype=np.intp)
    order[0::2] = idx[: (n + 1) // 2]
    order[1::2] = n - 1 - idx[: n // 2]
    pos = np.empty(n, dtype=np.intp)
    pos[order] = idx

    # G[k, j] += taps[l, k] * conj(taps[m, j]) with j = (k + m - l) mod n, for every delay pair (l, m)
    cols = (idx + delays[None, :, None] - delays[:, None, None]) % n
    left = np.broadcast_to(delays[:, None, None] * n + idx, cols.shape)
    right = delays[None, :, None] * n + cols
    # lower band storage of the folded Gram matrix: band[a - b, b] = G'[a, b] for a >= b;
    # when n <= 2 * max_delay several delay pairs land on one entry
    a, b = pos, pos[cols]
    keep = a >= b
    band_rows = min(2 * max_delay, n - 1) + 1
    stack = np.arange(systems)[:, None]
    cell = (((b * band_rows + a - b)[keep]) + stack * n * band_rows).reshape(-1)
    left = (left[keep] + stack * delays.size * n).reshape(-1)
    right = (right[keep] + stack * delays.size * n).reshape(-1)
    # a term's rank is its place among its cell's terms; cells go by falling term count
    by_cell = np.argsort(cell, kind="stable")
    cells, first, counts = np.unique(cell[by_cell], return_index=True, return_counts=True)
    rank = np.arange(cell.size) - np.repeat(first, counts)
    busy = np.argsort(-counts, kind="stable")
    place = np.empty_like(busy)
    place[busy] = np.arange(busy.size)
    terms = by_cell[np.lexsort((np.repeat(place, counts), rank))]

    rows = (idx[None, :] + delays[:, None]) % n
    plan = _BandPlan(
        order=order,
        band_rows=band_rows,
        left=left[terms],
        right=right[terms],
        cells=cells[busy],
        rank_sizes=tuple(np.bincount(rank).tolist()),
        adjoint_taps=delays[:, None] * n + rows,
        adjoint_rows=pos[rows],
    )
    for table in plan:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return plan
