"""Tests for MMSE equalization and hard-decision demapping."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seafdm import (
    ContractViolation,
    FrameParams,
    SolverError,
    apply_channel,
    bob_front_end,
    count_errors,
    demap,
    descramble,
    effective_channel,
    eve_front_end,
    map_bits,
    mmse_equalize,
    qpsk,
    sample_channel,
    se_afdm_modulate,
    zero_schedule,
)
from seafdm import detection
from seafdm.channel import ChannelRealization, circular_taps, draw_paths, paths_from_draws
from seafdm.daft import add_cpp, chirp_diag, daft
from seafdm.detection import _band_plan, banded_mmse_equalize
from seafdm.keystream import C2Schedule
from seafdm.waveform import Constellation, constellation_by_name

from oracles import demap_argmin, gram_band, mmse_f2py


def mmse_oracle(y, h, sigma2):
    """Textbook form with an explicit inverse, small systems only."""
    n = h.shape[0]
    return h.conj().T @ np.linalg.inv(h @ h.conj().T + sigma2 * np.eye(n)) @ y


def test_identity_channel_noiseless_is_passthrough():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    np.testing.assert_allclose(mmse_equalize(y, np.eye(8), 0.0), y, atol=1e-12)


def test_unitary_channel_shrinks_by_noise_factor():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sigma2 = 0.25
    np.testing.assert_allclose(
        mmse_equalize(y, q, sigma2), q.conj().T @ y / (1 + sigma2), atol=1e-12
    )


def test_matches_explicit_inverse():
    rng = np.random.default_rng(2)
    for sigma2 in [1e-1, 1e-3, 1e-6]:
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        np.testing.assert_allclose(
            mmse_equalize(y, h, sigma2), mmse_oracle(y, h, sigma2), atol=1e-9
        )


def test_estimate_converges_as_noise_vanishes():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    y = h @ x
    errs = [np.linalg.norm(mmse_equalize(y, h, s) - x) for s in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-4


def test_equalizer_contracts():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(4) + 0j
    with pytest.raises(ContractViolation):
        mmse_equalize(y, np.eye(3), 0.1)
    with pytest.raises(ContractViolation):
        mmse_equalize(y, np.eye(4), -0.1)
    with pytest.raises(ContractViolation):
        mmse_equalize(y, np.ones((4, 3)), 0.1)


def test_singular_system_raises():
    h = np.zeros((4, 4), dtype=complex)
    with pytest.raises(SolverError):
        mmse_equalize(np.ones(4, dtype=complex), h, 0.0)


@pytest.mark.parametrize("n, dead", [(3, 1), (96, 70), (200, 199)])
def test_rank_deficient_gram_raises(n, dead):
    # a zero row makes a zero pivot; n = 96 and 200 factor in blocks
    rng = np.random.default_rng(n)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h[dead] = 0.0
    with pytest.raises(SolverError, match=f"order {dead + 1} is not"):
        mmse_equalize(np.ones(n, dtype=complex), h, 0.0)
    assert np.isfinite(mmse_equalize(np.ones(n, dtype=complex), h, 1e-3)).all()


def _dense_system(n: int, seed: int):
    """A well-conditioned channel (singular values in [0.5, 1.5]), QPSK symbols and the noisy observation."""
    rng = np.random.default_rng(seed)
    spread = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    h = np.eye(n) + 0.25 * spread
    x = (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2)
    y = h @ x + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return y, h


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), log_sigma2=st.floats(-4.0, 0.0))
def test_dense_solve_matches_the_f2py_oracle(n, seed, log_sigma2):
    # the zpotrf/zpotrs calls are the oracle's; the zherk Gram equals its
    # matmul Gram bit for bit when n is a multiple of 8 (OpenBLAS 0.3.31,
    # Haswell kernels); at other n their roundings differ
    y, h = _dense_system(n, seed)
    sigma2 = 10.0**log_sigma2
    got, want = mmse_equalize(y, h, sigma2), mmse_f2py(y, h, sigma2)
    if n % 8 == 0:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(demap(got, qpsk()), demap(want, qpsk()))


@pytest.mark.parametrize("n", [5, 64, 131])
def test_dense_solve_reads_any_layout(n):
    # LAPACK reads raw memory: a Fortran-ordered conj(h) would solve the transposed system
    y, h = _dense_system(n, n)
    big = np.zeros((2 * n, 3 * n), dtype=complex)
    big[::2, ::3] = h
    want = mmse_equalize(y, h, 0.1).tobytes()
    for layout in (np.asfortranarray(h), np.ascontiguousarray(h.T).T, big[::2, ::3]):
        assert mmse_equalize(y, layout, 0.1).tobytes() == want
    assert np.array_equal(y, _dense_system(n, n)[0])  # the observation is not overwritten


@pytest.mark.parametrize("n", [5, 64, 131])
def test_dense_solve_overwrites_only_a_handed_over_matrix(n):
    # a matrix not handed over comes back byte for byte whatever its layout or
    # dtype; a handed-over C-ordered complex one holds conj(h) afterwards, any
    # other handed-over one is left as it was, and every path gives the estimate
    # of the copying path
    y, h = _dense_system(n, n)
    big = np.zeros((2 * n, 3 * n), dtype=complex)
    big[::2, ::3] = h
    for layout in (h, np.asfortranarray(h), big[::2, ::3], h.real.copy(), np.asfortranarray(h.real)):
        before, whole = layout.tobytes(), big.tobytes()
        want = mmse_equalize(y, layout, 0.1).tobytes()
        assert layout.tobytes() == before and big.tobytes() == whole
        in_place = layout.dtype == complex and layout.flags.c_contiguous
        handed = layout.copy() if in_place else layout
        assert mmse_equalize(y, handed, 0.1, overwrite_h=True).tobytes() == want
        assert handed.tobytes() == (np.conj(layout).tobytes() if in_place else before)
        assert big.tobytes() == whole


@pytest.mark.parametrize("n", [5, 64])
def test_dense_solve_writes_its_gram_into_a_given_buffer(n):
    # a given buffer gives the estimate of a fresh one, whatever it held
    y, h = _dense_system(n, n)
    want = mmse_equalize(y, h, 0.1).tobytes()
    gram = np.full((n, n), np.nan, dtype=complex, order="F")
    assert mmse_equalize(y, h, 0.1, gram=gram).tobytes() == want
    assert mmse_equalize(y, h.copy(), 0.1, overwrite_h=True, gram=gram).tobytes() == want
    handed = np.array(h)
    bad = [
        np.empty((n, n), dtype=complex),  # C order
        np.empty((n, n), dtype=np.complex64, order="F"),
        np.empty((n + 1, n + 1), dtype=complex, order="F"),
        np.empty((n, n), dtype=complex, order="F")[:, ::-1],
        handed.T,  # h's own memory, Fortran-ordered
    ]
    readonly = np.empty((n, n), dtype=complex, order="F")
    readonly.flags.writeable = False
    for buffer in bad + [readonly]:
        with pytest.raises(ContractViolation, match="gram"):
            mmse_equalize(y, handed, 0.1, gram=buffer)
    assert handed.tobytes() == h.tobytes()


def test_dense_solves_on_a_thread_pool_equal_serial_ones():
    systems = [_dense_system(n, seed) for seed, n in enumerate([64, 96, 128, 200] * 4)]
    serial = [mmse_equalize(y, h, 0.05).tobytes() for y, h in systems]
    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled = list(pool.map(lambda sys: mmse_equalize(*sys, 0.05).tobytes(), systems))
    assert pooled == serial


def _longest_stall(solve, y, h) -> float:
    """Longest gap in seconds between the ticks of a Python thread while solve runs in this one."""
    ticks, stop = [], threading.Event()

    def tick():
        while not stop.is_set():
            ticks.append(time.perf_counter())

    counter = threading.Thread(target=tick)
    counter.start()
    time.sleep(0.01)
    start = time.perf_counter()
    solve(y, h, 0.1)
    end = time.perf_counter()
    stop.set()
    counter.join()
    inside = [t for t in ticks if start <= t <= end]
    return float(np.max(np.diff([start, *inside, end])))


def test_dense_solve_releases_the_gil():
    # the f2py Cholesky of an n=1024 Gram holds the GIL for tens of ms,
    # so a counting thread stalls for that long; the ctypes calls let it run
    y, h = _dense_system(1024, 0)
    ours = min(_longest_stall(mmse_equalize, y, h) for _ in range(2))
    f2py = min(_longest_stall(mmse_f2py, y, h) for _ in range(2))
    assert ours < 0.5 * f2py, (ours, f2py)


@pytest.mark.parametrize("n, paths", [(2, 2), (3, 3), (4, 3), (4, 4), (5, 4), (6, 4)])
def test_time_domain_mmse_when_cyclic_band_offsets_alias(n, paths):
    # n <= 2 * max_delay: several cyclic offsets land on one Gram entry
    rng = np.random.default_rng(10 * n + paths)
    params = FrameParams(n=n, ncp=paths - 1, c1=rng.uniform(-1.0, 1.0))
    for sigma2 in (1e-2, 1.0):
        real = sample_channel(paths, 2.0, rng, n=n)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for tx in (C2Schedule(rng.uniform(-0.5, 0.5, size=n), "alice"), None):
            rx = C2Schedule(rng.uniform(-0.5, 0.5, size=n), "bob")
            h = effective_channel(real, params, rx, tx).matrix
            dense = mmse_equalize(daft(r, params, rx.values), h, sigma2)
            fast = banded_mmse_equalize(r[None, None], circular_taps(real, params), sigma2)[0, 0]
            fast = daft(fast, params, 0.0 if tx is None else tx.values)
            np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-12)


def test_time_domain_mmse_contracts_and_singular_channel():
    params = FrameParams(n=8, ncp=2, c1=0.1)
    real = ChannelRealization([1.0, 0.5], [0, 2], [0.0, 0.3])
    taps = circular_taps(real, params)
    with pytest.raises(ContractViolation):
        banded_mmse_equalize(np.ones((1, 1, 7), dtype=complex), taps, 0.1)
    with pytest.raises(ContractViolation):
        banded_mmse_equalize(np.ones((1, 1, 8), dtype=complex), taps, -0.1)
    dead = ChannelRealization([0.0, 0.0], [0, 2], [0.0, 1.0])
    with pytest.raises(SolverError):
        banded_mmse_equalize(np.ones((1, 1, 8), dtype=complex), circular_taps(dead, params), 0.0)


@settings(max_examples=300, deadline=None, database=None)
@given(
    systems=st.integers(1, 6),
    n=st.integers(2, 80),
    paths=st.integers(1, 5),
    rhs=st.integers(1, 2),
    log_sigma2=st.floats(-4.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(systems=128, n=32, paths=3, rhs=1, log_sigma2=-2.5, seed=2032)  # a default eve-ber block: 64 trials x 2
def test_stacked_solve_equals_each_system_alone(systems, n, paths, rhs, log_sigma2, seed):
    # small n puts n <= 2 * max_delay in play
    rng = np.random.default_rng(seed)
    paths = min(paths, n)
    params = FrameParams(n=n, ncp=paths - 1, c1=rng.uniform(-1.0, 1.0))
    sigma2 = 10.0**log_sigma2
    # the draws of sample_channel on each link in turn
    stack = paths_from_draws(np.array([draw_paths(rng, paths) for _ in range(systems)]), 2.0, n=n)
    r = rng.standard_normal((systems, rhs, n)) + 1j * rng.standard_normal((systems, rhs, n))
    stacked = banded_mmse_equalize(r, circular_taps(stack, params), sigma2)
    assert stacked.shape == r.shape
    for s in range(systems):
        real = ChannelRealization(stack.gains[s], stack.delays, stack.dopplers[s])
        for j in range(rhs):
            alone = banded_mmse_equalize(r[s, j][None, None], circular_taps(real, params), sigma2)[0, 0]
            assert stacked[s, j].tobytes() == alone.tobytes()


def test_stacked_solve_contracts():
    params = FrameParams(n=8, ncp=2, c1=0.1)
    taps = circular_taps(ChannelRealization([[1.0, 0.5]] * 2, [0, 2], [[0.0, 0.3]] * 2), params)
    for shape in [(2, 8), (3, 1, 8), (2, 2, 2, 8), (2, 1, 7), (8,)]:
        with pytest.raises(ContractViolation):
            banded_mmse_equalize(np.ones(shape, dtype=complex), taps, 0.1)
    # no system, no delay row, and a lone system's (L + 1, n) taps, which are no stack
    for bad in (np.ones((0, 3, 8)), np.ones((2, 0, 8)), taps[0]):
        with pytest.raises(ContractViolation):
            banded_mmse_equalize(np.ones((len(bad), 1, 8), dtype=complex), bad, 0.1)
    # the second link is dead
    dead = ChannelRealization([[1.0, 0.5], [0.0, 0.0]], [0, 2], [[0.0, 0.3], [0.0, 1.0]])
    with pytest.raises(SolverError):
        banded_mmse_equalize(np.ones((2, 1, 8), dtype=complex), circular_taps(dead, params), 0.0)


_PARAMS = FrameParams(n=8, ncp=2, c1=0.1)
_LINK = ChannelRealization([1.0, 0.5], [0, 2], [0.0, 0.3])
_NOISY_STAGES = {
    "apply_channel": lambda sigma2: apply_channel(add_cpp(np.ones(8), _PARAMS), _LINK, np.random.default_rng(0), sigma2).samples,
    "mmse_equalize": lambda sigma2: mmse_equalize(np.ones(8), np.eye(8), sigma2),
    "banded_mmse_equalize": lambda sigma2: banded_mmse_equalize(np.ones((1, 1, 8)), circular_taps(_LINK, _PARAMS), sigma2),
}


@pytest.mark.parametrize("sigma2", [-1.0, -1e-300, float("nan")])
@pytest.mark.parametrize("stage", sorted(_NOISY_STAGES))
def test_noise_variance_must_be_a_nonnegative_number(stage, sigma2):
    with pytest.raises(ContractViolation, match="noise variance"):
        _NOISY_STAGES[stage](sigma2)
    assert np.all(np.isfinite(_NOISY_STAGES[stage](0.1)))


def test_demap_and_count_errors_keep_leading_axes():
    spec = qpsk()
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 2, 16)) + 1j * rng.standard_normal((3, 2, 16))
    bits = demap(x, spec)
    assert bits.shape == (3, 2, 32)
    sent = rng.integers(0, 2, size=(3, 2, 32))
    counts = count_errors(sent, bits)
    assert counts.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(bits[i, j], demap(x[i, j], spec))
            assert counts[i, j] == count_errors(sent[i, j], bits[i, j])


def test_band_plan_is_shared_and_read_only():
    rng = np.random.default_rng(11)
    params = FrameParams(n=12, ncp=2, c1=0.3)
    real = sample_channel(3, 2.0, rng, n=12)
    r = rng.standard_normal((1, 1, 12)) + 1j * rng.standard_normal((1, 1, 12))
    first = banded_mmse_equalize(r, circular_taps(real, params), 0.1)
    plan = _band_plan(12, 2)
    assert _band_plan(12, 2) is plan
    tables = [t for t in plan if isinstance(t, np.ndarray)]
    assert len(tables) == 6
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    # the term list runs rank by rank, each rank over a prefix of the cells
    assert isinstance(plan.rank_sizes, tuple) and sum(plan.rank_sizes) == plan.left.size == plan.right.size
    assert list(plan.rank_sizes) == sorted(plan.rank_sizes, reverse=True) and plan.rank_sizes[0] == plan.cells.size
    np.testing.assert_array_equal(banded_mmse_equalize(r, circular_taps(real, params), 0.1), first)
    # a second geometry gets its own tables and the first one's are untouched
    assert _band_plan(12, 1) is not plan
    banded_mmse_equalize(r[..., :10], circular_taps(sample_channel(2, 2.0, rng, n=10), FrameParams(n=10, ncp=1, c1=0.3)), 0.1)
    np.testing.assert_array_equal(banded_mmse_equalize(r, circular_taps(real, params), 0.1), first)


def test_demap_exact_points_returns_labels():
    spec = qpsk()
    np.testing.assert_array_equal(
        demap(spec.points, spec), np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    )


def test_demap_inverts_map_under_small_noise():
    spec = qpsk()
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=128).astype(np.uint8)
    x = map_bits(bits, spec)
    x_hat = x + 0.05 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    np.testing.assert_array_equal(demap(x_hat, spec), bits)


def test_demap_tie_breaks_to_first_point():
    # the origin is equidistant from every constellation point
    spec = qpsk()
    np.testing.assert_array_equal(demap(np.array([0.0 + 0.0j]), spec), [0, 0])


def _labels(bits: np.ndarray, k: int) -> np.ndarray:
    return bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))


def _midpoints(spec: Constellation) -> list[np.ndarray]:
    return [(lv[:-1] + lv[1:]) / 2.0 for lv in (np.unique(spec.points.real), np.unique(spec.points.imag))]


def _coordinates(mids: np.ndarray):
    return st.one_of(
        st.floats(-4.0, 4.0),
        st.sampled_from([0.0, -0.0, *mids.tolist()]),
        st.floats(-1e-300, 1e-300),
        st.floats(1e6, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    )


def _symbols(name: str):
    re_mids, im_mids = _midpoints(constellation_by_name(name))
    return st.lists(st.tuples(_coordinates(re_mids), _coordinates(im_mids)), min_size=1, max_size=12)


def _slicer_choices(x: complex, spec: Constellation) -> list[int]:
    """Points nearest x in exact arithmetic, a coordinate on a midpoint sitting exactly between its two levels."""
    exact = []
    levels = (np.unique(spec.points.real), np.unique(spec.points.imag))
    for c, lv, mids in zip((x.real, x.imag), levels, _midpoints(spec)):
        on = np.flatnonzero(mids == c)
        exact.append((Fraction(lv[on[0]]) + Fraction(lv[on[0] + 1])) / 2 if on.size else Fraction(c))
    d2 = [(exact[0] - Fraction(p.real)) ** 2 + (exact[1] - Fraction(p.imag)) ** 2 for p in spec.points]
    return [j for j, d in enumerate(d2) if d == min(d2)]


@settings(max_examples=400, deadline=None, database=None)
@given(name_pairs=st.sampled_from(["qpsk", "qam16"]).flatmap(lambda name: st.tuples(st.just(name), _symbols(name))))
# on a midpoint, where argmin's two rounded distances do not tie
@example(name_pairs=("qam16", [(0.3906792315515455, -0.6324555320336759)]))
# 1.6e-15 above a midpoint, where they tie
@example(name_pairs=("qam16", [(3.78125, 1.5517294588252887e-15)]))
def test_slicer_matches_the_argmin_demapper(name_pairs):
    name, pairs = name_pairs
    spec = constellation_by_name(name)
    x = np.array([complex(a, b) for a, b in pairs])
    k = spec.bits_per_symbol
    got = _labels(demap(x, spec), k)
    want = _labels(demap_argmin(x, spec), k)
    dist = np.abs(x[:, None] - spec.points)
    for i in range(len(x)):
        nearest = dist[i].min()
        # the slicer's point is a nearest one, up to the rounding of the distances
        assert dist[i, got[i]] <= nearest + 4 * np.spacing(nearest)
        # and argmin's own pick (first index on a tie) wherever its rounded distances single
        # out the points the slicer chooses between: the exact nearest point, or on k
        # midpoints the 2**k points that tie there.  Near a midpoint the rounding can tie
        # or order those distances the other way, and argmin's pick is the rounding's
        if np.flatnonzero(dist[i] == nearest).tolist() == _slicer_choices(x[i], spec):
            assert got[i] == want[i], pairs[i]


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_slicer_takes_the_lower_label_on_a_midpoint(name):
    spec = constellation_by_name(name)
    levels = np.unique(spec.points.real)
    for lo, hi, mid in zip(levels[:-1], levels[1:], _midpoints(spec)[0]):
        for other in levels:
            for x, below, above in (
                (complex(mid, other), complex(lo, other), complex(hi, other)),
                (complex(other, mid), complex(other, lo), complex(other, hi)),
            ):
                got = _labels(demap(np.array([x]), spec), spec.bits_per_symbol)[0]
                assert got == min(np.flatnonzero(spec.points == below)[0], np.flatnonzero(spec.points == above)[0])
                assert got == _labels(demap_argmin(np.array([x]), spec), spec.bits_per_symbol)[0]


def test_constellation_that_is_no_product_grid_raises():
    rotated = np.array([1, 1j, -1, -1j], dtype=complex)
    with pytest.raises(ContractViolation, match="product grid"):
        Constellation("rotated", rotated, 2)
    with pytest.raises(ContractViolation, match="2\\*\\*bits_per_symbol"):
        Constellation("three", rotated[:3], 2)
    with pytest.raises(ContractViolation):
        Constellation("nan", np.array([1, np.nan, -1, -1j]), 2)
    # a grid whose labels break the real midpoint's tie one way at Im -1 and the other at Im +1
    with pytest.raises(ContractViolation, match="tie"):
        Constellation("twisted", np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j]), 2)
    spec = constellation_by_name("qam16")
    with pytest.raises(ValueError):
        spec.points[0] = 0.0
    for table in spec._slicer:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


@settings(max_examples=300, deadline=None, database=None)
@given(
    systems=st.integers(1, 4),
    n=st.one_of(st.integers(2, 70), st.sampled_from([256, 1024])),
    delays=st.lists(st.integers(0, 6), min_size=1, max_size=5),
    log_sigma2=st.floats(-4.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_band_and_solutions_equal_the_bincount_oracle(systems, n, delays, log_sigma2, seed):
    # random delay profiles, repeated delays and holes included; small n puts n <= 2 * max_delay in play
    rng = np.random.default_rng(seed)
    delays = [d % n for d in delays]
    params = FrameParams(n=n, ncp=max(delays), c1=rng.uniform(-1.0, 1.0))
    sigma2 = 10.0**log_sigma2
    shape = (systems, len(delays))
    gains = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    taps = circular_taps(ChannelRealization(gains, delays, rng.uniform(-3.0, 3.0, shape)), params)
    assert detection._gram_band(taps, sigma2).tobytes() == gram_band(taps, sigma2).tobytes()
    r = rng.standard_normal((systems, 2, n)) + 1j * rng.standard_normal((systems, 2, n))
    fast = banded_mmse_equalize(r, taps, sigma2)
    assembly = detection._gram_band
    try:
        detection._gram_band = gram_band
        slow = banded_mmse_equalize(r, taps, sigma2)
    finally:
        detection._gram_band = assembly
    assert fast.tobytes() == slow.tobytes()


def test_count_errors():
    a = np.array([0, 1, 1, 0])
    assert count_errors(a, a) == 0
    assert count_errors(a, np.array([1, 0, 0, 1])) == 4
    assert count_errors(a, np.array([0, 1, 0, 0])) == 1
    with pytest.raises(ContractViolation):
        count_errors(a, np.array([0, 1]))


def test_scheduled_detector_is_rotated_plain_detector():
    # the synchronized receiver estimate equals the plain-waveform estimate of
    # the scrambled symbols under co-rotated noise, rotated back; scheduling
    # therefore costs the intended receiver nothing
    rng = np.random.default_rng(7)
    n = 32
    params = FrameParams.for_profile(n, 2.0, 2)
    real = sample_channel(3, 2.0, rng, n=n)
    values = rng.uniform(-1e-3, 1e-3, size=n)
    alice = C2Schedule(values, "alice")
    bob = C2Schedule(values, "bob")
    x = map_bits(rng.integers(0, 2, size=2 * n), qpsk())
    sigma2 = 10 ** (-25 / 10)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    h_se = effective_channel(real, params, bob, alice).matrix
    x_hat_se = mmse_equalize(h_se @ x + noise, h_se, sigma2)

    h_plain = effective_channel(
        real, params, zero_schedule(n, "bob"), zero_schedule(n, "alice")
    ).matrix
    rot = chirp_diag(values, n, conjugate=True)
    x_hat_plain = mmse_equalize(h_plain @ (rot * x) + rot * noise, h_plain, sigma2)

    np.testing.assert_allclose(x_hat_se, np.conj(rot) * x_hat_plain, atol=1e-9)


def test_synchronized_receiver_noiseless_recovery():
    rng = np.random.default_rng(8)
    n = 64
    params = FrameParams.for_profile(n, 2.0, 2)
    spec = qpsk()
    bits = rng.integers(0, 2, size=2 * n).astype(np.uint8)
    x = map_bits(bits, spec)
    values = rng.uniform(-4.88e-5, 4.88e-5, size=n)
    alice = C2Schedule(values, "alice")
    bob = C2Schedule(values, "bob")
    real = sample_channel(3, 2.0, rng, n=n)
    r = apply_channel(se_afdm_modulate(x, params, alice), real, None, 0.0)
    y = bob_front_end(r, params, bob)
    x_hat = mmse_equalize(y, effective_channel(real, params, bob, alice).matrix, 1e-12)
    assert count_errors(bits, demap(x_hat, spec)) == 0


def test_front_end_mismatch_leaves_residual_rotation():
    # an interceptor with perfect channel knowledge but no schedule still
    # recovers only the scrambled symbols
    rng = np.random.default_rng(9)
    n = 32
    params = FrameParams.for_profile(n, 2.0, 2)
    spec = qpsk()
    x = map_bits(rng.integers(0, 2, size=2 * n), spec)
    values = rng.uniform(-0.05, 0.05, size=n)
    alice = C2Schedule(values, "alice")
    eve = zero_schedule(n, "eve")
    real = sample_channel(3, 2.0, rng, n=n)
    r = apply_channel(se_afdm_modulate(x, params, alice), real, None, 0.0)
    y = eve_front_end(r, params, eve)
    h = effective_channel(real, params, eve, None).matrix
    x_hat = mmse_equalize(y, h, 1e-12)
    idx = np.arange(n)
    expected = x * np.exp(2j * np.pi * values * idx * idx)
    np.testing.assert_allclose(x_hat, expected, atol=1e-6)
    # descrambling with the true schedule undoes the rotation exactly
    guess = C2Schedule(values, "eve")
    np.testing.assert_allclose(descramble(x_hat, guess), x, atol=1e-6)
