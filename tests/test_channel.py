"""Tests for the doubly dispersive channel and its subcarrier-domain forms."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from seafdm import (
    ContractViolation,
    FrameParams,
    apply_channel,
    effective_channel,
    effective_channel_closed_form,
    map_bits,
    mmse_equalize,
    qpsk,
    sample_channel,
    se_afdm_modulate,
    zero_schedule,
)
from seafdm.channel import (
    ChannelRealization,
    _doppler_rows,
    _time_domain_matrix,
    _wrap_phasors,
    circular_taps,
    coupling_kernel,
    draw_paths,
    paths_from_draws,
)
from seafdm.daft import SignalBlock, add_cpp, daft, remove_cpp
from seafdm.detection import banded_mmse_equalize
from seafdm.keystream import C2Schedule


def random_frame(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def matched_schedules(rng, n, c2max=1e-3):
    values = rng.uniform(-c2max, c2max, size=n)
    return C2Schedule(values, "bob"), C2Schedule(values, "alice")


def circular_oracle(real, params):
    """Sum over paths of Gamma * Delta * Pi^l, built from first principles."""
    n = params.n
    out = np.zeros((n, n), dtype=complex)
    for gain, delay, doppler in zip(real.gains, real.delays, real.dopplers):
        perm = np.linalg.matrix_power(np.roll(np.eye(n), 1, axis=0), delay)
        delta = np.diag(np.exp(2j * np.pi * doppler * np.arange(n) / n))
        gamma = np.ones(n, dtype=complex)
        for t in range(delay):
            gamma[t] = np.exp(-2j * np.pi * params.c1 * (n * n - 2 * n * (delay - t)))
        out += gain * np.diag(gamma) @ delta @ perm
    return out


def test_realization_validation():
    for gains, delays, dopplers in [
        ([], [], []),
        ([1.0], [-1], [0.0]),
        ([1.0], [1.5], [0.0]),
        ([1.0], [np.nan], [0.0]),
        ([1.0], [np.inf], [0.0]),
        ([1.0], [1e300], [0.0]),
        ([1.0], [0], [np.inf]),
        ([1.0], [0], [np.nan]),
        ([1.0, 0.5], [0, 1], [0.0]),
        ([1.0, 0.5], [0], [0.0, 0.1]),
        ([[1.0]], [[0]], [[0.0]]),
        # a stack: gains and dopplers of one shape (R, P), delays of shape (P,)
        ([[1.0, 0.5]], [0, 1], [0.0, 0.1]),
        ([[1.0, 0.5]], [0, 1], [[0.0, 0.1], [0.0, 0.1]]),
        ([[1.0, 0.5]], [[0, 1]], [[0.0, 0.1]]),
        ([[1.0, 0.5], [0.5, 1.0]], [0], [[0.0], [0.1]]),
        ([[[1.0]]], [0], [[[0.0]]]),
        (np.ones((0, 2)), [0, 1], np.ones((0, 2))),
    ]:
        with pytest.raises(ContractViolation):
            ChannelRealization(gains, delays, dopplers)


@pytest.mark.parametrize(
    "delays",
    [
        np.array([0.0, np.nan]),
        np.array([np.inf, 1.0]),
        np.array([-np.inf]),
        np.array([0.5]),
        np.array([1.0, 2.25], dtype=np.float32),
        np.array([-1], dtype=np.int8),
        np.array([2**63], dtype=np.uint64),
    ],
    ids=["nan", "inf", "-inf", "half", "float32-fraction", "negative-int8", "uint64-past-intp"],
)
def test_non_integral_or_negative_delay_arrays_raise(delays):
    with pytest.raises(ContractViolation, match="nonnegative integers"):
        ChannelRealization(np.ones(delays.size), delays, np.zeros(delays.size))


def test_integral_delays_of_any_dtype_are_stored_as_intp():
    for delays in (np.array([0, 3], dtype=np.int8), np.array([0, 3], dtype=np.uint64), np.array([0.0, 3.0])):
        real = ChannelRealization([1.0, 0.5], delays, [0.0, 0.1])
        assert real.delays.dtype == np.intp and real.delays.tolist() == [0, 3]


def test_realization_holds_three_typed_arrays():
    real = ChannelRealization([1.0, 0.5j], [0, 2.0], [0, 1], "bob")
    assert real.gains.dtype == np.complex128 and real.gains.tolist() == [1.0, 0.5j]
    assert real.delays.dtype == np.intp and real.delays.tolist() == [0, 2]
    assert real.dopplers.dtype == np.float64 and real.dopplers.tolist() == [0.0, 1.0]
    assert real.label == "bob"
    gains = np.ones(2)
    frozen = ChannelRealization(gains, [0, 1], [0.0, 0.0])
    gains[0] = 5.0  # the realization holds its own copy
    assert frozen.gains.tolist() == [1.0, 1.0]
    for values in (frozen.gains, frozen.delays, frozen.dopplers):
        with pytest.raises(ValueError):
            values[0] = 2
    stack = ChannelRealization([[1.0, 0.5j], [2.0, 0.0]], [0, 2.0], [[0, 1], [0.5, 0.25]])
    assert stack.gains.shape == stack.dopplers.shape == (2, 2) and stack.delays.tolist() == [0, 2]
    assert stack.gains.dtype == np.complex128 and stack.dopplers.dtype == np.float64


def test_sample_channel_geometry():
    rng = np.random.default_rng(0)
    real = sample_channel(3, 2.0, rng, n=64)
    assert real.delays.tolist() == [0, 1, 2]
    assert np.all(np.abs(real.dopplers) <= 2.0)
    single = sample_channel(1, 0.0, rng, n=64)
    assert single.delays.tolist() == [0] and single.dopplers.tolist() == [0.0]
    for args, match in [((0, 2.0), "path_count"), ((65, 2.0), "more paths"), ((3, -0.5), "alpha_max")]:
        with pytest.raises(ContractViolation, match=match):
            sample_channel(*args, rng, n=64)


def test_sample_channel_unit_average_energy():
    rng = np.random.default_rng(1)
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        real = sample_channel(3, 2.0, rng, n=64)
        total += np.sum(np.abs(real.gains) ** 2)
    assert abs(total / trials - 1.0) < 0.03


def test_doppler_follows_jakes_marginal():
    rng = np.random.default_rng(2)
    alpha = 2.0
    nu = np.array(
        [sample_channel(1, alpha, rng, n=64).dopplers[0] for _ in range(100_000)]
    )

    def arcsine_cdf(v):
        return 1.0 - np.arccos(np.clip(v / alpha, -1.0, 1.0)) / np.pi

    result = stats.kstest(nu, arcsine_cdf)
    assert result.pvalue > 0.01


def _lone_paths(rng, path_count, alpha_max, n, integer_doppler):
    """sample_channel's gains and Dopplers drawn and computed on one link's arrays, the reference form."""
    theta = rng.uniform(-np.pi, np.pi, size=path_count)
    nu = alpha_max * np.cos(theta)
    if integer_doppler:
        nu = np.rint(nu)
    h = np.sqrt(0.5 / path_count) * (rng.standard_normal(path_count) + 1j * rng.standard_normal(path_count))
    return h * np.exp(-2j * np.pi * nu * np.arange(path_count) / n), nu


@settings(max_examples=200, deadline=None, database=None)
@given(
    paths=st.integers(1, 8),
    links=st.integers(1, 40),
    n=st.integers(1, 4096),
    alpha_max=st.floats(0.0, 8.0),
    integer_doppler=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_path_draws_equal_each_link_sampled_alone(paths, links, n, alpha_max, integer_doppler, seed):
    n = max(n, paths)
    draws = np.array([draw_paths(np.random.default_rng([seed, i]), paths) for i in range(links)])
    stack = paths_from_draws(draws, alpha_max, n=n, integer_doppler=integer_doppler)
    assert stack.gains.shape == stack.dopplers.shape == (links, paths)
    assert stack.delays.tolist() == list(range(paths))
    for i in range(links):
        ref_gains, ref_nu = _lone_paths(np.random.default_rng([seed, i]), paths, alpha_max, n, integer_doppler)
        alone = sample_channel(paths, alpha_max, np.random.default_rng([seed, i]), n=n, integer_doppler=integer_doppler)
        assert alone.gains.shape == (paths,) and alone.delays.tolist() == list(range(paths))
        for got in (stack.gains[i], alone.gains):
            assert got.tobytes() == ref_gains.tobytes()
        for got in (stack.dopplers[i], alone.dopplers):
            assert got.tobytes() == ref_nu.tobytes()


def test_path_draw_contracts():
    draws = draw_paths(np.random.default_rng(0), 3)[None]
    for bad in (draws[0], draws[:, :2], draws[..., :0]):
        with pytest.raises(ContractViolation):
            paths_from_draws(bad, 2.0, n=8)
    with pytest.raises(ContractViolation, match="more paths"):
        paths_from_draws(draws, 2.0, n=2)
    with pytest.raises(ContractViolation, match="alpha_max"):
        paths_from_draws(draws, -1.0, n=8)


def test_integer_doppler_mode_rounds():
    rng = np.random.default_rng(3)
    real = sample_channel(4, 2.0, rng, n=64, integer_doppler=True)
    assert np.all(real.dopplers == np.rint(real.dopplers))


def test_channel_noise_variance_and_draw_order():
    # a silent frame through a unit path comes out as the noise alone: real
    # parts, then imaginary parts, from the row's generator
    silent = SignalBlock(np.zeros(200_002), prefix_len=2)
    unit = ChannelRealization([1.0], [0], [0.0])
    w = apply_channel(silent, unit, np.random.default_rng(4), 0.36).samples
    assert abs(np.mean(np.abs(w) ** 2) - 0.36) < 0.01
    replay = np.random.default_rng(4)
    a, b = replay.standard_normal(w.size), replay.standard_normal(w.size)
    assert w.tobytes() == (np.sqrt(0.18) * (a + 1j * b)).tobytes()
    assert np.all(apply_channel(silent, unit, None, 0.0).samples == 0)


def test_apply_channel_identity_path():
    params = FrameParams(n=16, ncp=2, c1=0.1)
    rng = np.random.default_rng(5)
    s = add_cpp(random_frame(rng, 16), params)
    real = ChannelRealization([1.0], [0], [0.0])
    r = apply_channel(s, real, None, 0.0)
    np.testing.assert_allclose(r.samples, s.samples, atol=1e-15)


def test_apply_channel_pure_delay():
    params = FrameParams(n=16, ncp=3, c1=0.1)
    rng = np.random.default_rng(6)
    s = add_cpp(random_frame(rng, 16), params)
    gain = 0.5 - 0.25j
    r = apply_channel(s, ChannelRealization([gain], [2], [0.0]), None, 0.0)
    np.testing.assert_allclose(r.samples[2:], gain * s.samples[:-2], atol=1e-15)
    np.testing.assert_allclose(r.samples[:2], 0.0, atol=1e-15)


def test_apply_channel_contracts():
    params = FrameParams(n=16, ncp=1, c1=0.1)
    rng = np.random.default_rng(7)
    core = random_frame(rng, 16)
    with pytest.raises(ContractViolation):
        apply_channel(core, ChannelRealization([1.0], [0], [0.0]), rng, 0.1)
    prefixed = add_cpp(core, params)
    with pytest.raises(ContractViolation):
        apply_channel(prefixed, ChannelRealization([1.0], [2], [0.0]), rng, 0.1)
    with pytest.raises(ContractViolation):
        apply_channel(prefixed, ChannelRealization([1.0], [0], [0.0]), None, 0.1)


def stack_of(real, count):
    """count links that each have real's paths."""
    return ChannelRealization(np.tile(real.gains, (count, 1)), real.delays, np.tile(real.dopplers, (count, 1)))


def test_stacked_channel_contracts():
    params = FrameParams(n=8, ncp=2, c1=0.1)
    rng = np.random.default_rng(8)
    real = ChannelRealization([1.0, 0.5], [0, 2], [0.0, 0.3])
    three = stack_of(real, 3)
    x = rng.standard_normal((3, 8)) + 0j
    alice = zero_schedule(8, "alice")
    one, two, scheds = (C2Schedule(np.zeros((count, 8)), "alice") for count in (1, 2, 3))
    for frames, sched in [(x, two), (x, alice), (x[0], one), (x, zero_schedule(9, "alice"))]:
        with pytest.raises(ContractViolation):
            se_afdm_modulate(frames, params, sched)
    tx = se_afdm_modulate(x, params, scheds)
    draws = rng.standard_normal((3, 2, 10))
    # the frames lead with the link shape
    for links, samples in [(stack_of(real, 2), tx.samples), (three, tx.samples[0]), (three, tx.samples[None])]:
        with pytest.raises(ContractViolation, match="link shape"):
            apply_channel(SignalBlock(samples, 2), links, draws, 0.1)
    # the draws follow the frames' leading shape, an axis of length 1 shared
    for bad in (draws[:2], draws[0], draws[:, :, :9], draws[:, None], None):
        with pytest.raises(ContractViolation, match="noise needs draws"):
            apply_channel(tx, three, bad, 0.1)
    with pytest.raises(ContractViolation, match="noise needs draws"):
        apply_channel(tx, three, np.random.default_rng(0), 0.1)  # a generator draws a lone frame's noise only
    assert apply_channel(tx, three, None, 0.0).samples.shape == (3, 10)
    for build in (effective_channel, effective_channel_closed_form):
        with pytest.raises(ContractViolation, match="one link"):
            build(three, params, zero_schedule(8, "bob"))
    # a lone frame is a stack of one, and keeps its one-dimensional form; its
    # generator draws what the stack of one is given
    lone = apply_channel(SignalBlock(tx.samples[1], 2), real, np.random.default_rng(5), 0.1)
    given = np.random.default_rng(5).standard_normal((1, 2, 10))
    assert lone.samples.shape == (10,)
    for noise in (given, np.random.default_rng(5)):
        stack = apply_channel(SignalBlock(tx.samples[1:2], 2), stack_of(real, 1), noise, 0.1)
        assert lone.samples.tobytes() == stack.samples[0].tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_stacked_transmit_chain_equals_each_frame_alone(data):
    n = data.draw(st.integers(2, 80), label="n")
    ncp = data.draw(st.integers(0, n), label="ncp")
    delays = data.draw(st.lists(st.integers(0, ncp), min_size=1, max_size=5), label="delays")
    frames = data.draw(st.integers(1, 4), label="frames")
    links = data.draw(st.integers(1, 3), label="links")
    carried = data.draw(st.integers(1, 3), label="frames per link")
    # (frame, noise stream) of each row, link by link; rows that share a stream
    # get one noise vector
    rows = data.draw(
        st.lists(st.tuples(st.integers(0, frames - 1), st.integers(0, 2)), min_size=links * carried, max_size=links * carried),
        label="rows",
    )
    sigma2 = data.draw(st.sampled_from([0.0, 1e-3, 0.5]), label="sigma2")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = FrameParams(n=n, ncp=ncp, c1=rng.uniform(-1.0, 1.0))
    x = rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))
    scheds = C2Schedule(rng.uniform(-0.5, 0.5, size=(frames, n)), "alice")
    paths = len(delays)
    gains = rng.standard_normal((links, paths)) + 1j * rng.standard_normal((links, paths))
    dopplers = rng.uniform(-3, 3, (links, paths))
    streams = [np.random.SeedSequence(int(rng.integers(2**32))) for _ in range(3)]

    tx = se_afdm_modulate(x, params, scheds)
    alone = [se_afdm_modulate(x[f], params, C2Schedule(scheds.values[f], "alice")) for f in range(frames)]
    cores = remove_cpp(tx, params)
    for f, one in enumerate(alone):
        assert tx.samples[f].tobytes() == one.samples.tobytes()
        assert cores[f].tobytes() == remove_cpp(one, params).tobytes()
        assert add_cpp(cores, params).samples[f].tobytes() == add_cpp(cores[f], params).samples.tobytes()

    # each link carries its rows; each row gets what its frame gets alone
    # through that link, with a fresh generator on the same stream
    picked = SignalBlock(tx.samples[[f for f, _ in rows]].reshape(links, carried, -1), ncp)
    draws = np.array([np.random.default_rng(streams[k]).standard_normal((2, n + ncp)) for _, k in rows])
    draws = draws.reshape(links, carried, 2, n + ncp)
    stack = ChannelRealization(gains, delays, dopplers)
    rx = apply_channel(picked, stack, draws, sigma2)
    received = remove_cpp(rx, params)
    # the draws of each link's first row, shared by every frame it carries,
    # as the plain-AFDM frame shares Bob's in the harness
    shared = apply_channel(picked, stack, draws[:, :1], sigma2)
    for i, (f, k) in enumerate(rows):
        link = ChannelRealization(gains[i // carried], delays, dopplers[i // carried])
        one = apply_channel(alone[f], link, np.random.default_rng(streams[k]), sigma2)
        assert rx.samples[divmod(i, carried)].tobytes() == one.samples.tobytes()
        assert received[divmod(i, carried)].tobytes() == remove_cpp(one, params).tobytes()
        first = np.random.default_rng(streams[rows[i - i % carried][1]])
        assert shared.samples[divmod(i, carried)].tobytes() == apply_channel(alone[f], link, first, sigma2).samples.tobytes()


def test_prefixed_transmission_is_circular():
    # linear convolution over the chirp-periodic prefix equals the circular
    # Gamma Delta Pi^l model on the prefix-free frame
    rng = np.random.default_rng(8)
    n = 16
    params = FrameParams(n=n, ncp=3, c1=5.0 / (2 * n))
    for _ in range(20):
        real = sample_channel(3, 2.0, rng, n=n)
        s = random_frame(rng, n)
        r = apply_channel(add_cpp(s, params), real, None, 0.0)
        got = remove_cpp(r, params)
        np.testing.assert_allclose(got, circular_oracle(real, params) @ s, atol=1e-10)


def test_stacked_tap_diagonals_match_the_circular_oracle():
    # the links' one delay profile is unsorted, with a repeated delay and
    # delay 1 absent; equal delays add up in path order
    rng = np.random.default_rng(13)
    n = 12
    params = FrameParams(n=n, ncp=3, c1=0.1)
    delays = [2, 0, 3, 2]
    gains = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    dopplers = rng.uniform(-2, 2, (3, 4))
    taps = circular_taps(ChannelRealization(gains, delays, dopplers), params)
    assert taps.shape == (3, 4, n)
    assert not np.any(taps[:, 1])
    for s in range(3):
        real = ChannelRealization(gains[s], delays, dopplers[s])
        np.testing.assert_allclose(_time_domain_matrix(real, params), circular_oracle(real, params), atol=1e-12)
        assert taps[s].tobytes() == circular_taps(real, params)[0].tobytes()


def test_lone_link_taps_golden_digest():
    # sha256 over the taps of 990 lone links at n = 2..8 with awkward delay
    # profiles: one path at delay 1, repeated and unsorted delays, the largest
    # delay n - 1; fractional, integer and zero Dopplers.  Taken from the
    # stacked build as it stood when the test was added, it fails on a
    # rewrite that rounds one complex product of a link differently (the
    # wrap rows multiplied as an (R, P, w) broadcast change its bytes).
    rng = np.random.default_rng(2718)
    digest = hashlib.sha256()
    cases = 0
    for n in range(2, 9):
        for delays in ([1], [0, 1], [1, 1], [0, 0], [1, 0, 1], [2, 2, 0], [n - 1], [n - 1, 0, n - 1]):
            if max(delays) >= n:
                continue
            for c1 in (0.0, 5.0 / (2 * n), float(rng.uniform(-1, 1))):
                for ncp in sorted({max(delays), n}):
                    for doppler in ("fractional", "integer", "zero"):
                        paths = len(delays)
                        gains = rng.standard_normal(paths) + 1j * rng.standard_normal(paths)
                        nu = rng.uniform(-2, 2, paths)
                        nu = {"fractional": nu, "integer": np.round(nu), "zero": np.zeros(paths)}[doppler]
                        real = ChannelRealization(gains, delays, nu)
                        digest.update(circular_taps(real, FrameParams(n=n, ncp=ncp, c1=c1)).tobytes())
                        cases += 1
    assert cases == 990
    assert digest.hexdigest() == "ba6e4bb2ca51fdc3aa3e36506cec25ade60c39acaeb037807c0a8fbf249f306f"


def test_wrap_rows_are_the_prefix_phasors():
    # row l holds exp(-2j*pi*c1*(n**2 + 2*n*(k - l))) for k < l, the phasor
    # add_cpp puts on prefix position k - l, bit for bit, then ones
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(2, 130))
        max_delay = int(rng.integers(0, n + 1))
        c1 = float(rng.choice([rng.uniform(-2, 2), (2 * rng.integers(0, 5) + 1) / (2 * n)]))
        delay = np.arange(max_delay + 1)[:, None]
        k = np.arange(max_delay)
        phase = np.mod(c1 * (n * n - 2.0 * n * (delay - k)), 1.0)
        expected = np.where(k < delay, np.exp(-2j * np.pi * phase), 1.0)
        assert _wrap_phasors(n, max_delay, c1).tobytes() == expected.tobytes()
        block = add_cpp(np.ones(n), FrameParams(n=n, ncp=max_delay, c1=c1))
        assert block.samples[:max_delay].tobytes() == expected[-1].tobytes()


def test_doppler_phasor_rows_are_built_once_and_read_only():
    # row p of each link holds exp(2j*pi*nu_p*t/n) for t in [-prefix, n), as
    # the channel formula evaluates it on the sample clock, signed zeros
    # included; a realization keeps its rows and every stage that passes a
    # frame through it reads them.  Integer Doppler rounds small shifts to
    # +0.0 and -0.0, whose rows hold +-0 imaginary parts
    rng = np.random.default_rng(17)
    zeros, sizes = set(), set()
    for case in range(120):
        n = int(rng.integers(2, 100))
        paths = int(rng.integers(1, min(n, 4) + 1))
        prefix = int(rng.integers(paths - 1, n))
        links = int(rng.integers(1, 4))
        draws = np.array([draw_paths(rng, paths) for _ in range(links)])
        integer = case % 2 == 1
        stack = paths_from_draws(draws, float(rng.uniform(0.0, 4.0)), n=n, integer_doppler=integer)
        zeros |= {bool(np.signbit(nu)) for nu in stack.dopplers.ravel() if nu == 0.0}
        sizes.add(n & (n - 1) == 0)
        frames = SignalBlock(rng.standard_normal((links, 2, prefix + n)) + 0j, prefix)
        apply_channel(frames, stack, None, 0.0)
        rows = stack._phasor_rows[n, prefix]
        circular_taps(stack, FrameParams(n=n, ncp=prefix, c1=0.1))
        # circular_taps read the rows apply_channel built
        assert list(stack._phasor_rows) == [(n, prefix)] and stack._phasor_rows[n, prefix] is rows
        assert rows.shape == (links, paths, prefix + n)
        with pytest.raises(ValueError):
            rows[0, 0, 0] = 0.0
        for link in range(links):
            for p, rotation in enumerate(2j * np.pi * stack.dopplers[link]):
                formula = np.exp(rotation * np.arange(-prefix, n, dtype=np.float64) / n)
                assert rows[link, p].tobytes() == formula.tobytes()
                # the tap diagonals' clock t in [0, n) on integers reads the same bytes
                assert rows[link, p, prefix:].tobytes() == np.exp(rotation * np.arange(n) / n).tobytes()
    assert zeros == {False, True} and sizes == {False, True}  # +0.0 and -0.0; powers of two and other n
    # the channel and the tap diagonals use the rows; one zero-delay path shows them
    params = FrameParams(n=16, ncp=2, c1=0.1)
    real = ChannelRealization([0.5 - 0.25j], [0], [1.3])
    block = add_cpp(random_frame(rng, 16), params)
    out = apply_channel(block, real, None, 0.0).samples
    rows = real._phasor_rows[16, 2]
    assert rows.shape == (1, 1, 18)
    assert out.tobytes() == (real.gains[0] * block.samples * rows[0, 0]).tobytes()
    assert circular_taps(real, params)[0, 0].tobytes() == (real.gains[0] * rows[0, 0, 2:]).tobytes()
    assert real._phasor_rows[16, 2] is rows
    # another geometry gets its own rows and leaves the first ones alone
    assert _doppler_rows(real, 16, 0).shape == (1, 1, 16) and real._phasor_rows[16, 2] is rows


def test_prefixed_transmission_is_circular_awkward_c1():
    # same equivalence when 2*n*c1 is not an integer and the prefix phases bite
    rng = np.random.default_rng(9)
    n = 16
    params = FrameParams(n=n, ncp=4, c1=0.1)
    for _ in range(20):
        real = sample_channel(4, 1.5, rng, n=n)
        s = random_frame(rng, n)
        r = apply_channel(add_cpp(s, params), real, None, 0.0)
        got = remove_cpp(r, params)
        np.testing.assert_allclose(got, circular_oracle(real, params) @ s, atol=1e-10)


def test_effective_channel_identity_case():
    n = 16
    params = FrameParams(n=n, ncp=0, c1=0.13)
    rng = np.random.default_rng(10)
    rx, tx = matched_schedules(rng, n)
    real = ChannelRealization([1.0], [0], [0.0])
    eff = effective_channel(real, params, rx, tx)
    np.testing.assert_allclose(eff.matrix, np.eye(n), atol=1e-10)


def test_single_path_effective_channel_is_unitary():
    rng = np.random.default_rng(12)
    n = 16
    params = FrameParams(n=n, ncp=3, c1=5.0 / (2 * n))
    for delay, doppler in [(0, 0.0), (2, 1.37), (3, -0.61)]:
        real = ChannelRealization([1.0], [delay], [doppler])
        rx, tx = matched_schedules(rng, n)
        sv = np.linalg.svd(effective_channel(real, params, rx, tx).matrix, compute_uv=False)
        np.testing.assert_allclose(sv, np.ones(n), atol=1e-9)


def test_scrambling_preserves_singular_values():
    # the scheduled matrix is a two-sided diagonal-unitary congruence of the
    # plain one, so the singular value multiset cannot move
    rng = np.random.default_rng(13)
    n = 32
    params = FrameParams.for_profile(n, 2.0, 2)
    real = sample_channel(3, 2.0, rng, n=n)
    rx, tx = matched_schedules(rng, n, c2max=4.88e-5)
    scheduled = effective_channel(real, params, rx, tx).matrix
    plain = effective_channel(
        real, params, zero_schedule(n, "bob"), zero_schedule(n, "alice")
    ).matrix
    sv_sched = np.linalg.svd(scheduled, compute_uv=False)
    sv_plain = np.linalg.svd(plain, compute_uv=False)
    np.testing.assert_allclose(np.sort(sv_sched), np.sort(sv_plain), atol=1e-9)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("integer_doppler", [False, True])
def test_closed_form_matches_operator_product(n, integer_doppler):
    rng = np.random.default_rng(n + int(integer_doppler))
    params = FrameParams.for_profile(n, 2.0, 2)
    for _ in range(10):
        real = sample_channel(3, 2.0, rng, n=n, integer_doppler=integer_doppler)
        rx, tx = matched_schedules(rng, n, c2max=1e-3)
        a = effective_channel(real, params, rx, tx).matrix
        b = effective_channel_closed_form(real, params, rx, tx).matrix
        assert np.max(np.abs(a - b)) <= 1e-9
        ae = effective_channel(real, params, rx, None).matrix
        be = effective_channel_closed_form(real, params, rx, None).matrix
        assert np.max(np.abs(ae - be)) <= 1e-9


@st.composite
def links(draw):
    """A frame, a channel, independent schedules, a noise level and a received core.

    ``tx`` is the transmit schedule (Bob's view) or None (Eve's view: her
    estimate targets the scrambled frame); the frame is always sent with
    ``alice``.
    """
    n = draw(st.integers(4, 64))
    paths = draw(st.integers(1, 4))
    ncp = draw(st.integers(paths - 1, n))
    c1 = draw(st.floats(-2.0, 2.0))
    alpha_max = draw(st.floats(0.0, 4.0))
    integer_doppler = draw(st.booleans())
    c2max = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.5]))
    sigma2 = 10.0 ** draw(st.integers(-3, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = sample_channel(paths, alpha_max, rng, n=n, integer_doppler=integer_doppler)
    params = FrameParams(n=n, ncp=ncp, c1=c1)
    rx = C2Schedule(rng.uniform(-c2max, c2max, size=n), "bob")
    alice = C2Schedule(rng.uniform(-c2max, c2max, size=n), "alice")
    tx = alice if draw(st.booleans()) else None
    x = map_bits(rng.integers(0, 2, size=2 * n), qpsk())
    r = remove_cpp(apply_channel(se_afdm_modulate(x, params, alice), real, rng, sigma2), params)
    return real, params, rx, tx, sigma2, r


def near_integer_link():
    """n=4, c1=0, one path a hair off integer Doppler: the kernel sits just off its peak."""
    n = 4
    real = ChannelRealization([1.0], [0], [9.972e-10])
    params = FrameParams(n=n, ncp=0, c1=0.0)
    return real, params, zero_schedule(n, "bob"), None, 1.0, np.zeros(n, dtype=complex)


@settings(max_examples=50, deadline=None, database=None)
@given(links())
@example(near_integer_link())
def test_closed_form_matches_operator_product_on_random_links(link):
    real, params, rx, tx, _, _ = link
    a = effective_channel(real, params, rx, tx).matrix
    b = effective_channel_closed_form(real, params, rx, tx).matrix
    assert np.max(np.abs(a - b)) <= 1e-9


@settings(max_examples=50, deadline=None, database=None)
@given(links())
def test_time_domain_mmse_matches_dense_subcarrier_mmse_on_random_links(link):
    real, params, rx, tx, sigma2, r = link
    h = effective_channel(real, params, rx, tx).matrix
    dense = mmse_equalize(daft(r, params, rx.values), h, sigma2)
    fast = daft(banded_mmse_equalize(r[None, None], circular_taps(real, params), sigma2)[0, 0], params, 0.0 if tx is None else tx.values)
    assert np.max(np.abs(fast - dense)) <= 1e-12


def test_effective_channel_predicts_front_end():
    from seafdm import bob_front_end, se_afdm_modulate

    rng = np.random.default_rng(14)
    n = 32
    params = FrameParams.for_profile(n, 2.0, 2)
    real = sample_channel(3, 2.0, rng, n=n)
    values = rng.uniform(-1e-3, 1e-3, size=n)
    alice = C2Schedule(values, "alice")
    bob = C2Schedule(values, "bob")
    x = random_frame(rng, n)
    r = apply_channel(se_afdm_modulate(x, params, alice), real, None, 0.0)
    y = bob_front_end(r, params, bob)
    h = effective_channel(real, params, bob, alice).matrix
    np.testing.assert_allclose(y, h @ x, atol=1e-10)


def test_kernel_limit_and_zeros():
    params = FrameParams(n=16, ncp=0, c1=5.0 / 32.0)
    # z = p - q - nu + 2*n*c1*l; pick values that land exactly on integers
    assert coupling_kernel(3, 3, 0.0, 0, params) == pytest.approx(16)
    # z = 5 with l=1, nu=0, p=q: full-period geometric sum vanishes
    assert abs(coupling_kernel(3, 3, 0.0, 1, params)) < 1e-9
    # z a multiple of n is again the peak
    assert coupling_kernel(0, 0, -16.0, 0, params) == pytest.approx(16)


def test_kernel_fractional_value():
    params = FrameParams(n=4, ncp=0, c1=0.0)
    got = coupling_kernel(0, 0, -0.5, 0, params)
    expected = sum(np.exp(-2j * np.pi * 0.5 * k / 4) for k in range(4))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_kernel_matches_geometric_sum():
    rng = np.random.default_rng(15)
    n = 16
    params = FrameParams(n=n, ncp=0, c1=0.21)
    for _ in range(50):
        p, q = rng.integers(0, n, size=2)
        nu = rng.uniform(-2.5, 2.5)
        delay = int(rng.integers(0, 3))
        z = p - q - nu + 2 * n * params.c1 * delay
        expected = sum(np.exp(-2j * np.pi * z * k / n) for k in range(n))
        np.testing.assert_allclose(
            coupling_kernel(p, q, nu, delay, params), expected, atol=1e-9
        )


@pytest.mark.parametrize("n", [2, 3, 4, 16, 64, 1024])
def test_kernel_near_integer_offsets_matches_direct_sum(n):
    # offsets a hair from an integer j: the peak (j a multiple of n) and the zeros
    params = FrameParams(n=n, ncp=0, c1=0.0)
    k = np.arange(n)
    for j in (0, 1, n - 1, n, -n, 3 * n + 1):
        for eps in (0.0, 1e-12, 9.972e-10, -9.972e-10, 1.0001e-9, -3e-9, 1e-7):
            z = j + eps
            # direct sum with the integer part reduced exactly: exp(-2j*pi*j*k/n) cycles mod n
            direct = np.sum(np.exp(-2j * np.pi * ((j * k) % n) / n) * np.exp(-2j * np.pi * (z - j) * k / n))
            got = coupling_kernel(0, 0, -z, 0, params)
            assert abs(got - direct) <= 1e-12, (n, j, eps, abs(got - direct))


def test_integer_doppler_single_coupling_per_row():
    n = 16
    params = FrameParams(n=n, ncp=2, c1=5.0 / (2 * n))
    real = ChannelRealization([1.0], [1], [2.0])
    h = effective_channel(
        real, params, zero_schedule(n, "bob"), zero_schedule(n, "alice")
    ).matrix
    # 2*n*c1*l - alpha = 5 - 2 = 3
    loc = 3
    mags = np.abs(h)
    for p in range(n):
        q = (p + loc) % n
        assert mags[p, q] >= 1 - 1e-9
        others = np.delete(mags[p], q)
        assert np.all(others <= 1e-9)
