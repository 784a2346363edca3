"""Tests for the doubly dispersive channel and its subcarrier-domain forms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from seafdm import (
    ChannelRealization,
    ContractViolation,
    FrameParams,
    PathSpec,
    add_cpp,
    apply_channel,
    awgn,
    banded_mmse_equalize,
    coupling_kernel,
    daft,
    effective_channel,
    effective_channel_closed_form,
    map_bits,
    mmse_equalize,
    qpsk,
    remove_cpp,
    sample_channel,
    se_afdm_modulate,
    zero_schedule,
)
from seafdm.keystream import C2Schedule


def random_frame(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def matched_schedules(rng, n, c2max=1e-3):
    values = rng.uniform(-c2max, c2max, size=n)
    return C2Schedule(values, "bob"), C2Schedule(values, "alice")


def circular_path_oracle(path, params):
    """Gamma * Delta * Pi^l built from first principles."""
    n = params.n
    shift = np.roll(np.eye(n), 1, axis=0)
    perm = np.linalg.matrix_power(shift, path.delay)
    delta = np.diag(np.exp(2j * np.pi * path.doppler * np.arange(n) / n))
    gamma = np.ones(n, dtype=complex)
    for t in range(path.delay):
        gamma[t] = np.exp(-2j * np.pi * params.c1 * (n * n - 2 * n * (path.delay - t)))
    return path.gain * np.diag(gamma) @ delta @ perm


def test_path_spec_validation():
    with pytest.raises(ContractViolation):
        PathSpec(1.0, -1, 0.0)
    with pytest.raises(ContractViolation):
        PathSpec(1.0, 0, np.inf)
    with pytest.raises(ContractViolation):
        ChannelRealization(())


def test_sample_channel_geometry():
    rng = np.random.default_rng(0)
    real = sample_channel(3, 2.0, rng, n=64)
    assert [p.delay for p in real.paths] == [0, 1, 2]
    assert real.max_delay == 2
    assert all(abs(p.doppler) <= 2.0 for p in real.paths)
    single = sample_channel(1, 0.0, rng, n=64)
    assert single.paths[0].delay == 0 and single.paths[0].doppler == 0.0


def test_sample_channel_unit_average_energy():
    rng = np.random.default_rng(1)
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        real = sample_channel(3, 2.0, rng, n=64)
        total += sum(abs(p.gain) ** 2 for p in real.paths)
    assert abs(total / trials - 1.0) < 0.03


def test_doppler_follows_jakes_marginal():
    rng = np.random.default_rng(2)
    alpha = 2.0
    nu = np.array(
        [sample_channel(1, alpha, rng, n=64).paths[0].doppler for _ in range(100_000)]
    )

    def arcsine_cdf(v):
        return 1.0 - np.arccos(np.clip(v / alpha, -1.0, 1.0)) / np.pi

    result = stats.kstest(nu, arcsine_cdf)
    assert result.pvalue > 0.01


def test_integer_doppler_mode_rounds():
    rng = np.random.default_rng(3)
    real = sample_channel(4, 2.0, rng, n=64, integer_doppler=True)
    for p in real.paths:
        assert p.doppler == int(p.doppler)


def test_awgn_variance_and_validation():
    rng = np.random.default_rng(4)
    w = awgn(rng, 200_000, 0.36)
    assert abs(np.mean(np.abs(w) ** 2) - 0.36) < 0.01
    assert np.all(awgn(rng, 8, 0.0) == 0)
    with pytest.raises(ContractViolation):
        awgn(rng, 8, -1.0)


def test_apply_channel_identity_path():
    params = FrameParams(n=16, ncp=2, c1=0.1)
    rng = np.random.default_rng(5)
    s = add_cpp(random_frame(rng, 16), params)
    real = ChannelRealization((PathSpec(1.0, 0, 0.0),))
    r = apply_channel(s, real, None, 0.0)
    np.testing.assert_allclose(r.samples, s.samples, atol=1e-15)


def test_apply_channel_pure_delay():
    params = FrameParams(n=16, ncp=3, c1=0.1)
    rng = np.random.default_rng(6)
    s = add_cpp(random_frame(rng, 16), params)
    gain = 0.5 - 0.25j
    r = apply_channel(s, ChannelRealization((PathSpec(gain, 2, 0.0),)), None, 0.0)
    np.testing.assert_allclose(r.samples[2:], gain * s.samples[:-2], atol=1e-15)
    np.testing.assert_allclose(r.samples[:2], 0.0, atol=1e-15)


def test_apply_channel_contracts():
    params = FrameParams(n=16, ncp=1, c1=0.1)
    rng = np.random.default_rng(7)
    core = random_frame(rng, 16)
    with pytest.raises(ContractViolation):
        apply_channel(core, ChannelRealization((PathSpec(1.0, 0, 0.0),)), rng, 0.1)
    prefixed = add_cpp(core, params)
    with pytest.raises(ContractViolation):
        apply_channel(prefixed, ChannelRealization((PathSpec(1.0, 2, 0.0),)), rng, 0.1)
    with pytest.raises(ContractViolation):
        apply_channel(prefixed, ChannelRealization((PathSpec(1.0, 0, 0.0),)), None, 0.1)


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
        oracle = sum(circular_path_oracle(p, params) for p in real.paths)
        np.testing.assert_allclose(got, oracle @ s, atol=1e-10)


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
        oracle = sum(circular_path_oracle(p, params) for p in real.paths)
        np.testing.assert_allclose(got, oracle @ s, atol=1e-10)


def test_effective_channel_identity_case():
    n = 16
    params = FrameParams(n=n, ncp=0, c1=0.13)
    rng = np.random.default_rng(10)
    rx, tx = matched_schedules(rng, n)
    real = ChannelRealization((PathSpec(1.0, 0, 0.0),))
    eff = effective_channel(real, params, rx, tx)
    np.testing.assert_allclose(eff.matrix, np.eye(n), atol=1e-10)


def test_single_path_effective_channel_is_unitary():
    rng = np.random.default_rng(12)
    n = 16
    params = FrameParams(n=n, ncp=3, c1=5.0 / (2 * n))
    for delay, doppler in [(0, 0.0), (2, 1.37), (3, -0.61)]:
        real = ChannelRealization((PathSpec(1.0, delay, doppler),))
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
    real = ChannelRealization((PathSpec(1.0, 0, 9.972e-10),))
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
    fast = daft(banded_mmse_equalize(r, real, params, sigma2), params, 0.0 if tx is None else tx.values)
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
    real = ChannelRealization((PathSpec(1.0, 1, 2.0),))
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
