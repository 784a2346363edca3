"""Tests for MMSE equalization and hard-decision demapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
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
from seafdm.channel import ChannelRealization
from seafdm.daft import add_cpp, chirp_diag, daft
from seafdm.detection import _band_plan, banded_mmse_equalize
from seafdm.keystream import C2Schedule


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
            fast = banded_mmse_equalize(r[None, None], [real], params, sigma2)[0, 0]
            fast = daft(fast, params, 0.0 if tx is None else tx.values)
            np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-12)


def test_time_domain_mmse_contracts_and_singular_channel():
    params = FrameParams(n=8, ncp=2, c1=0.1)
    real = ChannelRealization([1.0, 0.5], [0, 2], [0.0, 0.3])
    with pytest.raises(ContractViolation):
        banded_mmse_equalize(np.ones((1, 1, 7), dtype=complex), [real], params, 0.1)
    with pytest.raises(ContractViolation):
        banded_mmse_equalize(np.ones((1, 1, 8), dtype=complex), [real], params, -0.1)
    dead = ChannelRealization([0.0, 0.0], [0, 2], [0.0, 1.0])
    with pytest.raises(SolverError):
        banded_mmse_equalize(np.ones((1, 1, 8), dtype=complex), [dead], params, 0.0)


@settings(max_examples=300, deadline=None, database=None)
@given(
    systems=st.integers(1, 6),
    n=st.integers(2, 80),
    paths=st.integers(1, 5),
    rhs=st.integers(1, 2),
    log_sigma2=st.floats(-4.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    run=st.sampled_from([1, 2, 3, None]),
)
def test_stacked_solve_equals_each_system_alone(systems, n, paths, rhs, log_sigma2, seed, run):
    # small n puts n <= 2 * max_delay in play; run caps the systems per stacked solve
    rng = np.random.default_rng(seed)
    paths = min(paths, n)
    params = FrameParams(n=n, ncp=paths - 1, c1=rng.uniform(-1.0, 1.0))
    sigma2 = 10.0**log_sigma2
    reals = [sample_channel(paths, 2.0, rng, n=n) for _ in range(systems)]
    r = rng.standard_normal((systems, rhs, n)) + 1j * rng.standard_normal((systems, rhs, n))
    limit = detection._STACK_SAMPLES
    try:
        if run is not None:
            detection._STACK_SAMPLES = run * n
        stacked = banded_mmse_equalize(r, reals, params, sigma2)
    finally:
        detection._STACK_SAMPLES = limit
    assert stacked.shape == r.shape
    for s, real in enumerate(reals):
        for j in range(rhs):
            alone = banded_mmse_equalize(r[s, j][None, None], [real], params, sigma2)[0, 0]
            assert stacked[s, j].tobytes() == alone.tobytes()


def test_stacked_solve_contracts(monkeypatch):
    params = FrameParams(n=8, ncp=2, c1=0.1)
    real = ChannelRealization([1.0, 0.5], [0, 2], [0.0, 0.3])
    for shape in [(2, 8), (3, 1, 8), (2, 2, 2, 8), (2, 1, 7), (8,)]:
        with pytest.raises(ContractViolation):
            banded_mmse_equalize(np.ones(shape, dtype=complex), [real, real], params, 0.1)
    with pytest.raises(ContractViolation):
        banded_mmse_equalize(np.ones((0, 1, 8), dtype=complex), [], params, 0.1)
    with pytest.raises(TypeError):  # a lone realization is no sequence of systems
        banded_mmse_equalize(np.ones((1, 1, 8), dtype=complex), real, params, 0.1)
    # one delay profile per stack: an equal longest delay or the same delays reordered is another profile
    for other in ([0, 1], [2, 0], [0, 1, 2]):
        link = ChannelRealization(np.ones(len(other)), other, np.zeros(len(other)))
        with pytest.raises(ContractViolation, match="one delay profile"):
            banded_mmse_equalize(np.ones((2, 1, 8), dtype=complex), [real, link], params, 0.1)
    # the profile holds across runs of the stack, not only within one
    stack = [real] * 3 + [ChannelRealization([1.0, 0.5], [2, 0], [0.0, 0.3])]
    monkeypatch.setattr(detection, "_STACK_SAMPLES", 2 * params.n)
    with pytest.raises(ContractViolation, match="one delay profile"):
        banded_mmse_equalize(np.ones((4, 1, 8), dtype=complex), stack, params, 0.1)
    dead = ChannelRealization([0.0, 0.0], [0, 2], [0.0, 1.0])
    with pytest.raises(SolverError):
        banded_mmse_equalize(np.ones((2, 1, 8), dtype=complex), [real, dead], params, 0.0)


_PARAMS = FrameParams(n=8, ncp=2, c1=0.1)
_LINK = ChannelRealization([1.0, 0.5], [0, 2], [0.0, 0.3])
_NOISY_STAGES = {
    "apply_channel": lambda sigma2: apply_channel(add_cpp(np.ones(8), _PARAMS), _LINK, np.random.default_rng(0), sigma2).samples,
    "mmse_equalize": lambda sigma2: mmse_equalize(np.ones(8), np.eye(8), sigma2),
    "banded_mmse_equalize": lambda sigma2: banded_mmse_equalize(np.ones((1, 1, 8)), [_LINK], _PARAMS, sigma2),
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
    first = banded_mmse_equalize(r, [real], params, 0.1)
    plan = _band_plan(12, 2)
    assert _band_plan(12, 2) is plan
    tables = [t for t in plan if isinstance(t, np.ndarray)]
    assert len(tables) == 6
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    np.testing.assert_array_equal(banded_mmse_equalize(r, [real], params, 0.1), first)
    # a second geometry gets its own tables and the first one's are untouched
    assert _band_plan(12, 1) is not plan
    banded_mmse_equalize(r[..., :10], [sample_channel(2, 2.0, rng, n=10)], FrameParams(n=10, ncp=1, c1=0.3), 0.1)
    np.testing.assert_array_equal(banded_mmse_equalize(r, [real], params, 0.1), first)


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
