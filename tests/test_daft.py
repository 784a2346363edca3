"""Tests for the chirp transform primitives and the chirp-periodic prefix."""

from __future__ import annotations

import numpy as np
import pytest

from seafdm import ContractViolation, FrameParams
from seafdm.daft import SignalBlock, add_cpp, chirp_diag, daft, idaft, remove_cpp

from oracles import daft_matrix


def random_frame(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def zero_rates(n):
    """At c1 = c2 = 0 the DAFT is the unitary DFT, L(0) F L(0) = F."""
    return FrameParams(n=n, ncp=0, c1=0.0)


def idaft_double_sum(x, c1, c2):
    """Literal synthesis sum, kept quadratic on purpose as the reference."""
    n = len(x)
    c2 = np.broadcast_to(np.asarray(c2, dtype=float), (n,))
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0.0j
        for m in range(n):
            acc += x[m] * np.exp(2j * np.pi * (c1 * t * t + c2[m] * m * m + m * t / n))
        out[t] = acc / np.sqrt(n)
    return out


def test_dft_of_constant_is_impulse():
    n = 8
    out = daft(np.ones(n), zero_rates(n), 0.0)
    expected = np.zeros(n, dtype=complex)
    expected[0] = np.sqrt(n)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_dft_of_impulse_is_flat():
    n = 8
    e0 = np.zeros(n)
    e0[0] = 1.0
    np.testing.assert_allclose(daft(e0, zero_rates(n), 0.0), np.full(n, 1 / np.sqrt(n)), atol=1e-12)


def test_dft_four_point_tone():
    x = np.array([1, 1j, -1, -1j])
    np.testing.assert_allclose(daft(x, zero_rates(4), 0.0), [0, 2, 0, 0], atol=1e-12)


def test_idft_inverts_dft():
    rng = np.random.default_rng(5)
    x = random_frame(rng, 32)
    params = zero_rates(32)
    np.testing.assert_allclose(idaft(daft(x, params, 0.0), params, 0.0), x, atol=1e-12)
    np.testing.assert_allclose(daft(x, params, 0.0), np.fft.fft(x, norm="ortho"), atol=1e-12)


def test_chirp_diag_zero_rate_is_identity():
    np.testing.assert_array_equal(chirp_diag(0.0, 6), np.ones(6))


def test_chirp_diag_index_zero_always_one():
    rng = np.random.default_rng(6)
    for c in rng.uniform(-5, 5, size=20):
        assert chirp_diag(c, 4)[0] == 1.0 + 0.0j


def test_chirp_diag_quarter_rate_values():
    n = 4
    got = chirp_diag(1.0 / (2 * n), n)
    expected = np.exp(-1j * np.pi * np.arange(n) ** 2 / n)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_chirp_diag_conjugate_flag():
    vals = chirp_diag(0.3, 9)
    np.testing.assert_allclose(chirp_diag(0.3, 9, conjugate=True), np.conj(vals), atol=1e-15)


def test_chirp_diag_vector_rate_per_index():
    rates = np.array([0.1, 0.2, 0.3])
    got = chirp_diag(rates, 3)
    expected = np.exp(-2j * np.pi * rates * np.arange(3) ** 2)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_chirp_diag_rejects_bad_rates():
    with pytest.raises(ContractViolation):
        chirp_diag(np.ones(5), 4)
    with pytest.raises(ContractViolation):
        chirp_diag(np.inf, 4)


def test_chirp_diag_large_index_phase_precision():
    # mod-1 reduction keeps the quadratic phase exact where naive
    # exponentiation of ~1e9 radian arguments would lose digits
    n = 4096
    c = 0.4999
    idx = np.arange(n, dtype=np.float64)
    exact = np.exp(-2j * np.pi * np.mod(c * idx * idx, 1.0))
    np.testing.assert_allclose(chirp_diag(c, n), exact, atol=1e-12)
    np.testing.assert_allclose(np.abs(chirp_diag(c, n)), 1.0, atol=1e-14)


def test_scalar_chirp_is_built_once_and_read_only():
    a = chirp_diag(0.37, 16)
    assert chirp_diag(0.37, 16) is a
    with pytest.raises(ValueError):
        a[3] = 0.0
    with pytest.raises(ValueError):
        a *= 2.0
    np.testing.assert_allclose(a, np.exp(-2j * np.pi * 0.37 * np.arange(16.0) ** 2), atol=1e-12)
    # a per-index rate vector is built fresh and belongs to the caller
    v = chirp_diag(np.full(16, 0.37), 16)
    v[3] = 0.0
    assert chirp_diag(np.full(16, 0.37), 16)[3] == a[3]


def test_zero_rate_rows_are_exact_ones_and_mixed_stacks_keep_their_bytes():
    # the exp formula rounds a zero rate to exactly 1+0j, so skipping it
    # changes no byte; any nonzero row of a stack is built as it is alone
    rng = np.random.default_rng(19)
    n = 24
    idx = np.arange(n, dtype=np.float64)
    rates = rng.uniform(-1e-3, 1e-3, size=(2, 3, n))
    rates[0, 1] = 0.0
    rates[1, 0] = -0.0
    rates[1, 2, 5:] = 0.0  # one nonzero rate keeps its row exponentiated
    for conjugate, sign in ((False, -1.0), (True, 1.0)):
        out = chirp_diag(rates, n, conjugate=conjugate)
        assert out.shape == rates.shape and out.flags.writeable
        for row in np.ndindex(rates.shape[:-1]):
            formula = np.exp(sign * 2j * np.pi * np.mod(rates[row] * idx * idx, 1.0))
            assert out[row].tobytes() == formula.tobytes()
            assert out[row].tobytes() == chirp_diag(rates[row], n, conjugate=conjugate).tobytes()
        for row in ((0, 1), (1, 0)):
            assert out[row].tobytes() == np.full(n, 1.0 + 0.0j).tobytes()
        assert chirp_diag(0.0, n, conjugate=conjugate).tobytes() == np.full(n, 1.0 + 0.0j).tobytes()
        assert chirp_diag(np.zeros((0, n)), n, conjugate=conjugate).shape == (0, n)


def test_frames_of_equal_size_keep_their_own_c1():
    rng = np.random.default_rng(17)
    n = 16
    x = random_frame(rng, n)
    k = np.arange(n, dtype=np.float64)
    outs = []
    for c1 in (0.1, 0.2, 0.1, -0.1):
        params = FrameParams(n=n, ncp=0, c1=c1)
        expected = np.fft.fft(np.exp(-2j * np.pi * c1 * k * k) * x, norm="ortho")
        np.testing.assert_allclose(daft(x, params, 0.0), expected, atol=1e-12)
        outs.append(daft(x, params, 0.0))
        np.testing.assert_allclose(idaft(outs[-1], params, 0.0), x, atol=1e-12)
    np.testing.assert_array_equal(outs[0], outs[2])
    assert not np.allclose(outs[0], outs[1]) and not np.allclose(outs[0], outs[3])


@pytest.mark.parametrize("vector_c2", [False, True])
def test_idaft_matches_double_sum(vector_c2):
    rng = np.random.default_rng(7)
    n = 16
    params = FrameParams(n=n, ncp=0, c1=0.17)
    c2 = rng.uniform(-0.2, 0.2, size=n) if vector_c2 else 0.05
    x = random_frame(rng, n)
    got = idaft(x, params, c2)
    np.testing.assert_allclose(got, idaft_double_sum(x, params.c1, c2), atol=1e-10)


def test_idaft_of_impulse_ignores_c2():
    n = 16
    params = FrameParams(n=n, ncp=0, c1=0.09)
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    expected = np.exp(2j * np.pi * params.c1 * np.arange(n) ** 2) / np.sqrt(n)
    for c2 in (0.0, 0.31, np.linspace(-1, 1, n)):
        np.testing.assert_allclose(idaft(x, params, c2), expected, atol=1e-12)


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_round_trip_and_norm(n):
    rng = np.random.default_rng(n)
    params = FrameParams(n=n, ncp=0, c1=rng.uniform(-1, 1))
    for _ in range(5):
        c2 = rng.uniform(-1, 1, size=n)
        x = random_frame(rng, n)
        s = idaft(x, params, c2)
        np.testing.assert_allclose(np.linalg.norm(s), np.linalg.norm(x), atol=1e-12)
        np.testing.assert_allclose(daft(s, params, c2), x, atol=1e-10)


def test_dense_matrix_agrees_with_operator_chain():
    rng = np.random.default_rng(13)
    n = 16
    c1 = 0.21
    c2 = rng.uniform(-0.5, 0.5, size=n)
    mat = daft_matrix(n, c1, c2)
    s = random_frame(rng, n)
    params = FrameParams(n=n, ncp=0, c1=c1)
    np.testing.assert_allclose(mat @ s, daft(s, params, c2), atol=1e-10)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(n), atol=1e-10)


def test_daft_rejects_prefixed_block():
    params = FrameParams(n=8, ncp=2, c1=0.1)
    block = add_cpp(np.ones(8, dtype=complex), params)
    with pytest.raises(ContractViolation):
        daft(block, params, 0.0)
    with pytest.raises(ContractViolation):
        add_cpp(block, params)


def test_add_cpp_zero_length_prefix():
    params = FrameParams(n=8, ncp=0, c1=0.3)
    s = np.arange(8, dtype=complex)
    out = add_cpp(s, params)
    assert out.prefix_len == 0 and out.n == 8
    np.testing.assert_array_equal(out.samples, s)


def test_cpp_reduces_to_cyclic_prefix():
    # 2*n*c1 integer with n even makes every prefix phase equal one
    n, ncp = 16, 3
    params = FrameParams(n=n, ncp=ncp, c1=5.0 / (2 * n))
    rng = np.random.default_rng(2)
    s = random_frame(rng, n)
    out = add_cpp(s, params)
    np.testing.assert_allclose(out.samples[:ncp], s[n - ncp:], atol=1e-12)


def test_cpp_phase_at_known_point():
    # n=16, c1=1/10, prefix position -1: c1*(n*n + 2*n*(-1)) = 22.4
    n = 16
    params = FrameParams(n=n, ncp=1, c1=0.1)
    rng = np.random.default_rng(3)
    s = random_frame(rng, n)
    out = add_cpp(s, params)
    np.testing.assert_allclose(out.samples[0], s[-1] * np.exp(-2j * np.pi * 22.4), atol=1e-12)
    np.testing.assert_allclose(out.samples[0], s[-1] * np.exp(-1j * 0.8 * np.pi), atol=1e-12)


def test_cpp_phase_has_unit_magnitude():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(4, 40))
        ncp = int(rng.integers(1, n))
        params = FrameParams(n=n, ncp=ncp, c1=rng.uniform(-2, 2))
        s = random_frame(rng, n)
        out = add_cpp(s, params)
        np.testing.assert_allclose(
            np.abs(out.samples[:ncp]), np.abs(s[n - ncp:]), atol=1e-12
        )


def test_remove_cpp_round_trip():
    params = FrameParams(n=12, ncp=4, c1=0.37)
    rng = np.random.default_rng(8)
    s = random_frame(rng, 12)
    back = remove_cpp(add_cpp(s, params), params)
    assert back.shape == (12,)
    np.testing.assert_allclose(back, s, atol=1e-15)


def test_remove_cpp_rejects_bad_geometry():
    params = FrameParams(n=12, ncp=4, c1=0.37)
    with pytest.raises(ContractViolation):
        remove_cpp(np.ones(16, dtype=complex), params)
    # one sample short of n + ncp
    with pytest.raises(ContractViolation):
        remove_cpp(SignalBlock(np.ones(15, dtype=complex), prefix_len=4), params)


def test_frame_params_validation():
    with pytest.raises(ContractViolation):
        FrameParams(n=1, ncp=0, c1=0.0)
    with pytest.raises(ContractViolation):
        FrameParams(n=8, ncp=9, c1=0.0)
    with pytest.raises(ContractViolation):
        FrameParams(n=8, ncp=0, c1=float("inf"))


def test_for_profile_defaults():
    params = FrameParams.for_profile(64, 2.0, 3)
    assert params.ncp == 3
    np.testing.assert_allclose(params.c1, 5.0 / 128.0)


def test_signal_block_tags():
    assert SignalBlock(np.zeros(4, dtype=complex), prefix_len=0).n == 4
    assert SignalBlock(np.zeros(6, dtype=complex), prefix_len=2).n == 4
    assert SignalBlock(np.zeros((3, 6), dtype=complex), prefix_len=2).n == 4  # one frame per row
    with pytest.raises(ContractViolation):
        SignalBlock(np.zeros(4, dtype=complex), prefix_len=4)
    with pytest.raises(ContractViolation):
        SignalBlock(np.zeros((2, 4), dtype=complex), prefix_len=4)
    with pytest.raises(ContractViolation):
        SignalBlock(np.complex128(1.0), prefix_len=0)
