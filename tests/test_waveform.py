"""Tests for constellation mapping and the scrambled transmit/receive chains."""

from __future__ import annotations

import numpy as np
import pytest

from seafdm import (
    C2Schedule,
    ContractViolation,
    FrameParams,
    bob_front_end,
    build_codebook,
    descramble,
    eve_front_end,
    map_bits,
    qpsk,
    se_afdm_modulate,
    zero_schedule,
)
from seafdm.daft import chirp_diag, idaft, remove_cpp
from seafdm.detection import demap
from seafdm.waveform import constellation_by_name, qam16


def random_bits(rng, count):
    return rng.integers(0, 2, size=count)


def modulate_double_sum(x, params, sched):
    """Literal synthesis sum including the per-subcarrier rates."""
    n = params.n
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0.0j
        for m in range(n):
            acc += x[m] * np.exp(
                2j * np.pi * (params.c1 * t * t + sched.values[m] * m * m + m * t / n)
            )
        out[t] = acc / np.sqrt(n)
    return out


def test_qpsk_labeling_and_energy():
    spec = qpsk()
    np.testing.assert_allclose(
        spec.points * np.sqrt(2.0), [1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j], atol=1e-15
    )
    np.testing.assert_allclose(np.mean(np.abs(spec.points) ** 2), 1.0, atol=1e-12)


def test_qam16_energy_and_gray_adjacency():
    spec = qam16()
    np.testing.assert_allclose(np.mean(np.abs(spec.points) ** 2), 1.0, atol=1e-12)
    # nearest geometric neighbors differ in exactly one bit
    pts = spec.points
    spacing = 2.0 / np.sqrt(10.0)
    for a in range(16):
        for b in range(a + 1, 16):
            if np.abs(pts[a] - pts[b]) < spacing * 1.01:
                assert bin(a ^ b).count("1") == 1, (a, b)


def test_qpsk_gray_adjacency():
    pts = qpsk().points
    for a in range(4):
        for b in range(a + 1, 4):
            if np.abs(pts[a] - pts[b]) < 1.5:
                assert bin(a ^ b).count("1") == 1


def test_constellation_lookup():
    assert constellation_by_name("qpsk").bits_per_symbol == 2
    assert constellation_by_name("qam16").bits_per_symbol == 4
    with pytest.raises(ContractViolation):
        constellation_by_name("qam64")


def test_map_bits_known_labels():
    spec = qpsk()
    got = map_bits([0, 0, 0, 1, 1, 0, 1, 1], spec)
    np.testing.assert_allclose(
        got * np.sqrt(2.0), [1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j], atol=1e-15
    )


def test_map_bits_all_zero_is_constant():
    spec = qpsk()
    frame = map_bits(np.zeros(32, dtype=int), spec)
    assert np.all(frame == frame[0])


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_demap_inverts_map(name):
    rng = np.random.default_rng(17)
    spec = constellation_by_name(name)
    bits = random_bits(rng, 40 * spec.bits_per_symbol)
    np.testing.assert_array_equal(demap(map_bits(bits, spec), spec), bits)


def test_map_bits_validation():
    spec = qpsk()
    with pytest.raises(ContractViolation):
        map_bits([0, 1, 1], spec)
    with pytest.raises(ContractViolation):
        map_bits([0, 2], spec)
    with pytest.raises(ContractViolation):
        map_bits(np.zeros((2, 2), dtype=int), spec)


@pytest.mark.parametrize(
    "bits",
    [
        np.array([0, 1, 1, 0]),
        np.array([1, 0, 0, 1], dtype=np.uint8),
        np.array([True, False, True, True]),
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([0.0, 0.5, 1.0, 0.0]),
        np.array([0.0, np.nan, 1.0, 0.0]),
        np.array([0.0, 1.0 + 0.0j, 1.0, 0.0]),
        np.array([0.0, 1.0j, 1.0, 0.0]),
        np.array([0, -1, 1, 0]),
        np.array([0, 2, 1, 0], dtype=np.uint8),
        np.array([], dtype=int),
        np.array(["0", "1", "1", "0"]),
    ],
    ids=[
        "int", "uint8", "bool", "float", "float-half", "float-nan", "complex", "complex-imag", "negative", "uint8-two",
        "empty", "str",
    ],
)
@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_map_bits_accepts_what_isin_accepts(bits):
    valid = bool(np.isin(bits, (0, 1)).all())
    if valid:
        np.testing.assert_array_equal(map_bits(bits, qpsk()), map_bits(bits.real.astype(int), qpsk()))
    else:
        with pytest.raises(ContractViolation, match="0 or 1"):
            map_bits(bits, qpsk())


def test_descramble_strips_the_schedule_phasors():
    sched = C2Schedule(np.array([0.3, -0.1, 0.25, 0.07]), "alice")
    got = descramble(np.ones(4), sched)
    expected = np.exp(-2j * np.pi * sched.values * np.arange(4) ** 2)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert got[0] == 1.0 + 0.0j
    np.testing.assert_allclose(np.abs(got), 1.0, atol=1e-14)


def test_descramble_inverts_known_schedule():
    rng = np.random.default_rng(23)
    n = 16
    book = build_codebook(1e-3, 4)
    values = rng.choice(book.levels, size=n)
    sched = C2Schedule(values, "eve")
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    scrambled = x * np.exp(2j * np.pi * values * np.arange(n) ** 2)
    np.testing.assert_allclose(descramble(scrambled, sched), x, atol=1e-12)


def test_modulate_matches_double_sum():
    rng = np.random.default_rng(29)
    n = 16
    params = FrameParams(n=n, ncp=3, c1=0.11)
    sched = C2Schedule(rng.uniform(-1e-2, 1e-2, size=n), "alice")
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tx = se_afdm_modulate(x, params, sched)
    assert tx.prefix_len == 3
    core = remove_cpp(tx, params)
    np.testing.assert_allclose(core, modulate_double_sum(x, params, sched), atol=1e-10)


def test_constant_schedule_equals_scalar_rate_chain():
    rng = np.random.default_rng(31)
    n = 32
    params = FrameParams(n=n, ncp=0, c1=0.07)
    c = 3.3e-4
    sched = C2Schedule(np.full(n, c), "alice")
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = remove_cpp(se_afdm_modulate(x, params, sched), params)
    np.testing.assert_allclose(got, idaft(x, params, c), atol=1e-12)


def test_impulse_frame_ignores_schedule():
    n = 16
    params = FrameParams(n=n, ncp=0, c1=0.19)
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    expected = np.exp(2j * np.pi * params.c1 * np.arange(n) ** 2) / np.sqrt(n)
    for sched in (zero_schedule(n, "alice"), C2Schedule(np.linspace(-1, 1, n), "alice")):
        got = se_afdm_modulate(x, params, sched).samples
        np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_loopback_recovers_frame(n):
    rng = np.random.default_rng(n + 1)
    params = FrameParams(n=n, ncp=n // 8, c1=5.0 / (2 * n))
    book = build_codebook(4.88e-5, 4)
    values = rng.choice(book.levels, size=n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tx = se_afdm_modulate(x, params, C2Schedule(values, "alice"))
    y = bob_front_end(tx, params, C2Schedule(values, "bob"))
    np.testing.assert_allclose(y, x, atol=1e-10)
    np.testing.assert_allclose(
        np.linalg.norm(remove_cpp(tx, params)), np.linalg.norm(x), atol=1e-12
    )


def test_owner_checks():
    n = 8
    params = FrameParams(n=n, ncp=0, c1=0.1)
    x = np.ones(n, dtype=complex)
    with pytest.raises(ContractViolation):
        se_afdm_modulate(x, params, zero_schedule(n, "bob"))
    tx = se_afdm_modulate(x, params, zero_schedule(n, "alice"))
    with pytest.raises(ContractViolation):
        bob_front_end(tx, params, zero_schedule(n, "eve"))
    with pytest.raises(ContractViolation):
        eve_front_end(tx, params, zero_schedule(n, "alice"))
    with pytest.raises(ContractViolation):
        se_afdm_modulate(x, params, zero_schedule(n + 1, "alice"))


def test_eve_front_end_same_math_as_bob():
    rng = np.random.default_rng(43)
    n = 16
    params = FrameParams(n=n, ncp=2, c1=0.21)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tx = se_afdm_modulate(x, params, zero_schedule(n, "alice"))
    values = rng.uniform(-1e-3, 1e-3, size=n)
    out_b = bob_front_end(tx, params, C2Schedule(values, "bob"))
    out_e = eve_front_end(tx, params, C2Schedule(values, "eve"))
    np.testing.assert_array_equal(out_b, out_e)


def test_unguessed_schedule_leaves_unit_phasors():
    # with a transparent channel and an all-zero guess the receiver sees
    # exactly x[q] * exp(2j*pi*c2[q]*q**2)
    rng = np.random.default_rng(47)
    n = 64
    params = FrameParams(n=n, ncp=0, c1=5.0 / (2 * n))
    book = build_codebook(1e-3, 4)
    values = rng.choice(book.levels, size=n)
    x = map_bits(random_bits(rng, 2 * n), qpsk())
    tx = se_afdm_modulate(x, params, C2Schedule(values, "alice"))
    y = eve_front_end(tx, params, zero_schedule(n, "eve"))
    expected = x * np.exp(2j * np.pi * values * np.arange(n) ** 2)
    np.testing.assert_allclose(y, expected, atol=1e-10)
    np.testing.assert_allclose(np.abs(y), np.abs(x), atol=1e-10)
    # index zero never scrambles
    np.testing.assert_allclose(y[0], x[0], atol=1e-12)


def test_front_end_noise_stays_white():
    # unitary receive rotation: empirical covariance of the rotated noise
    # within 5% of sigma2 * identity
    rng = np.random.default_rng(53)
    n, draws, sigma2 = 16, 10_000, 0.7
    params = FrameParams(n=n, ncp=0, c1=0.13)
    values = rng.uniform(-1e-2, 1e-2, size=n)
    rot = chirp_diag(values, n)[:, None] * (
        np.fft.fft(np.eye(n), axis=0, norm="ortho") * chirp_diag(params.c1, n)[None, :]
    )
    w = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))
    )
    rotated = w @ rot.T
    cov = rotated.conj().T @ rotated / draws
    assert np.max(np.abs(cov - sigma2 * np.eye(n))) < 0.05 * sigma2
