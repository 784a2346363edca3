"""Tests for the LFSR keystream, codebook, and schedule generation."""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seafdm import (
    DEFAULT_TAPS,
    C2Schedule,
    ContractViolation,
    ExperimentConfig,
    Lfsr,
    build_codebook,
    generate_schedule,
    zero_schedule,
)
from seafdm.channel import EffectiveChannel
from seafdm.daft import LevelRates, SignalBlock
from seafdm.harness import search_space_summary
from seafdm import keystream
from seafdm.keystream import keystream_bits, schedule_levels
from seafdm.waveform import qpsk

from oracles import lfsr_step


def test_degree_three_m_sequence():
    # x^3 + x + 1 from state 001: hand-iterated output is 1001011, period 7
    reg = Lfsr((3, 1, 0), 1)
    bits = reg.next_bits(14)
    np.testing.assert_array_equal(bits[:7], [1, 0, 0, 1, 0, 1, 1])
    np.testing.assert_array_equal(bits[:7], bits[7:])
    assert reg.state == 1


@pytest.mark.parametrize("taps", [(3, 1, 0), (4, 1, 0), (5, 2, 0)])
def test_primitive_polynomial_period(taps):
    degree = taps[0]
    reg = Lfsr(taps, 1)
    seen = set()
    for _ in range(1 << degree):
        if reg.state in seen:
            break
        seen.add(reg.state)
        lfsr_step(reg)
    assert len(seen) == (1 << degree) - 1


def test_lfsr_rejects_degenerate_inputs():
    with pytest.raises(ContractViolation):
        Lfsr((3, 1, 0), 0)
    with pytest.raises(ContractViolation):
        Lfsr((3, 1, 0), 8)
    with pytest.raises(ContractViolation):
        Lfsr((3,), 1)
    with pytest.raises(ContractViolation):
        Lfsr((1, 0), 1)
    with pytest.raises(ContractViolation):
        Lfsr((70, 1, 0), 1)


def test_each_tap_list_is_checked_once():
    first = Lfsr((7, 3, 0), 5)
    assert Lfsr([7, 3, 0], 9).taps is first.taps == (7, 3, 0)
    assert Lfsr(np.array([7, 3, 0]), 9).taps is first.taps
    # a rejected tap list is rejected every time
    for _ in range(2):
        with pytest.raises(ContractViolation):
            Lfsr((7, 3), 1)


def stepped(reg, count):
    """The one-bit definition, kept as the reference for the word-parallel stream."""
    return np.array([lfsr_step(reg) for _ in range(count)], dtype=np.uint8)


# x^64 + x^4 + x^3 + x + 1 is primitive; its one-bit-per-round block is the slowest case
TAP_SETS = [DEFAULT_TAPS, (3, 1, 0), (4, 1, 0), (5, 2, 0), (64, 4, 3, 1, 0), (64, 63, 61, 60, 0)]


@settings(max_examples=60, deadline=None, database=None)
@given(
    taps=st.sampled_from(TAP_SETS),
    seed=st.integers(1, 2**64 - 1),
    counts=st.lists(st.integers(0, 20_000), min_size=1, max_size=3),
)
def test_next_bits_equals_stepping_the_register(taps, seed, counts):
    seed = seed % ((1 << taps[0]) - 1) + 1
    fast, ref, whole = Lfsr(taps, seed), Lfsr(taps, seed), Lfsr(taps, seed)
    pieces = []
    for count in counts:
        got = fast.next_bits(count)
        assert got.dtype == np.uint8 and got.shape == (count,)
        np.testing.assert_array_equal(got, stepped(ref, count))
        assert fast.state == ref.state
        pieces.append(got)
    np.testing.assert_array_equal(np.concatenate(pieces), whole.next_bits(sum(counts)))
    assert whole.state == fast.state


@pytest.mark.parametrize("taps", TAP_SETS)
def test_next_bits_short_counts_match_stepping(taps):
    # every count around the register degree, where the first rounds are one tap wide
    for count in range(0, 2 * taps[0] + 3):
        fast, ref = Lfsr(taps, 5), Lfsr(taps, 5)
        np.testing.assert_array_equal(fast.next_bits(count), stepped(ref, count))
        assert fast.state == ref.state


@settings(max_examples=40, deadline=None, database=None)
@given(
    taps=st.sampled_from(TAP_SETS),
    seeds=st.lists(st.integers(1, 2**64 - 1), min_size=1, max_size=4),
    count=st.integers(0, 20_000),
)
@example(taps=DEFAULT_TAPS, seeds=[1], count=0)
@example(taps=(64, 63, 61, 60, 0), seeds=[2**64 - 1, 1, 2**63], count=129)
def test_keystream_bits_of_stacked_states_equal_stepping_each_register(taps, seeds, count):
    states = [seed % ((1 << taps[0]) - 1) + 1 for seed in seeds]
    stack = np.array(states, dtype=np.uint64)
    got = keystream_bits(stack, taps, count)
    assert got.dtype == np.uint8 and got.shape == (len(states), count)
    for state, row in zip(states, got):
        np.testing.assert_array_equal(row, stepped(Lfsr(taps, state), count))
    # any leading shape, a lone state included
    np.testing.assert_array_equal(keystream_bits(stack[:, None], taps, count)[:, 0], got)
    np.testing.assert_array_equal(keystream_bits(states[0], taps, count), got[0])


@pytest.mark.parametrize("taps", TAP_SETS)
def test_split_next_bits_equal_one_call(taps):
    total = 3 * taps[0] + 5
    whole = Lfsr(taps, 5)
    bits = whole.next_bits(total)
    for first in range(total + 1):
        reg = Lfsr(taps, 5)
        head = reg.next_bits(first)
        np.testing.assert_array_equal(np.concatenate((head, reg.next_bits(total - first))), bits)
        assert reg.state == whole.state


def test_output_masks_are_one_read_only_table_per_taps_and_count():
    taps = keystream.tap_polynomial((5, 2, 0))
    masks = keystream._output_masks(taps, 5_000)
    assert masks.dtype == np.uint64 and masks.shape == (5_000,) and not masks.flags.writeable
    with pytest.raises(ValueError):
        masks[0] = 0
    # the state bits, then the output recurrence m[k + 5] = m[k + 2] ^ m[k]
    np.testing.assert_array_equal(masks[:5], 1 << np.arange(5))
    np.testing.assert_array_equal(masks[5:], masks[2:-3] ^ masks[:-5])
    # one table per (taps, count), however the taps are written
    assert keystream._output_masks(keystream.tap_polynomial((0, 2, 5)), 5_000) is masks
    # a mask does not depend on the count
    for count in (0, 1, 7, 4_999):
        np.testing.assert_array_equal(keystream._output_masks(taps, count), masks[:count])
    assert not np.shares_memory(masks, keystream._output_masks(keystream.tap_polynomial((4, 1, 0)), 5_000))


def test_first_concurrent_build_of_a_mask_table():
    # a tap set and count no other test asks for, so the four threads all miss the cache
    taps, count, seeds = (7, 1, 0), 3_001, (1, 5, 77, 127)
    start = threading.Barrier(len(seeds), timeout=30)

    def draw(seed):
        start.wait()
        return keystream_bits(seed, taps, count)

    with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
        rows = list(pool.map(draw, seeds))
    for seed, row in zip(seeds, rows):
        np.testing.assert_array_equal(row, stepped(Lfsr(taps, seed), count))
    assert not keystream._output_masks(keystream.tap_polynomial(taps), count).flags.writeable


def test_default_stream_golden_digest():
    # sha256 of np.packbits over the first 65,536 bits of Lfsr(seed=1), taken
    # from the bit-serial register before next_bits became word-parallel
    reg = Lfsr(seed=1)
    bits = reg.next_bits(65_536)
    digest = hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()
    assert digest == "fd324cf23d746140422ab718d8146ecca4823b7e13d2c1aa252f5f32b7b3b6e1"
    assert reg.state == 2638543288


def test_negative_bit_count_is_rejected():
    reg = Lfsr(seed=3)
    with pytest.raises(ContractViolation):
        reg.next_bits(-1)
    assert reg.state == 3
    with pytest.raises(ContractViolation):
        keystream_bits([3], DEFAULT_TAPS, -1)


def test_same_seed_same_stream():
    a = Lfsr(seed=12345)
    b = Lfsr(seed=12345)
    np.testing.assert_array_equal(a.next_bits(256), b.next_bits(256))


def test_default_register_is_balanced():
    bits = Lfsr(seed=99).next_bits(4096)
    assert abs(bits.mean() - 0.5) < 0.05


def test_codebook_levels_shape():
    book = build_codebook(4.88e-5, 4)
    np.testing.assert_allclose(
        book.levels,
        [-4.88e-5, -1.6266667e-5, 1.6266667e-5, 4.88e-5],
        rtol=1e-6,
    )
    assert book.bits_per_subcarrier == 2
    np.testing.assert_allclose(book.levels + book.levels[::-1], 0.0, atol=1e-20)


def test_codebook_two_levels_are_endpoints():
    book = build_codebook(0.25, 2)
    np.testing.assert_array_equal(book.levels, [-0.25, 0.25])


def test_codebook_zero_bound_degenerates():
    book = build_codebook(0.0, 8)
    np.testing.assert_array_equal(book.levels, np.zeros(8))


def test_codebook_levels_are_read_only():
    levels = ExperimentConfig().codebook.levels
    with pytest.raises(ValueError):
        levels[0] = 0.0
    with pytest.raises(ValueError):
        levels *= 2.0
    assert not build_codebook(0.0, 8).levels.flags.writeable


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_codebook(1e-3, 4),
        lambda: C2Schedule(np.zeros(4), "alice"),
        qpsk,
        lambda: SignalBlock(np.zeros(4), 1),
        lambda: EffectiveChannel(np.eye(2)),
    ],
    ids=["Codebook", "C2Schedule", "Constellation", "SignalBlock", "EffectiveChannel"],
)
def test_array_holding_dataclasses_compare_by_identity(make):
    # a generated __eq__ would compare the arrays, whose truth value raises,
    # and the generated __hash__ would hash them
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_codebook_validation():
    with pytest.raises(ContractViolation):
        build_codebook(1e-3, 3)
    with pytest.raises(ContractViolation):
        build_codebook(1e-3, 1)
    with pytest.raises(ContractViolation):
        build_codebook(-1e-3, 4)
    for c2max in (1.0 + 2**-52, 1e308, float("nan")):  # a chirp rate acts modulo 1
        with pytest.raises(ContractViolation, match="c2max"):
            build_codebook(c2max, 4)
    assert build_codebook(1.0, 4).levels[-1] == 1.0


def test_schedule_consumes_exact_bit_budget():
    book = build_codebook(1e-4, 8)
    reg = Lfsr(seed=7)
    generate_schedule(reg, book, 50, "alice")
    ref = Lfsr(seed=7)
    ref.next_bits(50 * 3)
    assert reg.state == ref.state
    ref.next_bits(1)
    assert reg.state != ref.state


def test_schedule_values_are_codebook_members():
    book = build_codebook(3.3e-5, 4)
    sched = generate_schedule(Lfsr(seed=31), book, 200, "alice")
    assert np.isin(sched.values, book.levels).all()


def test_schedule_bit_to_level_mapping_msb_first():
    # first eight keystream bits of the degree-3 register are 1,0,0,1,0,1,1,1
    # -> two-bit indices 2, 1, 1, 3
    book = build_codebook(1.0, 4)
    sched = generate_schedule(Lfsr((3, 1, 0), 1), book, 4, "alice")
    np.testing.assert_array_equal(sched.values, book.levels[[2, 1, 1, 3]])


def test_stacked_schedule_rates_equal_each_frame_alone():
    for m in (2, 4, 16):
        book = build_codebook(1e-4, m)
        frames = [Lfsr(seed=seed).next_bits(24 * book.bits_per_subcarrier) for seed in (3, 5, 9)]
        rates = book.levels[schedule_levels(np.array(frames), book)]
        assert rates.shape == (3, 24)
        for seed, row in zip((3, 5, 9), rates):
            assert row.tobytes() == generate_schedule(Lfsr(seed=seed), book, 24, "alice").values.tobytes()
        stack = C2Schedule(rates, "alice")
        assert len(stack) == 24 and stack.values.shape == (3, 24)
    with pytest.raises(ContractViolation, match="4-bit levels"):
        schedule_levels(np.zeros(6, dtype=np.uint8), build_codebook(1e-4, 16))
    with pytest.raises(ContractViolation):
        C2Schedule(np.zeros((2, 3, 4)), "alice")


def test_level_indices_pick_the_rates_and_a_schedule_keeps_them():
    book = build_codebook(1e-4, 8)
    frames = np.array([Lfsr(seed=seed).next_bits(24 * 3) for seed in (3, 5)])
    index = schedule_levels(frames, book)
    assert index.shape == (2, 24) and index.dtype == np.int64
    assert index.min() >= 0 and index.max() < 8
    rates = book.levels[index]
    coded = C2Schedule(LevelRates(book.levels, index), "alice")
    assert coded.values.tobytes() == rates.tobytes() and len(coded) == 24
    assert coded.chirp_rates.index is index and coded.chirp_rates.levels is book.levels
    plain = C2Schedule(rates, "alice")
    assert plain.chirp_rates is plain.values
    # a generated schedule keeps its register's level indices
    sched = generate_schedule(Lfsr(seed=5), book, 24, "alice")
    assert sched.chirp_rates.levels is book.levels
    np.testing.assert_array_equal(sched.chirp_rates.index, index[1])
    assert sched.values.tobytes() == rates[1].tobytes()
    with pytest.raises(ContractViolation):
        C2Schedule(LevelRates(np.array([0.0, np.nan]), index % 2), "alice")


def test_two_level_schedule_is_sign_stream():
    book = build_codebook(5e-5, 2)
    sched = generate_schedule(Lfsr(seed=11), book, 64, "alice")
    assert set(np.abs(sched.values)) == {5e-5}


def test_synchronized_registers_agree():
    book = build_codebook(4.88e-5, 4)
    alice = generate_schedule(Lfsr(seed=404), book, 64, "alice")
    bob = generate_schedule(Lfsr(seed=404), book, 64, "bob")
    np.testing.assert_array_equal(alice.values, bob.values)


def test_level_frequencies_are_uniform():
    # multinomial check: each of the m cells within 3 sigma of the mean
    m, draws = 4, 100_000
    book = build_codebook(1e-4, m)
    sched = generate_schedule(Lfsr(seed=2024), book, draws, "alice")
    counts = np.array([(sched.values == lv).sum() for lv in book.levels])
    expected = draws / m
    sigma = np.sqrt(draws * (1 / m) * (1 - 1 / m))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_bias_between_anti_aligned_two_level():
    c2max = 4.88e-5
    book = build_codebook(c2max, 2)
    plus = C2Schedule(np.full(16, book.levels[1]), "alice")
    minus = C2Schedule(np.full(16, book.levels[0]), "eve")
    np.testing.assert_allclose(np.max(np.abs(plus.values - minus.values)), 9.76e-5)


def test_search_space_sizes():
    # n * log2(m) schedule bits per frame, for the two codebooks of the paper
    assert search_space_summary(ExperimentConfig(n=64, m=2, c2max=1e-4))["search_space_bits"] == 64
    assert search_space_summary(ExperimentConfig(n=1024, m=4, c2max=4.88e-5))["search_space_bits"] == 2048


def test_schedule_owner_validation():
    with pytest.raises(ContractViolation):
        zero_schedule(4, "mallory")
    with pytest.raises(ContractViolation, match="length must be positive"):
        generate_schedule(Lfsr(), build_codebook(1e-3, 4), 0, "alice")
    with pytest.raises(ContractViolation):
        C2Schedule(np.array([np.nan]), "alice")
