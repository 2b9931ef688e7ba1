from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from incidencelab.rng import (
    default_selection_probability,
    integer_root,
    mix64,
    selection_threshold,
    splitmix64,
    splitmix64_block,
    substream,
)


class TestSplitMix:
    def test_block_matches_scalar(self):
        seed = 0xDEADBEEF
        block = splitmix64_block(seed, 5, 100)
        for off, value in enumerate(block):
            assert int(value) == splitmix64(seed, 5 + off)

    @pytest.mark.parametrize("start,count", [(0, 8192 * 2 + 17), (3, 100), (0, 0)])
    def test_block_of_several_seeds_matches_scalar(self, start, count):
        # counts off the selection block (8,192), below it, and empty;
        # a negative seed is taken mod 2**64
        seeds = [0, 2**64 - 1, -12345, 0xDEADBEEF]
        block = splitmix64_block(seeds, start, count)
        assert block.shape == (len(seeds), count) and block.dtype == np.uint64
        for seed, row in zip(seeds, block):
            assert np.array_equal(row, splitmix64_block(seed, start, count))
            assert [int(u) for u in row] == [splitmix64(seed, start + i) for i in range(count)]

    def test_block_into_a_reused_buffer_matches_fresh_calls(self):
        # one buffer through start 0, the next selection chunk and a short
        # tail, for one seed and for a sequence of seeds
        seeds = [0, 2**64 - 1, -12345, 0xDEADBEEF]
        rows = np.empty((len(seeds), 8192), dtype=np.uint64)
        row = np.empty(8192, dtype=np.uint64)
        for start, count in ((0, 8192), (8192, 8192), (16384, 17), (0, 8192)):
            block = splitmix64_block(seeds, start, count, out=rows[:, :count])
            assert np.shares_memory(block, rows)
            assert np.array_equal(block, splitmix64_block(seeds, start, count))
            single = splitmix64_block(seeds[1], start, count, out=row[:count])
            assert np.shares_memory(single, row)
            assert np.array_equal(single, splitmix64_block(seeds[1], start, count))
            assert [int(u) for u in single[:3]] == [splitmix64(seeds[1], start + i) for i in range(3)]

    def test_known_reference_values(self):
        # Pinned outputs: portability contract across platforms/releases.
        assert splitmix64(0, 0) == mix64(0x9E3779B97F4A7C15)
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
        assert splitmix64(42, 0) == 0xBDD732262FEB6E95

    def test_substream_independence(self):
        seed = 7
        assert substream(seed, 1) != substream(seed, 2)
        assert splitmix64(substream(seed, 1), 0) != splitmix64(substream(seed, 2), 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            splitmix64(1, -1)


class TestIntegerRoot:
    @given(st.integers(0, 10**24), st.integers(1, 7))
    def test_floor_property(self, x, m):
        r = integer_root(x, m)
        assert r**m <= x
        assert (r + 1) ** m > x

    def test_exact(self):
        assert integer_root(3**30, 5) == 3**6


class TestSelection:
    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**9))
    def test_threshold_exact(self, p):
        t = selection_threshold(p)
        # boundary draws on both sides of the cut
        for u in (0, t - 1, t, t + 1, (1 << 64) - 1):
            if 0 <= u < (1 << 64):
                assert (u < t) == (Fraction(u, 1 << 64) < p)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            selection_threshold(Fraction(3, 2))

    @given(st.integers(3, 6), st.integers(2, 4096))
    def test_default_probability_bracket(self, k, n):
        p = default_selection_probability(k, n)
        m = 2 * k - 1
        assert 0 < p <= 1
        # p is the largest multiple of 2^-64 with (p/2)^m <= 1/n^2 (before capping)
        t = p.numerator * (1 << 64) // p.denominator
        if p < 1:
            assert t**m * n**2 <= 1 << (65 * m)
            assert (t + 1) ** m * n**2 > 1 << (65 * m)

    def test_cap_at_one(self):
        assert default_selection_probability(3, 2) == 1


class TestVectorizedSelection:
    def test_mask_matches_scalar_comparison(self):
        seed, count = 99, 1000
        p = Fraction(1, 3)
        t = selection_threshold(p)
        block = splitmix64_block(seed, 0, count)
        mask = block < np.uint64(t)
        for i in range(count):
            u = splitmix64(seed, i)
            assert bool(mask[i]) == (Fraction(u, 1 << 64) < p)
