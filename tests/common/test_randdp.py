"""Tests for the NPB 46-bit LCG (repro.common.randdp).

Every case runs with warnings as errors: NumPy warns on uint64 overflow
for scalar-by-scalar arithmetic, which the one-pass multiply must never
fall into.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import randdp
from repro.common.randdp import (
    A_DEFAULT,
    BLOCK,
    R46_INV,
    Randlc,
    ipow46,
    randlc,
    vranlc,
)

pytestmark = pytest.mark.filterwarnings("error")

MOD = 1 << 46


def _reference_sequence(seed: int, n: int, a: int = A_DEFAULT) -> list[int]:
    """Big-integer reference implementation of the recurrence."""
    states = []
    x = seed
    for _ in range(n):
        x = (a * x) % MOD
        states.append(x)
    return states


class TestRandlc:
    def test_matches_big_integer_reference(self):
        states = _reference_sequence(314159265, 50)
        x = 314159265
        for expected in states:
            value, x = randlc(x)
            assert x == expected
            assert value == expected * R46_INV

    def test_known_first_value(self):
        # 5**13 * 314159265 mod 2**46, computed independently.
        expected = (1220703125 * 314159265) % MOD
        value, state = randlc(314159265)
        assert state == expected

    def test_values_in_unit_interval(self):
        x = 271828183
        for _ in range(1000):
            value, x = randlc(x)
            assert 0.0 < value < 1.0

    @given(st.integers(min_value=1, max_value=MOD - 1),
           st.integers(min_value=1, max_value=MOD - 1))
    def test_exactness_random_operands(self, seed, a):
        value, state = randlc(seed, a)
        assert state == (a * seed) % MOD


class TestVranlc:
    def test_matches_scalar_randlc(self):
        for n in (200, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
            batch, final = vranlc(n, 314159265)
            x = 314159265
            states = []
            for _ in range(n):
                _, x = randlc(x)
                states.append(x)
            assert final == x
            assert np.array_equal(batch, np.array(states) * R46_INV)
            assert states == [pow(A_DEFAULT, k, MOD) * 314159265 % MOD
                              for k in range(1, n + 1)]

    def test_empty_batch(self):
        batch, state = vranlc(0, 12345)
        assert len(batch) == 0
        assert state == 12345

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vranlc(-1, 1)

    def test_split_batches_equal_one_batch(self):
        for n, cut in ((1000, 300), (3 * BLOCK + 7, BLOCK - 1),
                       (3 * BLOCK + 7, BLOCK), (3 * BLOCK + 7, BLOCK + 1),
                       (3 * BLOCK + 7, 2 * BLOCK + 3)):
            full, state_full = vranlc(n, 271828183)
            first, mid = vranlc(cut, 271828183)
            second, state_split = vranlc(n - cut, mid)
            assert np.array_equal(full, np.concatenate([first, second]))
            assert state_full == state_split

    @given(st.integers(min_value=1, max_value=MOD - 1),
           st.integers(min_value=1, max_value=512))
    @settings(max_examples=30)
    def test_final_state_is_jump(self, seed, n):
        _, state = vranlc(n, seed)
        assert state == (pow(A_DEFAULT, n, MOD) * seed) % MOD

    @pytest.mark.parametrize("n", [1, 1000, BLOCK + 1])
    def test_non_default_multiplier(self, n):
        a = 7**15
        batch, final = vranlc(n, 271828183, a)
        x = 271828183
        for i in range(n):
            value, x = randlc(x, a)
            assert batch[i] == value
        assert final == x == pow(a, n, MOD) * 271828183 % MOD

    def test_default_table_is_the_powers_of_the_multiplier(self):
        # Rebuilt here so its construction also runs with warnings as errors.
        table = randdp._powers_of(A_DEFAULT, BLOCK)
        assert np.array_equal(table, randdp._DEFAULT_POWERS)
        for k in (1, 2, 3, BLOCK // 2, BLOCK // 2 + 1, BLOCK):
            assert int(table[k - 1]) == pow(A_DEFAULT, k, MOD)

    def test_memory_is_the_output_plus_one_block(self):
        def held_bytes():
            return sum(v.nbytes for v in vars(randdp).values()
                       if isinstance(v, np.ndarray))

        before = held_bytes()
        tracemalloc.start()
        try:
            values, _ = vranlc(4 * 2**20, 314159265)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.nbytes == 32 * 2**20
        assert peak <= values.nbytes + 8 * 2**20
        # Only the import-time table for A_DEFAULT; nothing kept per call.
        assert held_bytes() == before == 8 * BLOCK

    def test_out_receives_the_values(self):
        expected, state = vranlc(3 * BLOCK + 7, 271828183)
        out = np.full(3 * BLOCK + 7, np.nan)
        values, out_state = vranlc(3 * BLOCK + 7, 271828183, out=out)
        assert values is out
        assert out_state == state
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("length", [0, 99, 101])
    def test_out_of_another_length_rejected(self, length):
        with pytest.raises(ValueError, match="out must have shape"):
            vranlc(100, 271828183, out=np.empty(length))


class TestIpow46:
    def test_matches_pow(self):
        for exponent in (0, 1, 2, 17, 12345, 1 << 30):
            assert ipow46(A_DEFAULT, exponent) == pow(A_DEFAULT, exponent,
                                                      MOD)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ipow46(A_DEFAULT, -1)

    @given(st.integers(min_value=0, max_value=1 << 40))
    @settings(max_examples=30)
    def test_property_vs_pow(self, exponent):
        assert ipow46(A_DEFAULT, exponent) == pow(A_DEFAULT, exponent, MOD)


class TestRandlcObject:
    def test_next_and_batch_interleave(self):
        a = Randlc(314159265)
        b = Randlc(314159265)
        seq_a = [a.next() for _ in range(10)]
        seq_b = list(b.batch(10))
        assert seq_a == seq_b

    def test_skip_equals_generate(self):
        a = Randlc(271828183)
        b = Randlc(271828183)
        a.batch(1234)
        b.skip(1234)
        assert a.state == b.state

    def test_copy_is_independent(self):
        a = Randlc(99)
        clone = a.copy()
        a.next()
        assert clone.state == 99

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Randlc(-1)
        with pytest.raises(ValueError):
            Randlc(MOD)

    def test_full_period_behaviour_spot_check(self):
        # The generator has period 2**44 for odd seeds; consecutive states
        # must therefore never repeat in any practical window.
        rng = Randlc(314159265)
        states = set()
        for _ in range(10_000):
            rng.next()
            assert rng.state not in states
            states.add(rng.state)
