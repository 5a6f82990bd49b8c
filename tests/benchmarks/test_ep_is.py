"""Tests for the EP and IS kernels."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ep import EP
from repro.ep.benchmark import _batch_range, _batch_tallies
from repro.ep.params import MK
from repro.isort import IS
from repro.isort.benchmark import create_seq
from repro.isort.params import is_params
from repro.team import ProcessTeam, ThreadTeam
from repro.team.partition import partition_bounds


class TestEP:
    def test_class_s_verifies(self):
        result = EP("S").run()
        assert result.verified

    def test_batches_independent_of_partition(self):
        # Jumping the generator per batch must equal sequential tallying.
        sx_a, sy_a, counts_a = _batch_range(0, 4)
        partials = [_batch_range(k, k + 1) for k in range(4)]
        sx_b = sum(p[0] for p in partials)
        sy_b = sum(p[1] for p in partials)
        counts_b = np.sum([p[2] for p in partials], axis=0)
        assert sx_a == pytest.approx(sx_b, rel=1e-12)
        assert sy_a == pytest.approx(sy_b, rel=1e-12)
        assert np.array_equal(counts_a, counts_b)

    def test_acceptance_rate_near_pi_over_4(self):
        _, _, counts = _batch_tallies(0)
        rate = counts.sum() / (1 << MK)
        assert rate == pytest.approx(np.pi / 4, abs=0.01)

    def test_annulus_counts_decrease(self):
        # Gaussian tails: outer annuli must hold ever fewer pairs.
        _, _, counts = _batch_range(0, 8)
        nonzero = counts[counts > 0]
        assert np.all(np.diff(nonzero.astype(float)) < 0)

    def test_gaussian_moments(self):
        bench = EP("S")
        result = bench.run()
        assert result.verified
        # mean of ~2*pi/4*2^24 gaussians is ~0 within a loose bound
        n = bench.gaussian_count * 2
        assert abs(bench.sx) / n < 0.001
        assert abs(bench.sy) / n < 0.001

    def test_parallel_verifies(self):
        with ThreadTeam(3) as team:
            assert EP("S", team).run().verified


#: sha256 of ``create_seq``'s int64 keys, captured at ``64b08a3`` (the
#: last tree whose generator split each multiply into 23-bit halves).
KEYS_SHA256 = {
    "S": "4d1e671f6881bdbf62feda008998dce223e679e8a83cc32b62a057855009cfbb",
    "W": "3c44e5bf7c6acbfcaa9b7bf8b05ec2fedaa679d288ed6a688f22cac96d290c8f",
}


class TestISKeyGeneration:
    @pytest.mark.parametrize("problem_class", sorted(KEYS_SHA256))
    def test_keys_equal_the_parents(self, problem_class):
        params = is_params(problem_class)
        keys = create_seq(params.num_keys, params.max_key)
        assert keys.dtype == np.int64
        digest = hashlib.sha256(keys.tobytes()).hexdigest()
        assert digest == KEYS_SHA256[problem_class]

    def test_keys_in_range(self):
        params = is_params("S")
        keys = create_seq(params.num_keys, params.max_key)
        assert keys.min() >= 0
        assert keys.max() < params.max_key

    def test_keys_deterministic(self):
        a = create_seq(1000, 1 << 11)
        b = create_seq(1000, 1 << 11)
        assert np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_three_way_blocks_concatenate_to_the_stream(self, num_keys):
        whole = create_seq(num_keys, 1 << 11)
        blocks = [create_seq(hi - lo, 1 << 11, start=lo)
                  for lo, hi in (partition_bounds(num_keys, 3, rank)
                                 for rank in range(3))]
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_key_distribution_is_centered(self):
        # Sum of four uniforms -> mean 2, so keys center near max_key/2.
        params = is_params("S")
        keys = create_seq(params.num_keys, params.max_key)
        assert abs(keys.mean() / params.max_key - 0.5) < 0.01


class TestIS:
    def test_class_s_verifies(self):
        result = IS("S").run()
        assert result.verified

    def test_all_partial_checks_pass(self):
        bench = IS("S")
        bench.run()
        # 5 spot checks x 10 iterations + 1 full verification
        assert bench.passed_verification == 51

    def test_full_verify_detects_corruption(self):
        bench = IS("S")
        bench.setup()
        bench._iterate()
        assert bench.full_verify()
        bench._cumulative[100] = bench._cumulative[99] - 1  # corrupt
        assert not bench.full_verify()

    def test_process_backend_verifies(self):
        with ProcessTeam(2) as team:
            assert IS("S", team).run().verified
