"""Tests for ExecutionPlan memoization and partition correctness."""

import pytest

from repro.runtime.partition import block_partition, partition_bounds
from repro.runtime.plan import ExecutionPlan


class TestExecutionPlan:
    def test_bounds_match_partition(self):
        plan = ExecutionPlan(3)
        assert plan.bounds(10) == tuple(
            partition_bounds(10, 3, r) for r in range(3))

    def test_bounds_tile_range(self):
        plan = ExecutionPlan(4)
        for n in (0, 1, 3, 4, 17, 100):
            flat = [i for lo, hi in plan.bounds(n) for i in range(lo, hi)]
            assert flat == list(range(n))

    def test_memoizes_per_extent(self):
        plan = ExecutionPlan(2)
        first = plan.bounds(50)
        second = plan.bounds(50)
        assert first is second
        assert plan.cache_info() == {"hits": 1, "misses": 1, "entries": 1}

    def test_distinct_extents_cached_separately(self):
        plan = ExecutionPlan(2)
        plan.bounds(10)
        plan.bounds(20)
        plan.bounds(10)
        info = plan.cache_info()
        assert info["entries"] == 2
        assert info["misses"] == 2
        assert info["hits"] == 1

    def test_bounds_for_single_rank(self):
        plan = ExecutionPlan(3)
        assert plan.bounds_for(10, 1) == partition_bounds(10, 3, 1)

    def test_ranks_pairs(self):
        plan = ExecutionPlan(3)
        assert plan.ranks == ((0, 3), (1, 3), (2, 3))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ExecutionPlan(0)

    def test_compat_reexport(self):
        # team.partition must keep working as an import path.
        from repro.team.partition import (
            block_partition as bp,
            partition_bounds as pb,
        )
        assert bp is block_partition
        assert pb is partition_bounds


class TestCrossoverRule:
    """``observe(site, limit, wall, busy)`` on hand-made times."""

    SITE = (len, 64)

    def _transported(self, plan, wall, busy):
        assert plan.inline_limit(self.SITE) is None
        plan.observe(self.SITE, None, wall, busy)

    def test_two_losses_in_a_row_send_the_site_inline(self):
        plan = ExecutionPlan(2)
        self._transported(plan, wall=100e-6, busy=40e-6)
        self._transported(plan, wall=80e-6, busy=40e-6)
        # the cheaper of the two transported walls is what inline must beat
        assert plan.inline_limit(self.SITE) == 80e-6

    def test_a_win_between_two_losses_keeps_the_site_transported(self):
        plan = ExecutionPlan(2)
        self._transported(plan, wall=100e-6, busy=40e-6)
        self._transported(plan, wall=100e-6, busy=150e-6)
        self._transported(plan, wall=100e-6, busy=40e-6)
        assert plan.inline_limit(self.SITE) is None

    def test_inline_site_stays_while_under_its_limit_then_returns(self):
        plan = ExecutionPlan(2)
        self._transported(plan, wall=100e-6, busy=40e-6)
        self._transported(plan, wall=100e-6, busy=40e-6)
        plan.observe(self.SITE, 100e-6, wall=45e-6, busy=40e-6)
        assert plan.inline_limit(self.SITE) == 100e-6
        plan.observe(self.SITE, 100e-6, wall=101e-6, busy=99e-6)
        assert plan.inline_limit(self.SITE) is None
        # back to square one: one loss is not enough again
        self._transported(plan, wall=100e-6, busy=40e-6)
        assert plan.inline_limit(self.SITE) is None

    def test_sites_are_independent(self):
        plan = ExecutionPlan(2)
        other = (len, 65)
        plan.observe(self.SITE, None, 100e-6, 40e-6)
        plan.observe(other, None, 100e-6, 40e-6)
        assert plan.inline_limit(self.SITE) is None
        assert plan.inline_limit(other) is None
