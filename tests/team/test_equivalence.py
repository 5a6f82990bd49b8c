"""Property-style cross-backend equivalence: every backend, same bits.

The related work's lesson (automatically vs manually parallelized NPB)
is that a parallel variant is only as trustworthy as the harness that
checks it against the serial reference.  This suite draws randomized
``(extent, worker count)`` cases from a fixed seed and asserts, for both
parallel backends, that

* the slab partition is exactly the serial reference partition
  (contiguous, disjoint, covering, in rank order), and
* array results and rank-ordered reduction partials are *bit-identical*
  to inline serial execution -- not approximately equal.

Element-wise slab tasks make bit-identity a fair demand: each element's
value depends only on its own index, so the backend can only get it
exactly right or visibly wrong.

Every site is dispatched :data:`ROUNDS` times: the first two cross to the
workers, and these thin sites then run inline on the master (see
``test_inline_crossover.py``), so each case covers both paths of the
dispatch core.
"""

import random

import numpy as np
import pytest

from repro.team import make_team
from repro.team.partition import partition_bounds

#: Fixed-seed random cases: (extent, workers).  Extents deliberately
#: include n < workers (idle ranks), n == workers, primes, and
#: non-divisible splits.
_rng = random.Random(20260805)
CASES = sorted({(_rng.randint(1, 197), _rng.choice([1, 2, 3, 4, 5, 8]))
                for _ in range(12)})

PARALLEL_BACKENDS = ["threads", "process"]

#: Dispatches per site: two transported, then the inline path.
ROUNDS = 5


# Module-level tasks (picklable for the process backend).

def scaled_fill(lo, hi, out, scale):
    """Element-wise fill with irrational-ish values: out[i] = f(i)."""
    i = np.arange(lo, hi, dtype=np.float64)
    out[lo:hi] = np.sqrt(i + 1.0) * scale + np.sin(i)


def slab_checksum(lo, hi, values):
    """Per-slab partial for a reduction (returned, not written)."""
    return float(np.sum(values[lo:hi] * 1.000000119))


def slab_bounds(lo, hi):
    return (lo, hi)


def reference_fill(n, scale):
    """The serial reference, computed inline with the same element math."""
    out = np.zeros(n, dtype=np.float64)
    scaled_fill(0, n, out, scale)
    return out


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
@pytest.mark.parametrize("n,workers", CASES,
                         ids=[f"n{n}w{w}" for n, w in CASES])
class TestCrossBackendEquivalence:
    def test_partition_matches_serial_reference(self, backend, n, workers):
        with make_team(backend, workers) as team:
            bounds = team.plan.bounds(n)
            reported = team.parallel_for(n, slab_bounds)
        expected = tuple(partition_bounds(n, workers, rank)
                         for rank in range(workers))
        assert bounds == expected
        assert tuple(reported) == expected
        # contiguous, disjoint, covering, rank-ordered
        cursor = 0
        for lo, hi in bounds:
            assert lo == cursor
            assert hi >= lo
            cursor = hi
        assert cursor == n

    def test_array_results_bit_identical_to_serial(self, backend, n, workers):
        scale = 1.0 + n / 1000.0
        expected = reference_fill(n, scale)
        with make_team(backend, workers) as team:
            out = team.shared(n)
            for _ in range(ROUNDS):
                out[:] = 0.0
                team.parallel_for(n, scaled_fill, out, scale)
                assert out.tobytes() == expected.tobytes()

    def test_reduction_partials_bit_identical_to_serial(self, backend, n,
                                                        workers):
        scale = 2.0 + workers / 10.0
        values = reference_fill(n, scale)
        expected_partials = [slab_checksum(lo, hi, values)
                             for lo, hi in
                             (partition_bounds(n, workers, rank)
                              for rank in range(workers))]
        with make_team(backend, workers) as team:
            shared_values = team.shared(n)
            shared_values[:] = values
            for _ in range(ROUNDS):
                partials = team.parallel_for(n, slab_checksum, shared_values)
                assert partials == expected_partials  # bit-identical floats
                # ...and the master-side combination is the same sum in
                # the same rank order, hence also bit-identical
                assert (team.reduce_sum(n, slab_checksum, shared_values)
                        == float(sum(expected_partials)))


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_repeated_dispatches_stay_deterministic(backend):
    """Same dispatch, ten times: identical bytes every time (no rank
    scrambling, no stale-reply contamination), whether the slabs crossed
    to the workers or ran on the master -- and the ten took both paths."""
    n, workers = 173, 4
    expected = reference_fill(n, 3.5)
    with make_team(backend, workers) as team:
        out = team.shared(n)
        for _ in range(10):
            out[:] = 0.0
            team.parallel_for(n, scaled_fill, out, 3.5)
            assert out.tobytes() == expected.tobytes()
        stats = team.recorder.stats(team.recorder.current_region)
        assert 0 < stats.inline_calls < stats.calls == 10
