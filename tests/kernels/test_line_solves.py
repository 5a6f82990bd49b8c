"""SP's one elimination, BT's assembled blocks and EP's gathered batch
against the forms they replaced, to the bit.

Each production form carries the same elementwise operations as its
``kernel_oracle.py`` reference in the same order; only the number of
NumPy calls differs.  The line solves are driven through the slab
functions SP and BT dispatch, so the x-, y- and z-shaped strided
views of ``rhs`` are all under test: the reference runs the slab
function serially over every plane with its sweep swapped for the
oracle's, the production form runs on a three-thread team, whose slabs
are uneven for most extents.
"""

import kernel_oracle as oracle
import numpy as np
import pytest

from repro.bt import solve as bt_solve
from repro.cfd.constants import CFDConstants
from repro.ep.benchmark import _batch_range, _batch_tallies
from repro.sp import solve as sp_solve

EXTENTS = list(range(5, 14))
DIRECTIONS = ["x", "y", "z"]


def _assert_same_bits(got, want):
    assert got.tobytes() == want.tobytes()


def _sp_fields(n: int):
    rng = np.random.default_rng(1000 + n)
    shape = (n, n, n)
    rhs = rng.standard_normal(shape + (5,))
    rho_i = 0.5 + rng.random(shape)
    vel = rng.standard_normal(shape)
    speed = 0.5 + rng.random(shape)
    return rhs, rho_i, vel, speed


def _bt_fields(n: int):
    rng = np.random.default_rng(2000 + n)
    shape = (n, n, n)
    rhs = rng.standard_normal(shape + (5,))
    u = rng.random(shape + (5,)) * 0.1
    u[..., 0] += 1.0
    qs = rng.random(shape)
    square = rng.random(shape)
    return rhs, u, qs, square


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("n", EXTENTS)
def test_sp_sweep_matches_three_factor_reference(n, direction, thread_team,
                                                 monkeypatch):
    c = CFDConstants(n, n, n, 0.015)
    slab = getattr(sp_solve, f"{direction}_solve_slab")
    rhs, rho_i, vel, speed = _sp_fields(n)
    expected = rhs.copy()
    with monkeypatch.context() as patch:
        patch.setattr(sp_solve, "_sweep", oracle._sweep_reference)
        slab(0, n - 2, expected, rho_i, vel, speed, c)
    thread_team.parallel_for(n - 2, slab, rhs, rho_i, vel, speed, c)
    assert not np.array_equal(rhs, _sp_fields(n)[0])
    _assert_same_bits(rhs, expected)


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("n", EXTENTS)
def test_bt_block_sweep_matches_in_loop_assembly(n, direction, thread_team,
                                                 monkeypatch):
    c = CFDConstants(n, n, n, 0.01)
    slab = getattr(bt_solve, f"{direction}_solve_slab")
    rhs, u, qs, square = _bt_fields(n)
    expected = rhs.copy()
    with monkeypatch.context() as patch:
        patch.setattr(bt_solve, "_block_sweep",
                      oracle._block_sweep_reference)
        slab(0, n - 2, expected, u, qs, square, c)
    thread_team.parallel_for(n - 2, slab, rhs, u, qs, square, c)
    assert not np.array_equal(rhs, _bt_fields(n)[0])
    _assert_same_bits(rhs, expected)


@pytest.mark.parametrize("batch", [0, 1, 255, 511])
def test_ep_batch_matches_boolean_mask_reference(batch):
    sx, sy, counts = _batch_tallies(batch)
    rsx, rsy, rcounts = oracle._batch_tallies_reference(batch)
    assert (sx.hex(), sy.hex()) == (rsx.hex(), rsy.hex())
    assert np.array_equal(counts, rcounts)


def test_ep_reused_buffers_match_fresh_batches():
    """A task tallies batch after batch in one set of buffers; what a
    batch leaves there must not reach the next."""
    sx, sy, counts = _batch_range(254, 258)
    rsx = rsy = 0.0
    rcounts = np.zeros_like(counts)
    for k in range(254, 258):
        bsx, bsy, bcounts = oracle._batch_tallies_reference(k)
        rsx += bsx
        rsy += bsy
        rcounts += bcounts
    assert (sx.hex(), sy.hex()) == (rsx.hex(), rsy.hex())
    assert np.array_equal(counts, rcounts)
