"""Tests for MG operators and the MG benchmark."""

import numpy as np
import pytest

from repro.mg import MG
from repro.mg.operators import comm3, interp, norm2u3, psinv, resid, rprj3
from repro.mg.params import A_COEFFS, MG_SEED, smoother_coeffs
from repro.mg.zran3 import charge_positions, zran3
from repro.team import SerialTeam, ThreadTeam
from repro.common.params import ProblemClass


@pytest.fixture
def team():
    return SerialTeam()


def _naive_resid(u, v, a):
    """27-point residual by brute-force loops (reference)."""
    n = u.shape[0]
    out = v.copy()
    for i3 in range(1, n - 1):
        for i2 in range(1, n - 1):
            for i1 in range(1, n - 1):
                sums = [0.0, 0.0, 0.0, 0.0]
                for o3 in (-1, 0, 1):
                    for o2 in (-1, 0, 1):
                        for o1 in (-1, 0, 1):
                            order = abs(o1) + abs(o2) + abs(o3)
                            sums[order] += u[i3 + o3, i2 + o2, i1 + o1]
                out[i3, i2, i1] = (v[i3, i2, i1] - a[0] * sums[0]
                                   - a[1] * sums[1] - a[2] * sums[2]
                                   - a[3] * sums[3])
    comm3(out)
    return out


class TestOperators:
    def test_resid_matches_naive(self, team):
        rng = np.random.default_rng(0)
        u = rng.random((8, 8, 8))
        v = rng.random((8, 8, 8))
        r = np.zeros((8, 8, 8))
        resid(team, u, v, r, A_COEFFS)
        expected = _naive_resid(u, v, A_COEFFS)
        assert np.abs(r[1:-1, 1:-1, 1:-1]
                      - expected[1:-1, 1:-1, 1:-1]).max() < 1e-14

    def test_resid_in_place_v_equals_r(self, team):
        rng = np.random.default_rng(1)
        u = rng.random((8, 8, 8))
        v = rng.random((8, 8, 8))
        r1 = np.zeros_like(v)
        resid(team, u, v, r1, A_COEFFS)
        r2 = v.copy()
        resid(team, u, r2, r2, A_COEFFS)  # in-place, as in mg3P
        assert np.array_equal(r1, r2)

    def test_resid_annihilates_constants(self, team):
        # The stencil has zero row sum: A(const) = 0, so r = v.
        u = np.full((10, 10, 10), 3.7)
        v = np.random.default_rng(2).random((10, 10, 10))
        r = np.zeros_like(v)
        resid(team, u, v, r, A_COEFFS)
        assert np.abs(r[1:-1, 1:-1, 1:-1]
                      - v[1:-1, 1:-1, 1:-1]).max() < 1e-13

    def test_rprj3_full_weighting_of_constant(self, team):
        # Full weighting with weight sum 4 maps a constant field to 4x
        # the constant (the h -> 2h rescaling of the unscaled operator).
        fine = np.ones((10, 10, 10))
        coarse = np.zeros((6, 6, 6))
        rprj3(team, fine, coarse)
        assert np.abs(coarse[1:-1, 1:-1, 1:-1] - 4.0).max() < 1e-14

    def test_interp_exact_on_coincident_points(self, team):
        rng = np.random.default_rng(3)
        z = rng.random((6, 6, 6))
        u = np.zeros((10, 10, 10))
        interp(team, z, u)
        # Even fine points coincide with coarse points.
        assert np.abs(u[0:9:2, 0:9:2, 0:9:2] - z[:-1, :-1, :-1]).max() == 0

    def test_interp_midpoints_average(self, team):
        z = np.zeros((6, 6, 6))
        z[2, 2, 2] = 1.0
        z[2, 2, 3] = 3.0
        u = np.zeros((10, 10, 10))
        interp(team, z, u)
        assert u[4, 4, 5] == pytest.approx(2.0)  # midpoint in i1

    def test_comm3_periodicity(self):
        rng = np.random.default_rng(4)
        x = rng.random((7, 7, 7))
        comm3(x)
        assert np.array_equal(x[0, 1:-1, 1:-1], x[-2, 1:-1, 1:-1])
        assert np.array_equal(x[-1], x[1])
        assert np.array_equal(x[:, 0, :], x[:, -2, :])
        assert np.array_equal(x[:, :, -1], x[:, :, 1])

    def test_norm2u3(self, team):
        x = np.zeros((6, 6, 6))
        x[1:-1, 1:-1, 1:-1] = 2.0
        rnm2, rnmu = norm2u3(team, x, 4, 4, 4)
        assert rnm2 == pytest.approx(2.0)
        assert rnmu == pytest.approx(2.0)

    def test_psinv_slab_invariance(self):
        rng = np.random.default_rng(5)
        r = rng.random((10, 10, 10))
        u1 = rng.random((10, 10, 10))
        u2 = u1.copy()
        c = smoother_coeffs(ProblemClass.S)
        psinv(SerialTeam(), r, u1, c)
        with ThreadTeam(3) as tt:
            psinv(tt, r, u2, c)
        assert np.array_equal(u1, u2)


class TestZran3:
    def test_class_s_positions_equal_the_parents(self):
        # Captured at 64b08a3, the last tree whose generator split each
        # multiply into 23-bit halves; (i3, i2, i1) interior indices.
        plus, minus = charge_positions(32, MG_SEED)
        assert plus.tolist() == [
            [20, 1, 7], [31, 29, 19], [3, 0, 2], [3, 22, 4], [21, 16, 1],
            [6, 31, 21], [12, 15, 12], [25, 4, 30], [28, 0, 28],
            [17, 26, 17]]
        assert minus.tolist() == [
            [2, 11, 0], [17, 8, 13], [0, 14, 5], [15, 28, 4], [1, 2, 12],
            [8, 17, 5], [11, 19, 20], [31, 15, 26], [22, 25, 8],
            [26, 14, 7]]

    def test_twenty_charges(self):
        z = np.zeros((10, 10, 10))
        zran3(z, 8, 314159265)
        interior = z[1:-1, 1:-1, 1:-1]
        assert (interior == 1.0).sum() == 10
        assert (interior == -1.0).sum() == 10
        assert ((interior != 0).sum()) == 20

    def test_positions_reused(self):
        positions = charge_positions(8, 314159265)
        z1 = np.zeros((10, 10, 10))
        z2 = np.zeros((10, 10, 10))
        zran3(z1, 8, 314159265)
        zran3(z2, 8, 314159265, positions)
        assert np.array_equal(z1, z2)

    def test_plus_and_minus_disjoint(self):
        plus, minus = charge_positions(16, 314159265)
        plus_set = {tuple(p) for p in plus}
        minus_set = {tuple(p) for p in minus}
        assert not plus_set & minus_set


class TestMGBenchmark:
    def test_class_s_verifies(self):
        result = MG("S").run()
        assert result.verified
        assert result.verification.checks[0][3] < 1e-10

    def test_residual_decreases_per_cycle(self):
        bench = MG("S")
        bench.setup()
        lt = bench.params.lt
        nx = bench.params.nx
        resid(bench.team, bench.u[lt], bench.v, bench.r[lt], bench.a)
        norms = []
        for _ in range(3):
            bench._mg3p()
            resid(bench.team, bench.u[lt], bench.v, bench.r[lt], bench.a)
            norms.append(norm2u3(bench.team, bench.r[lt], nx, nx, nx)[0])
        assert norms[1] < norms[0] and norms[2] < norms[1]

    def test_thread_backend_verifies(self):
        with ThreadTeam(2) as team:
            assert MG("S", team).run().verified
