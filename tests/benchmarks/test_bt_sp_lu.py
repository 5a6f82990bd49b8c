"""Tests for the three simulated CFD applications."""

import numpy as np
import pytest

from repro.bt import BT
from repro.bt.solve import _block_sweep, _jacobians
from repro.cfd.constants import CFDConstants
from repro.lu import LU
from repro.lu.setup import pintgr
from repro.lu.sweep import hyperplanes
from repro.sp import SP
from repro.sp.solve import _build_lhs, _solve_factor
from repro.team import ProcessTeam, ThreadTeam


class TestBT:
    def test_class_s_verifies(self):
        result = BT("S").run()
        assert result.verified

    def test_residual_norms_near_bit_exact(self):
        result = BT("S").run()
        xcr_errors = [c[3] for c in result.verification.checks[:5]]
        assert max(xcr_errors) < 1e-11

    def test_thread_backend_verifies(self):
        with ThreadTeam(2) as team:
            assert BT("S", team).run().verified

    def test_block_sweep_solves_block_tridiagonal(self):
        """Assemble the dense block-tridiagonal matrix the sweep implies
        and check the sweep's answer against a dense solve."""
        rng = np.random.default_rng(0)
        n = 6
        c = CFDConstants(n, n, n, 0.01)
        ul = 1.0 + rng.random((1, n, 5)) * 0.1
        qsl = rng.random((1, n))
        sql = rng.random((1, n))
        fjac, njac = _jacobians(ul, qsl, sql, 1, c)
        dvec = np.array([c.dx1, c.dx2, c.dx3, c.dx4, c.dx5])
        tmp1, tmp2 = c.dt * c.tx1, c.dt * c.tx2
        rhs = rng.random((1, n, 5))
        dense = np.zeros((5 * n, 5 * n))
        dense[:5, :5] = np.eye(5)
        dense[-5:, -5:] = np.eye(5)
        dmat = np.diag(dvec)
        for i in range(1, n - 1):
            aa = (-tmp2 * fjac[0, i - 1] - tmp1 * njac[0, i - 1]
                  - tmp1 * dmat)
            bb = np.eye(5) + 2 * tmp1 * njac[0, i] + 2 * tmp1 * dmat
            cc = tmp2 * fjac[0, i + 1] - tmp1 * njac[0, i + 1] - tmp1 * dmat
            dense[5 * i:5 * i + 5, 5 * (i - 1):5 * i] = aa
            dense[5 * i:5 * i + 5, 5 * i:5 * i + 5] = bb
            dense[5 * i:5 * i + 5, 5 * (i + 1):5 * (i + 2)] = cc
        expected = np.linalg.solve(dense, rhs.reshape(-1))
        r = rhs.copy()
        _block_sweep(r, fjac, njac, tmp1, tmp2, dvec)
        assert np.allclose(r.reshape(-1), expected, atol=1e-10)


class TestSP:
    def test_class_s_verifies(self):
        result = SP("S").run()
        assert result.verified

    def test_process_backend_verifies(self):
        with ProcessTeam(2) as team:
            assert SP("S", team).run().verified

    def test_pentadiagonal_solve_matches_dense(self):
        """Each of the five systems the one elimination solves must equal
        a dense pentadiagonal solve assembled from its own factor."""
        rng = np.random.default_rng(1)
        n = 10
        c = CFDConstants(n, n, n, 0.015)
        cv = rng.random((1, n))
        rho = 0.5 + rng.random((1, n))
        spd = 0.5 + rng.random((1, n))
        f = _build_lhs(cv, rho, spd, c.dttx1, c.dttx2, c.c2dttx1, c)
        b = rng.random((n, 1, 5))
        x = b.copy()
        _solve_factor(f.copy(), x)
        for m in range(5):
            dense = np.zeros((n, n))
            for i in range(n):
                for d, off in enumerate(range(-2, 3)):
                    j = i + off
                    if 0 <= j < n:
                        dense[i, j] = f[i, d, 0, m]
            expected = np.linalg.solve(dense, b[:, 0, m])
            assert np.allclose(x[:, 0, m], expected, atol=1e-10)

    def test_boundary_rows_identity(self):
        n = 8
        c = CFDConstants(n, n, n, 0.015)
        cv = np.zeros((1, n))
        rho = np.ones((1, n))
        spd = np.ones((1, n))
        f = _build_lhs(cv, rho, spd, c.dttx1, c.dttx2, c.c2dttx1, c)
        for m in range(5):
            assert f[0, 2, 0, m] == 1.0 and f[-1, 2, 0, m] == 1.0
            assert np.all(f[0, [0, 1, 3, 4], 0, m] == 0)
            assert np.all(f[-1, [0, 1, 3, 4], 0, m] == 0)


class TestLU:
    def test_class_s_verifies(self):
        result = LU("S").run()
        assert result.verified

    def test_surface_integral_exact_match(self):
        bench = LU("S")
        result = bench.run()
        xci = [c for c in result.verification.checks if c[0] == "xci"][0]
        assert xci[3] < 1e-12

    def test_thread_backend_verifies(self):
        with ThreadTeam(2) as team:
            assert LU("S", team).run().verified

    def test_hyperplanes_cover_interior_once(self):
        k, j, i, offsets = hyperplanes(8, 7, 6)
        points = set(zip(k.tolist(), j.tolist(), i.tolist()))
        assert len(points) == len(k) == 6 * 5 * 4  # interior counts
        assert offsets[0] == 0 and offsets[-1] == len(k)
        # every wavefront really is constant in i+j+k
        for s in range(len(offsets) - 1):
            sel = slice(offsets[s], offsets[s + 1])
            sums = k[sel] + j[sel] + i[sel]
            assert np.all(sums == sums[0])
        # wavefront numbers ascend
        fronts = [int((k[offsets[s]] + j[offsets[s]] + i[offsets[s]]))
                  for s in range(len(offsets) - 1)]
        assert fronts == sorted(fronts)

    def test_pintgr_constant_pressure_field(self):
        # With u = (1, 0, 0, 0, p/c2), phi == p everywhere, so frc is p
        # times the area-weight sum of the three face pairs.
        c = CFDConstants(10, 10, 10, 0.5)
        u = np.zeros((10, 10, 10, 5))
        u[..., 0] = 1.0
        u[..., 4] = 2.5
        frc = pintgr(u, c)
        p = c.c2 * 2.5
        # face 1: (ny-3)-1 x (nx-2)-1 cells? counted via the formula:
        ib, ie, jb, je, kb, ke = 1, 8, 1, 7, 2, 8
        ncells1 = (je - jb) * (ie - ib)
        ncells2 = (ke - kb) * (ie - ib)
        ncells3 = (ke - kb) * (je - jb)
        dxi = deta = dzeta = 1.0 / 9.0
        expected = 0.25 * (ncells1 * 8 * p * dxi * deta
                           + ncells2 * 8 * p * dxi * dzeta
                           + ncells3 * 8 * p * deta * dzeta)
        assert frc == pytest.approx(expected, rel=1e-12)

    def test_ssor_reduces_residual(self):
        bench = LU("S")
        bench.setup()
        initial = bench._l2norm().copy()
        bench._ssor(5)
        assert np.all(bench.rsdnm < initial)
