"""Production slab kernels vs their oracle: same bits, every backend.

Every hot slab kernel has one form under ``src/`` -- the fused in-place
arena chain its driver dispatches -- and one expression-form
specification in ``kernel_oracle.py``.  This suite draws randomized
``(backend, worker count)`` cases and extents from a fixed seed (the
pattern of ``tests/team/test_equivalence.py``) and asserts the
production kernel against the oracle through the production path:
``team.parallel_for(n, resolve(name).fn, ...)``, the same ``(fn, n)``
call site the driver uses (``test_registry.py`` pins ``resolve(name).fn``
to the driver's function by identity), so dispatch and the kernel itself
are under test at once.

The contract is *bit-identity*, with one documented exception:
``mg.norm2u3`` squares through a BLAS dot (``d @ d``), which accumulates
in a different order than the oracle's ``np.sum(interior * interior)``;
its sum of squares is held to 1e-13 relative (the max norm stays exact;
MG verification compares at 1e-8).

The ``fused`` token in the case ids names the form under test; it is
kept from when the kernels had selectable tiers so the ids stay stable.
"""

import random

import kernel_oracle as oracle
import numpy as np
import pytest

from repro.cfd.constants import CFDConstants
from repro.cg import solver as cg
from repro.core import basic_ops
from repro.kernels import resolve
from repro.team import make_team

#: Relative bound on the ``mg.norm2u3`` sum of squares (see above).
NORM2U3_TOLERANCE = 1e-13


def _assert_same_bits(got, want):
    assert got.tobytes() == want.tobytes()


#: Fixed-seed random (backend, workers) cases; worker counts deliberately
#: include 1 and counts that do not divide the extents below.
_rng = random.Random(20260806)
TEAM_CASES = sorted({(_rng.choice(["serial", "threads", "process"]),
                      _rng.choice([1, 2, 3, 4]))
                     for _ in range(10)})
TEAM_IDS = [f"{b}x{w}" for b, w in TEAM_CASES]
FUSED_IDS = [f"fused-{team_id}" for team_id in TEAM_IDS]

#: Random extents (grid edges / row counts), also from the fixed seed.
MG_SIZES = sorted({_rng.choice([10, 12, 14, 18]) for _ in range(3)})
COARSE_SIZES = sorted({_rng.choice([5, 6, 7, 8]) for _ in range(3)})
CFD_GRIDS = [(12, 9, 10), (9, 11, 9)]  # (nz, ny, nx)
CG_SIZES = sorted({_rng.randint(40, 200) for _ in range(3)})

#: NPB MG class-S/W coefficient vectors.
A = (-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
C = (-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0)


def _shared(team, rng, shape):
    """A team-shared array filled with seeded random values."""
    arr = team.shared(shape)
    arr[...] = rng.standard_normal(shape)
    return arr


@pytest.mark.parametrize("backend,workers", TEAM_CASES, ids=FUSED_IDS)
class TestMGTiers:
    def test_resid(self, backend, workers):
        with make_team(backend, workers) as team:
            for m in MG_SIZES:
                rng = np.random.default_rng(100 + m)
                u = _shared(team, rng, (m, m, m))
                v = _shared(team, rng, (m, m, m))
                r = _shared(team, rng, (m, m, m))
                r_ref = r.copy()
                oracle._resid_slab_reference(0, m - 2, u, v, r_ref, A)
                team.parallel_for(m - 2, resolve("mg.resid").fn,
                                  u, v, r, A)
                _assert_same_bits(r, r_ref)

    def test_resid_v_aliases_r(self, backend, workers):
        """The MG driver calls resid(u, r, r) -- v and r are the same
        array; the kernel must read v before overwriting r."""
        with make_team(backend, workers) as team:
            m = MG_SIZES[0]
            rng = np.random.default_rng(17)
            u = _shared(team, rng, (m, m, m))
            r = _shared(team, rng, (m, m, m))
            r_ref = r.copy()
            oracle._resid_slab_reference(0, m - 2, u, r_ref, r_ref, A)
            team.parallel_for(m - 2, resolve("mg.resid").fn, u, r, r, A)
            _assert_same_bits(r, r_ref)

    def test_psinv(self, backend, workers):
        with make_team(backend, workers) as team:
            for m in MG_SIZES:
                rng = np.random.default_rng(200 + m)
                r = _shared(team, rng, (m, m, m))
                u = _shared(team, rng, (m, m, m))
                u_ref = u.copy()
                oracle._psinv_slab_reference(0, m - 2, r, u_ref, C)
                team.parallel_for(m - 2, resolve("mg.psinv").fn, r, u, C)
                _assert_same_bits(u, u_ref)

    def test_rprj3(self, backend, workers):
        with make_team(backend, workers) as team:
            for mc in COARSE_SIZES:
                mf = 2 * mc - 2
                rng = np.random.default_rng(300 + mc)
                r = _shared(team, rng, (mf, mf, mf))
                s = _shared(team, rng, (mc, mc, mc))
                s_ref = s.copy()
                d = tuple(2 if mk == 3 else 1 for mk in r.shape)
                oracle._rprj3_slab_reference(0, mc - 2, r, s_ref, d)
                team.parallel_for(mc - 2, resolve("mg.rprj3").fn,
                                  r, s, d)
                _assert_same_bits(s, s_ref)

    def test_interp(self, backend, workers):
        with make_team(backend, workers) as team:
            for mc in COARSE_SIZES:
                mf = 2 * mc - 2
                rng = np.random.default_rng(400 + mc)
                z = _shared(team, rng, (mc, mc, mc))
                u = _shared(team, rng, (mf, mf, mf))
                u_ref = u.copy()
                oracle._interp_slab_reference(0, mc - 1, z, u_ref)
                team.parallel_for(mc - 1, resolve("mg.interp").fn, z, u)
                _assert_same_bits(u, u_ref)

    def test_norm(self, backend, workers):
        """Sum of squares at the documented relative tolerance (BLAS
        dot order); the max norm stays exact."""
        with make_team(backend, workers) as team:
            for m in MG_SIZES:
                rng = np.random.default_rng(500 + m)
                r = _shared(team, rng, (m, m, m))
                partials = team.parallel_for(
                    m - 2, resolve("mg.norm2u3").fn, r)
                expected = [oracle._norm_slab_reference(lo, hi, r)
                            for lo, hi in team.plan.bounds(m - 2)]
                assert len(partials) == len(expected)
                tol = NORM2U3_TOLERANCE
                for (ssq, rmax), (ssq_ref, rmax_ref) in zip(partials,
                                                            expected):
                    assert abs(ssq - ssq_ref) <= tol * abs(ssq_ref)
                    assert rmax == rmax_ref  # |.| and max commute bitwise


def _cfd_state(team, nz, ny, nx, seed):
    """Physically plausible random state: positive density and enough
    energy that the SP speed-of-sound argument stays positive."""
    rng = np.random.default_rng(seed)
    u = team.shared((nz, ny, nx, 5))
    u[...] = 0.1 * rng.standard_normal((nz, ny, nx, 5))
    u[..., 0] = 1.0 + 0.2 * rng.random((nz, ny, nx))
    u[..., 4] = 5.0 + rng.random((nz, ny, nx))
    fields = [team.shared((nz, ny, nx)) for _ in range(7)]
    return u, fields


@pytest.mark.parametrize("backend,workers", TEAM_CASES, ids=FUSED_IDS)
class TestCFDTiers:
    def test_fields(self, backend, workers):
        with make_team(backend, workers) as team:
            for i, (nz, ny, nx) in enumerate(CFD_GRIDS):
                c = CFDConstants(nx, ny, nz, 0.001)
                u, fused = _cfd_state(team, nz, ny, nx, 600 + i)
                reference = [f.copy() for f in fused]
                oracle.fields_slab_reference(0, nz, u, *reference, c)
                team.parallel_for(nz, resolve("cfd.fields").fn,
                                  u, *fused, c)
                for got, want in zip(fused, reference):
                    _assert_same_bits(got, want)

    def test_fields_speed_none(self, backend, workers):
        """The BT variant passes speed=None; the kernel must skip that
        chain identically."""
        with make_team(backend, workers) as team:
            nz, ny, nx = CFD_GRIDS[0]
            c = CFDConstants(nx, ny, nz, 0.001)
            u, fused = _cfd_state(team, nz, ny, nx, 77)
            fused = fused[:6]
            reference = [f.copy() for f in fused]
            oracle.fields_slab_reference(0, nz, u, *reference, None, c)
            team.parallel_for(nz, resolve("cfd.fields").fn,
                              u, *fused, None, c)
            for got, want in zip(fused, reference):
                _assert_same_bits(got, want)

    def test_rhs(self, backend, workers):
        with make_team(backend, workers) as team:
            for i, (nz, ny, nx) in enumerate(CFD_GRIDS):
                c = CFDConstants(nx, ny, nz, 0.001)
                u, fields = _cfd_state(team, nz, ny, nx, 700 + i)
                rho_i, us, vs, ws, qs, square, _ = fields
                oracle.fields_slab_reference(0, nz, u, rho_i, us, vs,
                                             ws, qs, square, None, c)
                rng = np.random.default_rng(800 + i)
                forcing = _shared(team, rng, (nz, ny, nx, 5))
                rhs = _shared(team, rng, (nz, ny, nx, 5))
                rhs_ref = rhs.copy()
                oracle.rhs_slab_reference(0, nz - 2, u, rhs_ref, forcing,
                                          rho_i, us, vs, ws, qs, square, c)
                team.parallel_for(nz - 2, resolve("cfd.rhs").fn, u, rhs,
                                  forcing, rho_i, us, vs, ws, qs, square, c)
                _assert_same_bits(rhs, rhs_ref)


def _cg_problem(team, n, seed):
    """A random CSR matrix with 1..5 nonzeros per row (no empty rows)."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, size=n)
    rowstr = team.shared(n + 1, dtype=np.int64)
    rowstr[1:] = np.cumsum(counts)
    nnz = int(rowstr[n])
    colidx = team.shared(nnz, dtype=np.int64)
    colidx[:] = rng.integers(0, n, size=nnz)
    a = team.shared(nnz)
    a[:] = rng.standard_normal(nnz)
    x = team.shared(n)
    x[:] = rng.standard_normal(n)
    return rowstr, colidx, a, x


@pytest.mark.parametrize("backend,workers", TEAM_CASES, ids=FUSED_IDS)
class TestCGTiers:
    def test_matvec_with_precomputed_offsets(self, backend, workers):
        """The ``mode="clip"`` gather equals the oracle's fancy index on
        every slab cut (``threads`` x 3 cuts uneven ones), including at
        the clip bounds: the first and last nonzeros read x[n-1] and
        x[0]."""
        with make_team(backend, workers) as team:
            for n in CG_SIZES:
                rowstr, colidx, a, x = _cg_problem(team, n, 900 + n)
                colidx[0], colidx[-1] = n - 1, 0
                offsets = team.shared(n, dtype=np.int64)
                cg.compute_reduceat_offsets(team.plan.bounds(n), rowstr,
                                            offsets)
                out = team.shared(n)
                out_ref = np.empty(n)
                for lo, hi in team.plan.bounds(n):
                    oracle._matvec_slab_reference(lo, hi, rowstr, colidx,
                                                  a, x, out_ref)
                team.parallel_for(n, resolve("cg.matvec").fn, rowstr,
                                  colidx, a, x, out, offsets)
                _assert_same_bits(out, out_ref)

    def test_matvec_without_offsets(self, backend, workers):
        """offsets=None falls back to per-call offset computation."""
        with make_team(backend, workers) as team:
            n = CG_SIZES[0]
            rowstr, colidx, a, x = _cg_problem(team, n, 41)
            out = team.shared(n)
            out_ref = np.empty(n)
            oracle._matvec_slab_reference(0, n, rowstr, colidx, a, x,
                                          out_ref)
            team.parallel_for(n, resolve("cg.matvec").fn, rowstr, colidx,
                              a, x, out, None)
            _assert_same_bits(out, out_ref)

    def test_update_zr(self, backend, workers):
        with make_team(backend, workers) as team:
            for n in CG_SIZES:
                rng = np.random.default_rng(1000 + n)
                z, r, p, q = (_shared(team, rng, n) for _ in range(4))
                alpha = float(rng.standard_normal())
                z_ref, r_ref = z.copy(), r.copy()
                oracle._update_zr_slab_reference(0, n, z_ref, r_ref, p, q,
                                                 alpha)
                team.parallel_for(n, resolve("cg.update_zr").fn,
                                  z, r, p, q, alpha)
                _assert_same_bits(z, z_ref)
                _assert_same_bits(r, r_ref)

    def test_norm_diff(self, backend, workers):
        with make_team(backend, workers) as team:
            for n in CG_SIZES:
                rng = np.random.default_rng(1100 + n)
                x = _shared(team, rng, n)
                r = _shared(team, rng, n)
                partials = team.parallel_for(
                    n, resolve("cg.norm_diff").fn, x, r)
                expected = [oracle._norm_diff_slab_reference(lo, hi, x, r)
                            for lo, hi in team.plan.bounds(n)]
                assert partials == expected  # bit-identical floats


@pytest.mark.parametrize("backend,workers", TEAM_CASES, ids=TEAM_IDS)
class TestBasicOpsFusedSlabs:
    def test_stencil1_slab(self, backend, workers):
        with make_team(backend, workers) as team:
            w = basic_ops.make_workload((9, 8, 11), seed=7)
            a = team.shared(w.a.shape)
            a[...] = w.a
            out = team.shared(a.shape)
            out_ref = out.copy()
            oracle.numpy_stencil1_slab_reference(0, a.shape[0], a, out_ref)
            team.parallel_for(a.shape[0], basic_ops.numpy_stencil1_slab,
                              a, out)
            assert out.tobytes() == out_ref.tobytes()

    def test_stencil2_slab(self, backend, workers):
        with make_team(backend, workers) as team:
            w = basic_ops.make_workload((10, 9, 12), seed=8)
            a = team.shared(w.a.shape)
            a[...] = w.a
            out = team.shared(a.shape)
            out_ref = out.copy()
            oracle.numpy_stencil2_slab_reference(0, a.shape[0], a, out_ref)
            team.parallel_for(a.shape[0], basic_ops.numpy_stencil2_slab,
                              a, out)
            assert out.tobytes() == out_ref.tobytes()

    def test_matvec5_slab(self, backend, workers):
        with make_team(backend, workers) as team:
            w = basic_ops.make_workload((7, 6, 9), seed=9)
            matrices = team.shared(w.matrices.shape)
            matrices[...] = w.matrices
            vectors = team.shared(w.vectors.shape)
            vectors[...] = w.vectors
            out = team.shared(w.vectors.shape)
            out_ref = np.empty_like(w.vectors)
            oracle.numpy_matvec5_slab_reference(
                0, matrices.shape[0], matrices, vectors, out_ref)
            team.parallel_for(matrices.shape[0],
                              basic_ops.numpy_matvec5_slab, matrices,
                              vectors, out)
            assert out.tobytes() == out_ref.tobytes()


class TestBasicOpsFusedFullArray:
    """The full-array numpy styles are entry points (never dispatched as
    slab tasks); they bump the arena generation themselves, so repeated
    calls must reuse -- and stay bit-identical to -- the references."""

    @pytest.mark.parametrize("fused,reference", [
        (basic_ops.numpy_stencil1, oracle.numpy_stencil1_reference),
        (basic_ops.numpy_stencil2, oracle.numpy_stencil2_reference),
        (basic_ops.numpy_matvec5, oracle.numpy_matvec5_reference),
    ], ids=["stencil1", "stencil2", "matvec5"])
    def test_bit_identical(self, fused, reference):
        w = basic_ops.make_workload((11, 9, 10), seed=13)
        shape = (w.vectors.shape if fused is basic_ops.numpy_matvec5
                 else w.a.shape)
        out_fused = np.zeros(shape)
        out_ref = np.zeros(shape)
        for _ in range(3):  # repeated calls: arena reuse must not drift
            fused(w, out_fused)
            reference(w, out_ref)
            assert out_fused.tobytes() == out_ref.tobytes()


class TestRandomExtents:
    """Direct slab calls at random (lo, hi) -- edges the block partition
    never produces (empty slabs, single planes, off-center windows)."""

    EXTENTS = sorted({tuple(sorted((_rng.randint(0, 16),
                                    _rng.randint(0, 16))))
                      for _ in range(10)})

    @pytest.mark.parametrize("lo,hi", EXTENTS,
                             ids=[f"{lo}-{hi}-fused" for lo, hi in EXTENTS])
    def test_mg_kernels_any_extent(self, lo, hi):
        m = 18  # interior extent 16 >= any hi above
        rng = np.random.default_rng(1300 + lo + 31 * hi)
        u = rng.standard_normal((m, m, m))
        v = rng.standard_normal((m, m, m))
        r = rng.standard_normal((m, m, m))
        r_ref = r.copy()
        oracle._resid_slab_reference(lo, hi, u, v, r_ref, A)
        resolve("mg.resid").fn(lo, hi, u, v, r, A)
        _assert_same_bits(r, r_ref)
        u_ref = u.copy()
        oracle._psinv_slab_reference(lo, hi, r, u_ref, C)
        resolve("mg.psinv").fn(lo, hi, r, u, C)
        _assert_same_bits(u, u_ref)

    @pytest.mark.parametrize("lo,hi", EXTENTS,
                             ids=[f"{lo}-{hi}" for lo, hi in EXTENTS])
    def test_basic_ops_slabs_any_extent(self, lo, hi):
        rng = np.random.default_rng(1400 + lo + 31 * hi)
        a = rng.standard_normal((17, 7, 8))
        out = rng.standard_normal(a.shape)
        out_ref = out.copy()
        oracle.numpy_stencil1_slab_reference(lo, hi, a, out_ref)
        basic_ops.numpy_stencil1_slab(lo, hi, a, out)
        assert out.tobytes() == out_ref.tobytes()
        oracle.numpy_stencil2_slab_reference(lo, hi, a, out_ref)
        basic_ops.numpy_stencil2_slab(lo, hi, a, out)
        assert out.tobytes() == out_ref.tobytes()
