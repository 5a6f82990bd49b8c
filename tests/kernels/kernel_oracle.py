"""Reference slab kernels: the expression-form NumPy bodies.

These seventeen functions are how ``repro.mg.operators``,
``repro.cfd.rhs``, ``repro.cg.solver`` and ``repro.core.basic_ops``
computed their slabs before the fused in-place arena chains replaced
them: one readable NumPy expression per Fortran statement, a full-slab
temporary per operator.  They are kept verbatim as the oracle the
production kernels must match bit for bit (see
``test_fused_equivalence.py``; ``mg.norm2u3`` at its documented 1e-13)
and as the naive column of ``benchmarks/bench_alloc.py`` -- not as a
second implementation: nothing under ``src/`` imports them, and they
share only index helpers and constants with the production modules.

The last, ``fft_rows_reference``, is the radix-2 Stockham that
``repro.ft.fft.fft_rows`` was before the four-step; it is a different
algorithm, so ``test_fft_rows.py`` holds the two to a declared relative
error rather than to the bit.

The last three sections are the forms the class-S hot loops had before
they were batched into fewer, wider NumPy calls: SP's three-factor sweep
(``_sweep_reference``, one component at a time), BT's block sweep
assembling AA/BB/CC inside the line loop (``_block_sweep_reference``)
and EP's boolean-mask batch (``_batch_tallies_reference``).  The same
elementwise operations in the same order, so ``test_line_solves.py``
holds the production forms to them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.cfd.constants import CFDConstants
from repro.cfd.rhs import _AXIS, _view
from repro.common.randdp import A_DEFAULT, Randlc
from repro.core.basic_ops import C0, C1, C2, Workload
from repro.ep.params import EP_SEED, MK, NQ
from repro.mg.operators import _fine_slices


# --------------------------------------------------------------------- #
# repro.mg.operators

def _resid_slab_reference(lo: int, hi: int, u, v, r, a) -> None:
    """Expression-form residual (the readable spec; allocates temporaries).

    The a(1) face term is zero for the NPB coefficients and, following the
    Fortran, is never computed.
    """
    if hi <= lo:
        return
    a0, _, a2, a3 = a
    uc = u[lo : hi + 2]  # the slab plus one halo plane each side
    u1 = (uc[1:-1, :-2, :] + uc[1:-1, 2:, :]
          + uc[:-2, 1:-1, :] + uc[2:, 1:-1, :])
    u2 = (uc[:-2, :-2, :] + uc[:-2, 2:, :]
          + uc[2:, :-2, :] + uc[2:, 2:, :])
    center = uc[1:-1, 1:-1, 1:-1]
    r[1 + lo : 1 + hi, 1:-1, 1:-1] = (
        v[1 + lo : 1 + hi, 1:-1, 1:-1]
        - a0 * center
        - a2 * (u2[:, :, 1:-1] + u1[:, :, :-2] + u1[:, :, 2:])
        - a3 * (u2[:, :, :-2] + u2[:, :, 2:])
    )


def _psinv_slab_reference(lo: int, hi: int, r, u, c) -> None:
    """Expression-form smoother (the readable spec; allocates temporaries).

    The c(3) corner term is zero for both NPB coefficient sets and,
    following the Fortran, is never computed.
    """
    if hi <= lo:
        return
    c0, c1, c2, _ = c
    rc = r[lo : hi + 2]
    r1 = (rc[1:-1, :-2, :] + rc[1:-1, 2:, :]
          + rc[:-2, 1:-1, :] + rc[2:, 1:-1, :])
    r2 = (rc[:-2, :-2, :] + rc[:-2, 2:, :]
          + rc[2:, :-2, :] + rc[2:, 2:, :])
    center = rc[1:-1, 1:-1, :]
    u[1 + lo : 1 + hi, 1:-1, 1:-1] += (
        c0 * center[:, :, 1:-1]
        + c1 * (center[:, :, :-2] + center[:, :, 2:] + r1[:, :, 1:-1])
        + c2 * (r2[:, :, 1:-1] + r1[:, :, :-2] + r1[:, :, 2:])
    )


def _rprj3_slab_reference(lo: int, hi: int, r, s, d) -> None:
    """Expression-form restriction (the readable spec; allocates
    temporaries)."""
    if hi <= lo:
        return
    m3j, m2j, m1j = s.shape
    d3, d2, d1 = d
    s3 = {o: _fine_slices(1 + lo, 1 + hi, d3, o) for o in (-1, 0, 1)}
    s2 = {o: _fine_slices(1, m2j - 1, d2, o) for o in (-1, 0, 1)}
    s1 = {o: _fine_slices(1, m1j - 1, d1, o) for o in (-1, 0, 1)}

    def R(o3: int, o2: int, o1: int) -> np.ndarray:
        return r[s3[o3], s2[o2], s1[o1]]

    # x1/y1 are the lateral sums of the Fortran at i1-1 and i1+1; x2/y2 the
    # same sums at the center i1.  Grouping follows the Fortran statements.
    def x1(o1: int) -> np.ndarray:
        return R(0, -1, o1) + R(0, 1, o1) + R(-1, 0, o1) + R(1, 0, o1)

    def y1(o1: int) -> np.ndarray:
        return R(-1, -1, o1) + R(1, -1, o1) + R(-1, 1, o1) + R(1, 1, o1)

    # Weights sum to 4: the factor that rescales the residual of the
    # unscaled NPB stencil from grid h to grid 2h.
    s[1 + lo : 1 + hi, 1:-1, 1:-1] = (
        0.5 * R(0, 0, 0)
        + 0.25 * (R(0, 0, -1) + R(0, 0, 1) + x1(0))
        + 0.125 * (x1(-1) + x1(1) + y1(0))
        + 0.0625 * (y1(-1) + y1(1))
    )


def _interp_slab_reference(lo: int, hi: int, z, u) -> None:
    """Expression-form prolongation (the readable spec; allocates
    temporaries)."""
    if hi <= lo:
        return
    mm3, mm2, mm1 = z.shape
    a = slice(lo, hi)          # coarse i3
    ap = slice(lo + 1, hi + 1)  # coarse i3+1
    # Fortran z1/z2/z3 lateral sums (statement order preserved):
    z1 = z[a, 1:, :] + z[a, :-1, :]
    z2 = z[ap, :-1, :] + z[a, :-1, :]
    z3 = z[ap, 1:, :] + z[ap, :-1, :] + z1

    fe3 = slice(2 * lo, 2 * (hi - 1) + 1, 2)       # fine even planes 2*cz3
    fo3 = slice(2 * lo + 1, 2 * (hi - 1) + 2, 2)   # fine odd planes 2*cz3+1
    fe = slice(0, 2 * (mm2 - 2) + 1, 2)            # fine even rows/cols
    fo = slice(1, 2 * (mm2 - 2) + 2, 2)            # fine odd rows/cols
    c = slice(0, mm1 - 1)                          # coarse i1
    cp = slice(1, mm1)                             # coarse i1+1

    u[fe3, fe, fe] += z[a, :-1, c]
    u[fe3, fe, fo] += 0.5 * (z[a, :-1, cp] + z[a, :-1, c])
    u[fe3, fo, fe] += 0.5 * z1[:, :, c]
    u[fe3, fo, fo] += 0.25 * (z1[:, :, c] + z1[:, :, cp])
    u[fo3, fe, fe] += 0.5 * z2[:, :, c]
    u[fo3, fe, fo] += 0.25 * (z2[:, :, c] + z2[:, :, cp])
    u[fo3, fo, fe] += 0.25 * z3[:, :, c]
    u[fo3, fo, fo] += 0.125 * (z3[:, :, c] + z3[:, :, cp])


def _norm_slab_reference(lo: int, hi: int, r) -> tuple[float, float]:
    """Expression-form partials (allocates ``interior*interior`` and
    ``np.abs(interior)`` temporaries)."""
    if hi <= lo:
        return 0.0, 0.0
    interior = r[1 + lo : 1 + hi, 1:-1, 1:-1]
    return float(np.sum(interior * interior)), float(np.max(np.abs(interior)))


# --------------------------------------------------------------------- #
# repro.cfd.rhs

def fields_slab_reference(lo: int, hi: int, u, rho_i, us, vs, ws, qs,
                          square, speed, c: CFDConstants) -> None:
    """Expression-form derived fields (the readable spec; allocates
    temporaries).  ``speed`` is None for BT."""
    if hi <= lo:
        return
    sl = slice(lo, hi)
    rho_inv = 1.0 / u[sl, :, :, 0]
    rho_i[sl] = rho_inv
    us[sl] = u[sl, :, :, 1] * rho_inv
    vs[sl] = u[sl, :, :, 2] * rho_inv
    ws[sl] = u[sl, :, :, 3] * rho_inv
    sq = 0.5 * (u[sl, :, :, 1] ** 2 + u[sl, :, :, 2] ** 2
                + u[sl, :, :, 3] ** 2) * rho_inv
    square[sl] = sq
    qs[sl] = sq * rho_inv
    if speed is not None:
        speed[sl] = np.sqrt(c.c1c2 * rho_inv * (u[sl, :, :, 4] - sq))


def rhs_slab_reference(lo: int, hi: int, u, rhs, forcing, rho_i, us, vs,
                       ws, qs, square, c: CFDConstants) -> None:
    """Expression-form fluxes + dissipation + dt scaling (the readable
    spec; allocates a temporary per sub-expression)."""
    if hi <= lo:
        return
    nz = u.shape[0]
    klo_copy = 0 if lo == 0 else 1 + lo
    khi_copy = nz if hi == nz - 2 else 1 + hi
    rhs[klo_copy:khi_copy] = forcing[klo_copy:khi_copy]

    def C(f, axis, o):
        return _view(f, axis, o, lo, hi)

    def CU(m, axis, o):
        return _view(u[..., m], axis, o, lo, hi)

    def D2(f, axis):
        return C(f, axis, 1) - 2.0 * C(f, axis, 0) + C(f, axis, -1)

    def D2U(m, axis):
        return CU(m, axis, 1) - 2.0 * CU(m, axis, 0) + CU(m, axis, -1)

    R = rhs[1 + lo : 1 + hi, 1:-1, 1:-1, :]
    vel_fields = {1: us, 2: vs, 3: ws}

    for direction, vel in (("x", 1), ("y", 2), ("z", 3)):
        axis = _AXIS[direction]
        t2 = getattr(c, f"t{direction}2")
        prefix = {"x": "xx", "y": "yy", "z": "zz"}[direction]
        con2 = getattr(c, f"{prefix}con2")
        con3 = getattr(c, f"{prefix}con3")
        con4 = getattr(c, f"{prefix}con4")
        con5 = getattr(c, f"{prefix}con5")
        d_t1 = [getattr(c, f"d{direction}{m}t{direction}1")
                for m in range(1, 6)]
        w = vel_fields[vel]
        wp1 = C(w, axis, 1)
        wc = C(w, axis, 0)
        wm1 = C(w, axis, -1)

        # continuity
        R[..., 0] += (d_t1[0] * D2U(0, axis)
                      - t2 * (CU(vel, axis, 1) - CU(vel, axis, -1)))
        # momentum
        for m in (1, 2, 3):
            if m == vel:
                R[..., m] += (d_t1[m] * D2U(m, axis)
                              + con2 * c.con43 * (wp1 - 2.0 * wc + wm1)
                              - t2 * (CU(m, axis, 1) * wp1
                                      - CU(m, axis, -1) * wm1
                                      + (CU(4, axis, 1) - C(square, axis, 1)
                                         - CU(4, axis, -1)
                                         + C(square, axis, -1)) * c.c2))
            else:
                R[..., m] += (d_t1[m] * D2U(m, axis)
                              + con2 * D2(vel_fields[m], axis)
                              - t2 * (CU(m, axis, 1) * wp1
                                      - CU(m, axis, -1) * wm1))
        # energy
        R[..., 4] += (d_t1[4] * D2U(4, axis)
                      + con3 * D2(qs, axis)
                      + con4 * (wp1 * wp1 - 2.0 * wc * wc + wm1 * wm1)
                      + con5 * (CU(4, axis, 1) * C(rho_i, axis, 1)
                                - 2.0 * CU(4, axis, 0) * C(rho_i, axis, 0)
                                + CU(4, axis, -1) * C(rho_i, axis, -1))
                      - t2 * ((c.c1 * CU(4, axis, 1)
                               - c.c2 * C(square, axis, 1)) * wp1
                              - (c.c1 * CU(4, axis, -1)
                                 - c.c2 * C(square, axis, -1)) * wm1))

        _dissipation_u_reference(rhs, u, axis, lo, hi, c.dssp)

    R *= c.dt


def _dissipation_u_reference(rhs, u, axis: int, lo: int, hi: int,
                             dssp: float) -> None:
    """Expression-form 4th-order dissipation (the readable spec)."""
    n = u.shape[axis]

    if axis != 0:
        def U(alo, ahi, off):
            slices = [slice(1 + lo, 1 + hi), slice(1, -1), slice(1, -1),
                      slice(None)]
            slices[axis] = slice(alo + off, ahi + off + 1)
            return u[tuple(slices)]

        def Rv(alo, ahi):
            slices = [slice(1 + lo, 1 + hi), slice(1, -1), slice(1, -1),
                      slice(None)]
            slices[axis] = slice(alo, ahi + 1)
            return rhs[tuple(slices)]

        Rv(1, 1)[...] -= dssp * (5.0 * U(1, 1, 0) - 4.0 * U(1, 1, 1)
                                 + U(1, 1, 2))
        Rv(2, 2)[...] -= dssp * (-4.0 * U(2, 2, -1) + 6.0 * U(2, 2, 0)
                                 - 4.0 * U(2, 2, 1) + U(2, 2, 2))
        alo, ahi = 3, n - 4
        if ahi >= alo:
            Rv(alo, ahi)[...] -= dssp * (
                U(alo, ahi, -2) - 4.0 * U(alo, ahi, -1)
                + 6.0 * U(alo, ahi, 0) - 4.0 * U(alo, ahi, 1)
                + U(alo, ahi, 2))
        i = n - 3
        Rv(i, i)[...] -= dssp * (U(i, i, -2) - 4.0 * U(i, i, -1)
                                 + 6.0 * U(i, i, 0) - 4.0 * U(i, i, 1))
        i = n - 2
        Rv(i, i)[...] -= dssp * (U(i, i, -2) - 4.0 * U(i, i, -1)
                                 + 5.0 * U(i, i, 0))
        return

    # Swept axis is k itself: per-plane stencils so the boundary-modified
    # rows land correctly for any slab bounds.
    for k in range(1 + lo, 1 + hi):
        target = rhs[k, 1:-1, 1:-1, :]

        def uk(o, _k=k):
            return u[_k + o, 1:-1, 1:-1, :]

        if k == 1:
            target -= dssp * (5.0 * uk(0) - 4.0 * uk(1) + uk(2))
        elif k == 2:
            target -= dssp * (-4.0 * uk(-1) + 6.0 * uk(0)
                              - 4.0 * uk(1) + uk(2))
        elif k == n - 3:
            target -= dssp * (uk(-2) - 4.0 * uk(-1) + 6.0 * uk(0)
                              - 4.0 * uk(1))
        elif k == n - 2:
            target -= dssp * (uk(-2) - 4.0 * uk(-1) + 5.0 * uk(0))
        else:
            target -= dssp * (uk(-2) - 4.0 * uk(-1) + 6.0 * uk(0)
                              - 4.0 * uk(1) + uk(2))


# --------------------------------------------------------------------- #
# repro.cg.solver

def _matvec_slab_reference(lo: int, hi: int, rowstr, colidx, a, x,
                           out, offsets=None) -> None:
    """Expression-form CSR mat-vec restricted to rows ``[lo, hi)`` (no
    empty rows assumed); allocates the gather and products temporaries.
    ``offsets`` (the fused tier's reduceat precomputation) is accepted
    for signature compatibility across tiers and ignored."""
    if hi <= lo:
        return
    start = int(rowstr[lo])
    end = int(rowstr[hi])
    products = a[start:end] * x[colidx[start:end]]
    out[lo:hi] = np.add.reduceat(products, rowstr[lo:hi] - start)


def _update_zr_slab_reference(lo: int, hi: int, z, r, p, q,
                              alpha: float) -> None:
    """Expression form of the z/r update (allocates ``alpha * p`` and
    ``alpha * q`` temporaries)."""
    z[lo:hi] += alpha * p[lo:hi]
    r[lo:hi] -= alpha * q[lo:hi]


def _norm_diff_slab_reference(lo: int, hi: int, x, r) -> float:
    """Expression form of the final-residual partial (allocates ``d``)."""
    d = x[lo:hi] - r[lo:hi]
    return float(d @ d)


# --------------------------------------------------------------------- #
# repro.core.basic_ops

def numpy_stencil1_reference(w: Workload, out: np.ndarray) -> None:
    """Expression-form 7-point filter (allocates one temporary per
    operator)."""
    a = w.a
    out[1:-1, 1:-1, 1:-1] = (
        C0 * a[1:-1, 1:-1, 1:-1]
        + C1 * (a[1:-1, 1:-1, :-2] + a[1:-1, 1:-1, 2:]
                + a[1:-1, :-2, 1:-1] + a[1:-1, 2:, 1:-1]
                + a[:-2, 1:-1, 1:-1] + a[2:, 1:-1, 1:-1])
    )


def numpy_stencil2_reference(w: Workload, out: np.ndarray) -> None:
    """Expression-form 13-point filter (allocates one temporary per
    operator)."""
    a = w.a
    out[2:-2, 2:-2, 2:-2] = (
        C0 * a[2:-2, 2:-2, 2:-2]
        + C1 * (a[2:-2, 2:-2, 1:-3] + a[2:-2, 2:-2, 3:-1]
                + a[2:-2, 1:-3, 2:-2] + a[2:-2, 3:-1, 2:-2]
                + a[1:-3, 2:-2, 2:-2] + a[3:-1, 2:-2, 2:-2])
        + C2 * (a[2:-2, 2:-2, :-4] + a[2:-2, 2:-2, 4:]
                + a[2:-2, :-4, 2:-2] + a[2:-2, 4:, 2:-2]
                + a[:-4, 2:-2, 2:-2] + a[4:, 2:-2, 2:-2])
    )


def numpy_matvec5_reference(w: Workload, out: np.ndarray) -> None:
    """Expression-form pointwise 5x5 mat-vec (allocates the matmul
    result)."""
    out[...] = (w.matrices @ w.vectors[..., None])[..., 0]


def numpy_stencil1_slab_reference(lo: int, hi: int, a, out) -> None:
    lo1 = max(lo, 1)
    hi1 = min(hi, a.shape[0] - 1)
    if hi1 <= lo1:
        return
    out[lo1:hi1, 1:-1, 1:-1] = (
        C0 * a[lo1:hi1, 1:-1, 1:-1]
        + C1 * (a[lo1:hi1, 1:-1, :-2] + a[lo1:hi1, 1:-1, 2:]
                + a[lo1:hi1, :-2, 1:-1] + a[lo1:hi1, 2:, 1:-1]
                + a[lo1 - 1:hi1 - 1, 1:-1, 1:-1]
                + a[lo1 + 1:hi1 + 1, 1:-1, 1:-1])
    )


def numpy_stencil2_slab_reference(lo: int, hi: int, a, out) -> None:
    lo2 = max(lo, 2)
    hi2 = min(hi, a.shape[0] - 2)
    if hi2 <= lo2:
        return
    out[lo2:hi2, 2:-2, 2:-2] = (
        C0 * a[lo2:hi2, 2:-2, 2:-2]
        + C1 * (a[lo2:hi2, 2:-2, 1:-3] + a[lo2:hi2, 2:-2, 3:-1]
                + a[lo2:hi2, 1:-3, 2:-2] + a[lo2:hi2, 3:-1, 2:-2]
                + a[lo2 - 1:hi2 - 1, 2:-2, 2:-2]
                + a[lo2 + 1:hi2 + 1, 2:-2, 2:-2])
        + C2 * (a[lo2:hi2, 2:-2, :-4] + a[lo2:hi2, 2:-2, 4:]
                + a[lo2:hi2, :-4, 2:-2] + a[lo2:hi2, 4:, 2:-2]
                + a[lo2 - 2:hi2 - 2, 2:-2, 2:-2]
                + a[lo2 + 2:hi2 + 2, 2:-2, 2:-2])
    )


def numpy_matvec5_slab_reference(lo: int, hi: int, matrices, vectors,
                                 out) -> None:
    out[lo:hi] = (matrices[lo:hi] @ vectors[lo:hi, ..., None])[..., 0]


# --------------------------------------------------------------------- #
# repro.ft.fft

#: Cache of butterfly root tables keyed by (n, L, sign).
_ROOTS: dict[tuple[int, int, int], np.ndarray] = {}


def _roots(n: int, L: int, sign: int) -> np.ndarray:
    key = (n, L, sign)
    table = _ROOTS.get(key)
    if table is None:
        table = np.exp(sign * 2j * np.pi * np.arange(L) / (2 * L))
        _ROOTS[key] = table
    return table


def fft_rows_reference(x: np.ndarray, sign: int) -> np.ndarray:
    """DFT of each row of a 2-D complex array (Stockham, radix 2): the
    butterfly form ``repro.ft.fft.fft_rows`` had before the four-step,
    one allocating ``np.concatenate`` per stage.

    Invariant after stage t (block length L = 2**t): ``y[:, j, k]`` holds
    the length-L DFT of the decimated subsequence ``x[:, j::R]`` at
    frequency k, with R = n // L.  The decimation-in-time combine step
    halves R and doubles L until R == 1.
    """
    m, n = x.shape
    if n & (n - 1):
        raise ValueError("fft_rows requires a power-of-two length")
    if n == 1:
        return x.copy()
    y = x.reshape(m, n, 1).copy()
    L = 1
    while L < n:
        half = y.shape[1] // 2
        w = _roots(n, L, sign)
        even = y[:, :half, :]
        odd = y[:, half:, :] * w
        y = np.concatenate((even + odd, even - odd), axis=2)
        L *= 2
    return y.reshape(m, n)

# --------------------------------------------------------------------- #
# repro.sp.solve: three factors, eliminated one component at a time

def _build_lhs_reference(cv, rho_line, spd, dt1, dt2, c2dt1,
                         c: CFDConstants):
    """Assemble lhs/lhsp/lhsm of shape cv.shape + (5,).

    ``cv``/``rho_line``/``spd`` have the sweep direction as last axis
    (full length n including boundary points).
    """
    n = cv.shape[-1]
    lhs = np.zeros(cv.shape + (5,))
    lhs[..., 0, 2] = 1.0
    lhs[..., n - 1, 2] = 1.0
    sl = slice(1, n - 1)
    lhs[..., sl, 1] = -dt2 * cv[..., : n - 2] - dt1 * rho_line[..., : n - 2]
    lhs[..., sl, 2] = 1.0 + c2dt1 * rho_line[..., sl]
    lhs[..., sl, 3] = dt2 * cv[..., 2:] - dt1 * rho_line[..., 2:]

    # 4th-order dissipation terms on the matrix.
    lhs[..., 1, 2] += c.comz5
    lhs[..., 1, 3] -= c.comz4
    lhs[..., 1, 4] += c.comz1
    lhs[..., 2, 1] -= c.comz4
    lhs[..., 2, 2] += c.comz6
    lhs[..., 2, 3] -= c.comz4
    lhs[..., 2, 4] += c.comz1
    mid = slice(3, n - 3)
    lhs[..., mid, 0] += c.comz1
    lhs[..., mid, 1] -= c.comz4
    lhs[..., mid, 2] += c.comz6
    lhs[..., mid, 3] -= c.comz4
    lhs[..., mid, 4] += c.comz1
    lhs[..., n - 3, 0] += c.comz1
    lhs[..., n - 3, 1] -= c.comz4
    lhs[..., n - 3, 2] += c.comz6
    lhs[..., n - 3, 3] -= c.comz4
    lhs[..., n - 2, 0] += c.comz1
    lhs[..., n - 2, 1] -= c.comz4
    lhs[..., n - 2, 2] += c.comz5

    lhsp = lhs.copy()
    lhsm = lhs.copy()
    lhsp[..., sl, 1] -= dt2 * spd[..., : n - 2]
    lhsp[..., sl, 3] += dt2 * spd[..., 2:]
    lhsm[..., sl, 1] += dt2 * spd[..., : n - 2]
    lhsm[..., sl, 3] -= dt2 * spd[..., 2:]
    return lhs, lhsp, lhsm


def _eliminate_reference(lhs, r, comps) -> None:
    """Forward elimination of the pentadiagonal factor for the rhs
    components in ``comps`` (sweep axis at -2 of r, -2 of lhs)."""
    n = r.shape[-2]
    for i in range(n - 2):
        fac1 = 1.0 / lhs[..., i, 2]
        lhs[..., i, 3] *= fac1
        lhs[..., i, 4] *= fac1
        for m in comps:
            r[..., i, m] *= fac1
        l1 = lhs[..., i + 1, 1]
        lhs[..., i + 1, 2] -= l1 * lhs[..., i, 3]
        lhs[..., i + 1, 3] -= l1 * lhs[..., i, 4]
        for m in comps:
            r[..., i + 1, m] -= l1 * r[..., i, m]
        l0 = lhs[..., i + 2, 0]
        lhs[..., i + 2, 1] -= l0 * lhs[..., i, 3]
        lhs[..., i + 2, 2] -= l0 * lhs[..., i, 4]
        for m in comps:
            r[..., i + 2, m] -= l0 * r[..., i, m]
    # Last two rows.
    i = n - 2
    fac1 = 1.0 / lhs[..., i, 2]
    lhs[..., i, 3] *= fac1
    lhs[..., i, 4] *= fac1
    for m in comps:
        r[..., i, m] *= fac1
    l1 = lhs[..., i + 1, 1]
    lhs[..., i + 1, 2] -= l1 * lhs[..., i, 3]
    lhs[..., i + 1, 3] -= l1 * lhs[..., i, 4]
    for m in comps:
        r[..., i + 1, m] -= l1 * r[..., i, m]
    fac2 = 1.0 / lhs[..., i + 1, 2]
    for m in comps:
        r[..., i + 1, m] *= fac2


def _sweep_reference(r, cv, rho_line, spd, dt1, dt2, c2dt1,
                     c: CFDConstants) -> None:
    """Build the three factors and solve all five systems along the lines."""
    lhs, lhsp, lhsm = _build_lhs_reference(cv, rho_line, spd, dt1, dt2,
                                           c2dt1, c)
    _eliminate_reference(lhs, r, (0, 1, 2))
    _eliminate_reference(lhsp, r, (3,))
    _eliminate_reference(lhsm, r, (4,))
    i = r.shape[-2] - 2
    for m in (0, 1, 2):
        r[..., i, m] -= lhs[..., i, 3] * r[..., i + 1, m]
    r[..., i, 3] -= lhsp[..., i, 3] * r[..., i + 1, 3]
    r[..., i, 4] -= lhsm[..., i, 3] * r[..., i + 1, 4]
    for i in range(r.shape[-2] - 3, -1, -1):
        for m in (0, 1, 2):
            r[..., i, m] -= (lhs[..., i, 3] * r[..., i + 1, m]
                             + lhs[..., i, 4] * r[..., i + 2, m])
        r[..., i, 3] -= (lhsp[..., i, 3] * r[..., i + 1, 3]
                         + lhsp[..., i, 4] * r[..., i + 2, 3])
        r[..., i, 4] -= (lhsm[..., i, 3] * r[..., i + 1, 4]
                         + lhsm[..., i, 4] * r[..., i + 2, 4])


# --------------------------------------------------------------------- #
# repro.bt.solve: AA/BB/CC assembled inside the line loop

def _block_sweep_reference(r, fjac, njac, tmp1: float, tmp2: float,
                           dvec: np.ndarray) -> None:
    """Block Thomas elimination along the sweep axis (-2 of r).

    ``tmp1`` = dt*t?1, ``tmp2`` = dt*t?2, ``dvec`` = the five diagonal
    dissipation constants of the direction.  Boundary rows (0 and n-1)
    carry identity blocks (lhsinit), so their elimination steps are
    no-ops and the transformed super-diagonal there is zero.
    """
    n = r.shape[-2]
    lines = r.shape[:-2]
    eye = np.eye(5)
    dmat = np.diag(dvec)
    ccs = np.zeros(lines + (n, 5, 5))  # transformed super-diagonals
    for i in range(1, n - 1):
        aa = -tmp2 * fjac[..., i - 1, :, :] - tmp1 * njac[..., i - 1, :, :] \
            - tmp1 * dmat
        bb = eye + 2.0 * tmp1 * njac[..., i, :, :] + 2.0 * tmp1 * dmat
        cc = tmp2 * fjac[..., i + 1, :, :] - tmp1 * njac[..., i + 1, :, :] \
            - tmp1 * dmat
        # rhs_i -= AA @ rhs_{i-1}           (matvec_sub)
        r[..., i, :] -= (aa @ r[..., i - 1, :, None])[..., 0]
        # BB -= AA @ CC'_{i-1}              (matmul_sub)
        bb -= aa @ ccs[..., i - 1, :, :]
        # CC'_i = BB^-1 CC; rhs_i = BB^-1 rhs_i   (binvcrhs)
        augmented = np.concatenate((cc, r[..., i, :, None]), axis=-1)
        solution = np.linalg.solve(bb, augmented)
        ccs[..., i, :, :] = solution[..., :5]
        r[..., i, :] = solution[..., 5]
    # Row n-1 has BB = I, AA = CC = 0: nothing to do.  Back substitution:
    for i in range(n - 2, -1, -1):
        r[..., i, :] -= (ccs[..., i, :, :] @ r[..., i + 1, :, None])[..., 0]


# --------------------------------------------------------------------- #
# repro.ep.benchmark: boolean-mask compaction into fresh temporaries

def _batch_tallies_reference(batch_index: int
                             ) -> tuple[float, float, np.ndarray]:
    """Tally one batch of 2**MK pairs: returns (sx, sy, annulus counts).

    Batch ``k`` starts the generator at state ``s * a**(2*nk*k) mod 2**46``
    -- the same jump the Fortran code reaches with its binary-method loop --
    so batches are independent and order-insensitive (the basis of EP's
    embarrassing parallelism).
    """
    nk = 1 << MK
    rng = Randlc(EP_SEED, A_DEFAULT)
    rng.skip(2 * nk * batch_index)
    uniforms = rng.batch(2 * nk)
    x = 2.0 * uniforms[0::2] - 1.0
    y = 2.0 * uniforms[1::2] - 1.0
    t = x * x + y * y
    accept = t <= 1.0
    x, y, t = x[accept], y[accept], t[accept]
    factor = np.sqrt(-2.0 * np.log(t) / t)
    gx = x * factor
    gy = y * factor
    bins = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
    counts = np.bincount(bins, minlength=NQ)
    return float(gx.sum()), float(gy.sum()), counts
