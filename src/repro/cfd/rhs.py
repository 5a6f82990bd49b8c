"""BT/SP right-hand side (``compute_rhs`` in bt.f/sp.f), slab-parallel.

Two phases, each a ``parallel_for`` over the outermost grid dimension k
(as in the OpenMP versions):

1. ``fields_slab`` -- pointwise derived fields (1/rho, velocities, dynamic
   pressure, and for SP the sound speed) over all planes;
2. ``rhs_slab`` -- central-difference fluxes in all three directions plus
   4th-order dissipation on the interior planes of the slab, finishing
   with the ``rhs *= dt`` scaling.

Phase 2 reads u and the derived fields at k +/- 2 (hence the barrier
between phases) but writes rhs only within its own slab planes.

Memory discipline: both phases are fused in-place ufunc chains writing
into output views and per-worker :class:`~repro.runtime.arena.ScratchArena`
buffers, replicating the left-associative grouping of the expression forms
statement by statement so results stay bit-identical (asserted by
``tests/kernels/test_fused_equivalence.py`` against the expression forms,
the ``*_reference`` functions of ``tests/kernels/kernel_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cfd.constants import CFDConstants
from repro.runtime.arena import worker_arena

_AXIS = {"x": 2, "y": 1, "z": 0}


def fields_slab(lo: int, hi: int, u, rho_i, us, vs, ws, qs, square,
                speed, c: CFDConstants) -> None:
    """Derived pointwise fields for planes [lo, hi); speed is None for BT.

    Fused directly into the output field views (plus two arena scratch
    buffers); bit-identical to the oracle's ``fields_slab_reference`` --
    note ``x ** 2`` lowers to ``x * x`` in NumPy, and scalar multiplies
    commute bitwise.
    """
    if hi <= lo:
        return
    sl = slice(lo, hi)
    arena = worker_arena()
    shape = u[sl, :, :, 0].shape
    t = arena.take(shape)
    t2 = arena.take(shape)

    rho_inv = rho_i[sl]
    np.divide(1.0, u[sl, :, :, 0], out=rho_inv)
    np.multiply(u[sl, :, :, 1], rho_inv, out=us[sl])
    np.multiply(u[sl, :, :, 2], rho_inv, out=vs[sl])
    np.multiply(u[sl, :, :, 3], rho_inv, out=ws[sl])
    sq = square[sl]
    np.multiply(u[sl, :, :, 1], u[sl, :, :, 1], out=t)
    np.multiply(u[sl, :, :, 2], u[sl, :, :, 2], out=t2)
    np.add(t, t2, out=t)
    np.multiply(u[sl, :, :, 3], u[sl, :, :, 3], out=t2)
    np.add(t, t2, out=t)
    np.multiply(t, 0.5, out=t)
    np.multiply(t, rho_inv, out=sq)
    np.multiply(sq, rho_inv, out=qs[sl])
    if speed is not None:
        np.multiply(rho_inv, c.c1c2, out=t)
        np.subtract(u[sl, :, :, 4], sq, out=t2)
        np.multiply(t, t2, out=t)
        np.sqrt(t, out=speed[sl])


def _view(f: np.ndarray, axis: int, offset: int, lo: int, hi: int):
    """Interior view of a scalar field: k in [1+lo, 1+hi), j and i interior,
    with ``axis`` displaced by ``offset``."""
    slices = [slice(1 + lo, 1 + hi), slice(1, -1), slice(1, -1)]
    base = slices[axis]
    stop = base.stop if base.stop > 0 else f.shape[axis] + base.stop
    slices[axis] = slice(base.start + offset, stop + offset)
    return f[tuple(slices)]


def rhs_slab(lo: int, hi: int, u, rhs, forcing, rho_i, us, vs, ws, qs,
             square, c: CFDConstants) -> None:
    """Fluxes + dissipation + dt scaling for interior planes [1+lo, 1+hi).

    ``lo``/``hi`` partition the interior k range 0..nz-3.  The k=0 and
    k=nz-1 boundary planes of rhs are copied from forcing by the slabs
    that touch them.

    Fused into four interior-shaped arena buffers (``acc`` accumulates a
    statement's right-hand side; ``s1``/``s2``/``s3`` hold
    sub-expressions); every chain is the left-associative grouping of the
    matching ``rhs_slab_reference`` statement of the oracle, so results
    are bit-identical.
    """
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

    arena = worker_arena()
    interior = (hi - lo, u.shape[1] - 2, u.shape[2] - 2)
    acc = arena.take(interior)
    s1 = arena.take(interior)
    s2 = arena.take(interior)
    s3 = arena.take(interior)

    def d2u_into(m, axis, out, tmp):
        # CU(+1) - 2.0*CU(0) + CU(-1), left-associated
        np.multiply(CU(m, axis, 0), 2.0, out=tmp)
        np.subtract(CU(m, axis, 1), tmp, out=out)
        np.add(out, CU(m, axis, -1), out=out)

    def d2_into(f, axis, out, tmp):
        np.multiply(C(f, axis, 0), 2.0, out=tmp)
        np.subtract(C(f, axis, 1), tmp, out=out)
        np.add(out, C(f, axis, -1), out=out)

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

        # continuity: d_t1[0]*D2U(0) - t2*(CU(vel,+1) - CU(vel,-1))
        d2u_into(0, axis, acc, s1)
        np.multiply(acc, d_t1[0], out=acc)
        np.subtract(CU(vel, axis, 1), CU(vel, axis, -1), out=s1)
        np.multiply(s1, t2, out=s1)
        np.subtract(acc, s1, out=acc)
        Rm = R[..., 0]
        np.add(Rm, acc, out=Rm)

        # momentum
        for m in (1, 2, 3):
            d2u_into(m, axis, acc, s1)
            np.multiply(acc, d_t1[m], out=acc)
            if m == vel:
                # + con2*con43*((wp1 - 2.0*wc) + wm1)
                np.multiply(wc, 2.0, out=s1)
                np.subtract(wp1, s1, out=s1)
                np.add(s1, wm1, out=s1)
                np.multiply(s1, con2 * c.con43, out=s1)
                np.add(acc, s1, out=acc)
                # - t2*((CU(m,+1)*wp1 - CU(m,-1)*wm1)
                #       + (((CU(4,+1) - sq(+1)) - CU(4,-1)) + sq(-1))*c2)
                np.multiply(CU(m, axis, 1), wp1, out=s1)
                np.multiply(CU(m, axis, -1), wm1, out=s2)
                np.subtract(s1, s2, out=s1)
                np.subtract(CU(4, axis, 1), C(square, axis, 1), out=s2)
                np.subtract(s2, CU(4, axis, -1), out=s2)
                np.add(s2, C(square, axis, -1), out=s2)
                np.multiply(s2, c.c2, out=s2)
                np.add(s1, s2, out=s1)
            else:
                # + con2*D2(vel_fields[m])
                d2_into(vel_fields[m], axis, s1, s2)
                np.multiply(s1, con2, out=s1)
                np.add(acc, s1, out=acc)
                # - t2*(CU(m,+1)*wp1 - CU(m,-1)*wm1)
                np.multiply(CU(m, axis, 1), wp1, out=s1)
                np.multiply(CU(m, axis, -1), wm1, out=s2)
                np.subtract(s1, s2, out=s1)
            np.multiply(s1, t2, out=s1)
            np.subtract(acc, s1, out=acc)
            Rm = R[..., m]
            np.add(Rm, acc, out=Rm)

        # energy
        d2u_into(4, axis, acc, s1)
        np.multiply(acc, d_t1[4], out=acc)
        d2_into(qs, axis, s1, s2)
        np.multiply(s1, con3, out=s1)
        np.add(acc, s1, out=acc)
        # + con4*((wp1*wp1 - (2.0*wc)*wc) + wm1*wm1)
        np.multiply(wp1, wp1, out=s1)
        np.multiply(wc, 2.0, out=s2)
        np.multiply(s2, wc, out=s2)
        np.subtract(s1, s2, out=s1)
        np.multiply(wm1, wm1, out=s2)
        np.add(s1, s2, out=s1)
        np.multiply(s1, con4, out=s1)
        np.add(acc, s1, out=acc)
        # + con5*((CU(4,+1)*ri(+1) - (2.0*CU(4,0))*ri(0)) + CU(4,-1)*ri(-1))
        np.multiply(CU(4, axis, 1), C(rho_i, axis, 1), out=s1)
        np.multiply(CU(4, axis, 0), 2.0, out=s2)
        np.multiply(s2, C(rho_i, axis, 0), out=s2)
        np.subtract(s1, s2, out=s1)
        np.multiply(CU(4, axis, -1), C(rho_i, axis, -1), out=s2)
        np.add(s1, s2, out=s1)
        np.multiply(s1, con5, out=s1)
        np.add(acc, s1, out=acc)
        # - t2*((c1*CU(4,+1) - c2*sq(+1))*wp1 - (c1*CU(4,-1) - c2*sq(-1))*wm1)
        np.multiply(CU(4, axis, 1), c.c1, out=s1)
        np.multiply(C(square, axis, 1), c.c2, out=s2)
        np.subtract(s1, s2, out=s1)
        np.multiply(s1, wp1, out=s1)
        np.multiply(CU(4, axis, -1), c.c1, out=s2)
        np.multiply(C(square, axis, -1), c.c2, out=s3)
        np.subtract(s2, s3, out=s2)
        np.multiply(s2, wm1, out=s2)
        np.subtract(s1, s2, out=s1)
        np.multiply(s1, t2, out=s1)
        np.subtract(acc, s1, out=acc)
        Rm = R[..., 4]
        np.add(Rm, acc, out=Rm)

        _dissipation_u(rhs, u, axis, lo, hi, c.dssp)

    R *= c.dt


def _dissipation_u(rhs, u, axis: int, lo: int, hi: int, dssp: float) -> None:
    """Subtract the 4th-order dissipation of u from rhs on the slab
    interior, with one-sided stencils at the first/last two interior rows
    of the swept axis.  Fused into arena scratch, bit-identical to the
    oracle's ``_dissipation_u_reference``."""
    n = u.shape[axis]
    arena = worker_arena()

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

        # The four boundary bands are one row thick; reuse one scratch pair.
        b1 = arena.take(U(1, 1, 0).shape)
        b2 = arena.take(U(1, 1, 0).shape)

        # k=1: (5.0*U0 - 4.0*U1) + U2
        np.multiply(U(1, 1, 0), 5.0, out=b1)
        np.multiply(U(1, 1, 1), 4.0, out=b2)
        np.subtract(b1, b2, out=b1)
        np.add(b1, U(1, 1, 2), out=b1)
        np.multiply(b1, dssp, out=b1)
        rv = Rv(1, 1)
        np.subtract(rv, b1, out=rv)
        # k=2: ((-4.0*Um1 + 6.0*U0) - 4.0*U1) + U2
        np.multiply(U(2, 2, -1), -4.0, out=b1)
        np.multiply(U(2, 2, 0), 6.0, out=b2)
        np.add(b1, b2, out=b1)
        np.multiply(U(2, 2, 1), 4.0, out=b2)
        np.subtract(b1, b2, out=b1)
        np.add(b1, U(2, 2, 2), out=b1)
        np.multiply(b1, dssp, out=b1)
        rv = Rv(2, 2)
        np.subtract(rv, b1, out=rv)
        # central band: (((Um2 - 4.0*Um1) + 6.0*U0) - 4.0*U1) + U2
        alo, ahi = 3, n - 4
        if ahi >= alo:
            c1 = arena.take(U(alo, ahi, 0).shape)
            c2 = arena.take(U(alo, ahi, 0).shape)
            np.multiply(U(alo, ahi, -1), 4.0, out=c1)
            np.subtract(U(alo, ahi, -2), c1, out=c1)
            np.multiply(U(alo, ahi, 0), 6.0, out=c2)
            np.add(c1, c2, out=c1)
            np.multiply(U(alo, ahi, 1), 4.0, out=c2)
            np.subtract(c1, c2, out=c1)
            np.add(c1, U(alo, ahi, 2), out=c1)
            np.multiply(c1, dssp, out=c1)
            rv = Rv(alo, ahi)
            np.subtract(rv, c1, out=rv)
        # k=n-3: ((Um2 - 4.0*Um1) + 6.0*U0) - 4.0*U1
        i = n - 3
        np.multiply(U(i, i, -1), 4.0, out=b1)
        np.subtract(U(i, i, -2), b1, out=b1)
        np.multiply(U(i, i, 0), 6.0, out=b2)
        np.add(b1, b2, out=b1)
        np.multiply(U(i, i, 1), 4.0, out=b2)
        np.subtract(b1, b2, out=b1)
        np.multiply(b1, dssp, out=b1)
        rv = Rv(i, i)
        np.subtract(rv, b1, out=rv)
        # k=n-2: (Um2 - 4.0*Um1) + 5.0*U0
        i = n - 2
        np.multiply(U(i, i, -1), 4.0, out=b1)
        np.subtract(U(i, i, -2), b1, out=b1)
        np.multiply(U(i, i, 0), 5.0, out=b2)
        np.add(b1, b2, out=b1)
        np.multiply(b1, dssp, out=b1)
        rv = Rv(i, i)
        np.subtract(rv, b1, out=rv)
        return

    # Swept axis is k itself: per-plane stencils so the boundary-modified
    # rows land correctly for any slab bounds.  One scratch pair hoisted
    # out of the loop (a take() per plane would grow the pool).
    plane = u[0, 1:-1, 1:-1, :].shape
    b1 = arena.take(plane)
    b2 = arena.take(plane)
    for k in range(1 + lo, 1 + hi):
        target = rhs[k, 1:-1, 1:-1, :]

        def uk(o, _k=k):
            return u[_k + o, 1:-1, 1:-1, :]

        if k == 1:
            np.multiply(uk(0), 5.0, out=b1)
            np.multiply(uk(1), 4.0, out=b2)
            np.subtract(b1, b2, out=b1)
            np.add(b1, uk(2), out=b1)
        elif k == 2:
            np.multiply(uk(-1), -4.0, out=b1)
            np.multiply(uk(0), 6.0, out=b2)
            np.add(b1, b2, out=b1)
            np.multiply(uk(1), 4.0, out=b2)
            np.subtract(b1, b2, out=b1)
            np.add(b1, uk(2), out=b1)
        elif k == n - 3:
            np.multiply(uk(-1), 4.0, out=b1)
            np.subtract(uk(-2), b1, out=b1)
            np.multiply(uk(0), 6.0, out=b2)
            np.add(b1, b2, out=b1)
            np.multiply(uk(1), 4.0, out=b2)
            np.subtract(b1, b2, out=b1)
        elif k == n - 2:
            np.multiply(uk(-1), 4.0, out=b1)
            np.subtract(uk(-2), b1, out=b1)
            np.multiply(uk(0), 5.0, out=b2)
            np.add(b1, b2, out=b1)
        else:
            np.multiply(uk(-1), 4.0, out=b1)
            np.subtract(uk(-2), b1, out=b1)
            np.multiply(uk(0), 6.0, out=b2)
            np.add(b1, b2, out=b1)
            np.multiply(uk(1), 4.0, out=b2)
            np.subtract(b1, b2, out=b1)
            np.add(b1, uk(2), out=b1)
        np.multiply(b1, dssp, out=b1)
        np.subtract(target, b1, out=target)


def add_slab(lo: int, hi: int, u, rhs) -> None:
    """u += rhs on interior planes [1+lo, 1+hi) (the ``add`` routine)."""
    u[1 + lo : 1 + hi, 1:-1, 1:-1, :] += rhs[1 + lo : 1 + hi, 1:-1, 1:-1, :]

