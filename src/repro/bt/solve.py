"""BT block-tridiagonal line solves (x_solve / y_solve / z_solve).

Each grid line carries a tridiagonal system of 5x5 blocks

    AA_i dU_{i-1} + BB_i dU_i + CC_i dU_{i+1} = rhs_i

with AA/BB/CC assembled from the flux Jacobian (fjac) and viscous
Jacobian (njac) of the direction's 1-D operator.  The block Thomas
elimination is sequential along the line and batched over all lines of
the worker's slab; the 5x5 block inversions use stacked
``numpy.linalg.solve`` (the Fortran uses unpivoted Gauss-Jordan -- an
inconsequential rounding difference at the 1e-8 verification tolerance).

Slab decomposition follows the OpenMP BT: x and y sweeps over interior k
planes, the z sweep over interior j planes.
"""

from __future__ import annotations

import numpy as np

from repro.cfd.constants import CFDConstants


def _jacobians(ul, qsl, sql, vel: int, c: CFDConstants):
    """fjac and njac along the lines; ul has shape (..., n, 5).

    ``vel`` is the component index (1, 2, 3) of the sweep direction's
    momentum.  Returns two arrays of shape (..., n, 5, 5).
    """
    t1 = 1.0 / ul[..., 0]
    t2 = t1 * t1
    t3 = t1 * t2
    shape = ul.shape[:-1] + (5, 5)
    fjac = np.zeros(shape)
    njac = np.zeros(shape)
    uvel = ul[..., vel]
    u5 = ul[..., 4]
    others = [m for m in (1, 2, 3) if m != vel]

    fjac[..., 0, vel] = 1.0
    for m in (1, 2, 3):
        um = ul[..., m]
        if m == vel:
            fjac[..., m, 0] = -(uvel * t2 * uvel) + c.c2 * qsl
            fjac[..., m, m] = (2.0 - c.c2) * (uvel * t1)
            for j in others:
                fjac[..., m, j] = -c.c2 * (ul[..., j] * t1)
            fjac[..., m, 4] = c.c2
        else:
            fjac[..., m, 0] = -(um * uvel) * t2
            fjac[..., m, vel] = um * t1
            fjac[..., m, m] = uvel * t1
    fjac[..., 4, 0] = (c.c2 * 2.0 * sql - c.c1 * u5) * (uvel * t2)
    fjac[..., 4, vel] = c.c1 * u5 * t1 - c.c2 * (qsl + uvel * uvel * t2)
    for j in others:
        fjac[..., 4, j] = -c.c2 * (ul[..., j] * uvel) * t2
    fjac[..., 4, 4] = c.c1 * (uvel * t1)

    row4_col0 = -c.c1345 * t2 * u5
    for m in (1, 2, 3):
        cm = c.con43 * c.c3c4 if m == vel else c.c3c4
        um = ul[..., m]
        njac[..., m, 0] = -cm * t2 * um
        njac[..., m, m] = cm * t1
        njac[..., 4, m] = (cm - c.c1345) * t2 * um
        row4_col0 = row4_col0 - (cm - c.c1345) * t3 * (um * um)
    njac[..., 4, 0] = row4_col0
    njac[..., 4, 4] = c.c1345 * t1
    return fjac, njac


def _block_sweep(r, fjac, njac, tmp1: float, tmp2: float,
                 dvec: np.ndarray) -> None:
    """Block Thomas elimination along the sweep axis (-2 of r).

    ``tmp1`` = dt*t?1, ``tmp2`` = dt*t?2, ``dvec`` = the five diagonal
    dissipation constants of the direction.  Boundary rows (0 and n-1)
    carry identity blocks (lhsinit), so their elimination steps are
    no-ops and the transformed super-diagonal there is zero.

    AA/BB/CC are assembled for every row before the line loop, in place
    of the Jacobians they consume (``fjac`` and ``njac`` are overwritten)
    and one more block array, ``ccs``, whose slot i holds CC_i until
    step i replaces it with the transformed CC'_i (slot 0 stays zero).
    """
    n = r.shape[-2]
    lines = r.shape[:-2]
    dmat = np.diag(dvec)
    ccs = np.empty(lines + (n - 1, 5, 5))
    ccs[..., 0, :, :] = 0.0
    aa_rows = fjac[..., : n - 2, :, :]
    bb_rows = njac[..., 1 : n - 1, :, :]
    cc_rows = ccs[..., 1:, :, :]
    np.multiply(tmp2, fjac[..., 2:, :, :], out=cc_rows)
    np.multiply(-tmp2, aa_rows, out=aa_rows)
    njac *= tmp1
    cc_rows -= njac[..., 2:, :, :]
    cc_rows -= tmp1 * dmat
    aa_rows -= njac[..., : n - 2, :, :]
    aa_rows -= tmp1 * dmat
    # 2 * (tmp1 * njac) is (2 * tmp1) * njac to the bit: doubling is exact.
    bb_rows *= 2.0
    bb_rows += np.eye(5)
    bb_rows += 2.0 * tmp1 * dmat
    for i in range(1, n - 1):
        aa, bb = fjac[..., i - 1, :, :], njac[..., i, :, :]
        # rhs_i -= AA @ rhs_{i-1}           (matvec_sub)
        r[..., i, :] -= (aa @ r[..., i - 1, :, None])[..., 0]
        # BB -= AA @ CC'_{i-1}              (matmul_sub)
        bb -= aa @ ccs[..., i - 1, :, :]
        # CC'_i = BB^-1 CC; rhs_i = BB^-1 rhs_i   (binvcrhs)
        augmented = np.concatenate((ccs[..., i, :, :], r[..., i, :, None]),
                                   axis=-1)
        solution = np.linalg.solve(bb, augmented)
        ccs[..., i, :, :] = solution[..., :5]
        r[..., i, :] = solution[..., 5]
    # Row n-1 has BB = I, AA = CC = 0: nothing to do.  Back substitution:
    for i in range(n - 2, -1, -1):
        r[..., i, :] -= (ccs[..., i, :, :] @ r[..., i + 1, :, None])[..., 0]


def _solve_lines(r, ul, qsl, sql, vel: int, c: CFDConstants) -> None:
    """Assemble and eliminate the lines of one direction (``vel``)."""
    fjac, njac = _jacobians(ul, qsl, sql, vel, c)
    t1, t2, dvec = c.directional[vel]
    _block_sweep(r, fjac, njac, c.dt * t1, c.dt * t2, dvec)


def x_solve_slab(lo: int, hi: int, rhs, u, qs, square,
                 c: CFDConstants) -> None:
    """Block solves along x for interior k planes [1+lo, 1+hi)."""
    if hi <= lo:
        return
    sl = (slice(1 + lo, 1 + hi), slice(1, -1))
    _solve_lines(rhs[sl], u[sl], qs[sl], square[sl], 1, c)


def y_solve_slab(lo: int, hi: int, rhs, u, qs, square,
                 c: CFDConstants) -> None:
    """Block solves along y for interior k planes [1+lo, 1+hi)."""
    if hi <= lo:
        return
    sl = (slice(1 + lo, 1 + hi), slice(None), slice(1, -1))
    ul = np.swapaxes(u[sl], 1, 2)
    qsl = np.swapaxes(qs[sl], 1, 2)
    sql = np.swapaxes(square[sl], 1, 2)
    _solve_lines(np.swapaxes(rhs[sl], 1, 2), ul, qsl, sql, 2, c)


def z_solve_slab(lo: int, hi: int, rhs, u, qs, square,
                 c: CFDConstants) -> None:
    """Block solves along z for interior j planes [1+lo, 1+hi)."""
    if hi <= lo:
        return
    sl = (slice(None), slice(1 + lo, 1 + hi), slice(1, -1))
    ul = np.moveaxis(u[sl], 0, 2)
    qsl = np.moveaxis(qs[sl], 0, 2)
    sql = np.moveaxis(square[sl], 0, 2)
    _solve_lines(np.moveaxis(rhs[sl], 0, 2), ul, qsl, sql, 3, c)
