"""SP scalar pentadiagonal line solves (x_solve / y_solve / z_solve).

Each sweep solves, for every grid line in its direction, three scalar
pentadiagonal systems sharing one matrix (the u +/- 0 eigenvalues) plus
two more for the u +/- c acoustic eigenvalues (lhsp / lhsm).  All five
are eliminated at once: one factor array holds each component's matrix,
so each step of the sequential Thomas elimination is a handful of NumPy
calls over every line and component of the worker's slab.

Slab decomposition follows the OpenMP SP: x and y sweeps are partitioned
over interior k planes, the z sweep over interior j planes.
"""

from __future__ import annotations

import numpy as np

from repro.cfd.constants import CFDConstants


def _build_lhs(cv, rho_line, spd, dt1, dt2, c2dt1, c: CFDConstants):
    """Factor array ``(n, 5 coefficients, *lines, 5 components)``: lhs
    for components 0-2, lhsp for 3, lhsm for 4.  ``cv``/``rho_line``/
    ``spd`` are ``(*lines, n)``, n including the boundary points.
    """
    n = cv.shape[-1]
    cv, rho_line, spd = (np.moveaxis(a, -1, 0) for a in (cv, rho_line, spd))
    lhs = np.zeros((n, 5) + cv.shape[1:])
    lhs[0, 2] = 1.0
    lhs[n - 1, 2] = 1.0
    sl = slice(1, n - 1)
    lhs[sl, 1] = -dt2 * cv[: n - 2] - dt1 * rho_line[: n - 2]
    lhs[sl, 2] = 1.0 + c2dt1 * rho_line[sl]
    lhs[sl, 3] = dt2 * cv[2:] - dt1 * rho_line[2:]

    # 4th-order dissipation terms on the matrix.
    lhs[1, 2] += c.comz5
    lhs[1, 3] -= c.comz4
    lhs[1, 4] += c.comz1
    lhs[2, 1] -= c.comz4
    lhs[2, 2] += c.comz6
    lhs[2, 3] -= c.comz4
    lhs[2, 4] += c.comz1
    mid = slice(3, n - 3)
    lhs[mid, 0] += c.comz1
    lhs[mid, 1] -= c.comz4
    lhs[mid, 2] += c.comz6
    lhs[mid, 3] -= c.comz4
    lhs[mid, 4] += c.comz1
    lhs[n - 3, 0] += c.comz1
    lhs[n - 3, 1] -= c.comz4
    lhs[n - 3, 2] += c.comz6
    lhs[n - 3, 3] -= c.comz4
    lhs[n - 2, 0] += c.comz1
    lhs[n - 2, 1] -= c.comz4
    lhs[n - 2, 2] += c.comz5

    f = np.repeat(lhs[..., None], 5, axis=-1)
    f[sl, 1, ..., 3] -= dt2 * spd[: n - 2]
    f[sl, 3, ..., 3] += dt2 * spd[2:]
    f[sl, 1, ..., 4] += dt2 * spd[: n - 2]
    f[sl, 3, ..., 4] -= dt2 * spd[2:]
    return f


def _solve_factor(f, x) -> None:
    """Solve the systems of factor ``f`` (overwritten) for ``x`` of shape
    ``(n, *lines, 5)`` in place, each call on a whole ``(*lines, 5)`` row.
    """
    n = x.shape[0]
    fac = np.empty(x.shape[1:])
    t = np.empty(x.shape[1:])
    for i in range(n - 1):
        _, _, d0, e0, g0 = f[i]
        x0 = x[i]
        np.divide(1.0, d0, out=fac)
        e0 *= fac
        g0 *= fac
        x0 *= fac
        _, l1, d1, e1, _ = f[i + 1]
        x1 = x[i + 1]
        d1 -= np.multiply(l1, e0, out=t)
        e1 -= np.multiply(l1, g0, out=t)
        x1 -= np.multiply(l1, x0, out=t)
        if i == n - 2:
            break
        l0, b2, d2, _, _ = f[i + 2]
        x2 = x[i + 2]
        b2 -= np.multiply(l0, e0, out=t)
        d2 -= np.multiply(l0, g0, out=t)
        x2 -= np.multiply(l0, x0, out=t)
    # Last row, then back substitution.
    x1 = x[n - 1]
    x1 *= np.divide(1.0, f[n - 1][2], out=fac)
    x0 = x[n - 2]
    x0 -= np.multiply(f[n - 2][3], x1, out=t)
    for i in range(n - 3, -1, -1):
        _, _, _, e0, g0 = f[i]
        x0 = x[i]
        np.multiply(e0, x[i + 1], out=t)
        t += np.multiply(g0, x[i + 2], out=fac)
        x0 -= t


def _sweep(r, cv, rho_line, spd, dt1, dt2, c2dt1, c: CFDConstants) -> None:
    """Solve all five systems along the lines of ``r`` (``(*lines, n, 5)``,
    a view into rhs) in a contiguous copy, written back through the view."""
    f = _build_lhs(cv, rho_line, spd, dt1, dt2, c2dt1, c)
    rows = np.moveaxis(r, -2, 0)
    x = rows.copy()
    _solve_factor(f, x)
    rows[...] = x


def x_solve_slab(lo: int, hi: int, rhs, rho_i, us, speed,
                 c: CFDConstants) -> None:
    """Pentadiagonal solves along x for interior k planes [1+lo, 1+hi)."""
    if hi <= lo:
        return
    sl = (slice(1 + lo, 1 + hi), slice(1, -1), slice(None))
    ru1 = c.c3c4 * rho_i[sl]
    cv = us[sl]
    rhon = np.maximum(
        np.maximum(c.dx2 + c.con43 * ru1, c.dx5 + c.c1c5 * ru1),
        np.maximum(c.dxmax + ru1, np.float64(c.dx1)),
    )
    r = rhs[sl]
    _sweep(r, cv, rhon, speed[sl], c.dttx1, c.dttx2, c.c2dttx1, c)


def y_solve_slab(lo: int, hi: int, rhs, rho_i, vs, speed,
                 c: CFDConstants) -> None:
    """Pentadiagonal solves along y for interior k planes [1+lo, 1+hi)."""
    if hi <= lo:
        return
    sl = (slice(1 + lo, 1 + hi), slice(None), slice(1, -1))
    ru1 = c.c3c4 * np.swapaxes(rho_i[sl], 1, 2)
    cv = np.swapaxes(vs[sl], 1, 2)
    rhoq = np.maximum(
        np.maximum(c.dy3 + c.con43 * ru1, c.dy5 + c.c1c5 * ru1),
        np.maximum(c.dymax + ru1, np.float64(c.dy1)),
    )
    spd = np.swapaxes(speed[sl], 1, 2)
    r = np.swapaxes(rhs[sl], 1, 2)
    _sweep(r, cv, rhoq, spd, c.dtty1, c.dtty2, c.c2dtty1, c)


def z_solve_slab(lo: int, hi: int, rhs, rho_i, ws, speed,
                 c: CFDConstants) -> None:
    """Pentadiagonal solves along z for interior j planes [1+lo, 1+hi)."""
    if hi <= lo:
        return
    sl = (slice(None), slice(1 + lo, 1 + hi), slice(1, -1))
    ru1 = c.c3c4 * np.moveaxis(rho_i[sl], 0, 2)
    cv = np.moveaxis(ws[sl], 0, 2)
    rhos = np.maximum(
        np.maximum(c.dz4 + c.con43 * ru1, c.dz5 + c.c1c5 * ru1),
        np.maximum(c.dzmax + ru1, np.float64(c.dz1)),
    )
    spd = np.moveaxis(speed[sl], 0, 2)
    r = np.moveaxis(rhs[sl], 0, 2)
    _sweep(r, cv, rhos, spd, c.dttz1, c.dttz2, c.c2dttz1, c)
