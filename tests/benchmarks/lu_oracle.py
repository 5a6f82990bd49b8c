"""Reference LU sweeps: the 5x5 blocks rebuilt inside every wavefront task.

This is how ``repro.lu.sweep`` computed ``blts``/``buts`` before the
blocks were assembled once per SSOR step: each per-wavefront task gathers
``u``, builds its own Jacobian blocks and solves.  It is kept as the
oracle the production kernels must match bit for bit (see
``test_lu_block_assembly.py``), not as a second implementation: nothing
under ``src/`` imports it, and it reads its constants by name from
``CFDConstants`` so it shares none of the production assembly code except
the Jacobian builder itself.
"""

from __future__ import annotations

import numpy as np

from repro.bt.solve import _jacobians
from repro.cfd.constants import CFDConstants
from repro.lu.benchmark import _scale_rsd_slab, _update_u_slab
from repro.lu.params import OMEGA

_T1 = {"x": "tx1", "y": "ty1", "z": "tz1"}
_T2 = {"x": "tx2", "y": "ty2", "z": "tz2"}


def _point_qs(ul):
    t1 = 1.0 / ul[..., 0]
    square = 0.5 * (ul[..., 1] ** 2 + ul[..., 2] ** 2
                    + ul[..., 3] ** 2) * t1
    return square * t1, square


def _offdiag_block(u_nb, direction: str, vel: int, sign: float,
                   c: CFDConstants):
    qsl, sql = _point_qs(u_nb)
    fjac, njac = _jacobians(u_nb, qsl, sql, vel, c)
    t1 = c.dt * getattr(c, _T1[direction])
    t2 = c.dt * getattr(c, _T2[direction])
    dvec = np.array([getattr(c, f"d{direction}{m}") for m in range(1, 6)])
    block = sign * t2 * fjac - t1 * njac
    block[..., range(5), range(5)] -= t1 * dvec
    return block


def _diag_block(ul, c: CFDConstants):
    qsl, sql = _point_qs(ul)
    d = np.zeros(ul.shape[:-1] + (5, 5))
    ddiag = np.zeros(5)
    for direction, vel in (("x", 1), ("y", 2), ("z", 3)):
        _, njac = _jacobians(ul, qsl, sql, vel, c)
        t1 = getattr(c, _T1[direction])
        d += (2.0 * c.dt * t1) * njac
        ddiag += (2.0 * c.dt * t1) * np.array(
            [getattr(c, f"d{direction}{m}") for m in range(1, 6)])
    d[..., range(5), range(5)] += 1.0 + ddiag
    return d


def blts_slab(lo: int, hi: int, rsd, u, idx_k, idx_j, idx_i,
              start: int, omega: float, c: CFDConstants) -> None:
    """Lower-triangular update for points [start+lo, start+hi) of a
    wavefront (jacld + blts)."""
    if hi <= lo:
        return
    sel = slice(start + lo, start + hi)
    k, j, i = idx_k[sel], idx_j[sel], idx_i[sel]

    acc = rsd[k, j, i, :].copy()
    for direction, vel, dk, dj, di in (("z", 3, -1, 0, 0),
                                       ("y", 2, 0, -1, 0),
                                       ("x", 1, 0, 0, -1)):
        block = _offdiag_block(u[k + dk, j + dj, i + di, :], direction,
                               vel, -1.0, c)
        v_nb = rsd[k + dk, j + dj, i + di, :]
        acc -= omega * (block @ v_nb[..., None])[..., 0]

    d = _diag_block(u[k, j, i, :], c)
    rsd[k, j, i, :] = np.linalg.solve(d, acc[..., None])[..., 0]


def buts_slab(lo: int, hi: int, rsd, u, idx_k, idx_j, idx_i,
              start: int, omega: float, c: CFDConstants) -> None:
    """Upper-triangular update for points [start+lo, start+hi) of a
    wavefront (jacu + buts)."""
    if hi <= lo:
        return
    sel = slice(start + lo, start + hi)
    k, j, i = idx_k[sel], idx_j[sel], idx_i[sel]

    tv = np.zeros((len(k), 5))
    for direction, vel, dk, dj, di in (("z", 3, 1, 0, 0),
                                       ("y", 2, 0, 1, 0),
                                       ("x", 1, 0, 0, 1)):
        block = _offdiag_block(u[k + dk, j + dj, i + di, :], direction,
                               vel, 1.0, c)
        v_nb = rsd[k + dk, j + dj, i + di, :]
        tv += omega * (block @ v_nb[..., None])[..., 0]

    d = _diag_block(u[k, j, i, :], c)
    rsd[k, j, i, :] -= np.linalg.solve(d, tv[..., None])[..., 0]


def ssor(lu, niter: int) -> None:
    """``LU._ssor`` with per-wavefront assembly, on a set-up ``lu``: same
    team, same arrays, same wavefront order, same ``scale``/``add``/
    ``rhs`` tasks; only the two sweeps differ."""
    c = lu.constants
    team = lu.team
    tmp = 1.0 / (OMEGA * (2.0 - OMEGA))
    offsets = lu._offsets
    nplanes = len(offsets) - 1
    for _ in range(niter):
        team.parallel_for(c.nz - 2, _scale_rsd_slab, lu.rsd, c.dt)
        for s in range(nplanes):
            team.parallel_for(offsets[s + 1] - offsets[s], blts_slab,
                              lu.rsd, lu.u, lu.idx_k, lu.idx_j, lu.idx_i,
                              offsets[s], OMEGA, c)
        for s in range(nplanes - 1, -1, -1):
            team.parallel_for(offsets[s + 1] - offsets[s], buts_slab,
                              lu.rsd, lu.u, lu.idx_k, lu.idx_j, lu.idx_i,
                              offsets[s], OMEGA, c)
        team.parallel_for(c.nz - 2, _update_u_slab, lu.u, lu.rsd, tmp)
        lu._rhs()
