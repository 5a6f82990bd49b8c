"""LU triangular sweeps (jacld/blts and jacu/buts), hyperplane-vectorized.

The SSOR lower solve updates each interior point from its already-updated
(i-1, j-1, k-1) neighbors; the upper solve from (i+1, j+1, k+1).  Points
on a hyperplane i+j+k = const are mutually independent, so each wavefront
is one batched NumPy step.  Per-point arithmetic is identical to the
Fortran k/j/i ordering because triangular solves are order-independent
along independent points.

The 5x5 blocks depend on ``u`` alone, and ``u`` is frozen for a whole SSOR
step, so they are *not* built inside the wavefront loop: :func:`jac_slab`
assembles them for a tile of consecutive wavefronts in one perfectly
parallel dispatch (no wavefront dependence), into a team-shared scratch
array indexed by sorted position, and the per-wavefront tasks
:func:`blts_slab` / :func:`buts_slab` keep only what does depend on the
sweep -- gather three neighbor ``rsd`` vectors, three mat-vecs, one
stacked solve, scatter.  A wavefront of a class-S grid has at most 75
points, where building the blocks (~150 NumPy calls) was all per-call
overhead; each block is the same expression of the same ``u`` entries
whichever task evaluates it, so results do not change by a bit.

:data:`JAC_TILE_POINTS` bounds the scratch (1400 B per point), not the
problem class: :func:`wavefront_tiles` cuts the sorted points into runs
of whole wavefronts that fit, which is one tile -- one assembly dispatch
per SSOR step -- up to class W and a few per sweep from class A up.

Workers split each wavefront's point list; the barrier per wavefront is
the synchronization-in-inner-loop pattern the paper blames for LU's lower
thread scalability.
"""

from __future__ import annotations

import numpy as np

from repro.bt.solve import _jacobians
from repro.cfd.constants import CFDConstants

#: Most points whose blocks are held at once: 32 Ki points x 7 blocks x
#: 200 B = 45 MB of scratch at every class (untiled, class A would hold
#: 334 MB beside a 31 MB working set).
JAC_TILE_POINTS = 32 * 1024

#: Off-diagonal blocks as (scratch row, vel, dk, dj, di): the direction
#: and the offset of the neighbor whose state builds the block and whose
#: ``rsd`` it multiplies.
_LOWER = ((0, 3, -1, 0, 0), (1, 2, 0, -1, 0), (2, 1, 0, 0, -1))
_UPPER = ((3, 3, 1, 0, 0), (4, 2, 0, 1, 0), (5, 1, 0, 0, 1))
_DIAG = 6
JAC_BLOCKS = 7


def _wavefronts(nx: int, ny: int, nz: int, group_of):
    """Interior points sorted by ``group_of(kk, jj, ii)``, ties in scan
    order: (idx_k, idx_j, idx_i, offsets) with offsets[s]..offsets[s+1]
    delimiting group s.  Group ids must be dense from 0."""
    kk, jj, ii = (a.ravel() for a in np.meshgrid(
        np.arange(1, nz - 1), np.arange(1, ny - 1), np.arange(1, nx - 1),
        indexing="ij"))
    group = group_of(kk, jj, ii)
    order = np.argsort(group, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(group))))
    return (kk[order].astype(np.int64), jj[order].astype(np.int64),
            ii[order].astype(np.int64), offsets.astype(np.int64))


def hyperplanes(nx: int, ny: int, nz: int):
    """Interior points grouped by wavefront i+j+k.

    Returns (idx_k, idx_j, idx_i, offsets): three flat int64 index arrays
    containing every interior point sorted by wavefront (ties in scan
    order), and offsets[s]..offsets[s+1] delimiting wavefront s.
    """
    return _wavefronts(nx, ny, nz, lambda kk, jj, ii: kk + jj + ii - 3)


def plane_wavefronts(nx: int, ny: int, nz: int):
    """Interior points grouped the way the paper's Java LU sweeps them:
    k planes in order, and anti-diagonals i+j within each plane.

    Same return convention as :func:`hyperplanes`.  Point-for-point the
    arithmetic is identical to the hyperplane grouping (both are valid
    orderings of the same triangular solve); the difference is the group
    count -- (nz-2)*(2n-3)-ish barriers per sweep instead of ~3n, the
    "synchronization inside a loop over one grid dimension" the paper
    blames for LU's lower thread scalability.
    """
    ndiag = (nx - 2) + (ny - 2) - 1    # in-plane wavefronts per k plane
    return _wavefronts(
        nx, ny, nz, lambda kk, jj, ii: (kk - 1) * ndiag + jj + ii - 2)


def wavefront_tiles(offsets) -> list[tuple[int, int]]:
    """Cut the wavefronts into tiles ``(first, last)`` (``last``
    exclusive) of consecutive whole wavefronts holding at most
    :data:`JAC_TILE_POINTS` points; a single wavefront larger than that
    is a tile by itself."""
    tiles = []
    first = 0
    for s in range(1, len(offsets) - 1):
        if offsets[s + 1] - offsets[first] > JAC_TILE_POINTS:
            tiles.append((first, s))
            first = s
    tiles.append((first, len(offsets) - 1))
    return tiles


def jac_scratch_shape(offsets, tiles) -> tuple[int, int, int, int]:
    """Shape of the block scratch that holds any one of ``tiles``."""
    return (JAC_BLOCKS, max(offsets[last] - offsets[first]
                            for first, last in tiles), 5, 5)


def _point_qs(ul):
    """(qs, square) in the convention of the shared Jacobian builder."""
    t1 = 1.0 / ul[..., 0]
    square = 0.5 * (ul[..., 1] ** 2 + ul[..., 2] ** 2
                    + ul[..., 3] ** 2) * t1
    return square * t1, square


def _offdiag_block(u_nb, vel: int, sign: float, c: CFDConstants):
    """Lower (sign=-1) or upper (sign=+1) block for one direction, built
    from the neighbor state ``u_nb``: sign*dt*t2*fjac - dt*t1*(njac + D)."""
    qsl, sql = _point_qs(u_nb)
    fjac, njac = _jacobians(u_nb, qsl, sql, vel, c)
    t1, t2, dvec = c.directional[vel]
    t1 = c.dt * t1
    t2 = c.dt * t2
    block = sign * t2 * fjac - t1 * njac
    block[..., range(5), range(5)] -= t1 * dvec
    return block


def _diag_block(ul, c: CFDConstants):
    """The jacld/jacu diagonal block:
    I + 2*dt*(tx1*Nx + ty1*Ny + tz1*Nz) + 2*dt*diag(t?1 . d?)."""
    qsl, sql = _point_qs(ul)
    d = np.zeros(ul.shape[:-1] + (5, 5))
    ddiag = np.zeros(5)
    for vel in (1, 2, 3):
        _, njac = _jacobians(ul, qsl, sql, vel, c)
        t1, _, dvec = c.directional[vel]
        d += (2.0 * c.dt * t1) * njac
        ddiag += (2.0 * c.dt * t1) * dvec
    d[..., range(5), range(5)] += 1.0 + ddiag
    return d


def jac_slab(lo: int, hi: int, jac, u, idx_k, idx_j, idx_i, start: int,
             lower: bool, upper: bool, c: CFDConstants) -> None:
    """Assemble the blocks of sorted positions [start+lo, start+hi) into
    scratch rows [lo, hi) (jacld + jacu): the diagonal block always, the
    three lower and/or upper blocks as asked."""
    if hi <= lo:
        return
    sel = slice(start + lo, start + hi)
    k, j, i = idx_k[sel], idx_j[sel], idx_i[sel]
    for wanted, sign, blocks in ((lower, -1.0, _LOWER), (upper, 1.0, _UPPER)):
        if wanted:
            for row, vel, dk, dj, di in blocks:
                jac[row, lo:hi] = _offdiag_block(
                    u[k + dk, j + dj, i + di, :], vel, sign, c)
    jac[_DIAG, lo:hi] = _diag_block(u[k, j, i, :], c)


def blts_slab(lo: int, hi: int, rsd, jac, idx_k, idx_j, idx_i,
              start: int, row: int, omega: float) -> None:
    """Lower-triangular update for points [start+lo, start+hi) of a
    wavefront (blts); their blocks are scratch rows [row+lo, row+hi)."""
    if hi <= lo:
        return
    sel = slice(start + lo, start + hi)
    rows = slice(row + lo, row + hi)
    k, j, i = idx_k[sel], idx_j[sel], idx_i[sel]

    acc = rsd[k, j, i, :]
    for b, _, dk, dj, di in _LOWER:
        v_nb = rsd[k + dk, j + dj, i + di, :]
        acc -= omega * (jac[b, rows] @ v_nb[..., None])[..., 0]

    rsd[k, j, i, :] = np.linalg.solve(jac[_DIAG, rows],
                                      acc[..., None])[..., 0]


def buts_slab(lo: int, hi: int, rsd, jac, idx_k, idx_j, idx_i,
              start: int, row: int, omega: float) -> None:
    """Upper-triangular update for points [start+lo, start+hi) of a
    wavefront (buts); their blocks are scratch rows [row+lo, row+hi)."""
    if hi <= lo:
        return
    sel = slice(start + lo, start + hi)
    rows = slice(row + lo, row + hi)
    k, j, i = idx_k[sel], idx_j[sel], idx_i[sel]

    tv = np.zeros((len(k), 5))
    for b, _, dk, dj, di in _UPPER:
        v_nb = rsd[k + dk, j + dj, i + di, :]
        tv += omega * (jac[b, rows] @ v_nb[..., None])[..., 0]

    rsd[k, j, i, :] -= np.linalg.solve(jac[_DIAG, rows],
                                       tv[..., None])[..., 0]
