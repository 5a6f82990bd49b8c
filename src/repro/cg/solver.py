"""The CG inner solver and its slab-parallel worker functions.

Each worker function operates on a contiguous row block ``[lo, hi)`` --
the row-block decomposition of the OpenMP CG that the paper's Java version
mirrors.  All functions are module-level so the process backend can ship
them to workers.

Memory discipline: the hot per-iteration kernels (mat-vec, z/r update,
final norm) are fused in-place chains into per-worker
:class:`~repro.runtime.arena.ScratchArena` buffers, bit-identical to the
``*_reference`` expression forms of ``tests/kernels/kernel_oracle.py``
(asserted by ``tests/kernels/test_fused_equivalence.py``).  The mat-vec
additionally takes the ``reduceat`` row offsets precomputed once per
execution plan (:func:`compute_reduceat_offsets`) instead of rebuilding
``rowstr[lo:hi] - start`` on all 26 calls of every outer iteration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime.arena import worker_arena
from repro.team.base import Team

#: CG inner iterations per outer step (cgitmax in cg.f).
CG_ITERATIONS = 25

#: Longest run a single BLAS dot may cover.  OpenBLAS threads ``ddot``
#: above 10 000 elements; a dot that stays below that runs on the calling
#: thread, so a serial cell uses one core and its sums do not depend on
#: the host's CPU count.
DOT_CHUNK = 8192


def _init_slab(lo: int, hi: int, x, r, p, q, z) -> None:
    """q = z = 0, r = p = x on the slab (start of conj_grad)."""
    q[lo:hi] = 0.0
    z[lo:hi] = 0.0
    r[lo:hi] = x[lo:hi]
    p[lo:hi] = x[lo:hi]


def _chunked_dot(u, v) -> float:
    """``u @ v`` summed over chunks of at most :data:`DOT_CHUNK` elements.

    Each chunk is one single-threaded BLAS dot, so the result is the same
    on every host; for ``len(u) <= DOT_CHUNK`` it is bitwise
    ``float(u @ v)``.
    """
    total = float(u[:DOT_CHUNK] @ v[:DOT_CHUNK])
    for s in range(DOT_CHUNK, len(u), DOT_CHUNK):
        total += float(u[s:s + DOT_CHUNK] @ v[s:s + DOT_CHUNK])
    return total


def _dot_slab(lo: int, hi: int, u, v) -> float:
    """Partial inner product over the slab (chunked BLAS dot on views;
    allocation-free)."""
    return _chunked_dot(u[lo:hi], v[lo:hi])


def compute_reduceat_offsets(bounds, rowstr, out) -> None:
    """Per-slab ``reduceat`` row offsets, precomputed once per plan.

    For every slab ``(lo, hi)`` in ``bounds``, ``out[lo:hi]`` receives
    ``rowstr[lo:hi] - rowstr[lo]`` -- the row starts relative to that
    slab's first nonzero, exactly what :func:`_matvec_slab` recomputed on
    every call.  Valid for any dispatch using the same plan bounds, which
    the degraded inline fallback also does.
    """
    for lo, hi in bounds:
        if hi > lo:
            out[lo:hi] = rowstr[lo:hi] - rowstr[lo]


def _matvec_slab(lo: int, hi: int, rowstr, colidx, a, x, out,
                 offsets=None) -> None:
    """CSR mat-vec restricted to rows ``[lo, hi)`` (no empty rows assumed).

    Precondition: ``0 <= colidx < len(x)``, checked once when the matrix
    is set up (``CG._setup``).  The gather therefore runs with
    ``mode="clip"``: under the default ``mode="raise"`` numpy gathers into
    a temporary and copies it back so that ``out`` stays untouched on a
    bad index, one extra pass over the buffer per call.

    Fused: gather ``x`` with ``np.take(..., out=, mode="clip")`` into one
    arena buffer, multiply by ``a`` in place, ``reduceat`` straight into
    ``out[lo:hi]``.  Bit-identical to the oracle's
    ``_matvec_slab_reference``.  ``offsets`` is the
    :func:`compute_reduceat_offsets` array; when None the offsets
    are rebuilt per call (reference behavior).
    """
    if hi <= lo:
        return
    start = int(rowstr[lo])
    end = int(rowstr[hi])
    gathered = worker_arena().take((end - start,))
    np.take(x, colidx[start:end], out=gathered, mode="clip")
    np.multiply(a[start:end], gathered, out=gathered)
    idx = offsets[lo:hi] if offsets is not None else rowstr[lo:hi] - start
    np.add.reduceat(gathered, idx, out=out[lo:hi])


def _update_zr_slab(lo: int, hi: int, z, r, p, q, alpha: float) -> None:
    """z += alpha p; r -= alpha q on the slab, fused into one arena
    buffer; bit-identical to the oracle's ``_update_zr_slab_reference``."""
    if hi <= lo:
        return
    t = worker_arena().take((hi - lo,))
    zv = z[lo:hi]
    np.multiply(p[lo:hi], alpha, out=t)
    np.add(zv, t, out=zv)
    rv = r[lo:hi]
    np.multiply(q[lo:hi], alpha, out=t)
    np.subtract(rv, t, out=rv)


def _update_p_slab(lo: int, hi: int, p, r, beta: float) -> None:
    """p = r + beta p on the slab (already in-place; no temporaries)."""
    p[lo:hi] *= beta
    p[lo:hi] += r[lo:hi]


def _norm_diff_slab(lo: int, hi: int, x, r) -> float:
    """Partial sum of (x - r)**2 over the slab, difference fused into an
    arena buffer and squared by :func:`_chunked_dot`; bit-identical to the
    oracle's ``_norm_diff_slab_reference`` for slabs of at most
    :data:`DOT_CHUNK` rows."""
    if hi <= lo:
        return 0.0
    d = worker_arena().take((hi - lo,))
    np.subtract(x[lo:hi], r[lo:hi], out=d)
    return _chunked_dot(d, d)


def _fill_slab(lo: int, hi: int, x, value: float) -> None:
    x[lo:hi] = value


def _scale_into_x_slab(lo: int, hi: int, x, z, factor: float) -> None:
    """x = factor * z on the slab (outer-iteration normalization)."""
    np.multiply(z[lo:hi], factor, out=x[lo:hi])


def conj_grad(team: Team, n: int, rowstr, colidx, a,
              x, z, p, q, r, offsets=None) -> float:
    """One outer step: 25 CG iterations solving ``A z = x``.

    Returns ``rnorm = ||x - A z||_2``, the quantity the Fortran code prints
    each outer iteration.  ``offsets`` is the optional precomputed
    :func:`compute_reduceat_offsets` array (team-shared in the CG
    benchmark driver).
    """
    team.parallel_for(n, _init_slab, x, r, p, q, z)
    rho = team.reduce_sum(n, _dot_slab, r, r)

    for _ in range(CG_ITERATIONS):
        team.parallel_for(n, _matvec_slab, rowstr, colidx, a, p, q, offsets)
        d = team.reduce_sum(n, _dot_slab, p, q)
        alpha = rho / d
        team.parallel_for(n, _update_zr_slab, z, r, p, q, alpha)
        rho0 = rho
        rho = team.reduce_sum(n, _dot_slab, r, r)
        beta = rho / rho0
        team.parallel_for(n, _update_p_slab, p, r, beta)

    team.parallel_for(n, _matvec_slab, rowstr, colidx, a, z, r, offsets)
    return math.sqrt(team.reduce_sum(n, _norm_diff_slab, x, r))

