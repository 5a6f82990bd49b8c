"""MG grid operators (mg.f: resid, psinv, rprj3, interp, comm3, norm2u3).

All arrays are C-ordered with axes ``(i3, i2, i1)`` and one ghost layer per
side, so a level with interior ``m`` has shape ``(m+2, m+2, m+2)``.  Each
operator has a ``_slab`` worker parallelized over the outermost interior
dimension ``i3`` -- the decomposition of the OpenMP MG that the paper's
Java threading mirrors -- plus a team-level driver.

Floating-point grouping follows the Fortran statement order term by term so
results match the reference to the last bit modulo slab-boundary reduction
order.

Memory discipline: the hot slab kernels are written as fused in-place ufunc
chains (``np.add(..., out=)`` etc.) into per-worker
:class:`~repro.runtime.arena.ScratchArena` buffers, so the steady-state
iteration loop allocates nothing -- every temporary the expression-style
kernels used to materialize per call is replaced by a reused arena buffer.
Each fused chain replicates the exact left-associative pairwise grouping of
its expression form, so the fusion is bit-identical to it.  The
expression kernels themselves are the test oracle
``tests/kernels/kernel_oracle.py`` (``*_slab_reference``), which
``tests/kernels/test_fused_equivalence.py`` asserts against.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.arena import worker_arena
from repro.team.base import Team


def comm3(x: np.ndarray) -> None:
    """Periodic ghost-cell exchange, axis i1 then i2 then i3 (comm3)."""
    x[:, :, 0] = x[:, :, -2]
    x[:, :, -1] = x[:, :, 1]
    x[:, 0, :] = x[:, -2, :]
    x[:, -1, :] = x[:, 1, :]
    x[0, :, :] = x[-2, :, :]
    x[-1, :, :] = x[1, :, :]


def zero3(x: np.ndarray) -> None:
    x.fill(0.0)


# --------------------------------------------------------------------- #
# resid: r = v - A u

def _resid_slab(lo: int, hi: int, u, v, r, a) -> None:
    """Residual on interior planes [1+lo, 1+hi), fused into arena scratch.

    Bit-identical to the oracle's ``_resid_slab_reference``: every chain
    below is the left-associative pairwise grouping of the expression
    form.  The result accumulates in scratch and is copied into ``r`` last
    because ``v`` may alias ``r`` (the V-cycle calls
    ``resid(team, u, r, r, a)``).
    """
    if hi <= lo:
        return
    a0, _, a2, a3 = a
    arena = worker_arena()
    uc = u[lo : hi + 2]  # the slab plus one halo plane each side
    n3, n2, n1 = hi - lo, u.shape[1] - 2, u.shape[2]

    u1 = arena.take((n3, n2, n1))
    np.add(uc[1:-1, :-2, :], uc[1:-1, 2:, :], out=u1)
    np.add(u1, uc[:-2, 1:-1, :], out=u1)
    np.add(u1, uc[2:, 1:-1, :], out=u1)

    u2 = arena.take((n3, n2, n1))
    np.add(uc[:-2, :-2, :], uc[:-2, 2:, :], out=u2)
    np.add(u2, uc[2:, :-2, :], out=u2)
    np.add(u2, uc[2:, 2:, :], out=u2)

    acc = arena.take((n3, n2, n1 - 2))
    t = arena.take((n3, n2, n1 - 2))
    center = uc[1:-1, 1:-1, 1:-1]
    np.multiply(center, a0, out=acc)                      # a0 * u
    np.subtract(v[1 + lo : 1 + hi, 1:-1, 1:-1], acc, out=acc)
    np.add(u2[:, :, 1:-1], u1[:, :, :-2], out=t)
    np.add(t, u1[:, :, 2:], out=t)
    np.multiply(t, a2, out=t)
    np.subtract(acc, t, out=acc)
    np.add(u2[:, :, :-2], u2[:, :, 2:], out=t)
    np.multiply(t, a3, out=t)
    np.subtract(acc, t, out=acc)
    r[1 + lo : 1 + hi, 1:-1, 1:-1] = acc


def resid(team: Team, u, v, r, a) -> None:
    """r = v - A u (safe when v is r), then ghost exchange on r."""
    team.parallel_for(u.shape[0] - 2, _resid_slab, u, v, r, a)
    comm3(r)


# --------------------------------------------------------------------- #
# psinv: u = u + S r  (the smoother)

def _psinv_slab(lo: int, hi: int, r, u, c) -> None:
    """Smoother update on interior planes [1+lo, 1+hi), fused into arena
    scratch; bit-identical to the oracle's ``_psinv_slab_reference``."""
    if hi <= lo:
        return
    c0, c1, c2, _ = c
    arena = worker_arena()
    rc = r[lo : hi + 2]
    n3, n2, n1 = hi - lo, r.shape[1] - 2, r.shape[2]

    r1 = arena.take((n3, n2, n1))
    np.add(rc[1:-1, :-2, :], rc[1:-1, 2:, :], out=r1)
    np.add(r1, rc[:-2, 1:-1, :], out=r1)
    np.add(r1, rc[2:, 1:-1, :], out=r1)

    r2 = arena.take((n3, n2, n1))
    np.add(rc[:-2, :-2, :], rc[:-2, 2:, :], out=r2)
    np.add(r2, rc[2:, :-2, :], out=r2)
    np.add(r2, rc[2:, 2:, :], out=r2)

    acc = arena.take((n3, n2, n1 - 2))
    t = arena.take((n3, n2, n1 - 2))
    center = rc[1:-1, 1:-1, :]
    np.multiply(center[:, :, 1:-1], c0, out=acc)          # c0 * r
    np.add(center[:, :, :-2], center[:, :, 2:], out=t)
    np.add(t, r1[:, :, 1:-1], out=t)
    np.multiply(t, c1, out=t)
    np.add(acc, t, out=acc)
    np.add(r2[:, :, 1:-1], r1[:, :, :-2], out=t)
    np.add(t, r1[:, :, 2:], out=t)
    np.multiply(t, c2, out=t)
    np.add(acc, t, out=acc)
    uv = u[1 + lo : 1 + hi, 1:-1, 1:-1]
    np.add(uv, acc, out=uv)


def psinv(team: Team, r, u, c) -> None:
    """u += S r, then ghost exchange on u."""
    team.parallel_for(r.shape[0] - 2, _psinv_slab, r, u, c)
    comm3(u)


# --------------------------------------------------------------------- #
# rprj3: full-weighting restriction fine r -> coarse s

def _fine_slices(lo: int, hi: int, d: int, offset: int) -> slice:
    """Fine-grid slice hitting ``2*jj + 1 - d + offset`` for coarse
    interior indices ``jj`` in [lo, hi) (0-based)."""
    start = 2 * lo + 1 - d + offset
    stop = 2 * (hi - 1) + 1 - d + offset + 1
    return slice(start, stop, 2)


def _rprj3_slab(lo: int, hi: int, r, s, d) -> None:
    """Restriction writing coarse interior planes [1+lo, 1+hi), fused into
    arena scratch; bit-identical to the oracle's
    ``_rprj3_slab_reference``."""
    if hi <= lo:
        return
    m3j, m2j, m1j = s.shape
    d3, d2, d1 = d
    s3 = {o: _fine_slices(1 + lo, 1 + hi, d3, o) for o in (-1, 0, 1)}
    s2 = {o: _fine_slices(1, m2j - 1, d2, o) for o in (-1, 0, 1)}
    s1 = {o: _fine_slices(1, m1j - 1, d1, o) for o in (-1, 0, 1)}

    def R(o3: int, o2: int, o1: int) -> np.ndarray:
        return r[s3[o3], s2[o2], s1[o1]]

    def x1_into(o1: int, out: np.ndarray) -> np.ndarray:
        np.add(R(0, -1, o1), R(0, 1, o1), out=out)
        np.add(out, R(-1, 0, o1), out=out)
        np.add(out, R(1, 0, o1), out=out)
        return out

    def y1_into(o1: int, out: np.ndarray) -> np.ndarray:
        np.add(R(-1, -1, o1), R(1, -1, o1), out=out)
        np.add(out, R(-1, 1, o1), out=out)
        np.add(out, R(1, 1, o1), out=out)
        return out

    arena = worker_arena()
    shape = (hi - lo, m2j - 2, m1j - 2)
    acc = arena.take(shape)
    t = arena.take(shape)
    t2 = arena.take(shape)
    np.multiply(R(0, 0, 0), 0.5, out=acc)                 # 0.5 * center
    np.add(R(0, 0, -1), R(0, 0, 1), out=t)
    np.add(t, x1_into(0, t2), out=t)
    np.multiply(t, 0.25, out=t)
    np.add(acc, t, out=acc)
    np.add(x1_into(-1, t), x1_into(1, t2), out=t)
    np.add(t, y1_into(0, t2), out=t)
    np.multiply(t, 0.125, out=t)
    np.add(acc, t, out=acc)
    np.add(y1_into(-1, t), y1_into(1, t2), out=t)
    np.multiply(t, 0.0625, out=t)
    np.add(acc, t, out=acc)
    s[1 + lo : 1 + hi, 1:-1, 1:-1] = acc


def rprj3(team: Team, r, s) -> None:
    """Restrict fine residual r to coarse grid s, then exchange ghosts."""
    d = tuple(2 if mk == 3 else 1 for mk in r.shape)
    team.parallel_for(s.shape[0] - 2, _rprj3_slab, r, s, d)
    comm3(s)


# --------------------------------------------------------------------- #
# interp: trilinear prolongation, u += P z

def _interp_slab(lo: int, hi: int, z, u) -> None:
    """Prolongation for coarse planes cz3 in [lo, hi) (0-based, up to
    mm3-1), writing fine planes 2*cz3 and 2*cz3+1; fused into arena
    scratch, bit-identical to the oracle's ``_interp_slab_reference``."""
    if hi <= lo:
        return
    mm3, mm2, mm1 = z.shape
    a = slice(lo, hi)          # coarse i3
    ap = slice(lo + 1, hi + 1)  # coarse i3+1
    arena = worker_arena()
    # Fortran z1/z2/z3 lateral sums (statement order preserved):
    z1 = arena.take((hi - lo, mm2 - 1, mm1))
    np.add(z[a, 1:, :], z[a, :-1, :], out=z1)
    z2 = arena.take((hi - lo, mm2 - 1, mm1))
    np.add(z[ap, :-1, :], z[a, :-1, :], out=z2)
    z3 = arena.take((hi - lo, mm2 - 1, mm1))
    np.add(z[ap, 1:, :], z[ap, :-1, :], out=z3)
    np.add(z3, z1, out=z3)

    fe3 = slice(2 * lo, 2 * (hi - 1) + 1, 2)       # fine even planes 2*cz3
    fo3 = slice(2 * lo + 1, 2 * (hi - 1) + 2, 2)   # fine odd planes 2*cz3+1
    fe = slice(0, 2 * (mm2 - 2) + 1, 2)            # fine even rows/cols
    fo = slice(1, 2 * (mm2 - 2) + 2, 2)            # fine odd rows/cols
    c = slice(0, mm1 - 1)                          # coarse i1
    cp = slice(1, mm1)                             # coarse i1+1

    t = arena.take((hi - lo, mm2 - 1, mm1 - 1))

    uv = u[fe3, fe, fe]
    np.add(uv, z[a, :-1, c], out=uv)
    uv = u[fe3, fe, fo]
    np.add(z[a, :-1, cp], z[a, :-1, c], out=t)
    np.multiply(t, 0.5, out=t)
    np.add(uv, t, out=uv)
    uv = u[fe3, fo, fe]
    np.multiply(z1[:, :, c], 0.5, out=t)
    np.add(uv, t, out=uv)
    uv = u[fe3, fo, fo]
    np.add(z1[:, :, c], z1[:, :, cp], out=t)
    np.multiply(t, 0.25, out=t)
    np.add(uv, t, out=uv)
    uv = u[fo3, fe, fe]
    np.multiply(z2[:, :, c], 0.5, out=t)
    np.add(uv, t, out=uv)
    uv = u[fo3, fe, fo]
    np.add(z2[:, :, c], z2[:, :, cp], out=t)
    np.multiply(t, 0.25, out=t)
    np.add(uv, t, out=uv)
    uv = u[fo3, fo, fe]
    np.multiply(z3[:, :, c], 0.25, out=t)
    np.add(uv, t, out=uv)
    uv = u[fo3, fo, fo]
    np.add(z3[:, :, c], z3[:, :, cp], out=t)
    np.multiply(t, 0.125, out=t)
    np.add(uv, t, out=uv)


def interp(team: Team, z, u) -> None:
    """u += P z.  No ghost exchange here, exactly as in the serial mg.f
    (the following resid/psinv re-establish the ghosts they produce)."""
    if 3 in u.shape:
        raise NotImplementedError(
            "interp onto a size-3 grid (interior 1) is not reachable for "
            "the NPB problem classes"
        )
    team.parallel_for(z.shape[0] - 1, _interp_slab, z, u)


# --------------------------------------------------------------------- #
# norm2u3

def _norm_slab(lo: int, hi: int, r) -> tuple[float, float]:
    """Partial (sum of squares, max abs) over interior planes [1+lo, 1+hi).

    The interior view is copied into one contiguous arena buffer, squared
    via a BLAS dot (``d @ d``), then |.|-reduced in place.  The dot's
    accumulation order differs from ``np.sum(interior * interior)`` in the
    last ulp -- the only fused kernel in this module that is not
    bit-identical to its reference (MG verification compares at 1e-8, and
    the equivalence suite pins the norm at 1e-13 relative).
    """
    if hi <= lo:
        return 0.0, 0.0
    interior = r[1 + lo : 1 + hi, 1:-1, 1:-1]
    scratch = worker_arena().take(interior.shape)
    np.copyto(scratch, interior)
    d = scratch.reshape(-1)
    ssq = float(d @ d)
    np.abs(scratch, out=scratch)
    return ssq, float(scratch.max())


def norm2u3(team: Team, r, nx: int, ny: int, nz: int) -> tuple[float, float]:
    """L2 norm (per-point) and max norm of the interior (norm2u3)."""
    partials = team.parallel_for(r.shape[0] - 2, _norm_slab, r)
    total = sum(p[0] for p in partials)
    rnmu = max(p[1] for p in partials)
    rnm2 = float(np.sqrt(total / (float(nx) * ny * nz)))
    return rnm2, rnmu

