"""The paper's basic CFD operations (Table 1), in multiple language styles.

Section 3 of the paper benchmarks five operations on an 81x81x100 grid to
calibrate the cost of Fortran-to-Java translation choices:

1. array assignment (10 iterations),
2. first-order star stencil filter,
3. second-order star stencil filter,
4. multiplication of a 3-D array of 5x5 matrices by 5-D vectors,
5. reduction sum of a 4-D array.

Each operation is implemented here in the styles the paper compares:

``numpy``
    Vectorized NumPy over linearized buffers -- the compiled,
    regular-stride machine code role that f77 plays in the paper.  The
    stencil and matvec kernels are fused in-place ufunc chains into
    per-worker :class:`~repro.runtime.arena.ScratchArena` buffers
    (bit-identical to the ``*_reference`` expression forms, the test
    oracle ``tests/kernels/kernel_oracle.py``).

``python``
    Interpreted per-element loops over a *linearized* 1-D buffer with
    explicit index arithmetic -- the JIT-handicapped Java role (the paper's
    chosen translation style).

``python_multidim``
    Interpreted loops over nested lists, preserving array dimensions --
    the translation option the paper measured to be 2-3x slower than
    linearized arrays and rejected.

The numpy style also has a slab variant for team parallelism, mirroring
the paper's multithreaded basic-op measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.arena import worker_arena

#: Grid used by the paper's Table 1 (nx x ny x nz).
PAPER_GRID = (81, 81, 100)

#: Default grid for quick runs of the interpreted styles.
SMALL_GRID = (18, 18, 22)

#: Stencil coefficients (arbitrary fixed values; identical across styles).
C0, C1, C2 = 0.5, 1.0 / 6.0, 1.0 / 12.0

#: Iterations of the assignment operation (as in Table 1).
ASSIGN_ITERS = 10


@dataclass(frozen=True)
class Workload:
    """Input arrays for the basic operations on an (nx, ny, nz) grid."""

    nx: int
    ny: int
    nz: int
    a: np.ndarray          # (nz, ny, nx) scalar field
    matrices: np.ndarray   # (nz, ny, nx, 5, 5)
    vectors: np.ndarray    # (nz, ny, nx, 5)
    four_d: np.ndarray     # (nz, ny, nx, 5)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nz, self.ny, self.nx)


def make_workload(grid: tuple[int, int, int] = SMALL_GRID,
                  seed: int = 12345) -> Workload:
    """Deterministic random inputs for all five operations."""
    nx, ny, nz = grid
    rng = np.random.default_rng(seed)
    return Workload(
        nx=nx, ny=ny, nz=nz,
        a=rng.random((nz, ny, nx)),
        matrices=rng.random((nz, ny, nx, 5, 5)),
        vectors=rng.random((nz, ny, nx, 5)),
        four_d=rng.random((nz, ny, nx, 5)),
    )


# ===================================================================== #
# numpy ("Fortran") style
# ===================================================================== #

def numpy_assignment(w: Workload, out: np.ndarray) -> None:
    """out = a, ASSIGN_ITERS times."""
    for _ in range(ASSIGN_ITERS):
        out[...] = w.a


def numpy_stencil1(w: Workload, out: np.ndarray) -> None:
    """7-point first-order star filter on the interior, fused into the
    output interior plus one arena buffer; bit-identical to the oracle's
    ``numpy_stencil1_reference``.  An entry point, not a slab task, so it
    opens its own arena generation."""
    a = w.a
    arena = worker_arena()
    arena.next_dispatch()
    t = arena.take(a[1:-1, 1:-1, 1:-1].shape)
    np.add(a[1:-1, 1:-1, :-2], a[1:-1, 1:-1, 2:], out=t)
    np.add(t, a[1:-1, :-2, 1:-1], out=t)
    np.add(t, a[1:-1, 2:, 1:-1], out=t)
    np.add(t, a[:-2, 1:-1, 1:-1], out=t)
    np.add(t, a[2:, 1:-1, 1:-1], out=t)
    np.multiply(t, C1, out=t)
    ov = out[1:-1, 1:-1, 1:-1]
    np.multiply(a[1:-1, 1:-1, 1:-1], C0, out=ov)
    np.add(ov, t, out=ov)


def numpy_stencil2(w: Workload, out: np.ndarray) -> None:
    """13-point second-order star filter on the deep interior, fused;
    bit-identical to the oracle's ``numpy_stencil2_reference``."""
    a = w.a
    arena = worker_arena()
    arena.next_dispatch()
    t = arena.take(a[2:-2, 2:-2, 2:-2].shape)
    ov = out[2:-2, 2:-2, 2:-2]
    np.multiply(a[2:-2, 2:-2, 2:-2], C0, out=ov)
    np.add(a[2:-2, 2:-2, 1:-3], a[2:-2, 2:-2, 3:-1], out=t)
    np.add(t, a[2:-2, 1:-3, 2:-2], out=t)
    np.add(t, a[2:-2, 3:-1, 2:-2], out=t)
    np.add(t, a[1:-3, 2:-2, 2:-2], out=t)
    np.add(t, a[3:-1, 2:-2, 2:-2], out=t)
    np.multiply(t, C1, out=t)
    np.add(ov, t, out=ov)
    np.add(a[2:-2, 2:-2, :-4], a[2:-2, 2:-2, 4:], out=t)
    np.add(t, a[2:-2, :-4, 2:-2], out=t)
    np.add(t, a[2:-2, 4:, 2:-2], out=t)
    np.add(t, a[:-4, 2:-2, 2:-2], out=t)
    np.add(t, a[4:, 2:-2, 2:-2], out=t)
    np.multiply(t, C2, out=t)
    np.add(ov, t, out=ov)


def numpy_matvec5(w: Workload, out: np.ndarray) -> None:
    """out[p] = M[p] @ x[p] at every grid point, matmul routed into an
    arena buffer; bit-identical to the oracle's
    ``numpy_matvec5_reference``."""
    arena = worker_arena()
    arena.next_dispatch()
    t = arena.take(w.vectors.shape + (1,))
    np.matmul(w.matrices, w.vectors[..., None], out=t)
    out[...] = t[..., 0]


def numpy_reduction(w: Workload) -> float:
    """Sum of all 4-D array elements."""
    return float(w.four_d.sum())


# slab variants for team parallelism (over the z axis) ----------------- #

def numpy_assignment_slab(lo: int, hi: int, a, out) -> None:
    for _ in range(ASSIGN_ITERS):
        out[lo:hi] = a[lo:hi]


def numpy_stencil1_slab(lo: int, hi: int, a, out) -> None:
    """Slab 7-point filter, fused; bit-identical to the oracle's
    ``numpy_stencil1_slab_reference``."""
    lo1 = max(lo, 1)
    hi1 = min(hi, a.shape[0] - 1)
    if hi1 <= lo1:
        return
    t = worker_arena().take((hi1 - lo1,) + a[0, 1:-1, 1:-1].shape)
    np.add(a[lo1:hi1, 1:-1, :-2], a[lo1:hi1, 1:-1, 2:], out=t)
    np.add(t, a[lo1:hi1, :-2, 1:-1], out=t)
    np.add(t, a[lo1:hi1, 2:, 1:-1], out=t)
    np.add(t, a[lo1 - 1:hi1 - 1, 1:-1, 1:-1], out=t)
    np.add(t, a[lo1 + 1:hi1 + 1, 1:-1, 1:-1], out=t)
    np.multiply(t, C1, out=t)
    ov = out[lo1:hi1, 1:-1, 1:-1]
    np.multiply(a[lo1:hi1, 1:-1, 1:-1], C0, out=ov)
    np.add(ov, t, out=ov)


def numpy_stencil2_slab(lo: int, hi: int, a, out) -> None:
    """Slab 13-point filter, fused; bit-identical to the oracle's
    ``numpy_stencil2_slab_reference``."""
    lo2 = max(lo, 2)
    hi2 = min(hi, a.shape[0] - 2)
    if hi2 <= lo2:
        return
    t = worker_arena().take((hi2 - lo2,) + a[0, 2:-2, 2:-2].shape)
    ov = out[lo2:hi2, 2:-2, 2:-2]
    np.multiply(a[lo2:hi2, 2:-2, 2:-2], C0, out=ov)
    np.add(a[lo2:hi2, 2:-2, 1:-3], a[lo2:hi2, 2:-2, 3:-1], out=t)
    np.add(t, a[lo2:hi2, 1:-3, 2:-2], out=t)
    np.add(t, a[lo2:hi2, 3:-1, 2:-2], out=t)
    np.add(t, a[lo2 - 1:hi2 - 1, 2:-2, 2:-2], out=t)
    np.add(t, a[lo2 + 1:hi2 + 1, 2:-2, 2:-2], out=t)
    np.multiply(t, C1, out=t)
    np.add(ov, t, out=ov)
    np.add(a[lo2:hi2, 2:-2, :-4], a[lo2:hi2, 2:-2, 4:], out=t)
    np.add(t, a[lo2:hi2, :-4, 2:-2], out=t)
    np.add(t, a[lo2:hi2, 4:, 2:-2], out=t)
    np.add(t, a[lo2 - 2:hi2 - 2, 2:-2, 2:-2], out=t)
    np.add(t, a[lo2 + 2:hi2 + 2, 2:-2, 2:-2], out=t)
    np.multiply(t, C2, out=t)
    np.add(ov, t, out=ov)


def numpy_matvec5_slab(lo: int, hi: int, matrices, vectors, out) -> None:
    """Slab pointwise mat-vec, matmul routed into an arena buffer;
    bit-identical to the oracle's ``numpy_matvec5_slab_reference``."""
    if hi <= lo:
        return
    t = worker_arena().take((hi - lo,) + vectors.shape[1:] + (1,))
    np.matmul(matrices[lo:hi], vectors[lo:hi, ..., None], out=t)
    out[lo:hi] = t[..., 0]


def numpy_reduction_slab(lo: int, hi: int, four_d) -> float:
    return float(four_d[lo:hi].sum())


# ===================================================================== #
# interpreted linearized ("Java") style
# ===================================================================== #

def _linearize(array: np.ndarray) -> list[float]:
    return array.ravel().tolist()


def python_assignment(a: list, out: list, n: int) -> None:
    for _ in range(ASSIGN_ITERS):
        for p in range(n):
            out[p] = a[p]


def python_stencil1(a: list, out: list, nx: int, ny: int, nz: int) -> None:
    sxy = nx * ny
    for k in range(1, nz - 1):
        for j in range(1, ny - 1):
            base = k * sxy + j * nx
            for i in range(1, nx - 1):
                p = base + i
                out[p] = (C0 * a[p]
                          + C1 * (a[p - 1] + a[p + 1]
                                  + a[p - nx] + a[p + nx]
                                  + a[p - sxy] + a[p + sxy]))


def python_stencil2(a: list, out: list, nx: int, ny: int, nz: int) -> None:
    sxy = nx * ny
    for k in range(2, nz - 2):
        for j in range(2, ny - 2):
            base = k * sxy + j * nx
            for i in range(2, nx - 2):
                p = base + i
                out[p] = (C0 * a[p]
                          + C1 * (a[p - 1] + a[p + 1]
                                  + a[p - nx] + a[p + nx]
                                  + a[p - sxy] + a[p + sxy])
                          + C2 * (a[p - 2] + a[p + 2]
                                  + a[p - 2 * nx] + a[p + 2 * nx]
                                  + a[p - 2 * sxy] + a[p + 2 * sxy]))


def python_matvec5(m: list, x: list, out: list, npoints: int) -> None:
    for p in range(npoints):
        mbase = p * 25
        xbase = p * 5
        for row in range(5):
            rbase = mbase + row * 5
            acc = 0.0
            for col in range(5):
                acc += m[rbase + col] * x[xbase + col]
            out[xbase + row] = acc


def python_reduction(values: list) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


# ===================================================================== #
# interpreted multidimensional style (the rejected translation option)
# ===================================================================== #

def _nested(array: np.ndarray) -> list:
    return array.tolist()


def python_multidim_assignment(a: list, out: list,
                               nx: int, ny: int, nz: int) -> None:
    for _ in range(ASSIGN_ITERS):
        for k in range(nz):
            ak = a[k]
            ok = out[k]
            for j in range(ny):
                akj = ak[j]
                okj = ok[j]
                for i in range(nx):
                    okj[i] = akj[i]


def python_multidim_stencil1(a: list, out: list,
                             nx: int, ny: int, nz: int) -> None:
    for k in range(1, nz - 1):
        for j in range(1, ny - 1):
            for i in range(1, nx - 1):
                out[k][j][i] = (C0 * a[k][j][i]
                                + C1 * (a[k][j][i - 1] + a[k][j][i + 1]
                                        + a[k][j - 1][i] + a[k][j + 1][i]
                                        + a[k - 1][j][i] + a[k + 1][j][i]))


def python_multidim_stencil2(a: list, out: list,
                             nx: int, ny: int, nz: int) -> None:
    for k in range(2, nz - 2):
        for j in range(2, ny - 2):
            for i in range(2, nx - 2):
                out[k][j][i] = (
                    C0 * a[k][j][i]
                    + C1 * (a[k][j][i - 1] + a[k][j][i + 1]
                            + a[k][j - 1][i] + a[k][j + 1][i]
                            + a[k - 1][j][i] + a[k + 1][j][i])
                    + C2 * (a[k][j][i - 2] + a[k][j][i + 2]
                            + a[k][j - 2][i] + a[k][j + 2][i]
                            + a[k - 2][j][i] + a[k + 2][j][i]))


def python_multidim_matvec5(m: list, x: list, out: list,
                            nx: int, ny: int, nz: int) -> None:
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                mp = m[k][j][i]
                xp = x[k][j][i]
                op = out[k][j][i]
                for row in range(5):
                    mrow = mp[row]
                    acc = 0.0
                    for col in range(5):
                        acc += mrow[col] * xp[col]
                    op[row] = acc


def python_multidim_reduction(values: list,
                              nx: int, ny: int, nz: int) -> float:
    total = 0.0
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                vp = values[k][j][i]
                for m in range(5):
                    total += vp[m]
    return total


# ===================================================================== #
# uniform runner
# ===================================================================== #

#: Operation names in Table 1 order.
OPERATIONS = ("assignment", "stencil1", "stencil2", "matvec5", "reduction")

STYLES = ("numpy", "python", "python_multidim")


def run_operation(op: str, style: str, w: Workload):
    """Run one basic operation in one style; returns the result array or
    reduction value (used by the equivalence tests and benchmarks)."""
    nx, ny, nz = w.nx, w.ny, w.nz
    if style == "numpy":
        if op == "assignment":
            out = np.empty_like(w.a)
            numpy_assignment(w, out)
            return out
        if op == "stencil1":
            out = np.zeros_like(w.a)
            numpy_stencil1(w, out)
            return out
        if op == "stencil2":
            out = np.zeros_like(w.a)
            numpy_stencil2(w, out)
            return out
        if op == "matvec5":
            out = np.empty_like(w.vectors)
            numpy_matvec5(w, out)
            return out
        if op == "reduction":
            return numpy_reduction(w)
    elif style == "python":
        if op == "assignment":
            a = _linearize(w.a)
            out = [0.0] * len(a)
            python_assignment(a, out, len(a))
            return np.asarray(out).reshape(w.a.shape)
        if op == "stencil1":
            a = _linearize(w.a)
            out = [0.0] * len(a)
            python_stencil1(a, out, nx, ny, nz)
            return np.asarray(out).reshape(w.a.shape)
        if op == "stencil2":
            a = _linearize(w.a)
            out = [0.0] * len(a)
            python_stencil2(a, out, nx, ny, nz)
            return np.asarray(out).reshape(w.a.shape)
        if op == "matvec5":
            m = _linearize(w.matrices)
            x = _linearize(w.vectors)
            out = [0.0] * len(x)
            python_matvec5(m, x, out, nx * ny * nz)
            return np.asarray(out).reshape(w.vectors.shape)
        if op == "reduction":
            return python_reduction(_linearize(w.four_d))
    elif style == "python_multidim":
        if op == "assignment":
            a = _nested(w.a)
            out = _nested(np.zeros_like(w.a))
            python_multidim_assignment(a, out, nx, ny, nz)
            return np.asarray(out)
        if op == "stencil1":
            a = _nested(w.a)
            out = _nested(np.zeros_like(w.a))
            python_multidim_stencil1(a, out, nx, ny, nz)
            return np.asarray(out)
        if op == "stencil2":
            a = _nested(w.a)
            out = _nested(np.zeros_like(w.a))
            python_multidim_stencil2(a, out, nx, ny, nz)
            return np.asarray(out)
        if op == "matvec5":
            m = _nested(w.matrices)
            x = _nested(w.vectors)
            out = _nested(np.zeros_like(w.vectors))
            python_multidim_matvec5(m, x, out, nx, ny, nz)
            return np.asarray(out)
        if op == "reduction":
            return python_multidim_reduction(_nested(w.four_d), nx, ny, nz)
    raise ValueError(f"unknown op/style: {op}/{style}")
