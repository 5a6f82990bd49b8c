"""From-scratch four-step FFT (the cfftz kernel of ft.f).

Bailey's four-step views each length-n row as an (n1, n2) matrix with
n = n1*n2: an n1-point DFT down its columns, one twiddle multiply, an
n2-point DFT along its rows -- two small matrix multiplies per row.  The
stacked ``matmul`` makes one GEMM per row (16 x 16 x 16 at n = 256), too
small for BLAS to start threads of its own, so a transform runs on the
calling thread.

Only power-of-two lengths are supported (all NPB grids are powers of two).
Conventions follow ft.f: ``sign=+1`` is the forward transform
``X[k] = sum_j x[j] exp(+2*pi*i*j*k/n)`` and ``sign=-1`` its conjugate;
neither direction normalizes (the benchmark's checksum divides by the grid
size instead).
"""

from __future__ import annotations

import numpy as np

#: Cache of (n1-point DFT, n1 x n2 twiddles, n2-point DFT) keyed by (n, sign).
_FACTORS: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _roots(rows: int, cols: int, n: int, sign: int) -> np.ndarray:
    """exp(sign*2*pi*i*j*k/n) for j < rows, k < cols, with jk reduced mod n."""
    jk = np.outer(np.arange(rows), np.arange(cols)) % n
    return np.exp(sign * 2j * np.pi * jk / n)


def fft_rows(x: np.ndarray, sign: int) -> np.ndarray:
    """DFT of each row of a 2-D complex array (four-step).

    With j = j1*n2 + j2 and k = k1 + n1*k2, w_n^(jk) factors into
    w_n1^(j1 k1) * w_n^(j2 k1) * w_n2^(j2 k2): the two matmuls and the
    twiddle between them; the second matmul writes in (k2, k1) order.
    """
    m, n = x.shape
    if n & (n - 1):
        raise ValueError("fft_rows requires a power-of-two length")
    factors = _FACTORS.get((n, sign))
    if factors is None:
        n1 = 1 << ((n.bit_length() - 1) // 2)
        n2 = n // n1
        factors = (_roots(n1, n1, n1, sign), _roots(n1, n2, n, sign),
                   _roots(n2, n2, n2, sign))
        _FACTORS[(n, sign)] = factors
    f1, twiddle, f2 = factors
    n1, n2 = twiddle.shape
    b = np.matmul(f1, x.reshape(m, n1, n2))
    b *= twiddle
    out = np.empty((m, n), dtype=np.complex128)
    np.matmul(b, f2, out=out.reshape(m, n2, n1).transpose(0, 2, 1))
    return out


def fft_along_axis(x: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """DFT along one axis of an n-D complex array; returns a new array."""
    moved = np.moveaxis(x, axis, -1)
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(-1, shape[-1])
    out = fft_rows(flat, sign).reshape(shape)
    return np.ascontiguousarray(np.moveaxis(out, -1, axis))


def fft3d(x: np.ndarray, sign: int) -> np.ndarray:
    """Full 3-D transform on a (nz, ny, nx) array.

    Forward (sign=+1) transforms x, then y, then z; inverse (sign=-1)
    transforms z, then y, then x -- the cffts1/2/3 call order of ft.f.
    """
    axes = (2, 1, 0) if sign > 0 else (0, 1, 2)
    for axis in axes:
        x = fft_along_axis(x, axis, sign)
    return x


# --------------------------------------------------------------------- #
# Slab workers used by the FT benchmark (module-level for the process
# backend).  x/y transforms are partitioned over z planes; the z transform
# over y rows.

def fft_x_slab(lo: int, hi: int, src, dst, sign: int) -> None:
    """Transform along x (last axis) for z planes [lo, hi)."""
    if hi <= lo:
        return
    planes = src[lo:hi]
    nz, ny, nx = planes.shape
    dst[lo:hi] = fft_rows(planes.reshape(-1, nx), sign).reshape(planes.shape)


def fft_y_slab(lo: int, hi: int, src, dst, sign: int) -> None:
    """Transform along y (middle axis) for z planes [lo, hi)."""
    if hi <= lo:
        return
    planes = src[lo:hi]
    moved = np.ascontiguousarray(np.moveaxis(planes, 1, -1))
    ny = moved.shape[-1]
    out = fft_rows(moved.reshape(-1, ny), sign).reshape(moved.shape)
    dst[lo:hi] = np.moveaxis(out, -1, 1)


def fft_z_slab(lo: int, hi: int, src, dst, sign: int) -> None:
    """Transform along z (first axis) for y rows [lo, hi)."""
    if hi <= lo:
        return
    rows = src[:, lo:hi, :]
    moved = np.ascontiguousarray(np.moveaxis(rows, 0, -1))
    nz = moved.shape[-1]
    out = fft_rows(moved.reshape(-1, nz), sign).reshape(moved.shape)
    dst[:, lo:hi, :] = np.moveaxis(out, -1, 0)
