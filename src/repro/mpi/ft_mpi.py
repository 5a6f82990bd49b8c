"""FT over message passing: the NPB2 FT-MPI slab algorithm.

Decomposition: each rank owns a contiguous slab of z planes for the x/y
transforms and a contiguous slab of y rows for the z transform; the two
layouts are connected by a personalized all-to-all transpose, exactly as
in the reference FT-MPI "1-D layout" code.  The spectral evolve happens
in the z-major (y-slab) layout, so one transpose per inverse transform
and one at startup suffice.

Verified against the same official checksums as the shared-memory FT.
"""

from __future__ import annotations

import numpy as np

from repro.common.randdp import Randlc
from repro.ft.fft import fft_along_axis
from repro.ft.params import ALPHA, FT_SEED, ft_params
from repro.mpi.comm import Communicator, mpi_run
from repro.team.partition import block_partition, partition_bounds


def _initial_slab(nx: int, ny: int, zlo: int, zhi: int) -> np.ndarray:
    """This rank's z-slab of the initial conditions (LCG jump per plane)."""
    per_plane = 2 * nx * ny
    rng = Randlc(FT_SEED)
    rng.skip(per_plane * zlo)
    u = np.empty((zhi - zlo, ny, nx), dtype=np.complex128)
    for k in range(zhi - zlo):
        values = rng.batch(per_plane)
        u[k].real = values[0::2].reshape(ny, nx)
        u[k].imag = values[1::2].reshape(ny, nx)
    return u


def _transpose_z_to_y(comm: Communicator, slab: np.ndarray,
                      ny: int, nz: int) -> np.ndarray:
    """(z-slab, full y) -> (full z, y-slab) via alltoall."""
    chunks = [np.ascontiguousarray(slab[:, lo:hi, :])
              for lo, hi in block_partition(ny, comm.size)]
    received = comm.alltoall(chunks)
    return np.concatenate(received, axis=0)


def _transpose_y_to_z(comm: Communicator, slab: np.ndarray,
                      ny: int, nz: int) -> np.ndarray:
    """(full z, y-slab) -> (z-slab, full y) via alltoall."""
    chunks = [np.ascontiguousarray(slab[lo:hi, :, :])
              for lo, hi in block_partition(nz, comm.size)]
    received = comm.alltoall(chunks)
    return np.concatenate(received, axis=1)


def _rank_program(comm: Communicator, problem_class: str) -> list[complex]:
    params = ft_params(problem_class)
    nx, ny, nz = params.nx, params.ny, params.nz
    niter = params.niter
    zlo, zhi = partition_bounds(nz, comm.size, comm.rank)
    ylo, yhi = partition_bounds(ny, comm.size, comm.rank)

    # local initial conditions + x/y transforms in the z-slab layout
    u = _initial_slab(nx, ny, zlo, zhi)
    u = fft_along_axis(u, 2, 1)
    u = fft_along_axis(u, 1, 1)
    # transpose and finish the forward transform along z
    u_hat = _transpose_z_to_y(comm, u, ny, nz)
    u_hat = fft_along_axis(u_hat, 0, 1)

    # damping factors in the y-slab layout
    ap = -4.0 * ALPHA * np.pi * np.pi
    kx = (np.arange(nx) + nx // 2) % nx - nx // 2
    ky = (np.arange(ylo, yhi) + ny // 2) % ny - ny // 2
    kz = (np.arange(nz) + nz // 2) % nz - nz // 2
    k2 = ((kz * kz)[:, None, None] + (ky * ky)[None, :, None]
          + (kx * kx)[None, None, :])
    twiddle = np.exp(ap * k2.astype(np.float64))

    # checksum index set, restricted to this rank's final z-slab
    j = np.arange(1, 1025)
    q = j % nx
    r = (3 * j) % ny
    s = (5 * j) % nz
    mine = (s >= zlo) & (s < zhi)

    checksums: list[complex] = []
    for _ in range(niter):
        u_hat *= twiddle
        # inverse: z first (local in this layout), transpose, then y, x
        u2 = fft_along_axis(u_hat, 0, -1)
        u2 = _transpose_y_to_z(comm, u2, ny, nz)
        u2 = fft_along_axis(u2, 1, -1)
        u2 = fft_along_axis(u2, 2, -1)
        local = complex(u2[s[mine] - zlo, r[mine], q[mine]].sum())
        total = comm.allreduce(local, op=lambda a, b: a + b)
        checksums.append(total / params.ntotal)
    return checksums


def ft_mpi_checksums(problem_class: str = "S",
                     nprocs: int = 4) -> list[complex]:
    """Run FT class ``problem_class`` on ``nprocs`` ranks; returns the
    per-iteration checksums (compare with ft_params(...).checksums)."""
    results = mpi_run(nprocs, _rank_program, problem_class)
    # every rank holds the identical allreduced checksums
    return results[0]
