"""The FT benchmark driver (ft.f main program).

Timed region (as in ft.f): index-map and initial-condition generation, the
forward 3-D FFT, then ``niter`` steps of spectral evolve + inverse FFT +
checksum.  A full untimed warm-up pass touches all data first.
"""

from __future__ import annotations

import numpy as np

from repro.common.randdp import Randlc
from repro.common.verification import VerificationResult
from repro.core.benchmark import NPBenchmark
from repro.core.registry import register
from repro.ft.fft import fft_x_slab, fft_y_slab, fft_z_slab
from repro.ft.params import ALPHA, FT_EPSILON, FT_SEED, ft_params
from repro.team.base import Team


def _indexmap_slab(lo: int, hi: int, twiddle, dims) -> None:
    """Gaussian damping factors exp(ap * |kbar|^2) for z planes [lo, hi)."""
    if hi <= lo:
        return
    nx, ny, nz = dims
    ap = -4.0 * ALPHA * np.pi * np.pi
    kx = (np.arange(nx) + nx // 2) % nx - nx // 2
    ky = (np.arange(ny) + ny // 2) % ny - ny // 2
    kz = (np.arange(lo, hi) + nz // 2) % nz - nz // 2
    k2 = (kz * kz)[:, None, None] + (ky * ky)[None, :, None] + (kx * kx)[None, None, :]
    twiddle[lo:hi] = np.exp(ap * k2.astype(np.float64))


def _evolve_slab(lo: int, hi: int, u0, u1, twiddle) -> None:
    """u0 *= twiddle; u1 = u0 for z planes [lo, hi) (evolve in ft.f)."""
    u0[lo:hi] *= twiddle[lo:hi]
    u1[lo:hi] = u0[lo:hi]


def _fill_conditions_slab(lo: int, hi: int, u, first: int = 0) -> None:
    """Initial conditions for z planes [lo, hi), into ``u[lo - first:hi - first]``.

    The Fortran fills the whole array from one contiguous LCG stream in
    x/y/z scan order (2 draws per point); each caller jumps the generator
    to the start of its planes, so any partition produces the same field.
    A team worker passes the whole field (``first = 0``); a message-passing
    rank passes its own z-slab and the global index of its first plane.
    """
    if hi <= lo:
        return
    _, ny, nx = u.shape
    per_plane = 2 * nx * ny
    rng = Randlc(FT_SEED)
    rng.skip(per_plane * lo)
    for plane in u[lo - first : hi - first]:
        values = rng.batch(per_plane)
        plane.real = values[0::2].reshape(ny, nx)
        plane.imag = values[1::2].reshape(ny, nx)


def _fft3d_team(team: Team, sign: int, src, dst, scratch) -> None:
    """3-D FFT via the team, ping-ponging src -> dst.

    Forward: x, y, z; inverse: z, y, x (the cffts call order in ft.f).
    ``scratch`` holds the intermediate; src is left untouched.
    """
    nz, ny, _ = src.shape
    if sign > 0:
        team.parallel_for(nz, fft_x_slab, src, dst, sign)
        team.parallel_for(nz, fft_y_slab, dst, scratch, sign)
        team.parallel_for(ny, fft_z_slab, scratch, dst, sign)
    else:
        team.parallel_for(ny, fft_z_slab, src, dst, sign)
        team.parallel_for(nz, fft_y_slab, dst, scratch, sign)
        team.parallel_for(nz, fft_x_slab, scratch, dst, sign)


@register
class FT(NPBenchmark):
    """3-D FFT spectral solver for the heat equation."""

    name = "FT"

    def __init__(self, problem_class, team=None):
        super().__init__(problem_class, team)
        self.params = ft_params(self.problem_class)
        self.checksums: list[complex] = []

    @property
    def niter(self) -> int:
        return self.params.niter

    @property
    def _dims(self) -> tuple[int, int, int]:
        p = self.params
        return (p.nx, p.ny, p.nz)

    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        p = self.params
        shape = (p.nz, p.ny, p.nx)
        team = self.team
        self.u0 = team.shared(shape, dtype=np.complex128)
        self.u1 = team.shared(shape, dtype=np.complex128)
        self.u2 = team.shared(shape, dtype=np.complex128)
        self.twiddle = team.shared(shape, dtype=np.float64)
        # Untimed warm-up pass over the whole problem (ft.f).
        self._full_run(warmup=True)

    def _checksum(self, u: np.ndarray) -> complex:
        p = self.params
        j = np.arange(1, 1025)
        q = j % p.nx
        r = (3 * j) % p.ny
        s = (5 * j) % p.nz
        return complex(u[s, r, q].sum() / p.ntotal)

    def _full_run(self, warmup: bool) -> None:
        p = self.params
        team = self.team
        niter = 1 if warmup else p.niter
        with self.region("setup"):
            team.parallel_for(p.nz, _indexmap_slab, self.twiddle, self._dims)
            team.parallel_for(p.nz, _fill_conditions_slab, self.u1)
        with self.region("fft"):
            _fft3d_team(team, 1, self.u1, self.u0, self.u2)
        checksums = []
        for _ in range(niter):
            with self.region("evolve"):
                team.parallel_for(p.nz, _evolve_slab, self.u0, self.u1,
                                  self.twiddle)
            with self.region("fft"):
                _fft3d_team(team, -1, self.u1, self.u2, self.u1)
            with self.region("checksum"):
                checksums.append(self._checksum(self.u2))
        if not warmup:
            self.checksums = checksums

    def _iterate(self) -> None:
        self._full_run(warmup=False)

    # ------------------------------------------------------------------ #

    def verify(self) -> VerificationResult:
        result = VerificationResult("FT", str(self.problem_class), True)
        refs = self.params.checksums
        if len(self.checksums) != len(refs):
            result.verified = False
            result.reason = "checksum count mismatch"
            return result
        for i, (computed, reference) in enumerate(zip(self.checksums, refs), 1):
            result.add(f"checksum[{i}].re", computed.real, reference.real,
                       FT_EPSILON)
            result.add(f"checksum[{i}].im", computed.imag, reference.imag,
                       FT_EPSILON)
        return result

    def op_count(self) -> float:
        """Official ft.f operation-count formula."""
        p = self.params
        ntotal = float(p.ntotal)
        log_n = np.log(ntotal) / np.log(2.0)
        return (ntotal * (14.8157 + 7.19641 * log_n
                          + (5.23518 + 7.21113 * log_n) * p.niter))
