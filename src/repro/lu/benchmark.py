"""The LU benchmark driver (lu.f main program and ssor)."""

from __future__ import annotations

import numpy as np

from repro.cfd.constants import CFDConstants
from repro.cfd.exact import exact_field
from repro.common.verification import VerificationResult
from repro.core.benchmark import NPBenchmark
from repro.core.registry import register
from repro.lu.operator import apply_operator_slab, rhs_slab
from repro.lu.params import LU_EPSILON, OMEGA, lu_params
from repro.lu.setup import pintgr, setbv, setiv
from repro.lu.sweep import (blts_slab, buts_slab, hyperplanes, jac_slab,
                            jac_scratch_shape, plane_wavefronts,
                            wavefront_tiles)


def _scale_rsd_slab(lo: int, hi: int, rsd, dt: float) -> None:
    """rsd *= dt on interior planes (start of each SSOR step)."""
    rsd[1 + lo : 1 + hi, 1:-1, 1:-1, :] *= dt


def _update_u_slab(lo: int, hi: int, u, rsd, tmp: float) -> None:
    """u += tmp * rsd on interior planes (end of each SSOR step)."""
    u[1 + lo : 1 + hi, 1:-1, 1:-1, :] += (
        tmp * rsd[1 + lo : 1 + hi, 1:-1, 1:-1, :])


def _l2norm_slab(lo: int, hi: int, v) -> np.ndarray:
    """Partial interior sum of squares per component."""
    interior = v[1 + lo : 1 + hi, 1:-1, 1:-1, :]
    return np.sum(interior * interior, axis=(0, 1, 2))


@register
class LU(NPBenchmark):
    """Lower-Upper symmetric Gauss-Seidel simulated CFD application."""

    name = "LU"

    def __init__(self, problem_class, team=None, sweep_mode: str = "hyperplane"):
        """``sweep_mode``: "hyperplane" (3-D wavefronts, ~3n barriers per
        sweep) or "plane" (the paper's Java ordering: k planes with
        in-plane diagonals, O(n^2) barriers).  Both compute identical
        results; they differ only in synchronization structure."""
        super().__init__(problem_class, team)
        if sweep_mode not in ("hyperplane", "plane"):
            raise ValueError(f"unknown sweep_mode {sweep_mode!r}")
        self.sweep_mode = sweep_mode
        self.params = lu_params(self.problem_class)
        n = self.params.problem_size
        self.constants = CFDConstants(n, n, n, self.params.dt)
        self.rsdnm = np.zeros(5)
        self.frc = float("nan")

    @property
    def niter(self) -> int:
        return self.params.niter

    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        c = self.constants
        team = self.team
        shape = (c.nz, c.ny, c.nx, 5)
        self.u = team.shared(shape)
        self.rsd = team.shared(shape)
        self.frct = team.shared(shape)
        (self.idx_k, self.idx_j, self.idx_i,
         self._offsets) = self._shared_hyperplanes()
        self._tiles = wavefront_tiles(self._offsets)
        self.jac = team.shared(jac_scratch_shape(self._offsets, self._tiles))

        setbv(self.u, c)
        setiv(self.u, c)
        self._erhs()
        self._ssor(1)           # untimed warm-up sweep (lu.f)
        setbv(self.u, c)
        setiv(self.u, c)
        self._rhs()             # initial residual, untimed

    def _shared_hyperplanes(self):
        c = self.constants
        grouping = (hyperplanes if self.sweep_mode == "hyperplane"
                    else plane_wavefronts)
        k, j, i, offsets = grouping(c.nx, c.ny, c.nz)
        team = self.team
        sk = team.shared(len(k), dtype=np.int64)
        sj = team.shared(len(j), dtype=np.int64)
        si = team.shared(len(i), dtype=np.int64)
        sk[:] = k
        sj[:] = j
        si[:] = i
        return sk, sj, si, offsets.tolist()

    def _erhs(self) -> None:
        """Forcing term: the operator applied to the exact field (erhs)."""
        c = self.constants
        ue = exact_field(c.nx, c.ny, c.nz, c.dnxm1, c.dnym1, c.dnzm1)
        self.frct.fill(0.0)
        apply_operator_slab(0, c.nz - 2, ue, self.frct, c)

    def _rhs(self) -> None:
        c = self.constants
        self.team.parallel_for(c.nz - 2, rhs_slab, self.u, self.rsd,
                               self.frct, c)

    def _l2norm(self) -> np.ndarray:
        c = self.constants
        partials = self.team.parallel_for(c.nz - 2, _l2norm_slab, self.rsd)
        total = np.sum(partials, axis=0)
        denom = float((c.nx - 2) * (c.ny - 2) * (c.nz - 2))
        return np.sqrt(total / denom)

    def _assemble(self, tile: tuple[int, int], lower: bool,
                  upper: bool) -> None:
        """Build the 5x5 blocks of one tile of wavefronts into ``jac``."""
        start = self._offsets[tile[0]]
        with self.region("jac"):
            self.team.parallel_for(
                self._offsets[tile[1]] - start, jac_slab, self.jac, self.u,
                self.idx_k, self.idx_j, self.idx_i, start, lower, upper,
                self.constants)

    def _sweep(self, name: str, task, tile: tuple[int, int],
               wavefronts: range) -> None:
        """One barrier per wavefront of an assembled tile."""
        offsets = self._offsets
        base = offsets[tile[0]]
        team = self.team
        with self.region(name):
            for s in wavefronts:
                start = offsets[s]
                team.parallel_for(offsets[s + 1] - start, task, self.rsd,
                                  self.jac, self.idx_k, self.idx_j,
                                  self.idx_i, start, start - base, OMEGA)

    def _ssor(self, niter: int) -> None:
        """The SSOR pseudo-time iteration (ssor in lu.f)."""
        c = self.constants
        team = self.team
        tmp = 1.0 / (OMEGA * (2.0 - OMEGA))
        tiles = self._tiles
        # The upper sweep starts in the tile the lower sweep ends in, so
        # that tile is assembled once for both (with a single tile: one
        # assembly per step).
        turn = tiles[-1]
        for _ in range(niter):
            with self.region("scale"):
                team.parallel_for(c.nz - 2, _scale_rsd_slab, self.rsd, c.dt)
            # Lower sweep: ascending wavefronts.
            for tile in tiles:
                self._assemble(tile, lower=True, upper=tile is turn)
                self._sweep("blts", blts_slab, tile, range(*tile))
            # Upper sweep: descending wavefronts.
            for tile in reversed(tiles):
                if tile is not turn:
                    self._assemble(tile, lower=False, upper=True)
                self._sweep("buts", buts_slab, tile,
                            range(tile[1] - 1, tile[0] - 1, -1))
            with self.region("add"):
                team.parallel_for(c.nz - 2, _update_u_slab, self.u,
                                  self.rsd, tmp)
            with self.region("rhs"):
                self._rhs()
        with self.region("l2norm"):
            self.rsdnm = self._l2norm()

    def _iterate(self) -> None:
        self._ssor(self.params.niter)

    # ------------------------------------------------------------------ #

    def _error_norm(self) -> np.ndarray:
        """Interior-only RMS error against the exact field (error in lu.f)."""
        c = self.constants
        ue = exact_field(c.nx, c.ny, c.nz, c.dnxm1, c.dnym1, c.dnzm1)
        diff = (self.u - ue)[1:-1, 1:-1, 1:-1, :]
        denom = float((c.nx - 2) * (c.ny - 2) * (c.nz - 2))
        return np.sqrt(np.sum(diff * diff, axis=(0, 1, 2)) / denom)

    def verify(self) -> VerificationResult:
        result = VerificationResult("LU", str(self.problem_class), True)
        errnm = self._error_norm()
        self.frc = pintgr(self.u, self.constants)
        for m in range(5):
            result.add(f"xcr[{m + 1}]", self.rsdnm[m],
                       self.params.xcrref[m], LU_EPSILON)
        for m in range(5):
            result.add(f"xce[{m + 1}]", errnm[m], self.params.xceref[m],
                       LU_EPSILON)
        result.add("xci", self.frc, self.params.xciref, LU_EPSILON)
        return result

    def op_count(self) -> float:
        """Official lu.f operation-count polynomial."""
        n = float(self.params.problem_size)
        per_iter = (1984.77 * n ** 3 - 10923.3 * n ** 2
                    + 27770.9 * n - 144010.0)
        return per_iter * self.params.niter
