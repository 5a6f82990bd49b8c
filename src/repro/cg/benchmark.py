"""The CG benchmark driver (cg.f main program)."""

from __future__ import annotations

import math

import numpy as np

from repro.cg.makea import makea
from repro.cg.params import ZETA_EPSILON, cg_params
from repro.cg.solver import (
    _dot_slab,
    _fill_slab,
    _scale_into_x_slab,
    compute_reduceat_offsets,
    conj_grad,
)
from repro.common.randdp import A_DEFAULT, Randlc
from repro.common.verification import VerificationResult
from repro.core.benchmark import NPBenchmark
from repro.core.registry import register

#: LCG seed used by CG (tran in cg.f).
CG_SEED = 314159265


@register
class CG(NPBenchmark):
    """Conjugate Gradient, irregular memory access and communication."""

    name = "CG"

    def __init__(self, problem_class, team=None):
        super().__init__(problem_class, team)
        self.params = cg_params(self.problem_class)
        self.zeta = float("nan")
        #: per-outer-iteration (rnorm, zeta) history of the timed run
        self.history: list[tuple[float, float]] = []

    @property
    def niter(self) -> int:
        return self.params.niter

    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        params = self.params
        n = params.na
        rng = Randlc(CG_SEED, A_DEFAULT)
        rng.next()  # the main program's initial zeta = randlc(tran, amult)
        matrix = makea(n, params.nonzer, params.rcond, params.shift, rng)

        team = self.team
        nnz = matrix.nnz
        self.rowstr = team.shared(n + 1, dtype=np.int64)
        self.colidx = team.shared(nnz, dtype=np.int64)
        self.a = team.shared(nnz)
        self.rowstr[:] = matrix.rowstr
        self.colidx[:] = matrix.colidx
        self.a[:] = matrix.a
        # The mat-vec gathers without a per-call bounds check
        # (_matvec_slab's precondition); nothing writes colidx after this.
        if self.colidx.min() < 0 or self.colidx.max() >= n:
            raise ValueError(f"CG: column index outside [0, {n})")
        # Per-slab reduceat offsets for the mat-vec, computed once for
        # this team's plan (team-shared so process workers see them by
        # reference rather than repickling every dispatch).
        self.offsets = team.shared(n, dtype=np.int64)
        compute_reduceat_offsets(team.plan.bounds(n), self.rowstr,
                                 self.offsets)

        self.x = team.shared(n)
        self.z = team.shared(n)
        self.p = team.shared(n)
        self.q = team.shared(n)
        self.r = team.shared(n)

        # One untimed outer iteration to touch all data (cg.f does exactly
        # one), then reset the starting vector.
        team.parallel_for(n, _fill_slab, self.x, 1.0)
        self._outer_step()
        team.parallel_for(n, _fill_slab, self.x, 1.0)
        self.zeta = 0.0

    def _outer_step(self) -> tuple[float, float]:
        """One inverse-power outer iteration; returns (rnorm, zeta)."""
        params = self.params
        n = params.na
        team = self.team
        with self.region("conj_grad"):
            rnorm = conj_grad(team, n, self.rowstr, self.colidx, self.a,
                              self.x, self.z, self.p, self.q, self.r,
                              self.offsets)
        with self.region("norm"):
            norm_xz = team.reduce_sum(n, _dot_slab, self.x, self.z)
            norm_zz = team.reduce_sum(n, _dot_slab, self.z, self.z)
            zeta = params.shift + 1.0 / norm_xz
            team.parallel_for(n, _scale_into_x_slab, self.x, self.z,
                              1.0 / math.sqrt(norm_zz))
        return rnorm, zeta

    def _iterate(self) -> None:
        self.history = []
        for _ in range(self.params.niter):
            rnorm, zeta = self._outer_step()
            self.history.append((rnorm, zeta))
        self.zeta = zeta

    # ------------------------------------------------------------------ #

    def verify(self) -> VerificationResult:
        result = VerificationResult("CG", str(self.problem_class), True)
        result.add("zeta", self.zeta, self.params.zeta_verify, ZETA_EPSILON)
        return result

    def op_count(self) -> float:
        """Official cg.f operation count for the timed region."""
        params = self.params
        nnz_terms = params.nonzer * (params.nonzer + 1)
        return (2.0 * params.niter * params.na
                * (3.0 + nnz_terms + 25.0 * (5.0 + nnz_terms) + 3.0))
