"""The SP benchmark driver (sp.f main program and adi)."""

from __future__ import annotations

from repro.cfd.constants import CFDConstants
from repro.cfd.exact_rhs import compute_forcing
from repro.cfd.initialize import initialize
from repro.cfd.norms import error_norm, rhs_norm
from repro.cfd.rhs import add_slab, fields_slab, rhs_slab
from repro.common.verification import VerificationResult
from repro.core.benchmark import NPBenchmark
from repro.core.registry import register
from repro.sp.params import SP_EPSILON, sp_params
from repro.sp.pointwise import ninvr_slab, pinvr_slab, txinvr_slab, tzetar_slab
from repro.sp.solve import x_solve_slab, y_solve_slab, z_solve_slab


@register
class SP(NPBenchmark):
    """Scalar Pentadiagonal simulated CFD application."""

    name = "SP"

    def __init__(self, problem_class, team=None):
        super().__init__(problem_class, team)
        self.params = sp_params(self.problem_class)
        n = self.params.problem_size
        self.constants = CFDConstants(n, n, n, self.params.dt)

    @property
    def niter(self) -> int:
        return self.params.niter

    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        c = self.constants
        shape = (c.nz, c.ny, c.nx)
        team = self.team
        self.u = team.shared(shape + (5,))
        self.rhs = team.shared(shape + (5,))
        self.forcing = team.shared(shape + (5,))
        self.rho_i = team.shared(shape)
        self.us = team.shared(shape)
        self.vs = team.shared(shape)
        self.ws = team.shared(shape)
        self.qs = team.shared(shape)
        self.square = team.shared(shape)
        self.speed = team.shared(shape)

        initialize(self.u, c)
        compute_forcing(self.forcing, c)
        self.adi()          # one untimed warm-up step (sp.f)
        initialize(self.u, c)

    def compute_rhs(self) -> None:
        c = self.constants
        team = self.team
        team.parallel_for(c.nz, fields_slab, self.u, self.rho_i,
                          self.us, self.vs, self.ws, self.qs,
                          self.square, self.speed, c)
        team.parallel_for(c.nz - 2, rhs_slab, self.u, self.rhs,
                          self.forcing, self.rho_i, self.us, self.vs,
                          self.ws, self.qs, self.square, c)

    def adi(self) -> None:
        """One approximate-factorization time step (phase timers follow
        the NPB t_rhs/t_xsolve/... convention)."""
        c = self.constants
        team = self.team
        nz2 = c.nz - 2
        ny2 = c.ny - 2
        with self.region("rhs"):
            self.compute_rhs()
        with self.region("txinvr"):
            team.parallel_for(nz2, txinvr_slab, self.rhs, self.rho_i,
                              self.us, self.vs, self.ws, self.qs,
                              self.speed, c)
        with self.region("xsolve"):
            team.parallel_for(nz2, x_solve_slab, self.rhs, self.rho_i,
                              self.us, self.speed, c)
            team.parallel_for(nz2, ninvr_slab, self.rhs, c)
        with self.region("ysolve"):
            team.parallel_for(nz2, y_solve_slab, self.rhs, self.rho_i,
                              self.vs, self.speed, c)
            team.parallel_for(nz2, pinvr_slab, self.rhs, c)
        with self.region("zsolve"):
            team.parallel_for(ny2, z_solve_slab, self.rhs, self.rho_i,
                              self.ws, self.speed, c)
            team.parallel_for(nz2, tzetar_slab, self.rhs, self.u, self.us,
                              self.vs, self.ws, self.qs, self.speed, c)
        with self.region("add"):
            team.parallel_for(nz2, add_slab, self.u, self.rhs)

    def _iterate(self) -> None:
        for _ in range(self.params.niter):
            self.adi()

    # ------------------------------------------------------------------ #

    def verify(self) -> VerificationResult:
        c = self.constants
        result = VerificationResult("SP", str(self.problem_class), True)
        xce = error_norm(self.u, c)
        self.compute_rhs()
        xcr = rhs_norm(self.rhs, c) / self.params.dt
        for m in range(5):
            result.add(f"xcr[{m + 1}]", xcr[m], self.params.xcrref[m],
                       SP_EPSILON)
        for m in range(5):
            result.add(f"xce[{m + 1}]", xce[m], self.params.xceref[m],
                       SP_EPSILON)
        return result

    def op_count(self) -> float:
        """Official sp.f operation-count polynomial."""
        n = float(self.params.problem_size)
        per_iter = (881.174 * n ** 3 - 4683.91 * n ** 2
                    + 11484.5 * n - 19272.4)
        return per_iter * self.params.niter
